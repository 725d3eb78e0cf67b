"""Run the ncpoly CLI with the benchmark's spans installed.

    python3 perfbench/cli_launch.py TRACE_OUT <ncpoly cli arguments>

Used by the traced run of cli-files in place of ``python -m ncpoly.cli``;
the spans are written to TRACE_OUT when the command returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import ncpoly.cli

    tracer.item = 0
    try:
        return ncpoly.cli.main(argv)
    finally:
        tracer.item = None
        Path(trace_out).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
