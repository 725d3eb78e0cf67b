"""ncpoly benchmark: one seeded workload, timed in a closed loop, checked.

    python3 perfbench/run.py --workload hankel-rep --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the library is imported from
``src``. One client sends one item at a time and waits for it. The workload's
items form a round with fixed inputs; the run repeats whole rounds while
another one would end nearer ``--seconds`` than stopping, and always
finishes at least one, so every run of a workload sees the same mix of items.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The lines before
it give the machine note and each failed item with its label. The full
record (every item, and with ``--trace 1`` every span) is written under
``perfbench/results``.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not _cur.isdigit() or not 1 <= int(_cur) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5

WORKLOADS = {"hankel-rep": "hankel_rep", "ball-stationary": "ball_stationary",
             "cli-files": "cli_files"}


def machine_note() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def stem(args, trace: int) -> str:
    """Name of a run's files under results/."""
    return f"{args.workload}-seed{args.seed}-trace{trace}" + ("-smoke" if args.smoke else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest shapes, for the benchmark's self-tests")
    ap.add_argument("--corrupt", action="store_true",
                    help="hankel-rep: perturb one moment the program computes")
    args = ap.parse_args(argv)

    if not (SRC / "ncpoly" / "__init__.py").is_file():
        print(f"error: no ncpoly sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from core import END_TO_END, PER_LAYER, end_to_end, per_layer, timed_phase

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    opts = {"smoke": args.smoke, "corrupt": args.corrupt}
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = module.setup(args.seed, workdir, **opts)
        setups.append(time.perf_counter() - t0)
        if len(setups) < SETUP_REPEATS:
            workload.cleanup()
    setup_s = statistics.median(setups)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        workload.tracer = tracer
    try:
        records, rounds, elapsed = timed_phase(workload, args.seconds, tracer)
    finally:
        workload.cleanup()

    if module.IN_PROCESS:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    e2e, tail_info = end_to_end(records, setup_s, rss_mb)
    note = machine_note()
    result: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "corrupt": args.corrupt, "rounds": rounds,
        "elapsed_s": elapsed, "setup_runs_s": setups, "machine": note,
        "end_to_end": e2e, **tail_info,
    }
    if args.trace:
        layers = per_layer(records, tracer, e2e["item_s_p50"])
        result["per_layer"] = layers
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        plain = RESULTS / f"{stem(args, 0)}.json"
        if plain.is_file():
            base = json.loads(plain.read_text())["end_to_end"]["item_s_p50"]
            result["trace_overhead"] = e2e["item_s_p50"] / base
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    result["records"] = records

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem(args, args.trace)}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        (RESULTS / f"{stem(args, 1)}-spans.json").write_text(json.dumps(tracer.dump()))

    failed = [r for r in records if not r["ok"]]
    print(json.dumps({"machine": note}))
    print(json.dumps({"workload": args.workload, "rounds": rounds, "elapsed_s": round(elapsed, 3),
                      "attempted": len(records), "items": tail_info["items"],
                      "tail_percentile": tail_info["tail_percentile"],
                      "trace_overhead": result.get("trace_overhead")}))
    for r in failed:
        if r["round"] == 0:
            print(json.dumps({"failed": r["id"], "label": r["label"], "error": r.get("error"),
                              "message": r.get("message", "")[:120]}))
    correct = all(r["ok"] or r["label"] is not None for r in records)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
