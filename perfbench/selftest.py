"""Self-tests for the benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py

Each check starts run.py at the smallest shapes (--smoke) and exits nonzero
on the first failure:

* every end-to-end and per-layer metric is printed by name with its unit;
* one corrupted moment makes a hankel-rep check fail and raises fail_share;
* the self times of each traced item sum to no more than its wall time;
* counts are identical across two traced runs with the same seed;
* without ``src`` next to it the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

from core import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("hankel-rep", "ball-stationary", "cli-files")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print("ok  ", what)


def count_metrics(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"].startswith("count")}


def main() -> int:
    counts = {}
    for workload in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            res = result(bench(workload, trace))
            if trace:
                counts[workload] = count_metrics(res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == table and set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace}: every metric with its unit")
            check(res["correct"] and res["attempted"] >= 1, f"{workload} trace={trace}: correct")
        stem = RESULTS / f"{workload}-seed3-trace1-smoke"
        records = json.loads(stem.with_suffix(".json").read_text())["records"]
        spans = json.loads((RESULTS / f"{stem.name}-spans.json").read_text())["spans"]
        selfs = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                selfs[s[3]] -= s[2] - s[1]
        per_item = defaultdict(float)
        for s, t in zip(spans, selfs):
            per_item[s[4]] += t
        check(all(per_item[r["key"]] <= r["seconds"] + 1e-6 for r in records),
              f"{workload}: per-layer self times of each item sum to <= its wall time")

    for workload in WORKLOADS:
        again = count_metrics(result(bench(workload, 1)))
        check(again == counts[workload] and any(again.values()),
              f"{workload}: counts identical across two traced runs")

    base = result(bench("hankel-rep", 0))
    bad = result(bench("hankel-rep", 0, "--corrupt"))
    check(not bad["correct"] and bad["metrics"]["fail_share"]["value"]
          > base["metrics"]["fail_share"]["value"],
          "hankel-rep: one corrupted moment fails its check and raises fail_share")

    bare = BENCH / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = bench("hankel-rep", 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src: nonzero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
