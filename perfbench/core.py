"""Items, the closed-loop timed phase and the metrics computed from it."""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

END_TO_END = {
    "setup_s": "s", "item_s_p50": "s", "item_s_tail": "s", "verified_per_s": "1/s",
    "fail_share": "fraction", "accuracy_digits": "digits", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "words.Word.constructed": "count/item",
    "words.words_up_to.self_s": "s/item",
    "functional.from_representation.self_s": "s/item",
    "functional.gram.calls": "count/item",
    "functional.gram.self_s": "s/item",
    "functional.gram.order_max": "count",
    "functional.MomentFunctional.self_s": "s/item",
    "functional.strict_positivity.self_s": "s/item",
    "functional.strict_positivity.margin": "ratio",
    "orthopoly.orthogonalize.self_s": "s/item",
    "orthopoly.szego_recursion.self_s": "s/item",
    "orthopoly.word_product.calls": "count/item",
    "recurrence.extract.self_s": "s/item",
    "recurrence.residual_check.self_s": "s/item",
    "recurrence.favard.self_s": "s/item",
    "jacobi.hamburger_check.self_s": "s/item",
    "jacobi.build.self_s": "s/item",
    "jacobi.moment.calls": "count/item",
    "jacobi.moment.self_s": "s/item",
    "opeval.ball_sandwich.calls": "count/item",
    "opeval.ball_sandwich.self_s": "s/item",
    "opeval.ball_sandwich.levels": "count/item",
    "opeval.ball_sandwich.refused": "count/item",
    "opeval.membership.calls": "count/item",
    "opeval.evaluate_all.self_s": "s/item",
    "opeval.cd_full_check.self_s": "s/item",
    "opeval.cd_inner_identity.self_s": "s/item",
    "serialize.load_moments.self_s": "s/item",
    "serialize.load_moment_dict.self_s": "s/item",
    "serialize.load_basis.self_s": "s/item",
    "serialize.load_coeffs.self_s": "s/item",
    "serialize.load_point.self_s": "s/item",
    "serialize.load_matrix.self_s": "s/item",
    "serialize.save_moments.self_s": "s/item",
    "serialize.save_basis.self_s": "s/item",
    "serialize.save_coeffs.self_s": "s/item",
    "serialize.save_point.self_s": "s/item",
    "serialize.save_matrix.self_s": "s/item",
    "serialize.bytes_read": "B/item",
    "serialize.bytes_written": "B/item",
    "cli.startup_s": "s/item",
    "cli.main.self_s": "s/item",
    "trace.item_s_p50": "s",
}


@dataclass
class Item:
    """One unit of work: `run` is timed, `check` is not.

    `check(out)` returns (name, value, tolerance) triples; the item passes
    when no exception escaped `run` and every value is <= its tolerance.
    A wrong verdict is a check of value 1 against tolerance 0.
    """

    id: str
    label: str | None
    run: Callable[[], Any]
    check: Callable[[Any], list[tuple[str, float, float]]]


class Workload:
    """What a workload module's `setup(seed, workdir, smoke=..., corrupt=...)` returns.

    `tracer` is set for a traced run before the timed phase, for items that
    must pass it on (a child process's spans).
    """

    def __init__(self, items: list[Item], cleanup: Callable[[], None] | None = None):
        self.items = items
        self.cleanup = cleanup or (lambda: None)
        self.tracer = None


def run_item(item: Item, key, tracer) -> dict:
    gc.collect()    # every item starts from the same heap state
    if tracer is not None:
        tracer.item = key
    t0 = time.perf_counter()
    exc = None
    try:
        out = item.run()
    except Exception as e:  # an item's failure is a result, not a crash
        exc, out = e, None
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.item = None
    checks = [] if exc is not None else item.check(out)
    failing = [c for c in checks if not c[1] <= c[2]]
    rec = {"key": key, "id": item.id, "label": item.label, "seconds": wall,
           "ok": exc is None and not failing,
           "checks": {name: [value, tol] for name, value, tol in checks}}
    if exc is not None:
        rec["error"] = type(exc).__name__
        rec["message"] = str(exc)[:300]
    elif failing:
        rec["error"] = failing[0][0]
        rec["failing"] = [c[0] for c in failing]
    worst = max([c[1] for c in checks] + [0.0])
    rec["digits"] = 0.0 if not rec["ok"] else (16.0 if worst <= 0 else min(16.0, -math.log10(worst)))
    return rec


def timed_phase(workload: Workload, seconds: float, tracer) -> tuple[list[dict], int, float]:
    """Run whole rounds while another one would end nearer `seconds` than stopping now.

    A run whose rounds are long then keeps the same count of rounds when the
    machine runs a little faster or slower, instead of losing one as soon as
    a round no longer fits in the time left.
    """
    records: list[dict] = []
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds == 0 or seconds - (time.perf_counter() - start) > last / 2:
        r0 = time.perf_counter()
        for item in workload.items:
            rec = run_item(item, len(records), tracer)
            rec["round"] = rounds
            records.append(rec)
        last = time.perf_counter() - r0
        rounds += 1
    return records, rounds, time.perf_counter() - start


def item_times(records: list[dict]) -> list[float]:
    """One time per item, sorted, with failed items ranked after every verified one.

    An item's time is the median over its repetitions in the run. A failed
    item delivered nothing, so it takes the slowest verified item's time, a
    lower bound on the latency it missed.
    """
    by_id: dict[str, list[dict]] = {}
    for r in records:
        by_id.setdefault(r["id"], []).append(r)
    times = {i: statistics.median(r["seconds"] for r in rs) for i, rs in by_id.items()}
    ok = {i: all(r["ok"] for r in rs) for i, rs in by_id.items()}
    verified = [t for i, t in times.items() if ok[i]]
    worst = max(verified or times.values())
    return sorted(t if ok[i] else worst for i, t in times.items())


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten items beyond it (50 if none)."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def nearest_rank(xs: list[float], p: float) -> float:
    return xs[max(0, math.ceil(p * len(xs) / 100) - 1)]


def end_to_end(records: list[dict], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    xs = item_times(records)
    n = len(records)
    verified = sum(r["ok"] for r in records)
    p_tail = tail_percentile(len(xs))
    values = {
        "setup_s": setup_s,
        "item_s_p50": nearest_rank(xs, 50),
        "item_s_tail": nearest_rank(xs, p_tail),
        "verified_per_s": verified / sum(r["seconds"] for r in records),
        "fail_share": (n - verified) / n,
        "accuracy_digits": statistics.median(r["digits"] for r in records),
        "peak_rss_mb": rss_mb,
    }
    return values, {"tail_percentile": p_tail, "items": len(xs)}


def per_layer(records: list[dict], tracer, p50: float) -> dict:
    n = len(records)
    selfs = tracer.self_times()
    self_sum: dict[str, float] = {}
    calls: dict[str, int] = {}
    main_total = 0.0
    for span, st in zip(tracer.spans, selfs):
        name = span[0]
        self_sum[name] = self_sum.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        if name == "cli.main":
            main_total += span[2] - span[1]
    startup = 0.0
    if calls.get("cli.main"):
        startup = (sum(r["seconds"] for r in records) - main_total) / n
    orders = tracer.samples.get("functional.gram.order", [])
    margins = tracer.samples.get("functional.strict_positivity.margin", [])
    values = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "self_s":
            values[metric] = self_sum.get(base, 0.0) / n
        else:
            values[metric] = (calls.get(base, 0) * (kind == "calls")
                              + tracer.counts.get(metric, 0)) / n
    values.update({
        "functional.gram.order_max": max(orders, default=0),
        "functional.strict_positivity.margin": statistics.median(margins) if margins else 0.0,
        "cli.startup_s": startup,
        "trace.item_s_p50": p50,
    })
    return values
