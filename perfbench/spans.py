"""Spans and counters around the public functions of each ncpoly module.

`install` replaces each traced function by a wrapper in every ncpoly
namespace that holds it (``gram`` is imported into orthopoly, recurrence,
jacobi and cli, for instance), so calls between modules are seen too. Spans
are kept in memory as [name, start, end, parent, item] and only while an item
runs; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

SPANS = {
    "words": ["words_up_to"],
    "functional": ["from_representation", "gram", "strict_positivity"],
    "orthopoly": ["orthogonalize", "szego_recursion"],
    "recurrence": ["extract", "residual_check", "favard"],
    "jacobi": ["hamburger_check", "build", "moment"],
    "opeval": ["ball_sandwich", "evaluate_all", "cd_full_check", "cd_inner_identity"],
    "serialize": ["load_moments", "load_moment_dict", "load_basis", "load_coeffs",
                  "load_point", "load_matrix", "save_moments", "save_basis",
                  "save_coeffs", "save_point", "save_matrix"],
    "cli": ["main"],
}
COUNTED = {"orthopoly": ["word_product"], "opeval": ["membership"]}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.item = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "samples": dict(self.samples)}

    def merge(self, data: dict, item) -> None:
        """Add a child process's trace, re-rooted under this tracer's spans."""
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, item])
        for k, v in data["counts"].items():
            self.counts[k] += v
        for k, v in data["samples"].items():
            self.samples[k].extend(v)


def _after(tracer: Tracer, name: str, args, out) -> None:
    if name == "functional.gram":
        tracer.samples["functional.gram.order"].append(len(out.words))
    elif name == "functional.strict_positivity":
        tracer.samples["functional.strict_positivity.margin"].append(
            out.min_eigenvalue / out.threshold)
    elif name == "opeval.ball_sandwich":
        tracer.counts["opeval.ball_sandwich.levels"] += out.truncation_length
    elif name.startswith("serialize.load_"):
        tracer.counts["serialize.bytes_read"] += os.path.getsize(args[0])
    elif name.startswith("serialize.save_"):
        tracer.counts["serialize.bytes_written"] += os.path.getsize(args[1])


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.item is None:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if name == "opeval.ball_sandwich" and type(exc).__name__ == "ConvergenceError":
                tracer.counts["opeval.ball_sandwich.refused"] += 1
            raise
        finally:
            tracer.end(idx)
        _after(tracer, name, args, out)
        return out
    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.item is not None:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer):
    """Wrap the traced functions everywhere ncpoly holds them; returns an undo."""
    import ncpoly  # noqa: F401  (loads every module)
    from ncpoly import functional, words

    swaps = {}
    for table, make in ((SPANS, _span_wrapper), (COUNTED, _count_wrapper)):
        for layer, names in table.items():
            mod = sys.modules["ncpoly." + layer]
            for name in names:
                fn = getattr(mod, name)
                swaps[id(fn)] = (fn, make(tracer, f"{layer}.{name}", fn))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "ncpoly" and not modname.startswith("ncpoly."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = swaps.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))

    word_init = words.Word.__post_init__
    mf_init = functional.MomentFunctional.__post_init__

    def counted_word_init(self):
        if tracer.item is not None:
            tracer.counts["words.Word.constructed"] += 1
        word_init(self)

    words.Word.__post_init__ = counted_word_init
    functional.MomentFunctional.__post_init__ = _span_wrapper(
        tracer, "functional.MomentFunctional", mf_init)
    undo.append((words.Word, "__post_init__", word_init))
    undo.append((functional.MomentFunctional, "__post_init__", mf_init))

    def restore():
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)
    return restore
