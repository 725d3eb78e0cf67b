"""hankel-rep: the moment pipeline on seeded Hermitian representations.

Each item takes a tuple X of N Hermitian d x d matrices at spectral radius s
and a unit vector v, then runs from_representation(X, v, 2L) ->
hamburger_check(., N, L) -> favard(witness) -> jacobi.build(witness, L-1) ->
jacobi.moment on every word of length <= 2L-1. The expected verdict comes
from rank: strict when d is at least the number of words of length <= L.

The order-255 shape (2, 7, 300) costs about as much as all the other items
together, so it runs at s = 1 only; a round is then short enough that a run
times each item in two rounds, and an item's time no longer rests on a
single few seconds of a shared machine. (3, 4, 160), (2, 6, 100) and
(1, 12, 40) at s = 1 run as two items each, on two tuples or batches, so
that the median and the tail percentile of item times fall inside the group
of (2, 6, 160) and (3, 4, 160) items, which cost alike, rather than at its
edge.

Items of two shapes sit at the edge of the positivity threshold, so their
verdict changes from tuple to tuple: (1, 12, 40) at every scale and
(2, 6, 160) at s = 0.5. Each runs a batch of tuples and fails if any of them fails, which
makes its outcome the same for every seed; every tuple's outcome is kept in
the item's checks.
"""

from __future__ import annotations

import numpy as np

import refs
from core import Item, Workload

IN_PROCESS = True
SHAPES = [(2, 6, 160), (3, 4, 160), (2, 7, 300), (2, 6, 100), (1, 12, 40)]
SCALES = (0.5, 1.0, 2.0)
SCALES_OF = {(2, 7, 300): (1.0,)}
BATCH = {(1, 12, 40, 0.5): 16, (1, 12, 40, 1.0): 16, (1, 12, 40, 2.0): 16,
         (2, 6, 160, 0.5): 3}
COPIES = {(3, 4, 160, 1.0): 2, (2, 6, 100, 1.0): 2, (1, 12, 40, 1.0): 2}
SMOKE_SHAPES = [(2, 2, 8), (2, 2, 5), (1, 3, 6)]


def label(shape, scale) -> str | None:
    if shape == (1, 12, 40):
        return "moment-route-conditioning"
    if scale == 0.5:
        return "abs-threshold"
    return None


class Case:
    """One tuple and the benchmark's own answers for it."""

    def __init__(self, rng, N, L, d, scale):
        self.N, self.L = N, L
        self.X, self.v = refs.hermitian_tuple(rng, N, d, scale)
        self.moments = refs.orbit_moments(self.X, self.v, L)
        lam = np.linalg.eigvalsh(refs.hankel_gram(self.X, self.v, L))
        self.lam_min, self.lam_max = float(lam[0]), float(lam[-1])
        self.strict = d >= refs.n_words(N, L)

    def gap(self, pairs) -> float:
        """Relative gap of (letters, value) pairs against the own moments."""
        pairs = list(pairs)
        got = np.array([v for _, v in pairs])
        want = np.array([self.moments[len(w)][refs.rank(w, self.N)] for w, _ in pairs])
        return refs.rel_gap(got, want)


def make_item(ncp, cases, name, lab, corrupt):
    N, L = cases[0].N, cases[0].L

    def run():
        outs = []
        for case in cases:
            try:
                f = ncp.functional.from_representation(case.X, case.v, 2 * L)
                if corrupt:
                    w = next(k for k in f.moments if k.letters == (1, 1))
                    f.moments[w] *= 1.001
                res = ncp.jacobi.hamburger_check(f.moments, N, L)
                fav = jm = None
                if res.strictly_positive:
                    _, f2 = ncp.recurrence.favard(res.witness)
                    family = ncp.jacobi.build(res.witness, L - 1)
                    jm = [(w.letters, ncp.jacobi.moment(family, w).value)
                          for w in ncp.words.words_up_to(2 * L - 1, N)]
                    fav = f2.moments
                outs.append((res, fav, jm))
            except ncp.NCPolyError as exc:
                outs.append(exc)
        return outs

    def check(outs):
        checks = []
        for i, (case, out) in enumerate(zip(cases, outs)):
            tag = f"[{i}]" if len(cases) > 1 else ""
            if isinstance(out, Exception):
                checks.append((type(out).__name__ + tag, float("inf"), 0.0))
                continue
            res, fav, jm = out
            right = res.positive and res.strictly_positive == case.strict
            checks.append(("WrongVerdict" + tag, 0.0 if right else 1.0, 0.0))
            checks.append(("min_eigenvalue" + tag,
                           abs(res.min_eigenvalue - case.lam_min) / case.lam_max,
                           refs.TOL["min_eigenvalue"]))
            if jm is not None:
                checks.append(("moments_jacobi" + tag, case.gap(jm), refs.TOL["moments_jacobi"]))
                checks.append(("moments_favard" + tag,
                               case.gap((w.letters, v) for w, v in fav.items()),
                               refs.TOL["moments_favard"]))
        return checks

    return Item(id=name, label=lab, run=run, check=check)


def setup(seed: int, workdir, smoke: bool = False, corrupt: bool = False) -> Workload:
    import ncpoly as ncp

    shapes = SMOKE_SHAPES if smoke else SHAPES
    scales = (0.5, 1.0) if smoke else SCALES
    items = []
    for si, scale in enumerate(scales):
        for hi, (N, L, d) in enumerate(shapes):
            if not smoke and scale not in SCALES_OF.get((N, L, d), SCALES):
                continue
            batch = 1 if smoke else BATCH.get((N, L, d, scale), 1)
            lab = label((N, L, d), scale)
            for c in range(1 if smoke else COPIES.get((N, L, d, scale), 1)):
                key = [seed, hi, si] + ([c] if c else [])
                cases = [Case(np.random.default_rng(key + [b]), N, L, d, scale)
                         for b in range(batch)]
                hit = corrupt and lab is None and not any(i.label is None for i in items)
                name = f"N{N}-L{L}-d{d}-s{scale:g}" + (f"#{c}" if c else "")
                items.append(make_item(ncp, cases, name, lab, hit))
    warm = make_item(ncp, [Case(np.random.default_rng([seed, 99]), 1, 2, 4, 1.0)],
                     "warm-up", None, False)
    warm.check(warm.run())
    return Workload(items)
