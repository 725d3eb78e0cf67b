"""Moment functionals and their kernels.

A functional is determined by its moment data on words. Three kinds are
supported:

* ``hankel``: the real-line analogue. The generators are self-adjoint, so
  the kernel is K(sigma, tau) = s_{I(sigma).tau} where I reverses words,
  and the moments satisfy s_{I(w)} = conj(s_w).
* ``toeplitz``: the circle analogue. The kernel is stationary under common
  left factors, K(u.s, u.t) = K(s, t), vanishes on words that are not
  prefix-comparable, and is determined by c_a = K(e, a).
* ``generic``: an explicitly stored Hermitian kernel on word pairs.

The Gram matrix at a level collects kernel entries over all words of length
up to that level in graded-lex order. Its entry (sigma, tau) pairs F_tau
against F_sigma, conjugate-linearly in sigma; coefficient vectors p, q of
polynomials P, Q therefore have inner product <P, Q> = q^H G p.

A functional the library computes (``from_representation``,
``recurrence.favard``) keeps its moments as one complex array per length,
indexed by graded-lex rank; ``f.moments`` is a ``Word``-keyed view of them
(``_MomentView``), read by rank arithmetic and iterated over words built by
``words_up_to`` for that iteration, that turns into the plain dict it wraps
on the first edit. A functional given an unedited view keeps a new view of
the same read-only arrays; every other functional keeps a copy of the
mapping it was given. A computation reads a moment mapping once
(``_ranked``): an unwritten view's arrays straight, with no word read or
built, any other mapping by its words' letters (``words.rank_groups``). Only
``jacobi.hamburger_check``'s own functional keeps that read, from its
involution check to its one Gram, so no read of moments a caller can edit
goes stale. The hankel Gram is one gather from the graded-lex moment vector
and its conjugate, through an index table memoized per (N, level)
(``_hankel_index``); the toeplitz Gram places c_{j-i} along the prefix
blocks; the involution check compares the leading whole levels with their
gather through the concatenated reversal index (``_lex_reversal``) and
matches a partial level by sorting. The vectors X_w v of an operator model
come from one orbit routine (``_orbit``), and their moments from one
routine (``_hankel_moments``): one product against x_e for the lengths up
to the orbit's, one stacked product for the longer ones, and one
symmetrizing gather through ``_lex_reversal``. ``from_representation``,
``recurrence.favard`` and the readout of ``jacobi.moment`` all call both.
``from_representation`` symmetrizes a new array, never the caller's.

Moments are validated where they enter from outside: the ``MomentFunctional``
constructor copies them (``dict`` keeps each key's stored hash) and checks
s_e = 1, that every moment is finite and, for the hankel kind, every
involution partner and the symmetry s_{I(w)} = conj(s_w) within
``SYMMETRY_TOL`` (``_involution_defect``); the loaders in ``serialize`` go
through it, and ``jacobi.hamburger_check`` runs the same check on the read
its Gram reuses. ``from_representation`` and ``recurrence.favard`` make their
moments exact by construction and build their functional through
``MomentFunctional._exact_hankel``, which skips the copy and the involution
check.

Every threshold and limit of the library is named once, in the tolerance
table below (``STRICT_TOL``, ``MEMBERSHIP_TOL``, ``SANDWICH_CAP`` and the
rest); the modules that read an entry import it from here and read it at
call time. Only the thresholds a caller varies are parameters: the ``tol``
of ``jacobi.hamburger_check`` and of the kernel sums in ``opeval``, which
refuse a tolerance that is NaN, infinite or negative (``_require_tol``).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import ItemsView, Mapping, MutableMapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataIncompleteError, PositivityError, ValidationError
from .words import (EMPTY, Word, concat, involution, level_offsets, rank_groups, reversal,
                    word_at, word_index, words_up_to)

KINDS = ("hankel", "toeplitz", "generic")

# The tolerance table: every threshold and limit of the library, named once.
# A module imports the entries it reads into its own namespace and reads them
# there at call time, so a test can patch one module's entry.

# moment input: |s_{I(w)} - conj(s_w)| relative to max(1, max |s|), also the
# Hermiticity tolerance of a generic kernel; |s_e - 1|; | ||v|| - 1 | and
# |X - X*| relative to 1 + max |X| for ``from_representation``
SYMMETRY_TOL = 1e-10
UNITAL_TOL = 1e-9
UNIT_VECTOR_TOL = 1e-9
HERMITIAN_INPUT_TOL = 1e-12
# decisions: Gram strictness, lambda_min > STRICT_TOL max(1, largest diagonal
# entry), also the default tol of ``jacobi.hamburger_check`` and of
# ``ncpoly hamburger``; region membership, lambda_min of the defect >
# MEMBERSHIP_TOL; the Szego ladder against Cholesky, relative to max(1, max |a|)
STRICT_TOL = 1e-9
MEMBERSHIP_TOL = 1e-8
LADDER_TOL = 1e-8
# recurrence blocks: A Hermitian and B_n upper triangular, B_n's diagonal
# real and at the leading-coefficient ratio, the recurrence residual, and the
# largest condition number of a B_n
HERMITICITY_TOL = 1e-10
DIAG_TOL = 1e-9
RESIDUAL_TOL = 1e-9
COND_BOUND = 1e8
# kernel sums: the most levels of one sum, and the default tol of every sum
# and of ``ncpoly kernel``
SANDWICH_CAP = 64
KERNEL_TOL = 1e-9
# reports: the smallest entry of a ``hamburger_check`` certificate; the CLI's
# status bounds, on ``favard``'s Gram residual and round trip, the slack of
# ``reproduce`` and ``cd-full`` over their threshold, and for ``separate``
# the gap of the defect to 1/2, then the unit entries and the stacked rank
CERTIFICATE_CUTOFF = 1e-12
FAVARD_GRAM_TOL = 1e-9
FAVARD_ROUNDTRIP_TOL = 1e-8
REPORT_SLACK = 1e-12
SEPARATION_MARGIN_TOL = 1e-9
SEPARATION_TOL = 1e-10


def _require_tol(tol: float) -> None:
    """Refuse a tolerance that is NaN, infinite or negative."""
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol!r}")


_COMPLEX = frozenset([complex])


def _complex_moments(moments: Mapping[Word, complex]) -> MutableMapping[Word, complex]:
    """A copy with complex values, bit-identical to complex() of each.

    An unwritten ``_MomentView`` gets a new view of the same read-only
    arrays: no word is built, and an edit of either turns only that one into
    a dict. ``dict`` keeps the stored hash of every key of a dict; only a copy
    whose values are not all complex is rebuilt, hashing its keys again. Any
    other mapping is copied from its items.
    """
    if type(moments) is _MomentView and moments._dict is None:
        return _MomentView(moments.n_generators, moments._arrays)
    out = dict(moments) if isinstance(moments, dict) else dict(moments.items())
    if not {*map(type, out.values())} <= _COMPLEX:
        out = {w: complex(s) for w, s in out.items()}
    return out


class _MomentView(MutableMapping):
    """Moments {w: s_w} over one complex array per length 0..top, indexed by rank.

    A read by word is rank arithmetic. Iteration yields words in graded-lex
    order, built by ``words_up_to`` for each iteration; the view keeps no
    ``Word``. The first set or delete turns the view into a plain dict, which
    it then wraps and which the arrays no longer back; until then ``_ranked``
    reads the arrays themselves.
    """

    __slots__ = ("n_generators", "_arrays", "_dict")

    def __init__(self, n_generators: int, arrays: Sequence[np.ndarray]):
        for a in arrays:
            a.flags.writeable = False
        self.n_generators = n_generators
        self._arrays = tuple(arrays)
        self._dict: dict[Word, complex] | None = None

    def __getitem__(self, w):
        if self._dict is not None:
            return self._dict[w]
        if type(w) is Word and len(w) < len(self._arrays):
            try:
                return self._arrays[len(w)].item(word_index(w, self.n_generators))
            except ValueError:  # a letter beyond n_generators
                pass
        raise KeyError(w)

    def __iter__(self):
        if self._dict is not None:
            return iter(self._dict)
        return iter(words_up_to(len(self._arrays) - 1, self.n_generators))

    def __len__(self) -> int:
        if self._dict is not None:
            return len(self._dict)
        return sum(map(len, self._arrays))

    def items(self):
        return _ViewItems(self)

    def _written(self) -> dict[Word, complex]:
        if self._dict is None:
            self._dict = dict(self.items())
            self._arrays = None
        return self._dict

    def __setitem__(self, w, s):
        self._written()[w] = s

    def __delitem__(self, w):
        del self._written()[w]

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return type(self), (self.n_generators, self._arrays or ()), self._dict

    def __setstate__(self, written: dict[Word, complex]):
        self._dict, self._arrays = written, None


class _ViewItems(ItemsView):
    """(word, moment) pairs of a ``_MomentView``, its words zipped with its arrays."""

    def __iter__(self):
        view = self._mapping
        if view._dict is not None:
            return iter(view._dict.items())
        return zip(view, itertools.chain.from_iterable(a.tolist() for a in view._arrays))


def _ranked(moments: Mapping[Word, complex], n_generators: int) -> tuple:
    """(rank groups, foreign positions, values, lex) of a moment mapping, read once.

    The values are in the mapping's order, and those of the words of the
    first ``lex`` lengths open them in graded-lex order; the groups and
    foreign positions are those of ``words.rank_groups`` for the other words.
    An unwritten ``_MomentView`` of n_generators generators is all lex, read
    from its arrays with no word built; any other mapping has lex 0.
    """
    N = n_generators
    arrays = _view_arrays(moments, N)
    if arrays is None:
        groups, foreign = rank_groups(moments, N)
        return groups, foreign, np.fromiter(moments.values(), dtype=complex,
                                            count=len(moments)), 0
    return {}, [], np.concatenate(arrays), len(arrays)


def _view_arrays(moments: Mapping[Word, complex], n_generators: int
                 ) -> tuple[np.ndarray, ...] | None:
    """The arrays of an unwritten ``_MomentView`` of n_generators generators, else None."""
    if (type(moments) is _MomentView and moments._dict is None
            and moments.n_generators == n_generators):
        return moments._arrays
    return None


def _lex_values(ranks: tuple, n_generators: int, top: int) -> np.ndarray:
    """Moments of every word of length <= top, in one graded-lex vector, from ``_ranked``.

    Raises DataIncompleteError naming the first absent word in graded-lex
    order. Stored words with letters beyond n_generators are not read.
    """
    N = n_generators
    groups, _, vals, lex = ranks
    offs = level_offsets(N, top)
    if lex > top:
        return vals[:offs[-1]]
    out = np.zeros(offs[-1], dtype=complex)
    stored = np.zeros(offs[-1], dtype=bool)
    out[:offs[lex]], stored[:offs[lex]] = vals[:offs[lex]], True
    for n, (pos, r, _) in groups.items():
        if n <= top:
            out[offs[n] + r] = vals[pos]
            stored[offs[n] + r] = True
    if not stored.all():
        i = int(np.argmin(stored))
        n = int(np.searchsorted(offs, i, "right")) - 1
        raise DataIncompleteError(str(word_at(n, i - offs[n], N)))
    return out


def _require_finite(moments: Mapping[Word, complex], vals: np.ndarray) -> None:
    """Refuse a non-finite moment, naming the first such word in graded-lex order.

    ``vals`` holds the values of ``moments`` in its order.
    """
    finite = np.isfinite(vals)
    if not finite.all():
        w = min(w for w, ok in zip(moments, finite) if not ok)
        raise ValidationError(f"moment at {w} is not finite ({moments[w]})")


def _involution_defect(moments: Mapping[Word, complex], n_generators: int, tol: float,
                       ranks: tuple | None = None) -> tuple[str, Word, Word] | None:
    """First stored word w whose partner I(w) breaks s_{I(w)} = conj(s_w).

    Returns None, ("missing", w, I(w)) when the partner is not stored, or
    ("asymmetric", w, I(w)) when |s_{I(w)} - conj(s_w)| exceeds tol times
    max(1, max |s|); w is the first such word in graded-lex order. A word
    with a letter beyond n_generators, and then a non-finite moment, raise
    ValidationError. ``ranks`` is ``_ranked(moments, n_generators)`` when
    already read; the check reads its value array, and the words of
    ``moments`` only to name an offender.

    The leading whole levels (all of a library moment view) are checked at
    once, their graded-lex vector against its gather through the concatenated
    ``reversal``. A later length is matched by sorting its ranks, which
    allocates nothing of size N^n for a sparse dict with one long word.
    """
    N = n_generators
    groups, foreign, vals, lex = ranks = _ranked(moments, N) if ranks is None else ranks
    if foreign:
        w = list(moments)[foreign[0]]
        raise ValidationError(f"word {w} uses letters beyond {N} generators")
    _require_finite(moments, vals)
    scale = float(np.max(np.abs(vals), initial=1.0))
    t = lex
    while t in groups and len(groups[t][1]) == N**t:
        t += 1
    if t:
        offs = level_offsets(N, t - 1)
        v = _lex_values(ranks, N, t - 1)
        rev = _lex_reversal(N, t - 1)
        bad = np.abs(v[rev] - np.conj(v)) > tol * scale
        if bad.any():
            i = int(np.argmax(bad))
            n = int(np.searchsorted(offs, i, "right")) - 1
            return ("asymmetric", word_at(n, i - offs[n], N),
                    word_at(n, int(rev[i]) - offs[n], N))
    for n in sorted(set(groups) - set(range(t))):
        pos, r, rev = groups[n]
        order = np.argsort(r)
        partner = order[np.searchsorted(r[order], rev).clip(max=len(order) - 1)]
        found = r[partner] == rev
        v = vals[pos]
        bad = ~found | (np.abs(v[partner] - np.conj(v)) > tol * scale)
        if bad.any():
            cand = np.flatnonzero(bad)
            i = cand[np.argmin(r[cand])]
            return (("asymmetric" if found[i] else "missing"),
                    word_at(n, int(r[i]), N), word_at(n, int(rev[i]), N))
    return None


@dataclass
class MomentFunctional:
    """Moment data for a unital positive-candidate functional.

    ``moments`` maps words of length <= max_degree to complex values. For
    hankel and generic kinds these are s_w = phi(Y_w); for toeplitz they are
    the stationary data c_a = K(e, a). Generic kind additionally carries the
    full kernel table keyed by word pairs.
    """

    n_generators: int
    kind: str
    max_degree: int
    moments: MutableMapping[Word, complex]
    kernel: dict[tuple[Word, Word], complex] | None = None
    # _ranked(moments), set only by _exact_hankel for moments no caller can change
    _ranks = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.n_generators < 1:
            raise ValidationError("n_generators must be >= 1")
        if self.max_degree < 0:
            raise ValidationError("max_degree must be >= 0")
        exact = self.__dict__.pop("_exact", False)
        if not exact:
            self.moments = _complex_moments(self.moments)
        s_e = self.moments.get(EMPTY)
        if s_e is None or abs(s_e - 1.0) > UNITAL_TOL:
            raise ValidationError("functional must be unital: moment at 'e' must be 1")
        if self.kind != "hankel":
            _require_finite(self.moments, np.fromiter(
                self.moments.values(), dtype=complex, count=len(self.moments)))
        elif not exact:  # the involution check refuses a non-finite moment itself
            defect = _involution_defect(self.moments, self.n_generators, SYMMETRY_TOL)
            if defect is not None:
                what, w, rev = defect
                if what == "missing":
                    raise ValidationError(
                        f"moment for {rev} missing (involution partner of {w})")
                raise ValidationError(
                    f"involution symmetry violated at {w}: s_{rev} != conj(s_{w})")
        if self.kind == "generic":
            if self.kernel is None:
                raise ValidationError("generic kind requires a kernel table")
            self.kernel = {k: complex(v) for k, v in self.kernel.items()}
            bad = [k for k, v in self.kernel.items() if not np.isfinite(v)]
            if bad:
                s, t = min(bad)
                raise ValidationError(f"kernel entry at ({s}, {t}) is not finite "
                                      f"({self.kernel[s, t]})")
            for (s, t), v in self.kernel.items():
                rv = self.kernel.get((t, s))
                if rv is not None and abs(rv - np.conj(v)) > SYMMETRY_TOL * max(1.0, abs(v)):
                    raise ValidationError(f"kernel not Hermitian at ({s}, {t})")
            scale = max(1.0, max(abs(v) for v in self.moments.values()))
            for w, v in self.moments.items():
                kv = self._generic_lookup(EMPTY, w)
                if kv is not None and abs(kv - v) > SYMMETRY_TOL * scale:
                    raise ValidationError(
                        f"kernel entry (e, {w}) disagrees with stored moment")

    @classmethod
    def _exact_hankel(cls, n_generators: int, max_degree: int,
                      moments: MutableMapping[Word, complex],
                      ranks: tuple | None = None) -> "MomentFunctional":
        """A hankel functional on moments that need no copy and no involution check.

        For the moment view of ``_hankel_moments`` (s_e = 1, s_{I(w)} =
        conj(s_w) exactly and every letter in range), kept as it is, or for
        the moments ``hamburger_check`` has checked itself. The field and
        unit checks run; the copy and the involution check are skipped. The
        trust belongs to this construction only: a caller may edit
        ``f.moments``, and a later check of it (``hamburger_check(f.moments,
        ...)``) runs in full. ``ranks`` is ``_ranked(moments,
        n_generators)`` for moments no caller can change; ``gram`` then
        reuses it.
        """
        f = cls.__new__(cls)
        f._exact = True
        f.__init__(n_generators, "hankel", max_degree, moments)
        if ranks is not None:
            f._ranks = ranks
        return f

    def _generic_lookup(self, s: Word, t: Word) -> complex | None:
        assert self.kernel is not None
        v = self.kernel.get((s, t))
        if v is not None:
            return v
        v = self.kernel.get((t, s))
        if v is not None:
            return complex(np.conj(v))
        return None

    def moment(self, w: Word) -> complex:
        try:
            return self.moments[w]
        except KeyError:
            raise DataIncompleteError(str(w)) from None


def kernel_entry(f: MomentFunctional, sigma: Word, tau: Word) -> complex:
    """K(sigma, tau), the pairing of F_tau against F_sigma."""
    if f.kind == "hankel":
        return f.moment(concat(involution(sigma), tau))
    if f.kind == "toeplitz":
        ls, lt = len(sigma), len(tau)
        if lt >= ls and tau.letters[:ls] == sigma.letters:
            return f.moment(Word(tau.letters[ls:]))
        if ls > lt and sigma.letters[:lt] == tau.letters:
            return complex(np.conj(f.moment(Word(sigma.letters[lt:]))))
        return 0.0 + 0.0j
    v = f._generic_lookup(sigma, tau)
    if v is None:
        raise DataIncompleteError(f"{sigma}|{tau}")
    return v


@dataclass
class GramMatrix:
    """Kernel entries over all words of length <= level, graded-lex order."""

    level: int
    words: list[Word]
    entries: np.ndarray

    # word -> row, hashed on the first index() call rather than for every Gram
    _index = None

    def index(self, w: Word) -> int:
        if self._index is None:
            self._index = {w: i for i, w in enumerate(self.words)}
        return self._index[w]

    def entry(self, sigma: Word, tau: Word) -> complex:
        return complex(self.entries[self.index(sigma), self.index(tau)])


def gram(f: MomentFunctional, level: int) -> GramMatrix:
    """Gram matrix of the kernel over all words of length <= level.

    The hankel kind is one gather through ``_hankel_index``; the toeplitz
    kind fills the upper triangle block by block, the generic kind entry by
    entry, and both mirror it. The result is exactly Hermitian. A word the
    kernel needs but the functional does not store raises DataIncompleteError
    naming it.
    """
    if level < 0:
        raise ValidationError("level must be >= 0")
    N = f.n_generators
    ws = words_up_to(level, N)
    if f.kind == "hankel":
        m = _lex_values(f._ranks or _ranked(f.moments, N), N, 2 * level)
        return GramMatrix(level=level, words=ws,
                          entries=np.concatenate([m, np.conj(m)])[_hankel_index(N, level)])
    offs = level_offsets(N, level)
    G = np.zeros((len(ws), len(ws)), dtype=complex)
    if f.kind == "toeplitz":
        c = _lex_values(_ranked(f.moments, N), N, level)
        for i in range(level + 1):
            rows = np.arange(N**i)
            for j in range(i, level + 1):
                # K(s, s.a) = c_a: row rank(s) holds c at columns rank(s) N^(j-i) + rank(a)
                block = np.zeros((N**i, N**i, N ** (j - i)), dtype=complex)
                block[rows, rows] = c[offs[j - i]:offs[j - i + 1]]
                G[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = block.reshape(N**i, N**j)
    else:
        for i, s in enumerate(ws):
            for j in range(i, len(ws)):
                G[i, j] = kernel_entry(f, s, ws[j])
    lower = np.tril_indices(len(ws), -1)
    G[lower] = np.conj(G.T[lower])
    return GramMatrix(level=level, words=ws, entries=G)


@functools.cache
def _hankel_index(n_generators: int, level: int) -> np.ndarray:
    """Where the hankel ``gram`` reads each entry in [s, conj(s)] (shared, read-only).

    s is the graded-lex moment vector to length 2 level. On and above the
    diagonal, (sigma, tau) reads s at I(sigma).tau, of rank rank(I(sigma))
    N^|tau| + rank(tau); below it, conj(s) at its mirror's word.
    """
    N = n_generators
    offs = level_offsets(N, level)
    lev = np.repeat(np.arange(level + 1), np.diff(offs))
    rank = np.arange(offs[-1]) - np.array(offs[:-1])[lev]
    rev = np.concatenate([reversal(n, N) for n in range(level + 1)])
    off2 = np.array(level_offsets(N, 2 * level))
    T = off2[lev[:, None] + lev] + rev[:, None] * N**lev + rank
    T = np.where(np.tri(offs[-1], k=-1, dtype=bool), T.T + off2[-1], T)
    T.flags.writeable = False
    return T


def _gram_at(f: MomentFunctional, level: int, G: GramMatrix | None) -> GramMatrix:
    """The caller's Gram matrix, or a new one when none is given."""
    if G is None:
        return gram(f, level)
    if G.level != level:
        raise ValidationError(f"Gram matrix is for level {G.level}, need {level}")
    return G


@dataclass
class PositivityResult:
    ok: bool
    min_eigenvalue: float
    threshold: float
    certificate: dict[Word, complex] | None = None


def strict_positivity(f: MomentFunctional, level: int,
                      G: GramMatrix | None = None) -> PositivityResult:
    """Decide strict positive definiteness of the Gram matrix at a level.

    The test is min eigenvalue > STRICT_TOL * max(1, largest diagonal entry),
    decided on the eigenvalues alone. Only a refusal computes eigenvectors:
    its certificate is the unit eigenvector for the minimal eigenvalue, keyed
    by words, a polynomial of near-zero norm against the functional. The
    reported minimum is the eigenvalue decided on. ``G`` is the Gram matrix
    at the level when the caller has built it already.
    """
    G = _gram_at(f, level, G)
    lam, threshold = _min_eigenvalue(G, STRICT_TOL)
    if lam > threshold:
        return PositivityResult(ok=True, min_eigenvalue=lam, threshold=threshold)
    vec = np.linalg.eigh(G.entries)[1][:, 0]
    cert = {w: complex(vec[i]) for i, w in enumerate(G.words)}
    return PositivityResult(ok=False, min_eigenvalue=lam, threshold=threshold,
                            certificate=cert)


def _min_eigenvalue(G: GramMatrix, tol: float) -> tuple[float, float]:
    """(lambda_min by one ``eigvalsh``, the strictness threshold ``_threshold``)."""
    return float(np.linalg.eigvalsh(G.entries)[0]), _threshold(G, tol)


def _threshold(G: GramMatrix, tol: float) -> float:
    """tol * max(1, largest real diagonal entry): the bound lambda_min must exceed."""
    return tol * max(1.0, float(np.max(np.real(np.diag(G.entries)))))


# unit roundoff and the smallest positive (subnormal) double
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_ETA = float(np.nextafter(0.0, 1.0))


def _proves_above(M: np.ndarray, s: float) -> bool:
    """True only when a floating-point Cholesky proves lambda_min(M) > s.

    M is Hermitian; its lower triangle is read, as ``eigvalsh`` reads it. If
    the Cholesky of M - (s + c) I runs to completion, where c covers its
    rounding, then M - s I is positive definite (Rump, Verification of
    positive definiteness, BIT 46 (2006), section 2):

        c >= gamma / (1 - gamma) tr(M) + 4 n (2 (n + 1) + max_i M_ii) eta,

    with gamma = k u / (1 - k u), u the unit roundoff, eta the smallest
    subnormal and k = n + 1 for real entries. For complex entries k is
    4 (n + 1), which covers the error of a complex product. c is taken twice
    that bound, and the rounding of the shifted diagonal is added to the
    shift. A floating-point Cholesky may run through a NaN without failing,
    so a factor with a non-finite diagonal proves nothing. False says only
    that no proof was found: the caller decides by the eigenvalues.
    """
    n = len(M)
    k = (4 if np.iscomplexobj(M) else 1) * (n + 1)
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    diag = np.abs(np.real(np.diagonal(M)))
    top = float(np.max(diag))
    c = 2.0 * (gamma / (1.0 - gamma) * float(np.sum(diag))
               + 4.0 * n * (2.0 * (n + 1) + top) * _ETA)
    shift = s + c + 2.0 * _UNIT_ROUNDOFF * (top + s + c)
    if not np.isfinite(shift):
        return False
    shifted = np.array(M)
    shifted.flat[::n + 1] -= shift
    try:
        L = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(np.diagonal(L)).all())


def require_strict_positivity(f: MomentFunctional, level: int,
                              G: GramMatrix | None = None) -> PositivityResult:
    res = strict_positivity(f, level, G)
    if not res.ok:
        raise PositivityError(
            f"Gram matrix at level {level} is not strictly positive "
            f"(min eigenvalue {res.min_eigenvalue:.3e})",
            min_eigenvalue=res.min_eigenvalue, certificate=res.certificate)
    return res


def from_representation(mats, v, max_degree: int) -> MomentFunctional:
    """Moments s_w = <X_w v, v> of a tuple of Hermitian matrices at a unit vector.

    The resulting hankel functional is positive by construction: its Gram
    matrix is the matrix of inner products of the vectors X_tau v. An X_k
    with max |X_k - X_k*| above HERMITIAN_INPUT_TOL (1 + max |X_k|) or a
    non-finite entry, and a v whose norm differs from 1 by more than
    UNIT_VECTOR_TOL, raise ValidationError.
    """
    X = np.asarray(mats, dtype=complex)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValidationError("mats must have shape (N, d, d)")
    n, d, _ = X.shape
    # the matrices before the first non-finite one are checked; X may be the
    # caller's own array, so D and the symmetrized X are new ones
    finite = np.isfinite(X).all(axis=(1, 2))
    stop = n if finite.all() else int(np.argmin(finite))
    D = X[:stop] - X[:stop].conj().transpose(0, 2, 1)
    dev = np.abs(D).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(dev > HERMITIAN_INPUT_TOL
                          * (1.0 + np.abs(X[:stop]).max(axis=(1, 2), initial=0.0)))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"matrix {k + 1} is not Hermitian (deviation {dev[k]:.3e})")
    if stop < n:
        raise ValidationError(f"matrix {stop + 1} has a non-finite entry")
    X = X - D / 2.0
    v = np.asarray(v, dtype=complex).reshape(d)
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= UNIT_VECTOR_TOL:  # a NaN norm is refused too
        raise ValidationError("v must be a unit vector")

    vecs = _orbit(X, v[None, :], (max_degree + 1) // 2)
    return MomentFunctional._exact_hankel(
        n, max_degree, _MomentView(n, _hankel_moments(vecs, n, max_degree)))


def _orbit(mats: Sequence[np.ndarray], x_e: np.ndarray, levels: int) -> list[np.ndarray]:
    """Rows x_w, |w| <= levels, by graded-lex rank per length: x_e, then x_{k.u} = X_k x_u."""
    vecs = [x_e]
    for _ in range(levels):
        vecs.append(np.concatenate([vecs[-1] @ X.T for X in mats]))
    return vecs


def _hankel_moments(vecs: list[np.ndarray], n_generators: int, top: int) -> list[np.ndarray]:
    """Moments s_w = <x_w, x_e> to length top of vectors with x_{k.u} = Y_k x_u, by length.

    ``vecs[n][r]`` is x_w for the length-n word of rank r, with Y self-adjoint,
    for n up to h >= top / 2. A word of length m splits as w = p.q with
    |q| = min(h, m), so s_w = <x_q, x_{I(p)}>: the lengths up to h are one
    product against x_e, and the longer ones one product of the stacked
    x_{I(p)}, 1 <= |p| <= top - h, against the x_q with |q| = h. The symmetry
    s_{I(w)} = conj(s_w), exact in exact arithmetic, is then made exact in
    floats by one gather through ``_lex_reversal``, and s_e is set to 1, so a
    ``_MomentView`` of the arrays (views of one vector) may go to
    ``MomentFunctional._exact_hankel``.
    """
    N = n_generators
    h = len(vecs) - 1
    offs = level_offsets(N, top)
    s = np.empty(offs[-1], dtype=complex)
    s[:offs[h + 1]] = (vecs[0].conj() @ np.concatenate(vecs[:h + 1]).T).reshape(-1)
    if top > h:
        rev = _lex_reversal(N, top - h)
        V = np.concatenate(vecs[:top - h + 1])
        s[offs[h + 1]:] = (V[rev[1:]].conj() @ vecs[h].T).reshape(-1)
    s = (s + np.conj(s[_lex_reversal(N, top)])) / 2.0
    s[0] = 1.0
    return [s[offs[n]:offs[n + 1]] for n in range(top + 1)]


@functools.cache
def _lex_reversal(n_generators: int, top: int) -> np.ndarray:
    """Graded-lex index of I(w) for every word of length <= top (shared, read-only)."""
    offs = level_offsets(n_generators, top)
    rev = np.concatenate([offs[n] + reversal(n, n_generators) for n in range(top + 1)])
    rev.flags.writeable = False
    return rev


def inner_product(f: MomentFunctional, p: dict[Word, complex], q: dict[Word, complex]) -> complex:
    """<P, Q> for coefficient dicts: sum conj(q_d) K(d, b) p_b."""
    total = 0.0 + 0.0j
    for d_word, qc in q.items():
        if qc == 0:
            continue
        for b_word, pc in p.items():
            if pc == 0:
                continue
            total += np.conj(qc) * kernel_entry(f, d_word, b_word) * pc
    return complex(total)
