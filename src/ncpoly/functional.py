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

Moments are kept at the edge as a dict keyed by ``Word`` (``f.moments``,
which callers may change). A computation that needs them locates them by
graded-lex rank (``words.rank_groups``): by position where the keys are the
live shared word tables in graded-lex order, as in every dict the library
computes, and by each word's letters otherwise. No rank array is kept on a
functional whose moments a caller can reach, so none can go stale; only
``jacobi.hamburger_check``'s own functional, built on its private copy,
carries the read of its involution check to its one Gram. The hankel Gram
is then a block gather: block (i, j) is the length-(i + j) moment array
reshaped to N^i x N^j, its rows permuted by the reversal of the length-i
words. The toeplitz Gram places c_{j-i} along the prefix blocks, and the
involution checks compare each stored word with its reversal rank by rank.
The vectors X_w v of an operator model come from one orbit routine
(``_orbit``, also behind ``jacobi.JacobiFamily.orbit`` and ``recurrence.favard``),
their moments one length at a time as one matrix product (``_hankel_moments``).

Moments are validated where they enter from outside: the ``MomentFunctional``
constructor copies them (``dict`` keeps each key's stored hash; values are
made complex only when some value is not one) and checks s_e = 1, that every
moment is finite and, for the hankel kind, every involution partner and the
symmetry s_{I(w)} = conj(s_w) within ``SYMMETRY_TOL`` (``_involution_defect``,
which also reads finiteness from its one value array); the loaders in
``serialize`` go through it. ``jacobi.hamburger_check`` makes the
same copy and runs the same check itself, from one rank read that its Gram
reuses. ``from_representation`` and ``recurrence.favard`` make their moments
exact by construction, so they build their functional through
``MomentFunctional._exact_hankel``, which skips the copy and the involution
check and keeps the O(1) field and unit checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DataIncompleteError, PositivityError, ValidationError
from .words import (EMPTY, Word, _Table, _table, concat, involution, level_offsets,
                    rank_groups, reversal, word_at, words_up_to)

KINDS = ("hankel", "toeplitz", "generic")

# |s_{I(w)} - conj(s_w)| allowed, relative to max(1, max |s|); also the
# Hermiticity tolerance of a generic kernel
SYMMETRY_TOL = 1e-10

_COMPLEX = frozenset([complex])


def _complex_moments(moments: dict[Word, complex]) -> dict[Word, complex]:
    """A copy with complex values, bit-identical to complex() of each.

    ``dict`` keeps the stored hash of every key; only a copy whose values
    are not all complex is rebuilt, hashing its keys again.
    """
    out = dict(moments)
    if not {*map(type, out.values())} <= _COMPLEX:
        out = {w: complex(s) for w, s in out.items()}
    return out


def _moment_arrays(moments: dict[Word, complex], n_generators: int, top: int,
                   ranks: tuple | None = None) -> list[np.ndarray]:
    """Moments of every word of length <= top, one rank-indexed array per length.

    Raises DataIncompleteError naming the first absent word in graded-lex
    order. Stored words with letters beyond n_generators are not read.
    ``ranks`` is ``rank_groups(moments, n_generators)`` when already read.
    """
    N = n_generators
    groups, _ = rank_groups(moments, N) if ranks is None else ranks
    vals = np.fromiter(moments.values(), dtype=complex, count=len(moments))
    out = []
    for n in range(top + 1):
        arr = np.zeros(N**n, dtype=complex)
        stored = np.zeros(N**n, dtype=bool)
        if n in groups:
            pos, ranks, _ = groups[n]
            arr[ranks] = vals[pos]
            stored[ranks] = True
        if not stored.all():
            raise DataIncompleteError(str(word_at(n, int(np.argmin(stored)), N)))
        out.append(arr)
    return out


def _require_finite(moments: dict[Word, complex], vals: np.ndarray) -> None:
    """Refuse a non-finite moment, naming the first such word in graded-lex order.

    ``vals`` holds the values of ``moments`` in its order.
    """
    finite = np.isfinite(vals)
    if not finite.all():
        w = min(w for w, ok in zip(moments, finite) if not ok)
        raise ValidationError(f"moment at {w} is not finite ({moments[w]})")


def _involution_defect(moments: dict[Word, complex], n_generators: int, tol: float,
                       ranks: tuple | None = None) -> tuple[str, Word, Word] | None:
    """First stored word w whose partner I(w) breaks s_{I(w)} = conj(s_w).

    Returns None, ("missing", w, I(w)) when the partner is not stored, or
    ("asymmetric", w, I(w)) when |s_{I(w)} - conj(s_w)| exceeds tol times
    max(1, max |s|); w is the first such word in graded-lex order. A word
    with a letter beyond n_generators, and then a non-finite moment, raise
    ValidationError. ``ranks`` is ``rank_groups(moments, n_generators)``
    when already read.

    The words of a dict are distinct, so a length whose rank group holds
    N^n words holds the whole level, as every dict the library builds does:
    there each word's partner is read through the inverse of the rank
    permutation. A partial level is matched by sorting its ranks, which
    allocates nothing of size N^n for a sparse dict with one long word.
    """
    N = n_generators
    groups, foreign = rank_groups(moments, N) if ranks is None else ranks
    if foreign:
        w = list(moments)[foreign[0]]
        raise ValidationError(f"word {w} uses letters beyond {N} generators")
    vals = np.fromiter(moments.values(), dtype=complex, count=len(moments))
    _require_finite(moments, vals)
    scale = float(np.max(np.abs(vals), initial=1.0))
    for n in sorted(groups):
        pos, ranks, rev = groups[n]
        if len(ranks) == N**n:
            inv = np.empty(len(ranks), dtype=np.int64)
            inv[ranks] = np.arange(len(ranks))
            partner = inv[rev]
            found = np.ones(len(ranks), dtype=bool)
        else:
            order = np.argsort(ranks)
            partner = order[np.searchsorted(ranks[order], rev).clip(max=len(order) - 1)]
            found = ranks[partner] == rev
        v = vals[pos]
        bad = ~found | (np.abs(v[partner] - np.conj(v)) > tol * scale)
        if bad.any():
            cand = np.flatnonzero(bad)
            i = cand[np.argmin(ranks[cand])]
            return (("asymmetric" if found[i] else "missing"),
                    word_at(n, int(ranks[i]), N), word_at(n, int(rev[i]), N))
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
    moments: dict[Word, complex]
    kernel: dict[tuple[Word, Word], complex] | None = None
    # rank_groups of moments, set only by _exact_hankel for a private copy
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
        if s_e is None or abs(s_e - 1.0) > 1e-9:
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
                      moments: dict[Word, complex], tables: Sequence[_Table] = (),
                      ranks: tuple | None = None) -> "MomentFunctional":
        """A hankel functional on moments that need no copy and no involution check.

        For the output of ``_hankel_moments`` (complex values, s_e = 1,
        s_{I(w)} = conj(s_w) exactly and every letter in range), or for
        ``hamburger_check``'s own copy once it has checked the involution.
        The field and unit checks run; the copy and the involution check are
        skipped. The trust belongs to this construction only: ``f.moments``
        is a plain dict, and a later check of it
        (``hamburger_check(f.moments, ...)``) runs in full. The functional
        holds ``tables``, the shared word tables its moments are keyed by, so
        they are reused while it lives. ``ranks`` is
        ``rank_groups(moments, n_generators)`` for moments no caller can
        change; ``gram`` then reuses it.
        """
        f = cls.__new__(cls)
        f._exact = True
        f.__init__(n_generators, "hankel", max_degree, moments)
        f._tables = tuple(tables)
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

    The upper triangle is filled (hankel and toeplitz kinds block by block
    from rank arrays, generic entry by entry) and mirrored, so the result is
    exactly Hermitian. A word the kernel needs but the functional does not
    store raises DataIncompleteError naming it.
    """
    N = f.n_generators
    ws = words_up_to(level, N)
    offs = level_offsets(N, level)
    G = np.zeros((len(ws), len(ws)), dtype=complex)
    if f.kind == "hankel":
        m = _moment_arrays(f.moments, N, 2 * level, f._ranks)
        for i in range(level + 1):
            perm = reversal(i, N)
            for j in range(i, level + 1):
                G[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = m[i + j].reshape(N**i, N**j)[perm]
    elif f.kind == "toeplitz":
        c = _moment_arrays(f.moments, N, level)
        for i in range(level + 1):
            rows = np.arange(N**i)
            for j in range(i, level + 1):
                # K(s, s.a) = c_a: row rank(s) holds c at columns rank(s) N^(j-i) + rank(a)
                block = np.zeros((N**i, N**i, N ** (j - i)), dtype=complex)
                block[rows, rows] = c[j - i]
                G[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = block.reshape(N**i, N**j)
    else:
        for i, s in enumerate(ws):
            for j in range(i, len(ws)):
                G[i, j] = kernel_entry(f, s, ws[j])
    for i in range(len(ws)):
        G[i + 1:, i] = np.conj(G[i, i + 1:])
    return GramMatrix(level=level, words=ws, entries=G)


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


def strict_positivity(f: MomentFunctional, level: int, tol: float = 1e-9,
                      G: GramMatrix | None = None) -> PositivityResult:
    """Decide strict positive definiteness of the Gram matrix at a level.

    The test is min eigenvalue > tol * max(1, largest diagonal entry), decided
    on the eigenvalues alone. Only a refusal computes eigenvectors: its
    certificate is the unit eigenvector for the minimal eigenvalue, keyed by
    words, a polynomial of near-zero norm against the functional. The
    reported minimum is the eigenvalue decided on. ``G`` is the Gram matrix
    at the level when the caller has built it already.
    """
    G = _gram_at(f, level, G)
    lam, threshold = _min_eigenvalue(G, tol)
    if lam > threshold:
        return PositivityResult(ok=True, min_eigenvalue=lam, threshold=threshold)
    vec = np.linalg.eigh(G.entries)[1][:, 0]
    cert = {w: complex(vec[i]) for i, w in enumerate(G.words)}
    return PositivityResult(ok=False, min_eigenvalue=lam, threshold=threshold,
                            certificate=cert)


def _min_eigenvalue(G: GramMatrix, tol: float) -> tuple[float, float]:
    """(lambda_min by one ``eigvalsh``, threshold tol * max(1, largest real diagonal))."""
    lam = float(np.linalg.eigvalsh(G.entries)[0])
    return lam, tol * max(1.0, float(np.max(np.real(np.diag(G.entries)))))


def require_strict_positivity(f: MomentFunctional, level: int, tol: float = 1e-9,
                              G: GramMatrix | None = None) -> PositivityResult:
    res = strict_positivity(f, level, tol, G)
    _refuse_unless_strict(res, level)
    return res


def _refuse_unless_strict(res: PositivityResult, level: int) -> None:
    """Raise the PositivityError of ``require_strict_positivity`` for a refused verdict."""
    if not res.ok:
        raise PositivityError(
            f"Gram matrix at level {level} is not strictly positive "
            f"(min eigenvalue {res.min_eigenvalue:.3e})",
            min_eigenvalue=res.min_eigenvalue, certificate=res.certificate)


def from_representation(mats, v, max_degree: int, atol: float = 1e-12) -> MomentFunctional:
    """Moments s_w = <X_w v, v> of a tuple of Hermitian matrices at a unit vector.

    The resulting hankel functional is positive by construction: its Gram
    matrix is the matrix of inner products of the vectors X_tau v.
    """
    X = np.asarray(mats, dtype=complex)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValidationError("mats must have shape (N, d, d)")
    n, d, _ = X.shape
    for k in range(n):
        if not np.isfinite(X[k]).all():
            raise ValidationError(f"matrix {k + 1} has a non-finite entry")
        dev = np.max(np.abs(X[k] - X[k].conj().T))
        if dev > atol * (1.0 + np.max(np.abs(X[k]))):
            raise ValidationError(f"matrix {k + 1} is not Hermitian (deviation {dev:.3e})")
        X[k] = (X[k] + X[k].conj().T) / 2.0
    v = np.asarray(v, dtype=complex).reshape(d)
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm is refused too
        raise ValidationError("v must be a unit vector")

    vecs = _orbit(X, v[None, :], (max_degree + 1) // 2)
    return MomentFunctional._exact_hankel(n, max_degree, *_hankel_moments(vecs, n, max_degree))


def _orbit(mats: Sequence[np.ndarray], x_e: np.ndarray, levels: int) -> list[np.ndarray]:
    """Rows x_w, |w| <= levels, by graded-lex rank per length: x_e, then x_{k.u} = X_k x_u."""
    vecs = [x_e]
    for _ in range(levels):
        vecs.append(np.concatenate([vecs[-1] @ X.T for X in mats]))
    return vecs


def _hankel_moments(vecs: list[np.ndarray], n_generators: int, top: int
                    ) -> tuple[dict[Word, complex], list[_Table]]:
    """Moments s_w = <x_w, x_e> to length top of vectors with x_{k.u} = Y_k x_u.

    ``vecs[n][r]`` is x_w for the length-n word of rank r, with Y self-adjoint,
    for n up to h >= top / 2. A word of length m splits as w = p.q with
    |q| = min(h, m), so s_w = <x_q, x_{I(p)}> and each length is one matrix
    product. The symmetry s_{I(w)} = conj(s_w), exact in exact arithmetic, is
    then made exact in floats, and s_e is set to 1, so the result may go to
    ``MomentFunctional._exact_hankel`` together with the word tables it is
    keyed by.
    """
    N = n_generators
    h = len(vecs) - 1
    out = {EMPTY: 1.0 + 0.0j}
    tables = []
    for m in range(1, top + 1):
        b = min(h, m)
        a = m - b
        s = (vecs[a][reversal(a, N)].conj() @ vecs[b].T).reshape(-1)
        s = (s + np.conj(s[reversal(m, N)])) / 2.0
        tables.append(_table(m, N))
        out.update(zip(tables[-1].words, s.tolist()))
    return out, tables


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
