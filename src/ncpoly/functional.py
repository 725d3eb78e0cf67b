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
graded-lex rank, read off each word's letters (``words.rank_groups``); no
rank array is kept on the functional, so none can go stale. The hankel Gram
is then a block gather: block (i, j) is the length-(i + j) moment array
reshaped to N^i x N^j, its rows permuted by the reversal of the length-i
words. The toeplitz Gram places c_{j-i} along the prefix blocks, and the
involution checks compare each stored word with its reversal rank by rank.
The moments of an operator model come one length at a time as one matrix
product (``_hankel_moments``, shared with ``recurrence.favard``).

Moments are validated where they enter from outside: the ``MomentFunctional``
constructor copies them to complex values and checks s_e = 1 and, for the
hankel kind, every involution partner and the symmetry s_{I(w)} = conj(s_w)
(``_involution_defect``); ``jacobi.hamburger_check`` and the loaders in
``serialize`` go through it. ``from_representation`` and
``recurrence.favard`` make their moments exact by construction, so they build
their functional through ``MomentFunctional._exact_hankel``, which skips the
copy and the involution check and keeps the O(1) field and unit checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DataIncompleteError, PositivityError, ValidationError
from .words import (EMPTY, Word, _Table, _table, concat, involution, level_offsets,
                    rank_groups, reversal, word_at, words_up_to)

KINDS = ("hankel", "toeplitz", "generic")

_SYM_TOL = 1e-10


def _moment_arrays(moments: dict[Word, complex], n_generators: int, top: int
                  ) -> list[np.ndarray]:
    """Moments of every word of length <= top, one rank-indexed array per length.

    Raises DataIncompleteError naming the first absent word in graded-lex
    order. Stored words with letters beyond n_generators are not read.
    """
    N = n_generators
    groups, _ = rank_groups(moments, N)
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


def _involution_defect(moments: dict[Word, complex], n_generators: int, tol: float
                      ) -> tuple[str, Word, Word] | None:
    """First stored word w whose partner I(w) breaks s_{I(w)} = conj(s_w).

    Returns None, ("missing", w, I(w)) when the partner is not stored, or
    ("asymmetric", w, I(w)) when |s_{I(w)} - conj(s_w)| exceeds tol times
    max(1, max |s|); w is the first such word in graded-lex order. A word
    with a letter beyond n_generators raises ValidationError.
    """
    N = n_generators
    groups, foreign = rank_groups(moments, N)
    if foreign:
        w = list(moments)[foreign[0]]
        raise ValidationError(f"word {w} uses letters beyond {N} generators")
    vals = np.fromiter(moments.values(), dtype=complex, count=len(moments))
    scale = float(np.nanmax(np.abs(vals), initial=1.0))
    for n in sorted(groups):
        pos, ranks, rev = groups[n]
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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.n_generators < 1:
            raise ValidationError("n_generators must be >= 1")
        if self.max_degree < 0:
            raise ValidationError("max_degree must be >= 0")
        exact = self.__dict__.pop("_exact", False)
        if not exact:
            self.moments = dict(zip(self.moments.keys(), map(complex, self.moments.values())))
        s_e = self.moments.get(EMPTY)
        if s_e is None or abs(s_e - 1.0) > 1e-9:
            raise ValidationError("functional must be unital: moment at 'e' must be 1")
        if self.kind == "hankel" and not exact:
            defect = _involution_defect(self.moments, self.n_generators, _SYM_TOL)
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
            for (s, t), v in self.kernel.items():
                rv = self.kernel.get((t, s))
                if rv is not None and abs(rv - np.conj(v)) > _SYM_TOL * max(1.0, abs(v)):
                    raise ValidationError(f"kernel not Hermitian at ({s}, {t})")
            scale = max(1.0, max(abs(v) for v in self.moments.values()))
            for w, v in self.moments.items():
                kv = self._generic_lookup(EMPTY, w)
                if kv is not None and abs(kv - v) > _SYM_TOL * scale:
                    raise ValidationError(
                        f"kernel entry (e, {w}) disagrees with stored moment")

    @classmethod
    def _exact_hankel(cls, n_generators: int, max_degree: int,
                      moments: dict[Word, complex], tables: Sequence[_Table] = ()
                      ) -> "MomentFunctional":
        """A hankel functional on moments that are exact by construction.

        For the output of ``_hankel_moments``: complex values, s_e = 1,
        s_{I(w)} = conj(s_w) exactly and every letter in range. The field and
        unit checks run; the copy and the involution check are skipped. The
        trust belongs to this construction only: ``f.moments`` is a plain
        dict, and a later check of it (``hamburger_check(f.moments, ...)``)
        runs in full. The functional holds ``tables``, the shared word
        tables its moments are keyed by, so they are reused while it lives.
        """
        f = cls.__new__(cls)
        f._exact = True
        f.__init__(n_generators, "hankel", max_degree, moments)
        f._tables = tuple(tables)
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

    def index(self, w: Word) -> int:
        return self._index[w]

    def __post_init__(self):
        self._index = {w: i for i, w in enumerate(self.words)}

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
        m = _moment_arrays(f.moments, N, 2 * level)
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

    The test is min eigenvalue > tol * max(1, largest diagonal entry), via a
    symmetric eigensolver. On failure the certificate is the unit eigenvector
    for the minimal eigenvalue, keyed by words: a polynomial of near-zero
    norm against the functional. ``G`` is the Gram matrix at the level when
    the caller has built it already.
    """
    G = _gram_at(f, level, G)
    vals, vecs = np.linalg.eigh(G.entries)
    threshold = tol * max(1.0, float(np.max(np.real(np.diag(G.entries)))))
    lam = float(vals[0])
    if lam > threshold:
        return PositivityResult(ok=True, min_eigenvalue=lam, threshold=threshold)
    vec = vecs[:, 0]
    cert = {w: complex(vec[i]) for i, w in enumerate(G.words)}
    return PositivityResult(ok=False, min_eigenvalue=lam, threshold=threshold,
                            certificate=cert)


def require_strict_positivity(f: MomentFunctional, level: int, tol: float = 1e-9,
                              G: GramMatrix | None = None) -> PositivityResult:
    res = strict_positivity(f, level, tol, G)
    if not res.ok:
        raise PositivityError(
            f"Gram matrix at level {level} is not strictly positive "
            f"(min eigenvalue {res.min_eigenvalue:.3e})",
            min_eigenvalue=res.min_eigenvalue, certificate=res.certificate)
    return res


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
        dev = np.max(np.abs(X[k] - X[k].conj().T))
        if dev > atol * (1.0 + np.max(np.abs(X[k]))):
            raise ValidationError(f"matrix {k + 1} is not Hermitian (deviation {dev:.3e})")
        X[k] = (X[k] + X[k].conj().T) / 2.0
    v = np.asarray(v, dtype=complex).reshape(d)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-9:
        raise ValidationError("v must be a unit vector")

    # rows X_w v by rank, level by level (X_{k.u} v = X_k X_u v), to half the degree
    half = (max_degree + 1) // 2
    vecs = [v[None, :]]
    for _ in range(half):
        vecs.append(np.concatenate([vecs[-1] @ X[k].T for k in range(n)]))
    return MomentFunctional._exact_hankel(n, max_degree, *_hankel_moments(vecs, n, max_degree))


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
