"""Orthonormal polynomials in non-commuting variables.

Given a strictly positive moment functional, the monomials F_w are
orthonormalized in graded-lex order, producing triangular coefficients
a_{sigma,tau} (tau <= sigma) with a_{sigma,sigma} > 0. Two routes are
implemented: a Cholesky factorization of the Gram matrix, and a bordered
determinant formula useful as an independent cross-check at small sizes.

For stationary (toeplitz) functionals the basis also satisfies a two-term
ladder driven by one scalar per word: left multiplication by a generator
maps phi_sigma to phi_{k.sigma} up to a correction along an auxiliary
family phi#, mirroring the classical orthogonal-polynomials-on-the-circle
recursion. ``szego_recursion`` rebuilds the basis that way and verifies it
against the Cholesky route. It decides positivity once, by a Cholesky of the
shifted Gram matrix (``orthogonalize``), and factors the Gram matrix once
more, for that cross-check alone: each ladder scalar is read off the
ladder's own rows. The phi# family is kept as a dense matrix; its
Word-keyed rows are built on first read.

Coefficient rows pair conjugated against the Gram's first slot: the
orthonormality identity reads conj(A) G A^T = I (for real moments this is
the familiar A G A* = I).

At a matrix tuple Z the basis is one table: the products Z_w, |w| <= L,
stacked by graded-lex rank a level at a time, contracted with the coefficient
matrix. ``evaluate`` and ``opeval`` read it; ``word_product`` is its reference.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConsistencyError, PositivityError, ValidationError
from .functional import (LADDER_TOL, STRICT_TOL, GramMatrix, MomentFunctional, _gram_at,
                         _proves_above, _threshold, gram, kernel_entry,
                         require_strict_positivity)
from .words import EMPTY, Word, global_index, level_offsets, shift_map, words_up_to

DETERMINANT_CAP = 21  # bordered-matrix order limit for the cross-check route


class OrthoBasis:
    """Triangular coefficients of an orthonormal family, held as one matrix.

    Every basis is its dense lower-triangular coefficient matrix over
    graded-lex words, the form computations read. The Word-keyed rows
    ``coeffs`` are a read-only view of it built on first read, so they
    cannot go stale. The constructor checks Word-keyed ``coeffs`` rows into
    the matrix and keeps nothing else; ``orthogonalize``, ``favard`` and
    ``szego_recursion`` hand over the matrix they computed.

    The constructor raises ValidationError naming the word when a row or
    column word is not among the words of length <= level, an entry lies
    above the diagonal (its column word comes after its row word) or a row
    is missing. A row may leave out entries below its diagonal; they are
    zero, and ``coeffs`` lists them as zeros.
    """

    def __init__(self, n_generators: int, level: int,
                 coeffs: dict[Word, dict[Word, complex]]):
        self.n_generators = n_generators
        self.level = level
        self._coeffs = None
        self._matrix = _rows_matrix(coeffs, n_generators, level)

    @classmethod
    def _from_matrix(cls, n_generators: int, level: int, A: np.ndarray) -> "OrthoBasis":
        """A basis held as the lower triangle of A, whose rows are graded-lex words."""
        basis = cls.__new__(cls)
        basis.n_generators, basis.level = n_generators, level
        basis._coeffs = None
        basis._matrix = np.tril(A)
        basis._matrix.flags.writeable = False
        return basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n_generators, self.level) == (other.n_generators, other.level)
                and np.array_equal(self._matrix, other._matrix))

    __hash__ = None

    @property
    def coeffs(self) -> Mapping[Word, Mapping[Word, complex]]:
        """Read-only rows {sigma: {tau: a_{sigma,tau}}, tau <= sigma}, built on first read."""
        if self._coeffs is None:
            A, ws = self._matrix, self.words()
            self._coeffs = MappingProxyType(
                {w: MappingProxyType(dict(zip(ws[:i + 1], A[i, :i + 1].tolist())))
                 for i, w in enumerate(ws)})
        return self._coeffs

    def words(self) -> list[Word]:
        return words_up_to(self.level, self.n_generators)

    def matrix(self, level: int | None = None) -> np.ndarray:
        """Dense lower-triangular coefficient matrix over graded-lex words (a copy)."""
        lvl = self.level if level is None else level
        if lvl < 0:
            raise ValidationError(f"level must be >= 0, got {lvl}")
        if lvl > self.level:
            raise ValidationError(f"basis only valid to level {self.level}")
        n = level_offsets(self.n_generators, lvl)[-1]
        return self._matrix[:n, :n].copy()

    def leading(self, w: Word) -> float:
        """a_{w,w}, read off the diagonal."""
        N = self.n_generators
        if len(w) > self.level or max(w.letters, default=0) > N:
            raise ValidationError(
                f"{w} is not a word of length <= {self.level} on {N} generators")
        i = global_index(w, N)
        return float(self._matrix[i, i].real)


def _rows_matrix(rows: Mapping[Word, Mapping[Word, complex]], n_generators: int,
                 level: int) -> np.ndarray:
    """The read-only lower-triangular matrix of Word-keyed rows, graded-lex.

    A row or column word of more than ``level`` letters or a letter beyond
    ``n_generators``, a column word after its row word and a missing row
    raise ValidationError naming the word.
    """
    words = words_up_to(level, n_generators)
    idx = {w: i for i, w in enumerate(words)}
    A = np.zeros((len(words), len(words)), dtype=complex)
    outside = f"is not a word of length <= {level} on {n_generators} generators"
    for s, row in rows.items():
        i = idx.get(s)
        if i is None:
            raise ValidationError(f"basis row {s} {outside}")
        cols = [idx.get(t, -1) for t in row]
        if not all(0 <= j <= i for j in cols):
            t, j = next((t, j) for t, j in zip(row, cols) if not 0 <= j <= i)
            raise ValidationError(f"basis entry ({s}, {t}) lies above the diagonal" if j > i
                                  else f"basis entry ({s}, {t}): column {t} {outside}")
        A[i, cols] = list(row.values())
    if len(rows) < len(words):
        raise ValidationError(f"basis row {next(w for w in words if w not in rows)} is missing")
    A.flags.writeable = False
    return A


def orthogonalize(f: MomentFunctional, level: int,
                  G: GramMatrix | None = None) -> OrthoBasis:
    """Orthonormal basis to a level via Cholesky of the Gram matrix.

    Raises PositivityError (with certificate) unless the Gram matrix is
    strictly positive at the level, lambda_min > STRICT_TOL * max(1, largest
    diagonal entry). A Cholesky of the Gram shifted past that threshold
    decides (``functional._proves_above``); only when it fails does
    ``require_strict_positivity`` decide on the eigenvalues, so a refusal
    quotes lambda_min and carries its eigenvector. ``G`` is the Gram matrix
    at the level when the caller has built it already.
    """
    G = _gram_at(f, level, G)
    if not _proves_above(G.entries, _threshold(G, STRICT_TOL)):
        require_strict_positivity(f, level, G)
    return _cholesky_basis(f.n_generators, G)


def _cholesky_basis(n_generators: int, G: GramMatrix) -> OrthoBasis:
    """The basis from the Cholesky factor of a Gram matrix already decided strict.

    Runs no positivity test of its own, so a caller that has decided under
    its own tolerance keeps that decision; a factorization that still fails
    raises PositivityError.
    """
    try:
        L = np.linalg.cholesky(np.conj(G.entries))
    except np.linalg.LinAlgError as exc:
        raise PositivityError(f"Cholesky failed at level {G.level}: {exc}") from exc
    A = _upper_inv(L.T).T
    np.fill_diagonal(A, A.diagonal().real)
    return OrthoBasis._from_matrix(n_generators, G.level, A)


# order up to which _upper_inv inverts a block with one LAPACK call
_TRI_LEAF = 32


def _upper_inv(U: np.ndarray) -> np.ndarray:
    """Inverse of the upper triangle of U, by halving; exactly zero below the diagonal.

    With U = [[U11, U12], [0, U22]] and A, C the inverses of U11 and U22, the
    inverse is [[A, -A (U12 C)], [0, C]]: the recursive form of LAPACK
    xTRTRI (Du Croz & Higham, IMA J. Numer. Anal. 1992). A block of order
    at most ``_TRI_LEAF`` goes to ``np.linalg.inv`` as an upper triangular
    matrix, whose LU factorization never pivots. Entries of U below the
    diagonal are not read.
    """
    n = len(U)
    if n <= _TRI_LEAF:
        return np.linalg.inv(np.triu(U))
    m = n // 2
    out = np.zeros_like(U)
    A = out[:m, :m] = _upper_inv(U[:m, :m])
    C = out[m:, m:] = _upper_inv(U[m:, m:])
    out[:m, m:] = -(A @ (U[:m, m:] @ C))
    return out


def _shift_rows(rows: np.ndarray, kmap: np.ndarray) -> np.ndarray:
    """Coefficient rows of Y_k P from those of P; kmap is a row of shift_map."""
    out = np.zeros_like(rows)
    out[:, kmap] = rows[:, :len(kmap)]
    return out


def orthonormality_residual(basis: OrthoBasis, G: GramMatrix | np.ndarray,
                            level: int | None = None) -> float:
    """max |conj(A) G A^T - I| over the basis range."""
    ent = G.entries if isinstance(G, GramMatrix) else np.asarray(G)
    A = basis.matrix(level)
    n = A.shape[0]
    R = np.conj(A) @ ent[:n, :n] @ A.T
    return float(np.max(np.abs(R - np.eye(n))))


def determinant_formula(f: MomentFunctional, sigma: Word) -> dict[Word, complex]:
    """phi_sigma by the bordered determinant, expanded along its last row.

    The bordered matrix stacks kernel rows for all words strictly before
    sigma over the columns of words up to sigma, with the monomials as the
    final row; the normalizer is 1/sqrt(D_{sigma-1} D_sigma) with D the
    initial-segment Gram determinants. Intended as a small-size cross-check
    of the Cholesky route; the Gram matrix at the length of sigma must be
    strictly positive (``require_strict_positivity``).
    """
    if sigma == EMPTY:
        return {EMPTY: 1.0 + 0.0j}
    require_strict_positivity(f, len(sigma))
    ws = [w for w in words_up_to(len(sigma), f.n_generators) if w <= sigma]
    m = len(ws) - 1
    if m + 1 > DETERMINANT_CAP:
        raise ValidationError(
            f"determinant route capped at order {DETERMINANT_CAP}, needed {m + 1}")
    top = np.empty((m, m + 1), dtype=complex)
    for i in range(m):
        for j in range(m + 1):
            top[i, j] = kernel_entry(f, ws[i], ws[j])
    d_prev = float(np.real(np.linalg.det(top[:, :m]))) if m else 1.0
    full = np.vstack([top, np.zeros((1, m + 1))])
    for j in range(m + 1):
        full[m, j] = kernel_entry(f, sigma, ws[j])
    d_full = float(np.real(np.linalg.det(full)))
    if d_prev <= 0 or d_full <= 0:
        raise PositivityError(
            f"initial-segment determinants not positive at {sigma}")
    norm = 1.0 / np.sqrt(d_prev * d_full)
    coeffs: dict[Word, complex] = {}
    for j in range(m + 1):
        minor = np.delete(top, j, axis=1)
        sign = -1.0 if (m + j) % 2 else 1.0
        coeffs[ws[j]] = complex(sign * np.linalg.det(minor) * norm)
    return coeffs


@dataclass
class SzegoData:
    """Per-word ladder scalars and the auxiliary family coefficients.

    ``sharp`` holds the phi# rows {w: {tau: coefficient}}, zeros omitted.
    ``szego_recursion`` hands them over as a read-only mapping that keeps
    the ladder's dense phi# matrix and builds the rows on first read.
    """

    gammas: dict[Word, complex]
    ds: dict[Word, float]
    sharp: Mapping[Word, dict[Word, complex]]


class _SharpRows(Mapping):
    """Rows {w: {tau: S[w, tau]}} of a lower-triangular S over graded-lex words.

    Zeros are omitted. The dict of rows is built on first read and kept.
    """

    def __init__(self, words: list[Word], S: np.ndarray):
        self._words, self._matrix = words, S
        self._rows: dict[Word, dict[Word, complex]] | None = None

    def _built(self) -> dict[Word, dict[Word, complex]]:
        if self._rows is None:
            ws, S = self._words, self._matrix
            rows = {}
            for i, w in enumerate(ws):
                nz = np.flatnonzero(S[i, :i + 1])
                rows[w] = dict(zip([ws[j] for j in nz], S[i, nz].tolist()))
            self._rows = rows
        return self._rows

    def __getitem__(self, w: Word) -> dict[Word, complex]:
        return self._built()[w]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._words)

    def __repr__(self) -> str:
        return repr(self._built())


def szego_recursion(f: MomentFunctional, level: int) -> tuple[OrthoBasis, SzegoData]:
    """Rebuild the basis of a stationary functional by the scalar ladder.

    For each nonempty word w = k.sigma (in graded-lex order, with p the
    predecessor of w):

        phi_w  = (Y_k phi_sigma - gamma_w phi#_p) / d_w
        phi#_w = (-conj(gamma_w) Y_k phi_sigma + phi#_p) / d_w

    with gamma_w = <Y_k phi_sigma, phi#_p> = a_{sigma,sigma} <F_w, phi#_p>,
    d_w = sqrt(1 - |gamma_w|^2), and phi#_e = 1. The second form holds
    because phi#_p is orthogonal to every F_v with e < v <= p, and every
    monomial of Y_k phi_sigma but its top one a_{sigma,sigma} F_w is such an
    F_v; so each scalar is one product of the phi#_p row with a Gram column.
    The rebuilt basis must match the Cholesky route within LADDER_TOL,
    relative to max(1, largest coefficient); a mismatch raises
    ConsistencyError.
    """
    if f.kind != "toeplitz":
        raise ValidationError("the scalar ladder applies to toeplitz functionals")
    G = gram(f, level)
    reference = orthogonalize(f, level, G=G).matrix()
    n = len(G.words)
    N = f.n_generators
    offs = level_offsets(N, level)
    kmaps = shift_map(N, level)
    gammas: dict[Word, complex] = {}
    ds: dict[Word, float] = {}
    phi = np.zeros((n, n), dtype=complex)
    sharp = np.zeros((n, n), dtype=complex)
    phi[0, 0] = 1.0
    sharp[0, 0] = 1.0
    for m in range(1, level + 1):
        # the rows Y_k phi_sigma for w = k.sigma, in the graded-lex order of w,
        # and their leading coefficients a_{sigma,sigma}
        prev = phi[offs[m - 1]:offs[m]]
        shifted = np.concatenate([_shift_rows(prev, kmap) for kmap in kmaps])
        lead = np.tile(np.diagonal(phi)[offs[m - 1]:offs[m]].real, N).tolist()
        for r in range(N**m):
            i = offs[m] + r
            w = G.words[i]
            # gamma_w = a_{sigma,sigma} <F_w, phi#_p>; phi#_p has no column
            # past p = i - 1, and Y_k phi_sigma none past w = i
            gamma = lead[r] * complex(np.vdot(sharp[i - 1, :i], G.entries[:i, i]))
            if abs(gamma) >= 1.0:
                raise PositivityError(
                    f"ladder scalar at {w} has modulus {abs(gamma):.6f} >= 1")
            d = float(np.sqrt(1.0 - abs(gamma) ** 2))
            gammas[w], ds[w] = gamma, d
            y, s = shifted[r, :i + 1], sharp[i - 1, :i + 1]
            phi[i, :i + 1] = (y - gamma * s) / d
            sharp[i, :i + 1] = (s - gamma.conjugate() * y) / d

    dev = float(np.max(np.abs(phi - reference)))
    if dev > LADDER_TOL * max(1.0, float(np.max(np.abs(reference)))):
        raise ConsistencyError(
            f"ladder basis deviates from Gram-Schmidt basis by {dev:.3e}")
    rebuilt = OrthoBasis._from_matrix(f.n_generators, level, phi)
    return rebuilt, SzegoData(gammas=gammas, ds=ds, sharp=_SharpRows(G.words, sharp))


def word_product(mats: np.ndarray, w: Word, cache: dict[Word, np.ndarray]) -> np.ndarray:
    """Z_w = Z_{i1} ... Z_{ik}, memoized on suffixes; the reference for ``_word_stack``."""
    hit = cache.get(w)
    if hit is not None:
        return hit
    if not w.letters:
        out = np.eye(mats.shape[1], dtype=complex)
    else:
        out = mats[w.letters[0] - 1] @ word_product(mats, Word(w.letters[1:]), cache)
    cache[w] = out
    return out


def _word_stack(mats: np.ndarray, level: int) -> np.ndarray:
    """Z_w for every |w| <= level, stacked in graded-lex order.

    Built a level at a time like the Jacobi vacuum orbit: Z_{k.u} = Z_k Z_u
    sits at rank (k - 1) N^n + rank(u) among the words of length n + 1.
    """
    d = mats.shape[1]
    stack = [np.eye(d, dtype=complex)[None]]
    for _ in range(level):
        stack.append((mats[:, None] @ stack[-1][None]).reshape(-1, d, d))
    return np.concatenate(stack)


def _phi_table(basis: OrthoBasis, level: int, point) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, stack) at Z, by rank over |sigma| <= level: Phi = (A (x) I) stack."""
    mats = np.asarray(getattr(point, "mats", point), dtype=complex)
    N = basis.n_generators
    if mats.ndim != 3 or mats.shape[0] != N or mats.shape[1] != mats.shape[2]:
        raise ValidationError(f"point must provide {N} square matrices, got shape {mats.shape}")
    A = basis.matrix(level)
    stack = _word_stack(mats, level)
    return np.tensordot(A, stack, axes=1), stack


def evaluate(basis: OrthoBasis, sigma: Word, point) -> np.ndarray:
    """phi_sigma at an operator tuple: sum of a_{sigma,tau} Z_tau."""
    N = basis.n_generators
    if max(sigma.letters, default=0) > N:
        raise ValidationError(f"word {sigma} uses letters beyond {N} generators")
    return _phi_table(basis, len(sigma), point)[0][global_index(sigma, N)]
