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
against the Cholesky route.

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
from .functional import (GramMatrix, MomentFunctional, _gram_at, gram,
                         kernel_entry, require_strict_positivity)
from .words import EMPTY, Word, global_index, level_offsets, shift_map, words_up_to

DETERMINANT_CAP = 21  # bordered-matrix order limit for the cross-check route


class OrthoBasis:
    """Triangular coefficients of an orthonormal family, rows by word.

    The basis is held in one of two forms and the other is derived from it
    on first use: the dense lower-triangular coefficient matrix over
    graded-lex words (the form ``orthogonalize``, ``favard`` and
    ``szego_recursion`` compute) or the Word-keyed ``coeffs`` rows (the form
    the constructor takes). Both are read-only, so neither can go stale.
    """

    def __init__(self, n_generators: int, level: int,
                 coeffs: dict[Word, dict[Word, complex]]):
        self.n_generators = n_generators
        self.level = level
        self._coeffs = _readonly_rows(coeffs)
        self._matrix: np.ndarray | None = None

    @classmethod
    def _from_matrix(cls, n_generators: int, level: int, A: np.ndarray) -> "OrthoBasis":
        """A basis kept as the lower triangle of A, whose rows are graded-lex words."""
        basis = cls.__new__(cls)
        basis.n_generators, basis.level = n_generators, level
        basis._coeffs = None
        basis._matrix = np.tril(A)
        basis._matrix.flags.writeable = False
        return basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n_generators, self.level, self.coeffs)
                == (other.n_generators, other.level, other.coeffs))

    __hash__ = None

    @property
    def coeffs(self) -> Mapping[Word, Mapping[Word, complex]]:
        """Read-only rows {sigma: {tau: a_{sigma,tau}}}, built from the matrix on first read."""
        if self._coeffs is None:
            A, ws = self._matrix, self.words()
            self._coeffs = _readonly_rows(
                {w: dict(zip(ws[:i + 1], A[i, :i + 1].tolist())) for i, w in enumerate(ws)})
        return self._coeffs

    def words(self) -> list[Word]:
        return words_up_to(self.level, self.n_generators)

    def matrix(self, level: int | None = None) -> np.ndarray:
        """Dense lower-triangular coefficient matrix over graded-lex words (a copy)."""
        lvl = self.level if level is None else level
        if lvl > self.level:
            raise ValidationError(f"basis only valid to level {self.level}")
        if self._matrix is None:
            ws = self.words()
            idx = {w: i for i, w in enumerate(ws)}
            A = np.zeros((len(ws), len(ws)), dtype=complex)
            for i, w in enumerate(ws):
                row = self._coeffs[w]
                A[i, [idx[t] for t in row]] = list(row.values())
            A.flags.writeable = False
            self._matrix = A
        n = level_offsets(self.n_generators, lvl)[-1]
        return self._matrix[:n, :n].copy()

    def leading(self, w: Word) -> float:
        return float(np.real(self.coeffs[w][w]))


def _readonly_rows(coeffs: dict[Word, dict[Word, complex]]
                   ) -> Mapping[Word, Mapping[Word, complex]]:
    return MappingProxyType({w: MappingProxyType(dict(row)) for w, row in coeffs.items()})


def orthogonalize(f: MomentFunctional, level: int, tol: float = 1e-9,
                  G: GramMatrix | None = None) -> OrthoBasis:
    """Orthonormal basis to a level via Cholesky of the Gram matrix.

    Raises PositivityError (with certificate) unless the Gram matrix is
    strictly positive at the level. ``G`` is the Gram matrix at the level
    when the caller has built it already.
    """
    G = _gram_at(f, level, G)
    require_strict_positivity(f, level, tol, G)
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
    A = np.linalg.inv(L)
    di = np.arange(A.shape[0])
    A[di, di] = A[di, di].real
    return OrthoBasis._from_matrix(n_generators, G.level, A)


def orthonormality_residual(basis: OrthoBasis, G: GramMatrix | np.ndarray,
                            level: int | None = None) -> float:
    """max |conj(A) G A^T - I| over the basis range."""
    ent = G.entries if isinstance(G, GramMatrix) else np.asarray(G)
    A = basis.matrix(level)
    n = A.shape[0]
    R = np.conj(A) @ ent[:n, :n] @ A.T
    return float(np.max(np.abs(R - np.eye(n))))


def determinant_formula(f: MomentFunctional, sigma: Word, tol: float = 1e-9) -> dict[Word, complex]:
    """phi_sigma by the bordered determinant, expanded along its last row.

    The bordered matrix stacks kernel rows for all words strictly before
    sigma over the columns of words up to sigma, with the monomials as the
    final row; the normalizer is 1/sqrt(D_{sigma-1} D_sigma) with D the
    initial-segment Gram determinants. Intended as a small-size cross-check
    of the Cholesky route.
    """
    if sigma == EMPTY:
        return {EMPTY: 1.0 + 0.0j}
    require_strict_positivity(f, len(sigma), tol)
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
    """Per-word ladder scalars and the auxiliary family coefficients."""

    gammas: dict[Word, complex]
    ds: dict[Word, float]
    sharp: dict[Word, dict[Word, complex]]


def szego_recursion(f: MomentFunctional, level: int, tol: float = 1e-8
                    ) -> tuple[OrthoBasis, SzegoData]:
    """Rebuild the basis of a stationary functional by the scalar ladder.

    For each nonempty word w = k.sigma (in graded-lex order, with p the
    predecessor of w):

        phi_w  = (Y_k phi_sigma - gamma_w phi#_p) / d_w
        phi#_w = (-conj(gamma_w) Y_k phi_sigma + phi#_p) / d_w

    with gamma_w = -sqrt(D_w / D_{1,w}) a_{w,e}, d_w = sqrt(1 - |gamma_w|^2),
    and phi#_e = 1. D_w is the initial-segment Gram determinant through w and
    D_{1,w} the same with the empty word removed. The rebuilt basis must
    match the Cholesky route; a mismatch raises ConsistencyError.
    """
    if f.kind != "toeplitz":
        raise ValidationError("the scalar ladder applies to toeplitz functionals")
    G = gram(f, level)
    basis = orthogonalize(f, level, G=G)
    n = len(G.words)
    A = basis.matrix()

    Lbar = np.linalg.cholesky(np.conj(G.entries))
    diag = np.real(np.diag(Lbar))
    lead = np.concatenate([[1.0], np.cumprod(diag**2)])  # order-m minors
    if n > 1:
        L1 = np.linalg.cholesky(np.conj(G.entries[1:, 1:]))
        diag1 = np.real(np.diag(L1))
        lead1 = np.concatenate([[1.0], np.cumprod(diag1**2)])
    else:
        lead1 = np.array([1.0])

    N = f.n_generators
    offs = level_offsets(N, level)
    kmap = shift_map(N, level)
    gammas: dict[Word, complex] = {}
    ds: dict[Word, float] = {}
    phi = np.zeros((n, n), dtype=complex)
    sharp = np.zeros((n, n), dtype=complex)
    phi[0, 0] = 1.0
    sharp[0, 0] = 1.0
    for m in range(1, level + 1):
        tail_size = N ** (m - 1)
        for r in range(N**m):
            i = offs[m] + r
            w = G.words[i]
            gamma = complex(-np.sqrt(lead[i + 1] / lead1[i]) * A[i, 0])
            if abs(gamma) >= 1.0:
                raise PositivityError(
                    f"ladder scalar at {w} has modulus {abs(gamma):.6f} >= 1")
            d = float(np.sqrt(1.0 - abs(gamma) ** 2))
            gammas[w], ds[w] = gamma, d
            # w = k.tail: shift phi_tail by the first letter k
            k, tail = divmod(r, tail_size)
            shifted = np.zeros(n, dtype=complex)
            shifted[kmap[k]] = phi[offs[m - 1] + tail, :offs[level]]
            phi[i] = (shifted - gamma * sharp[i - 1]) / d
            sharp[i] = (-np.conj(gamma) * shifted + sharp[i - 1]) / d

    dev = float(np.max(np.abs(phi - A)))
    if dev > tol * max(1.0, float(np.max(np.abs(A)))):
        raise ConsistencyError(
            f"ladder basis deviates from Gram-Schmidt basis by {dev:.3e}")
    rebuilt = OrthoBasis._from_matrix(f.n_generators, level, phi)
    sharp_coeffs = {G.words[i]: {G.words[j]: complex(sharp[i, j])
                                 for j in range(i + 1) if sharp[i, j] != 0}
                    for i in range(n)}
    return rebuilt, SzegoData(gammas=gammas, ds=ds, sharp=sharp_coeffs)


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
