"""Three-term recurrence blocks and their inversion.

Left multiplication by a generator acts on the orthonormal family by

    Y_k Phi_n = Phi_{n+1} B_{n,k} + Phi_n A_{n,k} + Phi_{n-1} B*_{n-1,k}

with Phi_n the row of level-n basis elements, A_{n,k} Hermitian, and the
level-coupling blocks B stacking to an upper triangular invertible matrix
B_n = [B_{n,1} ... B_{n,N}] whose diagonal entry at word k.sigma equals
a_{sigma,sigma} / a_{k.sigma,k.sigma} > 0.

``extract`` reads the blocks off a basis by inner products. ``favard`` goes
the other way: in the block Jacobi model (``_band``, shared with
``jacobi.build``) the monomial Y_w 1 has orthonormal coordinates J_w e_0, so
the column orbit M = [J_w e_0] is lower triangular, the basis is M^-1 and the
moments are inner products of its columns. Both directions carry runtime
checks (symmetry, triangularity, residual of the recurrence as a polynomial
identity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .functional import GramMatrix, MomentFunctional, _gram_at, _hankel_moments, _orbit
from .orthopoly import OrthoBasis, _shift_rows
from .words import level_offsets, shift_map, word_at

HERMITICITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
DIAG_TOL = 1e-9
COND_BOUND = 1e8


@dataclass
class RecurrenceCoeffs:
    """Blocks A_{n,k} (N^n x N^n) and B_{n,k} (N^{n+1} x N^n), 0 <= n < levels."""

    n_generators: int
    levels: int
    A: dict[tuple[int, int], np.ndarray]
    B: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        N = self.n_generators
        for n in range(self.levels):
            for k in range(1, N + 1):
                if (n, k) not in self.A or (n, k) not in self.B:
                    raise ValidationError(f"missing block at (n={n}, k={k})")
                a = np.asarray(self.A[n, k], dtype=complex)
                b = np.asarray(self.B[n, k], dtype=complex)
                if a.shape != (N**n, N**n):
                    raise ValidationError(f"A block (n={n}, k={k}) has shape {a.shape}")
                if b.shape != (N ** (n + 1), N**n):
                    raise ValidationError(f"B block (n={n}, k={k}) has shape {b.shape}")
                self.A[n, k], self.B[n, k] = a, b

    def b_block(self, n: int) -> np.ndarray:
        """Assembled B_n, columns ordered by the word k.sigma (graded-lex)."""
        return np.hstack([self.B[n, k] for k in range(1, self.n_generators + 1)])

    def _require_finite(self) -> None:
        """Reject a block with a non-finite entry, the first in (n, k) order."""
        for n in range(self.levels):
            for k in range(1, self.n_generators + 1):
                for name, block in (("A", self.A[n, k]), ("B", self.B[n, k])):
                    if not np.isfinite(block).all():
                        raise ValidationError(
                            f"{name} block (n={n}, k={k}) has a non-finite entry")

    def validate(self, cond_bound: float = COND_BOUND) -> None:
        """Reject non-finite blocks, non-Hermitian A, non-triangular/ill-conditioned B,
        and a bad diagonal."""
        self._require_finite()
        N = self.n_generators
        for n in range(self.levels):
            for k in range(1, N + 1):
                a = self.A[n, k]
                if np.max(np.abs(a - a.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(a))):
                    raise ValidationError(f"A block (n={n}, k={k}) is not Hermitian")
            Bn = self.b_block(n)
            scale = max(1.0, float(np.max(np.abs(Bn))))
            # nonzero walks row-major: cols[0] is the first offending entry in row order
            _, cols = np.nonzero(np.abs(np.tril(Bn, -1)) > HERMITICITY_TOL * scale)
            if cols.size:
                j = int(cols[0])
                raise ValidationError(
                    f"B_{n} not upper triangular (offending block n={n}, k={j // N**n + 1})")
            dg = np.diag(Bn)
            if np.any(np.abs(dg.imag) > DIAG_TOL * scale) or np.any(dg.real <= 0):
                j = int(np.argmin(dg.real))
                raise ValidationError(
                    f"B_{n} diagonal not strictly positive (offending block n={n}, "
                    f"k={j // N**n + 1})")
            if np.linalg.cond(Bn) > cond_bound:
                raise ValidationError(f"B_{n} condition number exceeds {cond_bound:.1e}")


def extract(f: MomentFunctional, basis: OrthoBasis, levels: int,
            G: GramMatrix | None = None) -> RecurrenceCoeffs:
    """Recurrence blocks from a basis by inner products against the kernel.

    Needs the basis to level ``levels`` and kernel data through word length
    2*levels (for hankel functionals). Asserts Hermiticity of A, the
    triangular structure and diagonal identity of B, and the coefficient-wise
    residual of the recurrence on every run. ``G`` is the Gram matrix at
    ``levels`` when the caller has built it already.
    """
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    if basis.level < levels:
        raise ValidationError(f"basis valid to level {basis.level}, need {levels}")
    N = f.n_generators
    G = _gram_at(f, levels, G).entries
    A_coef = basis.matrix(levels)
    offs = level_offsets(N, levels)
    kmaps = shift_map(N, levels)

    A_blocks: dict[tuple[int, int], np.ndarray] = {}
    B_blocks: dict[tuple[int, int], np.ndarray] = {}
    for n in range(levels):
        src = A_coef[offs[n]:offs[n + 1]]
        rows_n = np.conj(A_coef[offs[n]:offs[n + 1]])
        rows_n1 = np.conj(A_coef[offs[n + 1]:offs[n + 2]])
        for k in range(1, N + 1):
            shifted = _shift_rows(src, kmaps[k - 1])      # coeffs of Y_k phi_sigma
            A_blocks[n, k] = rows_n @ G @ shifted.T
            B_blocks[n, k] = rows_n1 @ G @ shifted.T
    coeffs = RecurrenceCoeffs(n_generators=N, levels=levels, A=A_blocks, B=B_blocks)

    lead = np.real(np.diag(A_coef))
    for n in range(levels):
        for k in range(1, N + 1):
            a = coeffs.A[n, k]
            dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
            if dev > HERMITICITY_TOL:
                raise ConsistencyError(
                    f"extracted A (n={n}, k={k}) deviates from Hermitian by {dev:.3e}")
        # the word of rank j on level n + 1 is k.sigma with rank(sigma) = j mod N^n
        ranks = np.arange(N ** (n + 1))
        expected = lead[offs[n] + ranks % N**n] / lead[offs[n + 1] + ranks]
        gap = np.abs(np.diag(coeffs.b_block(n)) - expected)
        off = gap > DIAG_TOL * np.maximum(1.0, np.abs(expected))
        if off.any():
            w = word_at(n + 1, int(np.argmax(off)), N)
            raise ConsistencyError(
                f"B_{n} diagonal at {w} deviates from leading-coefficient ratio")
    resid = _residual(A_coef, coeffs)
    if resid > RESIDUAL_TOL * max(1.0, float(np.max(np.abs(A_coef)))):
        raise ConsistencyError(f"recurrence residual {resid:.3e} too large")
    return coeffs


def residual_check(basis: OrthoBasis, coeffs: RecurrenceCoeffs) -> float:
    """Largest coefficient-wise residual of the recurrence identity."""
    if basis.level < coeffs.levels:
        raise ValidationError(f"basis valid to level {basis.level}, need {coeffs.levels}")
    return _residual(basis.matrix(coeffs.levels), coeffs)


def _residual(A_coef: np.ndarray, coeffs: RecurrenceCoeffs) -> float:
    """``residual_check`` on the dense coefficient matrix to coeffs.levels."""
    N = coeffs.n_generators
    levels = coeffs.levels
    offs = level_offsets(N, levels)
    kmaps = shift_map(N, levels)
    worst = 0.0
    for n in range(levels):
        C_n = A_coef[offs[n]:offs[n + 1]]
        C_n1 = A_coef[offs[n + 1]:offs[n + 2]]
        C_nm1 = A_coef[offs[n - 1]:offs[n]] if n >= 1 else None
        for k in range(1, N + 1):
            R = _shift_rows(C_n, kmaps[k - 1])
            R = R - coeffs.B[n, k].T @ C_n1
            R = R - coeffs.A[n, k].T @ C_n
            if n >= 1:
                R = R - np.conj(coeffs.B[n - 1, k]) @ C_nm1
            worst = max(worst, float(np.max(np.abs(R))))
    return worst


def _band(coeffs: RecurrenceCoeffs, level: int) -> list[np.ndarray]:
    """The block Jacobi matrices J_1..J_N on words of length <= level.

    Diagonal blocks A_{n,k}, symmetrized, for the n <= level that ``coeffs``
    has (the rest stay zero); B_{n,k} below and B*_{n,k} above.
    """
    N = coeffs.n_generators
    offs = level_offsets(N, level)
    S = offs[level + 1]
    out = []
    for k in range(1, N + 1):
        J = np.zeros((S, S), dtype=complex)
        for n in range(min(level + 1, coeffs.levels)):
            a = coeffs.A[n, k]
            J[offs[n]:offs[n + 1], offs[n]:offs[n + 1]] = (a + a.conj().T) / 2.0
        for n in range(level):
            b = coeffs.B[n, k]
            J[offs[n + 1]:offs[n + 2], offs[n]:offs[n + 1]] = b
            J[offs[n]:offs[n + 1], offs[n + 1]:offs[n + 2]] = b.conj().T
        out.append(J)
    return out


def favard(coeffs: RecurrenceCoeffs, levels: int | None = None,
           cond_bound: float = COND_BOUND) -> tuple[OrthoBasis, MomentFunctional]:
    """Rebuild the orthonormal family and its moment functional from blocks.

    The basis is M^-1 for the column orbit M = [J_w e_0], |w| <= levels, by
    graded-lex rank; the moments to length 2*levels are <J_q e_0, J_{I(p)} e_0>.
    """
    L = coeffs.levels if levels is None else levels
    if L < 1 or L > coeffs.levels:
        raise ValidationError(f"levels must be in 1..{coeffs.levels}")
    coeffs.validate(cond_bound)
    N = coeffs.n_generators
    # a level-n < L column has no level-L part, so A_L (absent when L is
    # coeffs.levels) is never read
    mats = _band(coeffs, L)
    cols = _orbit(mats, np.eye(1, len(mats[0]), dtype=complex), L)
    # LU of the upper triangular M^T swaps no rows, so row 0 stays exactly e_0
    A = np.linalg.inv(np.concatenate(cols).T).T
    np.fill_diagonal(A, A.diagonal().real)
    f = MomentFunctional._exact_hankel(N, 2 * L, _hankel_moments(cols, N, 2 * L))
    return OrthoBasis._from_matrix(N, L, A), f
