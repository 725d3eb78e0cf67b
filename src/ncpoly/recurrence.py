"""Three-term recurrence blocks and their inversion.

Left multiplication by a generator acts on the orthonormal family by

    Y_k Phi_n = Phi_{n+1} B_{n,k} + Phi_n A_{n,k} + Phi_{n-1} B*_{n-1,k}

with Phi_n the row of level-n basis elements, A_{n,k} Hermitian, and the
level-coupling blocks B stacking to an upper triangular invertible matrix
B_n = [B_{n,1} ... B_{n,N}] whose diagonal entry at word k.sigma equals
a_{sigma,sigma} / a_{k.sigma,k.sigma} > 0.

``extract`` reads the blocks off a basis C by inner products: H = conj(C) G
once, then one product H[:, k.u] C^T per generator holds every <Y_k phi_tau,
phi_sigma>, and each A_{n,k} and B_{n,k} is a slice of it. ``favard`` goes
the other way: in the block Jacobi model (``_band``, shared with
``jacobi.build``) the monomial Y_w 1 has orthonormal coordinates J_w e_0, so
the column orbit M = [J_w e_0] is lower triangular, the basis is M^-1 and the
moments are inner products of its columns. Both directions carry runtime
checks (symmetry, triangularity, residual of the recurrence as a polynomial
identity), each on whole arrays, naming the first offender in (n, k) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .functional import (COND_BOUND, DIAG_TOL, HERMITICITY_TOL, RESIDUAL_TOL, GramMatrix,
                         MomentFunctional, _gram_at, _hankel_moments, _MomentView, _orbit)
from .orthopoly import OrthoBasis, _shift_rows, _upper_inv
from .words import level_offsets, shift_map, word_at


@dataclass
class RecurrenceCoeffs:
    """Blocks A_{n,k} (N^n x N^n) and B_{n,k} (N^{n+1} x N^n), 0 <= n < levels.

    The constructor keeps new dicts of its own complex copies of the blocks,
    so the caller's dicts and arrays are neither changed nor read again.
    """

    n_generators: int
    levels: int
    A: dict[tuple[int, int], np.ndarray]
    B: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        N = self.n_generators
        self.A = {key: np.array(a, dtype=complex) for key, a in self.A.items()}
        self.B = {key: np.array(b, dtype=complex) for key, b in self.B.items()}
        for n in range(self.levels):
            for k in range(1, N + 1):
                if (n, k) not in self.A or (n, k) not in self.B:
                    raise ValidationError(f"missing block at (n={n}, k={k})")
                a, b = self.A[n, k], self.B[n, k]
                if a.shape != (N**n, N**n):
                    raise ValidationError(f"A block (n={n}, k={k}) has shape {a.shape}")
                if b.shape != (N ** (n + 1), N**n):
                    raise ValidationError(f"B block (n={n}, k={k}) has shape {b.shape}")

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

    def validate(self) -> None:
        """Reject non-finite blocks, non-Hermitian A, non-triangular/ill-conditioned B,
        and a bad diagonal, naming the first offender in (n, k) order.

        The thresholds are HERMITICITY_TOL and DIAG_TOL, relative to max(1,
        block scale), and COND_BOUND on the condition number of each B_n.
        """
        N, L = self.n_generators, self.levels
        offs = level_offsets(N, L)
        # every level at once: A_{n,k} on the diagonal of Ad[k - 1], B_n on that of Bd
        Ad = np.zeros((N, offs[L], offs[L]), dtype=complex)
        Bd = np.zeros((offs[-1] - 1, offs[-1] - 1), dtype=complex)  # from the word index 1
        for n in range(L):
            a, b = slice(offs[n], offs[n + 1]), slice(offs[n + 1] - 1, offs[n + 2] - 1)
            Ad[:, a, a] = [self.A[n, k] for k in range(1, N + 1)]
            Bd[b, b] = self.b_block(n)
        if not (np.isfinite(Ad).all() and np.isfinite(Bd).all()):
            self._require_finite()
        first = {}  # (level, order of the check on that level): refusal
        dev, scale = (np.maximum.reduceat(x.max(axis=2, initial=0), offs[:L], axis=1)
                      for x in (np.abs(Ad - Ad.conj().transpose(0, 2, 1)), np.abs(Ad)))
        bad = np.flatnonzero((dev > HERMITICITY_TOL * np.maximum(1.0, scale)).T)
        if bad.size:
            n, k = divmod(int(bad[0]), N)
            first[n, 0] = f"A block (n={n}, k={k + 1}) is not Hermitian"
        lev = np.repeat(np.arange(L), np.diff(offs[1:]))  # the level of each row of Bd
        absB = np.abs(Bd)
        scale = np.maximum(1.0, np.maximum.reduceat(absB.max(axis=1, initial=0),
                                                    np.array(offs[1:-1], dtype=int) - 1))[lev]
        rows, cols = np.nonzero(np.tril(absB, -1) > HERMITICITY_TOL * scale[:, None])
        if rows.size:  # nonzero walks row-major, and B_n's rows come before B_{n+1}'s
            n = int(lev[rows[0]])
            k = (int(cols[0]) - offs[n + 1] + 1) // N**n + 1
            first[n, 1] = f"B_{n} not upper triangular (offending block n={n}, k={k})"
        dg = np.diag(Bd)
        bad = np.flatnonzero((np.abs(dg.imag) > DIAG_TOL * scale) | (dg.real <= 0))
        if bad.size:
            n = int(lev[bad[0]])
            j = int(np.argmin(dg.real[offs[n + 1] - 1:offs[n + 2] - 1]))
            first[n, 2] = (f"B_{n} diagonal not strictly positive (offending block n={n}, "
                           f"k={j // N**n + 1})")
        stop = min(first, default=(L, 0))
        for n in range(stop[0]):
            b, m = offs[n + 1] - 1, N ** (n + 1)
            # a one-row B_n has one singular value, so its condition number is 1
            if (np.linalg.cond(Bd[b:b + m, b:b + m]) if m > 1 else 1.0) > COND_BOUND:
                raise ValidationError(f"B_{n} condition number exceeds {COND_BOUND:.1e}")
        if first:
            raise ValidationError(first[stop])


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
    top = offs[levels]
    kmaps = shift_map(N, levels)
    # P[k - 1][sigma, tau] = <Y_k phi_tau, phi_sigma>, |tau| < levels: its level-n
    # diagonal block is A_{n,k}, and the block below that B_{n,k}
    H = np.conj(A_coef) @ G
    P = [H[:, kmap] @ A_coef[:top, :top].T for kmap in kmaps]
    coeffs = RecurrenceCoeffs(
        n_generators=N, levels=levels,
        A={(n, k): P[k - 1][offs[n]:offs[n + 1], offs[n]:offs[n + 1]]
           for n in range(levels) for k in range(1, N + 1)},
        B={(n, k): P[k - 1][offs[n + 1]:offs[n + 2], offs[n]:offs[n + 1]]
           for n in range(levels) for k in range(1, N + 1)})

    # every level at once; the first failing level is refused, Hermiticity first
    dev = np.stack([np.diag(np.maximum.reduceat(np.maximum.reduceat(
        np.abs(p[:top] - p[:top].conj().T), offs[:-2]), offs[:-2], axis=1)) for p in P], 1)
    herm = np.flatnonzero(dev > HERMITICITY_TOL)
    # B_n's diagonal entry at k.sigma is P[k - 1] at (k.sigma, sigma) and should
    # be lead(sigma) / lead(k.sigma); indexed by k.sigma in graded-lex order
    lead = np.real(np.diag(A_coef))
    dg, ratio = np.empty(offs[-1], dtype=complex), np.empty(offs[-1])
    for kmap, p in zip(kmaps, P):
        dg[kmap] = p[kmap, np.arange(top)]
    ratio[kmaps] = lead[:top]
    ratio = ratio[1:] / lead[1:]
    off = np.flatnonzero(np.abs(dg[1:] - ratio) > DIAG_TOL * np.maximum(1.0, np.abs(ratio))) + 1
    n = int(np.searchsorted(offs, off[0], side="right")) - 2 if off.size else levels
    if herm.size and herm[0] // N <= n:
        n, k = divmod(int(herm[0]), N)
        raise ConsistencyError(f"extracted A (n={n}, k={k + 1}) deviates from Hermitian "
                               f"by {dev.flat[herm[0]]:.3e}")
    if off.size:
        w = word_at(n + 1, int(off[0]) - offs[n + 1], N)
        raise ConsistencyError(f"B_{n} diagonal at {w} deviates from leading-coefficient ratio")
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
    """``residual_check`` on the dense coefficient matrix to coeffs.levels: Y_k Phi_n,
    all n < levels at once, against the transposed band of the blocks as given times Phi."""
    N, levels = coeffs.n_generators, coeffs.levels
    top = level_offsets(N, levels)[levels]
    worst = 0.0
    for kmap, J in zip(shift_map(N, levels), _band(coeffs, levels, hermitian=False)):
        R = _shift_rows(A_coef[:top], kmap) - J[:, :top].T @ A_coef
        worst = max(worst, float(np.max(np.abs(R))))
    return worst


def _band(coeffs: RecurrenceCoeffs, level: int, hermitian: bool = True) -> list[np.ndarray]:
    """The block Jacobi matrices J_1..J_N on words of length <= level.

    A_{n,k} on the diagonal for the n <= level that ``coeffs`` has (the rest
    stay zero), B_{n,k} below and B*_{n,k} above; made exactly Hermitian as
    (J + J*) / 2 unless ``hermitian`` is False.
    """
    N = coeffs.n_generators
    offs = level_offsets(N, level)
    S = offs[level + 1]
    out = []
    for k in range(1, N + 1):
        J = np.zeros((S, S), dtype=complex)
        for n in range(min(level + 1, coeffs.levels)):
            J[offs[n]:offs[n + 1], offs[n]:offs[n + 1]] = coeffs.A[n, k]
        for n in range(level):
            b = coeffs.B[n, k]
            J[offs[n + 1]:offs[n + 2], offs[n]:offs[n + 1]] = b
            J[offs[n]:offs[n + 1], offs[n + 1]:offs[n + 2]] = b.conj().T
        out.append((J + J.conj().T) / 2 if hermitian else J)
    return out


def favard(coeffs: RecurrenceCoeffs,
           levels: int | None = None) -> tuple[OrthoBasis, MomentFunctional]:
    """Rebuild the orthonormal family and its moment functional from blocks.

    The blocks must pass ``RecurrenceCoeffs.validate``. The basis is M^-1 for
    the column orbit M = [J_w e_0], |w| <= levels, by graded-lex rank; the
    moments to length 2*levels are <J_q e_0, J_{I(p)} e_0>.
    """
    L = coeffs.levels if levels is None else levels
    if L < 1 or L > coeffs.levels:
        raise ValidationError(f"levels must be in 1..{coeffs.levels}")
    coeffs.validate()
    N = coeffs.n_generators
    # a level-n < L column has no level-L part, so A_L (absent when L is
    # coeffs.levels) is never read
    mats = _band(coeffs, L)
    cols = _orbit(mats, np.eye(1, len(mats[0]), dtype=complex), L)
    # the inverse of the upper triangular M^T has first column exactly e_0
    A = _upper_inv(np.concatenate(cols).T).T
    np.fill_diagonal(A, A.diagonal().real)
    f = MomentFunctional._exact_hankel(N, 2 * L, _MomentView(N, _hankel_moments(cols, N, 2 * L)))
    return OrthoBasis._from_matrix(N, L, A), f
