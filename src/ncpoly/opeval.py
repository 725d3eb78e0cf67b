"""Matrix-point evaluation: ball and half-space geometry, kernels, CD sums.

Points are tuples of d x d matrices. The row ball is the set with
I - sum Z_k Z_k* positive definite; the half-space is its image under the
Cayley map in the last coordinate,

    W_j = (1 + Z_N)^{-1} Z_j  (j < N),    W_N = i (1 + Z_N)^{-1} (1 - Z_N),

characterized by Im W_N - sum_{k<N} W_k W_k* > 0. ``membership`` reports
lambda_min of the region's defect by ``eigvalsh``; ``require_membership``,
and with it both Cayley maps and every half-space kernel sum, decides
lambda_min > MEMBERSHIP_TOL by a Cholesky of the defect shifted past it and
takes the eigenvalues only to refuse; the ball kernel sums decide the same
threshold on the largest eigenvalue of sum Z_k Z_k*. Each direction of the
Cayley map is one solve against 1 + Z_N or i + W_N, with every generator's
right-hand side side by side; ``f_sandwich`` adds its middle term to those
right-hand sides, so two factorizations take two half-space points to the
ball.

Kernel sums of the form
sum_sigma Z_sigma T Z'_sigma* are evaluated by iterating the completely
positive map Phi: T -> sum_k Z_k T Z'_k* and adding its powers until one of
two tail bounds clears the requested tolerance ``tol`` (by default
KERNEL_TOL), within SANDWICH_CAP levels; r, the product of the joint row
norms, bounds ||Phi||. The a-priori bound ||T|| r^{L+1} / (1 - r) is
reported as it stands. The a-posteriori bound r ||Phi^L(T)||_F / (1 - r),
read off the last term added, stops the sum once it is below both the
tolerance and the rounding level eps ||S_L||_F of the sum, and the tolerance
is reported. Everything downstream (Szego kernels in both pictures,
reproduction identities, Christoffel-Darboux) reduces to such sandwiches.
The thresholds are entries of the tolerance table in ``functional``; the
kernel sums' ``tol`` is the only one a caller sets.

Phi is written once, in ``_kernel_map``, which the sums and the middle terms
of the reproduction and Christoffel-Darboux checks share. The generators are
stacked once into a column Z_1..Z_N and a column Z'_1*..Z'_N*; Phi(X) is
then two products: the first column times X, whose blocks Z_k X are copied
side by side into one buffer, and that buffer times the column of adjoints.
A sum adds each term into its running total in place.

K_n, the Christoffel-Darboux bracket and the reproduction of polynomials
read phi_sigma(Z) from the one table ``orthopoly`` builds, by graded-lex rank.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, MembershipError, ValidationError
from .functional import (KERNEL_TOL, MEMBERSHIP_TOL, SANDWICH_CAP, MomentFunctional,
                         _proves_above, _require_tol, gram)
from .orthopoly import OrthoBasis, _phi_table
from .recurrence import RecurrenceCoeffs
from .words import Word, global_index, level_offsets, words_up_to


@dataclass
class OperatorTuple:
    """A tuple (Z_1, ..., Z_N) of finite square matrices of a common size."""

    n_generators: int
    dim: int
    mats: np.ndarray
    region: str = "unchecked"

    def __post_init__(self):
        if self.n_generators < 1 or self.dim < 1:
            raise ValidationError(f"a point needs n_generators >= 1 and dim >= 1, got "
                                  f"{self.n_generators} and {self.dim}")
        self.mats = np.asarray(self.mats, dtype=complex)
        if self.mats.shape != (self.n_generators, self.dim, self.dim):
            raise ValidationError(
                f"expected {self.n_generators} matrices of size {self.dim}, "
                f"got array of shape {self.mats.shape}")
        if self.region not in ("ball", "siegel", "unchecked"):
            raise ValidationError(f"unknown region tag {self.region!r}")
        finite = np.isfinite(self.mats).all(axis=(1, 2))
        if not finite.all():
            raise ValidationError(f"matrix {int(np.argmin(finite)) + 1} has a non-finite entry")


@dataclass
class MembershipResult:
    inside: bool
    lambda_min: float
    which: str


def defect(t: OperatorTuple, which: str) -> np.ndarray:
    """The Hermitian matrix whose positivity defines the region."""
    Z = t.mats
    eye = np.eye(t.dim)
    if which == "ball":
        M = eye - sum(Z[k] @ Z[k].conj().T for k in range(t.n_generators))
    elif which == "siegel":
        WN = Z[-1]
        M = (WN - WN.conj().T) / 2j
        for k in range(t.n_generators - 1):
            M = M - Z[k] @ Z[k].conj().T
    else:
        raise ValidationError(f"unknown region {which!r}")
    return (M + M.conj().T) / 2.0


def membership(t: OperatorTuple, which: str) -> MembershipResult:
    """lambda_min of the region's defect, and whether it exceeds MEMBERSHIP_TOL."""
    lam = float(np.linalg.eigvalsh(defect(t, which))[0])
    return MembershipResult(inside=lam > MEMBERSHIP_TOL, lambda_min=lam, which=which)


def require_membership(t: OperatorTuple, which: str) -> None:
    """Raise MembershipError unless the point lies strictly inside the region.

    The verdict is ``membership``'s, lambda_min of the defect >
    MEMBERSHIP_TOL, but a Cholesky of the defect shifted past it decides
    first (``functional._proves_above``); only when it fails does
    ``membership`` take the eigenvalues, so a refusal quotes lambda_min.
    """
    if not _proves_above(defect(t, which), MEMBERSHIP_TOL):
        res = membership(t, which)
        if not res.inside:
            raise _outside(which, res.lambda_min)


def _outside(which: str, lam: float) -> MembershipError:
    return MembershipError(f"tuple is not strictly inside the {which} region "
                           f"(lambda_min = {lam:.6g})")


def cayley(t: OperatorTuple) -> OperatorTuple:
    """Ball tuple to half-space tuple; the last coordinate absorbs the i."""
    return _cayley_map(t, "ball")[0]


def cayley_inverse(t: OperatorTuple) -> OperatorTuple:
    """Half-space tuple to ball tuple, the inverse of ``cayley``."""
    return _cayley_map(t, "siegel")[0]


def _cayley_map(t: OperatorTuple, which: str, extra: np.ndarray | None = None
                ) -> tuple[OperatorTuple, np.ndarray | None]:
    """The Cayley image of a point of the ``which`` region, and A^{-1} extra.

    Both directions are A^{-1} [c Z_1, ..., c Z_{N-1}, B]: from the ball
    A = I + Z_N, c = 1 and B = i (I - Z_N); from the half-space A = i I + W_N,
    c = 2i and B = i I - W_N. The point must lie strictly inside its region,
    where A is invertible. One solve factors A once and applies it to the
    right-hand sides side by side, the optional d x d block ``extra`` last.
    (An explicit inverse times the same blocks is faster, but costs the
    half-space kernel sums up to 0.3 of their digits at d = 64 and 128.)
    """
    require_membership(t, which)
    N, d = t.n_generators, t.dim
    eye = np.eye(d)
    last = t.mats[-1]
    if which == "ball":
        A, c, B, image = eye + last, 1, 1j * (eye - last), "siegel"
    else:
        A, c, B, image = 1j * eye + last, 2j, 1j * eye - last, "ball"
    rhs = [*(c * t.mats[:-1]), B] + ([] if extra is None else [extra])
    out = np.linalg.solve(A, np.concatenate(rhs, axis=1)).reshape(d, len(rhs), d)
    mats = np.ascontiguousarray(out[:, :N].transpose(1, 0, 2))
    return (OperatorTuple(n_generators=N, dim=d, mats=mats, region=image),
            None if extra is None else out[:, N])


@dataclass
class KernelResult:
    value: np.ndarray
    truncation_length: int
    tail_bound: float


def _row_norm_sq(mats: np.ndarray) -> float:
    """lambda_max(sum Z_k Z_k*), the squared block-row operator norm."""
    return float(np.linalg.eigvalsh(sum(m @ m.conj().T for m in mats))[-1])


def _row_norm(mats: np.ndarray) -> float:
    return float(np.sqrt(max(0.0, _row_norm_sq(mats))))


def ball_sandwich(mats: np.ndarray, mats2: np.ndarray, T: np.ndarray,
                  tol: float = KERNEL_TOL) -> KernelResult:
    """sum over all words sigma of Z_sigma T Z'_sigma*, truncated rigorously.

    ``mats`` holds N >= 1 square d x d matrices, ``mats2`` N square d2 x d2
    ones and T is d x d2, all finite; anything else raises ValidationError.

    With r the product of the block-row operator norms of the two tuples,
    ||Phi(X)|| <= r ||X|| for Phi(X) = sum_k Z_k X Z'_k*, so after the terms
    Phi^0(T), ..., Phi^L(T) the rest of the series has spectral norm at most

    * prior_L = ||T|| r^{L+1} / (1 - r), and at most
    * post_L = r ||Phi^L(T)||_F / (1 - r).

    The sum stops at the first L where prior_L <= tol, reporting prior_L as
    ``tail_bound``, or where post_L <= min(tol, eps ||S_L||_F), reporting
    tol: the truncation then lies below the tolerance and below the rounding
    of the partial sum S_L itself. Raises once the open ball condition
    r < 1 fails or neither rule holds within SANDWICH_CAP levels. A tol that
    is NaN, infinite or negative raises ValidationError, as in every kernel
    sum.
    """
    _require_tol(tol)
    mats = np.asarray(mats, dtype=complex)
    mats2 = np.asarray(mats2, dtype=complex)
    T = np.asarray(T, dtype=complex)
    if (mats.ndim != 3 or mats2.ndim != 3 or not len(mats) or len(mats) != len(mats2)
            or mats.shape[1] != mats.shape[2] or mats2.shape[1] != mats2.shape[2]
            or T.shape != (mats.shape[1], mats2.shape[1])):
        raise ValidationError(
            f"ball_sandwich needs N >= 1 d x d matrices, N d2 x d2 matrices and a "
            f"d x d2 middle; got shapes {mats.shape}, {mats2.shape} and {T.shape}")
    for what, M in (("Z", mats), ("Z'", mats2), ("T", T)):
        if not np.isfinite(M).all():
            raise ValidationError(f"ball_sandwich: {what} has a non-finite entry")
    return _sandwich(mats, mats2, T, _row_norm(mats) * _row_norm(mats2), tol)


def _kernel_map(mats: np.ndarray,
                mats2: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Phi: X -> sum_k Z_k X Z'_k* for N d x d matrices Z_k and d2 x d2 Z'_k.

    The generators are stacked once: Z_1..Z_N as one (N d) x d column and
    Z'_1*..Z'_N* as one (N d2) x d2 column. Phi(X) is then two products:
    the column of blocks Z_k X, copied side by side into a d x (N d2)
    buffer made here, times the column of adjoints.
    """
    N, d = mats.shape[:2]
    d2 = mats2.shape[1]
    Z = mats.reshape(N * d, d)
    W = mats2.conj().transpose(0, 2, 1).reshape(N * d2, d2)
    row = np.empty((d, N, d2), dtype=complex)

    def phi(X: np.ndarray) -> np.ndarray:
        row[...] = (Z @ X).reshape(N, d, d2).transpose(1, 0, 2)
        return row.reshape(d, N * d2) @ W

    return phi


def _sandwich(mats: np.ndarray, mats2: np.ndarray, T: np.ndarray, r: float,
              tol: float) -> KernelResult:
    """``ball_sandwich`` for a caller that knows r, the product of the row norms."""
    if r >= 1.0:
        raise ConvergenceError(f"joint row radius r = {r:.6g} >= 1, sum diverges")
    if not T.any():
        return KernelResult(value=np.zeros_like(T), truncation_length=0,
                            tail_bound=0.0)
    # ||T||_2 >= ||T||_F / sqrt(d): the a-priori rule cannot fire while this
    # lower bound, shrunk a little against rounding, keeps the bound above tol,
    # so the 2-norm (an SVD) is taken only once it might; an overflowed
    # Frobenius norm bounds nothing and takes it at once
    lower = float(np.sqrt(np.vdot(T, T).real / min(T.shape))) * (1.0 - 1e-8)
    lower = lower if np.isfinite(lower) else 0.0
    normT = None
    phi = _kernel_map(mats, mats2)
    eps = np.finfo(float).eps
    total = T.copy()
    term = T
    L = 0
    while True:
        if r == 0.0:
            prior = 0.0
        elif lower * r ** (L + 1) / (1.0 - r) > tol:
            prior = np.inf          # above tol, as its lower bound is
        else:
            normT = float(np.linalg.norm(T, 2)) if normT is None else normT
            prior = normT * r ** (L + 1) / (1.0 - r)
        if prior <= tol:
            return KernelResult(value=total, truncation_length=L, tail_bound=prior)
        post = r * np.sqrt(np.vdot(term, term).real) / (1.0 - r)
        if post <= min(tol, eps * np.sqrt(np.vdot(total, total).real)):
            return KernelResult(value=total, truncation_length=L, tail_bound=tol)
        if L >= SANDWICH_CAP:
            raise ConvergenceError(
                f"tail bound needs more than {SANDWICH_CAP} levels at r = {r:.4g}, "
                f"tol = {tol:.2g}")
        term = phi(term)
        total += term
        L += 1


def _check_compatible(t: OperatorTuple, t2: OperatorTuple) -> None:
    if t.n_generators != t2.n_generators or t.dim != t2.dim:
        raise ValidationError("operator tuples must share generator count and size")


def szego_ball(t: OperatorTuple, t2: OperatorTuple, tol: float = KERNEL_TOL) -> KernelResult:
    """K(Z, Z') = sum_sigma Z_sigma Z'_sigma* for two ball points."""
    _require_tol(tol)
    _check_compatible(t, t2)
    r = _ball_row_norm(t) * _ball_row_norm(t2)
    return _sandwich(t.mats, t2.mats, np.eye(t.dim, dtype=complex), r, tol)


def _ball_row_norm(t: OperatorTuple) -> float:
    """The block-row norm of a point, which must lie in the ball.

    One eigenvalue p = lambda_max(sum Z_k Z_k*) gives both: the point is
    inside when 1 - p, the least eigenvalue of its ball defect, exceeds
    MEMBERSHIP_TOL, and the norm is sqrt(p). p is taken directly, not as 1
    minus the defect's eigenvalue, which would lose it to cancellation near
    the origin.
    """
    p = _row_norm_sq(t.mats)
    if not 1.0 - p > MEMBERSHIP_TOL:
        raise _outside("ball", 1.0 - p)
    return float(np.sqrt(max(0.0, p)))


def _square_middle(M, d: int, name: str) -> np.ndarray:
    """M as a complex d x d matrix; another shape or a non-finite entry raises."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (d, d):
        raise ValidationError(f"{name} must be a {d} x {d} matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValidationError(f"{name} has a non-finite entry")
    return M


def f_sandwich(t: OperatorTuple, t2: OperatorTuple, S: np.ndarray,
               tol: float = KERNEL_TOL) -> KernelResult:
    """Half-space counterpart of the sandwich sum.

    F(W, W')[S] = 4 sum_sigma Z_sigma (i + W_N)^{-1} S (i + W'_N)^{-*}
    Z'_sigma* with Z, Z' the Cayley preimages. Linear in S, and inverse to
    S(T) = (W_N T - T W'_N*)/(2i) - sum_{k<N} W_k T W'_k*. S must be a
    finite d x d matrix, or ValidationError is raised before any point is
    tested. Each preimage comes from one solve against i + W_N, and the
    same two solves give the middle: X = (i + W_N)^{-1} S, and the middle
    is the adjoint of (i + W'_N)^{-1} X*.
    """
    _require_tol(tol)
    _check_compatible(t, t2)
    S = _square_middle(S, t.dim, "S")
    Z, X = _cayley_map(t, "siegel", extra=S)
    Z2, Y = _cayley_map(t2, "siegel", extra=X.conj().T)
    res = ball_sandwich(Z.mats, Z2.mats, Y.conj().T, tol / 4.0)
    return KernelResult(value=4.0 * res.value,
                        truncation_length=res.truncation_length,
                        tail_bound=4.0 * res.tail_bound)


def szego_siegel(t: OperatorTuple, t2: OperatorTuple, tol: float = KERNEL_TOL) -> KernelResult:
    """K(W, W') = F(W, W')[I] for two half-space points."""
    return f_sandwich(t, t2, np.eye(t.dim), tol)


@dataclass
class ReproductionResult:
    residual: float
    truncation_length: int
    tail_bound: float


def _resolve_region(t: OperatorTuple) -> str:
    if t.region in ("ball", "siegel"):
        return t.region
    for which in ("ball", "siegel"):
        if membership(t, which).inside:
            return which
    raise MembershipError("tuple lies in neither region")


def reproduction_check(t: OperatorTuple, t2: OperatorTuple, T: np.ndarray,
                       tol: float = KERNEL_TOL) -> ReproductionResult:
    """Feed T through the defining map and recover it through the kernel sum.

    In the ball the sandwich sum inverts T -> T - sum_k Z_k T Z'_k*; in the
    half-space f_sandwich inverts the map S(T) documented there. The returned
    residual is the max-abs gap between the recovered matrix and T. A T that
    is not a finite d x d matrix raises ValidationError before any point is
    tested. The ball sum tests both points as ``szego_ball`` does, on their
    row norms, so a point outside the ball raises MembershipError whatever
    its tag.
    """
    _require_tol(tol)
    _check_compatible(t, t2)
    T = _square_middle(T, t.dim, "T")
    region = _resolve_region(t)
    if _resolve_region(t2) != region:
        raise ValidationError("points lie in different regions")
    if region == "ball":
        r = _ball_row_norm(t) * _ball_row_norm(t2)
        out = _sandwich(t.mats, t2.mats, T - _kernel_map(t.mats, t2.mats)(T), r, tol)
    else:
        S = (t.mats[-1] @ T - T @ t2.mats[-1].conj().T) / 2j \
            - _kernel_map(t.mats[:-1], t2.mats[:-1])(T)
        out = f_sandwich(t, t2, S, tol)
    residual = float(np.max(np.abs(out.value - T)))
    return ReproductionResult(residual=residual,
                              truncation_length=out.truncation_length,
                              tail_bound=out.tail_bound)


def separating_tuples(sigma: Word, unit_dim: int = 1,
                      n_generators: int | None = None) -> list[OperatorTuple]:
    """2|sigma| boundary-norm tuples whose sigma-products hit distinct units.

    For each p the tuple Z^p satisfies (Z^p_sigma)* = 2^{-k/2} E_{p,k+p}
    (first family, p <= k) or 2^{-k/2} E_{p,p-k} (second family, p > k),
    k = |sigma|, while tau-products of other words of the same length miss
    that unit. Every tuple sits inside the ball with defect exactly 1/2.
    """
    k = len(sigma)
    if k == 0:
        raise ValidationError("needs a nonempty word")
    if unit_dim < 1:
        raise ValidationError("unit_dim must be >= 1")
    N = n_generators if n_generators is not None else max(sigma.letters)
    if max(sigma.letters) > N:
        raise ValidationError("word uses a letter beyond n_generators")
    letters = sigma.letters
    out = []
    for p in range(1, 2 * k + 1):
        # letter position l puts a unit of (Z^p_s)* at (l+p-1, l+p), or at
        # (l+p-k, l+p-k-1) in the second family, counting from 1
        star = np.zeros((N, 2 * k, 2 * k), dtype=complex)
        for l in range(1, k + 1):
            if p <= k:
                star[letters[k - l] - 1, l + p - 2, l + p - 1] = 1.0
            else:
                star[letters[l - 1] - 1, l + p - k - 1, l + p - k - 2] = 1.0
        Z = (np.kron(star, np.eye(unit_dim)) / np.sqrt(2.0)).conj().transpose(0, 2, 1)
        out.append(OperatorTuple(n_generators=N, dim=2 * k * unit_dim,
                                 mats=np.ascontiguousarray(Z), region="ball"))
    return out


def evaluate_all(basis: OrthoBasis, level: int, t: OperatorTuple) -> dict[Word, np.ndarray]:
    """phi_sigma(Z) for every |sigma| <= level, the rows of one stacked table."""
    return dict(zip(words_up_to(level, basis.n_generators),
                    _phi_table(basis, level, t)[0]))


def _kernel_terms(basis: OrthoBasis, n: int, level: int, t: OperatorTuple,
                  t2: OperatorTuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K_n(W, W') and the tables of phi_sigma at both points for |sigma| <= level."""
    phis = _phi_table(basis, level, t)[0]
    phis2 = _phi_table(basis, level, t2)[0]
    K = np.zeros((t.dim, t.dim), dtype=complex)
    for i in range(level_offsets(basis.n_generators, n)[-1]):
        K += phis[i] @ phis2[i].conj().T
    return K, phis, phis2


def cd_kernel(basis: OrthoBasis, n: int, t: OperatorTuple,
              t2: OperatorTuple) -> np.ndarray:
    """K_n(W, W') = sum_{|sigma| <= n} phi_sigma(W) phi_sigma(W')*."""
    _check_compatible(t, t2)
    return _kernel_terms(basis, n, n, t, t2)[0]


def _cd_bracket(coeffs: RecurrenceCoeffs, n: int, phis: np.ndarray,
                phis2: np.ndarray) -> np.ndarray:
    """Phi_{n+1}(W) B_{n,N} Phi_n(W')* - Phi_n(W) B_{n,N}* Phi_{n+1}(W')* from phi tables."""
    B = coeffs.B[n, coeffs.n_generators]
    lo, mid, hi = level_offsets(coeffs.n_generators, n + 1)[n:]
    out = np.zeros(phis.shape[1:], dtype=complex)
    for X, Y in zip(np.tensordot(B.T, phis[mid:hi], axes=1), phis2[lo:mid]):
        out += X @ Y.conj().T
    for X, Y in zip(np.tensordot(B.conj(), phis[lo:mid], axes=1), phis2[mid:hi]):
        out -= X @ Y.conj().T
    return out


def _cd_terms(basis: OrthoBasis, coeffs: RecurrenceCoeffs, n: int,
              t: OperatorTuple, t2: OperatorTuple) -> tuple[np.ndarray, np.ndarray]:
    """K_n(W, W') and the Christoffel-Darboux bracket at level n."""
    _check_compatible(t, t2)
    if coeffs.n_generators != basis.n_generators:
        raise ValidationError(f"recurrence blocks for {coeffs.n_generators} generators, "
                              f"basis for {basis.n_generators}")
    if n < 0:
        raise ValidationError(f"level n must be >= 0, got {n}")
    if coeffs.levels < n + 1:
        raise ValidationError(f"need recurrence blocks to level {n + 1}")
    K, phis, phis2 = _kernel_terms(basis, n, n + 1, t, t2)
    return K, _cd_bracket(coeffs, n, phis, phis2)


def cd_inner_identity(basis: OrthoBasis, coeffs: RecurrenceCoeffs, n: int,
                      t: OperatorTuple, t2: OperatorTuple) -> float:
    """Residual of W_N K_n - K_n W'_N* against the bracket form; exact identity."""
    K, bracket = _cd_terms(basis, coeffs, n, t, t2)
    lhs = t.mats[-1] @ K - K @ t2.mats[-1].conj().T
    return float(np.max(np.abs(lhs - bracket)))


@dataclass
class CDFullResult:
    residual: float
    tail_bound: float
    truncation_length: int
    kernel: np.ndarray = field(repr=False, default=None)


def cd_full_check(basis: OrthoBasis, coeffs: RecurrenceCoeffs, n: int,
                  t: OperatorTuple, t2: OperatorTuple,
                  tol: float = KERNEL_TOL) -> CDFullResult:
    """Recover K_n from the half-space kernel transform of its bracket data.

    K_n(W, W') = F(W, W')[bracket/(2i) - sum_{k<N} W_k K_n W'_k*], the
    finite-level Christoffel-Darboux identity, summed as one kernel sum since
    F is linear in its argument. Residual is max-abs.

    Membership of both points is tested once, by ``f_sandwich`` taking them
    back to the ball, so a point outside the half-space raises
    MembershipError only after K_n and the bracket are built; mismatched
    tuples or recurrence blocks raise ValidationError before it.
    """
    _require_tol(tol)
    K, bracket = _cd_terms(basis, coeffs, n, t, t2)
    S = bracket / 2j - _kernel_map(t.mats[:-1], t2.mats[:-1])(K)
    out = f_sandwich(t, t2, S, tol)
    residual = float(np.max(np.abs(K - out.value)))
    return CDFullResult(residual=residual, tail_bound=out.tail_bound,
                        truncation_length=out.truncation_length, kernel=K)


def reproducing_residual(f: MomentFunctional, basis: OrthoBasis, n: int,
                         p: dict[Word, complex], t: OperatorTuple) -> float:
    """max-abs gap between sum_sigma <P, phi_sigma> phi_sigma(Z) and P(Z).

    Needs deg P <= n; the projection onto the level <= n span is the
    identity there and nowhere else. <P, phi_sigma> = (conj(A) G p)_sigma needs
    the Gram matrix G of f at level n, as any f that gave a level >= n basis has.
    """
    N = basis.n_generators
    pv = np.zeros(level_offsets(N, n)[-1], dtype=complex)
    for w, c in p.items():
        if len(w) > n or max(w.letters, default=0) > N:
            raise ValidationError(f"word {w} is outside the level-{n} span of {N} generators")
        pv[global_index(w, N)] = c
    phis, stack = _phi_table(basis, n, t)
    coef = np.conj(basis.matrix(n)) @ (gram(f, n).entries @ pv)
    lhs = np.tensordot(coef, phis, axes=1)
    rhs = np.tensordot(pv, stack, axes=1)
    return float(np.max(np.abs(lhs - rhs)))


def random_ball_tuple(rng: np.random.Generator, n_generators: int, dim: int,
                      margin: float = 0.3) -> OperatorTuple:
    """Random point with I - sum Z_k Z_k* having smallest eigenvalue = margin."""
    if not 0.0 < margin < 1.0:
        raise ValidationError("margin must be in (0, 1)")
    if n_generators < 1 or dim < 1:
        raise ValidationError("n_generators and dim must be >= 1")
    A = rng.standard_normal((n_generators, dim, dim)) \
        + 1j * rng.standard_normal((n_generators, dim, dim))
    M = sum(A[k] @ A[k].conj().T for k in range(n_generators))
    top = float(np.linalg.eigvalsh(M)[-1])
    Z = A * np.sqrt((1.0 - margin) / top)
    return OperatorTuple(n_generators=n_generators, dim=dim, mats=Z, region="ball")


def random_siegel_tuple(rng: np.random.Generator, n_generators: int, dim: int,
                        margin: float = 0.3) -> OperatorTuple:
    return cayley(random_ball_tuple(rng, n_generators, dim, margin))
