"""Matrix-point evaluation: ball and half-space geometry, kernels, CD sums.

Points are tuples of d x d matrices. The row ball is the set with
I - sum Z_k Z_k* positive definite; the half-space is its image under the
Cayley map in the last coordinate,

    W_j = (1 + Z_N)^{-1} Z_j  (j < N),    W_N = i (1 + Z_N)^{-1} (1 - Z_N),

characterized by Im W_N - sum_{k<N} W_k W_k* > 0. Kernel sums of the form
sum_sigma Z_sigma T Z'_sigma* are evaluated by iterating the completely
positive map Phi: T -> sum_k Z_k T Z'_k* and adding its powers until one of
two tail bounds clears the requested tolerance; r, the product of the joint
row norms, bounds ||Phi||. The a-priori bound ||T|| r^{L+1} / (1 - r) is
reported as it stands. The a-posteriori bound r ||Phi^L(T)||_F / (1 - r),
read off the last term added, stops the sum once it is below both the
tolerance and the rounding level eps ||S_L||_F of the sum, and the tolerance
is reported. Everything downstream (Szego kernels in both pictures,
reproduction identities, Christoffel-Darboux) reduces to such sandwiches.

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
from .functional import MomentFunctional, gram
from .orthopoly import OrthoBasis, _phi_table
from .recurrence import RecurrenceCoeffs
from .words import Word, global_index, level_offsets, words_up_to

SANDWICH_CAP = 64


@dataclass
class OperatorTuple:
    """A tuple (Z_1, ..., Z_N) of square matrices of a common size."""

    n_generators: int
    dim: int
    mats: np.ndarray
    region: str = "unchecked"

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=complex)
        if self.mats.shape != (self.n_generators, self.dim, self.dim):
            raise ValidationError(
                f"expected {self.n_generators} matrices of size {self.dim}, "
                f"got array of shape {self.mats.shape}")
        if self.region not in ("ball", "siegel", "unchecked"):
            raise ValidationError(f"unknown region tag {self.region!r}")


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


def membership(t: OperatorTuple, which: str, tol: float = 1e-8) -> MembershipResult:
    lam = float(np.linalg.eigvalsh(defect(t, which))[0])
    return MembershipResult(inside=lam > tol, lambda_min=lam, which=which)


def require_membership(t: OperatorTuple, which: str, tol: float = 1e-8) -> None:
    res = membership(t, which, tol)
    if not res.inside:
        raise _outside(which, res.lambda_min)


def _outside(which: str, lam: float) -> MembershipError:
    return MembershipError(f"tuple is not strictly inside the {which} region "
                           f"(lambda_min = {lam:.6g})")


def cayley(t: OperatorTuple, tol: float = 1e-8) -> OperatorTuple:
    """Ball tuple to half-space tuple; the last coordinate absorbs the i."""
    require_membership(t, "ball", tol)
    N, d = t.n_generators, t.dim
    eye = np.eye(d)
    A = eye + t.mats[-1]
    out = np.empty_like(t.mats)
    for k in range(N - 1):
        out[k] = np.linalg.solve(A, t.mats[k])
    out[N - 1] = 1j * np.linalg.solve(A, eye - t.mats[-1])
    return OperatorTuple(n_generators=N, dim=d, mats=out, region="siegel")


def cayley_inverse(t: OperatorTuple, tol: float = 1e-8) -> OperatorTuple:
    require_membership(t, "siegel", tol)
    N, d = t.n_generators, t.dim
    eye = np.eye(d)
    A = 1j * eye + t.mats[-1]
    out = np.empty_like(t.mats)
    for k in range(N - 1):
        out[k] = 2j * np.linalg.solve(A, t.mats[k])
    out[N - 1] = np.linalg.solve(A, 1j * eye - t.mats[-1])
    return OperatorTuple(n_generators=N, dim=d, mats=out, region="ball")


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
                  tol: float = 1e-9, cap: int = SANDWICH_CAP) -> KernelResult:
    """sum over all words sigma of Z_sigma T Z'_sigma*, truncated rigorously.

    ``mats`` holds N >= 1 square d x d matrices, ``mats2`` N square d2 x d2
    ones and T is d x d2; any other shapes raise ValidationError.

    With r the product of the block-row operator norms of the two tuples,
    ||Phi(X)|| <= r ||X|| for Phi(X) = sum_k Z_k X Z'_k*, so after the terms
    Phi^0(T), ..., Phi^L(T) the rest of the series has spectral norm at most

    * prior_L = ||T|| r^{L+1} / (1 - r), and at most
    * post_L = r ||Phi^L(T)||_F / (1 - r).

    The sum stops at the first L where prior_L <= tol, reporting prior_L as
    ``tail_bound``, or where post_L <= min(tol, eps ||S_L||_F), reporting
    tol: the truncation then lies below the tolerance and below the rounding
    of the partial sum S_L itself. Raises once the open ball condition
    r < 1 fails or neither rule holds within ``cap`` levels.
    """
    mats = np.asarray(mats, dtype=complex)
    mats2 = np.asarray(mats2, dtype=complex)
    T = np.asarray(T, dtype=complex)
    if (mats.ndim != 3 or mats2.ndim != 3 or not len(mats) or len(mats) != len(mats2)
            or mats.shape[1] != mats.shape[2] or mats2.shape[1] != mats2.shape[2]
            or T.shape != (mats.shape[1], mats2.shape[1])):
        raise ValidationError(
            f"ball_sandwich needs N >= 1 d x d matrices, N d2 x d2 matrices and a "
            f"d x d2 middle; got shapes {mats.shape}, {mats2.shape} and {T.shape}")
    return _sandwich(mats, mats2, T, _row_norm(mats) * _row_norm(mats2), tol, cap)


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
              tol: float, cap: int) -> KernelResult:
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
        if L >= cap:
            raise ConvergenceError(
                f"tail bound needs more than {cap} levels at r = {r:.4g}, "
                f"tol = {tol:.2g}")
        term = phi(term)
        total += term
        L += 1


def _check_compatible(t: OperatorTuple, t2: OperatorTuple) -> None:
    if t.n_generators != t2.n_generators or t.dim != t2.dim:
        raise ValidationError("operator tuples must share generator count and size")


def szego_ball(t: OperatorTuple, t2: OperatorTuple, tol: float = 1e-9,
               cap: int = SANDWICH_CAP) -> KernelResult:
    """K(Z, Z') = sum_sigma Z_sigma Z'_sigma* for two ball points."""
    _check_compatible(t, t2)
    r = _ball_row_norm(t) * _ball_row_norm(t2)
    return _sandwich(t.mats, t2.mats, np.eye(t.dim, dtype=complex), r, tol, cap)


def _ball_row_norm(t: OperatorTuple, tol: float = 1e-8) -> float:
    """The block-row norm of a point, which must lie in the ball.

    One eigenvalue p = lambda_max(sum Z_k Z_k*) gives both: the point is
    inside when 1 - p, the least eigenvalue of its ball defect, exceeds tol,
    and the norm is sqrt(p). p is taken directly, not as 1 minus the
    defect's eigenvalue, which would lose it to cancellation near the origin.
    """
    p = _row_norm_sq(t.mats)
    if not 1.0 - p > tol:
        raise _outside("ball", 1.0 - p)
    return float(np.sqrt(max(0.0, p)))


def _right_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # X with X A = B
    return np.linalg.solve(A.T, B.T).T


def _siegel_middle(t: OperatorTuple, t2: OperatorTuple, S: np.ndarray) -> np.ndarray:
    eye = np.eye(t.dim)
    X = np.linalg.solve(1j * eye + t.mats[-1], S)
    return _right_solve((1j * eye + t2.mats[-1]).conj().T, X)


def f_sandwich(t: OperatorTuple, t2: OperatorTuple, S: np.ndarray,
               tol: float = 1e-9, cap: int = SANDWICH_CAP) -> KernelResult:
    """Half-space counterpart of the sandwich sum.

    F(W, W')[S] = 4 sum_sigma Z_sigma (i + W_N)^{-1} S (i + W'_N)^{-*}
    Z'_sigma* with Z, Z' the Cayley preimages. Linear in S, and inverse to
    S(T) = (W_N T - T W'_N*)/(2i) - sum_{k<N} W_k T W'_k*.
    """
    _check_compatible(t, t2)
    Z = cayley_inverse(t)
    Z2 = cayley_inverse(t2)
    M = _siegel_middle(t, t2, np.asarray(S, dtype=complex))
    res = ball_sandwich(Z.mats, Z2.mats, M, tol / 4.0, cap)
    return KernelResult(value=4.0 * res.value,
                        truncation_length=res.truncation_length,
                        tail_bound=4.0 * res.tail_bound)


def szego_siegel(t: OperatorTuple, t2: OperatorTuple, tol: float = 1e-9,
                 cap: int = SANDWICH_CAP) -> KernelResult:
    """K(W, W') = F(W, W')[I] for two half-space points."""
    return f_sandwich(t, t2, np.eye(t.dim), tol, cap)


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
                       tol: float = 1e-9, cap: int = SANDWICH_CAP) -> ReproductionResult:
    """Feed T through the defining map and recover it through the kernel sum.

    In the ball the sandwich sum inverts T -> T - sum_k Z_k T Z'_k*; in the
    half-space f_sandwich inverts the map S(T) documented there. The returned
    residual is the max-abs gap between the recovered matrix and T.
    """
    _check_compatible(t, t2)
    T = np.asarray(T, dtype=complex)
    region = _resolve_region(t)
    if _resolve_region(t2) != region:
        raise ValidationError("points lie in different regions")
    if region == "ball":
        mid = T - _kernel_map(t.mats, t2.mats)(T)
        out = ball_sandwich(t.mats, t2.mats, mid, tol, cap)
    else:
        S = (t.mats[-1] @ T - T @ t2.mats[-1].conj().T) / 2j \
            - _kernel_map(t.mats[:-1], t2.mats[:-1])(T)
        out = f_sandwich(t, t2, S, tol, cap)
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
    N = n_generators if n_generators is not None else max(sigma.letters)
    if max(sigma.letters) > N:
        raise ValidationError("word uses a letter beyond n_generators")
    d = 2 * k * unit_dim
    eye_u = np.eye(unit_dim)

    def unit(i: int, j: int) -> np.ndarray:
        # E_{ij} in 1-based indexing, inflated by the unit block
        E = np.zeros((2 * k, 2 * k))
        E[i - 1, j - 1] = 1.0
        return np.kron(E, eye_u)

    letters = sigma.letters
    out = []
    for p in range(1, k + 1):
        mats = np.zeros((N, d, d), dtype=complex)
        for s in range(1, N + 1):
            rows = [l for l in range(1, k + 1) if letters[k - l] == s]
            star = sum((unit(r + p - 1, r + p) for r in rows),
                       np.zeros((d, d), dtype=complex))
            mats[s - 1] = (star / np.sqrt(2.0)).conj().T
        out.append(OperatorTuple(n_generators=N, dim=d, mats=mats, region="ball"))
    for p in range(k + 1, 2 * k + 1):
        mats = np.zeros((N, d, d), dtype=complex)
        for s in range(1, N + 1):
            rows = [l for l in range(1, k + 1) if letters[l - 1] == s]
            star = sum((unit(r + p - k, r + p - k - 1) for r in rows),
                       np.zeros((d, d), dtype=complex))
            mats[s - 1] = (star / np.sqrt(2.0)).conj().T
        out.append(OperatorTuple(n_generators=N, dim=d, mats=mats, region="ball"))
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
                  t: OperatorTuple, t2: OperatorTuple, tol: float = 1e-9,
                  cap: int = SANDWICH_CAP) -> CDFullResult:
    """Recover K_n from the half-space kernel transform of its bracket data.

    K_n(W, W') = F(W, W')[bracket/(2i) - sum_{k<N} W_k K_n W'_k*], the
    finite-level Christoffel-Darboux identity, summed as one kernel sum since
    F is linear in its argument. Residual is max-abs.

    Membership of both points is tested once, by ``f_sandwich`` taking them
    back to the ball, so a point outside the half-space raises
    MembershipError only after K_n and the bracket are built; mismatched
    tuples or recurrence blocks raise ValidationError before it.
    """
    K, bracket = _cd_terms(basis, coeffs, n, t, t2)
    S = bracket / 2j - _kernel_map(t.mats[:-1], t2.mats[:-1])(K)
    out = f_sandwich(t, t2, S, tol, cap)
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
    A = rng.standard_normal((n_generators, dim, dim)) \
        + 1j * rng.standard_normal((n_generators, dim, dim))
    M = sum(A[k] @ A[k].conj().T for k in range(n_generators))
    top = float(np.linalg.eigvalsh(M)[-1])
    Z = A * np.sqrt((1.0 - margin) / top)
    return OperatorTuple(n_generators=n_generators, dim=dim, mats=Z, region="ball")


def random_siegel_tuple(rng: np.random.Generator, n_generators: int, dim: int,
                        margin: float = 0.3) -> OperatorTuple:
    return cayley(random_ball_tuple(rng, n_generators, dim, margin))
