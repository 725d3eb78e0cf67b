import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly import opeval
from ncpoly.errors import ConvergenceError, MembershipError, ValidationError
from ncpoly.functional import from_representation
from ncpoly.opeval import (SANDWICH_CAP, OperatorTuple, _cd_bracket, ball_sandwich,
                           cayley, cayley_inverse, cd_full_check, cd_inner_identity, cd_kernel,
                           evaluate_all, f_sandwich, membership,
                           random_ball_tuple, random_siegel_tuple,
                           reproducing_residual, reproduction_check,
                           separating_tuples, szego_ball, szego_siegel)
from ncpoly.orthopoly import OrthoBasis, evaluate, orthogonalize, word_product
from ncpoly.recurrence import extract
from ncpoly.words import EMPTY, Word, enumerate_level, words_up_to

from test_functional import count_linalg, random_representation
from test_orthopoly import random_toeplitz


def rep_setup(seed=50, levels=3):
    rng = np.random.default_rng(seed)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=2 * levels)
    basis = orthogonalize(f, levels)
    coeffs = extract(f, basis, levels)
    return rng, f, basis, coeffs


def test_membership_ball():
    Z = OperatorTuple(n_generators=2, dim=2,
                      mats=np.zeros((2, 2, 2)), region="unchecked")
    res = membership(Z, "ball")
    assert res.inside
    assert abs(res.lambda_min - 1.0) < 1e-14


def test_membership_rejects_boundary():
    mats = np.zeros((1, 2, 2), dtype=complex)
    mats[0] = np.eye(2)
    t = OperatorTuple(n_generators=1, dim=2, mats=mats)
    assert not membership(t, "ball").inside


def test_membership_siegel():
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[1] = 1j * np.eye(2)
    t = OperatorTuple(n_generators=2, dim=2, mats=mats)
    res = membership(t, "siegel")
    assert res.inside
    assert abs(res.lambda_min - 1.0) < 1e-14


def test_cayley_of_zero_is_i_unit():
    Z = OperatorTuple(n_generators=3, dim=2, mats=np.zeros((3, 2, 2)))
    W = cayley(Z)
    assert np.max(np.abs(W.mats[0])) == 0.0
    assert np.max(np.abs(W.mats[1])) == 0.0
    assert np.max(np.abs(W.mats[2] - 1j * np.eye(2))) == 0.0


def test_cayley_roundtrip_random_points():
    rng = np.random.default_rng(51)
    for _ in range(25):
        N = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        Z = random_ball_tuple(rng, N, d, margin=float(rng.uniform(0.2, 0.7)))
        W = cayley(Z)
        assert membership(W, "siegel").inside
        back = cayley_inverse(W)
        assert np.max(np.abs(back.mats - Z.mats)) < 1e-10
        assert membership(back, "ball").inside


def test_cayley_requires_ball_membership():
    mats = np.zeros((1, 2, 2), dtype=complex)
    mats[0] = 2.0 * np.eye(2)
    with pytest.raises(MembershipError):
        cayley(OperatorTuple(n_generators=1, dim=2, mats=mats))


def test_ball_sandwich_matches_brute_force():
    # strongly contracted points keep the truncation short enough to
    # enumerate every word directly
    rng = np.random.default_rng(52)
    Z = random_ball_tuple(rng, 2, 3, margin=0.97)
    Z2 = random_ball_tuple(rng, 2, 3, margin=0.97)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    res = ball_sandwich(Z.mats, Z2.mats, T, tol=1e-12)
    assert res.truncation_length <= 12
    brute = np.zeros((3, 3), dtype=complex)
    for w in words_up_to(res.truncation_length, 2):
        brute += word_product(Z.mats, w, {}) @ T \
            @ word_product(Z2.mats, w, {}).conj().T
    assert np.max(np.abs(res.value - brute)) < 1e-9


def test_ball_sandwich_tail_bound_is_honest():
    rng = np.random.default_rng(53)
    Z = random_ball_tuple(rng, 2, 3, margin=0.5)
    T = np.eye(3)
    coarse = ball_sandwich(Z.mats, Z.mats, T, tol=1e-4)
    fine = ball_sandwich(Z.mats, Z.mats, T, tol=1e-12)
    assert np.max(np.abs(coarse.value - fine.value)) <= coarse.tail_bound + 1e-12
    assert coarse.truncation_length < fine.truncation_length


def test_ball_sandwich_diverges_outside():
    mats = np.zeros((1, 2, 2), dtype=complex)
    mats[0] = 1.5 * np.eye(2)
    with pytest.raises(ConvergenceError):
        ball_sandwich(mats, mats, np.eye(2))


def test_ball_sandwich_respects_cap():
    mats = np.zeros((1, 1, 1), dtype=complex)
    mats[0] = 0.999
    with pytest.raises(ConvergenceError):
        ball_sandwich(mats, mats, np.eye(1), tol=1e-12, cap=64)


def prior_length(mats, mats2, T, tol):
    """The smallest L with ||T|| r^{L+1} / (1 - r) <= tol, with no cap."""
    r = np.linalg.norm(np.hstack(list(mats)), 2) * np.linalg.norm(np.hstack(list(mats2)), 2)
    normT = np.linalg.norm(T, 2)
    L = 0
    while normT * r ** (L + 1) / (1.0 - r) > tol:
        L += 1
    return L


def prior_sum(mats, mats2, T, levels):
    total, term = T.copy(), T
    for _ in range(levels):
        term = sum(mats[k] @ term @ mats2[k].conj().T for k in range(len(mats)))
        total = total + term
    return total


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_gen=st.integers(1, 3), dim=st.integers(1, 8),
       margin=st.floats(0.05, 0.9), same=st.booleans(), log_tol=st.floats(-12, -4))
def test_ball_sandwich_value_within_tail_bound_of_converged_sum(seed, n_gen, dim, margin,
                                                                same, log_tol):
    rng = np.random.default_rng(seed)
    Z = random_ball_tuple(rng, n_gen, dim, margin).mats
    Z2 = Z if same else random_ball_tuple(rng, n_gen, dim, margin).mats
    T = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    tol = 10.0 ** log_tol
    ref = prior_sum(Z, Z2, T, prior_length(Z, Z2, T, 1e-16 * np.linalg.norm(T, 2)))
    levels = prior_length(Z, Z2, T, tol)
    # the a-priori length as cap: the sum may stop earlier, never later
    res = ball_sandwich(Z, Z2, T, tol=tol, cap=levels)
    assert res.truncation_length <= levels
    assert res.tail_bound <= tol
    gap = np.linalg.norm(res.value - ref, 2)
    assert gap <= res.tail_bound + 1e-14 * np.linalg.norm(ref, 2)


def test_sandwich_a_priori_rule_fires_where_the_lower_bound_is_tight():
    # T = c I or c Q with Q unitary has ||T||_2 = ||T||_F / sqrt(d), so the
    # lower bound that defers the 2-norm is tight; with tol the eager a-priori
    # bound at L = 3 itself, the sum must still stop there with that bound
    rng = np.random.default_rng(76)
    r = 0.25
    for d in (2, 3, 5, 7):
        mats = np.zeros((2, d, d), dtype=complex)
        mats[0] = 0.5 * np.eye(d)
        for c in rng.uniform(0.1, 10.0, 25):
            Q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            for T in (c * np.eye(d, dtype=complex), c * Q):
                tol = float(np.linalg.norm(T, 2)) * r ** 4 / (1.0 - r)
                res = opeval._sandwich(mats, mats, T, r, tol, SANDWICH_CAP)
                assert (res.truncation_length, res.tail_bound) == (3, tol)


def test_sandwich_stopped_a_posteriori_takes_no_two_norm(monkeypatch):
    # a nilpotent point: the terms vanish after length 2, long before the
    # a-priori bound for a large T falls below tol
    Z = np.zeros((2, 3, 3), dtype=complex)
    Z[0, 0, 1], Z[1, 1, 2] = 0.5, 0.4
    T = 1e3 * np.eye(3)
    calls = count_linalg(monkeypatch, "norm", "svd")
    res = ball_sandwich(Z, Z, T, tol=1e-9)
    assert calls == []
    assert (res.truncation_length, res.tail_bound) == (3, 1e-9)
    assert np.array_equal(res.value, prior_sum(Z, Z, T, 3))


def phi_reference(mats, mats2, X):
    """sum_k Z_k X Z'_k*, one generator at a time."""
    return sum((mats[k] @ X @ mats2[k].conj().T for k in range(len(mats))),
               np.zeros((mats.shape[1], mats2.shape[1]), dtype=complex))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_gen=st.integers(0, 3), d=st.integers(1, 7),
       d2=st.integers(1, 7))
@example(seed=1, n_gen=3, d=2, d2=5)
@example(seed=2, n_gen=1, d=6, d2=3)
def test_kernel_map_matches_the_per_generator_sum(seed, n_gen, d, d2):
    # n_gen = 0 is the empty tuple W_1..W_{N-1} of a one-generator half-space point
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((n_gen, d, d)) + 1j * rng.standard_normal((n_gen, d, d))
    mats2 = rng.standard_normal((n_gen, d2, d2)) + 1j * rng.standard_normal((n_gen, d2, d2))
    phi = opeval._kernel_map(mats, mats2)
    for _ in range(3):    # the buffer is reused from call to call
        X = rng.standard_normal((d, d2)) + 1j * rng.standard_normal((d, d2))
        ref = phi_reference(mats, mats2, X)
        out = phi(X)
        assert out.shape == (d, d2)
        scale = sum(np.linalg.norm(m, 2) * np.linalg.norm(m2, 2)
                    for m, m2 in zip(mats, mats2)) * np.linalg.norm(X, 2)
        assert np.max(np.abs(out - ref)) <= 1e-14 * max(scale, 1.0)


def row_norm(mats):
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(
        sum(m @ m.conj().T for m in mats))[-1])))


def series_reference(mats, mats2, T, tol, cap=SANDWICH_CAP):
    """(value, truncation_length, tail_bound) by the two stop rules of the sum."""
    r = row_norm(mats) * row_norm(mats2)
    normT = np.linalg.norm(T, 2)
    eps = np.finfo(float).eps
    total, term = T.copy(), T
    for L in range(cap + 1):
        prior = normT * r ** (L + 1) / (1.0 - r)
        if prior <= tol:
            return total, L, prior
        post = r * np.linalg.norm(term) / (1.0 - r)
        if post <= min(tol, eps * np.linalg.norm(total)):
            return total, L, tol
        term = phi_reference(mats, mats2, term)
        total = total + term
    raise AssertionError("no stop rule fired within the cap")


def half_space_reference(W, W2, S, tol):
    """4 sum_sigma Z_sigma (i + W_N)^-1 S (i + W'_N)^-* Z'_sigma* in ball coordinates."""
    Z, Z2 = cayley_inverse(W).mats, cayley_inverse(W2).mats
    value, L, tail = series_reference(Z, Z2, opeval._siegel_middle(W, W2, S), tol / 4.0)
    return 4.0 * value, L, 4.0 * tail


def assert_same_sum(res, value, L, tail):
    assert res.truncation_length == L
    assert res.tail_bound == pytest.approx(tail, rel=1e-12)
    assert np.max(np.abs(res.value - value)) <= 1e-13 * np.max(np.abs(value))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_entry_points_match_the_reference_series(seed):
    rng = np.random.default_rng(seed)
    d, tol = 12, 1e-10
    Z = random_ball_tuple(rng, 2, d, margin=0.3)
    Z2 = random_ball_tuple(rng, 2, d, margin=0.3)
    W, W2 = random_siegel_tuple(rng, 2, d, margin=0.3), random_siegel_tuple(rng, 2, d, margin=0.3)
    T = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    eye = np.eye(d, dtype=complex)

    assert_same_sum(ball_sandwich(Z.mats, Z2.mats, T, tol),
                    *series_reference(Z.mats, Z2.mats, T, tol))
    assert_same_sum(szego_ball(Z, Z2, tol), *series_reference(Z.mats, Z2.mats, eye, tol))
    # scaled unitaries: every term shrinks by exactly r, so the a-priori rule stops the sum
    U, U2 = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
             for _ in range(2))
    res = ball_sandwich([0.5 * U], [0.5 * U2], T, tol)
    assert res.tail_bound < tol
    assert_same_sum(res, *series_reference(np.array([0.5 * U]), np.array([0.5 * U2]), T, tol))
    assert_same_sum(szego_siegel(W, W2, tol), *half_space_reference(W, W2, eye, tol))

    res = reproduction_check(Z, Z2, T, tol)
    value, L, tail = series_reference(Z.mats, Z2.mats, T - phi_reference(Z.mats, Z2.mats, T), tol)
    assert (res.truncation_length, res.tail_bound) == (L, pytest.approx(tail, rel=1e-12))
    assert abs(res.residual - np.max(np.abs(value - T))) <= 1e-13 * np.max(np.abs(T))
    res = reproduction_check(W, W2, T, tol)
    S = (W.mats[-1] @ T - T @ W2.mats[-1].conj().T) / 2j \
        - phi_reference(W.mats[:-1], W2.mats[:-1], T)
    value, L, tail = half_space_reference(W, W2, S, tol)
    assert (res.truncation_length, res.tail_bound) == (L, pytest.approx(tail, rel=1e-12))
    assert abs(res.residual - np.max(np.abs(value - T))) <= 1e-13 * np.max(np.abs(T))

    _, _, basis, coeffs = rep_setup(seed=50 + seed)
    t, t2 = random_siegel_tuple(rng, 2, 4, margin=0.3), random_siegel_tuple(rng, 2, 4, margin=0.3)
    res = cd_full_check(basis, coeffs, 2, t, t2, tol)
    K, bracket = opeval._cd_terms(basis, coeffs, 2, t, t2)
    S = bracket / 2j - phi_reference(t.mats[:-1], t2.mats[:-1], K)
    value, L, tail = half_space_reference(t, t2, S, tol)
    assert (res.truncation_length, res.tail_bound) == (L, pytest.approx(tail, rel=1e-12))
    assert abs(res.residual - np.max(np.abs(K - value))) <= 1e-13 * np.max(np.abs(K))


def test_ball_sandwich_takes_a_rectangular_middle():
    rng = np.random.default_rng(77)
    Z = random_ball_tuple(rng, 2, 5, margin=0.4).mats
    Z2 = random_ball_tuple(rng, 2, 3, margin=0.4).mats
    T = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert_same_sum(ball_sandwich(Z, Z2, T, 1e-10), *series_reference(Z, Z2, T, 1e-10))


def test_ball_sandwich_refuses_mismatched_shapes():
    rng = np.random.default_rng(78)
    Z = random_ball_tuple(rng, 2, 3, margin=0.4).mats
    Z3 = random_ball_tuple(rng, 3, 3, margin=0.4).mats
    eye = np.eye(3)
    # a longer second tuple would lose its extra generators; a shorter one ran off the end
    with pytest.raises(ValidationError, match=r"\(2, 3, 3\), \(3, 3, 3\) and \(3, 3\)"):
        ball_sandwich(Z, Z3, eye)
    with pytest.raises(ValidationError, match=r"\(3, 3, 3\), \(2, 3, 3\) and \(3, 3\)"):
        ball_sandwich(Z3, Z, eye)
    with pytest.raises(ValidationError, match=r"\(2, 3, 3\), \(2, 3, 3\) and \(3, 2\)"):
        ball_sandwich(Z, Z, eye[:, :2])
    for mats, mats2 in ((Z[:, :, :2], Z), (Z, Z[0]), (Z[:0], Z[:0])):
        with pytest.raises(ValidationError, match="got shapes"):
            ball_sandwich(mats, mats2, eye)


def test_szego_ball_fast_decay_returns_under_cap():
    # r = 0.9 asks for about 240 levels a priori, past the cap of 64; the
    # terms of a distinct pair at d = 32 decay far faster than r
    rng = np.random.default_rng(63)
    Z = random_ball_tuple(rng, 2, 32, margin=0.1)
    Z2 = random_ball_tuple(rng, 2, 32, margin=0.1)
    eye = np.eye(32)
    assert prior_length(Z.mats, Z2.mats, eye, 1e-10) > SANDWICH_CAP
    res = szego_ball(Z, Z2, tol=1e-10, cap=SANDWICH_CAP)
    assert res.truncation_length <= SANDWICH_CAP
    K = res.value
    gap = K - eye - sum(Z.mats[k] @ K @ Z2.mats[k].conj().T for k in range(2))
    assert np.linalg.norm(gap, 2) <= 1e-12 * np.linalg.norm(K, 2)


def test_szego_ball_decides_membership_on_the_row_norms(monkeypatch):
    rng = np.random.default_rng(67)
    Z = random_ball_tuple(rng, 2, 8, margin=0.3)
    Z2 = random_ball_tuple(rng, 2, 8, margin=0.3)
    ref = ball_sandwich(Z.mats, Z2.mats, np.eye(8))
    calls = count_linalg(monkeypatch, "eigh", "eigvalsh")
    res = szego_ball(Z, Z2)
    assert calls == ["eigvalsh", "eigvalsh"]
    assert res.truncation_length == ref.truncation_length
    assert res.tail_bound == ref.tail_bound
    assert np.array_equal(res.value, ref.value)
    outside = OperatorTuple(n_generators=2, dim=8, mats=2.0 * Z.mats)
    with pytest.raises(MembershipError):
        szego_ball(outside, Z2)
    with pytest.raises(MembershipError):
        szego_ball(Z, outside)


def test_szego_ball_bound_holds_near_the_origin():
    # r is read off lambda_max(sum Z_k Z_k*) itself: taken as 1 minus the
    # defect's least eigenvalue it would round to 0 here and stop the sum at once
    U = np.linalg.qr(np.random.default_rng(69).normal(size=(3, 3)))[0]
    Z = OperatorTuple(n_generators=1, dim=3, mats=[5e-9 * np.eye(3)])
    Z2 = OperatorTuple(n_generators=1, dim=3, mats=[0.9 * U])
    res = szego_ball(Z, Z2)
    exact = np.linalg.inv(np.eye(3) - 4.5e-9 * U.T)
    assert res.truncation_length > 0 and res.tail_bound > 0
    # the bound covers the truncation; a few eps cover the rounding of the sum
    assert np.linalg.norm(res.value - exact, 2) <= res.tail_bound + 8 * np.finfo(float).eps
    ref = ball_sandwich(Z.mats, Z2.mats, np.eye(3))
    assert (res.truncation_length, res.tail_bound) == (ref.truncation_length, ref.tail_bound)


def test_szego_ball_functional_equation():
    rng = np.random.default_rng(54)
    Z = random_ball_tuple(rng, 2, 3, margin=0.4)
    Z2 = random_ball_tuple(rng, 2, 3, margin=0.4)
    K = szego_ball(Z, Z2, tol=1e-11).value
    gap = K - sum(Z.mats[k] @ K @ Z2.mats[k].conj().T for k in range(2)) - np.eye(3)
    assert np.max(np.abs(gap)) < 1e-10


def test_szego_scalar_geometric_series():
    z, w = 0.3 + 0.2j, -0.1 + 0.5j
    Z = OperatorTuple(n_generators=1, dim=1, mats=np.array([[[z]]]))
    W = OperatorTuple(n_generators=1, dim=1, mats=np.array([[[w]]]))
    val = szego_ball(Z, W, tol=1e-13).value[0, 0]
    assert abs(val - 1.0 / (1.0 - z * np.conj(w))) < 1e-12


def test_szego_siegel_functional_equation():
    rng = np.random.default_rng(55)
    W = random_siegel_tuple(rng, 2, 3, margin=0.4)
    W2 = random_siegel_tuple(rng, 2, 3, margin=0.4)
    K = szego_siegel(W, W2, tol=1e-11).value
    S = (W.mats[-1] @ K - K @ W2.mats[-1].conj().T) / 2j \
        - W.mats[0] @ K @ W2.mats[0].conj().T
    assert np.max(np.abs(S - np.eye(3))) < 1e-10


def test_szego_siegel_in_ball_coordinates():
    # (i + W_N)^{-1} = (I + Z_N) / 2i at a Cayley image, so the half-space
    # kernel is the ball sandwich of (I + Z_N)(I + Z'_N)*; the transport
    # factors must ride inside each summand, not outside the sum
    rng = np.random.default_rng(56)
    Z = random_ball_tuple(rng, 2, 2, margin=0.45)
    Z2 = random_ball_tuple(rng, 2, 2, margin=0.45)
    W, W2 = cayley(Z), cayley(Z2)
    KG = szego_siegel(W, W2, tol=1e-12).value
    eye = np.eye(2)
    mid = (eye + Z.mats[-1]) @ (eye + Z2.mats[-1]).conj().T
    ref = ball_sandwich(Z.mats, Z2.mats, mid, tol=1e-12).value
    assert np.max(np.abs(KG - ref)) < 1e-9


def test_reproduction_ball_and_siegel():
    rng = np.random.default_rng(57)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Z = random_ball_tuple(rng, 2, 3, margin=0.35)
    Z2 = random_ball_tuple(rng, 2, 3, margin=0.35)
    res = reproduction_check(Z, Z2, T, tol=1e-9)
    assert res.residual <= res.tail_bound + 1e-12
    assert res.residual < 1e-9
    W = random_siegel_tuple(rng, 2, 3, margin=0.35)
    W2 = random_siegel_tuple(rng, 2, 3, margin=0.35)
    res = reproduction_check(W, W2, T, tol=1e-9)
    assert res.residual <= res.tail_bound + 1e-12
    assert res.residual < 1e-9


def test_reproduction_rejects_mixed_regions():
    rng = np.random.default_rng(58)
    Z = random_ball_tuple(rng, 2, 2, margin=0.4)
    W = random_siegel_tuple(rng, 2, 2, margin=0.4)
    with pytest.raises(ValidationError):
        reproduction_check(Z, W, np.eye(2))


def test_separating_tuples_shapes_and_membership():
    sigma = Word((1, 2))
    tuples = separating_tuples(sigma, unit_dim=1, n_generators=2)
    assert len(tuples) == 4
    for t in tuples:
        assert t.dim == 4
        lam = membership(t, "ball").lambda_min
        assert abs(lam - 0.5) < 1e-12


def test_separating_tuples_hit_their_units():
    sigma = Word((2, 1, 1))
    k = len(sigma)
    scale = 2.0 ** (-k / 2)
    for p, t in enumerate(separating_tuples(sigma, n_generators=2), start=1):
        star = word_product(t.mats, sigma, {}).conj().T
        target = np.zeros((2 * k, 2 * k))
        if p <= k:
            target[p - 1, k + p - 1] = scale
        else:
            target[p - 1, p - k - 1] = scale
        assert np.max(np.abs(star - target)) < 1e-14


def test_separating_tuples_kill_other_words():
    sigma = Word((1, 2))
    k = len(sigma)
    for p, t in enumerate(separating_tuples(sigma, n_generators=2), start=1):
        col = k + p - 1 if p <= k else p - k - 1
        for tau in enumerate_level(k, 2):
            if tau == sigma:
                continue
            star = word_product(t.mats, tau, {}).conj().T
            assert star[p - 1, col] == 0.0


def test_separating_tuples_unit_dim_inflation():
    sigma = Word((1,))
    tuples = separating_tuples(sigma, unit_dim=3, n_generators=2)
    assert all(t.dim == 6 for t in tuples)
    star = word_product(tuples[0].mats, sigma, {}).conj().T
    assert np.max(np.abs(star[0:3, 3:6] - np.eye(3) / np.sqrt(2))) < 1e-14


def test_separating_needs_nonempty_word():
    with pytest.raises(ValidationError):
        separating_tuples(EMPTY)


def test_cd_kernel_matches_direct_sum():
    _, f, basis, coeffs = rep_setup()
    rng = np.random.default_rng(59)
    t = random_siegel_tuple(rng, 2, 2, margin=0.4)
    t2 = random_siegel_tuple(rng, 2, 2, margin=0.4)
    K = cd_kernel(basis, 2, t, t2)
    phis = evaluate_all(basis, 2, t)
    phis2 = evaluate_all(basis, 2, t2)
    direct = sum(phis[w] @ phis2[w].conj().T for w in words_up_to(2, 2))
    assert np.max(np.abs(K - direct)) == 0.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_gen=st.integers(1, 3), level=st.integers(0, 3),
       dim=st.integers(1, 3), constructed=st.booleans())
def test_evaluators_match_word_product_reference(seed, n_gen, level, dim, constructed):
    rng = np.random.default_rng(seed)
    ws = words_up_to(level, n_gen)
    if constructed:
        # Word-keyed rows through the constructor, with some entries left out
        rows = {s: {t: complex(rng.standard_normal(), rng.standard_normal())
                    for t in ws[:i + 1] if t == s or rng.random() < 0.7}
                for i, s in enumerate(ws)}
        basis = OrthoBasis(n_generators=n_gen, level=level, coeffs=rows)
    else:
        basis = orthogonalize(random_toeplitz(rng, n_gen, level, scale=0.03), level)
    mats = rng.standard_normal((n_gen, dim, dim)) + 1j * rng.standard_normal((n_gen, dim, dim))
    t = OperatorTuple(n_generators=n_gen, dim=dim, mats=mats)
    phis = evaluate_all(basis, level, t)
    assert list(phis) == ws
    # each side rounds a product Z_tau by <= 9 eps r^|tau| and a sum of <= 40
    # terms by <= 40 eps, so the two differ by at most 2 * 49 eps * scale
    r = max(np.linalg.norm(m) for m in mats)
    bound = 128 * np.finfo(float).eps
    for s in ws:
        row = basis.coeffs[s]
        ref = sum(a * word_product(mats, tau, {}) for tau, a in row.items())
        scale = sum(abs(a) * r ** len(tau) for tau, a in row.items())
        assert np.max(np.abs(phis[s] - ref)) <= bound * scale
        assert np.max(np.abs(evaluate(basis, s, t) - ref)) <= bound * scale


def test_cd_inner_identity_holds_at_arbitrary_points():
    _, f, basis, coeffs = rep_setup()
    rng = np.random.default_rng(60)
    # algebraic identity: no membership needed, any square tuples work
    for _ in range(5):
        mats = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        t = OperatorTuple(n_generators=2, dim=3, mats=mats)
        mats2 = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        t2 = OperatorTuple(n_generators=2, dim=3, mats=mats2)
        assert cd_inner_identity(basis, coeffs, 2, t, t2) < 1e-8


def test_cd_full_check_residual_under_tail():
    _, f, basis, coeffs = rep_setup()
    rng = np.random.default_rng(61)
    t = random_siegel_tuple(rng, 2, 2, margin=0.4)
    t2 = random_siegel_tuple(rng, 2, 2, margin=0.4)
    res = cd_full_check(basis, coeffs, 2, t, t2, tol=1e-8)
    assert res.residual <= res.tail_bound + 1e-12


def test_cd_full_check_tests_each_membership_once(monkeypatch):
    _, f, basis, coeffs = rep_setup()
    rng = np.random.default_rng(68)
    t = random_siegel_tuple(rng, 2, 2, margin=0.4)
    t2 = random_siegel_tuple(rng, 2, 2, margin=0.4)
    calls = count_linalg(monkeypatch, "eigh", "eigvalsh")
    cd_full_check(basis, coeffs, 2, t, t2)
    # one membership test per point in cayley_inverse, one row norm per image
    assert calls == ["eigvalsh"] * 4
    # W_N* has the opposite imaginary part, so this point lies outside
    mats = t.mats.copy()
    mats[-1] = mats[-1].conj().T
    outside = OperatorTuple(n_generators=2, dim=2, mats=mats)
    assert not membership(outside, "siegel").inside
    with pytest.raises(MembershipError):
        cd_full_check(basis, coeffs, 2, outside, t2)
    with pytest.raises(MembershipError):
        cd_full_check(basis, coeffs, 2, t, outside)
    # the blocks are checked while K_n is built, before f_sandwich tests membership
    with pytest.raises(ValidationError, match="need recurrence blocks"):
        cd_full_check(basis, coeffs, 3, outside, t2)


def test_cd_checks_refuse_blocks_for_another_generator_count():
    _, _, _, coeffs2 = rep_setup()
    rng = np.random.default_rng(65)
    mats, v = random_representation(rng, 3, 20)
    basis3 = orthogonalize(from_representation(mats, v, max_degree=4), 2)
    t = random_siegel_tuple(rng, 3, 2, margin=0.4)
    t2 = random_siegel_tuple(rng, 3, 2, margin=0.4)
    with pytest.raises(ValidationError, match="2 generators, basis for 3"):
        cd_inner_identity(basis3, coeffs2, 1, t, t2)
    with pytest.raises(ValidationError, match="2 generators, basis for 3"):
        cd_full_check(basis3, coeffs2, 1, t, t2)


def test_cd_full_check_sums_one_kernel(monkeypatch):
    _, f, basis, coeffs = rep_setup()
    rng = np.random.default_rng(64)
    t = random_siegel_tuple(rng, 2, 2, margin=0.4)
    t2 = random_siegel_tuple(rng, 2, 2, margin=0.4)
    calls = []

    def counted(*args, **kwargs):
        calls.append(f_sandwich(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(opeval, "f_sandwich", counted)
    res = cd_full_check(basis, coeffs, 2, t, t2, tol=1e-10)
    assert len(calls) == 1
    assert res.tail_bound == calls[0].tail_bound
    assert res.truncation_length == calls[0].truncation_length
    # the sum of one kernel call per middle term, by linearity the same
    phis = np.stack(list(evaluate_all(basis, 3, t).values()))
    phis2 = np.stack(list(evaluate_all(basis, 3, t2).values()))
    K = res.kernel
    two = f_sandwich(t, t2, _cd_bracket(coeffs, 2, phis, phis2) / 2j,
                     tol=1e-10).value
    two = two - f_sandwich(t, t2, t.mats[0] @ K @ t2.mats[0].conj().T, tol=1e-10).value
    assert np.max(np.abs(calls[0].value - two)) <= 1e-12 * np.max(np.abs(two))


def test_reproducing_residual_vanishes_for_low_degree():
    rng, f, basis, coeffs = rep_setup()
    t = random_siegel_tuple(rng, 2, 2, margin=0.4)
    p = {EMPTY: 0.3 + 0.0j, Word((2,)): -1.0 + 0.5j, Word((1, 1)): 0.25j}
    assert reproducing_residual(f, basis, 2, p, t) < 1e-10


def test_reproducing_residual_rejects_high_degree():
    rng, f, basis, coeffs = rep_setup()
    t = random_siegel_tuple(rng, 2, 2, margin=0.4)
    with pytest.raises(ValidationError):
        reproducing_residual(f, basis, 1, {Word((1, 1)): 1.0}, t)


def test_reproducing_residual_rejects_foreign_letters():
    rng, f, basis, coeffs = rep_setup()
    t = random_siegel_tuple(rng, 2, 2, margin=0.4)
    with pytest.raises(ValidationError, match="word 3 is outside the level-2 span of 2 generators"):
        reproducing_residual(f, basis, 2, {EMPTY: 1.0, Word((3,)): 1.0}, t)


def test_reproducing_residual_on_a_toeplitz_functional():
    rng = np.random.default_rng(66)
    f = random_toeplitz(rng, 2, 3)
    basis = orthogonalize(f, 3)
    t = random_ball_tuple(rng, 2, 3, margin=0.4)
    p = {w: complex(rng.standard_normal(), rng.standard_normal()) for w in words_up_to(3, 2)}
    assert reproducing_residual(f, basis, 3, p, t) < 1e-12


def test_random_tuple_margins():
    rng = np.random.default_rng(62)
    Z = random_ball_tuple(rng, 3, 4, margin=0.25)
    assert abs(membership(Z, "ball").lambda_min - 0.25) < 1e-10
    W = random_siegel_tuple(rng, 2, 3, margin=0.3)
    assert membership(W, "siegel").inside
