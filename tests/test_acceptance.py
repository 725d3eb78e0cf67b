"""Gate suite: twelve end-to-end checks, one printed verdict line each.

Every test drives a full pipeline (moments to basis to recurrence to
operators to kernels) against a hand-computable oracle or an internal
consistency identity at a fixed tolerance, and prints

    ACCEPTANCE nn label: PASS/FAIL (metrics)

before asserting, so the verdict survives output capture either way.
Run with -s to see all twelve lines.
"""

import numpy as np
import pytest

from oracles import fock_moment, gaussian_moments

from ncpoly.functional import (STRICT_TOL, MomentFunctional, from_representation, gram,
                               strict_positivity)
from ncpoly.jacobi import build, hamburger_check, moment
from ncpoly.opeval import (OperatorTuple, cayley, cayley_inverse, cd_inner_identity,
                           membership, random_ball_tuple, random_siegel_tuple,
                           reproducing_residual, reproduction_check,
                           separating_tuples)
from ncpoly.orthopoly import (determinant_formula, orthogonalize,
                              orthonormality_residual, szego_recursion,
                              word_product)
from ncpoly.recurrence import extract, favard
from ncpoly.words import EMPTY, Word, enumerate_level, words_up_to

from test_functional import random_representation
from test_jacobi import fock_functional
from test_orthopoly import random_toeplitz
from test_recurrence import hankel_n1, scalar_blocks


def verdict(num, label, ok, detail):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def rep16():
    """N=2 moments induced by a random 16-dim Hermitian pair at a unit vector."""
    rng = np.random.default_rng(1)
    mats, v = random_representation(rng, 2, 16)
    f = from_representation(mats, v, max_degree=6)
    basis = orthogonalize(f, 3)
    coeffs = extract(f, basis, 3)
    return f, basis, coeffs


def test_01_orthonormality(rep16):
    f, basis, _ = rep16
    resid = orthonormality_residual(basis, gram(f, 3))
    assert verdict(1, "orthonormality", resid < 1e-9,
                   f"max|AGA*-I| = {resid:.3e}, tol 1e-9")


def test_02_route_equivalence():
    worst = 0.0
    for N in (1, 2, 3):
        rng = np.random.default_rng(10 + N)
        mats, v = random_representation(rng, N, 16)
        f = from_representation(mats, v, max_degree=4)
        basis = orthogonalize(f, 2)
        for sigma in words_up_to(2, N):
            det = determinant_formula(f, sigma)
            chol = basis.coeffs[sigma]
            keys = set(det) | set(chol)
            num = max(abs(det.get(w, 0.0) - chol.get(w, 0.0)) for w in keys)
            den = max(1.0, max(abs(c) for c in chol.values()))
            worst = max(worst, num / den)
    assert verdict(2, "route-equivalence", worst < 1e-8,
                   f"N=1..3, |sigma|<=2, max rel dev = {worst:.3e}, tol 1e-8")


def test_03_hermite_ladder():
    f = hankel_n1([1, 0, 1, 0, 3, 0, 15, 0, 105])
    coeffs = extract(f, orthogonalize(f, 4), 4)
    a_dev = max(abs(coeffs.A[n, 1][0, 0]) for n in range(4))
    b_dev = max(abs(coeffs.B[n, 1][0, 0] - np.sqrt(n + 1)) for n in range(4))
    assert verdict(3, "hermite-ladder", a_dev < 1e-10 and b_dev < 1e-10,
                   f"max|A| = {a_dev:.3e}, max|B-sqrt(n+1)| = {b_dev:.3e}, tol 1e-10")


def test_04_catalan_favard_roundtrips():
    coeffs = scalar_blocks(1, [0, 0, 0, 0], [1, 1, 1, 1])
    basis, f = favard(coeffs)
    mom_dev = max(abs(f.moments[Word((1,) * (2 * m))] - c)
                  for m, c in ((1, 1.0), (2, 2.0), (3, 5.0)))
    back = extract(f, basis, 4)
    coef_dev = max(max(np.max(np.abs(back.A[key] - coeffs.A[key])),
                       np.max(np.abs(back.B[key] - coeffs.B[key])))
                   for key in coeffs.A)
    f_cat = hankel_n1([1, 0, 1, 0, 2, 0, 5])
    _, f2 = favard(extract(f_cat, orthogonalize(f_cat, 3), 3))
    mom_back = max(abs(f2.moments[w] - f_cat.moments[w])
                   for w in words_up_to(6, 1))
    ok = mom_dev < 1e-12 and coef_dev < 1e-8 and mom_back < 1e-8
    assert verdict(4, "catalan-favard", ok,
                   f"s2,s4,s6 dev = {mom_dev:.3e} (tol 1e-12), "
                   f"extract(favard) dev = {coef_dev:.3e}, "
                   f"favard(extract) dev = {mom_back:.3e} (tol 1e-8)")


def test_05_free_fock():
    f = fock_functional(2, 6)
    coeffs = extract(f, orthogonalize(f, 3), 3)
    a_dev = max(np.max(np.abs(coeffs.A[n, k]))
                for n in range(3) for k in (1, 2))
    b_dev = 0.0
    for n in range(3):
        for k in (1, 2):
            rows = enumerate_level(n + 1, 2)
            cols = enumerate_level(n, 2)
            want = np.array([[1.0 if r == Word((k,) + c.letters) else 0.0
                              for c in cols] for r in rows])
            b_dev = max(b_dev, float(np.max(np.abs(coeffs.B[n, k] - want))))
    J = build(coeffs, 2)
    m1 = moment(J, Word((1, 1, 2, 2))).value
    m2 = moment(J, Word((1, 2, 1, 2))).value
    ok = (a_dev < 1e-12 and b_dev < 1e-12
          and abs(m1 - 1.0) < 1e-12 and abs(m2) < 1e-12)
    assert verdict(5, "free-fock", ok,
                   f"max|A| = {a_dev:.3e}, creation-block dev = {b_dev:.3e}, "
                   f"s_1122 = {m1.real:.12f}, s_1212 = {m2.real:.3e}, tol 1e-12")


def test_06_jacobi_model_identity(rep16):
    f, _, coeffs = rep16
    J = build(coeffs, 2)
    dev = max(abs(moment(J, w).value - f.moments[w])
              for w in words_up_to(3, 2))
    assert verdict(6, "jacobi-model", dev < 1e-10,
                   f"max dev over |sigma|<=3 = {dev:.3e}, tol 1e-10")


def test_07_hamburger_decisions():
    bad = hamburger_check({EMPTY: 1.0, Word((1,)): 0.0, Word((1, 1)): -1.0},
                          n_generators=1, level=1)
    rejects = (not bad.positive) and bad.certificate is not None

    accepts = True
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        mats, v = random_representation(rng, 2, 12)
        f = from_representation(mats, v, max_degree=4)
        res = hamburger_check(f.moments, 2, 2)
        accepts = accepts and res.positive

    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(50):
        vals = [1.0] + list(rng.standard_normal(4))
        f = MomentFunctional(
            n_generators=1, kind="hankel", max_degree=4,
            moments={EMPTY: complex(vals[0]),
                     **{Word((1,) * n): complex(vals[n]) for n in range(1, 5)}})
        res = hamburger_check(f.moments, 1, 2, tol=STRICT_TOL)
        pos = strict_positivity(f, 2)
        if res.strictly_positive == pos.ok and (not pos.ok or res.positive):
            agree += 1
    ok = rejects and accepts and agree == 50
    assert verdict(7, "hamburger", ok,
                   f"rejects s2=-1 with certificate: {rejects}, "
                   f"accepts representation moments: {accepts}, "
                   f"agreement with strict positivity: {agree}/50")


def test_08_cayley_roundtrip():
    rng = np.random.default_rng(8)
    worst = 0.0
    kept = 0
    for _ in range(100):
        N = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        t = random_ball_tuple(rng, N, d, margin=float(rng.uniform(0.2, 0.8)))
        s = cayley(t)
        if membership(s, "siegel").inside:
            kept += 1
        back = cayley_inverse(s)
        worst = max(worst, float(np.max(np.abs(back.mats - t.mats))))
    zero = OperatorTuple(n_generators=3, dim=2, mats=np.zeros((3, 2, 2)))
    img = cayley(zero)
    exact = (np.array_equal(img.mats[0], np.zeros((2, 2)))
             and np.array_equal(img.mats[1], np.zeros((2, 2)))
             and np.array_equal(img.mats[2], 1j * np.eye(2)))
    ok = worst < 1e-10 and kept == 100 and exact
    assert verdict(8, "cayley", ok,
                   f"max roundtrip dev = {worst:.3e} (tol 1e-10), "
                   f"membership preserved {kept}/100, C(0) = (0,..,0,iI): {exact}")


def test_09_szego_reproduction():
    rng = np.random.default_rng(9)
    worst = 0.0
    bounded = True
    for i in range(20):
        region = "ball" if i < 10 else "siegel"
        d = int(rng.integers(2, 4))
        margin = float(rng.uniform(0.25, 0.6))
        make = random_ball_tuple if region == "ball" else random_siegel_tuple
        t = make(rng, 2, d, margin=margin)
        t2 = make(rng, 2, d, margin=margin)
        T = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rep = reproduction_check(t, t2, T, tol=1e-6)
        worst = max(worst, rep.residual)
        bounded = bounded and rep.residual <= rep.tail_bound
    ok = bounded and worst < 1e-6
    assert verdict(9, "szego-reproduction", ok,
                   f"20 pairs, margins >= 0.25: max residual = {worst:.3e} "
                   f"(tol 1e-6), all below reported tail bound: {bounded}")


def test_10_separating_tuples():
    target_dev = 0.0
    offword_max = 0.0
    lam_dev = 0.0
    ranks_full = True
    for text in ("1", "1.2", "2.1.1"):
        sigma = Word.parse(text)
        k = len(sigma)
        scale = 2.0 ** (-k / 2.0)
        rows = []
        for p, t in enumerate(separating_tuples(sigma, n_generators=2), start=1):
            lam = membership(t, "ball").lambda_min
            lam_dev = max(lam_dev, abs(lam - 0.5))
            cache = {}
            i0 = p - 1
            j0 = k + p - 1 if p <= k else p - k - 1
            for tau in enumerate_level(k, 2):
                star = word_product(t.mats, tau, cache).conj().T
                if tau == sigma:
                    target_dev = max(target_dev, abs(star[i0, j0] - scale))
                    dev = np.abs(star).copy()
                    dev[i0, j0] = 0.0
                    target_dev = max(target_dev, float(np.max(dev)))
                else:
                    offword_max = max(offword_max, abs(star[i0, j0]))
            rows.append(word_product(t.mats, sigma, cache).conj().T[i0])
        rank = int(np.linalg.matrix_rank(np.vstack(rows), tol=1e-10))
        ranks_full = ranks_full and rank == 2 * k
    ok = (target_dev < 1e-15 and offword_max == 0.0
          and lam_dev < 1e-12 and ranks_full)
    assert verdict(10, "separating-tuples", ok,
                   f"target dev = {target_dev:.3e}, off-word max = {offword_max:.1e}, "
                   f"|lambda_min - 1/2| = {lam_dev:.3e}, stacked ranks full: {ranks_full}")


def test_11_christoffel_darboux(rep16):
    f, basis, coeffs = rep16
    rng = np.random.default_rng(111)
    inner_worst = 0.0
    repro_worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        t = random_siegel_tuple(rng, 2, d, margin=float(rng.uniform(0.3, 0.7)))
        t2 = random_siegel_tuple(rng, 2, d, margin=float(rng.uniform(0.3, 0.7)))
        inner_worst = max(inner_worst, cd_inner_identity(basis, coeffs, n, t, t2))
        p = {w: complex(rng.standard_normal(), rng.standard_normal())
             for w in words_up_to(n, 2)}
        repro_worst = max(repro_worst, reproducing_residual(f, basis, n, p, t))
    ok = inner_worst < 1e-10 and repro_worst < 1e-9
    assert verdict(11, "christoffel-darboux", ok,
                   f"20 Siegel points, n<=2: inner-identity residual = "
                   f"{inner_worst:.3e} (tol 1e-10), reproducing residual = "
                   f"{repro_worst:.3e} (tol 1e-9)")


def test_12_stationary_ladder():
    rng = np.random.default_rng(12)
    f = random_toeplitz(rng, 2, 6, scale=0.08)
    direct = orthogonalize(f, 3)
    ladder, _ = szego_recursion(f, 3)
    dev = float(np.max(np.abs(ladder.matrix() - direct.matrix())))

    trivial = MomentFunctional(
        n_generators=2, kind="toeplitz", max_degree=6,
        moments={w: (1.0 + 0.0j if w == EMPTY else 0.0j)
                 for w in words_up_to(6, 2)})
    monomials, data = szego_recursion(trivial, 3)
    n = monomials.matrix().shape[0]
    ident = float(np.max(np.abs(monomials.matrix() - np.eye(n))))
    gammas_zero = all(g == 0.0 for g in data.gammas.values())
    ok = dev < 1e-8 and ident == 0.0 and gammas_zero
    assert verdict(12, "stationary-ladder", ok,
                   f"ladder vs direct dev = {dev:.3e} (tol 1e-8), "
                   f"gamma=0 gives monomials exactly: {ident == 0.0}")
