import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (all_words, back_substitution_inverse, gram_schmidt_basis, hankel_kernel,
                     toeplitz_kernel)

from ncpoly.errors import NCPolyError, PositivityError, ValidationError
from ncpoly.functional import (MomentFunctional, from_representation, gram,
                               require_strict_positivity)
from ncpoly.orthopoly import (_TRI_LEAF, DETERMINANT_CAP, _upper_inv, OrthoBasis, determinant_formula,
                              SzegoData, evaluate, orthogonalize,
                              orthonormality_residual, szego_recursion, word_product)
from ncpoly.recurrence import extract, favard
from ncpoly.words import EMPTY, Word, words_up_to

from test_functional import count_linalg, random_representation


def random_toeplitz(rng, n_gen, max_degree, scale=0.1):
    c = {EMPTY: 1.0 + 0.0j}
    for w in words_up_to(max_degree, n_gen):
        if len(w):
            c[w] = complex(scale * rng.standard_normal(),
                           scale * rng.standard_normal())
    return MomentFunctional(n_generators=n_gen, kind="toeplitz",
                            max_degree=max_degree, moments=c)


def as_matrix(basis, words):
    A = np.zeros((len(words), len(words)), dtype=complex)
    for i, w in enumerate(words):
        for j, t in enumerate(words):
            A[i, j] = basis.coeffs[w].get(t, 0.0)
    return A


def test_orthogonalize_matches_gram_schmidt_oracle_hankel():
    rng = np.random.default_rng(10)
    mats, v = random_representation(rng, 2, 16)
    f = from_representation(mats, v, max_degree=4)
    basis = orthogonalize(f, 2)
    words = words_up_to(2, 2)
    K = hankel_kernel({w.letters: f.moment(w) for w in words_up_to(4, 2)})
    oracle = gram_schmidt_basis(K, [w.letters for w in words])
    assert np.max(np.abs(as_matrix(basis, words) - oracle)) < 1e-9


def test_orthogonalize_matches_gram_schmidt_oracle_toeplitz():
    rng = np.random.default_rng(11)
    f = random_toeplitz(rng, 2, 3)
    basis = orthogonalize(f, 3)
    words = words_up_to(3, 2)
    K = toeplitz_kernel({w.letters: f.moments[w] for w in words})
    oracle = gram_schmidt_basis(K, [w.letters for w in words])
    assert np.max(np.abs(as_matrix(basis, words) - oracle)) < 1e-9


def test_basis_is_triangular_with_positive_leading():
    rng = np.random.default_rng(12)
    f = random_toeplitz(rng, 2, 3)
    basis = orthogonalize(f, 3)
    words = words_up_to(3, 2)
    A = as_matrix(basis, words)
    assert np.max(np.abs(np.triu(A, k=1))) == 0.0
    diag = np.diag(A)
    assert np.all(diag.real > 0)
    assert np.max(np.abs(diag.imag)) == 0.0


def test_orthonormality_residual_is_small():
    rng = np.random.default_rng(13)
    mats, v = random_representation(rng, 2, 16)
    f = from_representation(mats, v, max_degree=6)
    basis = orthogonalize(f, 3)
    assert orthonormality_residual(basis, gram(f, 3)) < 1e-9


def test_orthogonalize_refuses_singular_gram():
    # a 2-dimensional representation cannot carry 3 independent words
    rng = np.random.default_rng(14)
    mats, v = random_representation(rng, 1, 2)
    f = from_representation(mats, v, max_degree=4)
    with pytest.raises(PositivityError):
        orthogonalize(f, 2)


def test_determinant_formula_agrees_with_cholesky():
    rng = np.random.default_rng(15)
    for n_gen in (1, 2, 3):
        mats, v = random_representation(rng, n_gen, 16)
        f = from_representation(mats, v, max_degree=4)
        basis = orthogonalize(f, 2)
        for w in words_up_to(2, n_gen):
            row = determinant_formula(f, w)
            ref = basis.coeffs[w]
            scale = max(1.0, max(abs(c) for c in ref.values()))
            for t in set(row) | set(ref):
                assert abs(row.get(t, 0.0) - ref.get(t, 0.0)) < 1e-8 * scale


def test_determinant_formula_cap():
    rng = np.random.default_rng(16)
    mats, v = random_representation(rng, 3, 48)
    f = from_representation(mats, v, max_degree=6)
    # the full level-3 order over three letters has 40 words, past the cap
    assert 1 + 3 + 9 + 27 > DETERMINANT_CAP
    with pytest.raises(ValidationError):
        determinant_formula(f, Word((3, 3, 3)))


def test_empty_word_polynomial_is_the_constant():
    rng = np.random.default_rng(17)
    f = random_toeplitz(rng, 2, 2)
    assert determinant_formula(f, EMPTY) == {EMPTY: 1.0}


def test_szego_requires_toeplitz():
    rng = np.random.default_rng(18)
    mats, v = random_representation(rng, 2, 16)
    f = from_representation(mats, v, max_degree=4)
    with pytest.raises(ValidationError):
        szego_recursion(f, 2)


def test_szego_matches_orthogonalize():
    rng = np.random.default_rng(19)
    for trial in range(5):
        f = random_toeplitz(rng, 2, 3, scale=0.08)
        direct = orthogonalize(f, 3)
        ladder, data = szego_recursion(f, 3)
        words = words_up_to(3, 2)
        dev = np.max(np.abs(as_matrix(direct, words) - as_matrix(ladder, words)))
        assert dev < 1e-8
        assert all(abs(g) < 1 for g in data.gammas.values())


def test_szego_first_gamma_is_first_moment():
    # hand-checked on the one-variable ladder: the length-one parameter
    # coincides with c_1 itself
    c = {EMPTY: 1.0 + 0.0j, Word((1,)): -0.5 + 0.0j, Word((1, 1)): 0.0j}
    f = MomentFunctional(n_generators=1, kind="toeplitz", max_degree=2, moments=c)
    _, data = szego_recursion(f, 2)
    assert abs(data.gammas[Word((1,))] - (-0.5)) < 1e-12


def test_szego_zero_data_gives_monomials():
    c = {w: (1.0 + 0.0j if len(w) == 0 else 0.0j) for w in words_up_to(3, 2)}
    f = MomentFunctional(n_generators=2, kind="toeplitz", max_degree=3, moments=c)
    basis, data = szego_recursion(f, 3)
    words = words_up_to(3, 2)
    assert np.max(np.abs(as_matrix(basis, words) - np.eye(len(words)))) == 0.0
    assert all(g == 0 for g in data.gammas.values())


def test_szego_rejects_contradictory_data():
    # |c_1| >= 1 cannot come from a positive stationary kernel
    c = {EMPTY: 1.0 + 0.0j, Word((1,)): 1.2 + 0.0j, Word((1, 1)): 0.0j}
    f = MomentFunctional(n_generators=1, kind="toeplitz", max_degree=2, moments=c)
    with pytest.raises(PositivityError):
        szego_recursion(f, 2)


def test_szego_recursion_factors_the_gram_once(monkeypatch):
    f = random_toeplitz(np.random.default_rng(25), 2, 3, scale=0.08)
    calls = count_linalg(monkeypatch, "cholesky", "eigh", "eigvalsh")
    szego_recursion(f, 3)
    # one decision by a shifted factor, then one factor of G for the cross-check; no minors
    assert calls == ["cholesky", "cholesky"]


def determinant_ratio_gammas(f, level):
    """gamma_w = -sqrt(D_w / D_{1,w}) a_{w,e}, the reference for the ladder's scalars.

    D_w is the leading minor of the Gram matrix through w, D_{1,w} the same
    with the empty word removed, and a_{w,e} the constant coefficient of the
    Cholesky basis.
    """
    G = gram(f, level)
    require_strict_positivity(f, level, G=G)
    E = np.conj(G.entries)
    try:
        L, L1 = np.linalg.cholesky(E), np.linalg.cholesky(E[1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise PositivityError(str(exc)) from exc
    A = np.linalg.inv(L)
    D = np.concatenate([[1.0], np.cumprod(np.diag(L).real ** 2)])
    D1 = np.concatenate([[1.0], np.cumprod(np.diag(L1).real ** 2)])
    gammas = {}
    for i, w in enumerate(G.words[1:], start=1):
        gammas[w] = complex(-np.sqrt(D[i + 1] / D1[i]) * A[i, 0])
        if abs(gammas[w]) >= 1.0:
            raise PositivityError(f"ladder scalar at {w} has modulus >= 1")
    return gammas


def outcome(fn, *args):
    try:
        return fn(*args)
    except NCPolyError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 3), level=st.integers(1, 3),
       scale=st.floats(0.01, 0.3), rho=st.floats(0.5, 0.99))
def test_szego_gammas_match_the_determinant_ratio(seed, N, level, scale, rho):
    # the length-one data has norm rho, so the scalars of the first level
    # reach |gamma| near rho; the longer data at this scale is often refused
    level = min(level, 5 - N)
    rng = np.random.default_rng(seed)
    f = random_toeplitz(rng, N, level, scale=scale)
    c1 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    f.moments.update(zip([Word.of(k) for k in range(1, N + 1)],
                         (rho * c1 / np.linalg.norm(c1)).tolist()))
    want = outcome(determinant_ratio_gammas, f, level)
    got = outcome(lambda: szego_recursion(f, level)[1].gammas)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert list(got) == list(want)
        assert max(abs(got[w] - want[w]) for w in want) <= 1e-14


@pytest.mark.parametrize("N, level", [(1, 4), (2, 3), (3, 2)])
def test_szego_sharp_rows_are_the_reversed_family(N, level):
    # phi#_w has unit norm, pairs positively with F_e and is orthogonal to
    # every F_v with e < v <= w, as the reversed polynomial phi*_n on the circle
    f = random_toeplitz(np.random.default_rng(70 + N), N, level, scale=0.05)
    _, data = szego_recursion(f, level)
    G = gram(f, level)
    assert list(data.sharp) == G.words
    for i, w in enumerate(G.words):
        row = data.sharp[w]
        assert all(c != 0 for c in row.values())
        s = np.array([row.get(t, 0.0) for t in G.words])
        assert not s[i + 1:].any()
        pairs = G.entries @ s
        assert abs(np.conj(s) @ pairs - 1.0) <= 1e-13
        assert pairs[0].real > 0 and abs(pairs[0].imag) <= 1e-13
        assert np.max(np.abs(pairs[1:i + 1]), initial=0.0) <= 1e-13


def test_szego_data_keeps_given_rows():
    rows = {EMPTY: {EMPTY: 1.0 + 0.0j}}
    data = SzegoData(gammas={}, ds={}, sharp=rows)
    assert data.sharp is rows
    c = {w: (1.0 + 0.0j if len(w) == 0 else 0.0j) for w in words_up_to(1, 1)}
    f = MomentFunctional(n_generators=1, kind="toeplitz", max_degree=1, moments=c)
    _, built = szego_recursion(f, 1)
    assert built.sharp is built.sharp
    # with zero data phi#_w = 1 for every w, the reversal of the monomial F_w
    assert built == SzegoData(gammas=built.gammas, ds=built.ds,
                              sharp={EMPTY: {EMPTY: 1.0}, Word.of(1): {EMPTY: 1.0}})
    assert repr(built.sharp) == repr({EMPTY: {EMPTY: 1 + 0j}, Word.of(1): {EMPTY: 1 + 0j}})
    assert dataclasses.replace(built, sharp=None).sharp is None


def test_evaluate_matches_scalar_polynomial():
    rng = np.random.default_rng(20)
    f = random_toeplitz(rng, 1, 3)
    basis = orthogonalize(f, 3)
    z = 0.3 - 0.4j
    point = np.array([[[z]]])
    for w in words_up_to(3, 1):
        val = evaluate(basis, w, point)[0, 0]
        ref = sum(a * z ** len(t) for t, a in basis.coeffs[w].items())
        assert abs(val - ref) < 1e-12


def test_evaluate_respects_noncommutativity():
    rng = np.random.default_rng(21)
    mats, v = random_representation(rng, 2, 16)
    f = from_representation(mats, v, max_degree=4)
    basis = orthogonalize(f, 2)
    X = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    w = Word((1, 2))
    val = evaluate(basis, w, X)
    ref = sum(a * word_product(X, t, {}) for t, a in basis.coeffs[w].items())
    assert np.max(np.abs(val - ref)) < 1e-12


def test_evaluate_rejects_words_outside_the_basis():
    basis = orthogonalize(random_toeplitz(np.random.default_rng(24), 2, 2), 2)
    X = np.zeros((2, 2, 2))
    with pytest.raises(ValidationError, match="only valid to level 2"):
        evaluate(basis, Word((1, 2, 1)), X)
    with pytest.raises(ValidationError, match="word 3 uses letters beyond 2"):
        evaluate(basis, Word((3,)), X)


def test_word_product_order():
    X = np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    # Z_{1.2} = Z_1 Z_2 hits the upper-left unit, Z_{2.1} the lower-right
    P12 = word_product(X, Word((1, 2)), {})
    P21 = word_product(X, Word((2, 1)), {})
    assert P12[0, 0] == 1.0 and P12[1, 1] == 0.0
    assert P21[1, 1] == 1.0 and P21[0, 0] == 0.0


def test_matrix_rejects_levels_beyond_basis():
    rng = np.random.default_rng(22)
    f = random_toeplitz(rng, 2, 2)
    basis = orthogonalize(f, 2)
    with pytest.raises(ValidationError):
        basis.matrix(3)


def test_basis_matrix_matches_oracle_layout():
    rng = np.random.default_rng(23)
    f = random_toeplitz(rng, 2, 2)
    basis = orthogonalize(f, 2)
    words = words_up_to(2, 2)
    assert [w.letters for w in words] == all_words(2, 2)
    A = basis.matrix()
    assert np.max(np.abs(A - as_matrix(basis, words))) == 0.0


def per_row_matrix(basis):
    """The coefficient matrix rebuilt from ``basis.coeffs`` one Word-keyed row at a time."""
    ws = words_up_to(basis.level, basis.n_generators)
    idx = {w: i for i, w in enumerate(ws)}
    A = np.zeros((len(ws), len(ws)), dtype=complex)
    for i, w in enumerate(ws):
        row = basis.coeffs[w]
        A[i, [idx[t] for t in row]] = list(row.values())
    return A


@pytest.mark.parametrize("N, level", [(1, 5), (2, 3), (3, 2)])
def test_basis_matrix_is_its_coeffs_bit_for_bit(N, level):
    rng = np.random.default_rng(60 + N)
    mats, v = random_representation(rng, N, 40)
    f = from_representation(mats, v, max_degree=2 * level)
    chol = orthogonalize(f, level)
    fav, _ = favard(extract(f, chol, level))
    ladder, _ = szego_recursion(random_toeplitz(rng, N, level, scale=0.05), level)
    copied = OrthoBasis(n_generators=N, level=level,
                        coeffs={w: dict(row) for w, row in chol.coeffs.items()})
    for basis in (chol, fav, ladder, copied):
        A = basis.matrix()
        assert np.array_equal(A.view(np.uint64), per_row_matrix(basis).view(np.uint64))
        assert np.array_equal(basis.matrix(level - 1), A[:len(words_up_to(level - 1, N)),
                                                         :len(words_up_to(level - 1, N))])
        with pytest.raises(TypeError):
            basis.coeffs[EMPTY] = {EMPTY: 2.0}
        with pytest.raises(TypeError):
            basis.coeffs[EMPTY][EMPTY] = 2.0
        with pytest.raises(ValueError):
            basis._matrix[0, 0] = 2.0
        A[0, 0] = 2.0                     # matrix() hands out a copy
        assert basis.matrix()[0, 0] == 1.0
    assert np.array_equal(copied.matrix().view(np.uint64), chol.matrix().view(np.uint64))


def test_constructed_basis_keeps_its_own_rows():
    f = random_toeplitz(np.random.default_rng(64), 2, 2)
    rows = {w: dict(row) for w, row in orthogonalize(f, 2).coeffs.items()}
    basis = OrthoBasis(n_generators=2, level=2, coeffs=rows)
    before = basis.matrix()
    rows[EMPTY][EMPTY] = 5.0
    rows[Word.of(1)] = {}
    assert basis.coeffs[EMPTY][EMPTY] == 1.0
    assert np.array_equal(basis.matrix(), before)


A1, A11, A2 = Word((1,)), Word((1, 1)), Word((2,))


@pytest.mark.parametrize("rows, message", [
    ({EMPTY: {EMPTY: 1}, A1: {A11: 1, A1: 1}},
     r"basis entry \(1, 1.1\): column 1.1 is not a word of length <= 1 on 1 generators"),
    ({EMPTY: {EMPTY: 1}, A1: {A1: 1}, A11: {A11: 1}},
     r"basis row 1.1 is not a word of length <= 1 on 1 generators"),
    ({EMPTY: {EMPTY: 1}, A1: {A1: 1}, A2: {A2: 1}},
     r"basis row 2 is not a word of length <= 1 on 1 generators"),
    ({EMPTY: {EMPTY: 1, A1: 0.5}, A1: {A1: 1}}, r"basis entry \(e, 1\) lies above the diagonal"),
    ({EMPTY: {EMPTY: 1}}, r"basis row 1 is missing"),
], ids=["long-column", "long-row", "foreign-row", "above-diagonal", "missing-row"])
def test_constructor_refuses_malformed_rows(rows, message):
    with pytest.raises(ValidationError, match=message):
        OrthoBasis(n_generators=1, level=1, coeffs=rows)


@pytest.mark.parametrize("level", [-1, -3])
def test_constructor_refuses_a_negative_level(level):
    with pytest.raises(ValidationError, match=f"basis level must be >= 0, got {level}"):
        OrthoBasis(n_generators=1, level=level, coeffs={})


def test_constructor_takes_rows_that_leave_out_entries_below_the_diagonal():
    rows = {EMPTY: {EMPTY: 1.0}, A1: {A1: 2.0}, A2: {EMPTY: 0.5, A2: 3.0}}
    basis = OrthoBasis(n_generators=2, level=1, coeffs=rows)
    assert np.array_equal(basis.matrix(), [[1, 0, 0], [0, 2, 0], [0.5, 0, 3]])


def test_sparse_rows_equal_their_dense_twin_and_read_back_with_zeros():
    sparse = {EMPTY: {EMPTY: 1.0}, A1: {A1: 2.0}, A2: {EMPTY: 0.5, A2: 3.0}}
    dense = {EMPTY: {EMPTY: 1.0}, A1: {EMPTY: 0.0, A1: 2.0},
             A2: {EMPTY: 0.5, A1: 0.0, A2: 3.0}}
    basis = OrthoBasis(n_generators=2, level=1, coeffs=sparse)
    assert basis._coeffs is None          # no Word-keyed rows until coeffs is read
    assert basis == OrthoBasis(n_generators=2, level=1, coeffs=dense)
    assert {s: dict(row) for s, row in basis.coeffs.items()} == dense
    assert [list(row) for row in basis.coeffs.values()] == [[EMPTY], [EMPTY, A1],
                                                            [EMPTY, A1, A2]]
    assert basis != OrthoBasis(n_generators=2, level=1,
                               coeffs={**dense, A2: {EMPTY: 0.5, A1: 0.1, A2: 3.0}})


def test_leading_reads_the_diagonal():
    basis = orthogonalize(random_toeplitz(np.random.default_rng(65), 2, 2), 2)
    assert [basis.leading(w) for w in basis.words()] == basis.matrix().diagonal().real.tolist()


@pytest.mark.parametrize("w", [A11, Word((3,))], ids=["too-long", "foreign-letter"])
def test_leading_refuses_a_word_outside_the_basis(w):
    basis = OrthoBasis(n_generators=2, level=1,
                       coeffs={EMPTY: {EMPTY: 1.0}, A1: {A1: 1.0}, A2: {A2: 1.0}})
    with pytest.raises(ValidationError, match=f"{w} is not a word of length <= 1 on 2 generators"):
        basis.leading(w)


TRI_ORDERS = list(range(1, 81)) + [121, 127, 255, 364]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), complex_=st.booleans(), junk=st.booleans())
def test_upper_inverse_matches_back_substitution(seed, complex_, junk):
    # the transposed Cholesky factor of a well-conditioned Gram matrix, as
    # _cholesky_basis inverts it; below the diagonal, zeros or junk that the
    # inverse must not read
    assert _TRI_LEAF < 80
    rng = np.random.default_rng(seed)
    for n in TRI_ORDERS:
        W = rng.standard_normal((n, n))
        if complex_:
            W = W + 1j * rng.standard_normal((n, n))
        U = np.linalg.cholesky(np.eye(n) + W @ W.conj().T / (2 * n)).T
        if junk:
            U = U + np.tril(rng.standard_normal((n, n)), -1)
        got = _upper_inv(U)
        assert got.dtype == U.dtype
        assert np.all(np.tril(got, -1) == 0)
        for ref in (back_substitution_inverse(U), np.linalg.inv(np.triu(U))):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
