import numpy as np
import pytest

from oracles import gaussian_moments, tridiag_moments

from ncpoly.errors import ValidationError
from ncpoly.functional import MomentFunctional, from_representation, gram
from ncpoly.jacobi import hamburger_check
from ncpoly.orthopoly import orthogonalize, orthonormality_residual
from ncpoly.recurrence import RecurrenceCoeffs, extract, favard, residual_check
from ncpoly.words import EMPTY, Word, words_up_to

from test_functional import count_linalg, random_representation


def hankel_n1(values):
    moments = {EMPTY: complex(values[0])}
    for n in range(1, len(values)):
        moments[Word((1,) * n)] = complex(values[n])
    return MomentFunctional(n_generators=1, kind="hankel",
                            max_degree=len(values) - 1, moments=moments)


def scalar_blocks(n_gen, a_vals, b_vals):
    """N=1 recurrence data from plain sequences."""
    A = {(n, 1): np.array([[complex(a)]]) for n, a in enumerate(a_vals)}
    B = {(n, 1): np.array([[complex(b)]]) for n, b in enumerate(b_vals)}
    return RecurrenceCoeffs(n_generators=n_gen, levels=len(a_vals), A=A, B=B)


def test_coeffs_keep_their_own_blocks():
    A, B = {(0, 1): [[0.0]]}, {(0, 1): np.ones((1, 1), dtype=complex)}
    a, b = A[0, 1], B[0, 1]
    coeffs = RecurrenceCoeffs(1, 1, A, B)
    assert coeffs.A is not A and coeffs.B is not B
    assert A == {(0, 1): [[0.0]]} and A[0, 1] is a and B[0, 1] is b
    a[0][0], b[0, 0] = 5.0, 7.0
    assert coeffs.A[0, 1][0, 0] == 0.0 and coeffs.B[0, 1][0, 0] == 1.0
    assert coeffs.A[0, 1].dtype == coeffs.B[0, 1].dtype == complex


def test_hermite_ladder():
    f = hankel_n1(gaussian_moments(8))
    basis = orthogonalize(f, 4)
    coeffs = extract(f, basis, 4)
    for n in range(4):
        assert abs(coeffs.A[n, 1][0, 0]) < 1e-10
        assert abs(coeffs.B[n, 1][0, 0] - np.sqrt(n + 1)) < 1e-10


def test_extract_residual_is_tiny():
    rng = np.random.default_rng(30)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=6)
    basis = orthogonalize(f, 3)
    coeffs = extract(f, basis, 3)
    assert residual_check(basis, coeffs) < 1e-10


def test_extract_needs_enough_basis_levels():
    f = hankel_n1(gaussian_moments(8))
    basis = orthogonalize(f, 2)
    with pytest.raises(ValidationError):
        extract(f, basis, 3)


def test_favard_tridiagonal_oracle():
    # arbitrary bands: moments must match dense matrix powers on e_0
    a_vals = [0.3, -0.5, 0.8, 0.1]
    b_vals = [1.1, 0.7, 1.4, 0.9]
    coeffs = scalar_blocks(1, a_vals, b_vals)
    _, f = favard(coeffs)
    ref = tridiag_moments(a_vals, b_vals, 8)
    for n in range(9):
        w = Word((1,) * n) if n else EMPTY
        assert abs(f.moment(w) - ref[n]) < 1e-10


def test_favard_then_extract_roundtrip():
    rng = np.random.default_rng(31)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=6)
    basis = orthogonalize(f, 3)
    coeffs = extract(f, basis, 3)
    basis2, f2 = favard(coeffs)
    back = extract(f2, basis2, 3)
    for key in coeffs.A:
        assert np.max(np.abs(back.A[key] - coeffs.A[key])) < 1e-8
        assert np.max(np.abs(back.B[key] - coeffs.B[key])) < 1e-8


def test_extract_then_favard_recovers_basis_and_moments():
    rng = np.random.default_rng(32)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=6)
    basis = orthogonalize(f, 3)
    coeffs = extract(f, basis, 3)
    basis2, f2 = favard(coeffs)
    A1 = basis.matrix(3)
    A2 = basis2.matrix(3)
    assert np.max(np.abs(A1 - A2)) < 1e-8
    for w in words_up_to(6, 2):
        assert abs(f2.moment(w) - f.moment(w)) < 1e-8


def test_favard_output_is_orthonormal_under_its_own_functional():
    coeffs = scalar_blocks(1, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    basis, f = favard(coeffs)
    assert orthonormality_residual(basis, gram(f, 3)) < 1e-12


def test_favard_moment_symmetry():
    rng = np.random.default_rng(33)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=4)
    coeffs = extract(f, orthogonalize(f, 2), 2)
    _, f2 = favard(coeffs)
    for w in words_up_to(4, 2):
        rev = Word(tuple(reversed(w.letters))) if len(w) else EMPTY
        assert f2.moment(rev) == np.conj(f2.moment(w))


@pytest.mark.parametrize("N, level", [(1, 5), (2, 3), (3, 2)])
def test_favard_basis_starts_at_e0_with_a_real_positive_diagonal(monkeypatch, N, level):
    calls = count_linalg(monkeypatch, "inv")
    dim = len(words_up_to(level, N)) + 4
    for seed in range(10):
        mats, v = random_representation(np.random.default_rng([70, seed]), N, dim)
        f = from_representation(mats, v, max_degree=2 * level)
        witness = hamburger_check(f.moments, N, level).witness
        calls.clear()
        A = favard(witness)[0].matrix()
        assert calls == ["inv"]
        e0 = np.zeros(len(A), dtype=complex)
        e0[0] = 1.0
        assert np.array_equal(A[0], e0)
        assert np.all(np.diag(A).imag == 0.0) and np.all(np.diag(A).real > 0)


def unit_radius_representation(rng, n_gen, dim):
    """random_representation scaled so each matrix has spectral radius 1."""
    mats, v = random_representation(rng, n_gen, dim)
    return mats / np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1)[:, None, None], v


def test_favard_moments_at_level_7_are_as_accurate_as_the_representation():
    mats, v = unit_radius_representation(np.random.default_rng(71), 2, 300)
    f = from_representation(mats, v, max_degree=14)
    _, back = favard(hamburger_check(f.moments, 2, 7).witness)
    scale = max(abs(s) for s in f.moments.values())
    gap = max(abs(back.moments[w] - s) for w, s in f.moments.items())
    assert gap <= 2e-15 * scale


def test_favard_rejects_non_hermitian_a():
    coeffs = scalar_blocks(1, [0.0, 0.0], [1.0, 1.0])
    bad_a = dict(coeffs.A)
    bad_b = dict(coeffs.B)
    bad_a[0, 1] = np.array([[0.5j]])
    bad = RecurrenceCoeffs(n_generators=1, levels=2, A=bad_a, B=bad_b)
    with pytest.raises(ValidationError, match="Hermitian"):
        favard(bad)


def test_favard_rejects_nonpositive_b_diagonal():
    coeffs = scalar_blocks(1, [0.0, 0.0], [1.0, -1.0])
    with pytest.raises(ValidationError, match="diagonal"):
        favard(coeffs)


def test_favard_rejects_nontriangular_b():
    A = {(0, k): np.zeros((1, 1), dtype=complex) for k in (1, 2)}
    B = {(0, 1): np.array([[0.0], [1.0]], dtype=complex),
         (0, 2): np.array([[1.0], [0.0]], dtype=complex)}
    bad = RecurrenceCoeffs(n_generators=2, levels=1, A=A, B=B)
    with pytest.raises(ValidationError, match="triangular"):
        favard(bad)


def test_favard_rejects_ill_conditioned_b():
    A = {(0, k): np.zeros((1, 1), dtype=complex) for k in (1, 2)}
    B = {(0, 1): np.array([[1.0], [0.0]], dtype=complex),
         (0, 2): np.array([[1e9], [1.0]], dtype=complex)}
    bad = RecurrenceCoeffs(n_generators=2, levels=1, A=A, B=B)
    with pytest.raises(ValidationError, match="condition"):
        favard(bad)


def test_blocks_shape_validation():
    with pytest.raises(ValidationError, match="shape"):
        RecurrenceCoeffs(n_generators=2, levels=1,
                         A={(0, 1): np.zeros((2, 2)), (0, 2): np.zeros((1, 1))},
                         B={(0, 1): np.zeros((2, 1)), (0, 2): np.zeros((2, 1))})
    with pytest.raises(ValidationError, match="missing"):
        RecurrenceCoeffs(n_generators=2, levels=1,
                         A={(0, 1): np.zeros((1, 1))},
                         B={(0, 1): np.zeros((2, 1))})


def test_b_diagonal_identity():
    rng = np.random.default_rng(34)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=6)
    basis = orthogonalize(f, 3)
    coeffs = extract(f, basis, 3)
    for n in range(3):
        Bn = coeffs.b_block(n)
        from ncpoly.words import enumerate_level
        for j, w in enumerate(enumerate_level(n + 1, 2)):
            tail = Word(w.letters[1:]) if len(w) > 1 else EMPTY
            ratio = basis.leading(tail) / basis.leading(w)
            assert abs(Bn[j, j] - ratio) < 1e-9


@pytest.mark.parametrize("block", ["A", "B"])
def test_favard_refuses_non_finite_blocks(block):
    a_vals, b_vals = [0.0, 0.0], [1.0, 1.0]
    (a_vals if block == "A" else b_vals)[1] = float("nan")
    # the container takes any values (the file round trip keeps them); validate refuses
    coeffs = scalar_blocks(1, a_vals, b_vals)
    with pytest.raises(ValidationError, match=f"{block} block \\(n=1, k=1\\) has a non-finite"):
        favard(coeffs)


@pytest.mark.parametrize("k,row,col", [(1, 2, 1), (1, 3, 0), (2, 3, 0)])
def test_nontriangular_b_names_the_block_at_a_later_level(k, row, col):
    # B_n = I at n = 0, 1 for N = 2; one entry of B_{1,k} lands below the diagonal of B_1
    A = {(n, j): np.zeros((2**n, 2**n), dtype=complex) for n in range(2) for j in (1, 2)}
    B = {(n, j): np.eye(2 ** (n + 1), dtype=complex)[:, (j - 1) * 2**n:j * 2**n]
         for n in range(2) for j in (1, 2)}
    B[1, k][row, col] = 0.5
    bad = RecurrenceCoeffs(n_generators=2, levels=2, A=A, B=B)
    with pytest.raises(ValidationError,
                       match=rf"B_1 not upper triangular \(offending block n=1, k={k}\)"):
        favard(bad)
