import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoly.errors import ValidationError
from ncpoly.functional import MomentFunctional, from_representation
from ncpoly.opeval import OperatorTuple
from ncpoly.orthopoly import OrthoBasis, orthogonalize
from ncpoly.recurrence import RecurrenceCoeffs, extract
from ncpoly.serialize import (_matrix, load_basis, load_coeffs, load_matrix,
                              load_moment_dict, load_moments, load_point,
                              save_basis, save_coeffs, save_matrix,
                              save_moments, save_point)
from ncpoly.words import EMPTY, Word, words_up_to

from test_functional import random_representation
from test_orthopoly import random_toeplitz


def test_moments_roundtrip(tmp_path):
    rng = np.random.default_rng(70)
    f = random_toeplitz(rng, 2, 3)
    path = str(tmp_path / "m.json")
    save_moments(f, path)
    g = load_moments(path)
    assert g.kind == f.kind
    assert g.n_generators == f.n_generators
    assert g.max_degree == f.max_degree
    for w in words_up_to(3, 2):
        assert g.moments[w] == f.moments[w]


def test_basis_and_coeffs_roundtrip(tmp_path):
    rng = np.random.default_rng(71)
    mats, v = random_representation(rng, 2, 16)
    f = from_representation(mats, v, max_degree=7)
    basis = orthogonalize(f, 3)
    coeffs = extract(f, basis, 3)
    bpath, cpath = str(tmp_path / "b.json"), str(tmp_path / "c.json")
    save_basis(basis, bpath)
    save_coeffs(coeffs, cpath)
    basis2 = load_basis(bpath)
    coeffs2 = load_coeffs(cpath)
    assert basis2.level == basis.level
    for w, row in basis.coeffs.items():
        for t, a in row.items():
            assert basis2.coeffs[w][t] == a
    for key in coeffs.A:
        assert np.array_equal(coeffs2.A[key], coeffs.A[key])
        assert np.array_equal(coeffs2.B[key], coeffs.B[key])


def test_point_roundtrip(tmp_path):
    rng = np.random.default_rng(72)
    mats = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    t = OperatorTuple(n_generators=2, dim=3, mats=0.1 * mats, region="ball")
    path = str(tmp_path / "p.json")
    save_point(t, path)
    t2 = load_point(path)
    assert t2.region == "ball"
    assert np.array_equal(t2.mats, t.mats)


def test_matrix_roundtrip(tmp_path):
    M = np.array([[1.0 + 2.0j, 0.0], [3.0, -1.0j]])
    path = str(tmp_path / "t.json")
    save_matrix(M, path)
    assert np.array_equal(load_matrix(path), M)


def test_moment_dict_skips_validation(tmp_path):
    # asymmetric data loads raw, while the functional loader refuses it
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"n_generators": 2, "kind": "hankel", "max_degree": 2,
                   "moments": {"e": [1, 0], "1": [0, 0], "2": [0, 0],
                               "1.2": [0.5, 0], "2.1": [0.3, 0],
                               "1.1": [1, 0], "2.2": [1, 0]}}, fh)
    n_gen, moments = load_moment_dict(path)
    assert n_gen == 2
    assert moments[Word((1, 2))] == 0.5
    with pytest.raises(ValidationError):
        load_moments(path)


def test_bad_word_key_is_named(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"n_generators": 1, "kind": "hankel", "max_degree": 1,
                   "moments": {"e": [1, 0], "x.y": [0, 0]}}, fh)
    with pytest.raises(ValidationError, match="x.y"):
        load_moments(path)


def test_bad_complex_entry_is_named(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"n_generators": 1, "kind": "hankel", "max_degree": 1,
                   "moments": {"e": [1, 0], "1": [1, 2, 3]}}, fh)
    with pytest.raises(ValidationError, match=r"\[re, im\]"):
        load_moments(path)


def test_missing_field_is_named(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"kind": "hankel", "moments": {"e": [1, 0]}}, fh)
    with pytest.raises(ValidationError, match="n_generators"):
        load_moments(path)


def test_invalid_json_is_reported(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(ValidationError, match="JSON"):
        load_moments(path)


def test_ragged_matrix_rejected(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}, fh)
    with pytest.raises(ValidationError, match="ragged"):
        load_matrix(path)


def test_wrong_block_shape_rejected(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"n_generators": 1, "levels": 1,
                   "A": {"0,1": [[[0, 0]]]},
                   "B": {"0,1": [[[1, 0], [0, 0]]]}}, fh)
    with pytest.raises(ValidationError, match="shape"):
        load_coeffs(path)


def test_moments_file_is_sorted_graded_lex(tmp_path):
    rng = np.random.default_rng(73)
    f = random_toeplitz(rng, 2, 2)
    path = str(tmp_path / "m.json")
    save_moments(f, path)
    with open(path) as fh:
        keys = list(json.load(fh)["moments"].keys())
    parsed = [Word.parse(k) for k in keys]
    assert parsed == sorted(parsed, key=lambda w: w.sort_key())
    assert keys[0] == "e"


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=complex).view(np.int64)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
           1e308, -1.7976931348623157e308, 3.0, -7.0, 2.0**53, 1e16]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_gen=st.integers(1, 2), dim=st.integers(1, 4),
       vals=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False)),
                     min_size=1, max_size=48))
def test_saved_arrays_load_bit_for_bit(n_gen, dim, vals):
    pool = iter(np.resize(np.array(vals), 2 * 200).view(complex))

    def take(*shape):
        return np.array([next(pool) for _ in range(int(np.prod(shape)))]).reshape(shape)

    # a point refuses a non-finite entry (zeroed here); the matrix and blocks keep theirs
    mats = take(n_gen, dim, dim)
    t = OperatorTuple(n_generators=n_gen, dim=dim,
                      mats=np.where(np.isfinite(mats), mats, 0.0), region="ball")
    M = take(dim, dim + 1)
    A = {(n, k): take(n_gen**n, n_gen**n) for n in range(2) for k in range(1, n_gen + 1)}
    B = {(n, k): take(n_gen ** (n + 1), n_gen**n) for n in range(2) for k in range(1, n_gen + 1)}
    coeffs = RecurrenceCoeffs(n_generators=n_gen, levels=2, A=A, B=B)
    with tempfile.TemporaryDirectory() as tmp:
        ppath, mpath, cpath = (os.path.join(tmp, name) for name in ("p", "m", "c"))
        save_point(t, ppath)
        save_matrix(M, mpath)
        save_coeffs(coeffs, cpath)
        t2, M2, coeffs2 = load_point(ppath), load_matrix(mpath), load_coeffs(cpath)
    assert (t2.n_generators, t2.dim, t2.region) == (n_gen, dim, "ball")
    assert np.array_equal(bits(t2.mats), bits(t.mats))
    assert np.array_equal(bits(M2), bits(M))
    for key in A:
        assert np.array_equal(bits(coeffs2.A[key]), bits(A[key]))
        assert np.array_equal(bits(coeffs2.B[key]), bits(B[key]))


def walk_matrix(rows, where):
    """Entry-by-entry reading of a matrix file: the reference for ``_matrix``."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"{where}: expected a list of rows")
    out = np.zeros((len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValidationError(f"{where}: ragged row {i}")
        for j, v in enumerate(row):
            if isinstance(v, (int, float)):
                out[i, j] = complex(v)
            elif (isinstance(v, list) and len(v) == 2
                    and all(isinstance(x, (int, float)) for x in v)):
                out[i, j] = complex(v[0], v[1])
            else:
                raise ValidationError(f"{where}[{i}][{j}]: expected [re, im], got {v!r}")
    return out


UNUSUAL_MATRICES = [
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],          # ragged
    [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]],          # ragged the other way
    [[[1.0, 0.0, 2.0]]],                               # [re, im, x]
    [[[1.0, 0.0], [1.0, 0.0, 2.0]]],
    [["1.0"]],
    [[["1.0", 0.0]]],
    [[[True, False]]],                                 # bools are ints: accepted
    [[[True, 0.5], [2, False]]],
    [[True]],
    [[None]],
    [[[None, 1.0]]],
    [[[[1.0, 0.0], [0.0, 1.0]]]],                      # nested too deep
    [[[[1.0, 0.0]], [[0.0, 1.0]]]],
    [],
    [[]],
    [[[]]],
    [[], []],
    [[1.0, [0.0, 2.0]], [3, [4.0, -0.0]]],             # bare reals with pairs
    [[1.0, 2.0], [3.0, 4.0]],                          # bare reals only
    [[1.0, 2.0]],
    [[[1, 2], [3, -4]]],                               # integers
    [[[1, 0.5], [2**53 + 1, -0.0]]],
    [[[2**63, 0]]],
    [[[2**70, 0.5]]],
    [[[10**400, 0.0]]],                                # too large for a float
    [[[1.0, float("inf")], [float("-inf"), -0.0]], [[5e-324, 1e308], [float("nan"), 0.0]]],
    [[{"re": 1.0}]],
    [[1.0], 2.0],
    {"rows": []},
    "1.0",
]


@pytest.mark.parametrize("rows", UNUSUAL_MATRICES)
def test_matrix_reader_matches_the_entry_walk(rows):
    try:
        want = walk_matrix(rows, "M")
    except (ValidationError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            _matrix(rows, "M")
        assert str(got.value) == str(exc)
    else:
        got = _matrix(rows, "M")
        assert got.dtype == complex and got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))


def test_matrix_held_basis_writes_its_constructor_form(tmp_path):
    rng = np.random.default_rng(74)
    mats, v = random_representation(rng, 2, 16)
    eye = np.eye(15)
    eye[3, 1] = -0.0
    for basis in (orthogonalize(from_representation(mats, v, max_degree=6), 3),
                  OrthoBasis._from_matrix(2, 3, eye)):
        held, built = str(tmp_path / "held.json"), str(tmp_path / "built.json")
        save_basis(basis, held)
        assert basis._coeffs is None       # written without the Word-keyed view
        rows = {s: dict(row) for s, row in basis.coeffs.items()}
        save_basis(OrthoBasis(n_generators=2, level=3, coeffs=rows), built)
        with open(held) as fh_held, open(built) as fh_built:
            assert fh_held.read() == fh_built.read()
        data = load_basis(held)
        assert [len(row) for row in data.coeffs.values()] == list(range(1, 16))


def test_sparse_constructor_basis_writes_its_own_entries(tmp_path):
    a, b = Word((1,)), Word((2,))
    rows = {EMPTY: {EMPTY: 1.0}, a: {a: 2.0}, b: {EMPTY: 0.5, b: -0.0}}
    path = str(tmp_path / "b.json")
    save_basis(OrthoBasis(n_generators=2, level=1, coeffs=rows), path)
    with open(path) as fh:
        data = json.load(fh)
    assert data["coeffs"] == {"e": {"e": [1.0, 0.0]}, "1": {"e": [0.0, 0.0], "1": [2.0, 0.0]},
                              "2": {"e": [0.5, 0.0], "1": [0.0, 0.0], "2": [-0.0, 0.0]}}
    assert [list(row) for row in data["coeffs"].values()] == [["e"], ["e", "1"], ["e", "1", "2"]]
    assert np.signbit(data["coeffs"]["2"]["2"][0])


def test_files_are_one_line_of_json(tmp_path):
    path = str(tmp_path / "t.json")
    save_matrix(np.eye(3), path)
    with open(path) as fh:
        text = fh.read()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == {"matrix": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}


def test_a_point_with_no_generators_is_refused(tmp_path):
    path = str(tmp_path / "empty.json")
    with open(path, "w") as fh:
        json.dump({"n_generators": 0, "dim": 2, "matrices": []}, fh)
    with pytest.raises(ValidationError, match="n_generators >= 1"):
        load_point(path)
