import functools
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_moment, fock_moment, gaussian_moments

from ncpoly import functional as functional_mod
from ncpoly import jacobi as jacobi_mod
from ncpoly.errors import DataIncompleteError, ValidationError
from ncpoly.functional import (STRICT_TOL, MomentFunctional, _involution_defect,
                               from_representation, strict_positivity)
from ncpoly.jacobi import build, hamburger_check, moment, word_apply
from ncpoly.orthopoly import orthogonalize
from ncpoly.recurrence import extract
from ncpoly.words import EMPTY, Word, enumerate_level, words_up_to

from test_functional import count_linalg, random_representation
from test_recurrence import hankel_n1, scalar_blocks


def fock_functional(n_gen, max_degree):
    moments = {w: complex(fock_moment(w.letters))
               for w in words_up_to(max_degree, n_gen)}
    return MomentFunctional(n_generators=n_gen, kind="hankel",
                            max_degree=max_degree, moments=moments)


def test_build_is_exactly_hermitian():
    rng = np.random.default_rng(40)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=6)
    coeffs = extract(f, orthogonalize(f, 3), 3)
    for J in build(coeffs, 2):
        assert np.max(np.abs(J.matrix - J.matrix.conj().T)) == 0.0


def test_build_block_structure():
    f = fock_functional(2, 6)
    coeffs = extract(f, orthogonalize(f, 3), 3)
    fam = build(coeffs, 2)
    # rows at level 2 cannot couple to level 0: band width one in the grading
    J = fam[0].matrix
    assert J.shape == (7, 7)
    assert np.max(np.abs(J[3:7, 0:1])) == 0.0
    assert np.max(np.abs(J[0:1, 3:7])) == 0.0


def test_build_needs_one_extra_level_of_blocks():
    f = hankel_n1(gaussian_moments(8))
    coeffs = extract(f, orthogonalize(f, 3), 3)
    with pytest.raises(ValidationError):
        build(coeffs, 3)


def test_word_apply_composes_left_to_right():
    f = fock_functional(2, 6)
    coeffs = extract(f, orthogonalize(f, 3), 3)
    fam = build(coeffs, 2)
    v = np.zeros(fam[0].size, dtype=complex)
    v[0] = 1.0
    direct = fam[0].matrix @ (fam[1].matrix @ v)
    assert np.max(np.abs(word_apply(fam, Word((1, 2)), v) - direct)) == 0.0


def test_moments_exact_through_twice_level_plus_one():
    rng = np.random.default_rng(41)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=6)
    coeffs = extract(f, orthogonalize(f, 3), 3)
    fam = build(coeffs, 2)
    for m in range(6):
        for w in enumerate_level(m, 2):
            mv = moment(fam, w)
            assert abs(mv.value - f.moment(w)) < 1e-10
            assert mv.truncated == (m > 2)


def test_gaussian_jacobi_reproduces_moments():
    f = hankel_n1(gaussian_moments(10))
    coeffs = extract(f, orthogonalize(f, 4), 4)
    fam = build(coeffs, 3)
    ref = gaussian_moments(7)
    for n in range(8):
        w = Word((1,) * n) if n else EMPTY
        assert abs(moment(fam, w).value - ref[n]) < 1e-10


def test_fock_moments_from_jacobi():
    f = fock_functional(2, 6)
    coeffs = extract(f, orthogonalize(f, 3), 3)
    fam = build(coeffs, 2)
    assert abs(moment(fam, Word((1, 1, 2, 2))).value - 1.0) < 1e-12
    assert abs(moment(fam, Word((1, 2, 1, 2))).value - 0.0) < 1e-12


def test_hamburger_rejects_negative_variance():
    moments = {EMPTY: 1.0 + 0.0j, Word((1,)): 0.0j, Word((1, 1)): -1.0 + 0.0j}
    res = hamburger_check(moments, 1, 1)
    assert not res.positive
    assert res.min_eigenvalue < 0
    assert res.certificate
    assert res.witness is None


def test_hamburger_accepts_representation_moments_with_witness():
    rng = np.random.default_rng(42)
    mats, v = random_representation(rng, 2, 20)
    f = from_representation(mats, v, max_degree=4)
    res = hamburger_check(f.moments, 2, 2)
    assert res.positive
    assert res.strictly_positive
    assert res.witness is not None
    assert res.witness.levels == 2


def test_hamburger_accepts_singular_psd_without_witness():
    # 2-dimensional representation: level-2 kernel is PSD but rank deficient
    rng = np.random.default_rng(43)
    mats, v = random_representation(rng, 1, 2)
    f = from_representation(mats, v, max_degree=4)
    res = hamburger_check(f.moments, 1, 2)
    assert res.positive
    assert not res.strictly_positive
    assert res.witness is None


def test_hamburger_refuses_asymmetric_moments():
    moments = {EMPTY: 1.0 + 0.0j, Word((1,)): 0.0j, Word((2,)): 0.0j,
               Word((1, 2)): 0.5 + 0.0j, Word((2, 1)): 0.3 + 0.0j,
               Word((1, 1)): 1.0 + 0.0j, Word((2, 2)): 1.0 + 0.0j}
    res = hamburger_check(moments, 2, 1)
    assert not res.positive
    assert res.reason and "symmetry" in res.reason


def test_hamburger_missing_partner_is_an_input_error():
    moments = {EMPTY: 1.0 + 0.0j, Word((1, 2)): 0.5 + 0.0j,
               Word((1,)): 0.0j, Word((2,)): 0.0j,
               Word((1, 1)): 1.0 + 0.0j, Word((2, 2)): 1.0 + 0.0j}
    with pytest.raises(DataIncompleteError):
        hamburger_check(moments, 2, 1)


def test_hamburger_keeps_a_strict_verdict_under_a_small_tol():
    # lambda_min of the level-3 Gram is 2.25e-10: strict under tol=1e-14 but
    # not under the default tol, which must not come back to refuse it
    f = from_representation(np.diag([-1.0, 0.0, 1.0, 1.0 + 3e-5])[None], np.ones(4) / 2,
                            max_degree=6)
    res = hamburger_check(f.moments, 1, 3, tol=1e-14)
    assert res.strictly_positive
    assert 2.2e-10 < res.min_eigenvalue < 2.3e-10
    assert res.witness is not None and res.witness.levels == 3
    assert not hamburger_check(f.moments, 1, 3).strictly_positive


def test_strict_hamburger_decomposes_the_gram_once(monkeypatch):
    mats, v = random_representation(np.random.default_rng(46), 2, 20)
    f = from_representation(mats, v, max_degree=4)
    calls = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kw):
            calls.append(_name)
            return _orig(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    res = hamburger_check(f.moments, 2, 2)
    assert res.strictly_positive and res.witness is not None
    assert len(calls) == 1


def test_positive_but_not_strict_hamburger_takes_no_eigenvectors(monkeypatch):
    # d = 100 is below the 127 words of length <= 6: the Gram is singular PSD
    mats, v = random_representation(np.random.default_rng(47), 2, 100)
    f = from_representation(mats, v, max_degree=12)
    calls = count_linalg(monkeypatch, "eigh", "eigvalsh")
    res = hamburger_check(f.moments, 2, 6)
    assert res.positive and not res.strictly_positive and res.witness is None
    assert calls == ["eigvalsh"]


def test_hamburger_agrees_with_strict_positivity():
    rng = np.random.default_rng(44)
    for _ in range(50):
        s1 = float(rng.uniform(-1, 1))
        s2 = float(rng.uniform(-0.5, 2.0))
        s3 = float(rng.uniform(-2, 2))
        s4 = float(rng.uniform(-0.5, 4.0))
        f = hankel_n1([1.0, s1, s2, s3, s4])
        res = hamburger_check(f.moments, 1, 2, tol=STRICT_TOL)
        pos = strict_positivity(f, 2)
        assert res.positive == (pos.min_eigenvalue >= -pos.threshold)
        assert res.strictly_positive == pos.ok
        assert res.min_eigenvalue == pos.min_eigenvalue


@functools.lru_cache(maxsize=None)
def random_family(n_gen, level):
    """The truncation-``level`` family of a random representation, blocks to level + 1."""
    dim = len(words_up_to(level + 1, n_gen)) + 4
    mats, v = random_representation(np.random.default_rng([n_gen, level]), n_gen, dim)
    f = from_representation(mats, v, max_degree=2 * (level + 1))
    return build(extract(f, orthogonalize(f, level + 1), level + 1), level)


@st.composite
def family_and_word(draw):
    n_gen = draw(st.integers(1, 3))
    level = draw(st.integers(0, 3))
    letters = draw(st.lists(st.integers(1, n_gen), max_size=2 * level + 4))
    return random_family(n_gen, level), Word(tuple(letters))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=family_and_word())
def test_moment_is_the_vacuum_matrix_element(case):
    fam, w = case
    e0 = np.zeros(fam[0].size, dtype=complex)
    e0[0] = 1.0
    ref = complex(np.vdot(e0, word_apply(fam, w, e0)))
    for family in (fam, list(fam)):
        mv = moment(family, w)
        assert abs(mv.value - ref) <= 1e-12 * max(1.0, abs(ref))
        assert mv.truncated == (len(w) > fam[0].level)


def test_moment_builds_no_word(monkeypatch):
    fam = random_family(2, 2)
    ws = words_up_to(5, 2) + [Word((1, 2) * 4)]
    built = []
    init = Word.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Word, "__post_init__", counted)
    for w in ws:
        moment(fam, w)
    moment(list(fam), ws[-1])
    assert built == []


@st.composite
def family_and_long_word(draw):
    n_gen = draw(st.integers(1, 3))
    level = draw(st.integers(0, 3))
    n = draw(st.integers(2 * level + 2, 2 * level + 6))
    letters = draw(st.lists(st.integers(1, n_gen), min_size=n, max_size=n))
    return random_family(n_gen, level), Word(tuple(letters))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=family_and_long_word())
def test_moment_past_twice_the_level_is_the_product_chain(case):
    # past 2 level + 1 the middle letters are applied, one matvec each
    fam, w = case
    e0 = np.eye(1, fam[0].size, dtype=complex)[0]
    ref = chain_moment([J.matrix for J in fam], e0, w.letters)
    for family in (fam, list(fam)):
        mv = moment(family, w)
        assert mv.truncated
        assert abs(mv.value - ref) <= 1e-12 * max(1.0, abs(ref))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_gen=st.integers(1, 3), level=st.integers(0, 3), data=st.data())
def test_moment_refuses_a_foreign_letter_at_any_length(n_gen, level, data):
    # lengths up to 2 level + 1 are read by rank, longer ones by matvecs
    fam = random_family(n_gen, level)
    n = data.draw(st.integers(1, 2 * level + 6), label="length")
    letters = data.draw(st.lists(st.integers(1, n_gen), min_size=n, max_size=n), label="letters")
    at = data.draw(st.integers(0, n - 1), label="at")
    letters[at] = data.draw(st.integers(n_gen + 1, n_gen + 3), label="foreign")
    w = Word(tuple(letters))
    for family in (fam, list(fam)):
        with pytest.raises(ValidationError,
                           match=re.escape(f"word {w} uses letters beyond {n_gen} generators")):
            moment(family, w)


def test_family_matrices_are_read_only():
    fam = random_family(2, 1)
    with pytest.raises(ValueError):
        fam[0].matrix[0, 0] = 2.0
    with pytest.raises(FrozenInstanceError):
        fam[0].matrix = np.eye(fam[0].size)


def test_moment_refuses_a_foreign_letter():
    fam = random_family(2, 1)
    for w in (Word.of(3), Word.of(1, 2, 3, 1, 2, 1, 2), Word.of(3, 1, 2), Word.of(1, 3, 2, 1)):
        with pytest.raises(ValidationError, match=f"word {w} uses letters beyond 2"):
            moment(fam, w)


def test_clean_hamburger_checks_the_involution_once(monkeypatch):
    mats, v = random_representation(np.random.default_rng(45), 2, 12)
    f = from_representation(mats, v, max_degree=4)
    calls = []

    def counted(*args):
        calls.append(args)
        return _involution_defect(*args)

    monkeypatch.setattr(functional_mod, "_involution_defect", counted)
    monkeypatch.setattr(jacobi_mod, "_involution_defect", counted)
    assert hamburger_check(f.moments, 2, 2).strictly_positive
    assert len(calls) == 1


def test_hamburger_refusals_keep_their_order():
    asym = {Word((1, 2)): 0.5 + 0.0j, Word((2, 1)): 0.3 + 0.0j}
    # the involution check comes before the unit moment
    res = hamburger_check(asym, 2, 1)
    assert not res.positive and "symmetry" in res.reason
    with pytest.raises(DataIncompleteError, match="empty-word"):
        hamburger_check({Word((1,)): 0.0j}, 1, 1)
    with pytest.raises(ValidationError, match="unital"):
        hamburger_check({EMPTY: 2.0, Word((1,)): 0.0j}, 1, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_hamburger_refuses_a_non_finite_moment(bad):
    # an input error, named before the involution check reads the values
    with pytest.raises(ValidationError, match=r"moment at 1 is not finite"):
        hamburger_check({"e": 1, "1": bad, "1.1": 1}, 1, 1)
    with pytest.raises(ValidationError, match=r"moment at 1\.2 is not finite"):
        hamburger_check({"e": 1, "1": 0, "2": 0, "1.2": bad, "2.1": 0.5}, 2, 1)


@pytest.mark.parametrize("block", ["A", "B"])
def test_build_refuses_non_finite_blocks(block):
    a_vals, b_vals = [0.0, 0.0], [1.0, 1.0]
    (a_vals if block == "A" else b_vals)[1] = float("nan")
    coeffs = scalar_blocks(1, a_vals, b_vals)
    with pytest.raises(ValidationError, match=f"{block} block \\(n=1, k=1\\) has a non-finite"):
        build(coeffs, 1)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_hamburger_refuses_a_bad_tol(tol):
    # NaN used to answer "yes, not strict" on a strictly positive set
    moments = {Word((1,) * n): s for n, s in enumerate(gaussian_moments(8))}
    with pytest.raises(ValidationError, match="tol must be a finite number >= 0"):
        hamburger_check(moments, 1, 4, tol=tol)
    assert hamburger_check(moments, 1, 4, tol=0.0).strictly_positive
