"""The rank core: graded-lex index arithmetic, block-gathered Gram matrices,
one-product moments, vectorized symmetry checks, and one Gram per pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoly import functional, jacobi, orthopoly, recurrence
from ncpoly.errors import DataIncompleteError, ValidationError
from ncpoly.functional import (MomentFunctional, from_representation, gram,
                               kernel_entry)
from ncpoly.jacobi import hamburger_check
from ncpoly.orthopoly import szego_recursion
from ncpoly.recurrence import favard
from ncpoly.words import (EMPTY, Word, enumerate_level, global_index, involution,
                          level_offsets, rank_groups, reversal, shift_map,
                          word_index, words_up_to)

from test_functional import random_hankel, random_representation
from test_orthopoly import random_toeplitz


def reference_gram(f, level):
    """Entry-by-entry Gram matrix: K(sigma, tau) above the diagonal, mirrored below."""
    ws = words_up_to(level, f.n_generators)
    G = np.empty((len(ws), len(ws)), dtype=complex)
    for i, s in enumerate(ws):
        for j, t in enumerate(ws):
            G[i, j] = np.conj(G[j, i]) if j < i else kernel_entry(f, s, t)
    return G


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def count_gram_calls(monkeypatch):
    """Count gram() calls made through any ncpoly module that holds it."""
    calls = []
    real = functional.gram

    def counted(f, level):
        calls.append(level)
        return real(f, level)

    for mod in (functional, orthopoly, recurrence, jacobi):
        if getattr(mod, "gram", None) is real:
            monkeypatch.setattr(mod, "gram", counted)
    return calls


@pytest.mark.parametrize("n_gen", [1, 2, 3])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_hankel_gram_is_bitwise_the_entry_reference(n_gen, level):
    rng = np.random.default_rng([n_gen, level])
    f = MomentFunctional(n_generators=n_gen, kind="hankel", max_degree=2 * level,
                         moments=random_hankel(rng, n_gen, 2 * level))
    G = gram(f, level)
    assert G.words == words_up_to(level, n_gen)
    assert np.array_equal(bits(G.entries), bits(reference_gram(f, level)))


@pytest.mark.parametrize("n_gen", [1, 2, 3])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_toeplitz_gram_is_bitwise_the_entry_reference(n_gen, level):
    rng = np.random.default_rng([7, n_gen, level])
    f = random_toeplitz(rng, n_gen, level)
    assert np.array_equal(bits(gram(f, level).entries), bits(reference_gram(f, level)))


def test_rank_tables_match_word_operations():
    for N in (1, 2, 3):
        for n in range(5):
            ws = enumerate_level(n, N)
            assert [word_index(involution(w), N) for w in ws] == reversal(n, N).tolist()
        L = 3
        offs = level_offsets(N, L)
        assert offs == [sum(N**m for m in range(n)) for n in range(L + 2)]
        kmap = shift_map(N, L)
        short = [w for w in words_up_to(L, N) if len(w) < L]
        for k in range(1, N + 1):
            assert kmap[k - 1].tolist() == [global_index(Word((k,) + u.letters), N)
                                            for u in short]


def test_rank_groups_reads_letters():
    ws = [Word.of(2, 1, 3), EMPTY, Word.of(1, 4), Word.of(3, 3, 1), Word.of(2)]
    groups, foreign = rank_groups(ws, 3)
    assert foreign == [2]
    pos, ranks, rev = groups[3]
    assert pos.tolist() == [0, 3]
    assert ranks.tolist() == [word_index(ws[0], 3), word_index(ws[3], 3)]
    assert rev.tolist() == [word_index(involution(ws[0]), 3),
                            word_index(involution(ws[3]), 3)]
    assert groups[0][1].tolist() == [0] and groups[1][1].tolist() == [1]


@pytest.mark.parametrize("n_gen,dim,degree", [(1, 5, 7), (2, 7, 6), (2, 6, 5), (3, 5, 4)])
def test_from_representation_matches_direct_products(n_gen, dim, degree):
    rng = np.random.default_rng([n_gen, dim, degree])
    mats, v = random_representation(rng, n_gen, dim, spread=1.5)
    f = from_representation(mats, v, max_degree=degree)
    assert len(f.moments) == len(words_up_to(degree, n_gen))
    norm = max(np.linalg.norm(X, 2) for X in mats)
    for w in words_up_to(degree, n_gen):
        M = np.eye(dim, dtype=complex)
        for letter in w.letters:
            M = M @ mats[letter - 1]
        bound = 1e-12 * max(1.0, norm ** len(w))
        assert abs(f.moments[w] - np.vdot(v, M @ v)) <= bound


def test_gram_names_a_missing_hankel_moment():
    rng = np.random.default_rng(11)
    moments = random_hankel(rng, 2, 2)
    del moments[Word.of(2, 2)]
    f = MomentFunctional(n_generators=2, kind="hankel", max_degree=2, moments=moments)
    with pytest.raises(DataIncompleteError) as err:
        gram(f, 1)
    assert err.value.key == "2.2"


def test_gram_names_a_missing_toeplitz_moment():
    f = random_toeplitz(np.random.default_rng(12), 2, 2)
    del f.moments[Word.of(1, 2)]
    with pytest.raises(DataIncompleteError) as err:
        gram(f, 2)
    assert err.value.key == "1.2"


def test_gram_reads_moments_changed_after_construction():
    rng = np.random.default_rng(13)
    f = MomentFunctional(n_generators=2, kind="hankel", max_degree=2,
                         moments=random_hankel(rng, 2, 2))
    before = gram(f, 1).entries
    f.moments[Word.of(1, 1)] += 0.25
    after = gram(f, 1).entries
    assert after[1, 1] == before[1, 1] + 0.25
    assert np.array_equal(bits(after), bits(reference_gram(f, 1)))


def test_missing_partner_names_both_words():
    moments = {EMPTY: 1.0, Word.of(1): 0.0, Word.of(2): 0.0, Word.of(1, 2): 0.5}
    with pytest.raises(ValidationError, match=r"moment for 2\.1 missing .*of 1\.2"):
        MomentFunctional(n_generators=2, kind="hankel", max_degree=2, moments=moments)
    with pytest.raises(DataIncompleteError, match=r"of 1\.2") as err:
        hamburger_check(moments, 2, 1)
    assert err.value.key == "2.1"


def test_asymmetry_names_the_word():
    moments = {EMPTY: 1.0, Word.of(1, 2): 0.5 + 0.1j, Word.of(2, 1): 0.5 + 0.1j}
    with pytest.raises(ValidationError, match=r"violated at 1\.2"):
        MomentFunctional(n_generators=2, kind="hankel", max_degree=2, moments=moments)
    res = hamburger_check(moments, 2, 1)
    assert not res.positive and "fails at 1.2" in res.reason


def test_letters_beyond_the_alphabet_are_named():
    moments = {EMPTY: 1.0, Word.of(3): 0.0}
    with pytest.raises(ValidationError, match="word 3 uses letters beyond 2"):
        MomentFunctional(n_generators=2, kind="hankel", max_degree=1, moments=moments)
    with pytest.raises(ValidationError, match="word 3 uses letters beyond 2"):
        hamburger_check(moments, 2, 1)


def test_strict_hamburger_builds_one_gram(monkeypatch):
    calls = count_gram_calls(monkeypatch)
    mats, v = random_representation(np.random.default_rng(14), 2, 12)
    f = from_representation(mats, v, max_degree=4)
    res = hamburger_check(f.moments, 2, 2)
    assert res.strictly_positive and res.witness is not None
    assert calls == [2]


def test_szego_recursion_builds_one_gram(monkeypatch):
    f = random_toeplitz(np.random.default_rng(15), 2, 3)
    calls = count_gram_calls(monkeypatch)
    szego_recursion(f, 3)
    assert calls == [3]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_gen=st.integers(1, 2), level=st.integers(1, 3))
def test_favard_of_the_witness_reproduces_the_moments(seed, n_gen, level):
    # d exceeds the number of words of length <= level, so the kernel is
    # strictly positive and the witness exists
    dim = len(words_up_to(level, n_gen)) + 4
    mats, v = random_representation(np.random.default_rng(seed), n_gen, dim)
    f = from_representation(mats, v, max_degree=2 * level)
    res = hamburger_check(f.moments, n_gen, level)
    assert res.strictly_positive
    _, back = favard(res.witness)
    assert set(back.moments) == set(f.moments)
    scale = max(1.0, max(abs(s) for s in f.moments.values()))
    gap = max(abs(back.moments[w] - s) for w, s in f.moments.items())
    assert gap <= 1e-8 * scale
