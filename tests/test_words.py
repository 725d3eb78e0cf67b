import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoly.errors import ValidationError
from ncpoly.words import (EMPTY, Word, concat, enumerate_level, global_index,
                          involution, predecessor, successor, word_at,
                          word_index, words_up_to)


def test_empty_word():
    assert len(EMPTY) == 0
    assert str(EMPTY) == "e"
    assert involution(EMPTY) == EMPTY


def test_parse_and_str_roundtrip():
    for text in ["e", "1", "2.1", "1.2.1", "3.3.3.1"]:
        assert str(Word.parse(text)) == text


def test_parse_rejects_garbage():
    for text in ["", "0", "1..2", "a.b", "1.0.2", "-1"]:
        with pytest.raises(ValidationError):
            Word.parse(text)


def test_parse_respects_alphabet_bound():
    with pytest.raises(ValidationError):
        Word.parse("1.3", n_generators=2)


def test_letters_must_be_positive():
    with pytest.raises(ValidationError):
        Word((0, 1))


def test_involution_reverses():
    w = Word((1, 2, 2, 3))
    assert involution(w) == Word((3, 2, 2, 1))
    assert involution(involution(w)) == w


def test_concat():
    assert concat(Word((1,)), Word((2, 1))) == Word((1, 2, 1))
    assert concat(EMPTY, Word((2,))) == Word((2,))


def test_graded_lex_order():
    ws = words_up_to(3, 2)
    assert ws[0] == EMPTY
    assert ws[1:3] == [Word((1,)), Word((2,))]
    keys = [w.sort_key() for w in ws]
    assert keys == sorted(keys)
    assert len(ws) == 1 + 2 + 4 + 8


def test_enumerate_level_count_and_order():
    lvl = enumerate_level(2, 3)
    assert len(lvl) == 9
    assert lvl[0] == Word((1, 1))
    assert lvl[-1] == Word((3, 3))


def test_successor_walks_the_whole_order():
    ws = words_up_to(3, 2)
    cur = EMPTY
    for expected in ws[1:]:
        cur = successor(cur, 2)
        assert cur == expected


def test_predecessor_inverts_successor():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 4))
        letters = tuple(int(rng.integers(1, N + 1)) for _ in range(n))
        w = Word(letters)
        assert successor(predecessor(w, N), N) == w


def test_predecessor_of_empty_fails():
    with pytest.raises(ValueError):
        predecessor(EMPTY, 2)


def test_predecessor_crosses_levels():
    assert predecessor(Word((1, 1)), 2) == Word((2,))
    assert successor(Word((2, 2)), 2) == Word((1, 1, 1))


def test_word_index_and_word_at():
    for N in (1, 2, 3):
        for n in range(4):
            lvl = enumerate_level(n, N)
            for rank, w in enumerate(lvl):
                assert word_index(w, N) == rank
                assert word_at(n, rank, N) == w


def test_global_index_matches_position():
    ws = words_up_to(4, 2)
    for i, w in enumerate(ws):
        assert global_index(w, 2) == i


def old_word_letters(letters):
    """The normalization every ``Word`` construction used to run."""
    letters = tuple(map(int, letters))
    if letters and min(letters) < 1:
        raise ValidationError(f"letters must be >= 1, got {letters}")
    return letters


LETTER = st.one_of(st.integers(-2, 4), st.integers(-2, 4).map(np.int64), st.booleans(),
                   st.floats(-2.5, 4.5, allow_nan=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(LETTER, max_size=5).map(tuple), st.lists(LETTER, max_size=5),
                 st.lists(st.integers(-1, 3), max_size=5).map(tuple)))
def test_word_normalizes_letters_as_before(letters):
    try:
        want = old_word_letters(letters)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            Word(letters)
        assert str(got.value) == str(exc)
        return
    w = Word(letters)
    assert w.letters == want and type(w.letters) is tuple
    assert all(type(l) is int for l in w.letters)
    assert str(w) == str(Word(want)) and hash(w) == hash(Word(want))
    if type(letters) is tuple and all(type(l) is int for l in letters):
        assert w.letters is letters


def test_enumerate_level_constructs_each_word_once(monkeypatch):
    calls = []
    init = Word.__post_init__

    def counted(self):
        calls.append(self)
        init(self)

    monkeypatch.setattr(Word, "__post_init__", counted)
    for N, n in ((1, 4), (2, 3), (3, 2), (2, 0)):
        calls.clear()
        assert len(enumerate_level(n, N)) == N**n
        assert len(calls) == N**n
