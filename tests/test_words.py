import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoly import words as words_mod
from ncpoly.errors import ValidationError
from ncpoly.functional import from_representation
from ncpoly.jacobi import hamburger_check
from ncpoly.recurrence import favard
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


@pytest.fixture
def counted_words(monkeypatch):
    """Empty word tables and a list of every Word constructed from here on."""
    calls = []
    init = Word.__post_init__

    def counted(self):
        calls.append(self)
        init(self)

    monkeypatch.setattr(Word, "__post_init__", counted)
    monkeypatch.setattr(words_mod, "_TABLES", type(words_mod._TABLES)())
    return calls


def test_enumerate_level_constructs_each_word_once(counted_words):
    calls = counted_words
    for N, n in ((1, 4), (2, 3), (3, 2), (2, 0)):
        calls.clear()
        cold = enumerate_level(n, N)
        assert len(cold) == N**n
        assert len(calls) == N**n
        # nothing holds the table, so the next call builds it again
        calls.clear()
        assert enumerate_level(n, N) == cold and len(calls) == N**n
        held = words_mod._table(n, N)
        calls.clear()
        warm = enumerate_level(n, N)
        assert warm == cold and calls == []
        assert all(a is b for a, b in zip(warm, held.words))
        # a returned list is the caller's: changing it leaves the table alone
        warm.reverse()
        warm.append(Word.of(N + 1))
        calls.clear()
        assert enumerate_level(n, N) == cold and calls == []
        del held
        assert len(words_mod._TABLES) == 0
    held = [words_mod._table(1, 2), words_mod._table(2, 2)]
    calls.clear()
    ws = words_up_to(3, 2)
    assert len(calls) == 1 + 8  # levels 0 and 3; levels 1 and 2 are held
    assert all(a is b for a, b in zip(ws[1:7], held[0].words + held[1].words))


def test_a_functional_holds_the_words_of_its_moments(counted_words):
    calls = counted_words
    mats = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    f = from_representation(mats, np.array([1.0, 0.0]), max_degree=4)
    assert len(calls) == 30  # levels 1 to 4; the empty word is EMPTY
    calls.clear()
    ws = words_up_to(4, 2)
    assert len(calls) == 1 and all(w in f.moments for w in ws)
    assert all(a is b for a, b in zip(ws[1:], list(f.moments)[1:]))
    del f
    gc.collect()
    assert len(words_mod._TABLES) == 0


def test_word_constructions_do_not_depend_on_earlier_calls(counted_words):
    calls = counted_words
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((2, 8, 8))
    mats = mats + mats.transpose(0, 2, 1)
    v = np.ones(8) / np.sqrt(8)

    def pipeline():
        f = from_representation(mats, v, 4)
        res = hamburger_check(f.moments, 2, 2)
        _, f2 = favard(res.witness)
        return f2.moments, words_up_to(3, 2)

    counts = []
    for _ in range(3):
        calls.clear()
        pipeline()
        counts.append(len(calls))
    # favard's moments, the Gram's words and the words of length <= 3 reuse
    # the tables of from_representation's functional; only the two level-0
    # words (the Gram's and words_up_to's) are new
    assert counts == [30 + 2] * 3


def test_a_failed_build_publishes_no_table(monkeypatch):
    monkeypatch.setattr(words_mod, "_TABLES", type(words_mod._TABLES)())
    init = Word.__post_init__

    def fail_late(self):
        if self.letters == (2, 2):
            raise RuntimeError("interrupted")
        init(self)

    monkeypatch.setattr(Word, "__post_init__", fail_late)
    with pytest.raises(RuntimeError):
        enumerate_level(2, 2)
    assert len(words_mod._TABLES) == 0
    monkeypatch.setattr(Word, "__post_init__", init)
    assert enumerate_level(2, 2) == [Word.of(1, 1), Word.of(1, 2), Word.of(2, 1), Word.of(2, 2)]


def test_concurrent_first_calls_read_one_complete_table(counted_words):
    got = []
    start = threading.Barrier(4, timeout=60)

    def first_call():
        start.wait()
        got.append(words_mod._table(11, 2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and all(t is got[0] for t in got)
    assert len(got[0].words) == 2**11 and len(counted_words) == 2**11
    assert words_mod._TABLES[11, 2] is got[0]


def test_shared_words_are_ordinary_words():
    table = words_up_to(3, 2)
    for w in table:
        fresh = Word(list(w.letters))
        assert fresh is not w and fresh == w and hash(fresh) == hash(w)
        assert not fresh < w and not w < fresh
    index = dict.fromkeys(table, 0)
    for text in ("e", "1", "2.1", "1.2.2"):
        assert Word.parse(text) in index
    assert Word.of(1, 3) not in index
    mats = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    f = from_representation(mats, np.array([1.0, 0.0]), max_degree=3)
    assert f.moment(Word.of(1, 1)) == 1.0
    assert f.moment(Word.parse("2.1.2")) == f.moments[table[-3]]
