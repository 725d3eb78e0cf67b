import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import predecessor, successor

from ncpoly import words as words_mod
from ncpoly.errors import ValidationError
from ncpoly.functional import from_representation
from ncpoly.jacobi import hamburger_check
from ncpoly.recurrence import favard
from ncpoly.words import (EMPTY, Word, concat, enumerate_level, global_index,
                          involution, word_at, word_index, words_up_to)


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
        cur = Word(successor(cur.letters, 2))
        assert cur == expected


def test_predecessor_inverts_successor():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 4))
        letters = tuple(int(rng.integers(1, N + 1)) for _ in range(n))
        w = Word(letters)
        assert successor(predecessor(w.letters, N), N) == w.letters


def test_predecessor_of_empty_fails():
    with pytest.raises(ValueError):
        predecessor(EMPTY.letters, 2)


def test_predecessor_crosses_levels():
    assert predecessor((1, 1), 2) == (2,)
    assert successor((2, 2), 2) == (1, 1, 1)


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
    """A list of every Word constructed from here on."""
    calls = []
    init, make, build = Word.__post_init__, words_mod._word, words_mod._build

    def counted(self):
        calls.append(self)
        init(self)

    def counted_make(letters):
        calls.append(letters)
        return make(letters)

    def counted_build(n, n_generators):
        words = build(n, n_generators)
        calls.extend(words)
        return words

    monkeypatch.setattr(Word, "__post_init__", counted)
    monkeypatch.setattr(words_mod, "_word", counted_make)
    monkeypatch.setattr(words_mod, "_build", counted_build)
    return calls


def test_enumerate_level_constructs_each_word_once(counted_words):
    calls = counted_words
    for N, n in ((1, 4), (2, 3), (3, 2), (2, 0)):
        calls.clear()
        first = enumerate_level(n, N)
        assert len(first) == N**n and len(calls) == N**n
        # every call builds its words afresh
        calls.clear()
        second = enumerate_level(n, N)
        assert second == first and len(calls) == N**n
        assert not any(a is b for a, b in zip(first, second))
        # a returned list is the caller's: changing it changes no later call
        first.reverse()
        first.append(Word.of(N + 1))
        assert enumerate_level(n, N) == second
    calls.clear()
    assert len(words_up_to(3, 2)) == 15 and len(calls) == 15


@pytest.mark.parametrize("N", [1, 2, 3])
def test_a_negative_level_has_no_words(N):
    with pytest.raises(ValueError, match=r"^level must be >= 0$"):
        enumerate_level(-1, N)
    assert words_up_to(-1, N) == []


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
    # no moment is keyed by a built word: only the Gram's words (lengths <= 2)
    # and the words of length <= 3 are built, each call afresh
    assert counts == [7 + 15] * 3


def moment_pipeline(mats, v):
    """Hamburger verdict and witness, Favard basis and both moment sets, as bits."""
    f = from_representation(mats, v, 4)
    res = hamburger_check(f.moments, 2, 2)
    basis, f2 = favard(res.witness)
    out = [res.strictly_positive, np.array(res.min_eigenvalue).view(np.int64).tolist(),
           basis.matrix().view(np.int64).tolist()]
    for blocks in (res.witness.A, res.witness.B):
        out += [list(blocks), [b.view(np.int64).tolist() for b in blocks.values()]]
    for g in (f, f2):
        out += [list(g.moments), np.array(list(g.moments.values())).view(np.int64).tolist()]
    return out


def test_concurrent_pipelines_match_a_serial_run():
    rng = np.random.default_rng(7)
    reps = []
    for _ in range(4):
        mats = rng.standard_normal((2, 8, 8))
        reps.append((mats + mats.transpose(0, 2, 1), np.ones(8) / np.sqrt(8)))
    serial = [moment_pipeline(*rep) for rep in reps]
    got = [None] * 4
    start = threading.Barrier(4, timeout=60)

    def run(k):
        start.wait()
        got[k] = moment_pipeline(*reps[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


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


def test_a_moment_pipeline_checks_no_word(monkeypatch):
    checked = []
    init = Word.__post_init__

    def counted(self):
        checked.append(self)
        init(self)

    monkeypatch.setattr(Word, "__post_init__", counted)
    rng = np.random.default_rng(11)
    mats = rng.standard_normal((2, 8, 8))
    mats = mats + mats.transpose(0, 2, 1)
    f = from_representation(mats, np.ones(8) / np.sqrt(8), 4)
    res = hamburger_check(f.moments, 2, 2)
    _, f2 = favard(res.witness)
    assert len(f2.moments) == len(f.moments) == 31
    # the library builds the words of the pipeline without checking them
    assert checked == []


@pytest.mark.parametrize("N", [1, 2, 3])
def test_shared_words_match_words_built_by_hand(N):
    shared = words_up_to(4, N)
    hand = [Word(list(w.letters)) for w in shared]
    for i, (w, h) in enumerate(zip(shared, hand)):
        assert type(w) is Word and type(w.letters) is tuple
        assert all(type(l) is int for l in w.letters)
        assert w == h and hash(w) == hash(h) and repr(w) == repr(h)
        assert pickle.dumps(w) == pickle.dumps(h)
        back = pickle.loads(pickle.dumps(w))
        assert type(back) is Word and back == h and hash(back) == hash(h)
        assert dataclasses.replace(w) == h
        assert dataclasses.replace(w, letters=[N]) == Word.of(N)
        if i:
            assert shared[i - 1] < w and hand[i - 1] < w and shared[i - 1] < h
            assert not w < shared[i - 1] and not h < shared[i - 1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.letters = (1,)
        assert w == h


def old_parse(text, n_generators=None):
    """``Word.parse`` as it read when every parsed word went through ``Word(...)``."""
    text = text.strip()
    if text == "e":
        return Word()
    try:
        letters = tuple(map(int, text.split(".")))
    except ValueError:
        raise ValidationError(f"cannot parse word {text!r}") from None
    w = Word(letters)
    if n_generators is not None and max(letters) > n_generators:
        raise ValidationError(f"word {text!r} uses letters beyond {n_generators} generators")
    return w


DOTTED = st.one_of(st.just("e"), st.lists(st.integers(-1, 4), max_size=5).map(
    lambda ls: ".".join(map(str, ls))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(DOTTED, st.one_of(st.none(), st.integers(1, 3)))
def test_parse_accepts_and_refuses_as_before(text, n_generators):
    try:
        want = old_parse(text, n_generators)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            Word.parse(text, n_generators)
        assert str(got.value) == str(exc)
        return
    w = Word.parse(text, n_generators)
    assert type(w) is Word and w == want and hash(w) == hash(want)
    assert all(type(l) is int for l in w.letters)
