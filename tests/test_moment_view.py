"""The moments the library computes: a Word-keyed view over rank arrays."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_words, per_length_moments, rank_array_moments, representation_moments

from ncpoly import words as words_mod
from ncpoly.errors import DataIncompleteError, ValidationError
from ncpoly.functional import (MomentFunctional, _hankel_moments, _MomentView, _orbit,
                               from_representation)
from ncpoly.jacobi import hamburger_check
from ncpoly.orthopoly import orthogonalize
from ncpoly.recurrence import extract, favard
from ncpoly.words import EMPTY, Word, involution

from test_functional import random_representation


def bits(values) -> np.ndarray:
    return np.array(list(values), dtype=complex).view(np.int64)


LEVELS = {1: 4, 2: 3, 3: 2}


def library_functional(source, n_gen, seed=0):
    level = LEVELS[n_gen]
    mats, v = random_representation(np.random.default_rng([seed, n_gen]), n_gen, 20)
    f = from_representation(mats, v, max_degree=2 * level)
    if source == "favard":
        f = favard(extract(f, orthogonalize(f, level), level))[1]
    return f, mats, v


def word_reference(view):
    """The view's arrays read word by word, keyed by ``Word``."""
    return {Word(k): s for k, s in rank_array_moments(view._arrays, view.n_generators).items()}


@pytest.mark.parametrize("n_gen", [1, 2, 3])
@pytest.mark.parametrize("source", ["from_representation", "favard"])
def test_moment_view_matches_the_word_reference(source, n_gen):
    f, mats, v = library_functional(source, n_gen)
    view = f.moments
    assert type(view) is _MomentView and not isinstance(view, dict)
    ref = word_reference(view)
    assert len(ref) == sum(n_gen**n for n in range(f.max_degree + 1))
    # reads by word, iteration order, items and values, bit for bit
    assert all(type(view[w]) is complex for w in ref)
    assert np.array_equal(bits(view[w] for w in ref), bits(ref.values()))
    assert list(view) == list(ref) and list(view.keys()) == list(ref)
    assert [w for w, _ in view.items()] == list(ref)
    assert np.array_equal(bits(s for _, s in view.items()), bits(ref.values()))
    assert np.array_equal(bits(view.values()), bits(ref.values()))
    assert len(view) == len(ref) == len(view.items()) == len(view.values())
    assert all(w in view for w in ref)
    # the values are the moments <X_w v, v>, computed another way
    want = representation_moments(mats, v, f.max_degree)
    assert max(abs(view[Word(k)] - s) for k, s in want.items()) < 1e-10
    # what the view does not hold, as a dict would not
    absent = [Word.of(n_gen + 1), Word.of(1, n_gen + 1), Word((1,) * (f.max_degree + 1)),
              "1", (1,), 1, None]
    for key in absent:
        assert key not in view and key not in ref
        assert view.get(key) is None and view.get(key, 0.5) == 0.5
        with pytest.raises(KeyError):
            view[key]
    assert view == ref and ref == view and view != {**ref, EMPTY: 2.0}
    assert f == MomentFunctional(n_generators=n_gen, kind="hankel",
                                 max_degree=f.max_degree, moments=ref)
    assert repr(view) == repr(ref)
    # a pickle round trip keeps the view and every value's bits
    back = pickle.loads(pickle.dumps(view))
    assert type(back) is _MomentView and list(back) == list(ref)
    assert np.array_equal(bits(back.values()), bits(ref.values()))
    assert pickle.loads(pickle.dumps(f)) == f


@pytest.mark.parametrize("n_gen", [1, 2])
def test_an_edited_view_is_the_dict_it_wraps(n_gen):
    f, _, _ = library_functional("from_representation", n_gen, seed=1)
    view = f.moments
    ref = word_reference(view)
    w, gone = Word((1, n_gen)), Word((n_gen, 1))
    view[w] *= 2.0
    ref[w] *= 2.0
    del view[gone]
    del ref[gone]
    view[Word.of(n_gen + 1)] = 0.5
    ref[Word.of(n_gen + 1)] = 0.5
    assert view == ref and list(view) == list(ref) and len(view) == len(ref)
    assert list(view.items()) == list(ref.items())
    assert view._arrays is None  # the arrays no longer back the view
    back = pickle.loads(pickle.dumps(view))
    assert type(back) is _MomentView and list(back.items()) == list(ref.items())
    back[EMPTY] = 2.0
    assert view[EMPTY] == 1.0
    view.clear()
    assert len(view) == 0 and list(view) == [] and view == {}


@pytest.mark.parametrize("n_gen", [1, 2, 3])
def test_a_functional_of_a_view_shares_its_arrays(n_gen, monkeypatch):
    f, _, _ = library_functional("favard", n_gen, seed=2)
    built = []
    monkeypatch.setattr(Word, "__post_init__", lambda self: built.append(self))
    monkeypatch.setattr(words_mod, "_word", lambda letters: built.append(letters))
    monkeypatch.setattr(words_mod, "_build", lambda n, N: built.append((n, N)) or [])
    g = MomentFunctional(n_gen, "hankel", f.max_degree, f.moments)
    assert built == []
    monkeypatch.undo()
    assert type(g.moments) is _MomentView and g.moments is not f.moments
    assert all(a is b for a, b in zip(g.moments._arrays, f.moments._arrays))
    assert g == f and list(g.moments) == list(f.moments)
    assert np.array_equal(bits(g.moments.values()), bits(f.moments.values()))
    # an edit of either turns only that one into a dict
    ref = word_reference(f.moments)
    w = Word.of(n_gen)
    g.moments[w] = 2.0
    assert f.moments._dict is None and f.moments == ref
    h = MomentFunctional(n_gen, "hankel", f.max_degree, f.moments)
    del f.moments[EMPTY]
    assert h.moments._dict is None and h.moments == ref
    assert g.moments[w] == 2.0 and EMPTY not in f.moments


def outcome(moments, n_gen, level):
    """Everything ``hamburger_check`` reports, in bits where it is a number."""
    try:
        res = hamburger_check(moments, n_gen, level)
    except (DataIncompleteError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    got = [res.positive, res.strictly_positive, bits([res.min_eigenvalue]).tolist(),
           res.reason]
    if res.certificate is not None:
        got += [list(res.certificate), bits(res.certificate.values()).tolist()]
    if res.witness is not None:
        for blocks in (res.witness.A, res.witness.B):
            got += [list(blocks), [bits(b.ravel()).tolist() for b in blocks.values()]]
    return got


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_gen=st.integers(1, 3), level=st.integers(1, 3),
       dim=st.integers(2, 16),
       edit=st.sampled_from(["palindrome", "value", "partner", "foreign"]),
       factor=st.floats(-3.0, 3.0))
def test_hamburger_reads_a_view_as_its_dict(seed, n_gen, level, dim, edit, factor):
    level = min(level, LEVELS[n_gen])
    mats, v = random_representation(np.random.default_rng(seed), n_gen, dim)
    view = from_representation(mats, v, max_degree=2 * level).moments
    before = outcome(view, n_gen, level)
    assert before == outcome(dict(view), n_gen, level)
    assert view._dict is None  # the check did not write the view
    # an edit in place: a palindrome scaled keeps the symmetry and may break
    # positivity (a certificate); the others break the symmetry, drop a
    # partner or add a foreign letter
    w = Word((1,) * 2 * level)
    if edit == "palindrome":
        view[w] = view[w] * factor
    elif edit == "value":
        view[Word((1, n_gen))] += 1e-3 * (1 + factor)
    elif edit == "partner":
        del view[involution(Word((n_gen, 1)))]
    else:
        view[Word.of(n_gen + 1, 1)] = factor
    after = outcome(view, n_gen, level)
    assert after == outcome(dict(view), n_gen, level)
    if edit == "palindrome" and factor == 1.0:
        assert after == before


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_gen=st.integers(1, 3), data=st.data())
def test_orbit_moments_match_the_per_length_loop(n_gen, data):
    h = data.draw(st.integers(0, {1: 8, 2: 5, 3: 3}[n_gen]), label="h")
    dim = data.draw(st.integers(1, 24), label="dim")
    spread = data.draw(st.floats(0.3, 2.5), label="spread")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    mats, v = random_representation(np.random.default_rng(seed), n_gen, dim, spread)
    vecs = _orbit(mats, v[None, :], h)
    norms = [float(np.linalg.norm(x, axis=1).max()) for x in vecs]
    words = all_words(2 * h, n_gen)
    index = {w: i for i, w in enumerate(words)}
    for top in range(h, 2 * h + 1):
        got = _hankel_moments(vecs, n_gen, top)
        want = per_length_moments(vecs, n_gen, top)
        assert [g.shape for g in got] == [w.shape for w in want]
        for m, (g, w) in enumerate(zip(got, want)):
            # s_w = <x_q, x_I(p)> with |q| = min(h, m): an ulp of it is one of
            # its Cauchy-Schwarz bound |x_q| |x_I(p)|
            b = min(h, m)
            assert np.all(np.abs(g - w) <= 4 * np.spacing(norms[m - b] * norms[b]))
        assert got[0].tolist() == [1.0]
        flat = np.concatenate(got)
        rev = [index[w[::-1]] for w in words[:len(flat)]]
        assert np.array_equal(flat[rev], np.conj(flat))
