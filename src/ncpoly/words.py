"""Words over N non-commuting generators.

A word is a finite tuple of letters from {1, ..., N}; the empty word is the
unit. Words are ordered graded-lexicographically: first by length, then
letter-by-letter. The involution reverses a word.

Inside the library a word is its integer rank. The length-n words are ranked
rank(w) = sum (w_i - 1) N^(n - i), and the words of length <= L sit in one
graded-lex vector at level_offsets(N, L)[n] + rank(w). Concatenation and
reversal are then index arithmetic: rank(u.v) = rank(u) N^|v| + rank(v), and
``reversal`` and ``shift_map`` tabulate I(w) and k.u. ``Word`` objects are
built only at the edge, where dicts keyed by words come in or go out, and
``rank_groups`` ranks every such dict or list by its words' letters.

Words going out are built per call: ``enumerate_level`` and ``words_up_to``
build a new list of new words each time, and the library keeps no ``Word``
of its own between calls. A functional's moments are not keyed by built
words: the moment view of ``from_representation`` and ``recurrence.favard``
keeps rank arrays and builds its words only when it is iterated. The
library generates those letters itself (``itertools.product`` over 1..N),
so it builds the words without re-checking them, as ``Word.parse`` does
once its own checks pass, and with no Python call per word (``_build``:
``object.__new__`` and the slot setter, mapped in C); ``Word(...)`` and
``Word.of`` check and normalize every other word. Either way the result is
an ordinary ``Word``: equal to, and hashing like, one built by hand. A
``Word`` is a slotted frozen dataclass: 40 bytes and its letters tuple, and
no ``__dict__`` or weak reference.

The rank tables are kept: ``reversal`` and ``shift_map`` are pure
functions of (n, N) and (N, level), so each is built once per process,
memoized, and returned read-only to every caller. A ``reversal`` entry
costs N^n int64 and a ``shift_map`` entry one int64 per word of length 1 to
level: 8 bytes a word, against the 40 bytes of the ``Word`` the same
pipeline builds for it and the 40 bytes, plus 8 a letter, of its tuple.

Serialized form: letters joined by dots ("1.2.1"); the empty word is "e".
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_INT = frozenset([int])


@dataclass(frozen=True, slots=True)
class Word:
    letters: tuple[int, ...] = field(default=())

    def __post_init__(self):
        # an exact tuple of ints is kept as it is; anything else is normalized
        letters = self.letters
        if type(letters) is not tuple or not {*map(type, letters)} <= _INT:
            letters = tuple(map(int, letters))
            object.__setattr__(self, "letters", letters)
        if letters and min(letters) < 1:
            raise ValidationError(f"letters must be >= 1, got {letters}")

    @classmethod
    def of(cls, *letters: int) -> "Word":
        return cls(tuple(letters))

    @classmethod
    def parse(cls, text: str, n_generators: int | None = None) -> "Word":
        """Parse the dotted serialization; "e" is the empty word."""
        text = text.strip()
        if text == "e":
            return cls()
        try:
            letters = tuple(map(int, text.split(".")))
        except ValueError:
            raise ValidationError(f"cannot parse word {text!r}") from None
        if min(letters) < 1:
            raise ValidationError(f"letters must be >= 1, got {letters}")
        if n_generators is not None and max(letters) > n_generators:
            raise ValidationError(f"word {text!r} uses letters beyond {n_generators} generators")
        return _word(letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return ".".join(str(l) for l in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    # graded-lex order: by length, then lexicographically
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Word") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Word") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Word") -> bool:
        return self.sort_key() >= other.sort_key()


EMPTY = Word()

# the slot's own setter, which the frozen ``__setattr__`` does not guard
_SET_LETTERS = Word.letters.__set__


def _word(letters: tuple[int, ...]) -> Word:
    """A ``Word`` of letters the library made: an exact tuple of ints >= 1.

    The letters are not checked again; the result is an ordinary frozen
    ``Word``, equal to, hashing, ordering and pickling like ``Word(letters)``.
    """
    w = object.__new__(Word)
    _SET_LETTERS(w, letters)
    return w


def _build(n: int, n_generators: int) -> list[Word]:
    """A new list of the words of length n by rank, as ``_word`` makes them.

    ``object.__new__`` makes the words and the slot setter gives each its
    letters from ``itertools.product``, both mapped in C: no Python call per
    word.
    """
    letters = list(itertools.product(range(1, n_generators + 1), repeat=n))
    words = list(map(object.__new__, itertools.repeat(Word, len(letters))))
    deque(map(_SET_LETTERS, words, letters), maxlen=0)
    return words


def involution(w: Word) -> Word:
    """Reverse a word: the anti-automorphism fixing the generators."""
    return Word(w.letters[::-1])


def concat(u: Word, v: Word) -> Word:
    return Word(u.letters + v.letters)


def enumerate_level(n: int, n_generators: int) -> list[Word]:
    """All words of length n, lexicographically, built by this call."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return _build(n, n_generators)


def words_up_to(level: int, n_generators: int) -> list[Word]:
    """All words of length <= level in graded-lex order, built by this call."""
    out: list[Word] = []
    for n in range(level + 1):
        out.extend(_build(n, n_generators))
    return out


def level_offsets(n_generators: int, level: int) -> list[int]:
    """Start of each length n <= level + 1 in the graded-lex word vector."""
    return list(itertools.accumulate((n_generators**n for n in range(level + 1)), initial=0))


@functools.cache
def reversal(n: int, n_generators: int) -> np.ndarray:
    """perm[rank(w)] = rank(I(w)) on the words of length n (shared, read-only).

    Built by rank arithmetic: I(k.u) = I(u).k, so the rank of the reversal of
    the word of rank (k - 1) N^(n-1) + r is perm_{n-1}[r] N + (k - 1).
    """
    perm = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        perm = (perm[None, :] * n_generators
                + np.arange(n_generators)[:, None]).reshape(-1)
    perm.flags.writeable = False
    return perm


@functools.cache
def shift_map(n_generators: int, level: int) -> np.ndarray:
    """Graded-lex index of k.u for every word u with |u| < level (shared, read-only).

    Row k - 1 maps the index of u (a prefix 0..offs[level] of the word vector)
    to offs[n + 1] + (k - 1) N^n + rank(u), where n = |u|.
    """
    N = n_generators
    offs = level_offsets(N, level)
    out = np.empty((N, offs[level]), dtype=np.int64)
    for n in range(level):
        ranks = np.arange(N**n)
        for k in range(N):
            out[k, offs[n]:offs[n + 1]] = offs[n + 1] + k * N**n + ranks
    out.flags.writeable = False
    return out


def word_index(w: Word, n_generators: int) -> int:
    """Rank of w within its own level, 0-based."""
    idx = 0
    for l in w.letters:
        if l > n_generators:
            raise ValueError(f"letter {l} exceeds {n_generators} generators")
        idx = idx * n_generators + (l - 1)
    return idx


def word_at(n: int, rank: int, n_generators: int) -> Word:
    """Inverse of word_index: the rank-th word of length n."""
    if not 0 <= rank < n_generators**n:
        raise ValueError(f"rank {rank} out of range for level {n}")
    letters = []
    for _ in range(n):
        rank, r = divmod(rank, n_generators)
        letters.append(r + 1)
    return Word(tuple(reversed(letters)))


def global_index(w: Word, n_generators: int) -> int:
    """Position of w in the graded-lex enumeration of all words."""
    offset = sum(n_generators**m for m in range(len(w.letters)))
    return offset + word_index(w, n_generators)


def rank_groups(words, n_generators: int) -> tuple[dict[int, tuple], list[int]]:
    """Ranks of a sequence of words, grouped by length, read off their letters.

    Returns {n: (positions, ranks, reversal ranks)} for the words whose
    letters are all <= n_generators (positions index the sequence), and the
    positions of the other words. Ranks are int64 arrays, or object arrays
    of Python ints once N^(n-1) reaches 2^62.
    """
    N = n_generators
    letters = [w.letters for w in words]
    lens = np.fromiter(map(len, letters), dtype=np.int64, count=len(letters))
    digits = np.fromiter(itertools.chain.from_iterable(letters), dtype=np.int64,
                         count=int(lens.sum())) - 1
    starts = np.cumsum(lens) - lens
    groups, foreign = {}, []
    for n in np.flatnonzero(np.bincount(lens)).tolist():
        pos = np.flatnonzero(lens == n)
        D = digits[starts[pos][:, None] + np.arange(n)]
        ok = np.all(D < N, axis=1)
        foreign.extend(pos[~ok].tolist())
        big = N ** max(n - 1, 0) >= 2**62
        powers = N ** np.arange(n, dtype=object if big else np.int64)
        groups[n] = (pos[ok], D[ok] @ powers[::-1], D[ok] @ powers)
    return groups, sorted(foreign)
