"""Words over N non-commuting generators.

A word is a finite tuple of letters from {1, ..., N}; the empty word is the
unit. Words are ordered graded-lexicographically: first by length, then
letter-by-letter. The involution reverses a word.

Inside the library a word is its integer rank. The length-n words are ranked
rank(w) = sum (w_i - 1) N^(n - i), and the words of length <= L sit in one
graded-lex vector at level_offsets(N, L)[n] + rank(w). Concatenation and
reversal are then index arithmetic: rank(u.v) = rank(u) N^|v| + rank(v), and
``reversal`` and ``shift_map`` tabulate I(w) and k.u. ``Word`` objects are
built only at the edge, where dicts keyed by words come in or go out;
``rank_groups`` reads the ranks of a dict's words from their letters.

The words going out are shared: one table of ``Word``s per (length, N),
built on first use and kept while a result holds it. A functional whose
moments the library computes (``from_representation``, ``recurrence.favard``)
holds the tables of its words, and while it lives ``enumerate_level``,
``words_up_to`` and every Word-keyed dict or list made from rank arrays
(moments, Gram words, basis rows, point evaluations) reuse them instead of
constructing words again. The cache refers to a table only weakly, so the
words go when the last holder goes and the library keeps nothing of its
own; with nothing held, every call builds its words afresh. A shared word is
an ordinary ``Word``: equal to, and hashing like, one built by hand.

Serialized form: letters joined by dots ("1.2.1"); the empty word is "e".
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_INT = frozenset([int])


@dataclass(frozen=True)
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
            letters = tuple(int(part) for part in text.split("."))
        except ValueError:
            raise ValidationError(f"cannot parse word {text!r}") from None
        w = cls(letters)
        if n_generators is not None and any(l > n_generators for l in letters):
            raise ValidationError(f"word {text!r} uses letters beyond {n_generators} generators")
        return w

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


def involution(w: Word) -> Word:
    """Reverse a word: the anti-automorphism fixing the generators."""
    return Word(w.letters[::-1])


def concat(u: Word, v: Word) -> Word:
    return Word(u.letters + v.letters)


def successor(w: Word, n_generators: int) -> Word:
    """Next word in graded-lex order over n_generators letters."""
    if n_generators < 1:
        raise ValueError("n_generators must be >= 1")
    letters = list(w.letters)
    for i in range(len(letters) - 1, -1, -1):
        if letters[i] < n_generators:
            letters[i] += 1
            return Word(tuple(letters[: i + 1]) + (1,) * (len(letters) - i - 1))
    return Word((1,) * (len(letters) + 1))


def predecessor(w: Word, n_generators: int) -> Word:
    """Previous word in graded-lex order; the empty word has none."""
    if n_generators < 1:
        raise ValueError("n_generators must be >= 1")
    if not w.letters:
        raise ValueError("the empty word has no predecessor")
    letters = list(w.letters)
    for i in range(len(letters) - 1, -1, -1):
        if letters[i] > 1:
            letters[i] -= 1
            return Word(tuple(letters[: i + 1]) + (n_generators,) * (len(letters) - i - 1))
    return Word((n_generators,) * (len(letters) - 1))


class _Table:
    """The words of one length by rank; holding it keeps them shared."""

    __slots__ = ("words", "__weakref__")

    def __init__(self, words: tuple[Word, ...]):
        self.words = words


# (length, n_generators) -> that length's table, while something else holds it
_TABLES: weakref.WeakValueDictionary[tuple[int, int], _Table] = weakref.WeakValueDictionary()
_BUILD = threading.Lock()


def _table(n: int, n_generators: int) -> _Table:
    """The shared words of length n, lexicographically.

    A table is built through ``Word`` when no live one exists, under a lock,
    and published complete, so concurrent first calls read one table and a
    failed build publishes none. It lives as long as a caller holds the
    returned object.
    """
    key = (n, n_generators)
    table = _TABLES.get(key)
    if table is None:
        if n < 0:
            raise ValueError("level must be >= 0")
        with _BUILD:
            table = _TABLES.get(key)
            if table is None:
                table = _Table(tuple(Word(p) for p in
                                     itertools.product(range(1, n_generators + 1), repeat=n)))
                _TABLES[key] = table
    return table


def enumerate_level(n: int, n_generators: int) -> list[Word]:
    """All words of length n, lexicographically (a new list of shared words)."""
    return list(_table(n, n_generators).words)


def words_up_to(level: int, n_generators: int) -> list[Word]:
    """All words of length <= level in graded-lex order (a new list of shared words)."""
    out: list[Word] = []
    for n in range(level + 1):
        out.extend(_table(n, n_generators).words)
    return out


def level_offsets(n_generators: int, level: int) -> list[int]:
    """Start of each length n <= level + 1 in the graded-lex word vector."""
    offs = [0]
    for n in range(level + 1):
        offs.append(offs[-1] + n_generators**n)
    return offs


def reversal(n: int, n_generators: int) -> np.ndarray:
    """perm[rank(w)] = rank(I(w)) on the words of length n.

    Built by rank arithmetic: I(k.u) = I(u).k, so the rank of the reversal of
    the word of rank (k - 1) N^(n-1) + r is perm_{n-1}[r] N + (k - 1).
    """
    perm = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        perm = (perm[None, :] * n_generators
                + np.arange(n_generators)[:, None]).reshape(-1)
    return perm


def shift_map(n_generators: int, level: int) -> np.ndarray:
    """Graded-lex index of k.u for every word u with |u| < level.

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
