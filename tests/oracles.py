"""Independent reference implementations the tests check the package against.

Everything here works on plain tuples and dicts, not package types, and
derives values by a different route than the library: raw kernel tables,
modified Gram-Schmidt instead of Cholesky, pairing enumeration instead of
operator models, dense matrix powers instead of block assembly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

import numpy as np


def gaussian_moments(n_max: int) -> list[float]:
    """E[g^n] for a standard Gaussian: 1, 0, 1, 0, 3, 0, 15, ..."""
    out = [1.0, 0.0]
    for n in range(2, n_max + 1):
        out.append((n - 1) * out[n - 2])
    return out[: n_max + 1]


def catalan_moments(n_max: int) -> list[float]:
    """Even moments are Catalan numbers, odd vanish (semicircle law)."""
    out = []
    for n in range(n_max + 1):
        out.append(0.0 if n % 2 else comb(n, n // 2) / (n // 2 + 1))
    return out


@lru_cache(maxsize=None)
def fock_moment(word: tuple[int, ...]) -> float:
    """Vacuum moment of a product of free standard semicirculars.

    Sum over non-crossing pairings of equal letters: the first letter pairs
    with a matching letter at position j, and the inside and outside factor
    independently. Base case: the empty product has moment 1.
    """
    if not word:
        return 1.0
    if len(word) % 2:
        return 0.0
    total = 0.0
    first = word[0]
    for j in range(1, len(word)):
        if word[j] == first:
            total += fock_moment(word[1:j]) * fock_moment(word[j + 1:])
    return total


def tridiag_moments(diag: list[float], off: list[float], k_max: int) -> list[float]:
    """<T^k e_0, e_0> for the Jacobi matrix with the given bands.

    The matrix is truncated large enough that no length <= k_max walk from
    the corner feels the edge, so the values are exact in exact arithmetic.
    """
    size = k_max + 2
    a = list(diag) + [0.0] * size
    b = list(off) + [0.0] * size
    T = np.zeros((size, size))
    for i in range(size):
        T[i, i] = a[i]
    for i in range(size - 1):
        T[i + 1, i] = b[i]
        T[i, i + 1] = b[i]
    out = []
    v = np.zeros(size)
    v[0] = 1.0
    for _ in range(k_max + 1):
        out.append(float(v[0]))
        v = T @ v
    return out


def hankel_kernel(moments: dict[tuple[int, ...], complex]):
    """K(sigma, tau) = s at the word reverse(sigma) + tau."""
    def K(sigma: tuple[int, ...], tau: tuple[int, ...]) -> complex:
        return complex(moments[tuple(reversed(sigma)) + tau])
    return K


def toeplitz_kernel(c: dict[tuple[int, ...], complex]):
    """Stationary kernel: c at the leftover when one word prefixes the other."""
    def K(sigma: tuple[int, ...], tau: tuple[int, ...]) -> complex:
        if len(tau) >= len(sigma) and tau[: len(sigma)] == sigma:
            return complex(c[tau[len(sigma):]])
        if len(sigma) > len(tau) and sigma[: len(tau)] == tau:
            return complex(np.conj(c[sigma[len(tau):]]))
        return 0.0
    return K


def all_words(level: int, n_gen: int) -> list[tuple[int, ...]]:
    """Graded-lex word list, empty word first."""
    out: list[tuple[int, ...]] = [()]
    for n in range(1, level + 1):
        level_words: list[tuple[int, ...]] = [()]
        for _ in range(n):
            level_words = [w + (k,) for w in level_words
                           for k in range(1, n_gen + 1)]
        out.extend(sorted(level_words))
    return out


def gram_schmidt_basis(kernel, words: list[tuple[int, ...]]) -> np.ndarray:
    """Row i holds the coefficients of the i-th orthonormal polynomial.

    Modified Gram-Schmidt on the monomials under
    <p, q> = sum conj(q_d) K(d, b) p_b, normalizing to a positive
    coefficient on the word being added.
    """
    n = len(words)
    G = np.array([[kernel(d, b) for b in words] for d in words], dtype=complex)

    def inner(p: np.ndarray, q: np.ndarray) -> complex:
        return complex(np.conj(q) @ G @ p)

    rows = np.zeros((n, n), dtype=complex)
    for j in range(n):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for i in range(j):
            v = v - inner(v, rows[i]) * rows[i]
        nrm = np.sqrt(inner(v, v).real)
        v = v / nrm
        if v[j].real < 0:
            v = -v
        rows[j] = v
    return rows


def successor(letters: tuple[int, ...], n_gen: int) -> tuple[int, ...]:
    """Next word in graded-lex order over n_gen letters."""
    if n_gen < 1:
        raise ValueError("n_gen must be >= 1")
    out = list(letters)
    for i in range(len(out) - 1, -1, -1):
        if out[i] < n_gen:
            out[i] += 1
            return tuple(out[: i + 1]) + (1,) * (len(out) - i - 1)
    return (1,) * (len(out) + 1)


def rank_array_moments(arrays, n_gen: int) -> dict[tuple[int, ...], complex]:
    """{letters: value} read word by word off one array per length.

    The value of a word is the entry of its length's array at the word's
    position among the sorted words of that length.
    """
    out = {}
    for n, arr in enumerate(arrays):
        for r, w in enumerate(sorted(product(range(1, n_gen + 1), repeat=n))):
            out[w] = complex(arr[r])
    return out


def representation_moments(mats, v, top: int) -> dict[tuple[int, ...], complex]:
    """<X_w v, v> for every word of length <= top, one dense product chain per word."""
    out = {}
    for w in all_words(top, len(mats)):
        x = np.asarray(v, dtype=complex)
        for letter in reversed(w):
            x = mats[letter - 1] @ x
        out[w] = complex(np.vdot(v, x))
    return out
