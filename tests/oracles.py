"""Independent reference implementations the tests check the package against.

Everything here works on plain tuples and dicts, not package types, and
derives values by a different route than the library: raw kernel tables,
modified Gram-Schmidt instead of Cholesky, pairing enumeration instead of
operator models, dense matrix powers instead of block assembly, and one
(level, generator) block at a time instead of whole-level gathers and
products.
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


def predecessor(letters: tuple[int, ...], n_gen: int) -> tuple[int, ...]:
    """Previous word in graded-lex order over n_gen letters; the empty word has none."""
    if n_gen < 1:
        raise ValueError("n_gen must be >= 1")
    if not letters:
        raise ValueError("the empty word has no predecessor")
    out = list(letters)
    for i in range(len(out) - 1, -1, -1):
        if out[i] > 1:
            out[i] -= 1
            return tuple(out[: i + 1]) + (n_gen,) * (len(out) - i - 1)
    return (n_gen,) * (len(out) - 1)


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
    return {w: chain_moment(mats, v, w) for w in all_words(top, len(mats))}


def chain_moment(mats, v, letters: tuple[int, ...]) -> complex:
    """<X_w v, v> for one word, by a dense product chain from the right."""
    x = np.asarray(v, dtype=complex)
    for letter in reversed(letters):
        x = mats[letter - 1] @ x
    return complex(np.vdot(v, x))


@lru_cache(maxsize=None)
def _prefix_suffix(n_gen: int, level: int) -> tuple[dict, dict]:
    """suffix[q] = rank(q) for |q| <= level + 1, prefix[p] = rank(p) N^(level + 1) for |p| <= level."""
    suffix = {key: r for n in range(level + 2)
              for r, key in enumerate(product(range(1, n_gen + 1), repeat=n))}
    step = n_gen ** (level + 1)
    return {key: r * step for key, r in suffix.items() if len(key) <= level}, suffix


def prefix_suffix_moment(mats, cols, moments, letters: tuple[int, ...],
                         level: int) -> tuple[complex, bool]:
    """(<J_w e_0, e_0>, |w| > level) by a prefix and a suffix index from letters to rank.

    ``cols[n][r]`` is J_q e_0 for the length-n q of rank r, n <= level + 1,
    and ``moments[n]`` the moments of the length-n words by rank, one array
    per length to 2 level + 1; ``mats`` are the J_k. The word splits as
    p.b.q with |q| = min(|w|, level + 1) and |p| = min(|w| - |q|, level). Up
    to length 2 level + 1, b is empty and the value is the entry at
    rank(p) N^|q| + rank(q); past it, each letter of b is one matvec on
    J_q e_0, paired with J_{I(p)} e_0. Every letter must be at most N.
    """
    n = len(letters)
    prefix, suffix = _prefix_suffix(len(mats), level)
    c = min(n, level + 1)
    a = min(n - c, level)
    p, q = prefix[letters[:a]], suffix[letters[n - c:]]
    if a + c == n:
        return moments[n].item(p + q), n > level
    col = np.asarray(cols[c][q], dtype=complex)
    for letter in reversed(letters[a:n - c]):
        col = mats[letter - 1] @ col
    row = cols[a][suffix[letters[:a][::-1]]]
    return complex(np.vdot(row, col)), True


def per_length_moments(vecs, n_gen: int, top: int) -> list[np.ndarray]:
    """<x_w, x_e> to length top from an orbit, one matrix product per length.

    ``vecs[n][r]`` is x_w for the length-n word of rank r, x_{k.u} = Y_k x_u
    with Y self-adjoint, for n <= h. A length-m word splits as p.q with
    |q| = min(h, m), and its row of products is conj(x_{I(p)}) against the
    x_q; each length is then averaged with the conjugate of its reversal
    and s_e set to 1.
    """
    h = len(vecs) - 1
    out = [np.ones(1, dtype=complex)]
    for m in range(1, top + 1):
        b = min(h, m)
        a = m - b
        s = (vecs[a][_reversal_perm(a, n_gen)].conj() @ vecs[b].T).reshape(-1)
        out.append((s + np.conj(s[_reversal_perm(m, n_gen)])) / 2.0)
    return out


def back_substitution_inverse(U: np.ndarray) -> np.ndarray:
    """Inverse of the upper triangle of U, one row at a time from the bottom."""
    n = len(U)
    X = np.zeros((n, n), dtype=np.result_type(U, float))
    for i in range(n - 1, -1, -1):
        X[i] = -(U[i, i + 1:] @ X[i + 1:])
        X[i, i] += 1.0
        X[i] /= U[i, i]
    return X


def cayley_by_solves(mats: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The Cayley map of a point, one linear solve per generator.

    Forward: W_j = (I + Z_N)^{-1} Z_j for j < N and W_N = i (I + Z_N)^{-1}
    (I - Z_N). Inverse: Z_j = 2i (iI + W_N)^{-1} W_j and Z_N = (iI + W_N)^{-1}
    (iI - W_N).
    """
    N, d = mats.shape[:2]
    eye = np.eye(d)
    A = (1j * eye if inverse else eye) + mats[-1]
    out = np.empty((N, d, d), dtype=complex)
    for k in range(N - 1):
        out[k] = (2j if inverse else 1.0) * np.linalg.solve(A, mats[k])
    if inverse:
        out[N - 1] = np.linalg.solve(A, 1j * eye - mats[-1])
    else:
        out[N - 1] = 1j * np.linalg.solve(A, eye - mats[-1])
    return out


def siegel_middle(W: np.ndarray, W2: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(iI + W_N)^{-1} S (iI + W'_N)^{-*}: a solve from the left, then one from the right."""
    eye = np.eye(len(S))
    X = np.linalg.solve(1j * eye + W[-1], S)
    return np.linalg.solve((1j * eye + W2[-1]).conj(), X.T).T


def separating_mats(letters: tuple[int, ...], unit_dim: int, n_gen: int) -> list[np.ndarray]:
    """The matrices of each separating tuple, two families summed unit by unit.

    First family (p <= k): (Z^p_s)* sums the inflated units E_{r+p-1, r+p}
    over the positions r with letters[k - r] == s; second family (p > k): the
    units E_{r+p-k, r+p-k-1} over the r with letters[r - 1] == s.
    """
    k = len(letters)
    d = 2 * k * unit_dim
    eye_u = np.eye(unit_dim)

    def unit(i: int, j: int) -> np.ndarray:
        E = np.zeros((2 * k, 2 * k))
        E[i - 1, j - 1] = 1.0
        return np.kron(E, eye_u)

    out = []
    for p in range(1, 2 * k + 1):
        mats = np.zeros((n_gen, d, d), dtype=complex)
        for s in range(1, n_gen + 1):
            if p <= k:
                rows = [r for r in range(1, k + 1) if letters[k - r] == s]
                units = (unit(r + p - 1, r + p) for r in rows)
            else:
                rows = [r for r in range(1, k + 1) if letters[r - 1] == s]
                units = (unit(r + p - k, r + p - k - 1) for r in rows)
            star = sum(units, np.zeros((d, d), dtype=complex))
            mats[s - 1] = (star / np.sqrt(2.0)).conj().T
        out.append(mats)
    return out


# --- per-block references for the whole-level moment pipeline ---------------
#
# These are the block-by-block loops the library used before it read every
# level at once: one Gram block, one recurrence block, one check per (level,
# generator). They work on arrays and plain dicts keyed by (n, k), and report a
# refusal as ``Refused(class name, message)`` with the library's message.


class Refused(Exception):
    """A reference refusal: the name of the library's error class and its message."""

    def __init__(self, kind: str, message: str):
        super().__init__(kind, message)
        self.kind, self.message = kind, message


def offsets(n_gen: int, level: int) -> list[int]:
    """Start of each length 0..level + 1 in the graded-lex word vector."""
    return [sum(n_gen**m for m in range(n)) for n in range(level + 2)]


def word_text(letters: tuple[int, ...]) -> str:
    return ".".join(map(str, letters)) if letters else "e"


def level_letters(n: int, n_gen: int) -> list[tuple[int, ...]]:
    return sorted(product(range(1, n_gen + 1), repeat=n))


def _reversal_perm(n: int, n_gen: int) -> np.ndarray:
    index = {w: r for r, w in enumerate(level_letters(n, n_gen))}
    return np.array([index[w[::-1]] for w in level_letters(n, n_gen)], dtype=int)


def _shift(rows: np.ndarray, n_gen: int, level: int, k: int) -> np.ndarray:
    """Coefficient rows of Y_k P from those of P, whose words are shorter than level."""
    words = all_words(level, n_gen)
    index = {w: i for i, w in enumerate(words)}
    short = [w for w in words if len(w) < level]
    out = np.zeros_like(rows)
    out[:, [index[(k,) + w] for w in short]] = rows[:, :len(short)]
    return out


def block_gram(arrays, n_gen: int, level: int) -> np.ndarray:
    """Hankel Gram matrix block by block from one rank-indexed moment array per length.

    Block (i, j), i <= j, is the length-(i + j) array reshaped to N^i x N^j
    with its rows permuted by the reversal of the length-i words; the lower
    triangle is mirrored row by row.
    """
    offs = offsets(n_gen, level)
    G = np.zeros((offs[-1], offs[-1]), dtype=complex)
    for i in range(level + 1):
        perm = _reversal_perm(i, n_gen)
        for j in range(i, level + 1):
            block = np.asarray(arrays[i + j]).reshape(n_gen**i, n_gen**j)[perm]
            G[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = block
    for i in range(offs[-1]):
        G[i + 1:, i] = np.conj(G[i, i + 1:])
    return G


def level_defect(moments: dict[tuple[int, ...], complex], n_gen: int, tol: float):
    """The involution check one length at a time, on a {letters: value} dict.

    Returns None, ("missing", w, I(w)) or ("asymmetric", w, I(w)) with w the
    first offending word in graded-lex order; refuses a foreign letter, then a
    non-finite value, as the library does.
    """
    words = list(moments)
    for w in words:
        if any(letter > n_gen for letter in w):
            raise Refused("ValidationError",
                          f"word {word_text(w)} uses letters beyond {n_gen} generators")
    vals = np.array([moments[w] for w in words], dtype=complex)
    if not np.isfinite(vals).all():
        w = min((w for w in words if not np.isfinite(moments[w])), key=lambda w: (len(w), w))
        raise Refused("ValidationError", f"moment at {word_text(w)} is not finite "
                                         f"({complex(moments[w])})")
    scale = float(np.max(np.abs(vals), initial=1.0))
    for n in sorted({len(w) for w in words}):
        level = sorted(w for w in words if len(w) == n)
        bad = []
        for w in level:
            rev = w[::-1]
            if rev not in moments:
                bad.append(("missing", w, rev))
            elif abs(moments[rev] - np.conj(moments[w])) > tol * scale:
                bad.append(("asymmetric", w, rev))
        if bad:
            what, w, rev = bad[0]
            return what, word_text(w), word_text(rev)
    return None


def block_validate(A: dict, B: dict, n_gen: int, levels: int, cond_bound: float) -> None:
    """Recurrence blocks checked one (level, generator) at a time.

    Non-finite blocks in (n, k) order (A before B), then at each level: A
    Hermitian, B_n upper triangular, B_n's diagonal real positive, cond(B_n).
    """
    N = n_gen
    for n in range(levels):
        for k in range(1, N + 1):
            for name, block in (("A", A[n, k]), ("B", B[n, k])):
                if not np.isfinite(block).all():
                    raise Refused("ValidationError",
                                  f"{name} block (n={n}, k={k}) has a non-finite entry")
    for n in range(levels):
        for k in range(1, N + 1):
            a = A[n, k]
            if np.max(np.abs(a - a.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(a))):
                raise Refused("ValidationError", f"A block (n={n}, k={k}) is not Hermitian")
        Bn = np.hstack([B[n, k] for k in range(1, N + 1)])
        scale = max(1.0, float(np.max(np.abs(Bn))))
        _, cols = np.nonzero(np.abs(np.tril(Bn, -1)) > 1e-10 * scale)  # row-major
        if cols.size:
            raise Refused("ValidationError", f"B_{n} not upper triangular "
                                             f"(offending block n={n}, k={cols[0] // N**n + 1})")
        dg = np.diag(Bn)
        if np.any(np.abs(dg.imag) > 1e-9 * scale) or np.any(dg.real <= 0):
            j = int(np.argmin(dg.real))
            raise Refused("ValidationError", f"B_{n} diagonal not strictly positive "
                                             f"(offending block n={n}, k={j // N**n + 1})")
        if np.linalg.cond(Bn) > cond_bound:
            raise Refused("ValidationError", f"B_{n} condition number exceeds {cond_bound:.1e}")


def block_residual(C: np.ndarray, A: dict, B: dict, n_gen: int, levels: int) -> float:
    """Largest coefficient of Y_k Phi_n - Phi_{n+1} B_{n,k} - Phi_n A_{n,k} - Phi_{n-1} B*_{n-1,k}.

    One product per (level, generator) block; A is read as given.
    """
    offs = offsets(n_gen, levels)
    worst = 0.0
    for n in range(levels):
        rows = slice(offs[n], offs[n + 1])
        for k in range(1, n_gen + 1):
            R = _shift(C[rows], n_gen, levels, k)
            R = R - B[n, k].T @ C[offs[n + 1]:offs[n + 2]] - A[n, k].T @ C[rows]
            if n >= 1:
                R = R - np.conj(B[n - 1, k]) @ C[offs[n - 1]:offs[n]]
            worst = max(worst, float(np.max(np.abs(R))))
    return worst


def block_extract(G: np.ndarray, C: np.ndarray, n_gen: int, levels: int):
    """Recurrence blocks (A, B) read one (level, generator) block at a time.

    A_{n,k} = conj(Phi_n) G (Y_k Phi_n)^T and B_{n,k} = conj(Phi_{n+1}) G
    (Y_k Phi_n)^T for the coefficient rows C of an orthonormal basis; then
    the checks: A Hermitian, B's diagonal equal to the ratio of leading
    coefficients, and the recurrence residual.
    """
    N = n_gen
    offs = offsets(N, levels)
    A, B = {}, {}
    for n in range(levels):
        rows_n = np.conj(C[offs[n]:offs[n + 1]])
        rows_n1 = np.conj(C[offs[n + 1]:offs[n + 2]])
        for k in range(1, N + 1):
            shifted = _shift(C[offs[n]:offs[n + 1]], N, levels, k)
            A[n, k] = rows_n @ G @ shifted.T
            B[n, k] = rows_n1 @ G @ shifted.T
    lead = np.real(np.diag(C))
    for n in range(levels):
        for k in range(1, N + 1):
            dev = float(np.max(np.abs(A[n, k] - A[n, k].conj().T)))
            if dev > 1e-10:
                raise Refused("ConsistencyError", f"extracted A (n={n}, k={k}) deviates "
                                                  f"from Hermitian by {dev:.3e}")
        Bn = np.hstack([B[n, k] for k in range(1, N + 1)])
        for j, w in enumerate(level_letters(n + 1, N)):
            expected = lead[offs[n] + j % N**n] / lead[offs[n + 1] + j]
            if abs(Bn[j, j] - expected) > 1e-9 * max(1.0, abs(expected)):
                raise Refused("ConsistencyError", f"B_{n} diagonal at {word_text(w)} "
                                                  "deviates from leading-coefficient ratio")
    resid = block_residual(C, A, B, N, levels)
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(C)))):
        raise Refused("ConsistencyError", f"recurrence residual {resid:.3e} too large")
    return A, B
