"""Inputs and references owned by the benchmark.

Nothing here calls ncpoly: the benchmark generates the program's inputs and
checks its outputs with its own arithmetic. Words are tuples of letters in
1..N and are located by graded-lex rank, so a level-n block of any array is
indexed by rank(w) = sum (w_i - 1) N^(n - i).

Tolerances are relative: each check divides an error by the size of the
quantity it checks, and fails above the tolerance named here.
"""

from __future__ import annotations

import numpy as np

TOL = {
    "moments_jacobi": 1e-9,     # Jacobi vacuum moments vs input, |w| <= 2L-1
    "moments_favard": 1e-8,     # Favard moments vs input, |w| <= 2L
    "min_eigenvalue": 1e-9,     # reported lambda_min vs own, over lambda_max
    "recurrence": 1e-9,         # A_n = 0, B_n = sqrt(n+1) or I
    "orthonormality": 1e-8,     # conj(A) G A^T = I
    "fixed_point": 1e-8,        # kernel sum satisfies its fixed-point equation
    "reproduction": 1e-8,       # recovered T vs T
    "cd_kernel": 1e-8,          # K_n vs own sum of phi(W) phi(W')*
    "cayley": 1e-12,            # Cayley image vs own
}


def n_words(N: int, L: int) -> int:
    """Number of words of length <= L over N letters."""
    return L + 1 if N == 1 else (N ** (L + 1) - 1) // (N - 1)


def rank(letters, N: int) -> int:
    r = 0
    for l in letters:
        r = r * N + (l - 1)
    return r


def level_words(n: int, N: int) -> list[tuple[int, ...]]:
    """Words of length n in lex order, as letter tuples."""
    out = [()]
    for _ in range(n):
        out = [w + (k,) for w in out for k in range(1, N + 1)]
    return out


def reversal(n: int, N: int) -> np.ndarray:
    """perm[rank(w)] = rank(reverse(w)) on level n."""
    return np.array([rank(w[::-1], N) for w in level_words(n, N)], dtype=int)


def orbit_vectors(mats: np.ndarray, v: np.ndarray, L: int) -> list[np.ndarray]:
    """Level n holds the rows M_w v for |w| = n, by rank (M_{k.u} = M_k M_u)."""
    levels = [v[None, :].astype(complex)]
    for _ in range(L):
        levels.append(np.concatenate([levels[-1] @ M.T for M in mats]))
    return levels


def orbit_moments(mats: np.ndarray, v: np.ndarray, L: int) -> list[np.ndarray]:
    """s_w = <M_w v, v> for Hermitian M and |w| <= 2L, one array per length.

    A word of length m splits as w = p.q with |q| = min(L, m); then
    s_w = <M_q v, M_rev(p) v>, so each length is one matrix product.
    """
    N = mats.shape[0]
    vecs = orbit_vectors(mats, v, L)
    out = []
    for m in range(2 * L + 1):
        b = min(L, m)
        a = m - b
        left = vecs[a][reversal(a, N)].conj()
        out.append((left @ vecs[b].T).reshape(-1))
    return out


def hankel_gram(mats: np.ndarray, v: np.ndarray, L: int) -> np.ndarray:
    """K(s, t) = <M_t v, M_s v> over words of length <= L, graded-lex."""
    V = np.concatenate(orbit_vectors(mats, v, L))
    return V.conj() @ V.T


def hankel_gram_from_moments(moments: list[np.ndarray], N: int, L: int) -> np.ndarray:
    """K(s, t) = m[rev(s).t] for words of length <= L, by rank arithmetic."""
    rows = []
    for i in range(L + 1):
        rev = reversal(i, N)
        row = []
        for j in range(L + 1):
            m = moments[i + j].reshape(N ** i, N ** j)
            row.append(m[rev])
        rows.append(np.hstack(row))
    return np.vstack(rows)


def toeplitz_gram(c: list[np.ndarray], N: int, L: int) -> np.ndarray:
    """Stationary kernel: K(s, s.a) = c_a, K(s.a, s) = conj(c_a), else 0."""
    size = n_words(N, L)
    G = np.zeros((size, size), dtype=complex)
    offs = np.concatenate([[0], np.cumsum([N ** n for n in range(L + 1)])])
    for i in range(L + 1):
        for j in range(i, L + 1):
            gap = N ** (j - i)
            block = np.zeros((N ** i, N ** j), dtype=complex)
            for r in range(N ** i):
                block[r, r * gap:(r + 1) * gap] = c[j - i]
            G[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = block
            G[offs[j]:offs[j + 1], offs[i]:offs[i + 1]] = block.conj().T
    return G


def hermitian_tuple(rng: np.random.Generator, N: int, d: int, scale: float):
    """N Hermitian d x d matrices of spectral radius `scale` and a unit vector."""
    X = np.empty((N, d, d), dtype=complex)
    for k in range(N):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (A + A.conj().T) / 2.0
        X[k] = H * (scale / np.max(np.abs(np.linalg.eigvalsh(H))))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return X, v / np.linalg.norm(v)


def ball_point(rng: np.random.Generator, N: int, d: int, margin: float) -> np.ndarray:
    """Z with I - sum Z_k Z_k* having smallest eigenvalue exactly `margin`."""
    A = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
    top = np.linalg.eigvalsh(sum(a @ a.conj().T for a in A))[-1]
    return A * np.sqrt((1.0 - margin) / top)


def cayley(Z: np.ndarray) -> np.ndarray:
    """W_j = (1 + Z_N)^-1 Z_j (j < N), W_N = i (1 + Z_N)^-1 (1 - Z_N)."""
    eye = np.eye(Z.shape[1])
    A = eye + Z[-1]
    W = np.empty_like(Z)
    for k in range(Z.shape[0] - 1):
        W[k] = np.linalg.solve(A, Z[k])
    W[-1] = 1j * np.linalg.solve(A, eye - Z[-1])
    return W


def stationary_data(Z: np.ndarray, h: np.ndarray, L: int) -> list[np.ndarray]:
    """c_a = <Z_a h, h> for |a| <= L, one array per length."""
    return [vecs @ h.conj() for vecs in orbit_vectors(Z, h, L)]


def ball_fixed_point(K, Z, W, T) -> float:
    """max |K - T - sum Z_k K W_k*| over max |K|."""
    R = K - T - sum(Z[k] @ K @ W[k].conj().T for k in range(Z.shape[0]))
    return float(np.max(np.abs(R)) / np.max(np.abs(K)))


def siegel_fixed_point(K, W, W2, T) -> float:
    """max |S(K) - T| over max |T|, S(K) = (W_N K - K W'_N*)/2i - sum_{k<N} W_k K W'_k*."""
    S = (W[-1] @ K - K @ W2[-1].conj().T) / 2j
    for k in range(W.shape[0] - 1):
        S = S - W[k] @ K @ W2[k].conj().T
    return float(np.max(np.abs(S - T)) / np.max(np.abs(T)))


def gaussian_moments(L: int) -> list[np.ndarray]:
    """Standard Gaussian: m_k = (k-1)!! for even k, 0 for odd, k <= 2L."""
    out = []
    for k in range(2 * L + 1):
        val = float(np.prod(np.arange(k - 1, 0, -2))) if k % 2 == 0 else 0.0
        out.append(np.array([val], dtype=complex))
    return out


def fock_operators(N: int, depth: int) -> np.ndarray:
    """X_k = l_k + l_k* on the full Fock space cut at word length `depth`."""
    size = n_words(N, depth)
    offs = np.concatenate([[0], np.cumsum([N ** n for n in range(depth + 1)])])
    X = np.zeros((N, size, size))
    for k in range(1, N + 1):
        for n in range(depth):
            for r in range(N ** n):
                src = offs[n] + r
                dst = offs[n + 1] + (k - 1) * N ** n + r   # rank(k.u)
                X[k - 1, dst, src] = X[k - 1, src, dst] = 1.0
    return X


def fock_moments(N: int, L: int) -> list[np.ndarray]:
    """Vacuum moments of the free semicircular family to length 2L."""
    X = fock_operators(N, L)
    vac = np.zeros(X.shape[1])
    vac[0] = 1.0
    return orbit_moments(X, vac, L)


def fock_recurrence(N: int, levels: int):
    """A_{n,k} = 0 and B_{n,k}[rank(k.s), rank(s)] = 1: the free semicircle blocks."""
    A, B = {}, {}
    for n in range(levels):
        for k in range(1, N + 1):
            A[n, k] = np.zeros((N ** n, N ** n), dtype=complex)
            b = np.zeros((N ** (n + 1), N ** n), dtype=complex)
            b[(k - 1) * N ** n + np.arange(N ** n), np.arange(N ** n)] = 1.0
            B[n, k] = b
    return A, B


def gaussian_recurrence(levels: int):
    """Hermite blocks: A_n = 0, B_n = sqrt(n + 1)."""
    A = {(n, 1): np.zeros((1, 1), dtype=complex) for n in range(levels)}
    B = {(n, 1): np.full((1, 1), np.sqrt(n + 1.0), dtype=complex) for n in range(levels)}
    return A, B


def fock_basis(N: int, L: int) -> np.ndarray:
    """Rows phi_w in monomials: phi_{k.s} = Y_k phi_s - [s_1 = k] phi_{s[1:]}."""
    size = n_words(N, L)
    offs = np.concatenate([[0], np.cumsum([N ** n for n in range(L + 1)])])
    shift = np.full((N, size), -1)
    for k in range(N):
        for n in range(L):
            shift[k, offs[n]:offs[n + 1]] = offs[n + 1] + k * N ** n + np.arange(N ** n)
    P = np.zeros((size, size))
    P[0, 0] = 1.0
    for n in range(L):
        for k in range(N):
            for r in range(N ** n):
                row = np.zeros(size)
                src = P[offs[n] + r]
                live = src != 0
                row[shift[k][live]] = src[live]
                if n >= 1 and r // N ** (n - 1) == k:     # s starts with letter k+1
                    row -= P[offs[n - 1] + r % N ** (n - 1)]
                P[offs[n + 1] + k * N ** n + r] = row
    return P


def fock_kernel(N: int, n: int, W: np.ndarray, W2: np.ndarray) -> np.ndarray:
    """K_n(W, W') = sum_{|s| <= n} phi_s(W) phi_s(W')* for the Fock family."""
    def phis(M):
        d = M.shape[1]
        levels = [[np.eye(d, dtype=complex)]]
        for m in range(n):
            cur = []
            for k in range(N):
                for r, p in enumerate(levels[m]):
                    val = M[k] @ p
                    if m >= 1 and r // N ** (m - 1) == k:
                        val = val - levels[m - 1][r % N ** (m - 1)]
                    cur.append(val)
            levels.append(cur)
        return [p for lvl in levels for p in lvl]
    return sum(a @ b.conj().T for a, b in zip(phis(W), phis(W2)))


def rel_gap(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over max(1e-300, max |want|)."""
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(1e-300, float(np.max(np.abs(want)))))


def orthonormality(A: np.ndarray, G: np.ndarray) -> float:
    """max |conj(A) G A^T - I|."""
    n = A.shape[0]
    return float(np.max(np.abs(np.conj(A) @ G[:n, :n] @ A.T - np.eye(n))))
