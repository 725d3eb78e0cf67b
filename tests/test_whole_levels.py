"""The whole-level moment pipeline against its per-block references.

``gram``, ``_involution_defect``, ``recurrence.extract``, ``_residual`` and
``RecurrenceCoeffs.validate`` read every level at once; ``oracles`` keeps
the loops they replaced, one (level, generator) block at a time. On random
representations the two agree: the Gram matrix and the involution verdict
bit for bit, the recurrence blocks to rounding, and every refusal of a
perturbed input in its error class and message.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import Refused, offsets

from ncpoly import errors, recurrence
from ncpoly.functional import (SYMMETRY_TOL, GramMatrix, _involution_defect,
                               from_representation, gram)
from ncpoly.orthopoly import OrthoBasis, _cholesky_basis, orthogonalize
from ncpoly.recurrence import COND_BOUND, RecurrenceCoeffs, _residual, extract
from ncpoly.words import Word

from test_functional import random_representation

SHAPES = [(N, L) for N in (1, 2, 3) for L in range(1, 6)] + [(1, 12)]


def outcome(fn, *args):
    """What a call returns, or (error class name, message) of its refusal."""
    try:
        return fn(*args)
    except errors.NCPolyError as exc:
        return type(exc).__name__, str(exc)
    except Refused as exc:
        return exc.kind, exc.message


def representation(rng, N, L):
    """A tuple whose moments give a strictly positive Gram matrix at level L."""
    if L > 5:
        # a Jacobi matrix of spread about 0.5: its level-12 Hankel matrices have condition
        # numbers of about 2e8 to 6e8, which keeps extract's checks clear of rounding
        d = L + 4
        a, b = rng.uniform(-0.05, 0.05, d), rng.uniform(0.45, 0.55, d - 1)
        return (np.diag(a) + np.diag(b, 1) + np.diag(b, -1))[None], np.eye(d)[0]
    return random_representation(rng, N, offsets(N, L)[-1] + 3)


def letters_moments(f):
    return {w.letters: s for w, s in f.moments.items()}


def rank_arrays(f, N):
    values = np.array(list(f.moments.values()))  # graded-lex order
    offs = offsets(N, f.max_degree)
    return [values[offs[n]:offs[n + 1]] for n in range(f.max_degree + 1)]


def library_defect(moments, N):
    got = _involution_defect({Word(w): s for w, s in moments.items()}, N, SYMMETRY_TOL)
    return None if got is None else (got[0], str(got[1]), str(got[2]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(SHAPES),
       perturbation=st.sampled_from(["missing", "asymmetric", "nonfinite"]))
@example(seed=1, shape=(1, 12), perturbation="asymmetric")
@example(seed=2, shape=(3, 5), perturbation="missing")
def test_gram_and_involution_match_the_block_references(seed, shape, perturbation):
    N, L = shape
    rng = np.random.default_rng(seed)
    f = from_representation(*representation(rng, N, L), 2 * L)
    G = gram(f, L).entries
    assert G.tobytes() == oracles.block_gram(rank_arrays(f, N), N, L).tobytes()
    moments = letters_moments(f)
    assert library_defect(moments, N) is None
    assert oracles.level_defect(moments, N, SYMMETRY_TOL) is None

    words = [w for w in moments if w != w[::-1]] or [w for w in moments if w]
    w = words[int(rng.integers(len(words)))]
    if perturbation == "missing" and w != w[::-1]:
        del moments[w[::-1]]
    elif perturbation == "nonfinite":
        moments[w] = complex("nan")
    else:
        moments[w] *= 1 + 1e-6j
    assert (outcome(library_defect, moments, N)
            == outcome(oracles.level_defect, moments, N, SYMMETRY_TOL))


def perturb_blocks(rng, A, B, N, L, what):
    """Break one block, as named, at a random level and generator."""
    n, k = int(rng.integers(L)), int(rng.integers(1, N + 1))
    if what == "hermitian":
        i, j = rng.integers(N**n, size=2)
        A[n, k] = A[n, k].copy()
        A[n, k][i, j] += 1e-3j
    elif what == "triangular" and N**(n + 1) > 1:
        Bn = np.hstack([B[n, m] for m in range(1, N + 1)])
        j = int(rng.integers(N**(n + 1) - 1))
        i = int(rng.integers(j + 1, N**(n + 1)))
        k = j // N**n + 1
        B[n, k] = B[n, k].copy()
        B[n, k][i, j % N**n] = 1e-3 * max(1.0, np.max(np.abs(Bn)))
    elif what == "diagonal":
        j = int(rng.integers(N**(n + 1)))
        k = j // N**n + 1
        B[n, k] = B[n, k].copy()
        B[n, k][j, j % N**n] = -abs(B[n, k][j, j % N**n]) if rng.integers(2) else 0.0
    elif what == "nonfinite":
        block = (A if rng.integers(2) else B)
        block[n, k] = block[n, k].copy()
        block[n, k][0, 0] = complex("inf")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(SHAPES),
       breaks=st.lists(st.sampled_from(["hermitian", "triangular", "diagonal", "nonfinite"]),
                       max_size=3),
       cond_bound=st.sampled_from([COND_BOUND, COND_BOUND, None]))
@example(seed=1, shape=(1, 12), breaks=["diagonal", "hermitian"], cond_bound=None)
@example(seed=2, shape=(3, 5), breaks=["triangular", "diagonal"], cond_bound=COND_BOUND)
@example(seed=2, shape=(2, 3), breaks=["hermitian"] * 3, cond_bound=COND_BOUND)  # (0, 2) first
def test_recurrence_layer_matches_the_block_references(seed, shape, breaks, cond_bound):
    N, L = shape
    rng = np.random.default_rng(seed)
    f = from_representation(*representation(rng, N, L), 2 * L)
    Gm = gram(f, L)
    G, C = Gm.entries, orthogonalize(f, L, G=Gm).matrix(L)
    coeffs = extract(f, orthogonalize(f, L, G=Gm), L, G=Gm)
    A, B = oracles.block_extract(G, C, N, L)
    scale = max(1.0, max(np.max(np.abs(b)) for b in (*A.values(), *B.values())))
    for key in A:
        assert np.max(np.abs(coeffs.A[key] - A[key])) <= 1e-12 * scale * np.max(np.abs(C))
        assert np.max(np.abs(coeffs.B[key] - B[key])) <= 1e-12 * scale * np.max(np.abs(C))
    ref = oracles.block_residual(C, A, B, N, L)
    assert abs(_residual(C, coeffs) - ref) <= 1e-12 * scale * np.max(np.abs(C)) ** 2

    A, B = dict(coeffs.A), dict(coeffs.B)
    if cond_bound is None:
        # below the condition number of one B_n, so that level is refused
        n = int(rng.integers(L))
        cond_bound = 0.999 * np.linalg.cond(np.hstack([B[n, k] for k in range(1, N + 1)]))
    for what in breaks:
        perturb_blocks(rng, A, B, N, L, what)
    broken = RecurrenceCoeffs(n_generators=N, levels=L, A=A, B=B)
    with mock.patch.object(recurrence, "COND_BOUND", cond_bound):
        got = outcome(broken.validate)
    assert got == outcome(oracles.block_validate, A, B, N, L, cond_bound)
    if "nonfinite" not in breaks:  # the residual reads A as given, not symmetrized
        ref = oracles.block_residual(C, A, B, N, L)
        assert abs(_residual(C, broken) - ref) <= 1e-12 * scale * np.max(np.abs(C)) ** 2


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(SHAPES),
       row_scale=st.sampled_from([0.0, 1e-6, 1e-3]), kick=st.sampled_from([0.0, 0.5]))
@example(seed=1, shape=(1, 12), row_scale=1e-3, kick=0.5)
@example(seed=2, shape=(3, 5), row_scale=1e-6, kick=0.5)
def test_extract_refuses_a_perturbed_input_as_the_block_reference(seed, shape, row_scale,
                                                                  kick):
    N, L = shape
    rng = np.random.default_rng(seed)
    f = from_representation(*representation(rng, N, L), 2 * L)
    Gm = gram(f, L)
    G = Gm.entries.copy()
    if kick:
        # a Hermitian pair that no moment explains: still positive, no longer
        # a Hankel kernel, so the extracted A lose their symmetry
        i, j = sorted(rng.choice(len(G), size=2, replace=False))
        G[i, j] += kick * np.linalg.eigvalsh(Gm.entries)[0]
        G[j, i] = np.conj(G[i, j])
    Gm = GramMatrix(level=L, words=Gm.words, entries=G)
    C = _cholesky_basis(N, Gm).matrix(L)
    i = int(rng.integers(1, len(C)))
    C[i, :i + 1] *= 1 + row_scale  # no longer orthonormal: row i has the wrong norm
    got = outcome(extract, f, OrthoBasis._from_matrix(N, L, C), L, Gm)
    want = outcome(oracles.block_extract, G, C, N, L)
    if isinstance(want[0], str):
        assert got == want
    else:
        assert isinstance(got, RecurrenceCoeffs)
