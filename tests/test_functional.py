import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hankel_kernel, per_length_moments, toeplitz_kernel

from ncpoly.errors import DataIncompleteError, PositivityError, ValidationError
from ncpoly.functional import (MomentFunctional, _proves_above, from_representation, gram,
                               inner_product, kernel_entry,
                               require_strict_positivity, strict_positivity)
from ncpoly.words import EMPTY, Word, words_up_to


def random_hankel(rng, n_gen, max_degree, scale=0.2):
    """Symmetric moment data with no positivity guarantee."""
    moments = {EMPTY: 1.0 + 0.0j}
    for w in words_up_to(max_degree, n_gen):
        if len(w) == 0 or w in moments:
            continue
        val = complex(scale * rng.standard_normal(), scale * rng.standard_normal())
        rev = Word(tuple(reversed(w.letters)))
        if rev == w:
            moments[w] = complex(val.real)
        else:
            moments[w] = val
            moments[rev] = np.conj(val)
    return moments


def random_representation(rng, n_gen, dim, spread=1.0):
    mats = np.empty((n_gen, dim, dim), dtype=complex)
    for k in range(n_gen):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats[k] = spread * (A + A.conj().T) / (2 * np.sqrt(dim))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return mats, v / np.linalg.norm(v)


def count_linalg(monkeypatch, *names):
    """Record the name of each call of the named ``np.linalg`` functions, in order."""
    calls = []
    for name in names:
        def counted(*args, _orig=getattr(np.linalg, name), _name=name, **kw):
            calls.append(_name)
            return _orig(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_kind_is_checked():
    with pytest.raises(ValidationError):
        MomentFunctional(n_generators=1, kind="fourier", max_degree=0,
                         moments={EMPTY: 1.0})


def test_unital_moment_required():
    with pytest.raises(ValidationError):
        MomentFunctional(n_generators=1, kind="hankel", max_degree=0,
                         moments={EMPTY: 2.0})


def test_hankel_symmetry_enforced():
    moments = {EMPTY: 1.0, Word((1, 2)): 0.5 + 0.1j, Word((2, 1)): 0.5 + 0.1j}
    with pytest.raises(ValidationError):
        MomentFunctional(n_generators=2, kind="hankel", max_degree=2,
                         moments=moments)


def test_missing_moment_names_the_word():
    f = MomentFunctional(n_generators=2, kind="hankel", max_degree=1,
                         moments={EMPTY: 1.0, Word((1,)): 0.0, Word((2,)): 0.0})
    with pytest.raises(DataIncompleteError) as err:
        f.moment(Word((1, 2)))
    assert err.value.key == "1.2"


def test_hankel_kernel_matches_oracle():
    rng = np.random.default_rng(0)
    moments = random_hankel(rng, 2, 4)
    f = MomentFunctional(n_generators=2, kind="hankel", max_degree=4,
                         moments=moments)
    K = hankel_kernel({w.letters: v for w, v in moments.items()})
    for s in words_up_to(2, 2):
        for t in words_up_to(2, 2):
            assert abs(kernel_entry(f, s, t) - K(s.letters, t.letters)) < 1e-14


def test_toeplitz_kernel_matches_oracle():
    rng = np.random.default_rng(1)
    c = {EMPTY: 1.0 + 0.0j}
    for w in words_up_to(3, 2):
        if len(w):
            c[w] = complex(0.1 * rng.standard_normal(), 0.1 * rng.standard_normal())
    f = MomentFunctional(n_generators=2, kind="toeplitz", max_degree=3, moments=c)
    K = toeplitz_kernel({w.letters: v for w, v in c.items()})
    for s in words_up_to(2, 2):
        for t in words_up_to(2, 2):
            assert abs(kernel_entry(f, s, t) - K(s.letters, t.letters)) < 1e-14


def test_toeplitz_kernel_is_stationary():
    # K(u.s, u.t) = K(s, t) for every common prefix u
    rng = np.random.default_rng(2)
    c = {EMPTY: 1.0 + 0.0j}
    for w in words_up_to(4, 2):
        if len(w):
            c[w] = complex(0.1 * rng.standard_normal(), 0.1 * rng.standard_normal())
    f = MomentFunctional(n_generators=2, kind="toeplitz", max_degree=4, moments=c)
    for _ in range(100):
        u = Word(tuple(int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 3)))))
        s = Word(tuple(int(rng.integers(1, 3)) for _ in range(int(rng.integers(0, 2)))) or ())
        t = Word(tuple(int(rng.integers(1, 3)) for _ in range(int(rng.integers(0, 2)))) or ())
        if len(u) + max(len(s), len(t)) > 4:
            continue
        us = Word(u.letters + s.letters)
        ut = Word(u.letters + t.letters)
        assert kernel_entry(f, us, ut) == kernel_entry(f, s, t)


def test_toeplitz_incomparable_words_are_orthogonal():
    f = MomentFunctional(n_generators=2, kind="toeplitz", max_degree=2,
                         moments={EMPTY: 1.0, Word((1,)): 0.3, Word((2,)): 0.1,
                                  Word((1, 1)): 0.0, Word((1, 2)): 0.0,
                                  Word((2, 1)): 0.0, Word((2, 2)): 0.0})
    assert kernel_entry(f, Word((1,)), Word((2,))) == 0.0
    assert kernel_entry(f, Word((1, 2)), Word((2, 1))) == 0.0


def test_generic_kernel_must_be_hermitian():
    kernel = {(EMPTY, Word((1,))): 0.5 + 0.0j,
              (Word((1,)), EMPTY): 0.4 + 0.0j,
              (EMPTY, EMPTY): 1.0 + 0.0j,
              (Word((1,)), Word((1,))): 1.0 + 0.0j}
    with pytest.raises(ValidationError):
        MomentFunctional(n_generators=1, kind="generic", max_degree=1,
                         moments={EMPTY: 1.0, Word((1,)): 0.5}, kernel=kernel)


@pytest.mark.parametrize("bad", [float("nan"), complex(float("inf"), 0.0)])
def test_generic_kernel_must_be_finite(bad):
    # (1, 1) is stored first; in graded-lex order of pairs (e, 1) comes first
    kernel = {(Word((1,)), Word((1,))): bad, (EMPTY, EMPTY): 1.0,
              (EMPTY, Word((1,))): bad}
    with pytest.raises(ValidationError, match=r"kernel entry at \(e, 1\) is not finite"):
        MomentFunctional(n_generators=1, kind="generic", max_degree=1,
                         moments={EMPTY: 1.0, Word((1,)): 0.0}, kernel=kernel)


def test_generic_kernel_conjugate_fallback():
    kernel = {(EMPTY, EMPTY): 1.0 + 0.0j,
              (EMPTY, Word((1,))): 0.5 + 0.2j,
              (Word((1,)), Word((1,))): 2.0 + 0.0j}
    f = MomentFunctional(n_generators=1, kind="generic", max_degree=1,
                         moments={EMPTY: 1.0, Word((1,)): 0.5 + 0.2j},
                         kernel=kernel)
    assert kernel_entry(f, Word((1,)), EMPTY) == np.conj(0.5 + 0.2j)


def test_gram_is_hermitian_and_matches_entries():
    rng = np.random.default_rng(3)
    moments = random_hankel(rng, 2, 4)
    f = MomentFunctional(n_generators=2, kind="hankel", max_degree=4,
                         moments=moments)
    G = gram(f, 2)
    M = G.entries
    assert np.max(np.abs(M - M.conj().T)) == 0.0
    for i, s in enumerate(G.words):
        for j, t in enumerate(G.words):
            assert M[i, j] == kernel_entry(f, s, t) or \
                M[i, j] == np.conj(kernel_entry(f, t, s))


def test_strict_positivity_accepts_representation_moments():
    rng = np.random.default_rng(4)
    mats, v = random_representation(rng, 2, 16)
    f = from_representation(mats, v, max_degree=4)
    res = strict_positivity(f, 2)
    assert res.ok
    assert res.min_eigenvalue > 0


def test_strict_positivity_rejects_and_certifies():
    moments = {EMPTY: 1.0, Word((1,)): 0.0, Word((1, 1)): -1.0}
    f = MomentFunctional(n_generators=1, kind="hankel", max_degree=2,
                         moments=moments)
    res = strict_positivity(f, 1)
    assert not res.ok
    assert res.min_eigenvalue < 0
    assert res.certificate
    # the certificate really is a negative direction for the kernel
    G = gram(f, 1).entries
    vec = np.array([res.certificate.get(w, 0.0) for w in gram(f, 1).words])
    val = np.conj(vec) @ G @ vec
    assert val.real < 0
    with pytest.raises(PositivityError):
        require_strict_positivity(f, 1)


def test_gram_hashes_its_words_on_first_index():
    f = from_representation(*random_representation(np.random.default_rng(5), 2, 8), max_degree=4)
    G = gram(f, 2)
    assert "_index" not in vars(G)
    ws = words_up_to(2, 2)
    assert [G.index(w) for w in ws] == list(range(len(ws)))
    assert G.entry(ws[1], ws[4]) == complex(G.entries[1, 4])
    assert "_index" in vars(G)


def test_strict_positivity_takes_eigenvectors_only_to_refuse(monkeypatch):
    mats, v = random_representation(np.random.default_rng(4), 2, 16)
    f = from_representation(mats, v, max_degree=4)
    G = gram(f, 2)
    lam = float(np.linalg.eigvalsh(G.entries)[0])
    calls = count_linalg(monkeypatch, "eigh", "eigvalsh")
    res = strict_positivity(f, 2, G=G)
    assert res.ok and calls == ["eigvalsh"]
    assert res.min_eigenvalue == lam

    bad = MomentFunctional(n_generators=1, kind="hankel", max_degree=2,
                           moments={EMPTY: 1.0, Word((1,)): 0.0, Word((1, 1)): -1.0})
    calls.clear()
    res = strict_positivity(bad, 1)
    assert not res.ok and calls == ["eigvalsh", "eigh"]
    G = gram(bad, 1)
    vec = np.array([res.certificate[w] for w in G.words])
    assert (np.conj(vec) @ G.entries @ vec).real < 0


def test_from_representation_matches_direct_expectation():
    rng = np.random.default_rng(5)
    mats, v = random_representation(rng, 2, 6)
    f = from_representation(mats, v, max_degree=3)
    for w in words_up_to(3, 2):
        M = np.eye(6, dtype=complex)
        for letter in w.letters:
            M = M @ mats[letter - 1]
        assert abs(f.moment(w) - np.vdot(v, M @ v)) < 1e-12


def test_from_representation_requires_hermitian():
    mats = np.zeros((1, 2, 2), dtype=complex)
    mats[0] = [[0.0, 1.0], [0.0, 0.0]]
    v = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValidationError):
        from_representation(mats, v, max_degree=2)


def test_from_representation_leaves_the_callers_matrices_alone():
    rng = np.random.default_rng(61)
    mats, v = random_representation(rng, 2, 4)
    mats[0, 1, 2] += 1e-14  # within atol: accepted, and symmetrized on a copy
    before = mats.copy()
    f = from_representation(mats, v, max_degree=4)
    assert mats.tobytes() == before.tobytes()
    # the moments as computed before: the orbit of (X + X*) / 2, one length at a time
    X = (before + before.conj().transpose(0, 2, 1)) / 2
    vecs = [v[None, :]]
    for _ in range(2):
        vecs.append(np.concatenate([vecs[-1] @ Xk.T for Xk in X]))
    want = per_length_moments(vecs, 2, 4)
    got = np.array(list(f.moments.values()))
    assert np.max(np.abs(got - np.concatenate(want))) <= 4 * np.spacing(
        max(np.linalg.norm(x, axis=1).max() for x in vecs) ** 2)


def test_from_representation_symmetry_is_exact():
    rng = np.random.default_rng(6)
    mats, v = random_representation(rng, 2, 8)
    f = from_representation(mats, v, max_degree=5)
    for w in words_up_to(5, 2):
        rev = Word(tuple(reversed(w.letters))) if len(w) else EMPTY
        assert f.moment(rev) == np.conj(f.moment(w))


def test_inner_product_is_sesquilinear():
    rng = np.random.default_rng(7)
    moments = random_hankel(rng, 2, 4)
    f = MomentFunctional(n_generators=2, kind="hankel", max_degree=4,
                         moments=moments)
    p = {Word((1,)): 0.5 + 0.1j, Word((2, 1)): -0.2j}
    q = {EMPTY: 1.0, Word((2,)): 0.7 - 0.3j}
    lam = 0.8 - 0.6j
    scaled = {w: lam * c for w, c in p.items()}
    assert abs(inner_product(f, scaled, q) - lam * inner_product(f, p, q)) < 1e-14
    scaled_q = {w: lam * c for w, c in q.items()}
    assert abs(inner_product(f, p, scaled_q)
               - np.conj(lam) * inner_product(f, p, q)) < 1e-14


def test_pipeline_moments_are_exact_and_checked_only_at_the_edge(monkeypatch):
    from ncpoly import functional, jacobi
    from ncpoly.functional import _involution_defect
    from ncpoly.orthopoly import orthogonalize
    from ncpoly.recurrence import extract, favard

    mats, v = random_representation(np.random.default_rng(47), 2, 12)
    calls = []

    def counted(*args):
        calls.append(args)
        return _involution_defect(*args)

    monkeypatch.setattr(functional, "_involution_defect", counted)
    monkeypatch.setattr(jacobi, "_involution_defect", counted)
    f = from_representation(mats, v, max_degree=4)
    coeffs = extract(f, orthogonalize(f, 2), 2)
    _, f2 = favard(coeffs)
    assert calls == []
    for g in (f, f2):
        assert _involution_defect(g.moments, 2, 0.0) is None
        assert g.moments[EMPTY] == 1 and type(g.moments) is functional._MomentView
        assert g == MomentFunctional(n_generators=g.n_generators, kind=g.kind,
                                     max_degree=g.max_degree, moments=g.moments)
    calls.clear()
    assert jacobi.hamburger_check(f.moments, 2, 2).strictly_positive
    assert len(calls) == 1


def test_edited_pipeline_moments_are_checked_again():
    from ncpoly.jacobi import hamburger_check

    mats, v = random_representation(np.random.default_rng(48), 2, 12)
    f = from_representation(mats, v, max_degree=4)
    f.moments[Word((1, 2))] *= 1.001
    res = hamburger_check(f.moments, 2, 2)
    assert not res.positive and "symmetry fails at 1.2" in res.reason
    with pytest.raises(ValidationError, match="involution symmetry"):
        MomentFunctional(n_generators=2, kind="hankel", max_degree=4, moments=f.moments)


def test_exact_construction_keeps_the_field_checks():
    ok = {EMPTY: 1.0 + 0.0j}
    for args in ((0, 2, ok), (1, -1, ok), (1, 2, {EMPTY: 2.0 + 0.0j}), (1, 2, {})):
        with pytest.raises(ValidationError):
            MomentFunctional._exact_hankel(*args)
    f = MomentFunctional._exact_hankel(1, 0, ok)
    assert f.moments is ok and not hasattr(f, "_exact")


@pytest.mark.parametrize("kind", ["hankel", "toeplitz", "generic"])
def test_constructor_refuses_a_non_finite_moment(kind):
    # in insertion order 1.1 comes first; in graded-lex order 2 does
    moments = {EMPTY: 1.0, Word((1, 1)): complex("inf"), Word((2,)): complex("nan"),
               Word((1,)): 0.0}
    with pytest.raises(ValidationError, match=r"moment at 2 is not finite"):
        MomentFunctional(n_generators=2, kind=kind, max_degree=2, moments=moments,
                         kernel={} if kind == "generic" else None)


@pytest.mark.parametrize("where", ["off-diagonal nan", "diagonal inf", "off-diagonal inf"])
def test_from_representation_refuses_non_finite_matrices(where):
    mats, v = random_representation(np.random.default_rng(49), 2, 4)
    if where == "off-diagonal nan":
        mats[1, 0, 2] = mats[1, 2, 0] = complex("nan")
    elif where == "diagonal inf":
        mats[1, 3, 3] = float("inf")
    else:
        mats[1, 0, 1] = float("inf")  # its mirror stays finite
    with pytest.raises(ValidationError, match="matrix 2 has a non-finite entry"):
        from_representation(mats, v, max_degree=2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_from_representation_refuses_a_non_finite_vector(bad):
    mats, v = random_representation(np.random.default_rng(50), 2, 4)
    v[1] = bad
    with pytest.raises(ValidationError, match="unit vector"):
        from_representation(mats, v, max_degree=2)


def hermitian_with_spectrum(rng, lams, complex_entries):
    """Q diag(lams) Q* for a random orthogonal or unitary Q, exactly Hermitian."""
    n = len(lams)
    A = rng.standard_normal((n, n))
    if complex_entries:
        A = A + 1j * rng.standard_normal((n, n))
    Q = np.linalg.qr(A)[0]
    M = (Q * lams) @ Q.conj().T
    return (M + M.conj().T) / 2.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), complex_entries=st.booleans(),
       log_gap=st.floats(-13.0, -6.0), above=st.booleans(),
       shift=st.sampled_from([0.0, 1e-9, 1e-8, 3e-3]), top=st.sampled_from([1.0, 1e3, 1e6]),
       seed=st.integers(0, 2**32 - 1))
def test_a_proven_bound_holds_in_forty_digits(n, complex_entries, log_gap, above, shift, top,
                                              seed):
    rng = np.random.default_rng(seed)
    gap = 10.0 ** log_gap
    lam_min = shift + gap if above else shift - gap
    lams = lam_min + np.concatenate([[0.0], rng.uniform(0.0, top, n - 1)])
    M = hermitian_with_spectrum(rng, lams, complex_entries)
    proven = _proves_above(M, shift)
    if proven:
        with mpmath.workdps(40):
            exact = mpmath.eigh(mpmath.matrix(M.tolist()), eigvals_only=True)
            assert min(exact) > shift
    if above and gap >= 1e-11 * top:
        # the cover is about 1.2e-14 times the trace, below 2e-13 times top at n <= 12
        assert proven


def test_a_factor_through_a_nan_proves_nothing():
    M = np.eye(3, dtype=complex)
    M[2, 0] = M[0, 2] = np.nan
    assert not _proves_above(M, 0.0)
    M = np.eye(3)
    M[1, 1] = np.inf
    assert not _proves_above(M, 0.0)
