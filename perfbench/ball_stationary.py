"""ball-stationary: kernel sums at matrix points and the stationary ladder.

Three kinds of item:

* ``szego_recursion`` on stationary data c_a = <Z_a h, h> from a ball point
  (d = 8), checked by conj(A) G A^T = I against the benchmark's own
  prefix-rule Gram;
* ``szego_ball``, ``szego_siegel`` and ``reproduction_check`` (T = I and a
  random T) on ball pairs and their Cayley images, checked by the kernel's
  fixed-point equation or by the distance of the recovered T to T;
* ``cd_inner_identity`` and ``cd_full_check`` for n = 1..L-1 at half-space
  pairs, with the free semicircular (Fock, N = 2) basis and blocks built by
  the benchmark, checked against its own K_n.

Items at margin 0.1 are all kernel sums the series cap refuses, so there are
fewer pairs there than at margin 0.3; the mix keeps the median item verified.
"""

from __future__ import annotations

import numpy as np

import refs
from core import Item, Workload

IN_PROCESS = True
N_GEN = 2
STATIONARY = [(2, 7), (3, 5)]          # (N, L) at d = 8
KERNEL_DIMS = (64, 128)
KERNEL_PAIRS = {0.3: 2, 0.1: 1}        # pairs per dimension and margin
CD_LEVEL, CD_DIM = 4, 16
CD_PAIRS = {0.5: 2, 0.3: 2}
SMOKE = {"stationary": [(2, 2)], "dims": (4,), "kernel_pairs": {0.3: 1, 0.1: 1},
         "cd_level": 2, "cd_dim": 3, "cd_pairs": {0.5: 1, 0.3: 1}}


def stationary_item(ncp, rng, N, L):
    Z = refs.ball_point(rng, N, 8, 0.3)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    c = refs.stationary_data(Z, h / np.linalg.norm(h), L)
    G = refs.toeplitz_gram(c, N, L)
    words = [w for n in range(L + 1) for w in refs.level_words(n, N)]
    moments = {ncp.Word(w): complex(c[len(w)][refs.rank(w, N)]) for w in words}
    index = {w: i for i, w in enumerate(words)}

    def run():
        f = ncp.MomentFunctional(n_generators=N, kind="toeplitz", max_degree=L,
                                 moments=moments)
        return ncp.orthopoly.szego_recursion(f, L)[0]

    def check(basis):
        A = np.zeros((len(words), len(words)), dtype=complex)
        for s, row in basis.coeffs.items():
            for t, a in row.items():
                A[index[s.letters], index[t.letters]] = a
        return [("orthonormality", refs.orthonormality(A, G), refs.TOL["orthonormality"])]

    return Item(id=f"szego_recursion-N{N}-L{L}", label=None, run=run, check=check)


def kernel_items(ncp, rng, d, margin, tag):
    Z, Z2 = refs.ball_point(rng, N_GEN, d, margin), refs.ball_point(rng, N_GEN, d, margin)
    W, W2 = refs.cayley(Z), refs.cayley(Z2)
    T = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    eye = np.eye(d)
    op = ncp.opeval
    ball = (op.OperatorTuple(N_GEN, d, Z, "ball"), op.OperatorTuple(N_GEN, d, Z2, "ball"))
    half = (op.OperatorTuple(N_GEN, d, W, "siegel"), op.OperatorTuple(N_GEN, d, W2, "siegel"))
    cap = "sandwich-cap" if margin == 0.1 else None

    def repro(pair, M):
        return (lambda: op.reproduction_check(*pair, M),
                lambda res: [("reproduction", res.residual / np.max(np.abs(M)),
                              refs.TOL["reproduction"])])

    specs = [
        ("szego_ball", cap, lambda: op.szego_ball(*ball).value,
         lambda K: [("fixed_point", refs.ball_fixed_point(K, Z, Z2, eye), refs.TOL["fixed_point"])]),
        ("szego_siegel", cap, lambda: op.szego_siegel(*half).value,
         lambda K: [("fixed_point", refs.siegel_fixed_point(K, W, W2, eye),
                     refs.TOL["fixed_point"])]),
        ("repro_ball_I", cap, *repro(ball, eye)),
        ("repro_ball_T", "sandwich-cap", *repro(ball, T)),
        ("repro_siegel_I", cap, *repro(half, eye)),
        ("repro_siegel_T", "sandwich-cap", *repro(half, T)),
    ]
    return [Item(id=f"{name}-d{d}-m{margin:g}-{tag}", label=lab, run=run, check=check)
            for name, lab, run, check in specs]


def cd_items(ncp, rng, basis, coeffs, L, d, margin, tag):
    W = refs.cayley(refs.ball_point(rng, N_GEN, d, margin))
    W2 = refs.cayley(refs.ball_point(rng, N_GEN, d, margin))
    op = ncp.opeval
    t, t2 = op.OperatorTuple(N_GEN, d, W, "siegel"), op.OperatorTuple(N_GEN, d, W2, "siegel")
    items = []
    for n in range(1, L):
        K = refs.fock_kernel(N_GEN, n, W, W2)
        scale = float(np.max(np.abs(K)))

        def inner(n=n):
            return op.cd_inner_identity(basis, coeffs, n, t, t2)

        def full(n=n):
            return op.cd_full_check(basis, coeffs, n, t, t2)

        def check_inner(res, scale=scale):
            return [("cd_residual", res / scale, refs.TOL["cd_kernel"])]

        def check_full(res, K=K, scale=scale):
            return [("cd_kernel", refs.rel_gap(res.kernel, K), refs.TOL["cd_kernel"]),
                    ("cd_residual", res.residual / scale, refs.TOL["cd_kernel"])]

        name = f"d{d}-m{margin:g}-n{n}-{tag}"
        items.append(Item(id="cd_inner-" + name, label=None, run=inner, check=check_inner))
        items.append(Item(id="cd_full-" + name, label="sandwich-cap" if margin == 0.3 else None,
                          run=full, check=check_full))
    return items


def fock_family(ncp, L):
    """The benchmark's own Fock basis and recurrence blocks as ncpoly objects."""
    words = [w for n in range(L + 1) for w in refs.level_words(n, N_GEN)]
    P = refs.fock_basis(N_GEN, L)
    coeffs = {ncp.Word(s): {ncp.Word(t): complex(P[i, j]) for j, t in enumerate(words[:i + 1])}
              for i, s in enumerate(words)}
    basis = ncp.OrthoBasis(n_generators=N_GEN, level=L, coeffs=coeffs)
    A, B = refs.fock_recurrence(N_GEN, L)
    return basis, ncp.RecurrenceCoeffs(n_generators=N_GEN, levels=L, A=A, B=B)


def setup(seed: int, workdir, smoke: bool = False, corrupt: bool = False) -> Workload:
    import ncpoly as ncp

    cfg = SMOKE if smoke else {"stationary": STATIONARY, "dims": KERNEL_DIMS,
                               "kernel_pairs": KERNEL_PAIRS, "cd_level": CD_LEVEL,
                               "cd_dim": CD_DIM, "cd_pairs": CD_PAIRS}
    items = []
    for i, (N, L) in enumerate(cfg["stationary"]):
        items.append(stationary_item(ncp, np.random.default_rng([seed, 1, i]), N, L))
    for d in cfg["dims"]:
        for m, count in cfg["kernel_pairs"].items():
            for p in range(count):
                rng = np.random.default_rng([seed, 2, d, int(m * 10), p])
                items += kernel_items(ncp, rng, d, m, f"p{p}")
    L = cfg["cd_level"]
    basis, coeffs = fock_family(ncp, L)
    for m, count in cfg["cd_pairs"].items():
        for p in range(count):
            rng = np.random.default_rng([seed, 3, int(m * 10), p])
            items += cd_items(ncp, rng, basis, coeffs, L, cfg["cd_dim"], m, f"p{p}")
    for prefix in ("szego_ball-", "cd_inner-"):     # warm-up
        item = next(i for i in items if i.id.startswith(prefix))
        item.check(item.run())
    return Workload(items)
