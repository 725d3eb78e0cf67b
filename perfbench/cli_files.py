"""cli-files: one ``python -m ncpoly.cli`` process per item, on files.

Set-up writes the input files in the serialize format: Gaussian moments
(N = 1) at levels 8, 10 and 12, free semicircular (Fock, N = 2) moments to
length 8, an N = 2 representation to length 12, stationary data (N = 2) to
length 7, two ball points at d = 64, and the exact Gaussian and Fock
recurrence blocks. Items read them, and several write outputs that the
check reads back with plain ``json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import refs
from core import Item, Workload

IN_PROCESS = False
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GAUSS_LEVELS = (8, 10, 12)
FOCK_LEVEL = 4
REP = (2, 6, 160)          # N, L, d of the representation file
TOEPLITZ = (2, 7)
POINT_DIM = 64
SMOKE = {"gauss": (3,), "fock": 2, "rep": (2, 2, 8), "toeplitz": (2, 2), "dim": 3}


def word_str(w) -> str:
    return ".".join(map(str, w)) if w else "e"


def parse_word(text: str) -> tuple[int, ...]:
    return () if text == "e" else tuple(int(x) for x in text.split("."))


def cx(v) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def write(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_moments(path, N, moments, kind="hankel"):
    L2 = len(moments) - 1
    data = {word_str(w): cx(moments[len(w)][refs.rank(w, N)])
            for n in range(L2 + 1) for w in refs.level_words(n, N)}
    write(path, {"n_generators": N, "kind": kind, "max_degree": L2, "moments": data})


def write_coeffs(path, N, levels, A, B):
    def rows(M):
        return [[cx(v) for v in row] for row in M]
    write(path, {"n_generators": N, "levels": levels,
                 "A": {f"{n},{k}": rows(M) for (n, k), M in sorted(A.items())},
                 "B": {f"{n},{k}": rows(M) for (n, k), M in sorted(B.items())}})


def write_point(path, Z):
    write(path, {"n_generators": Z.shape[0], "dim": Z.shape[1], "region": "ball",
                 "matrices": [[[cx(v) for v in row] for row in M] for M in Z]})


def read_matrix(rows) -> np.ndarray:
    return np.array([[complex(*v) for v in row] for row in rows])


def read_blocks(path: Path):
    data = json.loads(path.read_text())
    A = {tuple(map(int, k.split(","))): read_matrix(v) for k, v in data["A"].items()}
    B = {tuple(map(int, k.split(","))): read_matrix(v) for k, v in data["B"].items()}
    return A, B


def jacobi_moments(N, A, B, level) -> list[np.ndarray]:
    """Vacuum moments of the block Jacobi matrices built by the benchmark."""
    offs = np.concatenate([[0], np.cumsum([N ** n for n in range(level + 1)])])
    J = np.zeros((N, offs[-1], offs[-1]), dtype=complex)
    for k in range(1, N + 1):
        for n in range(level + 1):
            J[k - 1, offs[n]:offs[n + 1], offs[n]:offs[n + 1]] = A[n, k]
        for n in range(level):
            J[k - 1, offs[n + 1]:offs[n + 2], offs[n]:offs[n + 1]] = B[n, k]
            J[k - 1, offs[n]:offs[n + 1], offs[n + 1]:offs[n + 2]] = B[n, k].conj().T
    e0 = np.zeros(offs[-1])
    e0[0] = 1.0
    return refs.orbit_moments(J, e0, level)


def moment_gap(got: list[np.ndarray], want: list[np.ndarray]) -> float:
    n = min(len(got), len(want))
    return refs.rel_gap(np.concatenate(got[:n]), np.concatenate(want[:n]))


def blocks_gap(A, B, refA, refB) -> float:
    got = np.concatenate([A[k].ravel() for k in refA] + [B[k].ravel() for k in refB])
    want = np.concatenate([refA[k].ravel() for k in refA] + [refB[k].ravel() for k in refB])
    return refs.rel_gap(got, want)


def basis_matrix(path: Path, N: int, L: int) -> np.ndarray:
    words = [w for n in range(L + 1) for w in refs.level_words(n, N)]
    index = {w: i for i, w in enumerate(words)}
    A = np.zeros((len(words), len(words)), dtype=complex)
    for s, row in json.loads(path.read_text())["coeffs"].items():
        for t, v in row.items():
            A[index[parse_word(s)], index[parse_word(t)]] = complex(*v)
    return A


class CliFailure(Exception):
    """The command exited with a nonzero status."""


class Runner:
    """Starts one CLI process; under a traced run, the launcher with spans."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.workload = None

    def __call__(self, args: list[str]) -> dict:
        tracer = self.workload.tracer if self.workload is not None else None
        if tracer is None:
            cmd = [sys.executable, "-m", "ncpoly.cli", *args]
        else:
            trace_out = self.workdir / "trace.json"
            cmd = [sys.executable, str(BENCH / "cli_launch.py"), str(trace_out), *args]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if tracer is not None:
            tracer.merge(json.loads(trace_out.read_text()), tracer.item)
        report = json.loads(proc.stdout)
        if proc.returncode != 0:
            raise CliFailure(f"exit {proc.returncode}: {report['status']}: "
                               f"{report['metrics'].get('message', '')}")
        return report


def setup(seed: int, workdir: Path, smoke: bool = False, corrupt: bool = False) -> Workload:
    cfg = SMOKE if smoke else {"gauss": GAUSS_LEVELS, "fock": FOCK_LEVEL, "rep": REP,
                               "toeplitz": TOEPLITZ, "dim": POINT_DIM}
    workdir.mkdir(parents=True, exist_ok=True)
    f = {name: workdir / f"{name}.json" for name in (
        "fock", "rep", "toeplitz", "Z", "Z2", "gauss_coeffs", "fock_coeffs")}
    run = Runner(workdir)
    items = []

    def out(name: str) -> Path:
        return workdir / f"out_{len(items)}_{name}.json"

    def add(name, label, args, check):
        items.append(Item(id=name, label=label, run=lambda: run(args), check=check))

    def hamburger(name, path, N, L, moments, label, refAB=None):
        G = refs.hankel_gram_from_moments(moments, N, L)
        lam = np.linalg.eigvalsh(G)
        wit = out("witness")

        def check(report):
            m = report["metrics"]
            checks = [("WrongVerdict", 0.0 if m["strictly_positive"] else 1.0, 0.0),
                      ("min_eigenvalue", abs(m["min_eigenvalue"] - lam[0]) / lam[-1],
                       refs.TOL["min_eigenvalue"])]
            if m["strictly_positive"]:
                A, B = read_blocks(wit)
                checks.append(("moments_jacobi", moment_gap(jacobi_moments(N, A, B, L - 1), moments),
                               refs.TOL["moments_jacobi"]))
                if refAB is not None:
                    checks.append(("recurrence", blocks_gap(A, B, *refAB), refs.TOL["recurrence"]))
            return checks
        add(name, label, ["hamburger", "--moments", str(path), "--level", str(L),
                          "--out-witness", str(wit)], check)

    # Gaussian and Fock inputs and exact blocks
    gauss = {}
    for L in cfg["gauss"]:
        gauss[L] = refs.gaussian_moments(L)
        write_moments(workdir / f"gauss_{L}.json", 1, gauss[L])
    LG = cfg["gauss"][0]
    gaussAB = refs.gaussian_recurrence(LG)
    write_coeffs(f["gauss_coeffs"], 1, LG, *gaussAB)
    LF = cfg["fock"]
    fock = refs.fock_moments(2, LF)
    fockAB = refs.fock_recurrence(2, LF)
    write_moments(f["fock"], 2, fock)
    write_coeffs(f["fock_coeffs"], 2, LF, *fockAB)

    # seeded inputs: a representation, stationary data, two ball points
    rng = np.random.default_rng([seed, 4])
    RN, RL, RD = cfg["rep"]
    X, v = refs.hermitian_tuple(rng, RN, RD, 1.0)
    rep = refs.orbit_moments(X, v, RL)
    write_moments(f["rep"], RN, rep)
    TN, TL = cfg["toeplitz"]
    Zt = refs.ball_point(rng, TN, 8, 0.3)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    stat = refs.stationary_data(Zt, h / np.linalg.norm(h), TL)
    write_moments(f["toeplitz"], TN, stat, kind="toeplitz")
    Z = refs.ball_point(rng, 2, cfg["dim"], 0.3)
    Z2 = refs.ball_point(rng, 2, cfg["dim"], 0.3)
    write_point(f["Z"], Z)
    write_point(f["Z2"], Z2)

    for L in cfg["gauss"]:
        hamburger(f"hamburger-gauss{L}", workdir / f"gauss_{L}.json", 1, L, gauss[L],
                  None if L == LG else "abs-threshold",
                  refs.gaussian_recurrence(L) if L == LG else None)
    hamburger(f"hamburger-fock{LF}", f["fock"], 2, LF, fock, None, fockAB)
    hamburger(f"hamburger-rep{RL}", f["rep"], RN, RL, rep, None)

    for name, path, NN, LL, moms, refAB in (("fock", f["fock"], 2, LF, fock, fockAB),
                                             ("gauss", workdir / f"gauss_{LG}.json", 1, LG,
                                              gauss[LG], gaussAB)):
        cpath, bpath = out("coeffs"), out("basis")
        G = refs.hankel_gram_from_moments(moms, NN, LL)

        def check(report, cpath=cpath, bpath=bpath, NN=NN, LL=LL, G=G, refAB=refAB):
            A, B = read_blocks(cpath)
            return [("recurrence", blocks_gap(A, B, *refAB), refs.TOL["recurrence"]),
                    ("orthonormality", refs.orthonormality(basis_matrix(bpath, NN, LL), G),
                     refs.TOL["orthonormality"])]
        add(f"recurrence-{name}", None, ["recurrence", "--moments", str(path), "--levels",
                                         str(LL), "--out", str(cpath), "--out-basis",
                                         str(bpath)], check)

    for name, cpath, NN, moms in (("gauss", f["gauss_coeffs"], 1, gauss[LG]),
                                  ("fock", f["fock_coeffs"], 2, fock)):
        mpath = out("moments")

        def check(report, mpath=mpath, NN=NN, moms=moms):
            data = json.loads(mpath.read_text())["moments"]
            got = [np.zeros(NN ** n, dtype=complex) for n in range(len(moms))]
            for key, val in data.items():
                w = parse_word(key)
                got[len(w)][refs.rank(w, NN)] = complex(*val)
            return [("moments_favard", moment_gap(got, moms), refs.TOL["moments_favard"])]
        add(f"favard-{name}", None, ["favard", "--coeffs", str(cpath), "--out-moments",
                                     str(mpath)], check)

    for name, cpath, NN, trunc, word, moms in (
            ("fock", f["fock_coeffs"], 2, LF - 1, (1, 2, 2, 1, 1, 1)[:2 * LF - 2], fock),
            ("gauss", f["gauss_coeffs"], 1, LG - 1, (1,) * (2 * LG - 6), gauss[LG])):
        want = moms[len(word)][refs.rank(word, NN)]

        def check(report, want=want):
            got = complex(*report["metrics"]["moment"])
            return [("moments_jacobi", abs(got - want) / max(1.0, abs(want)),
                     refs.TOL["moments_jacobi"])]
        add(f"jacobi-{name}", None, ["jacobi", "--coeffs", str(cpath), "--truncate",
                                     str(trunc), "--word", word_str(word)], check)

    bpath = out("basis")
    TG = refs.toeplitz_gram(stat, TN, TL)
    add(f"orthopoly-toeplitz{TL}", None,
        ["orthopoly", "--moments", str(f["toeplitz"]), "--level", str(TL), "--out", str(bpath)],
        lambda report: [("orthonormality", refs.orthonormality(basis_matrix(bpath, TN, TL), TG),
                         refs.TOL["orthonormality"])])

    wpath = out("cayley")
    W = refs.cayley(Z)
    add(f"cayley-d{cfg['dim']}", None,
        ["kernel", "--op", "cayley", "--point", str(f["Z"]), "--out", str(wpath)],
        lambda report: [("cayley", refs.rel_gap(
            np.array([read_matrix(M) for M in json.loads(wpath.read_text())["matrices"]]), W),
            refs.TOL["cayley"])])

    kpath = out("kernel")
    add(f"szego_ball-d{cfg['dim']}", None,
        ["kernel", "--op", "szego-ball", "--point", str(f["Z"]), "--point2", str(f["Z2"]),
         "--out", str(kpath)],
        lambda report: [("fixed_point", refs.ball_fixed_point(
            read_matrix(json.loads(kpath.read_text())["matrix"]), Z, Z2, np.eye(cfg["dim"])),
            refs.TOL["fixed_point"])])

    warm = next(i for i in items if i.id.startswith("jacobi-"))    # warm-up
    warm.check(warm.run())
    workload = Workload(items, cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))
    run.workload = workload
    return workload
