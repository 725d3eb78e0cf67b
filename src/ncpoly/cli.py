"""Command line front end.

Every subcommand prints a single JSON report to stdout:

    {"command": ..., "status": "ok" | "fail" | "error",
     "metrics": {...}, "artifacts": [paths written]}

Exit codes: 0 clean, 1 a mathematical check failed (non-positive kernel,
membership refused, residual above tolerance), 2 malformed input. Commands
that generate random test points take --seed and are deterministic given it.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import jacobi as jacobi_mod
from . import opeval
from . import serialize
from .errors import (ConsistencyError, ConvergenceError, DataIncompleteError,
                     MembershipError, PositivityError, ValidationError)
from .functional import (FAVARD_GRAM_TOL, FAVARD_ROUNDTRIP_TOL, KERNEL_TOL, REPORT_SLACK,
                         SEPARATION_MARGIN_TOL, SEPARATION_TOL, STRICT_TOL, _require_tol, gram,
                         require_strict_positivity, strict_positivity)
from .orthopoly import (OrthoBasis, _cholesky_basis, _word_stack, determinant_formula,
                        orthogonalize, orthonormality_residual)
from .recurrence import extract, favard, residual_check
from .serialize import _cx
from .words import Word, word_index, words_up_to


def _report(command: str, status: str, metrics: dict, artifacts: list[str]) -> None:
    print(json.dumps({"command": command, "status": status,
                      "metrics": metrics, "artifacts": artifacts}, indent=2))


def cmd_orthopoly(args) -> tuple[str, dict, list]:
    f = serialize.load_moments(args.moments)
    G = gram(f, args.level)
    if args.method == "determinant":
        pos = strict_positivity(f, args.level, G=G)
        coeffs = {}
        for w in words_up_to(args.level, f.n_generators):
            coeffs[w] = determinant_formula(f, w)
        basis = OrthoBasis(n_generators=f.n_generators, level=args.level,
                           coeffs=coeffs)
    else:
        # orthogonalize in its two steps, keeping the verdict for its eigenvalue
        pos = require_strict_positivity(f, args.level, G=G)
        basis = _cholesky_basis(f.n_generators, G)
    resid = orthonormality_residual(basis, G)
    artifacts = []
    if args.out:
        serialize.save_basis(basis, args.out)
        artifacts.append(args.out)
    metrics = {"level": args.level, "method": args.method,
               "min_eigenvalue": pos.min_eigenvalue,
               "orthonormality_residual": resid}
    return "ok", metrics, artifacts


def cmd_recurrence(args) -> tuple[str, dict, list]:
    f = serialize.load_moments(args.moments)
    G = gram(f, args.levels)
    basis = orthogonalize(f, args.levels, G=G)
    coeffs = extract(f, basis, args.levels, G=G)
    herm = max(float(np.max(np.abs(a - a.conj().T)))
               for a in coeffs.A.values())
    diag_min = min(float(np.min(np.diag(coeffs.b_block(n)).real))
                   for n in range(coeffs.levels))
    artifacts = []
    if args.out:
        serialize.save_coeffs(coeffs, args.out)
        artifacts.append(args.out)
    if args.out_basis:
        serialize.save_basis(basis, args.out_basis)
        artifacts.append(args.out_basis)
    metrics = {"levels": args.levels,
               "recurrence_residual": residual_check(basis, coeffs),
               "hermiticity_defect": herm,
               "b_diagonal_min": diag_min}
    return "ok", metrics, artifacts


def cmd_favard(args) -> tuple[str, dict, list]:
    coeffs = serialize.load_coeffs(args.coeffs)
    levels = args.levels if args.levels is not None else coeffs.levels
    basis, f = favard(coeffs, levels)
    G = gram(f, levels)
    resid = orthonormality_residual(basis, G)
    back = extract(f, basis, levels, G=G)
    roundtrip = 0.0
    for key in back.A:
        roundtrip = max(roundtrip, float(np.max(np.abs(back.A[key] - coeffs.A[key]))))
        roundtrip = max(roundtrip, float(np.max(np.abs(back.B[key] - coeffs.B[key]))))
    artifacts = []
    if args.out_basis:
        serialize.save_basis(basis, args.out_basis)
        artifacts.append(args.out_basis)
    if args.out_moments:
        serialize.save_moments(f, args.out_moments)
        artifacts.append(args.out_moments)
    metrics = {"levels": levels, "gram_residual": resid,
               "roundtrip_error": roundtrip}
    status = "ok" if resid <= FAVARD_GRAM_TOL and roundtrip <= FAVARD_ROUNDTRIP_TOL else "fail"
    return status, metrics, artifacts


def cmd_jacobi(args) -> tuple[str, dict, list]:
    coeffs = serialize.load_coeffs(args.coeffs)
    family = jacobi_mod.build(coeffs, args.truncate)
    herm = max(float(np.max(np.abs(J.matrix - J.matrix.conj().T)))
               for J in family)
    metrics = {"level": args.truncate, "size": family[0].size,
               "n_generators": coeffs.n_generators,
               "hermiticity_defect": herm}
    if args.word:
        w = Word.parse(args.word, coeffs.n_generators)
        mv = jacobi_mod.moment(family, w)
        metrics["word"] = str(w)
        metrics["moment"] = _cx(mv.value)
        metrics["truncated"] = mv.truncated
    artifacts = []
    if args.out:
        serialize._write(args.out, {"n_generators": coeffs.n_generators,
                                    "level": args.truncate, "size": family[0].size,
                                    "J": [serialize._matrix_out(J.matrix) for J in family]})
        artifacts.append(args.out)
    return "ok", metrics, artifacts


def cmd_hamburger(args) -> tuple[str, dict, list]:
    n_gen, moments = serialize.load_moment_dict(args.moments)
    res = jacobi_mod.hamburger_check(moments, n_gen, args.level, tol=args.tol)
    metrics = {"answer": "yes" if res.positive else "no",
               "min_eigenvalue": res.min_eigenvalue,
               "strictly_positive": res.strictly_positive}
    if res.reason:
        metrics["reason"] = res.reason
    if res.certificate:
        metrics["certificate"] = {str(w): _cx(v) for w, v in res.certificate.items()}
    artifacts = []
    if res.witness is not None and args.out_witness:
        serialize.save_coeffs(res.witness, args.out_witness)
        artifacts.append(args.out_witness)
    return ("ok" if res.positive else "fail"), metrics, artifacts


def _load_points(args, region: str) -> tuple[opeval.OperatorTuple, opeval.OperatorTuple]:
    if args.random_points:
        if args.point or args.point2:
            raise ValidationError("give either point files or --random-points")
        if args.n_gen is None:
            raise ValidationError("--n-gen required with --random-points")
        rng = np.random.default_rng(args.seed)
        maker = (opeval.random_ball_tuple if region == "ball"
                 else opeval.random_siegel_tuple)
        t = maker(rng, args.n_gen, args.dim, args.margin)
        t2 = maker(rng, args.n_gen, args.dim, args.margin)
        return t, t2
    if not args.point:
        raise ValidationError("--point required (or --random-points)")
    t = serialize.load_point(args.point)
    t2 = serialize.load_point(args.point2) if args.point2 else t
    return t, t2


def _op_cayley(args) -> tuple[str, dict, list]:
    if not args.point:
        raise ValidationError("--point required")
    t = serialize.load_point(args.point)
    if args.inverse:
        out = opeval.cayley_inverse(t)
        back = opeval.cayley(out)
    else:
        out = opeval.cayley(t)
        back = opeval.cayley_inverse(out)
    roundtrip = float(np.max(np.abs(back.mats - t.mats)))
    metrics = {"direction": "inverse" if args.inverse else "forward",
               "region_out": out.region,
               "lambda_min_out": opeval.membership(out, out.region).lambda_min,
               "roundtrip_error": roundtrip}
    artifacts = []
    if args.out:
        serialize.save_point(out, args.out)
        artifacts.append(args.out)
    return "ok", metrics, artifacts


def _op_szego(args, region: str) -> tuple[str, dict, list]:
    t, t2 = _load_points(args, region)
    fn = opeval.szego_ball if region == "ball" else opeval.szego_siegel
    res = fn(t, t2, tol=args.tol)
    metrics = {"truncation_length": res.truncation_length,
               "tail_bound": res.tail_bound,
               "value_norm": float(np.linalg.norm(res.value, 2))}
    if t.dim == 1:
        metrics["value"] = _cx(res.value[0, 0])
    artifacts = []
    if args.out:
        serialize.save_matrix(res.value, args.out)
        artifacts.append(args.out)
    return "ok", metrics, artifacts


def _op_reproduce(args) -> tuple[str, dict, list]:
    region = args.random_region if args.random_points else None
    t, t2 = _load_points(args, region or "ball")
    T = serialize.load_matrix(args.t_matrix) if args.t_matrix else np.eye(t.dim)
    return _residual_report(opeval.reproduction_check(t, t2, T, tol=args.tol), args.tol)


def _residual_report(res: opeval.ReproductionResult | opeval.CDFullResult,
                     tol: float) -> tuple[str, dict, list]:
    """Status and metrics of a kernel-sum residual, judged past its tail bound."""
    threshold = max(tol, res.tail_bound) + REPORT_SLACK
    metrics = {"residual": res.residual, "tail_bound": res.tail_bound,
               "truncation_length": res.truncation_length,
               "threshold": threshold}
    return ("ok" if res.residual <= threshold else "fail"), metrics, []


def _op_cd(args, full: bool) -> tuple[str, dict, list]:
    if not (args.basis and args.coeffs):
        raise ValidationError("--basis and --coeffs required")
    if args.n is None:
        raise ValidationError("--n required")
    basis = serialize.load_basis(args.basis)
    coeffs = serialize.load_coeffs(args.coeffs)
    t, t2 = _load_points(args, "siegel")
    if full:
        res = opeval.cd_full_check(basis, coeffs, args.n, t, t2, tol=args.tol)
        return _residual_report(res, args.tol)
    _require_tol(args.tol)  # the one threshold the command applies itself
    resid = opeval.cd_inner_identity(basis, coeffs, args.n, t, t2)
    metrics = {"residual": resid, "threshold": args.tol}
    return ("ok" if resid <= args.tol else "fail"), metrics, []


def _op_separate(args) -> tuple[str, dict, list]:
    if not args.word:
        raise ValidationError("--word required")
    sigma = Word.parse(args.word)
    tuples = opeval.separating_tuples(sigma, unit_dim=args.unit_dim,
                                      n_generators=args.n_gen)
    N = tuples[0].n_generators
    k = len(sigma)
    u = args.unit_dim
    scale = 2.0 ** (-k / 2.0)
    lam_min = min(opeval.membership(t, "ball").lambda_min for t in tuples)
    target_err = 0.0
    offword_max = 0.0
    rows = []
    r = word_index(sigma, N)
    for p, t in enumerate(tuples, start=1):
        i0 = (p - 1) * u
        j0 = (k + p - 1) * u if p <= k else (p - k - 1) * u
        stars = _word_stack(t.mats, k)[-N**k:].conj().transpose(0, 2, 1)
        blocks = stars[:, i0:i0 + u, j0:j0 + u]
        target_err = max(target_err, float(np.max(np.abs(blocks[r] - scale * np.eye(u)))))
        offword_max = max(offword_max,
                          float(np.max(np.abs(np.delete(blocks, r, axis=0)), initial=0.0)))
        rows.append(stars[r, i0:i0 + u])
    rank = int(np.linalg.matrix_rank(np.vstack(rows), tol=SEPARATION_TOL))
    metrics = {"word": str(sigma), "n_tuples": len(tuples),
               "lambda_min": lam_min, "target_error": target_err,
               "offword_max": offword_max, "stacked_rank": rank,
               "rank_expected": 2 * k * u}
    ok = (abs(lam_min - 0.5) <= SEPARATION_MARGIN_TOL and target_err <= SEPARATION_TOL
          and offword_max <= SEPARATION_TOL and rank == 2 * k * u)
    artifacts = []
    if args.out:
        serialize._write(args.out, {"tuples": [
            {"n_generators": t.n_generators, "dim": t.dim, "region": t.region,
             "matrices": serialize._matrix_out(t.mats)} for t in tuples]})
        artifacts.append(args.out)
    return ("ok" if ok else "fail"), metrics, artifacts


def cmd_kernel(args) -> tuple[str, dict, list]:
    ops = {"szego-ball": lambda a: _op_szego(a, "ball"),
           "szego-siegel": lambda a: _op_szego(a, "siegel"),
           "cayley": _op_cayley,
           "reproduce": _op_reproduce,
           "cd-inner": lambda a: _op_cd(a, full=False),
           "cd-full": lambda a: _op_cd(a, full=True),
           "separate": _op_separate}
    return ops[args.op](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpoly",
        description="orthogonal polynomials in noncommuting variables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orthopoly", help="orthonormalize monomials against moments")
    p.add_argument("--moments", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--method", choices=["cholesky", "determinant"],
                   default="cholesky")
    p.add_argument("--out")
    p.set_defaults(func=cmd_orthopoly)

    p = sub.add_parser("recurrence", help="extract three-term recurrence blocks")
    p.add_argument("--moments", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--out-basis")
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("favard", help="rebuild basis and moments from blocks")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--levels", type=int)
    p.add_argument("--out-basis")
    p.add_argument("--out-moments")
    p.set_defaults(func=cmd_favard)

    p = sub.add_parser("jacobi", help="assemble truncated block Jacobi operators")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--truncate", type=int, required=True)
    p.add_argument("--word")
    p.add_argument("--out")
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("hamburger", help="decide positivity of a moment set")
    p.add_argument("--moments", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tol", type=float, default=STRICT_TOL)
    p.add_argument("--out-witness")
    p.set_defaults(func=cmd_hamburger)

    p = sub.add_parser("kernel", help="kernel sums and geometry at matrix points")
    p.add_argument("--op", required=True,
                   choices=["szego-ball", "szego-siegel", "cayley", "reproduce",
                            "cd-inner", "cd-full", "separate"])
    p.add_argument("--point")
    p.add_argument("--point2")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--t-matrix")
    p.add_argument("--basis")
    p.add_argument("--coeffs")
    p.add_argument("--n", type=int)
    p.add_argument("--word")
    p.add_argument("--unit-dim", type=int, default=1)
    p.add_argument("--n-gen", type=int)
    p.add_argument("--tol", type=float, default=KERNEL_TOL)
    p.add_argument("--out")
    p.add_argument("--random-points", action="store_true")
    p.add_argument("--random-region", choices=["ball", "siegel"], default="ball")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--margin", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command if args.command != "kernel" else f"kernel:{args.op}"
    try:
        status, metrics, artifacts = args.func(args)
    except (ValidationError, DataIncompleteError, OSError) as exc:
        _report(command, "error", {"message": str(exc)}, [])
        return 2
    except PositivityError as exc:
        metrics = {"message": str(exc)}
        if exc.min_eigenvalue is not None:
            metrics["min_eigenvalue"] = exc.min_eigenvalue
        _report(command, "fail", metrics, [])
        return 1
    except (MembershipError, ConvergenceError, ConsistencyError) as exc:
        _report(command, "fail", {"message": str(exc)}, [])
        return 1
    _report(command, status, metrics, artifacts)
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
