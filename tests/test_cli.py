import json

import numpy as np
import pytest

from oracles import catalan_moments

from ncpoly.cli import main
from ncpoly.functional import MomentFunctional, from_representation
from ncpoly.opeval import OperatorTuple, random_ball_tuple
from ncpoly.orthopoly import orthogonalize
from ncpoly.serialize import save_basis, save_coeffs, save_matrix, save_moments, save_point
from ncpoly.words import EMPTY, Word

from test_functional import count_linalg, random_representation
from test_recurrence import scalar_blocks


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def catalan_file(tmp_path):
    vals = catalan_moments(8)
    moments = {EMPTY: complex(vals[0])}
    for n in range(1, 9):
        moments[Word((1,) * n)] = complex(vals[n])
    f = MomentFunctional(n_generators=1, kind="hankel", max_degree=8,
                         moments=moments)
    path = str(tmp_path / "catalan.json")
    save_moments(f, path)
    return path


@pytest.fixture
def hankel_file(tmp_path):
    rng = np.random.default_rng(80)
    mats, v = random_representation(rng, 2, 16)
    f = from_representation(mats, v, max_degree=7)
    path = str(tmp_path / "hankel.json")
    save_moments(f, path)
    return path


@pytest.fixture
def ball_file(tmp_path):
    rng = np.random.default_rng(81)
    t = random_ball_tuple(rng, 2, 2, margin=0.4)
    path = str(tmp_path / "ball.json")
    save_point(t, path)
    return path


def test_orthopoly_command(capsys, tmp_path, catalan_file):
    out = str(tmp_path / "basis.json")
    code, rep = run(capsys, "orthopoly", "--moments", catalan_file,
                    "--level", "4", "--out", out)
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["metrics"]["orthonormality_residual"] < 1e-9
    assert rep["artifacts"] == [out]


def test_orthopoly_decides_positivity_once(capsys, monkeypatch, catalan_file):
    calls = count_linalg(monkeypatch, "eigh", "eigvalsh")
    code, rep = run(capsys, "orthopoly", "--moments", catalan_file, "--level", "4")
    assert code == 0 and rep["metrics"]["min_eigenvalue"] > 0
    assert calls == ["eigvalsh"]


def test_orthopoly_determinant_method(capsys, catalan_file):
    code, rep = run(capsys, "orthopoly", "--moments", catalan_file,
                    "--level", "3", "--method", "determinant")
    assert code == 0
    assert rep["metrics"]["orthonormality_residual"] < 1e-9


def test_orthopoly_incomplete_data_exits_2(capsys, catalan_file):
    code, rep = run(capsys, "orthopoly", "--moments", catalan_file,
                    "--level", "9")
    assert code == 2
    assert rep["status"] == "error"
    assert "1.1" in rep["metrics"]["message"]


def test_missing_file_exits_2(capsys):
    code, rep = run(capsys, "orthopoly", "--moments", "/nonexistent.json",
                    "--level", "2")
    assert code == 2
    assert rep["status"] == "error"


def test_recurrence_and_favard_pipeline(capsys, tmp_path, catalan_file):
    coeffs = str(tmp_path / "coeffs.json")
    code, rep = run(capsys, "recurrence", "--moments", catalan_file,
                    "--levels", "3", "--out", coeffs)
    assert code == 0
    assert rep["metrics"]["recurrence_residual"] < 1e-9
    assert rep["metrics"]["hermiticity_defect"] < 1e-10

    back = str(tmp_path / "moments2.json")
    code, rep = run(capsys, "favard", "--coeffs", coeffs,
                    "--out-moments", back)
    assert code == 0
    assert rep["metrics"]["gram_residual"] < 1e-9
    assert rep["metrics"]["roundtrip_error"] < 1e-8
    with open(back) as fh:
        data = json.load(fh)
    assert abs(data["moments"]["1.1.1.1"][0] - 2.0) < 1e-10


def test_jacobi_command(capsys, tmp_path, catalan_file):
    coeffs = str(tmp_path / "coeffs.json")
    run(capsys, "recurrence", "--moments", catalan_file, "--levels", "3",
        "--out", coeffs)
    code, rep = run(capsys, "jacobi", "--coeffs", coeffs, "--truncate", "2",
                    "--word", "1.1.1.1")
    assert code == 0
    assert rep["metrics"]["hermiticity_defect"] == 0.0
    assert abs(rep["metrics"]["moment"][0] - 2.0) < 1e-10
    assert rep["metrics"]["truncated"] is True


def test_jacobi_command_refuses_non_finite_blocks(capsys, tmp_path):
    path = str(tmp_path / "nan.json")
    save_coeffs(scalar_blocks(1, [0.0, float("nan")], [1.0, 1.0]), path)
    code, rep = run(capsys, "jacobi", "--coeffs", path, "--truncate", "1",
                    "--word", "1.1")
    assert code == 2
    assert rep["status"] == "error"
    assert "A block (n=1, k=1) has a non-finite entry" in json.dumps(rep)


def test_hamburger_yes_and_no(capsys, tmp_path, catalan_file):
    code, rep = run(capsys, "hamburger", "--moments", catalan_file,
                    "--level", "3")
    assert code == 0
    assert rep["metrics"]["answer"] == "yes"

    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"n_generators": 1, "kind": "hankel", "max_degree": 2,
                   "moments": {"e": [1, 0], "1": [0, 0], "1.1": [-1, 0]}}, fh)
    code, rep = run(capsys, "hamburger", "--moments", bad, "--level", "1")
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["metrics"]["answer"] == "no"
    assert "certificate" in rep["metrics"]


def test_kernel_cayley(capsys, tmp_path, ball_file):
    out = str(tmp_path / "siegel.json")
    code, rep = run(capsys, "kernel", "--op", "cayley", "--point", ball_file,
                    "--out", out)
    assert code == 0
    assert rep["metrics"]["roundtrip_error"] < 1e-10
    assert rep["metrics"]["region_out"] == "siegel"

    code, rep = run(capsys, "kernel", "--op", "cayley", "--point", out,
                    "--inverse")
    assert code == 0
    assert rep["metrics"]["region_out"] == "ball"


def test_kernel_szego_ball(capsys, ball_file):
    code, rep = run(capsys, "kernel", "--op", "szego-ball",
                    "--point", ball_file, "--tol", "1e-8")
    assert code == 0
    assert rep["metrics"]["tail_bound"] <= 1e-8


def test_kernel_reproduce_random_points_deterministic(capsys):
    args = ["kernel", "--op", "reproduce", "--random-points",
            "--random-region", "siegel", "--dim", "3", "--n-gen", "2",
            "--seed", "5"]
    code1, rep1 = run(capsys, *args)
    code2, rep2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["metrics"]["residual"] <= rep1["metrics"]["threshold"]


def test_kernel_cd_pipeline(capsys, tmp_path, hankel_file):
    basis = str(tmp_path / "basis.json")
    coeffs = str(tmp_path / "coeffs.json")
    code, _ = run(capsys, "recurrence", "--moments", hankel_file,
                  "--levels", "3", "--out", coeffs, "--out-basis", basis)
    assert code == 0
    code, rep = run(capsys, "kernel", "--op", "cd-inner", "--basis", basis,
                    "--coeffs", coeffs, "--n", "2", "--random-points",
                    "--dim", "2", "--n-gen", "2", "--seed", "3",
                    "--tol", "1e-10")
    assert code == 0
    assert rep["metrics"]["residual"] < 1e-10
    code, rep = run(capsys, "kernel", "--op", "cd-full", "--basis", basis,
                    "--coeffs", coeffs, "--n", "2", "--random-points",
                    "--dim", "2", "--n-gen", "2", "--seed", "3",
                    "--tol", "1e-7")
    assert code == 0
    assert rep["metrics"]["residual"] <= rep["metrics"]["threshold"]


def test_kernel_cd_refuses_blocks_for_another_generator_count(capsys, tmp_path, hankel_file):
    coeffs = str(tmp_path / "coeffs.json")
    code, _ = run(capsys, "recurrence", "--moments", hankel_file,
                  "--levels", "3", "--out", coeffs)
    assert code == 0
    mats, v = random_representation(np.random.default_rng(82), 3, 20)
    basis = str(tmp_path / "basis3.json")
    save_basis(orthogonalize(from_representation(mats, v, max_degree=4), 2), basis)
    for op in ("cd-inner", "cd-full"):
        code, rep = run(capsys, "kernel", "--op", op, "--basis", basis,
                        "--coeffs", coeffs, "--n", "1", "--random-points",
                        "--dim", "2", "--n-gen", "3", "--seed", "3")
        assert code == 2
        assert rep["status"] == "error"
        assert "basis for 3" in rep["metrics"]["message"]


def test_kernel_separate(capsys, tmp_path):
    out = str(tmp_path / "tuples.json")
    code, rep = run(capsys, "kernel", "--op", "separate", "--word", "1.2",
                    "--n-gen", "2", "--out", out)
    assert code == 0
    assert rep["metrics"]["n_tuples"] == 4
    assert abs(rep["metrics"]["lambda_min"] - 0.5) < 1e-12
    assert rep["metrics"]["stacked_rank"] == 4
    with open(out) as fh:
        assert len(json.load(fh)["tuples"]) == 4


def test_kernel_membership_failure_exits_1(capsys, tmp_path):
    mats = np.zeros((1, 2, 2), dtype=complex)
    mats[0] = 2.0 * np.eye(2)
    from ncpoly.opeval import OperatorTuple
    path = str(tmp_path / "outside.json")
    save_point(OperatorTuple(n_generators=1, dim=2, mats=mats), path)
    code, rep = run(capsys, "kernel", "--op", "cayley", "--point", path)
    assert code == 1
    assert rep["status"] == "fail"


def test_nonpositive_moments_exit_1(capsys, tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"n_generators": 1, "kind": "hankel", "max_degree": 2,
                   "moments": {"e": [1, 0], "1": [0, 0], "1.1": [-1, 0]}}, fh)
    code, rep = run(capsys, "orthopoly", "--moments", bad, "--level", "1")
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["metrics"]["min_eigenvalue"] < 0


@pytest.fixture
def nan_point_file(tmp_path):
    mats = random_ball_tuple(np.random.default_rng(83), 2, 2).mats
    pairs = np.stack((mats.real, mats.imag), -1).tolist()
    pairs[1][0][1][0] = float("nan")          # json writes it as NaN
    path = str(tmp_path / "nan.json")
    with open(path, "w") as fh:
        json.dump({"n_generators": 2, "dim": 2, "region": "ball", "matrices": pairs}, fh)
    return path


@pytest.mark.parametrize("argv", [
    "orthopoly --moments {moments} --level -1",
    "recurrence --moments {moments} --levels -1",
    "hamburger --moments {moments} --level -1",
    "kernel --op szego-ball --random-points",
    "kernel --op szego-ball --random-points --n-gen 0",
    "kernel --op szego-ball --random-points --n-gen 2 --dim 0",
    "kernel --op separate --word e",
    "kernel --op separate --word 1.2 --unit-dim 0",
    "kernel --op szego-ball --point {nan_point}",
    "kernel --op cayley --point {nan_point}",
])
def test_malformed_arguments_exit_2(capsys, catalan_file, nan_point_file, argv):
    code, rep = run(capsys, *argv.format(moments=catalan_file, nan_point=nan_point_file).split())
    assert code == 2
    assert rep["status"] == "error"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [
    "hamburger --moments {moments} --level 4",
    "kernel --op szego-ball --random-points --n-gen 2 --dim 3",
    "kernel --op szego-siegel --random-points --n-gen 2 --dim 3",
    "kernel --op reproduce --random-points --n-gen 2 --dim 3",
], ids=["hamburger", "szego-ball", "szego-siegel", "reproduce"])
def test_a_bad_tol_exits_2(capsys, catalan_file, argv, tol):
    code, rep = run(capsys, *argv.format(moments=catalan_file).split(), "--tol", tol)
    assert code == 2
    assert rep["status"] == "error"
    assert "tol must be a finite number >= 0" in rep["metrics"]["message"]


@pytest.mark.parametrize("op", ["cd-inner", "cd-full"])
@pytest.mark.parametrize("extra", [("--n", "-1"), ("--n", "1", "--tol", "nan")],
                         ids=["n=-1", "tol=nan"])
def test_kernel_cd_refuses_a_negative_level_or_bad_tol(capsys, tmp_path, hankel_file, op,
                                                        extra):
    basis = str(tmp_path / "basis.json")
    coeffs = str(tmp_path / "coeffs.json")
    code, _ = run(capsys, "recurrence", "--moments", hankel_file,
                  "--levels", "2", "--out", coeffs, "--out-basis", basis)
    assert code == 0
    code, rep = run(capsys, "kernel", "--op", op, "--basis", basis, "--coeffs", coeffs,
                    "--random-points", "--dim", "2", "--n-gen", "2", *extra)
    assert code == 2
    assert rep["status"] == "error"
    assert ("level n must be >= 0" if "-1" in extra else "tol must be") in rep["metrics"]["message"]


@pytest.mark.parametrize("region", ["ball", "siegel"])
def test_kernel_reproduce_refuses_a_t_matrix_of_the_wrong_shape(capsys, tmp_path, region):
    path = str(tmp_path / "wide.json")
    save_matrix(np.ones((3, 4)), path)
    code, rep = run(capsys, "kernel", "--op", "reproduce", "--random-points",
                    "--random-region", region, "--n-gen", "2", "--dim", "3",
                    "--t-matrix", path)
    assert code == 2
    assert rep["status"] == "error"
    assert "T must be a 3 x 3 matrix" in rep["metrics"]["message"]


@pytest.mark.parametrize("rows", [{"e": {"e": [1, 0]}, "1": {"1.1": [1, 0], "1": [1, 0]}},
                                  {"e": {"e": [1, 0]}}], ids=["long-column", "missing-row"])
def test_kernel_cd_refuses_a_malformed_basis(capsys, tmp_path, rows):
    basis, coeffs = str(tmp_path / "basis.json"), str(tmp_path / "coeffs.json")
    with open(basis, "w") as fh:
        json.dump({"n_generators": 1, "level": 1, "coeffs": rows}, fh)
    save_coeffs(scalar_blocks(1, [0.0], [1.0]), coeffs)
    code, rep = run(capsys, "kernel", "--op", "cd-inner", "--basis", basis, "--coeffs", coeffs,
                    "--n", "0", "--random-points", "--random-region", "siegel",
                    "--n-gen", "1", "--dim", "2")
    assert code == 2
    assert rep["status"] == "error"
    assert "basis" in rep["metrics"]["message"]


def test_kernel_cd_refuses_a_basis_of_negative_level(capsys, tmp_path):
    basis, coeffs = str(tmp_path / "basis.json"), str(tmp_path / "coeffs.json")
    with open(basis, "w") as fh:
        json.dump({"n_generators": 1, "level": -1, "coeffs": {}}, fh)
    save_coeffs(scalar_blocks(1, [0.0], [1.0]), coeffs)
    code, rep = run(capsys, "kernel", "--op", "cd-inner", "--basis", basis, "--coeffs", coeffs,
                    "--n", "0", "--random-points", "--random-region", "siegel",
                    "--n-gen", "1", "--dim", "2")
    assert code == 2
    assert rep["status"] == "error"
    assert rep["metrics"]["message"] == "basis level must be >= 0, got -1"


def test_kernel_reproduce_refuses_a_ball_tagged_point_outside_the_ball(capsys, tmp_path):
    path = str(tmp_path / "out.json")
    save_point(OperatorTuple(n_generators=2, dim=2, mats=[1.5 * np.eye(2), np.zeros((2, 2))],
                             region="ball"), path)
    code, rep = run(capsys, "kernel", "--op", "reproduce", "--point", path)
    assert code == 1
    assert rep["status"] == "fail"
    assert "ball region" in rep["metrics"]["message"]


@pytest.mark.parametrize("op", ["cayley", "szego-ball"])
def test_kernel_refuses_a_point_with_no_generators(capsys, tmp_path, op):
    path = str(tmp_path / "empty.json")
    with open(path, "w") as fh:
        json.dump({"n_generators": 0, "dim": 2, "region": "ball", "matrices": []}, fh)
    code, rep = run(capsys, "kernel", "--op", op, "--point", path)
    assert code == 2
    assert rep["status"] == "error"
    assert "n_generators >= 1" in rep["metrics"]["message"]
