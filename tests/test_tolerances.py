"""The tolerance table in ``functional``: every threshold named once, and the
only ``tol`` parameters left are those a caller sets, defaulting to the table."""

import inspect

import pytest

from ncpoly import cli, functional, jacobi, opeval, orthopoly, recurrence, serialize, words
from ncpoly.functional import KERNEL_TOL, STRICT_TOL, _require_tol

TABLE = {name: value for name, value in vars(functional).items()
         if name.isupper() and not name.startswith("_") and isinstance(value, (int, float))}

KEPT = {(jacobi, "hamburger_check"): STRICT_TOL,
        **{(opeval, name): KERNEL_TOL
           for name in ("ball_sandwich", "szego_ball", "f_sandwich", "szego_siegel",
                        "reproduction_check", "cd_full_check")}}


def test_the_table_holds_every_named_threshold():
    assert set(TABLE) == {
        "SYMMETRY_TOL", "UNITAL_TOL", "UNIT_VECTOR_TOL", "HERMITIAN_INPUT_TOL", "STRICT_TOL",
        "MEMBERSHIP_TOL", "LADDER_TOL", "HERMITICITY_TOL", "DIAG_TOL", "RESIDUAL_TOL",
        "COND_BOUND", "SANDWICH_CAP", "KERNEL_TOL", "CERTIFICATE_CUTOFF", "FAVARD_GRAM_TOL",
        "FAVARD_ROUNDTRIP_TOL", "REPORT_SLACK", "SEPARATION_MARGIN_TOL", "SEPARATION_TOL"}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_every_entry_passes_the_tolerance_check(name):
    _require_tol(TABLE[name])


def test_the_modules_read_the_same_entries():
    for module in (jacobi, opeval, orthopoly, recurrence, cli):
        for name, value in vars(module).items():
            if name in TABLE:
                assert value is TABLE[name], (module.__name__, name)
    assert recurrence.COND_BOUND is functional.COND_BOUND
    assert opeval.SANDWICH_CAP is functional.SANDWICH_CAP


@pytest.mark.parametrize("module, name", sorted(KEPT, key=lambda k: k[1]),
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_each_kept_tol_defaults_to_its_table_entry(module, name):
    assert inspect.signature(getattr(module, name)).parameters["tol"].default == KEPT[module, name]


def test_no_other_public_function_takes_a_tolerance_or_a_cap():
    knobs = {"tol", "atol", "cap", "cond_bound"}
    found = set()
    for module in (functional, jacobi, opeval, orthopoly, recurrence, serialize, words):
        for name, fn in vars(module).items():
            if name.startswith("_") or getattr(fn, "__module__", None) != module.__name__:
                continue
            members = [(name, fn)] + ([(f"{name}.{m}", f) for m, f in vars(fn).items()
                                       if not m.startswith("_")] if inspect.isclass(fn) else [])
            for qual, f in members:
                if inspect.isfunction(f) and knobs & set(inspect.signature(f).parameters):
                    found.add((module, qual))
    assert found == set(KEPT)


def test_the_cli_defaults_are_the_table_entries():
    parser = cli.build_parser()
    assert parser.parse_args(["hamburger", "--moments", "m.json", "--level", "2"]).tol \
        == STRICT_TOL
    for op in ("szego-ball", "reproduce", "cd-inner", "cd-full"):
        assert parser.parse_args(["kernel", "--op", op]).tol == KERNEL_TOL
