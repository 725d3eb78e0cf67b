"""JSON file formats for moments, bases, recurrence blocks, and points.

Complex scalars are stored as two-element [re, im] arrays, words as dotted
strings ("1.2.1", empty word "e"), block keys as "n,k". Loaders validate
shape and key syntax and name the offending entry in the error message.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import ValidationError
from .functional import MomentFunctional
from .opeval import OperatorTuple
from .orthopoly import OrthoBasis
from .recurrence import RecurrenceCoeffs
from .words import Word


def _cx(v: complex) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def _uncx(v: Any, where: str) -> complex:
    if type(v) is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float:
        return complex(v[0], v[1])
    if isinstance(v, (int, float)):
        return complex(v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) for x in v)):
        return complex(v[0], v[1])
    raise ValidationError(f"{where}: expected [re, im], got {v!r}")


def _word(text: Any, where: str, n_generators: int | None = None) -> Word:
    if not isinstance(text, str):
        raise ValidationError(f"{where}: word keys must be strings, got {text!r}")
    try:
        return Word.parse(text, n_generators)
    except (ValidationError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _matrix(rows: Any, where: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"{where}: expected a list of rows")
    out = _pair_array(rows)
    if out is None:
        # bare reals, or an entry to refuse: walk the entries and name the offender
        width = len(rows[0])
        out = np.zeros((len(rows), width), dtype=complex)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValidationError(f"{where}: ragged row {i}")
            for j, v in enumerate(row):
                out[i, j] = _uncx(v, f"{where}[{i}][{j}]")
    if shape is not None and out.shape != shape:
        raise ValidationError(f"{where}: expected shape {shape}, got {out.shape}")
    return out


def _pair_array(rows: list) -> np.ndarray | None:
    """The matrix when rows is a regular array of numeric [re, im] pairs, else None.

    The pairs are read through a float64 view as complex, which keeps every
    pair's bits; re + 1j*im would turn 1 + inf j into nan + inf j and lose
    the sign of a -0.0 imaginary part.
    """
    try:
        a = np.array(rows)
    except (ValueError, TypeError, OverflowError):   # ragged or unconvertible
        return None
    if a.ndim != 3 or a.shape[2] != 2 or a.dtype.kind not in "fi":
        return None
    return np.ascontiguousarray(a, dtype=np.float64).view(complex)[..., 0]


def _matrix_out(M: np.ndarray) -> list:
    """[re, im] pairs in the shape of M, as Python floats."""
    M = np.asarray(M, dtype=complex)
    return np.stack((M.real, M.imag), -1).tolist()


def _read(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object at top level")
    return data


def _write(path: str, data: dict) -> None:
    # one line through json's C encoder, which json.dump to a file never uses
    with open(path, "w") as fh:
        fh.write(json.dumps(data) + "\n")


def _require(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise ValidationError(f"{path}: missing field {key!r}")
    return data[key]


def load_moments(path: str) -> MomentFunctional:
    data = _read(path)
    N = int(_require(data, "n_generators", path))
    kind = _require(data, "kind", path)
    moments = _moment_entries(data, path, N)
    kernel = None
    if data.get("kernel") is not None:
        kernel = {}
        for key, v in data["kernel"].items():
            parts = key.split("|")
            if len(parts) != 2:
                raise ValidationError(f"{path}: kernel[{key!r}]: expected 'sigma|tau'")
            pair = (_word(parts[0], f"{path}: kernel[{key!r}]", N),
                    _word(parts[1], f"{path}: kernel[{key!r}]", N))
            kernel[pair] = _uncx(v, f"{path}: kernel[{key!r}]")
    max_degree = int(data.get("max_degree", max((len(w) for w in moments), default=0)))
    return MomentFunctional(n_generators=N, kind=kind, max_degree=max_degree,
                            moments=moments, kernel=kernel)


def load_moment_dict(path: str) -> tuple[int, dict[Word, complex]]:
    """Raw (n_generators, moments) without functional-level validation.

    For decision procedures that must classify a defective moment set
    rather than refuse to read it.
    """
    data = _read(path)
    N = int(_require(data, "n_generators", path))
    return N, _moment_entries(data, path, N)


def _moment_entries(data: dict, path: str, n_generators: int) -> dict[Word, complex]:
    """The 'moments' object of a moment file as {Word: value}, in file order."""
    raw = _require(data, "moments", path)
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: 'moments' must be an object")
    return {_word(key, f"{path}: moments[{key!r}]", n_generators):
            _uncx(v, f"{path}: moments[{key!r}]") for key, v in raw.items()}


def save_moments(f: MomentFunctional, path: str) -> None:
    data: dict[str, Any] = {
        "n_generators": f.n_generators,
        "kind": f.kind,
        "max_degree": f.max_degree,
        "moments": {str(w): _cx(v) for w, v in sorted(f.moments.items(),
                                                      key=lambda kv: kv[0].sort_key())},
    }
    if f.kernel is not None:
        data["kernel"] = {f"{s}|{t}": _cx(v) for (s, t), v in f.kernel.items()}
    _write(path, data)


def load_basis(path: str) -> OrthoBasis:
    data = _read(path)
    N = int(_require(data, "n_generators", path))
    level = int(_require(data, "level", path))
    raw = _require(data, "coeffs", path)
    coeffs = {}
    for skey, row in raw.items():
        sigma = _word(skey, f"{path}: coeffs[{skey!r}]", N)
        if not isinstance(row, dict):
            raise ValidationError(f"{path}: coeffs[{skey!r}] must be an object")
        coeffs[sigma] = {
            _word(tkey, f"{path}: coeffs[{skey!r}][{tkey!r}]", N):
                _uncx(v, f"{path}: coeffs[{skey!r}][{tkey!r}]")
            for tkey, v in row.items()}
    return OrthoBasis(n_generators=N, level=level, coeffs=coeffs)


def save_basis(basis: OrthoBasis, path: str) -> None:
    # row i lists the words up to its own, zeros included
    names = [str(w) for w in basis.words()]
    A = basis.matrix()
    P = np.stack((A.real, A.imag), -1)
    rows = {s: dict(zip(names, P[i, :i + 1].tolist())) for i, s in enumerate(names)}
    _write(path, {"n_generators": basis.n_generators, "level": basis.level, "coeffs": rows})


def _block_key(key: str, path: str, section: str) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{path}: {section}[{key!r}]: expected 'n,k'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"{path}: {section}[{key!r}]: expected integers") from None


def load_coeffs(path: str) -> RecurrenceCoeffs:
    data = _read(path)
    N = int(_require(data, "n_generators", path))
    levels = int(_require(data, "levels", path))
    blocks = {"A": {}, "B": {}}
    for section in ("A", "B"):
        raw = _require(data, section, path)
        for key, rows in raw.items():
            n, k = _block_key(key, path, section)
            hi = N ** (n + 1) if section == "B" else N**n
            blocks[section][n, k] = _matrix(rows, f"{path}: {section}[{key!r}]",
                                            shape=(hi, N**n))
    return RecurrenceCoeffs(n_generators=N, levels=levels,
                            A=blocks["A"], B=blocks["B"])


def save_coeffs(coeffs: RecurrenceCoeffs, path: str) -> None:
    _write(path, {
        "n_generators": coeffs.n_generators,
        "levels": coeffs.levels,
        "A": {f"{n},{k}": _matrix_out(M) for (n, k), M in sorted(coeffs.A.items())},
        "B": {f"{n},{k}": _matrix_out(M) for (n, k), M in sorted(coeffs.B.items())},
    })


def load_point(path: str) -> OperatorTuple:
    data = _read(path)
    N = int(_require(data, "n_generators", path))
    dim = int(_require(data, "dim", path))
    raw = _require(data, "matrices", path)
    if not isinstance(raw, list) or len(raw) != N:
        raise ValidationError(f"{path}: 'matrices' must list {N} matrices")
    mats = np.zeros((N, dim, dim), dtype=complex)
    for k, rows in enumerate(raw):
        mats[k] = _matrix(rows, f"{path}: matrices[{k}]", shape=(dim, dim))
    region = data.get("region", "unchecked")
    return OperatorTuple(n_generators=N, dim=dim, mats=mats, region=region)


def save_point(t: OperatorTuple, path: str) -> None:
    _write(path, {
        "n_generators": t.n_generators,
        "dim": t.dim,
        "region": t.region,
        "matrices": _matrix_out(t.mats),
    })


def load_matrix(path: str) -> np.ndarray:
    data = _read(path)
    return _matrix(_require(data, "matrix", path), f"{path}: matrix")


def save_matrix(M: np.ndarray, path: str) -> None:
    _write(path, {"matrix": _matrix_out(M)})
