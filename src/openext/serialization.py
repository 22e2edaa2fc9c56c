"""Versioned JSON and CSV encodings plus atomic file output.

Schema "openext/v1".  Complex scalars are encoded as [re, im] pairs and
matrices as nested row arrays, so every stored number is a plain JSON
float.  Floats are written with Python's shortest round-trip repr and
dictionaries keep a fixed insertion order, which makes reports
byte-identical across runs for identical inputs.

CSV formats:
  kernel samples   t, re_11, im_11, re_12, im_12, ...   (row-major)
  trajectory       t, re_1, im_1, re_2, im_2, ...
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ValidationError
from .model import ConservativeSystem, MeasureAtom, OpenSystem, PointMeasure

SCHEMA = "openext/v1"

__all__ = [
    "SCHEMA",
    "complex_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "system_to_json",
    "system_from_json",
    "measure_to_json",
    "measure_from_json",
    "open_system_to_json",
    "open_system_from_json",
    "detect_kind",
    "load_object",
    "dumps",
    "atomic_write_text",
    "write_kernel_csv",
    "read_kernel_csv",
    "write_trajectory_csv",
]


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=np.complex128)
    return [[complex_to_json(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]


def _as_complex(entry, where: str) -> complex:
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ValidationError(f"{where}: complex entries must be [re, im] pairs")
    re, im = entry
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
        raise ValidationError(f"{where}: complex entries must be numeric")
    return complex(float(re), float(im))


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{where} must be a non-empty list of rows")
    width = None
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValidationError(f"{where} row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{where} rows have inconsistent lengths")
        out.append([_as_complex(e, f"{where}[{i}]") for e in row])
    m = np.array(out, dtype=np.complex128)
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{where} has non-finite entries")
    return m


def system_to_json(system: ConservativeSystem) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "conservative_system",
        "n1": system.n1,
        "n2": system.n2,
        "omega": matrix_to_json(system.omega),
    }


def system_from_json(data: dict) -> ConservativeSystem:
    _check_schema(data)
    for key in ("n1", "n2", "omega"):
        if key not in data:
            raise ValidationError(f"conservative system JSON is missing '{key}'")
    n1, n2 = data["n1"], data["n2"]
    # type(), not isinstance(): JSON true is a Python bool, an int subclass
    if type(n1) is not int or type(n2) is not int:
        raise ValidationError("n1 and n2 must be integers")
    return ConservativeSystem(n1, n2, matrix_from_json(data["omega"], "omega"))


def measure_to_json(measure: PointMeasure) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "point_measure",
        "dim": measure.dim,
        "atoms": [
            {"omega": float(a.frequency), "mass": matrix_to_json(a.mass)} for a in measure.atoms
        ],
    }


def measure_from_json(data: dict) -> PointMeasure:
    _check_schema(data)
    for key in ("dim", "atoms"):
        if key not in data:
            raise ValidationError(f"point measure JSON is missing '{key}'")
    dim = data["dim"]
    if type(dim) is not int:
        raise ValidationError("dim must be an integer")
    atoms = []
    if not isinstance(data["atoms"], list):
        raise ValidationError("atoms must be a list")
    for k, entry in enumerate(data["atoms"]):
        if not isinstance(entry, dict) or "omega" not in entry or "mass" not in entry:
            raise ValidationError(f"atom {k} must be an object with 'omega' and 'mass'")
        freq = entry["omega"]
        if not isinstance(freq, (int, float)) or isinstance(freq, bool):
            raise ValidationError(f"atom {k} frequency must be numeric")
        atoms.append(MeasureAtom(float(freq), matrix_from_json(entry["mass"], f"atoms[{k}].mass")))
    return PointMeasure(dim, tuple(atoms))


def open_system_to_json(system: OpenSystem) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "open_system",
        "dim": system.dim,
        "omega1": matrix_to_json(system.omega1),
        "kernel": measure_to_json(system.kernel),
    }


def open_system_from_json(data: dict) -> OpenSystem:
    _check_schema(data)
    for key in ("omega1", "kernel"):
        if key not in data:
            raise ValidationError(f"open system JSON is missing '{key}'")
    omega1 = matrix_from_json(data["omega1"], "omega1")
    kernel = measure_from_json(data["kernel"])
    return OpenSystem(omega1.shape[0], omega1, kernel)


def _check_schema(data) -> None:
    if not isinstance(data, dict):
        raise ValidationError("expected a JSON object")
    schema = data.get("schema")
    if schema is not None and schema != SCHEMA:
        raise ValidationError(f"unsupported schema '{schema}', expected '{SCHEMA}'")


def detect_kind(data: dict) -> str:
    """Infer the payload kind from an explicit tag or from its keys."""
    _check_schema(data)
    kind = data.get("kind")
    if kind is not None:
        if kind not in ("conservative_system", "point_measure", "open_system"):
            raise ValidationError(f"unknown kind '{kind}'")
        return kind
    if "omega1" in data and "kernel" in data:
        return "open_system"
    if "atoms" in data:
        return "point_measure"
    if "omega" in data:
        return "conservative_system"
    raise ValidationError("cannot determine payload kind from keys")


def load_object(data: dict):
    kind = detect_kind(data)
    if kind == "conservative_system":
        return system_from_json(data)
    if kind == "point_measure":
        return measure_from_json(data)
    return open_system_from_json(data)


def dumps(payload: dict) -> str:
    """Deterministic JSON text: fixed order, shortest float repr, newline-terminated."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-openext-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_kernel_csv(times, values) -> str:
    """Render kernel samples (T, n, n) as CSV text."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 3 or values.shape[0] != times.shape[0]:
        raise ValidationError("kernel samples must have shape (len(times), n, n)")
    n = values.shape[1]
    header = ["t"]
    for i in range(n):
        for j in range(n):
            header.append(f"re_{i + 1}{j + 1}")
            header.append(f"im_{i + 1}{j + 1}")
    lines = [",".join(header)]
    for k, t in enumerate(times):
        row = [repr(float(t))]
        flat = values[k].reshape(-1)
        for z in flat:
            row.append(repr(float(z.real)))
            row.append(repr(float(z.imag)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_kernel_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse kernel-sample CSV back into (times, values)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValidationError("kernel CSV needs a header and at least one sample row")
    header = lines[0].split(",")
    if header[0].strip() != "t":
        raise ValidationError("kernel CSV must start with a 't' column")
    pairs = len(header) - 1
    if pairs <= 0 or pairs % 2 != 0:
        raise ValidationError("kernel CSV must contain re/im column pairs")
    n2 = pairs // 2
    n = int(round(np.sqrt(n2)))
    if n * n != n2:
        raise ValidationError("kernel CSV column count is not a square matrix layout")
    times = []
    values = []
    for ln in lines[1:]:
        try:
            fields = [float(x) for x in ln.split(",")]
        except ValueError as exc:
            raise ValidationError(f"kernel CSV has a non-numeric field ({exc})") from exc
        if not np.all(np.isfinite(fields)):
            raise ValidationError("kernel CSV has non-finite entries")
        if len(fields) != len(header):
            raise ValidationError("kernel CSV row length does not match the header")
        times.append(fields[0])
        flat = np.array(fields[1:], dtype=np.float64).reshape(n2, 2)
        values.append((flat[:, 0] + 1j * flat[:, 1]).reshape(n, n))
    return np.array(times, dtype=np.float64), np.array(values, dtype=np.complex128)


def write_trajectory_csv(times, states) -> str:
    """Render a trajectory (T, n) as CSV text."""
    times = np.asarray(times, dtype=np.float64)
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2 or states.shape[0] != times.shape[0]:
        raise ValidationError("trajectory states must have shape (len(times), n)")
    n = states.shape[1]
    header = ["t"]
    for i in range(n):
        header.append(f"re_{i + 1}")
        header.append(f"im_{i + 1}")
    lines = [",".join(header)]
    for k, t in enumerate(times):
        row = [repr(float(t))]
        for z in states[k]:
            row.append(repr(float(z.real)))
            row.append(repr(float(z.imag)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
