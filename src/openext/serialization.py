"""Versioned JSON and CSV encodings plus atomic file output.

Schema "openext/v1".  Complex scalars are encoded as [re, im] pairs and
matrices as nested row arrays, so every stored number is a plain JSON
float.  Dictionaries keep a fixed insertion order, which makes reports
byte-identical across runs for identical inputs.

Rendering contract: `dumps(payload)` is byte-for-byte
`json.dumps(payload, indent=2, allow_nan=False, default=pairs) + "\n"`,
where `pairs` turns a 2-D complex128 array a into
`np.stack([a.real, a.imag], -1).tolist()`, and every float is written
with Python's shortest round-trip `repr`, in JSON and CSV alike.  The
payload builders hold complex128 arrays (`system_to_json`,
`measure_to_json`, `open_system_to_json` and the CLI reports), never
nested lists of floats.  The stdlib encoder falls back to pure Python
under `indent`, so the hot part is done by one private renderer: an array
node is written row by row, each row's floats read off its float64 view
through a cached `%r` template, and a row of +0.0 only (a report's frame
padding) is one cached string per (width, depth); any other array is the
stdlib's TypeError.  The CSV writers use the same row template.
Anything else takes a small generic path, and what that path does not
know is handed to `json.dumps` itself.  Non-finite floats raise
`ValueError` on every path.  Decoding reads the nested lists that
`json.loads` gives (`matrix_from_json`).

CSV formats:
  kernel samples   t, re_1_1, im_1_1, re_1_2, ...   (row-major; names not read)
  trajectory       t, re_1, im_1, re_2, im_2, ...
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ValidationError
from .model import ConservativeSystem, OpenSystem, PointMeasure

SCHEMA = "openext/v1"

__all__ = [
    "SCHEMA",
    "complex_to_json",
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


def _pair_leaves(rows: list) -> tuple[list, str | None]:
    """Row-major leaves of a non-empty list of equal-length rows of pairs.

    Returns (leaves, None), or ([], the first broken rule).  Each rule is
    one C-level pass (`set(map(...))`), not a Python loop over entries.
    """
    if set(map(type, rows)) != {list}:
        return [], "has a row that is not a list"
    if len(set(map(len, rows))) != 1:
        return [], "rows have inconsistent lengths"
    entries = list(chain.from_iterable(rows))
    if not set(map(type, entries)) <= {list, tuple} or set(map(len, entries)) - {2}:
        return [], "complex entries must be [re, im] pairs"
    return list(chain.from_iterable(entries)), None


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    """Decode nested [re, im] rows: shape checks, one leaf type set, one array, one finiteness test."""
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{where} must be a non-empty list of rows")
    leaves, problem = _pair_leaves(rows)
    if problem:
        raise ValidationError(f"{where} {problem}")
    # exact types: a JSON true is a bool, which isinstance would pass as an int
    if not set(map(type, leaves)) <= {int, float}:
        raise ValidationError(f"{where}: complex entries must be numeric")
    try:
        flat = np.array(leaves, dtype=np.float64)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ValidationError(f"{where} has non-finite entries") from exc
    if not np.isfinite(flat).all():
        raise ValidationError(f"{where} has non-finite entries")
    return flat.view(np.complex128).reshape(len(rows), len(rows[0]))


def system_to_json(system: ConservativeSystem) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "conservative_system",
        "n1": system.n1,
        "n2": system.n2,
        "omega": system.omega,
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
    freqs = measure.frequencies.tolist()
    return {
        "schema": SCHEMA,
        "kind": "point_measure",
        "dim": measure.dim,
        "atoms": [{"omega": f, "mass": m} for f, m in zip(freqs, measure.masses)],
    }


def measure_from_json(data: dict) -> PointMeasure:
    _check_schema(data)
    for key in ("dim", "atoms"):
        if key not in data:
            raise ValidationError(f"point measure JSON is missing '{key}'")
    dim = data["dim"]
    if type(dim) is not int:
        raise ValidationError("dim must be an integer")
    freqs, masses = [], []
    if not isinstance(data["atoms"], list):
        raise ValidationError("atoms must be a list")
    for k, entry in enumerate(data["atoms"]):
        if not isinstance(entry, dict) or "omega" not in entry or "mass" not in entry:
            raise ValidationError(f"atom {k} must be an object with 'omega' and 'mass'")
        freq = entry["omega"]
        if not isinstance(freq, (int, float)) or isinstance(freq, bool):
            raise ValidationError(f"atom {k} frequency must be numeric")
        try:
            freq = float(freq)
        except OverflowError:
            raise ValidationError(f"atom {k} frequency is beyond the float range") from None
        mass = matrix_from_json(entry["mass"], f"atoms[{k}].mass")
        if mass.shape != (dim, dim):
            raise ValidationError(f"atoms[{k}].mass has shape {mass.shape}, measure dimension is {dim}")
        freqs.append(freq)
        masses.append(mass)
    return PointMeasure(dim, freqs, masses)


def open_system_to_json(system: OpenSystem) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "open_system",
        "dim": system.dim,
        "omega1": system.omega1,
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


_INDENT = "  "


@functools.lru_cache(maxsize=256)
def _row_template(width: int, depth: int) -> str:
    """%-template of one matrix row of `width` [re, im] pairs opened at indent level `depth`."""
    inner, leaf = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * (depth + 2)
    pair = f"[{leaf}%r,{leaf}%r{inner}]"
    return f"[{inner}" + f",{inner}".join([pair] * width) + "\n" + _INDENT * depth + "]"


@functools.lru_cache(maxsize=256)
def _zero_row(width: int, depth: int) -> str:
    """A row of `width` +0.0 pairs, as `_row_template` writes it."""
    return _row_template(width, depth) % ((0.0,) * (2 * width))


def _render_rows(template: str, rows, sep: str) -> str:
    """Each row (a sequence of floats) through one %r template, joined by sep."""
    return sep.join([template % tuple(row) for row in rows])


def _array_rows(a: np.ndarray, depth: int) -> list[str]:
    """The rows of a 2-D complex128 array, each a list of [re, im] pairs opened at indent level depth:
    its floats come from the row's float64 view, and a row of +0.0 is one cached string."""
    if not a.shape[1]:
        return ["[]"] * a.shape[0]
    flat = np.ascontiguousarray(a).view(np.float64)
    zero = ~flat.view(np.uint64).any(axis=1)  # +0.0 only: -0.0 has its sign bit set
    template, cached = _row_template(a.shape[1], depth), _zero_row(a.shape[1], depth)
    values = iter(flat[~zero].tolist())
    return [cached if z else template % tuple(next(values)) for z in zero.tolist()]


def _render(obj, depth: int) -> str:
    """JSON text of obj as json.dumps(indent=2, allow_nan=False) writes it at indent level depth,
    a 2-D complex128 array as the nested [re, im] rows of its values."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = "\n" + _INDENT * (depth + 1)
    close = "\n" + _INDENT * depth
    if kind is np.ndarray and obj.ndim == 2 and obj.dtype == np.complex128:
        if not np.all(np.isfinite(obj)):
            raise ValueError("Out of range float values are not JSON compliant")
        if not len(obj):
            return "[]"
        return f"[{inner}" + f",{inner}".join(_array_rows(obj, depth + 1)) + f"{close}]"
    if kind in (list, dict) and not obj:
        return "[]" if kind is list else "{}"
    if kind is list:
        body = f",{inner}".join([_render(item, depth + 1) for item in obj])
        return f"[{inner}{body}{close}]"
    if kind is dict and set(map(type, obj)) == {str}:
        body = f",{inner}".join(
            [f"{encode_basestring_ascii(k)}: {_render(v, depth + 1)}" for k, v in obj.items()]
        )
        return f"{{{inner}{body}{close}}}"
    # tuples, subclasses, non-string keys, non-finite floats and unknown
    # types: the stdlib's own text (or its exception), re-indented, which is
    # safe because JSON strings carry no raw newline
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", close)


def dumps(payload: dict) -> str:
    """Deterministic JSON text: fixed order, shortest float repr, newline-terminated."""
    return _render(payload, 0) + "\n"


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


def _csv_text(header: list[str], times: np.ndarray, samples: np.ndarray) -> str:
    """Header line, then one row per time: t, then re, im of each sample entry (row-major)."""
    width = 2 * int(np.prod(samples.shape[1:]))
    pairs = np.stack([samples.real, samples.imag], -1).reshape(times.size, width)
    rows = np.column_stack([times, pairs]).tolist()
    text = ",".join(header) + "\n"
    if rows:
        text += _render_rows(",".join(["%r"] * (1 + width)), rows, "\n") + "\n"
    return text


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
            header.append(f"re_{i + 1}_{j + 1}")
            header.append(f"im_{i + 1}_{j + 1}")
    return _csv_text(header, times, values)


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
    # one preallocated table filled row by row: never a list of every field
    table = np.empty((len(lines) - 1, len(header)), dtype=np.float64)
    for i, ln in enumerate(lines[1:]):
        fields = ln.split(",")
        if len(fields) != len(header):
            raise ValidationError("kernel CSV row length does not match the header")
        try:
            table[i] = np.fromiter(map(float, fields), np.float64, len(fields))
        except ValueError as exc:
            raise ValidationError(f"kernel CSV has a non-numeric field ({exc})") from exc
    if not np.isfinite(table).all():
        raise ValidationError("kernel CSV has non-finite entries")
    values = table[:, 1::2] + 1j * table[:, 2::2]
    return table[:, 0].copy(), values.reshape(len(table), n, n)


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
    return _csv_text(header, times, states)
