"""Command-line interface: files in, deterministic reports out.

Subcommands mirror the library: validate, extend, kernel, decompose,
channels, canonical, check, simulate, lattice, fit.  JSON reports go to
stdout unless --out is given (writes are atomic); every report carries
the schema version, library version, tolerance configuration, and a
SHA-256 digest of the input.  Exit codes: 0 success, 1 validation, usage
or precondition failure, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .coupling import canonical_decomposition, coupling_matrix, is_s_invariant
from .decomposition import (
    check_multiplicity_bounds,
    coupled_parts,
    four_block_residual,
    is_reconstructible,
    string_decomposition,
)
from .errors import BudgetError, NumericError, ValidationError
from .extension import (
    DEFAULT_MC_SEED,
    KernelSamples,
    check_dissipation,
    fit_point_measure,
    kernel_eval,
    measure_of,
    minimal_extension,
)
from .hamiltonian import LatticeSpec, frozen_report, multiplicity_scan
from .model import ConservativeSystem, OpenSystem, PointMeasure, validate
from .numerics import DEFAULT_TOLERANCES, SIZE_BUDGET, Subspace, ToleranceConfig
from .serialization import (
    SCHEMA,
    atomic_write_text,
    complex_to_json,
    dumps,
    load_object,
    measure_to_json,
    read_kernel_csv,
    system_to_json,
    write_kernel_csv,
    write_trajectory_csv,
)
from .simulate import (
    equivalence_residual,
    forcing_pulse,
    forcing_sine,
    forcing_step,
    propagate_conservative,
    propagate_open,
    sample_forcing,
)

__all__ = ["main"]

_TOL_FLAGS = tuple(f.name for f in fields(ToleranceConfig))


def _resolve_tolerances(args: argparse.Namespace) -> ToleranceConfig:
    """The --tolerances file (or OPENEXT_TOLERANCES) over the defaults, the --tau-* flags over both: one rule."""
    path = getattr(args, "tolerances", None) or os.environ.get("OPENEXT_TOLERANCES")
    tol = ToleranceConfig.from_file(path) if path else DEFAULT_TOLERANCES
    flags = {name: value for name in _TOL_FLAGS if (value := getattr(args, name, None)) is not None}
    return ToleranceConfig.from_mapping({**tol.as_dict(), **flags}) if flags else tol


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(path: str) -> tuple[dict, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to parse
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return data, _digest(raw)


def _envelope(command: str, digest: str, tol: ToleranceConfig, **payload) -> dict:
    out = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "tolerances": tol.as_dict(),
    }
    out.update(payload)
    return out


def _full_frame(system: ConservativeSystem, sub: Subspace, side: int) -> np.ndarray:
    """Frame of a subspace of H1 (side 1) or H2 (side 2) padded with zeros to
    n1 + n2 rows: reports write every frame in full-space coordinates."""
    full = np.zeros((system.dim, sub.dim), dtype=np.complex128)
    full[slice(system.n1) if side == 1 else slice(system.n1, None)] = sub.frame
    return full


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _load_system(path: str) -> tuple[ConservativeSystem, str]:
    data, digest = _read_input(path)
    obj = load_object(data)
    if not isinstance(obj, ConservativeSystem):
        raise ValidationError(f"{path}: expected a conservative system")
    return obj, digest


def _cmd_validate(args, tol: ToleranceConfig) -> int:
    data, digest = _read_input(args.input)
    obj = load_object(data)
    report = validate(obj, tol)
    payload = _envelope(
        "validate",
        digest,
        tol,
        kind=report.kind,
        ok=report.ok,
        violations=[
            {"code": v.code, "message": v.message, "magnitude": v.magnitude}
            for v in report.violations
        ],
    )
    _emit(dumps(payload), args.out)
    return 0 if report.ok else 1


def _cmd_extend(args, tol: ToleranceConfig) -> int:
    data, digest = _read_input(args.input)
    obj = load_object(data)
    if not isinstance(obj, PointMeasure):
        raise ValidationError(f"{args.input}: expected a point measure")
    system = minimal_extension(obj, tol)
    payload = system_to_json(system)
    payload.update({"version": __version__, "input_digest": digest})
    _emit(dumps(payload), args.out)
    return 0


def _require_finite(*flags: tuple[str, float]) -> None:
    for flag, value in flags:
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value}")


def _cmd_kernel(args, tol: ToleranceConfig) -> int:
    system, _ = _load_system(args.input)
    _require_finite(("--t0", args.t0), ("--t1", args.t1))
    if args.steps < 1 or args.t1 <= args.t0 or args.t0 < 0:
        raise ValidationError("need t1 > t0 >= 0 and steps >= 1")
    if args.steps * max(system.n1**2, system.n2) > SIZE_BUDGET:
        raise BudgetError(
            f"--steps {args.steps} at dimensions n1 = {system.n1}, n2 = {system.n2} exceed the budget of "
            f"{SIZE_BUDGET} entries for the kernel samples and their phase table (steps x max(n1^2, n2))"
        )
    times = np.linspace(args.t0, args.t1, args.steps)
    samples = kernel_eval(system, times, tol)
    _emit(write_kernel_csv(samples.times, samples.values), args.out)
    return 0


def _cmd_decompose(args, tol: ToleranceConfig) -> int:
    system, digest = _load_system(args.input)
    parts = coupled_parts(system, tol)
    residual = four_block_residual(system, parts)
    strings = string_decomposition(system, tol)
    bounds = check_multiplicity_bounds(system, tol)
    payload = _envelope(
        "decompose",
        digest,
        tol,
        parts={
            name: {"dim": sub.dim, "frame": _full_frame(system, sub, side)}
            for name, sub, side in (("h1c", parts.h1c, 1), ("h1d", parts.h1d, 1),
                                    ("h2c", parts.h2c, 2), ("h2d", parts.h2d, 2))
        },
        four_block_residual=residual,
        strings={
            "count": strings.count,
            "items": [
                {
                    "dim": sub.dim,
                    "frame": _full_frame(system, sub, 2),
                    "content": [{"value": v, "weight": w} for v, w in measure],
                }
                for sub, measure in zip(strings.strings, strings.measures)
            ],
        },
        multiplicity_bounds=bounds.as_dict(),
    )
    _emit(dumps(payload), args.out)
    return 0


def _cmd_channels(args, tol: ToleranceConfig) -> int:
    system, digest = _load_system(args.input)
    decomposition = canonical_decomposition(system, tol)
    cs = decomposition.channels
    parts1 = [h1_part for h1_part, _ in decomposition.components if h1_part.dim]
    parts2 = [h2_part for _, h2_part in decomposition.components if h2_part.dim]
    matrix = coupling_matrix(system, parts1, parts2, tol)
    payload = _envelope(
        "channels",
        digest,
        tol,
        rank=cs.rank,
        gammas=list(cs.gammas),
        g=cs.g,
        g_prime=cs.g_prime,
        degenerate_groups=[list(g) for g in cs.degenerate_groups],
        coupling_matrix={
            "partition": "canonical components (nonempty sides)",
            "entries": [[int(x) for x in row] for row in matrix],
            "zero_rows": [i for i, row in enumerate(matrix) if row.size and not row.any()],
            "zero_columns": [
                j for j in range(matrix.shape[1]) if matrix[:, j].size and not matrix[:, j].any()
            ],
        },
    )
    _emit(dumps(payload), args.out)
    return 0


def _cmd_canonical(args, tol: ToleranceConfig) -> int:
    system, digest = _load_system(args.input)
    decomposition = canonical_decomposition(system, tol)
    components = []
    for h1_part, h2_part in decomposition.components:
        f1, f2 = _full_frame(system, h1_part, 1), _full_frame(system, h2_part, 2)
        verdict, residuals = is_s_invariant(system, Subspace(system.dim, np.hstack([f1, f2])), tol)
        components.append(
            {
                "h1_dim": h1_part.dim,
                "h2_dim": h2_part.dim,
                "h1_frame": f1,
                "h2_frame": f2,
                "s_invariant": verdict,
                "residual_omega": residuals[0],
                "residual_p1": residuals[1],
            }
        )
    payload = _envelope(
        "canonical",
        digest,
        tol,
        count=decomposition.count,
        assignment=list(decomposition.assignment),
        components=components,
    )
    _emit(dumps(payload), args.out)
    return 0


def _cmd_check(args, tol: ToleranceConfig) -> int:
    system, digest = _load_system(args.input)
    measure = measure_of(system, tol)
    dissipation = check_dissipation(measure, trials=args.trials, seed=args.seed, tol=tol)
    verdict, witness = is_reconstructible(system, tol)
    payload = _envelope(
        "check",
        digest,
        tol,
        dissipation=dissipation.as_dict(),
        reconstructible={
            "verdict": verdict,
            "witness": None
            if witness is None
            else {
                "eigenvalue": witness[0],
                "vector": [complex_to_json(z) for z in witness[1]],
            },
        },
    )
    _emit(dumps(payload), args.out)
    return 0


def _parse_direction(raw: str, dim: int) -> np.ndarray:
    if "," in raw:
        try:
            vec = np.array([complex(tok) for tok in raw.split(",")], dtype=np.complex128)
        except ValueError as exc:
            raise ValidationError(f"direction {raw!r} is not a list of numbers") from exc
        if not np.all(np.isfinite(vec)):
            raise ValidationError(f"direction {raw!r} has non-finite components")
        if vec.size != dim:
            raise ValidationError(f"direction has {vec.size} components, expected {dim}")
        return vec
    try:
        index = int(raw)
    except ValueError as exc:
        raise ValidationError(f"direction {raw!r} is neither an index nor components") from exc
    if not 0 <= index < dim:
        raise ValidationError(f"direction index {index} out of range for dimension {dim}")
    vec = np.zeros(dim, dtype=np.complex128)
    vec[index] = 1.0
    return vec


def _build_forcing(args, dim: int):
    direction = _parse_direction(args.direction, dim)
    if args.forcing == "step":
        return forcing_step(direction, args.t_on)
    if args.forcing == "pulse":
        return forcing_pulse(direction, args.t_on, args.t_off)
    if args.forcing == "sine":
        return forcing_sine(direction, args.freq, args.t_on)
    raise ValidationError(f"unknown forcing {args.forcing!r}")


def _cmd_simulate(args, tol: ToleranceConfig) -> int:
    system, digest = _load_system(args.input)
    _require_finite(("--dt", args.dt), ("--T", args.total_time), ("--t-on", args.t_on),
                    ("--t-off", args.t_off), ("--freq", args.freq))
    if args.dt <= 0 or args.total_time <= 0:
        raise ValidationError("need positive --dt and --T")
    ratio = args.total_time / args.dt
    if not math.isfinite(ratio) or (round(ratio) + 1) * system.dim > SIZE_BUDGET:
        raise BudgetError(
            f"--T {args.total_time} / --dt {args.dt} steps at dimension {system.dim} exceed "
            f"the budget of {SIZE_BUDGET} state entries (grid points x dimension)"
        )
    steps = round(ratio)
    if steps < 1:
        raise ValidationError(f"--T {args.total_time} / --dt {args.dt} rounds to no step: the grid needs two points")
    times = np.linspace(0.0, steps * args.dt, steps + 1)
    f1 = _build_forcing(args, system.n1)

    if args.mode == "both":
        residual = equivalence_residual(system, f1, times, tol)
        open_sys = OpenSystem(system.n1, system.omega1, measure_of(system, tol))
        reference = propagate_open(open_sys, sample_forcing(f1, times, system.n1), times, tol)
        peak = float(np.max(np.linalg.norm(reference.states, axis=1)))
        payload = _envelope(
            "simulate",
            digest,
            tol,
            mode="both",
            dt=args.dt,
            total_time=float(times[-1]),
            residual=residual,
            peak_observable_norm=peak,
            relative_residual=residual / peak if peak > 0 else 0.0,
        )
        _emit(dumps(payload), args.out)
        return 0

    if args.mode == "full":
        f_obs = sample_forcing(f1, times, system.n1)
        full = np.zeros((times.size, system.dim), dtype=np.complex128)
        full[:, : system.n1] = f_obs
        trajectory = propagate_conservative(system, np.zeros(system.dim), full, times, tol)
    else:
        open_sys = OpenSystem(system.n1, system.omega1, measure_of(system, tol))
        trajectory = propagate_open(open_sys, f1, times, tol)
    _emit(write_trajectory_csv(trajectory.times, trajectory.states), args.out)
    return 0


def _cmd_lattice(args, tol: ToleranceConfig) -> int:
    try:
        gammas = [[float(tok) for tok in chunk.split(",")] for chunk in args.gammas.split(";") if chunk.strip()]
    except ValueError as exc:
        raise ValidationError(f"--gammas {args.gammas!r} is not a list of numbers") from exc
    _require_finite(("--m", args.m), ("--xi", args.xi), *(("--gammas", x) for row in gammas for x in row))
    if args.n_couplings is not None and args.n_couplings != len(gammas):
        raise ValidationError(
            f"--J says {args.n_couplings} coupling vectors but --gammas lists {len(gammas)}"
        )
    spec = LatticeSpec(args.d, args.l_half_width, args.n_components, args.m, args.xi, tuple(gammas))
    digest = _digest(
        f"d={spec.d};L={spec.l_half_width};N={spec.n_components};m={spec.m};"
        f"xi={spec.xi};gammas={args.gammas}".encode()
    )
    if args.scan is not None:
        try:
            l_values = [int(tok) for tok in args.scan.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(f"--scan {args.scan!r} is not a list of integers") from exc
        if not l_values:
            raise ValidationError("--scan lists no L values")
        rows = multiplicity_scan(spec, l_values, tol)
        lines = ["L,volume,max_mult,ratio"]
        lines += [f"{r.l_half_width},{r.volume},{r.max_multiplicity},{r.ratio!r}" for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    report = frozen_report(spec, tol)
    payload = _envelope("lattice", digest, tol, **report.as_dict())
    _emit(dumps(payload), args.out)
    return 0


def _cmd_fit(args, tol: ToleranceConfig) -> int:
    with open(args.input, "rb") as fh:
        raw = fh.read()
    digest = _digest(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{args.input}: not UTF-8 text ({exc})") from exc
    times, values = read_kernel_csv(text)
    samples = KernelSamples(times, values)
    measure = fit_point_measure(samples, args.max_atoms, tol)
    payload = measure_to_json(measure)
    payload.update({"version": __version__, "input_digest": digest})
    _emit(dumps(payload), args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "extend": _cmd_extend,
    "kernel": _cmd_kernel,
    "decompose": _cmd_decompose,
    "channels": _cmd_channels,
    "canonical": _cmd_canonical,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "lattice": _cmd_lattice,
    "fit": _cmd_fit,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation failures: exit 1, not argparse's 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache  # pure: every main() call parses with the same parser
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="openext",
        description="Open linear systems and their minimal conservative extensions.",
    )
    parser.add_argument("--version", action="version", version=f"openext {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path (atomic) instead of stdout")
    common.add_argument("--tolerances", help="JSON file with tolerance overrides")
    for name in _TOL_FLAGS:
        common.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="validate a system, measure, or open system")
    p.add_argument("input")

    p = sub.add_parser("extend", parents=[common], help="minimal conservative extension of a measure")
    p.add_argument("input")

    p = sub.add_parser("kernel", parents=[common], help="friction kernel samples as CSV")
    p.add_argument("input")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=101)

    p = sub.add_parser("decompose", parents=[common], help="coupled parts, strings, multiplicity bounds")
    p.add_argument("input")

    p = sub.add_parser("channels", parents=[common], help="coupling channels and coupling matrix")
    p.add_argument("input")

    p = sub.add_parser("canonical", parents=[common], help="finest invariant splitting")
    p.add_argument("input")

    p = sub.add_parser("check", parents=[common], help="dissipation and reconstructibility verdicts")
    p.add_argument("input")
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--seed", type=int, default=DEFAULT_MC_SEED)

    p = sub.add_parser("simulate", parents=[common], help="propagate the system or its open reduction")
    p.add_argument("input")
    p.add_argument("--forcing", choices=("step", "pulse", "sine"), default="step")
    p.add_argument("--direction", default="0", help="basis index, or comma-separated components")
    p.add_argument("--t-on", type=float, default=0.0)
    p.add_argument("--t-off", type=float, default=1.0)
    p.add_argument("--freq", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", dest="total_time", type=float, default=5.0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--open", dest="mode", action="store_const", const="open")
    mode.add_argument("--full", dest="mode", action="store_const", const="full")
    mode.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(mode="open")

    p = sub.add_parser("lattice", parents=[common], help="frozen report or multiplicity scan")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", dest="l_half_width", type=int, required=True)
    p.add_argument("--N", dest="n_components", type=int, required=True)
    p.add_argument("--J", dest="n_couplings", type=int, default=None,
                   help="expected number of coupling vectors (cross-checked against --gammas)")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--gammas", required=True, help="semicolon-separated coupling vectors, comma components")
    p.add_argument("--scan", help="comma-separated list of L values to tabulate")

    p = sub.add_parser("fit", parents=[common], help="recover a point measure from kernel CSV samples")
    p.add_argument("input")
    p.add_argument("--max-atoms", type=int, default=8)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        tol = _resolve_tolerances(args)
        return _COMMANDS[args.command](args, tol)
    except (ValidationError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
