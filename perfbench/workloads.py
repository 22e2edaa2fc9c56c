"""Seeded inputs, op schedules and output checks for the benchmark workloads.

Every workload is a pool of *units*; a unit is a short list of CLI
invocations (ops) run back to back, so a chain such as extend -> kernel ->
fit always sees its own predecessor's output.  Sizes are fixed per
workload and only the values come from the seed, so any seed gives
comparable work.  The program receives only the generated files (and,
for `lattice`, generated command-line specs).

Why each workload exists and which input properties it varies is in
README.md next to this file; the constants below are the single source
of the sizes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("analyze", "roundtrip", "dynamics", "lattice")

# Defaults of openext.numerics.ToleranceConfig that the checks compare against.
TAU_RESIDUAL = 1e-9
DIGITS_CAP = 16.0

# analyze: n1 = n2 = n; n // 16 planted components of 12 modes per side,
# the rest of each side is an uncoupled remainder.
ANALYZE_DIMS = (32, 32, 32, 32, 64, 64, 128)
COMPONENT_MODES = 12
ANALYZE_COMMANDS = ("decompose", "channels", "canonical", "check")

# roundtrip: K atoms of rank 2 at observable dimension n1, 128 samples.
ROUNDTRIP_DIMS = (16, 64, 64)
ROUNDTRIP_ATOMS = 8
ROUNDTRIP_RANK = 2
KERNEL_STEPS = 128
KERNEL_T1 = 12.7
FIT_TOL = 1e-6  # fit_point_measure's reproduction contract, also used for frequencies
KERNEL_TOL = 1e-10  # extension kernel against the direct measure kernel

# dynamics: (n1, n2, dt, mode) per unit; sine forcing, |Omega| = 5.
DYNAMICS_T = 1.0
DYNAMICS_NORM = 5.0
DYNAMICS_UNITS = (
    (1, 6, 1e-3, "both"),
    (2, 4, 5e-4, "both"),
    (3, 3, 1e-3, "both"),
    (4, 5, 1e-3, "both"),
    (5, 2, 1e-3, "both"),
    (6, 6, 5e-4, "both"),
    (2, 5, 1e-3, "both"),
    (6, 3, 1e-3, "both"),
    (32, 32, 1e-3, "both"),
    (3, 4, 1e-3, "csv"),
)
DYNAMICS_TOL = 1e-4

# lattice: (d, L, N, J, scan); J coupling vectors on N components per site.
LATTICE_SPECS = (
    (1, 50, 1, 1, None),
    (2, 5, 3, 1, None),
    (1, 100, 2, 1, None),
    (1, 150, 1, 1, None),
    (3, 2, 4, 2, None),
    (2, 7, 3, 2, None),
    (2, 10, 2, 1, None),
    (1, 30, 3, 1, None),
    (1, 10, 2, 1, "5,10,20,40"),
    (2, 3, 2, 1, "1,2,3,4,6"),
    (3, 1, 1, 1, "1,2,3,4"),
)

# Percentile reported as op_tail_ms: at the seed commit each one leaves at
# least ten samples above it in a default-length run.  Fixed per workload
# so that a faster program does not move the metric to another rank.
TAIL_PERCENTILE = {"analyze": 82.0, "roundtrip": 70.0, "dynamics": 82.0, "lattice": 68.0}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  Arguments starting with '@' name files in the work dir."""

    op_id: str
    argv: tuple[str, ...]
    check: str
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def output(self) -> str:
        return self.argv[self.argv.index("--out") + 1][1:]

    @property
    def inputs(self) -> tuple[str, ...]:
        out = self.output
        return tuple(a[1:] for a in self.argv if a.startswith("@") and a[1:] != out)

    def resolve(self, workdir: str) -> list[str]:
        return [f"{workdir}/{a[1:]}" if a.startswith("@") else a for a in self.argv]


@dataclass
class Pool:
    """Generated inputs of one workload: files to write and units to run."""

    files: dict[str, bytes]
    units: list[list[Op]]
    warmup: list[Op]

    def manifest(self) -> bytes:
        """Canonical bytes of everything the program receives (files and argv)."""
        record = {
            "files": {name: _sha256(data) for name, data in sorted(self.files.items())},
            "units": [[list(op.argv) for op in unit] for unit in self.units],
        }
        return json.dumps(record, sort_keys=True).encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- encoding


def _matrix_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    pairs = np.stack([m.real, m.imag], axis=-1)
    return pairs.tolist()


def _dump(obj: dict) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def _system_bytes(omega: np.ndarray, n1: int) -> bytes:
    n2 = omega.shape[0] - n1
    return _dump(
        {"schema": "openext/v1", "kind": "conservative_system", "n1": n1, "n2": n2,
         "omega": _matrix_json(omega)}
    )


def _measure_bytes(freqs, masses) -> bytes:
    dim = masses[0].shape[0]
    atoms = [{"omega": float(f), "mass": _matrix_json(m)} for f, m in zip(freqs, masses)]
    return _dump({"schema": "openext/v1", "kind": "point_measure", "dim": dim, "atoms": atoms})


# ---------------------------------------------------------------- random objects


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def planted_system(rng: np.random.Generator, n: int) -> tuple[np.ndarray, dict]:
    """n1 = n2 = n system with n // 16 planted canonical components.

    Component c has 12 modes per side, coupling of rank 2 + c % 2, and on
    one side (observable for even c, hidden for odd c) every eigenvalue
    repeated exactly rank times; the components sit 3 apart on the
    frequency axis, far above the clustering threshold.  The remaining
    modes of each side are uncoupled.  Each side is then rotated by a
    Haar unitary, as in the acceptance gate's planted-component builder.
    """
    n_comp = n // 16
    k = COMPONENT_MODES
    omega0 = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    total_rank = 0
    for c in range(n_comp):
        rank = 2 + c % 2
        total_rank += rank
        shift = 3.0 * c
        repeated = np.repeat(np.sort(rng.uniform(0.0, 1.0, k // rank)), rank) + shift
        simple = np.sort(rng.uniform(0.0, 1.0, k)) + shift
        w1, w2 = (repeated, simple) if c % 2 == 0 else (simple, repeated)
        g = _complex_normal(rng, (k, rank)) @ _complex_normal(rng, (rank, k)) / rank
        lo, hi = c * k, (c + 1) * k
        omega0[lo:hi, lo:hi] = np.diag(w1)
        omega0[n + lo : n + hi, n + lo : n + hi] = np.diag(w2)
        omega0[lo:hi, n + lo : n + hi] = g
        omega0[n + lo : n + hi, lo:hi] = g.conj().T
    rest = n - n_comp * k
    base = 3.0 * n_comp
    for offset in (0, n):
        idx = np.arange(n_comp * k, n) + offset
        omega0[idx, idx] = np.sort(rng.uniform(0.0, 2.0, rest)) + base
    w = np.zeros_like(omega0)
    w[:n, :n] = haar_unitary(rng, n)
    w[n:, n:] = haar_unitary(rng, n)
    omega = w @ omega0 @ w.conj().T
    omega = 0.5 * (omega + omega.conj().T)
    facts = {
        "components": n_comp,
        "coupling_rank": total_rank,
        "coupled_dim": n_comp * k,
        "omega_norm": float(np.linalg.norm(omega, 2)),
    }
    return omega, facts


# ---------------------------------------------------------------- generators


def _analyze(rng: np.random.Generator) -> Pool:
    files, units = {}, []
    for i, n in enumerate(ANALYZE_DIMS):
        omega, facts = planted_system(rng, n)
        name = f"sys{i}_{n}"
        files[f"{name}.json"] = _system_bytes(omega, n)
        units.append(
            [
                Op(f"{name}.{cmd}", (cmd, f"@{name}.json", "--out", f"@{name}.{cmd}.json"), cmd,
                   facts)
                for cmd in ANALYZE_COMMANDS
            ]
        )
    return Pool(files, units, warmup=units[0][:1])


def _roundtrip(rng: np.random.Generator) -> Pool:
    files, units = {}, []
    for i, n in enumerate(ROUNDTRIP_DIMS):
        freqs = -3.5 + np.arange(ROUNDTRIP_ATOMS) + rng.uniform(-0.2, 0.2, ROUNDTRIP_ATOMS)
        factors = [_complex_normal(rng, (n, ROUNDTRIP_RANK)) / math.sqrt(2 * n) for _ in freqs]
        masses = [f @ f.conj().T for f in factors]
        name = f"mu{i}_{n}"
        files[f"{name}.json"] = _measure_bytes(freqs, masses)
        facts = {"dim": n, "freqs": freqs.tolist(), "masses": masses,
                 "rank_sum": ROUNDTRIP_ATOMS * ROUNDTRIP_RANK}
        units.append(
            [
                Op(f"{name}.extend", ("extend", f"@{name}.json", "--out", f"@{name}.sys.json"),
                   "extend", facts),
                Op(f"{name}.kernel",
                   ("kernel", f"@{name}.sys.json", "--t0", "0", "--t1", repr(KERNEL_T1),
                    "--steps", str(KERNEL_STEPS), "--out", f"@{name}.kernel.csv"),
                   "kernel", facts),
                Op(f"{name}.fit",
                   ("fit", f"@{name}.kernel.csv", "--max-atoms", str(ROUNDTRIP_ATOMS),
                    "--out", f"@{name}.fit.json"),
                   "fit", facts),
            ]
        )
    return Pool(files, units, warmup=units[0])


def _dynamics(rng: np.random.Generator) -> Pool:
    files, units = {}, []
    for i, (n1, n2, dt, mode) in enumerate(DYNAMICS_UNITS):
        dim = n1 + n2
        h = _complex_normal(rng, (dim, dim))
        omega = h + h.conj().T
        omega *= DYNAMICS_NORM / np.linalg.norm(omega, 2)
        direction = rng.standard_normal(n1)
        direction /= np.linalg.norm(direction)
        # the CLI reads a comma-free direction as a basis index
        direction_arg = ",".join(repr(float(x)) for x in direction) if n1 > 1 else "0"
        freq = float(rng.uniform(0.5, 2.0))
        name = f"dyn{i}_{n1}x{n2}"
        files[f"{name}.json"] = _system_bytes(omega, n1)
        common = ("--forcing", "sine", "--freq", repr(freq),
                  f"--direction={direction_arg}",
                  "--dt", repr(dt), "--T", repr(DYNAMICS_T))
        facts = {"n1": n1, "dim": dim, "steps": int(round(DYNAMICS_T / dt))}
        if mode == "both":
            units.append([Op(f"{name}.both", ("simulate", f"@{name}.json", *common, "--both",
                                              "--out", f"@{name}.both.json"), "both", facts)])
        else:
            units.append(
                [
                    Op(f"{name}.open", ("simulate", f"@{name}.json", *common, "--open",
                                        "--out", f"@{name}.open.csv"), "open", facts),
                    Op(f"{name}.full", ("simulate", f"@{name}.json", *common, "--full",
                                        "--out", f"@{name}.full.csv"), "full", facts),
                ]
            )
    return Pool(files, units, warmup=units[0])


def _lattice(rng: np.random.Generator) -> Pool:
    units = []
    for i, (d, l_half, n_comp, n_coup, scan) in enumerate(LATTICE_SPECS):
        gammas = rng.uniform(0.5, 1.5, (n_coup, n_comp)) * rng.choice([-1.0, 1.0], (n_coup, n_comp))
        m = float(rng.uniform(0.5, 2.0))
        xi = float(rng.uniform(0.5, 2.0))
        argv = ["lattice", "--d", str(d), "--L", str(l_half), "--N", str(n_comp),
                "--J", str(n_coup), "--m", repr(m), "--xi", repr(xi),
                "--gammas=" + ";".join(",".join(repr(float(x)) for x in g) for g in gammas)]
        name = f"lat{i}_d{d}L{l_half}N{n_comp}"
        facts = {"d": d, "n_comp": n_comp, "n_coup": n_coup, "frequency": math.sqrt(xi / m)}
        if scan is None:
            units.append([Op(f"{name}.frozen", (*argv, "--out", f"@{name}.json"), "frozen", facts)])
        else:
            facts["scan"] = [int(x) for x in scan.split(",")]
            units.append([Op(f"{name}.scan", (*argv, "--scan", scan, "--out", f"@{name}.csv"),
                             "scan", facts)])
    return Pool({}, units, warmup=units[0])


_GENERATORS = {"analyze": _analyze, "roundtrip": _roundtrip, "dynamics": _dynamics, "lattice": _lattice}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**64 - 1), stream])


def generate(workload: str, seed: int) -> Pool:
    """Inputs of one workload; the same seed gives byte-identical inputs."""
    return _GENERATORS[workload](_rng(seed, WORKLOADS.index(workload)))


def schedule(pool: Pool, seed: int):
    """Endless seed-determined order: each cycle runs every unit once, freshly permuted."""
    rng = _rng(seed, len(WORKLOADS))
    while True:
        yield [pool.units[i] for i in rng.permutation(len(pool.units))]


# ---------------------------------------------------------------- checks


@dataclass
class CheckResult:
    ok: bool
    digits: list[float]
    detail: str = ""


def digits(error: float, tolerance: float) -> float:
    """log10(tolerance / error), capped; negative means the tolerance was missed."""
    if not math.isfinite(error):
        return -DIGITS_CAP
    if error <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, math.log10(tolerance / error))


def _parse_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    width = lines[0].count(",") + 1
    flat = np.array(",".join(lines[1:]).split(","), dtype=np.float64)
    return flat.reshape(len(lines) - 1, width)


def _complex_columns(table: np.ndarray) -> np.ndarray:
    return table[:, 1::2] + 1j * table[:, 2::2]


def _matrix(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _measure_kernel(freqs, masses, times) -> np.ndarray:
    out = np.zeros((times.size, *masses[0].shape), dtype=np.complex128)
    for f, m in zip(freqs, masses):
        out += np.exp(-1j * f * times)[:, None, None] * m[None]
    return out


def _failures(conditions: dict) -> str:
    return ", ".join(name for name, good in conditions.items() if not good)


def check_output(op: Op, data: bytes, state: dict) -> CheckResult:
    """Check one op's output against the planted facts.

    state is shared by the ops of one unit, so a later op can compare
    against an earlier op's parsed output.
    """
    return _CHECKS[op.check](op, data, state)


def _check_decompose(op, data, state):
    rep = json.loads(data)
    facts = op.expect
    tol = TAU_RESIDUAL * facts["omega_norm"]
    resid = rep["four_block_residual"]
    n = facts["coupled_dim"]
    conds = {
        "four_block_residual": resid <= tol,
        "multiplicity_bounds.ok": rep["multiplicity_bounds"]["ok"] is True,
        "h1c_dim": rep["parts"]["h1c"]["dim"] == n,
        "h2c_dim": rep["parts"]["h2c"]["dim"] == n,
    }
    return CheckResult(all(conds.values()), [digits(resid, tol)], _failures(conds))


def _check_channels(op, data, state):
    rep = json.loads(data)
    ok = rep["rank"] == op.expect["coupling_rank"]
    return CheckResult(ok, [], "" if ok else f"rank {rep['rank']}")


def _check_canonical(op, data, state):
    rep = json.loads(data)
    facts = op.expect
    comps = rep["components"]
    two_sided = sum(1 for c in comps if c["h1_dim"] and c["h2_dim"])
    tol_omega = TAU_RESIDUAL * facts["omega_norm"]
    found = [digits(c["residual_omega"], tol_omega) for c in comps]
    found += [digits(c["residual_p1"], TAU_RESIDUAL) for c in comps]
    conds = {
        "two_sided_count": two_sided == facts["components"],
        "s_invariant": all(c["s_invariant"] for c in comps),
    }
    return CheckResult(all(conds.values()), found, _failures(conds))


def _check_check(op, data, state):
    dis = json.loads(data)["dissipation"]
    conds = {"verdict": dis["verdict"] is True, "mc_pass": dis["mc_pass"] is True}
    return CheckResult(all(conds.values()), [], _failures(conds))


def _check_extend(op, data, state):
    rep = json.loads(data)
    facts = op.expect
    ok = rep["n1"] == facts["dim"] and rep["n2"] == facts["rank_sum"]
    return CheckResult(ok, [], "" if ok else f"n1={rep['n1']} n2={rep['n2']}")


def _check_kernel(op, data, state):
    facts = op.expect
    table = _parse_csv(data.decode())
    n = facts["dim"]
    times = table[:, 0]
    values = _complex_columns(table).reshape(times.size, n, n)
    state["times"], state["values"] = times, values
    direct = _measure_kernel(facts["freqs"], facts["masses"], times)
    scale = float(np.linalg.norm(direct[0], 2))
    state["scale"] = scale
    err = float(np.max(np.abs(values - direct))) / scale
    ok = times.size == KERNEL_STEPS and err <= KERNEL_TOL
    return CheckResult(ok, [digits(err, KERNEL_TOL)], "" if ok else f"kernel error {err:.3e}")


def _check_fit(op, data, state):
    facts = op.expect
    rep = json.loads(data)
    freqs = np.array([a["omega"] for a in rep["atoms"]])
    if freqs.size != len(facts["freqs"]):
        return CheckResult(False, [], f"{freqs.size} atoms")
    masses = [_matrix(a["mass"]) for a in rep["atoms"]]
    freq_err = float(np.max(np.abs(freqs - np.asarray(facts["freqs"]))))
    refit = _measure_kernel(freqs, masses, state["times"])
    fit_err = float(np.max(np.abs(refit - state["values"]))) / state["scale"]
    conds = {"frequencies": freq_err <= FIT_TOL, "samples": fit_err <= FIT_TOL}
    return CheckResult(all(conds.values()), [digits(freq_err, FIT_TOL), digits(fit_err, FIT_TOL)],
                       _failures(conds))


def _check_both(op, data, state):
    rel = json.loads(data)["relative_residual"]
    ok = rel <= DYNAMICS_TOL
    return CheckResult(ok, [digits(rel, DYNAMICS_TOL)], "" if ok else f"relative residual {rel:.3e}")


def _trajectory(op, data, width) -> tuple[np.ndarray | None, str]:
    table = _parse_csv(data.decode())
    steps = op.expect["steps"]
    if table.shape != (steps + 1, 1 + 2 * width) or not np.all(np.isfinite(table)):
        return None, f"trajectory shape {table.shape}"
    return _complex_columns(table), ""


def _check_open(op, data, state):
    states, why = _trajectory(op, data, op.expect["n1"])
    state["open"] = states
    return CheckResult(states is not None, [], why)


def _check_full(op, data, state):
    states, why = _trajectory(op, data, op.expect["dim"])
    if states is None:
        return CheckResult(False, [], why)
    observable = states[:, : op.expect["n1"]]
    peak = float(np.max(np.linalg.norm(observable, axis=1)))
    rel = float(np.max(np.linalg.norm(observable - state["open"], axis=1))) / peak
    ok = rel <= DYNAMICS_TOL
    return CheckResult(ok, [digits(rel, DYNAMICS_TOL)], "" if ok else f"open vs full {rel:.3e}")


def _check_frozen(op, data, state):
    rep = json.loads(data)
    facts = op.expect
    resid = rep["max_frozen_residual"]
    frozen_expected = facts["n_comp"] > facts["n_coup"]
    conds = {
        "satisfied": rep["satisfied"] is True,
        "max_frozen_residual": resid <= TAU_RESIDUAL,
        "frozen_frequency": abs(rep["frozen_frequency"] - facts["frequency"]) <= 1e-12 * facts["frequency"],
        "frozen_present": (rep["frozen_dim_complex"] > 0) == frozen_expected,
    }
    return CheckResult(all(conds.values()), [digits(resid, TAU_RESIDUAL)], _failures(conds))


def _check_scan(op, data, state):
    lines = data.decode().splitlines()
    d, wanted = op.expect["d"], op.expect["scan"]
    rows = [ln.split(",") for ln in lines[1:]]
    conds = {
        "header": lines[0] == "L,volume,max_mult,ratio",
        "rows": [int(r[0]) for r in rows] == wanted,
        "volume": all(int(r[1]) == (2 * int(r[0]) + 1) ** d for r in rows),
        "ratio": all(float(r[3]) == int(r[2]) / int(r[1]) and int(r[2]) >= 1 for r in rows),
    }
    return CheckResult(all(conds.values()), [], _failures(conds))


_CHECKS = {
    "decompose": _check_decompose,
    "channels": _check_channels,
    "canonical": _check_canonical,
    "check": _check_check,
    "extend": _check_extend,
    "kernel": _check_kernel,
    "fit": _check_fit,
    "both": _check_both,
    "open": _check_open,
    "full": _check_full,
    "frozen": _check_frozen,
    "scan": _check_scan,
}
