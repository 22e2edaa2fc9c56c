"""Friction kernels and minimal conservative extensions.

The friction kernel of a two-block conservative system is

    a1(t) = coupling @ exp(-i omega2 t) @ coupling^H        (t >= 0).

A point measure {(w_k, N_k)} generates the kernel sum_k e^{-i w_k t} N_k;
`minimal_extension` realizes it with the smallest possible hidden space
(one block of dimension rank N_k per atom) and `measure_of` inverts the
construction through the eigen-clusters of the hidden block.

`check_dissipation` tests the no-gain condition of a point measure both
algebraically (every atom PSD) and through a seeded Monte-Carlo scan of
the time-domain quadratic form

    Q(v) = Re int int_{t>=s} conj(v(t)) a(t-s) v(s) dt ds  >=  0.

For a point measure Q is one quadratic form per atom in the
phase-weighted sum of v plus one local term in the total mass
A = sum_k N_k, because the phases cancel there.  The scan runs in two
passes per chunk of trials: it draws the test functions first, in one
fixed order of the seeded stream, then evaluates them in batched
products.  A rough trial stays factored as its interpolation matrix
times its coarse node values, and a frequency-modulated trial p along
its worst direction is read as lambda_min(H_p) / ||p||_w^2 from the
form Q(g p) = g^H H_p g, with no eigenvector formed.  `fit_point_measure`
recovers a measure from noise-free uniform kernel samples by a
matrix-pencil frequency search plus per-frequency least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, FitError, ValidationError
from .model import ConservativeSystem, PointMeasure
from .numerics import (
    DEFAULT_TOLERANCES,
    SIZE_BUDGET,
    ToleranceConfig,
    below_psd_cut,
    eigen_clusters,
    eigh,
    max_abs,
    require_psd,
    uniform_step,
)

__all__ = [
    "KernelSamples",
    "kernel_eval",
    "kernel_of_measure",
    "minimal_extension",
    "measure_of",
    "DissipationReport",
    "check_dissipation",
    "fit_point_measure",
]


@dataclass(frozen=True)
class KernelSamples:
    """Friction kernel values on a time grid: values[j] = a(times[j])."""

    times: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64).reshape(-1)
        v = np.asarray(self.values, dtype=np.complex128)
        if t.size == 0:
            raise ValidationError("kernel samples need at least one time")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValidationError("kernel sample times and values must be finite")
        if t[0] < 0:
            raise ValidationError("kernel is only defined for t >= 0 (rest condition)")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("sample times must be strictly ascending")
        if v.ndim != 3 or v.shape[0] != t.size or v.shape[1] != v.shape[2]:
            raise ValidationError(f"values must have shape (len(times), n, n), got {v.shape}")
        t.flags.writeable = False
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _mode_kernel(basis_times_coupling: np.ndarray, frequencies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k e^{-i w_k t} b_k b_k^H for the columns b_k of the input matrix."""
    phases = np.exp(-1j * np.outer(times, frequencies))
    return np.einsum("ik,tk,jk->tij", basis_times_coupling, phases, basis_times_coupling.conj())


def kernel_eval(system: ConservativeSystem, times, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> KernelSamples:
    """Observable-side friction kernel a1 on the given times (ascending, >= 0)."""
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    w, v = eigh(system.omega2, tol)
    b = system.coupling @ v
    return KernelSamples(t, _mode_kernel(b, w, t))


def kernel_of_measure(measure: PointMeasure, times) -> KernelSamples:
    """Direct kernel of a point measure: sum_k e^{-i w_k t} N_k."""
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    n = measure.dim
    phases = np.exp(-1j * np.outer(t, measure.frequencies))
    return KernelSamples(t, (phases @ measure.masses.reshape(-1, n * n)).reshape(t.size, n, n))


def minimal_extension(measure: PointMeasure, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ConservativeSystem:
    """Smallest conservative system whose friction kernel matches the measure.

    Each atom mass is factored as N_k = C_k C_k^H with C_k of full column
    rank; eigenvalues <= tau_rank * ||a(0)||_2 (a(0) the total mass, the
    scale of `measure_of`'s atom cut) are cut, so the kernel matches the
    measure up to that cut.  The hidden block is blockdiag(w_k I) and the
    coupling is [C_1 ... C_K].  The observable block is zero: the kernel
    does not constrain it.  Raises for non-PSD atoms.
    """
    n1 = measure.dim
    cut = tol.tau_rank * float(np.linalg.norm(measure.total_mass(), 2))
    columns: list[np.ndarray] = []
    hidden_freqs: list[float] = []
    for k, (freq, mass) in enumerate(zip(measure.frequencies.tolist(), measure.masses)):
        w, v = eigh(mass, tol)
        require_psd(w, tol, f"atom {k} (frequency {freq}) violates the dissipation condition")
        keep = np.flatnonzero(w > cut)[::-1]
        for idx in keep:
            columns.append(np.sqrt(w[idx]) * v[:, idx])
            hidden_freqs.append(freq)
    n2 = len(columns)
    omega = np.zeros((n1 + n2, n1 + n2), dtype=np.complex128)
    if n2:
        gamma = np.column_stack(columns)
        omega[:n1, n1:] = gamma
        omega[n1:, :n1] = gamma.conj().T
        omega[n1:, n1:] = np.diag(np.array(hidden_freqs, dtype=np.float64))
    return ConservativeSystem(n1, n2, omega)


def measure_of(system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> PointMeasure:
    """Point measure of the system's friction kernel.

    Eigen-clusters of the hidden block give the frequencies; the mass at
    each is B B^H with the thin block B = coupling @ E_cluster.  Atoms
    with spectral norm ||B||^2 <= tau_rank * ||coupling||^2 are dropped.
    The masses fill one exactly Hermitian stack, which the measure keeps.
    """
    gamma = system.coupling
    if system.n2 == 0:
        return PointMeasure(system.n1)
    _, v, clusters = eigen_clusters(system.omega2, tol)
    cut = tol.tau_rank * float(np.linalg.norm(gamma, 2)) ** 2
    blocks = [(c.value, gamma @ v[:, c.start : c.stop]) for c in clusters]
    kept = [(f, b) for f, b in blocks if float(np.linalg.norm(b, 2)) ** 2 > cut]
    masses = np.empty((len(kept), system.n1, system.n1), dtype=np.complex128)
    for k, (_, block) in enumerate(kept):
        mass = block @ block.conj().T
        masses[k] = 0.5 * (mass + mass.conj().T)
    return PointMeasure(system.n1, [f for f, _ in kept], masses)


@dataclass(frozen=True)
class DissipationReport:
    """Outcome of the two dissipation checks (algebraic + Monte-Carlo).
    The verdict is the algebraic one; "algebraic_available" stays in the
    JSON form, always true, for the openext/v1 schema."""

    verdict: bool
    algebraic_pass: bool
    witness_atoms: tuple[tuple[int, float], ...]
    atom_min_eigenvalues: tuple[float, ...]
    mc_pass: bool
    mc_min_value: float
    mc_negative_found: bool
    trials: int
    seed: int
    threshold: float

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "algebraic_available": True,
            "algebraic_pass": self.algebraic_pass,
            "witness_atoms": [
                {"atom": int(i), "min_eigenvalue": float(e)} for i, e in self.witness_atoms
            ],
            "atom_min_eigenvalues": [float(e) for e in self.atom_min_eigenvalues],
            "mc_pass": self.mc_pass,
            "mc_min_value": self.mc_min_value,
            "mc_negative_found": self.mc_negative_found,
            "trials": self.trials,
            "seed": self.seed,
            "threshold": self.threshold,
        }


MC_GRID_POINTS = 200
MC_TIME_SPAN = 5.0
DEFAULT_MC_SEED = 0x5EED


def _profile_form_matrix(
    phases: np.ndarray, masses: np.ndarray, weights: np.ndarray, profiles: np.ndarray
) -> np.ndarray:
    """Hermitian n x n forms H with Q(g * p) = g^H H g, one per scalar profile
    p along the last axis of profiles: H = sum_k rho_k N_k, made as one real
    product of rho with the interleaved real and imaginary parts of the
    mass stack.  H is Hermitian up to rounding and not symmetrized:
    `eigvalsh` reads one triangle."""
    rho = 0.5 * (
        np.abs(profiles @ phases) ** 2
        + np.sum((weights * np.abs(profiles)) ** 2, axis=-1, keepdims=True)
    )
    k, n = masses.shape[0], masses.shape[-1]
    h = rho @ masses.reshape(k, -1).view(np.float64)
    return h.view(np.complex128).reshape(profiles.shape[:-1] + (n, n))


# Trials evaluated together.  It bounds the per-chunk stacks, the
# (chunk, n, n) profile forms and the (K, chunk, n) phase sums, so that the
# scan's memory stays of the order of the (K, n, n) mass stack it reads.
MC_CHUNK = 4
MC_MAX_NODES = 15


def _draw_trials(rng, count: int, times: np.ndarray, taper: np.ndarray, n: int, freqs):
    """Draw `count` Monte-Carlo test functions, consuming rng per trial in
    the order integers (node count, 6 to MC_MAX_NODES), standard_normal
    twice (real and imaginary node values), then, when atom frequencies
    are given, random and choice + standard_normal or uniform over the
    frequency band widened by 1 (probe frequency) and random (amplitude).

    Returns (interp, coarse, profiles).  Rough trial t is
    interp[t] @ coarse[t]: interp (count, g, MC_MAX_NODES) holds the tapered
    piecewise-linear hat functions of its equispaced nodes and coarse the
    node values, both zero past its node count.  profiles (count, g) are
    the frequency-modulated scalar profiles, None without freqs.
    """
    nodes = np.empty(count, dtype=np.int64)
    coarse = np.zeros((count, MC_MAX_NODES, n), dtype=np.complex128)
    probes, amps = np.empty(count), np.empty(count)
    band = (float(freqs.min()) - 1.0, float(freqs.max()) + 1.0) if freqs is not None else None
    for t in range(count):
        nodes[t] = rng.integers(6, MC_MAX_NODES + 1)
        coarse[t, : nodes[t]] = rng.standard_normal((nodes[t], n)) + 1j * rng.standard_normal((nodes[t], n))
        if freqs is not None:
            if rng.random() < 0.5:
                probes[t] = float(rng.choice(freqs)) + 0.02 * rng.standard_normal()
            else:
                probes[t] = float(rng.uniform(*band))
            amps[t] = 1.0 + 0.2 * rng.random()

    pos = np.outer(nodes - 1, times / times[-1])
    left = np.minimum(pos.astype(np.int64), (nodes - 2)[:, None])
    frac = pos - left
    interp = np.zeros((count, times.size, MC_MAX_NODES))
    trial, row = np.ogrid[:count, : times.size]
    interp[trial, row, left] = taper * (1.0 - frac)
    interp[trial, row, left + 1] = taper * frac
    profiles = None
    if freqs is not None:
        profiles = (taper * amps[:, None]) * np.exp(-1j * np.outer(probes, times))
    return interp, coarse, profiles


def _rough_form_values(
    phases: np.ndarray, masses: np.ndarray, total_mass: np.ndarray, weights: np.ndarray, interp, coarse
) -> np.ndarray:
    """Q(v_t) / ||v_t||_w^2 for the rough trials v_t = P_t C_t
    (P = interp, C = coarse), never forming v_t: the squared norm and the
    local term are the small Gram matrices P^T W P and P^T W^2 P against
    C C^H and C A^T C^H, and the phase sums S_t = (P_t^T E)^T C_t meet the
    mass stack in one batched product.  Zero-norm trials are dropped."""
    pt = interp.transpose(0, 2, 1)
    pw = pt * weights
    ch = coarse.conj().transpose(0, 2, 1)
    norm2 = np.einsum("tij,tij->t", pw @ interp, (coarse @ ch).real)
    local = np.einsum("tij,tij->t", (pw * weights) @ interp, (coarse @ total_mass.T @ ch).real)
    s = (pt @ phases.view(np.float64)).view(np.complex128).transpose(0, 2, 1) @ coarse
    ns = s.transpose(1, 0, 2) @ masses.transpose(0, 2, 1)  # (N_k S_tk)^T, stacked (K, T, n)
    cross = np.einsum("tku,ktu->t", s.view(np.float64), ns.view(np.float64))  # Re S^H N S
    keep = norm2 > 0
    return 0.5 * (cross[keep] + local[keep]) / norm2[keep]


def check_dissipation(
    measure: PointMeasure,
    trials: int = 32,
    seed: int = DEFAULT_MC_SEED,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DissipationReport:
    """Test the no-gain condition of a point measure.

    (a) algebraic: every atom mass PSD; witness atoms carry the offending
        minimum eigenvalues.  This is the verdict.
    (b) Monte-Carlo: seeded random compactly supported piecewise-linear
        test functions on a fixed grid; each trial evaluates the
        discretized quadratic form for a rough random profile and for a
        frequency-modulated scalar profile p along its worst spatial
        direction.  Trials are drawn first, MC_CHUNK at a time in one
        fixed order of the seeded stream (`_draw_trials`), then evaluated
        together, so memory does not grow with trials.  Both are read
        from one phase table E[j, k] = w_j e^{i w_k t_j} and the
        measure's mass stack, which the algebraic check reads too: with
        S = E^T v the form is (1/2) Re(sum_k S_k^H N_k S_k
        + sum_j w_j^2 v_j^H A v_j), A = sum_k N_k the total mass, read for
        the rough trials from products with their factors
        (`_rough_form_values`).  The worst direction of a modulated trial
        is never formed: Q(g p) = g^H H_p g, so its value is
        lambda_min(H_p) / ||p||_w^2 (`_profile_form_matrix`).

    Sampled kernels are checked through their fitted measure
    (`fit_point_measure`).
    """
    if not isinstance(measure, PointMeasure):
        raise ValidationError(
            "check_dissipation expects a PointMeasure; fit sampled kernels with fit_point_measure first"
        )
    if trials < 1:
        raise ValidationError("trials must be positive")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    n, freqs, masses = measure.dim, measure.frequencies, measure.masses
    times = np.linspace(0.0, MC_TIME_SPAN, MC_GRID_POINTS)
    weights = np.full(MC_GRID_POINTS, MC_TIME_SPAN / (MC_GRID_POINTS - 1))
    weights[[0, -1]] *= 0.5

    eigs = np.linalg.eigvalsh(masses)
    min_eigs = eigs[:, 0].tolist()
    witness = [(k, min_eigs[k]) for k, w in enumerate(eigs) if below_psd_cut(w, tol)]
    phases = weights[:, None] * np.exp(1j * np.outer(times, freqs))
    total_mass = masses.sum(axis=0)

    scale = float(np.linalg.norm(measure.total_mass(), 2))
    threshold = -tol.tau_residual * scale * MC_TIME_SPAN ** 2
    rng = np.random.default_rng(seed)
    taper = np.sin(np.pi * times / MC_TIME_SPAN) ** 2

    mc_min = np.inf
    for start in range(0, trials, MC_CHUNK):
        interp, coarse, profiles = _draw_trials(
            rng, min(MC_CHUNK, trials - start), times, taper, n, freqs if freqs.size else None
        )
        values = _rough_form_values(phases, masses, total_mass, weights, interp, coarse)
        if profiles is not None:
            lowest = np.linalg.eigvalsh(_profile_form_matrix(phases, masses, weights, profiles))[:, 0]
            values = np.concatenate([values, lowest / (np.abs(profiles) ** 2 @ weights)])
        if values.size:
            mc_min = min(mc_min, float(values.min()))

    if not np.isfinite(mc_min):
        mc_min = 0.0
    mc_pass = mc_min >= threshold
    return DissipationReport(
        verdict=not witness,
        algebraic_pass=not witness,
        witness_atoms=tuple(witness),
        atom_min_eigenvalues=tuple(min_eigs),
        mc_pass=bool(mc_pass),
        mc_min_value=float(mc_min),
        mc_negative_found=bool(mc_min < threshold),
        trials=int(trials),
        seed=int(seed),
        threshold=float(threshold),
    )


PENCIL_SV_CUT = 1e-8
FIT_RESIDUAL_CONTRACT = 1e-6


def fit_point_measure(
    samples: KernelSamples,
    max_atoms: int,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> PointMeasure:
    """Recover a point measure from noise-free uniform kernel samples.

    Matrix pencil on the scalar trace sequence finds the frequencies
    (pencil length = half the sample count, singular-value cut at
    1e-8 * sigma_max, capped at max_atoms); masses follow from entrywise
    least squares against the recovered exponentials, projected to the nearest
    PSD matrix, and dropped at norm <= tau_rank * ||a(0)|| (`measure_of`'s rule).
    The fit must reproduce the samples within 1e-6 * ||a(0)|| or raises FitError.
    A Hankel matrix past SIZE_BUDGET entries raises BudgetError before it is formed.
    """
    if max_atoms < 0:
        raise ValidationError("max_atoms must be nonnegative")
    times = samples.times
    g = times.size
    if g < 4:
        raise ValidationError("need at least 4 samples to fit")
    step = uniform_step(times)
    if step is None:
        raise ValidationError("fit requires a uniform time grid")
    n = samples.dim
    scale = float(np.linalg.norm(samples.values[0], 2))
    trace_seq = np.einsum("tii->t", samples.values)
    if float(np.max(np.abs(samples.values))) == 0.0:
        return PointMeasure(n)

    pencil = g // 2
    if (g - pencil) * (pencil + 1) > SIZE_BUDGET:
        raise BudgetError(f"{g} samples exceed the budget of {SIZE_BUDGET} matrix-pencil Hankel entries")
    hankel = np.array([trace_seq[i : i + pencil + 1] for i in range(g - pencil)])
    _, s, vh = np.linalg.svd(hankel, full_matrices=False)
    rank = int(np.count_nonzero(s > PENCIL_SV_CUT * s[0]))
    rank = min(rank, max_atoms)
    if rank == 0:
        return PointMeasure(n)
    basis = vh[:rank].T
    lower, upper = basis[:-1, :], basis[1:, :]
    sv = np.linalg.svd(lower, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if not np.isfinite(condition) or condition > 1e10:
        raise FitError(f"pencil subspace is ill-conditioned ({condition:.2e})")
    z = np.linalg.eigvals(np.linalg.pinv(lower) @ upper)
    if np.any(np.abs(np.abs(z) - 1.0) > 1e-2):
        raise FitError("recovered modes are not purely oscillatory; samples do not match an undamped kernel")
    angles = np.angle(z)
    if np.any(np.abs(angles) > np.pi * (1.0 - 1e-6)):
        raise ValidationError(
            "frequency at the Nyquist limit of the sampling grid; decrease the time step"
        )
    freqs = np.sort(-angles / step)

    vander = np.exp(-1j * np.outer(times, freqs))
    flat = samples.values.reshape(g, n * n)
    coeff, _, _, sv2 = np.linalg.lstsq(vander, flat, rcond=None)
    cond2 = float(sv2[0] / sv2[-1]) if sv2[-1] > 0 else np.inf
    if not np.isfinite(cond2) or cond2 > 1e10:
        raise FitError(f"frequency design matrix is ill-conditioned ({cond2:.2e})")

    atoms = []
    for k in range(freqs.size):
        mass = coeff[k].reshape(n, n)
        mass = 0.5 * (mass + mass.conj().T)
        w, v = np.linalg.eigh(mass)
        mass = (v * np.clip(w, 0.0, None)) @ v.conj().T
        if float(np.linalg.norm(mass, 2)) > tol.tau_rank * scale:
            atoms.append((float(freqs[k]), mass))
    fitted = PointMeasure.create(n, atoms, tol)

    reconstructed = kernel_of_measure(fitted, times)
    residual = max_abs(reconstructed.values - samples.values)
    if residual > FIT_RESIDUAL_CONTRACT * max(scale, 1e-300):
        raise FitError(
            f"fitted measure misses the samples by {residual:.3e} "
            f"(contract {FIT_RESIDUAL_CONTRACT:.0e} * ||a(0)||); data may be noisy or out of model class"
        )
    return fitted
