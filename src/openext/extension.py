"""Friction kernels and minimal conservative extensions.

The friction kernel of a two-block conservative system is

    a1(t) = coupling @ exp(-i omega2 t) @ coupling^H        (t >= 0).

A point measure {(w_k, N_k)} generates the kernel sum_k e^{-i w_k t} N_k;
`minimal_extension` realizes it with the smallest possible hidden space
(one block of dimension rank N_k per atom) and `measure_of` inverts the
construction through the eigen-clusters of the hidden block.

`check_dissipation` tests the no-gain condition both algebraically
(every atom PSD) and through a seeded Monte-Carlo scan of the
time-domain quadratic form

    Q(v) = Re int int_{t>=s} conj(v(t)) a(t-s) v(s) dt ds  >=  0.

For a point measure Q is one quadratic form per atom in the
phase-weighted sum of v plus one local term in the total mass
A = sum_k N_k, because the phases cancel there.  `fit_point_measure`
recovers a measure from noise-free uniform kernel samples by a
matrix-pencil frequency search plus per-frequency least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ValidationError
from .model import ConservativeSystem, MeasureAtom, OpenSystem, PointMeasure
from .numerics import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    below_psd_cut,
    eigen_clusters,
    eigh,
    max_abs,
    require_psd,
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
    values = np.zeros((t.size, n, n), dtype=np.complex128)
    for atom in measure.atoms:
        values += np.exp(-1j * atom.frequency * t)[:, None, None] * atom.mass[None, :, :]
    return KernelSamples(t, values)


def minimal_extension(measure: PointMeasure, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ConservativeSystem:
    """Smallest conservative system whose friction kernel matches the measure.

    Each atom mass is factored as N_k = C_k C_k^H with C_k of full column
    rank (eigenvalues below tau_rank times the atom's largest eigenvalue
    are cut); the hidden block is blockdiag(w_k I) and the coupling is
    the concatenation [C_1 ... C_K].  The observable block is zero: the
    kernel does not constrain it.  Raises for non-PSD atoms.
    """
    n1 = measure.dim
    columns: list[np.ndarray] = []
    hidden_freqs: list[float] = []
    for k, atom in enumerate(measure.atoms):
        w, v = eigh(atom.mass, tol)
        require_psd(w, tol, f"atom {k} (frequency {atom.frequency}) violates the dissipation condition")
        keep = np.flatnonzero(w > tol.tau_rank * max(float(w[-1]), 0.0))[::-1]
        for idx in keep:
            columns.append(np.sqrt(w[idx]) * v[:, idx])
            hidden_freqs.append(atom.frequency)
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
    """
    gamma = system.coupling
    if system.n2 == 0:
        return PointMeasure(system.n1, ())
    _, v, clusters = eigen_clusters(system.omega2, tol)
    cut = tol.tau_rank * float(np.linalg.norm(gamma, 2)) ** 2
    atoms: list[MeasureAtom] = []
    for cluster in clusters:
        block = gamma @ v[:, cluster.start : cluster.stop]
        if float(np.linalg.norm(block, 2)) ** 2 > cut:
            mass = block @ block.conj().T
            atoms.append(MeasureAtom(cluster.value, 0.5 * (mass + mass.conj().T)))
    return PointMeasure(system.n1, tuple(atoms))


@dataclass(frozen=True)
class DissipationReport:
    """Outcome of the two dissipation checks (algebraic + Monte-Carlo)."""

    verdict: bool
    algebraic_available: bool
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
            "algebraic_available": self.algebraic_available,
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


def _quadratic_form_measure(
    phases: np.ndarray, masses: np.ndarray, total_mass: np.ndarray, weights: np.ndarray, v: np.ndarray
) -> float:
    """Discretized double integral of the dissipation form for sampled v.

    With the phase table phases[j, k] = w_j e^{i w_k t_j}, u_j = phases[j, k] v_j
    and S_k = sum_j u_j, the per-atom identity
      Re sum_{j>=l} u_j^H N_k u_l = (S_k^H N_k S_k + sum_j u_j^H N_k u_j) / 2
    is exactly the trapezoid-weighted double sum and is nonnegative for PSD
    N_k.  The phases cancel in the local term, so summed over atoms it is
    sum_j w_j^2 v_j^H A v_j with the total mass A = total_mass = sum_k N_k.
    """
    s = phases.T @ v
    cross = np.vdot(s, np.einsum("kab,kb->ka", masses, s))
    local = np.vdot(weights[:, None] ** 2 * v, v @ total_mass.T)
    return 0.5 * float(np.real(cross + local))


def _quadratic_form_samples(values: np.ndarray, weights: np.ndarray, v: np.ndarray) -> float:
    """Direct lower-triangular double sum using tabulated kernel lags."""
    g = v.shape[0]
    total = 0.0
    for j in range(g):
        lagged = np.einsum("lab,lb->la", values[j::-1], v[: j + 1])
        contrib = np.real(np.conj(v[j]) @ (weights[: j + 1] * lagged.T).sum(axis=1))
        total += weights[j] * contrib
    return float(total)


def _profile_form_matrix(
    phases: np.ndarray, masses: np.ndarray, weights: np.ndarray, profile: np.ndarray
) -> np.ndarray:
    """Hermitian n x n form H with Q(g * profile) = g^H H g for a scalar profile."""
    rho = 0.5 * (np.abs(profile @ phases) ** 2 + float(np.sum((weights * np.abs(profile)) ** 2)))
    h = np.tensordot(rho, masses, axes=1)
    return 0.5 * (h + h.conj().T)


def check_dissipation(
    target,
    trials: int = 32,
    seed: int = DEFAULT_MC_SEED,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DissipationReport:
    """Test the no-gain condition of a PointMeasure or KernelSamples.

    (a) algebraic: every atom mass PSD (measure input only); witness
        atoms carry the offending minimum eigenvalues.
    (b) Monte-Carlo: seeded random compactly supported piecewise-linear
        test functions on a fixed grid; each trial evaluates the
        discretized quadratic form for a rough random profile and for a
        frequency-modulated profile along its worst spatial direction.
        For measure input both are read from one phase table
        E[j, k] = w_j e^{i w_k t_j} and the stacked Hermitian parts of the
        masses, which the algebraic check reads too: with
        S = E^T v the form is (1/2) Re(sum_k S_k^H N_k S_k
        + sum_j w_j^2 v_j^H A v_j), A = sum_k N_k the total mass.

    The verdict is the algebraic result when available, else the
    Monte-Carlo one.
    """
    if isinstance(target, PointMeasure):
        measure, samples = target, None
        n = measure.dim
        times = np.linspace(0.0, MC_TIME_SPAN, MC_GRID_POINTS)
        scale = float(np.linalg.norm(measure.total_mass(), 2))
        freqs = np.array([a.frequency for a in measure.atoms], dtype=np.float64)
        # Hermitian parts, filled into one (K, n, n) array without a list of copies
        masses = np.fromiter(
            (0.5 * (a.mass + a.mass.conj().T) for a in measure.atoms),
            np.dtype((np.complex128, (n, n))),
            len(measure.atoms),
        )
    elif isinstance(target, KernelSamples):
        measure, samples = None, target
        n = samples.dim
        times = samples.times
        dt = np.diff(times)
        if times.size > 2 and np.max(np.abs(dt - dt[0])) > 1e-9 * max(dt[0], 1e-300):
            raise ValidationError("kernel samples must lie on a uniform grid for the Monte-Carlo check")
        scale = float(np.linalg.norm(samples.values[0], 2))
        freqs = masses = None
    else:
        raise ValidationError("check_dissipation expects a PointMeasure or KernelSamples")
    if trials < 1:
        raise ValidationError("trials must be positive")

    weights = np.full(times.size, times[-1] - times[0], dtype=np.float64) / max(times.size - 1, 1)
    if times.size > 1:
        weights[0] *= 0.5
        weights[-1] *= 0.5

    if measure is not None:
        eigs = np.linalg.eigvalsh(masses)
        min_eigs = eigs[:, 0].tolist()
        witness = [(k, min_eigs[k]) for k, w in enumerate(eigs) if below_psd_cut(w, tol)]
        phases = weights[:, None] * np.exp(1j * np.outer(times, freqs))
        total_mass = masses.sum(axis=0)
    else:
        min_eigs, witness = [], []
    algebraic_available, algebraic_pass = measure is not None, not witness

    span = times[-1] - times[0]
    threshold = -tol.tau_residual * scale * max(span, 1.0) ** 2
    rng = np.random.default_rng(seed)
    taper = np.sin(np.pi * (times - times[0]) / max(span, 1e-300)) ** 2
    probe_band = (
        (float(freqs.min()) - 1.0, float(freqs.max()) + 1.0)
        if measure is not None and freqs.size
        else (0.0, 0.0)
    )

    def evaluate(v: np.ndarray) -> float:
        if measure is not None:
            return _quadratic_form_measure(phases, masses, total_mass, weights, v)
        return _quadratic_form_samples(samples.values, weights, v)

    mc_min = np.inf
    for _ in range(trials):
        nodes = rng.integers(6, 16)
        coarse = rng.standard_normal((nodes, n)) + 1j * rng.standard_normal((nodes, n))
        coarse_t = np.linspace(times[0], times[-1], nodes)
        rough = np.empty((times.size, n), dtype=np.complex128)
        for c in range(n):
            rough[:, c] = np.interp(times, coarse_t, coarse[:, c].real) + 1j * np.interp(
                times, coarse_t, coarse[:, c].imag
            )
        rough *= taper[:, None]
        norm = np.sqrt(float((weights * (np.abs(rough) ** 2).sum(axis=1)).sum()))
        if norm > 0:
            mc_min = min(mc_min, evaluate(rough / norm))

        if measure is not None and freqs.size and n > 0:
            if rng.random() < 0.5:
                w_star = float(rng.choice(freqs)) + 0.02 * rng.standard_normal()
            else:
                w_star = float(rng.uniform(*probe_band))
            modulated = taper * (1.0 + 0.2 * rng.random()) * np.exp(-1j * w_star * times)
            h = _profile_form_matrix(phases, masses, weights, modulated)
            direction = np.linalg.eigh(h)[1][:, 0]
            shaped = modulated[:, None] * direction[None, :]
            norm = np.sqrt(float((weights * (np.abs(shaped) ** 2).sum(axis=1)).sum()))
            if norm > 0:
                mc_min = min(mc_min, evaluate(shaped / norm))

    if not np.isfinite(mc_min):
        mc_min = 0.0
    mc_pass = mc_min >= threshold
    verdict = algebraic_pass if algebraic_available else mc_pass
    return DissipationReport(
        verdict=bool(verdict),
        algebraic_available=algebraic_available,
        algebraic_pass=bool(algebraic_pass),
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
    least squares against the recovered exponentials and are projected
    to the nearest PSD matrix.  The recovered measure must reproduce the
    samples within 1e-6 * ||a(0)||; otherwise a fit error is raised.
    """
    if max_atoms < 0:
        raise ValidationError("max_atoms must be nonnegative")
    times = samples.times
    g = times.size
    if g < 4:
        raise ValidationError("need at least 4 samples to fit")
    dt = np.diff(times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(dt[0], 1e-300):
        raise ValidationError("fit requires a uniform time grid")
    step = float(dt[0])
    n = samples.dim
    scale = float(np.linalg.norm(samples.values[0], 2))
    trace_seq = np.einsum("tii->t", samples.values)
    if float(np.max(np.abs(samples.values))) == 0.0:
        return PointMeasure(n, ())

    pencil = g // 2
    hankel = np.array([trace_seq[i : i + pencil + 1] for i in range(g - pencil)])
    _, s, vh = np.linalg.svd(hankel, full_matrices=False)
    rank = int(np.count_nonzero(s > PENCIL_SV_CUT * s[0]))
    rank = min(rank, max_atoms)
    if rank == 0:
        return PointMeasure(n, ())
    basis = vh[:rank].T
    lower, upper = basis[:-1, :], basis[1:, :]
    sv = np.linalg.svd(lower, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if not np.isfinite(condition) or condition > 1e10:
        raise FitError(f"pencil subspace is ill-conditioned ({condition:.2e})", condition=condition)
    z = np.linalg.eigvals(np.linalg.pinv(lower) @ upper)
    if np.any(np.abs(np.abs(z) - 1.0) > 1e-2):
        raise FitError(
            "recovered modes are not purely oscillatory; samples do not match an undamped kernel",
            condition=condition,
        )
    angles = np.angle(z)
    if np.any(np.abs(angles) > np.pi * (1.0 - 1e-6)):
        raise ValidationError(
            "frequency at the Nyquist limit of the sampling grid; decrease the time step"
        )
    freqs = np.sort(-angles / step)

    vander = np.exp(-1j * np.outer(times, freqs))
    sv2 = np.linalg.svd(vander, compute_uv=False)
    cond2 = float(sv2[0] / sv2[-1]) if sv2[-1] > 0 else np.inf
    if not np.isfinite(cond2) or cond2 > 1e10:
        raise FitError(f"frequency design matrix is ill-conditioned ({cond2:.2e})", condition=cond2)
    flat = samples.values.reshape(g, n * n)
    coeff, *_ = np.linalg.lstsq(vander, flat, rcond=None)

    atoms = []
    for k in range(freqs.size):
        mass = coeff[k].reshape(n, n)
        mass = 0.5 * (mass + mass.conj().T)
        w, v = np.linalg.eigh(mass)
        mass = (v * np.clip(w, 0.0, None)) @ v.conj().T
        if float(np.linalg.norm(mass, 2)) > 1e-12 * max(scale, 1e-300):
            atoms.append((float(freqs[k]), mass))
    fitted = PointMeasure.create(n, atoms, tol)

    reconstructed = kernel_of_measure(fitted, times)
    residual = max_abs(reconstructed.values - samples.values)
    if residual > FIT_RESIDUAL_CONTRACT * max(scale, 1e-300):
        raise FitError(
            f"fitted measure misses the samples by {residual:.3e} "
            f"(contract {FIT_RESIDUAL_CONTRACT:.0e} * ||a(0)||); data may be noisy or out of model class",
            condition=condition,
        )
    return fitted
