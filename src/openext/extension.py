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
form Q(g p) = g^H H_p g, with no eigenvector formed.  Both checks take
one path on a frame: the range of A where the masses span less than C^n,
whose complement carries the form's exact 0 and where Weyl's bound on
each mass's leak off the frame certifies the result, and, where that
does not certify, the identity, on the full masses.  `fit_point_measure`
recovers a measure from noise-free uniform kernel samples by a
matrix-pencil frequency search plus per-frequency least squares.  The
frame rule cuts its pencil, the PSD cut on the fitted kernel's block
Toeplitz form (PSD exactly when the measure carries no gain) tells a
gain from close atoms, and a residual contract checks every fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, FitError, NotPositiveSemidefiniteError, NumericError, ValidationError
from .model import ConservativeSystem, PointMeasure, _total_mass_eigh
from .numerics import (
    DEFAULT_TOLERANCES,
    SIZE_BUDGET,
    ToleranceConfig,
    as_matrix,
    below_psd_cut,
    cluster_svd,
    compress,
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


@dataclass(frozen=True, eq=False)
class KernelSamples:
    """Friction kernel values on a time grid: values[j] = a(times[j])."""

    times: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = as_matrix(np.reshape(self.times, -1), name="kernel sample times", dtype=np.float64, own=True, ndim=1)
        v = as_matrix(self.values, square=True, name="kernel sample values", own=True, ndim=3)
        if t.size == 0:
            raise ValidationError("kernel samples need at least one time")
        if t[0] < 0:
            raise ValidationError("kernel is only defined for t >= 0 (rest condition)")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("sample times must be strictly ascending")
        if v.shape[0] != t.size:
            raise ValidationError(f"values must have shape (len(times), n, n), got {v.shape}")
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
    system._kernel_size()  # refuses a coupling whose kernel overflows
    w, v = eigh(system.omega2, tol)
    values = _mode_kernel(system.coupling @ v, w, t)
    values.flags.writeable = False  # handed to the samples, which keep it
    return KernelSamples(t, values)


def kernel_of_measure(measure: PointMeasure, times) -> KernelSamples:
    """Direct kernel of a point measure: sum_k e^{-i w_k t} N_k."""
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    n = measure.dim
    values = np.exp(-1j * np.outer(t, measure.frequencies)) @ measure.masses.reshape(-1, n * n)
    values.flags.writeable = False  # handed to the samples, which keep it
    return KernelSamples(t, values.reshape(t.size, n, n))


def minimal_extension(measure: PointMeasure, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ConservativeSystem:
    """Smallest conservative system whose friction kernel matches the measure.

    Each atom mass is factored as N_k = C_k C_k^H with C_k of full column
    rank; eigenvalues <= tau_rank * ||a(0)||_2 (a(0) the total mass, the
    scale of `measure_of`'s atom cut) are cut, so the kernel matches the
    measure up to that cut.  The hidden block is blockdiag(w_k I) and the
    coupling is [C_1 ... C_K].  The observable block is zero: the kernel
    does not constrain it.  Raises for non-PSD atoms, and ValidationError
    where a(0) overflows.
    """
    n1 = measure.dim
    cut = tol.tau_rank * measure._kernel_size()
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

    Eigen-clusters of the hidden block give the frequencies, the mass at each is B B^H with the thin
    block B = coupling @ E_cluster, and the atom rule of h2c keeps it: B / ||coupling||_2, divided first
    so that squares that underflow still count, has a singular value above sqrt(tau_rank) (one
    `cluster_svd` pass; a zero coupling keeps none).  A kept mass that underflows to zero raises
    NumericError.  The masses fill one exactly Hermitian stack, which the measure keeps.
    """
    if system.n2 == 0:
        return PointMeasure(system.n1)
    system._kernel_size()  # refuses a coupling whose masses overflow
    _, v, clusters = eigen_clusters(system.omega2, tol)
    blocks, scale = [system.coupling @ v[:, c.start : c.stop] for c in clusters], system._coupling_norm
    factors = cluster_svd(np.hstack(blocks).conj().T / scale, clusters) if scale else []
    kept = [(c.value, b) for c, b, (_, s) in zip(clusters, blocks, factors) if s[0] > np.sqrt(tol.tau_rank)]
    masses = np.empty((len(kept), system.n1, system.n1), dtype=np.complex128)
    for k, (freq, block) in enumerate(kept):
        mass = block @ block.conj().T
        if not mass.any():
            raise NumericError(f"the mass of the atom at {freq} is below the float range")
        masses[k] = 0.5 * (mass + mass.conj().T)
    masses.flags.writeable = False  # handed to the measure, which keeps it
    return PointMeasure(system.n1, [f for f, _ in kept], masses)


@dataclass(frozen=True)
class DissipationReport:
    """Outcome of the two dissipation checks (algebraic + Monte-Carlo).
    The verdict is the algebraic one (no witness atom); "algebraic_available"
    stays in the JSON form, always true, for the openext/v1 schema."""

    witness_atoms: tuple[tuple[int, float], ...]
    atom_min_eigenvalues: tuple[float, ...]
    mc_min_value: float
    trials: int
    seed: int
    threshold: float

    @property
    def algebraic_pass(self) -> bool:
        return not self.witness_atoms

    verdict = algebraic_pass

    @property
    def mc_pass(self) -> bool:
        return self.mc_min_value >= self.threshold

    @property
    def mc_negative_found(self) -> bool:
        return not self.mc_pass

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
    phases: np.ndarray, masses: np.ndarray, total_mass: np.ndarray, weights: np.ndarray, interp, coarse, frame=None
) -> np.ndarray:
    """Q(v_t) / ||v_t||_w^2 for the rough trials v_t = P_t C_t
    (P = interp, C = coarse), never forming v_t: the squared norm and the
    local term are the small Gram matrices P^T W P and P^T W^2 P against
    C C^H and C A^T C^H, and the phase sums S_t = (P_t^T E)^T C_t meet the
    mass stack in one batched product.  With a frame Q, whose compressions
    the masses and A then are, the form reads the coordinates C conj(Q)
    and the norm C itself.  Zero-norm trials are dropped."""
    pt = interp.transpose(0, 2, 1)
    pw = pt * weights
    ch = coarse.conj().transpose(0, 2, 1)
    norm2 = np.einsum("tij,tij->t", pw @ interp, (coarse @ ch).real)
    if frame is not None:
        coarse = coarse @ frame.conj()
        ch = coarse.conj().transpose(0, 2, 1)
    local = np.einsum("tij,tij->t", (pw * weights) @ interp, (coarse @ total_mass.T @ ch).real)
    s = (pt @ phases.view(np.float64)).view(np.complex128).transpose(0, 2, 1) @ coarse
    ns = s.transpose(1, 0, 2) @ masses.transpose(0, 2, 1)  # (N_k S_tk)^T, stacked (K, T, n)
    cross = np.einsum("tku,ktu->t", s.view(np.float64), ns.view(np.float64))  # Re S^H N S
    keep = norm2 > 0
    return 0.5 * (cross[keep] + local[keep]) / norm2[keep]


def _scan_min(seed, trials: int, n: int, freqs, times, weights, phases, masses, total_mass, frame) -> float:
    """Least Monte-Carlo value over the seeded trials, MC_CHUNK at a time (0.0 when none has one).
    With a frame, the masses are compressed to it and its complement adds the form's exact 0."""
    rng = np.random.default_rng(seed)
    taper = np.sin(np.pi * times / MC_TIME_SPAN) ** 2
    mc_min = np.inf
    for start in range(0, trials, MC_CHUNK):
        interp, coarse, profiles = _draw_trials(
            rng, min(MC_CHUNK, trials - start), times, taper, n, freqs if freqs.size else None
        )
        values = _rough_form_values(phases, masses, total_mass, weights, interp, coarse, frame)
        if profiles is not None:
            lowest = np.linalg.eigvalsh(_profile_form_matrix(phases, masses, weights, profiles))[:, 0]
            if frame is not None:
                lowest = np.minimum(lowest, 0.0)
            values = np.concatenate([values, lowest / (np.abs(profiles) ** 2 @ weights)])
        if values.size:
            mc_min = min(mc_min, float(values.min()))
    return float(mc_min) if np.isfinite(mc_min) else 0.0


def _range_route(measure: PointMeasure, tol: ToleranceConfig):
    """The masses on a frame Q of the range of their total a(0): the
    eigenvectors of a(0) past the atom rule, |w| > tau_rank * ||a(0)||_2,
    from the measure's one `eigh` of it.  Returns (Q, C, leaks), C the
    Hermitian parts C_k of Q^H N_k Q and the leak l_k = ||N_k - Q C_k Q^H||_F,
    which bounds its 2-norm, taken one atom at a time; None where Q would be
    all of C^n or nothing."""
    _, w, u, size = measure._kernel
    keep = np.abs(w) > tol.tau_rank * size
    if keep.all() or not keep.any():
        return None
    q, masses = u[:, keep], measure.masses
    compressed, leaks = np.empty((masses.shape[0], q.shape[1], q.shape[1]), dtype=np.complex128), []
    for k, mass in enumerate(masses):
        compressed[k] = c = compress(mass, q)
        leaks.append(float(np.linalg.norm(mass - q @ c @ q.conj().T)))
    return q, compressed, np.array(leaks)


def _range_minima(masses: np.ndarray, compressed: np.ndarray, leaks: np.ndarray, frame, tol: ToleranceConfig):
    """Least eigenvalue of each atom and the witnesses, read off Q C_k Q^H, whose spectrum (that of
    C_k, and n - r zeros where Q is not the identity, None) lies within l_k of the atom's (Weyl).
    An atom whose least one lies within 2 l_k of its PSD cut is decided on its full mass."""
    ends = np.linalg.eigvalsh(compressed)[:, [0, -1]]
    if frame is not None:
        ends[:, 0], ends[:, 1] = np.minimum(ends[:, 0], 0.0), np.maximum(ends[:, 1], 0.0)
    min_eigs, witness = [], []
    for k, (w, leak) in enumerate(zip(ends, leaks.tolist())):
        cut = -tol.tau_residual * max(abs(w[0]), abs(w[1]))  # `below_psd_cut`'s
        if abs(w[0] - cut) <= 2.0 * leak:
            w = np.linalg.eigvalsh(masses[k])
        min_eigs.append(float(w[0]))
        if below_psd_cut(w, tol):
            witness.append((k, float(w[0])))
    return min_eigs, witness


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

    Both checks run on one path over a frame Q, tried in turn: the range
    of a(0) where it is neither all of C^n nor nothing (`_range_route`,
    read off the measure's one `eigh` of a(0)), then the identity.  Each
    mass N_k is read as Q C_k Q^H, whose complement carries an exact 0,
    and so moves by its leak l_k.  Since sum_j w_j = T and max_j w_j = h,
    every Monte-Carlo value then moves by at most (T + h)/2 * sum_k l_k,
    the certificate.  A frame whose certificate exceeds the scan's
    tolerance |threshold| = tau_residual * ||a(0)||_2 * T^2, or could move
    the least value across the threshold, gives way to the next; the
    identity, with no compression and no leak, always certifies.

    A gain in sampled data is refused by `fit_point_measure`, before the
    PSD clip that would hide it from this check.
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
    phases = weights[:, None] * np.exp(1j * np.outer(times, freqs))
    threshold = -tol.tau_residual * measure._kernel_size() * MC_TIME_SPAN ** 2
    scan = (seed, trials, n, freqs, times, weights, phases)
    identity = (None, masses, np.zeros(masses.shape[0]))
    for frame, compressed, leaks in filter(None, [_range_route(measure, tol), identity]):
        bound = 0.5 * (MC_TIME_SPAN + float(weights.max())) * float(leaks.sum())
        if bound <= -threshold:
            mc_min = _scan_min(*scan, compressed, compressed.sum(axis=0), frame)
            if (mc_min - bound >= threshold) == (mc_min + bound >= threshold):
                min_eigs, witness = _range_minima(masses, compressed, leaks, frame, tol)
                return DissipationReport(tuple(witness), tuple(min_eigs), mc_min, int(trials), int(seed), threshold)


FIT_RESIDUAL_CONTRACT = 1e-6


def fit_point_measure(
    samples: KernelSamples,
    max_atoms: int,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> PointMeasure:
    """Recover a point measure from noise-free uniform kernel samples.

    A matrix pencil on the scalar trace sequence (pencil length = half the sample count, its
    Hankel cut by the frame rule, capped at max_atoms) finds the frequencies, and entrywise
    least squares against the recovered exponentials the masses N_k.  Three rules of `tol`
    decide.  The frame rule also reads the design matrix: a least singular value at most
    tau_rank times the largest raises FitError.  The PSD cut on the fitted kernel's block
    Toeplitz form over the sample grid, (R x I) blockdiag(N_k) (R x I)^H with R the QR factor
    of the design matrix, tells a gain (NotPositiveSemidefiniteError, naming the atom with the
    most negative term in the witness eigenvector) from close atoms; it is formed only when some
    N_k fails that cut on its own.  The masses are then clipped to PSD, which clips only
    rounding, and cut by the atom rule, a(0) the sum of the clipped masses.  Every fit must
    reproduce each sampled entry within FIT_RESIDUAL_CONTRACT times the largest sampled
    |a_ij(t_j)| or raises FitError.  A pencil root at the Nyquist limit raises ValidationError,
    and a Hankel or Toeplitz form past SIZE_BUDGET entries BudgetError.
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
    peak = max_abs(samples.values)
    if peak == 0.0:
        return PointMeasure(n)
    trace_seq = np.einsum("tii->t", samples.values)

    pencil = g // 2
    if (g - pencil) * (pencil + 1) > SIZE_BUDGET:
        raise BudgetError(f"{g} samples exceed the budget of {SIZE_BUDGET} matrix-pencil Hankel entries")
    hankel = np.array([trace_seq[i : i + pencil + 1] for i in range(g - pencil)])
    _, s, vh = np.linalg.svd(hankel, full_matrices=False)
    basis = vh[: min(int(np.count_nonzero(s > tol.tau_rank * s[0])), max_atoms)].T
    angles = np.angle(np.linalg.eigvals(np.linalg.pinv(basis[:-1, :]) @ basis[1:, :]))
    if np.any(np.abs(angles) > np.pi * (1.0 - 1e-6)):
        raise ValidationError(
            "frequency at the Nyquist limit of the sampling grid; decrease the time step"
        )
    freqs = np.sort(-angles / step)

    vander = np.exp(-1j * np.outer(times, freqs))
    coeff, _, _, sv = np.linalg.lstsq(vander, samples.values.reshape(g, n * n), rcond=None)
    if sv.size and not sv[-1] > tol.tau_rank * sv[0]:  # the frame rule
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        raise FitError(f"frequency design matrix is ill-conditioned ({cond:.2e})")

    coeff = coeff.reshape(freqs.size, n, n)
    hermitian = 0.5 * (coeff + coeff.conj().transpose(0, 2, 1))
    w, v = np.linalg.eigh(hermitian)
    if any(below_psd_cut(wk, tol) for wk in w):  # rounding or a gain, which the clip below would hide
        dim = freqs.size * n
        if dim * dim > SIZE_BUDGET:
            raise BudgetError(f"a Toeplitz form of dimension {dim} exceeds the budget of {SIZE_BUDGET} entries")
        r = np.linalg.qr(vander, mode="r")
        lam, x = np.linalg.eigh(np.einsum("ik,kab,jk->iajb", r, hermitian, r.conj(), optimize=True).reshape(dim, dim))
        if below_psd_cut(lam, tol):
            y = np.einsum("ik,ia->ka", r.conj(), x[:, 0].reshape(freqs.size, n))  # the witness on each atom
            k = int(np.argmin(np.einsum("ka,kab,kb->k", y.conj(), hermitian, y).real))
            raise NotPositiveSemidefiniteError(
                f"the fitted kernel's block Toeplitz form has min eigenvalue {lam[0]:.6e} against max {lam[-1]:.6e}, "
                f"most negative on the atom at frequency {freqs[k]:.6g}: the samples carry a gain"
            )
    w = np.clip(w, 0.0, None)
    masses = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    cut = tol.tau_rank * _total_mass_eigh(masses, n)[3]
    atoms = [(float(f), m) for f, m, top in zip(freqs, masses, w[:, -1].tolist()) if top > cut]  # ||m||_2, m PSD
    fitted = PointMeasure.create(n, atoms, tol)

    reconstructed = kernel_of_measure(fitted, times)
    residual = max_abs(reconstructed.values - samples.values)
    if residual > FIT_RESIDUAL_CONTRACT * peak:
        raise FitError(
            f"fitted measure misses the samples by {residual:.3e} "
            f"(contract {FIT_RESIDUAL_CONTRACT:.0e} * max|a_ij(t_j)|); data may be noisy or out of model class"
        )
    return fitted
