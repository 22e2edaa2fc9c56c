"""Frequency operators for quadratic Hamiltonians and oscillator models.

A quadratic Hamiltonian p^T M^{-1} p / 2 + q^T K q / 2 reduces to the
first-order complex equation dz/dt = -i Omega z with

    Omega = (M^{-1/2} K M^{-1/2})^{1/2},
    z = Qdot~ - i Omega Q~,   Q~ = M^{1/2} Q.

Two generators are provided: a finite collection of observable
oscillators bilinearly coupled to a hidden bath through rank-one
interaction terms, and a cube of lattice sites with per-site vector
degrees of freedom coupled by discrete gradients of a few scalar
projections.  Both exhibit frozen directions: position combinations
orthogonal to every coupling vector oscillate at the bare frequency
sqrt(xi/m) forever, giving eigenvalue clusters whose size grows with
the volume while the coupled spectrum stays bounded by (number of
coupling vectors) x (number of sites).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError
from .model import ConservativeSystem
from .numerics import (
    DEFAULT_TOLERANCES,
    Subspace,
    ToleranceConfig,
    as_matrix,
    cluster_spectrum,
    complement,
    compress,
    eigen_clusters,
    eigh,
    max_abs,
    orthonormal_basis,
    require_psd,
)

__all__ = [
    "QuadraticHamiltonian",
    "LatticeSpec",
    "FrozenReport",
    "frequency_operator",
    "encode_state",
    "decode_state",
    "oscillator_system",
    "lattice_system",
    "frozen_report",
    "ScanRow",
    "multiplicity_scan",
]

LATTICE_DIM_BUDGET = 2000


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Kinetic-plus-quadratic-potential system: sum p_i^2/2m_i + q^T K q / 2."""

    dof_labels: tuple
    mass: np.ndarray = field(repr=False)
    stiffness: np.ndarray = field(repr=False)

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.ndim == 1:
            mass = np.diag(mass)
        k = np.asarray(self.stiffness, dtype=np.float64)
        n = len(self.dof_labels)
        if mass.shape != (n, n) or k.shape != (n, n):
            raise ValidationError("mass and stiffness must match the label count")
        if max_abs(mass - np.diag(np.diag(mass))) > 0:
            raise ValidationError("mass matrix must be diagonal")
        if np.any(np.diag(mass) <= 0):
            raise ValidationError("masses must be positive")
        scale = max(max_abs(k), 1.0)
        if max_abs(k - k.T) > DEFAULT_TOLERANCES.tau_herm * scale:
            raise ValidationError("stiffness matrix must be symmetric")
        k = 0.5 * (k + k.T)
        require_psd(np.linalg.eigvalsh(k), DEFAULT_TOLERANCES, "stiffness is not positive semidefinite")
        mass.flags.writeable = False
        k.flags.writeable = False
        object.__setattr__(self, "dof_labels", tuple(self.dof_labels))
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "stiffness", k)

    @property
    def dim(self) -> int:
        return len(self.dof_labels)


def _stiffness_spectrum(
    h: QuadraticHamiltonian, tol: ToleranceConfig, *, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Clipped eigenvalues and eigenvectors (or None) of S, cut and warned as in `frequency_operator`."""
    r = 1.0 / np.sqrt(np.diag(h.mass))
    sym = (r[:, None] * h.stiffness) * r[None, :]
    sym = 0.5 * (sym + sym.T)
    w, v = eigh(sym, tol) if vectors else (np.linalg.eigvalsh(sym), None)
    require_psd(w, tol, "M^-1/2 K M^-1/2 is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    if w.size and w[0] <= tol.tau_rank * w[-1]:
        warnings.warn(
            "stiffness is singular: zero-frequency modes make the complex state encoding "
            "non-injective on positions",
            stacklevel=3,
        )
    return w, v


def frequency_operator(h: QuadraticHamiltonian, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Hermitian PSD Omega = S^{1/2}, S = M^{-1/2} K M^{-1/2}, from one
    eigendecomposition S = V diag(w) V^H.

    Eigenvalues failing `below_psd_cut` raise NotPositiveSemidefiniteError;
    the rest are clipped at zero and Omega = V diag(sqrt(w)) V^H.  Warns
    when K is singular, decided as w_min <= tau_rank * w_max on w, not on
    sqrt(w): a zero eigenvalue of S comes out as rounding of size
    eps ||S||, which is sqrt(eps) ||Omega||, above the cut on Omega's
    scale.  The complex encoding z = Qdot~ - i Omega Q~ then loses the
    position component of the zero modes, though spectra and
    multiplicities stay correct.
    """
    w, v = _stiffness_spectrum(h, tol)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def encode_state(omega: np.ndarray, mass: np.ndarray, q, qdot) -> np.ndarray:
    """Complex state z = M^{1/2} qdot - i Omega M^{1/2} q."""
    m_sqrt = np.sqrt(np.diag(as_matrix(mass).real))
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    qdot = np.asarray(qdot, dtype=np.float64).reshape(-1)
    return m_sqrt * qdot - 1j * (as_matrix(omega) @ (m_sqrt * q))


def decode_state(omega: np.ndarray, mass: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert encode_state; requires Omega nonsingular."""
    omega = as_matrix(omega)
    m_sqrt = np.sqrt(np.diag(as_matrix(mass).real))
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    qdot = z.real / m_sqrt
    q_tilde = np.linalg.solve(omega, -z.imag)
    return (q_tilde.real / m_sqrt), qdot


def _vector_family(raw, width: int, name: str) -> np.ndarray:
    """Normalize a family of real vectors to a (count, width) array."""
    if raw is None:
        return np.zeros((0, width))
    arr = np.asarray(raw, dtype=np.float64)
    if arr.size == 0:
        return np.zeros((0, width))
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValidationError(f"{name} vectors must have dimension {width}")
    return arr


def oscillator_system(
    n_observable: int,
    m: float,
    xi: float,
    gamma1,
    hidden: QuadraticHamiltonian,
    gamma2,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ConservativeSystem:
    """Observable oscillators coupled to a hidden bath by rank-one terms.

    The interaction energy is sum_j ((q, gamma1_j) - (phi, gamma2_j))^2,
    added on top of xi |q|^2 / 2 for the observable positions and the
    hidden Hamiltonian for phi.  Any observable position direction
    orthogonal to all gamma1_j stays an exact eigenmode at sqrt(xi/m):
    the coupled observable part has dimension at most span{gamma1_j}.
    """
    if n_observable < 1:
        raise ValidationError("need at least one observable oscillator")
    if m <= 0 or xi <= 0:
        raise ValidationError("mass and stiffness must be positive")
    n2 = hidden.dim
    g1 = _vector_family(gamma1, n_observable, "gamma1")
    g2 = _vector_family(gamma2, n2, "gamma2")
    if g1.shape[0] != g2.shape[0]:
        raise ValidationError("gamma1 and gamma2 must pair up (one per interaction term)")
    hw = np.linalg.eigvalsh(hidden.stiffness)
    if hw.size and hw[0] <= 0:
        raise ValidationError("hidden stiffness must be positive definite")

    n = n_observable + n2
    k = np.zeros((n, n))
    k[:n_observable, :n_observable] = xi * np.eye(n_observable)
    k[n_observable:, n_observable:] = hidden.stiffness
    for j in range(g1.shape[0]):
        c = np.concatenate([g1[j], -g2[j]])
        k += 2.0 * np.outer(c, c)
    mass = np.concatenate([np.full(n_observable, float(m)), np.diag(hidden.mass)])
    labels = tuple(("q", i) for i in range(n_observable)) + tuple(
        ("phi", lab) for lab in hidden.dof_labels
    )
    total = QuadraticHamiltonian(labels, np.diag(mass), k)
    omega = frequency_operator(total, tol)
    return ConservativeSystem(n_observable, n2, omega)


@dataclass(frozen=True)
class LatticeSpec:
    """Cube of sites, N position components each, gradient-coupled.

    Sites n in {-L..L}^d carry q_n in R^N with bare energy
    |p_n|^2/2m + xi |q_n|^2/2; each coupling vector gamma_j adds the
    squared forward differences of the scalar field (q_n, gamma_j), with
    the field clamped to zero outside the cube.
    """

    d: int
    l_half_width: int
    n_components: int
    m: float
    xi: float
    gammas: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("lattice dimension must be >= 1")
        if self.l_half_width < 0:
            raise ValidationError("half-width must be >= 0")
        if self.n_components < 1:
            raise ValidationError("need at least one component per site")
        if self.m <= 0 or self.xi <= 0:
            raise ValidationError("mass and stiffness must be positive")
        gam = tuple(np.asarray(g, dtype=np.float64).reshape(-1) for g in self.gammas)
        if not gam:
            raise ValidationError("need at least one coupling vector")
        for g in gam:
            if g.size != self.n_components:
                raise ValidationError("coupling vectors must have one entry per component")
            if float(np.linalg.norm(g)) == 0.0:
                raise ValidationError("coupling vectors must be nonzero")
            g.flags.writeable = False
        object.__setattr__(self, "gammas", gam)

    @property
    def volume(self) -> int:
        return (2 * self.l_half_width + 1) ** self.d

    @property
    def total_dim(self) -> int:
        return self.n_components * self.volume

    @property
    def sites(self) -> list[tuple[int, ...]]:
        rng = range(-self.l_half_width, self.l_half_width + 1)
        return list(itertools.product(rng, repeat=self.d))


def _dirichlet_form(spec: LatticeSpec) -> np.ndarray:
    """Quadratic form of sum over sites of |forward gradient|^2, zero outside.

    Every site contributes its d forward differences; a neighbor beyond
    the cube counts as zero, so boundary sites keep the full diagonal
    weight of their outgoing bonds but gain no backward bond from
    outside.
    """
    sites = spec.sites
    index = {s: i for i, s in enumerate(sites)}
    b = np.zeros((len(sites), len(sites)))
    for s in sites:
        i = index[s]
        for axis in range(spec.d):
            neighbor = tuple(c + (1 if a == axis else 0) for a, c in enumerate(s))
            b[i, i] += 1.0
            j = index.get(neighbor)
            if j is not None:
                b[j, j] += 1.0
                b[i, j] -= 1.0
                b[j, i] -= 1.0
    return b


def lattice_system(
    spec: LatticeSpec, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, QuadraticHamiltonian]:
    """Frequency operator of the lattice plus the assembled Hamiltonian.

    K = xi I + 2 sum_j (B kron gamma_j gamma_j^T) with B the Dirichlet
    gradient form on the cube; the factor 2 converts the interaction
    terms, which enter the energy without 1/2, to the q^T K q / 2
    convention.  DOF ordering is site-major: label (site, component).
    """
    ham = _lattice_hamiltonian(spec)
    return frequency_operator(ham, tol), ham


def _lattice_hamiltonian(spec: LatticeSpec) -> QuadraticHamiltonian:
    if spec.total_dim > LATTICE_DIM_BUDGET:
        raise BudgetError(
            f"lattice has {spec.total_dim} degrees of freedom; budget is {LATTICE_DIM_BUDGET}"
        )
    b = _dirichlet_form(spec)
    n = spec.n_components
    k = spec.xi * np.eye(spec.total_dim)
    for g in spec.gammas:
        k += 2.0 * np.kron(b, np.outer(g, g))
    labels = tuple((site, c) for site in spec.sites for c in range(n))
    return QuadraticHamiltonian(labels, np.diag(np.full(spec.total_dim, spec.m)), k)


@dataclass(frozen=True)
class FrozenReport:
    """Frozen directions of a lattice and the coupled-multiplicity bound.

    Directions e_site x g with g orthogonal to every coupling vector are
    exact eigenvectors at the bare frequency sqrt(xi/m) regardless of
    the volume.  frozen_dim_complex counts them as complex dimensions
    (the real phase-space count is twice that).  Every eigen-cluster of
    the restriction to the coupled complement must have multiplicity at
    most (coupling count) x volume.
    """

    frozen_subspace: Subspace
    frozen_dim_complex: int
    frozen_dim_real: int
    frozen_frequency: float
    coupled_mult_per_cluster: tuple[tuple[float, int], ...]
    dim_lower_bound: int
    mult_upper_bound: int
    dim_bound_ok: bool
    mult_bound_ok: bool
    max_frozen_residual: float

    @property
    def satisfied(self) -> bool:
        return self.dim_bound_ok and self.mult_bound_ok

    def as_dict(self) -> dict:
        return {
            "frozen_dim_complex": self.frozen_dim_complex,
            "frozen_dim_real": self.frozen_dim_real,
            "frozen_frequency": self.frozen_frequency,
            "dim_lower_bound": self.dim_lower_bound,
            "dim_bound_ok": self.dim_bound_ok,
            "mult_upper_bound": self.mult_upper_bound,
            "mult_bound_ok": self.mult_bound_ok,
            "max_frozen_residual": self.max_frozen_residual,
            "coupled_clusters": [
                {"value": v, "multiplicity": mult} for v, mult in self.coupled_mult_per_cluster
            ],
            "satisfied": self.satisfied,
        }


def frozen_report(spec: LatticeSpec, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> FrozenReport:
    """Locate the frozen subspace of a lattice and check both volume bounds."""
    omega, _ = lattice_system(spec, tol)
    n = spec.n_components
    gamma_stack = np.stack(spec.gammas)
    e_gamma = orthonormal_basis(gamma_stack.T.astype(np.complex128), tol)
    j_eff = e_gamma.dim
    # frozen = kron(I_V, E_gamma^perp); its complement is kron(I_V, E_gamma)
    eye = np.eye(spec.volume, dtype=np.complex128)
    frozen = Subspace(spec.total_dim, np.kron(eye, complement(e_gamma).frame))
    coupled = compress(omega, np.kron(eye, e_gamma.frame))
    coupled_w, _, clusters = eigen_clusters(coupled, tol, vectors=False)
    per = tuple((cl.value, cl.dim) for cl in clusters)

    freq = math.sqrt(spec.xi / spec.m)
    omega_norm = max(float(coupled_w[-1]), freq)  # Omega is PSD: frozen plus coupled spectrum
    if frozen.dim:
        resid = omega @ frozen.frame - freq * frozen.frame
        max_resid = float(np.max(np.linalg.norm(resid, axis=0)))
    else:
        max_resid = 0.0
    if max_resid > tol.tau_residual * max(omega_norm, 1.0):
        raise ValidationError(
            f"frozen directions fail the eigenvector check (residual {max_resid:.3e})"
        )

    dim_lower = (n - j_eff) * spec.volume
    mult_upper = len(spec.gammas) * spec.volume
    max_coupled = max((mult for _, mult in per), default=0)
    return FrozenReport(
        frozen_subspace=frozen,
        frozen_dim_complex=frozen.dim,
        frozen_dim_real=2 * frozen.dim,
        frozen_frequency=freq,
        coupled_mult_per_cluster=per,
        dim_lower_bound=dim_lower,
        mult_upper_bound=mult_upper,
        dim_bound_ok=frozen.dim >= dim_lower,
        mult_bound_ok=max_coupled <= mult_upper,
        max_frozen_residual=max_resid,
    )


@dataclass(frozen=True)
class ScanRow:
    l_half_width: int
    volume: int
    max_multiplicity: int
    ratio: float


def multiplicity_scan(spec: LatticeSpec, l_values, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> list[ScanRow]:
    """Tabulate max eigen-cluster multiplicity against the cube size.

    Empirical only: the ratio column is reported, never asserted, since
    the volume scaling of the multiplicity is a bulk statement with
    boundary corrections at any finite size.  Each row clusters sqrt of
    one values-only solve of M^{-1/2} K M^{-1/2}, not a formed Omega.
    """
    rows = []
    for l_val in l_values:
        current = LatticeSpec(
            spec.d, int(l_val), spec.n_components, spec.m, spec.xi, spec.gammas
        )
        freqs = np.sqrt(_stiffness_spectrum(_lattice_hamiltonian(current), tol, vectors=False)[0])
        clusters = cluster_spectrum(freqs, float(freqs[-1]), tol)
        mult = max(cl.dim for cl in clusters)
        rows.append(ScanRow(current.l_half_width, current.volume, int(mult), mult / current.volume))
    return rows
