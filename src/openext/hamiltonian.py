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

Every frequency decision reads one real eigendecomposition (w, V) of
S = M^{-1/2} K M^{-1/2}, made when the Hamiltonian is built: a dense
solve of S, except for a lattice, whose K = xi I + 2 B kron G has B the
Kronecker sum over the d axes of one chain form T, so its spectrum comes
from T's closed form and one solve of G = sum_j gamma_j gamma_j^T, and is
certified over K's band, O(n^2 h) for n degrees of freedom and
half-bandwidth h (`QuadraticHamiltonian`).  A lattice's frozen report
reads its coupled clusters off that spectrum too; the formed Omega
serves only its frozen-residual check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import BudgetError, NumericError, ValidationError
from .model import ConservativeSystem
from .numerics import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    as_matrix,
    cluster_spectrum,
    complement,
    eigh,
    max_abs,
    orthonormal_basis,
    require_hermitian,
    require_psd,
)

__all__ = [
    "QuadraticHamiltonian",
    "LatticeSpec",
    "FrozenReport",
    "frequency_operator",
    "oscillator_system",
    "lattice_system",
    "frozen_report",
    "ScanRow",
    "multiplicity_scan",
]

LATTICE_DIM_BUDGET = 2000


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Kinetic-plus-quadratic-potential system: sum p_i^2/2m_i + q^T K q / 2.

    `mass` is the vector of the m_i, each finite and positive; it and
    `stiffness` are stored as read-only copies, the caller's left as is.
    Construction makes the one real eigendecomposition (w, V) of S that
    every frequency decision reads: a dense solve of S, except for a
    lattice, whose `_lattice_hamiltonian` hands over K, not copied, and
    the spectrum it builds from K's Kronecker factors, V orthogonal by
    construction.  The Hermitian rule then reads K's band (`_band_windows`),
    K is symmetrized only when not exactly symmetric, and the spectrum is
    certified, max|S V - V diag(w)| <= tau_residual * max(max|w|, 1), else
    NumericError (a NaN fails too), block by block over the band with S
    formed on each window: O(n^2 h) in place of O(n^3).

    The spectrum is cut once, under `tol`.  Eigenvalues failing
    `below_psd_cut` raise NotPositiveSemidefiniteError (by Sylvester's law
    of inertia S and K have the same inertia); the rest are clipped at zero
    and stored.  Construction warns when K is singular, decided as
    w_min <= tau_rank * w_max on w, not on sqrt(w): a zero eigenvalue of S
    comes out as rounding of size eps ||S||, which is sqrt(eps) ||Omega||,
    above the cut on Omega's scale.  The complex encoding
    z = Qdot~ - i Omega Q~ then loses the position component of the zero
    modes, though spectra and multiplicities stay correct.
    """

    mass: np.ndarray = field(repr=False)
    stiffness: np.ndarray = field(repr=False)
    tol: ToleranceConfig = DEFAULT_TOLERANCES
    _factored: InitVar[tuple | None] = None
    _spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self, _factored):
        mass = np.array(self.mass, dtype=np.float64)
        k = np.asarray(self.stiffness, dtype=np.float64)
        if mass.ndim != 1:
            raise ValidationError("mass must be a vector of per-coordinate masses")
        if k.shape != (mass.size, mass.size):
            raise ValidationError("stiffness must be square, one row per mass")
        if not (np.all(np.isfinite(mass)) and np.all(mass > 0)):
            raise ValidationError("masses must be finite and positive")
        tol = self.tol
        r = 1.0 / np.sqrt(mass)
        if _factored is None:
            k = require_hermitian(k, tol, name="stiffness", dtype=np.float64)
            k = 0.5 * (k + k.T)  # a new array, so the caller's is not the one stored
            sym = (r[:, None] * k) * r[None, :]
            w, v = eigh(0.5 * (sym + sym.T), tol)
        else:
            (w, v), band = _factored, _band_windows(k)
            k = require_hermitian(k, tol, name="stiffness", dtype=np.float64, windows=band)
            if any(np.any(k[rows, cols] != k[cols, rows].T) for rows, cols in band):
                k = 0.5 * (k + k.T)
            # S V - V diag(w) block by block, with S = M^{-1/2} K M^{-1/2} formed on each band window
            resid = max_abs(np.array([max_abs((r[rows, None] * k[rows, cols] * r[cols]) @ v[cols] - v[rows] * w)
                                      for rows, cols in band]))  # an array, so that a NaN is kept
            bound = tol.tau_residual * max(max_abs(w), 1.0)
            if not resid <= bound:  # so that a NaN fails too
                raise NumericError(
                    f"factored stiffness spectrum fails its residual certificate ({resid:.3e} > {bound:.3e})"
                )
        require_psd(w, tol, "stiffness is not positive semidefinite")
        w = np.clip(w, 0.0, None)
        if w.size and w[0] <= tol.tau_rank * w[-1]:
            warnings.warn(
                "stiffness is singular: zero-frequency modes make the complex state encoding "
                "non-injective on positions",
                stacklevel=3,
            )
        for arr in (mass, k, w, v):
            arr.flags.writeable = False
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "_spectrum", (w, v))

    @property
    def dim(self) -> int:
        return self.mass.size


def _band_windows(k: np.ndarray) -> list[tuple[slice, slice]]:
    """k's band as (rows, columns) blocks: each max(h, 64) rows with their window of width block + 2h,
    or k whole where one window would cover it.  The half-bandwidth h is read off k's entries, each
    row's first and last nonzero (a NaN is nonzero), so the blocks leave out only exact zeros; an
    all-zero row reads as spanning the whole row, so h can come out too wide, never too narrow."""
    n = k.shape[0]
    nz, i = k != 0, np.arange(n)
    h = int(max(np.max(i - nz.argmax(axis=1)), np.max(n - 1 - i - nz[:, ::-1].argmax(axis=1)))) if n else 0
    block = max(h, 64)
    if block + 2 * h >= n:
        return [(slice(0, n), slice(0, n))]
    return [(slice(a, a + block), slice(max(a - h, 0), min(a + block + h, n))) for a in range(0, n, block)]


def frequency_operator(h: QuadraticHamiltonian) -> np.ndarray:
    """Real symmetric PSD Omega = S^{1/2}, S = M^{-1/2} K M^{-1/2}, as
    X X^T with X = V diag(w^{1/4}) from the spectrum (w, V) that h was
    built with, cut and clipped there (see `QuadraticHamiltonian`); a
    float64 array.  numpy forms X X^T by a symmetric rank-k update, so
    Omega is exactly symmetric."""
    w, v = h._spectrum
    x = v * np.sqrt(np.sqrt(w))
    return x @ x.T


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
    hw = hidden._spectrum[0]  # the inertia of S is that of K
    if hw.size and hw[0] <= 0:
        raise ValidationError("hidden stiffness must be positive definite")

    n = n_observable + n2
    k = np.zeros((n, n))
    k[:n_observable, :n_observable] = xi * np.eye(n_observable)
    k[n_observable:, n_observable:] = hidden.stiffness
    for j in range(g1.shape[0]):
        c = np.concatenate([g1[j], -g2[j]])
        k += 2.0 * np.outer(c, c)
    mass = np.concatenate([np.full(n_observable, float(m)), hidden.mass])
    return ConservativeSystem(n_observable, n2, frequency_operator(QuadraticHamiltonian(mass, k, tol)))


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Cube of sites, N position components each, gradient-coupled.

    Sites n in {-L..L}^d carry q_n in R^N with bare energy
    |p_n|^2/2m + xi |q_n|^2/2; each coupling vector gamma_j adds the
    squared forward differences of the scalar field (q_n, gamma_j), with
    the field clamped to zero outside the cube.  d, L and N are integers
    (not bools), and each |gamma_j|^2 must be a normal float, neither
    underflowing nor overflowing, since G = sum_j gamma_j gamma_j^T holds it.
    With s = sum_j |gamma_j|^2, the entries of K are at most xi + 4 d s, and
    twice that must be finite for the symmetrizing sum; the chain form's
    eigenvalues are below 4, so S's spectrum is at most (xi + 8 d s) / m,
    which must be finite too.
    """

    d: int
    l_half_width: int
    n_components: int
    m: float
    xi: float
    gammas: tuple

    def __post_init__(self):
        for name in ("d", "l_half_width", "n_components"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.d < 1:
            raise ValidationError("lattice dimension must be >= 1")
        if self.l_half_width < 0:
            raise ValidationError("half-width must be >= 0")
        if self.n_components < 1:
            raise ValidationError("need at least one component per site")
        if not (math.isfinite(self.m) and math.isfinite(self.xi)):
            raise ValidationError("mass and stiffness must be finite")
        if self.m <= 0 or self.xi <= 0:
            raise ValidationError("mass and stiffness must be positive")
        gam = tuple(as_matrix(np.reshape(g, -1), name="coupling vector", dtype=np.float64, own=True, ndim=1)
                    for g in self.gammas)
        if not gam:
            raise ValidationError("need at least one coupling vector")
        squares = []
        for j, g in enumerate(gam):
            if g.size != self.n_components:
                raise ValidationError("coupling vectors must have one entry per component")
            if not np.any(g):
                raise ValidationError("coupling vectors must be nonzero")
            with np.errstate(over="ignore", under="ignore"):
                square = float(g @ g)
            if not np.finfo(np.float64).tiny <= square < math.inf:
                fate = "overflows" if square > 1.0 else "underflows"
                raise ValidationError(f"the squared norm of coupling vector {j} {fate} ({square:.3g})")
            squares.append(square)
        k_bound, s_bound = (self.xi + 4 * self.d * sum(squares), (self.xi + 8 * self.d * sum(squares)) / self.m)
        if not (2.0 * k_bound < math.inf and s_bound < math.inf):  # Python floats overflow to inf silently
            raise ValidationError(f"the lattice leaves the float range: bounds {k_bound:.3g} on the entries "
                                  f"of K and {s_bound:.3g} on the spectrum of S = K / m")
        object.__setattr__(self, "gammas", gam)

    @property
    def volume(self) -> int:
        return (2 * self.l_half_width + 1) ** self.d

    @property
    def total_dim(self) -> int:
        return self.n_components * self.volume


def _chain_spectrum(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs, ascending, of the chain form T of the squared forward
    differences along one axis of M = `size` sites, the neighbor past the
    last counting as zero (tridiagonal, -1 off the diagonal, diagonal
    [1, 2, ..., 2]), in closed form (Strang, SIAM Review 41, 1999):
    eigenvalues 4 sin^2((2k - 1) pi / (2 (2M + 1))), vector entries
    cos((2k - 1)(2j + 1) pi / (2 (2M + 1))), j < M, k = 1..M, each column
    normalized.  The integer product is reduced modulo 4 (2M + 1), the
    cosine's period, so the argument stays below 2 pi."""
    odd, period = np.arange(1, 2 * size, 2), 4 * (2 * size + 1)
    angle = 2 * np.pi / period
    q = np.cos(np.outer(odd, odd) % period * angle)
    return 4.0 * np.sin(odd * angle) ** 2, q / np.linalg.norm(q, axis=0)


def _dirichlet_pairs(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (rows, columns, values) of the form B of sum over
    sites of |forward gradient|^2 on the cube, zero outside: the Kronecker
    sum of the chain form over the d axes, sites in lexicographic order of
    their coordinates, the first axis slowest.  Each site's diagonal sums
    T's over the axes, 1 at coordinate 0 and 2 elsewhere, and -1 joins it
    to its forward neighbor along each axis, both ways."""
    size = 2 * spec.l_half_width + 1
    coords, sites = np.indices((size,) * spec.d).reshape(spec.d, -1), np.arange(spec.volume)
    back = [sites[coords[axis] < size - 1] for axis in range(spec.d)]
    ahead = [s + size ** (spec.d - 1 - axis) for axis, s in enumerate(back)]
    values = [2.0 * spec.d - np.count_nonzero(coords == 0, axis=0), np.full(2 * sum(s.size for s in back), -1.0)]
    return np.concatenate([sites, *back, *ahead]), np.concatenate([sites, *ahead, *back]), np.concatenate(values)


def _factored_spectrum(spec: LatticeSpec, gram: np.ndarray, tol: ToleranceConfig) -> tuple:
    """Eigenpairs of S = (xi I + 2 B kron G) / m from the closed-form
    eigenpairs of the chain form T (`_chain_spectrum`) and one solve of G,
    ascending by a stable sort.  B = T (+) ... (+) T has eigenvalues beta,
    the sums over axes of those of T, and vectors Q_B = Q_T kron ... kron
    Q_T; with G = U diag(g) U^T the pairs are (xi + 2 beta_a g_b) / m and
    Q_B[:, a] kron U[:, b]."""
    beta_t, q_t = _chain_spectrum(2 * spec.l_half_width + 1)
    g, u = eigh(gram, tol)
    beta, q_b = beta_t, q_t
    for _ in range(spec.d - 1):
        beta = np.add.outer(beta, beta_t).ravel()
        q_b = np.kron(q_b, q_t)
    w = ((spec.xi + 2.0 * np.multiply.outer(beta, g)) / spec.m).ravel()
    order = np.argsort(w, kind="stable")
    a, c = np.divmod(order, g.size)  # sorted column k is Q_B[:, a_k] kron U[:, c_k]
    return w[order], np.einsum("sk,ak->sak", q_b[:, a], u[:, c]).reshape(-1, order.size)


def lattice_system(
    spec: LatticeSpec, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, QuadraticHamiltonian]:
    """Frequency operator of the lattice plus the assembled Hamiltonian.

    K = xi I + 2 sum_j (B kron gamma_j gamma_j^T) with B the Dirichlet
    gradient form on the cube; the factor 2 converts the interaction
    terms, which enter the energy without 1/2, to the q^T K q / 2
    convention.  DOF ordering is site-major, (site, component), with the
    sites in the order of `_dirichlet_pairs`.  The spectrum of S comes from
    K's Kronecker factors, T's in closed form and one solve of G, and is
    certified over K's band at tol (`QuadraticHamiltonian`).
    """
    ham = _lattice_hamiltonian(spec, tol)
    return frequency_operator(ham), ham


def _lattice_hamiltonian(spec: LatticeSpec, tol: ToleranceConfig) -> QuadraticHamiltonian:
    if spec.total_dim > LATTICE_DIM_BUDGET:
        raise BudgetError(f"lattice has {spec.total_dim} degrees of freedom; budget is {LATTICE_DIM_BUDGET}")
    rows, cols, b = _dirichlet_pairs(spec)
    k = spec.xi * np.eye(spec.total_dim)
    # k += 2 kron(B, g g^T) per gamma, added on B's nonzero site pairs alone: the other terms are zeros
    blocks = k.reshape(spec.volume, spec.n_components, spec.volume, spec.n_components)
    for g in spec.gammas:
        blocks[rows, :, cols, :] += 2.0 * (b[:, None, None] * np.outer(g, g))
    gamma_stack = np.stack(spec.gammas)
    spectrum = _factored_spectrum(spec, gamma_stack.T @ gamma_stack, tol)
    return QuadraticHamiltonian(np.full(spec.total_dim, spec.m), k, tol, spectrum)


@dataclass(frozen=True, eq=False)
class FrozenReport:
    """Frozen directions of a lattice and the coupled-multiplicity bound.

    Directions e_site x g with g orthogonal to every coupling vector are
    exact eigenvectors at the bare frequency sqrt(xi/m) regardless of
    the volume.  site_frozen_frame is the real orthonormal per-site
    frame E_gamma^perp (N x (N - J_eff)); the frozen frame is
    kron(I_V, E_gamma^perp), site-major like the coordinates, and is not
    formed.  frozen_dim_complex counts them as complex dimensions (the real
    phase-space count is twice that).  Every eigen-cluster of the
    restriction to the coupled complement must have multiplicity at most
    (coupling count) x volume.
    """

    site_frozen_frame: np.ndarray = field(repr=False)
    frozen_dim_complex: int
    frozen_frequency: float
    coupled_mult_per_cluster: tuple[tuple[float, int], ...]
    dim_lower_bound: int
    mult_upper_bound: int
    max_frozen_residual: float

    @property
    def frozen_dim_real(self) -> int:
        return 2 * self.frozen_dim_complex

    @property
    def dim_bound_ok(self) -> bool:
        return self.frozen_dim_complex >= self.dim_lower_bound

    @property
    def mult_bound_ok(self) -> bool:
        return max((m for _, m in self.coupled_mult_per_cluster), default=0) <= self.mult_upper_bound

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
    """Locate the frozen subspace of a lattice and check both volume bounds.

    The coupled clusters are `cluster_spectrum` of sqrt(w) over the
    certified eigenpairs (w, V) whose eigenvector has weight below 1/2 on
    the frozen frame kron(I_V, E_gamma^perp); there must be exactly
    V * dim E_gamma of them, else NumericError.  Each singular value s_j
    of the stacked gammas that the rank cut keeps must exceed
    sqrt(tau_rank) * s_0: G = Gamma^T Gamma holds s_j^2, so it cannot
    resolve a smaller one from the frozen frame, and the report is refused
    (NumericError, naming the ratio and the worst frozen-weight margin,
    min(weight, 1 - weight) over the eigenvectors).  Only the frozen-residual
    check reads Omega, applied to that frame by one reshape, with no dense
    Kronecker frame, and ||Omega||_2 = sqrt(w_max).  The report carries
    E_gamma^perp as a plain real array: the component frames come from an
    SVD and a QR of the real gammas, which keep real data real (imaginary
    parts exactly zero)."""
    omega, h = lattice_system(spec, tol)
    n, gamma_stack = spec.n_components, np.stack(spec.gammas)
    e_gamma = orthonormal_basis(gamma_stack.T.astype(np.complex128), tol)
    j_eff = e_gamma.dim
    g_perp = complement(e_gamma).frame.real  # a read-only view of the frame
    volume, f = spec.volume, g_perp.shape[1]
    frozen_dim = volume * f
    w, v = h._spectrum
    weights = np.square(np.matmul(g_perp.T, v.reshape(volume, n, -1))).sum(axis=(0, 1))
    coupled = weights < 0.5
    del h, v  # K and V: the frozen residual below reads only Omega
    count = int(np.count_nonzero(coupled))
    if count != volume * j_eff:
        raise NumericError(f"{count} eigenvectors lie in the coupled frame, not {volume} x {j_eff}")
    sigma = np.linalg.norm(gamma_stack @ e_gamma.frame, axis=0)  # the singular values the rank cut kept
    if j_eff and sigma[-1] <= math.sqrt(tol.tau_rank) * sigma[0]:
        raise NumericError(
            f"the coupling vectors keep a direction that G = Gamma^T Gamma cannot resolve: singular value ratio "
            f"{sigma[-1] / sigma[0]:.3e} <= sqrt(tau_rank) = {math.sqrt(tol.tau_rank):.3e} (worst frozen-weight "
            f"margin {np.max(np.minimum(weights, 1.0 - weights)):.3e})"
        )
    per = tuple((cl.value, cl.dim) for cl in cluster_spectrum(np.sqrt(w[coupled]), tol))

    freq = math.sqrt(spec.xi / spec.m)
    omega_norm = math.sqrt(w[-1])  # Omega is PSD
    if frozen_dim:
        # Omega kron(I_V, E^perp) - freq kron(I_V, E^perp): the frame term sits on the site diagonal
        resid = (omega.reshape(-1, n) @ g_perp).reshape(volume, n, volume, f)
        i = np.arange(volume)
        resid[i, :, i, :] -= freq * g_perp
        max_resid = float(np.max(np.linalg.norm(resid.reshape(volume * n, frozen_dim), axis=0)))
    else:
        max_resid = 0.0
    if max_resid > tol.tau_residual * max(omega_norm, 1.0):
        raise NumericError(
            f"frozen directions fail the eigenvector check (residual {max_resid:.3e})"
        )

    return FrozenReport(
        site_frozen_frame=g_perp,
        frozen_dim_complex=frozen_dim,
        frozen_frequency=freq,
        coupled_mult_per_cluster=per,
        dim_lower_bound=(n - j_eff) * volume,
        mult_upper_bound=len(spec.gammas) * volume,
        max_frozen_residual=max_resid,
    )


@dataclass(frozen=True)
class ScanRow:
    l_half_width: int
    volume: int
    max_multiplicity: int

    @property
    def ratio(self) -> float:
        return self.max_multiplicity / self.volume


def multiplicity_scan(spec: LatticeSpec, l_values, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> list[ScanRow]:
    """Tabulate max eigen-cluster multiplicity against the cube size.

    Empirical only: the ratio column is reported, never asserted, since
    the volume scaling of the multiplicity is a bulk statement with
    boundary corrections at any finite size.  Each row clusters sqrt of
    the eigenvalues of S = M^{-1/2} K M^{-1/2} that its Hamiltonian is
    built with, cut and clipped there, not a formed Omega, and certified
    over its assembled K like every lattice Hamiltonian's (`lattice_system`).
    """
    rows = []
    for l_val in l_values:
        current = LatticeSpec(spec.d, l_val, spec.n_components, spec.m, spec.xi, spec.gammas)
        freqs = np.sqrt(_lattice_hamiltonian(current, tol)._spectrum[0])
        mult = max(cl.dim for cl in cluster_spectrum(freqs, tol))
        rows.append(ScanRow(current.l_half_width, current.volume, mult))
    return rows
