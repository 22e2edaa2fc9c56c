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
S = M^{-1/2} K M^{-1/2}, made when the Hamiltonian is built.  For the
oscillator network and any hand-built K it is a dense solve of S.  A
lattice stiffness is K = xi I + 2 B kron G, with B the Kronecker sum over
the d axes of one chain form T and G = sum_j gamma_j gamma_j^T, so its
spectrum is assembled from one solve of T and one of G and then
certified against the assembled S by a product over K's band, O(n^2 h)
for n degrees of freedom and half-bandwidth h (see `QuadraticHamiltonian`).
A lattice's frozen report reads its coupled clusters off that certified
spectrum too; the formed Omega serves only its frozen-residual check.
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

    `mass` is the vector of the m_i, each finite and positive.
    Construction makes the one real eigendecomposition (w, V) of
    S = M^{-1/2} K M^{-1/2} that every frequency decision reads: a dense
    solve of S, except for a lattice, whose `_lattice_hamiltonian` hands in
    the spectrum it builds from the Kronecker factors of K, V orthogonal by
    construction, certified here against the assembled S:
    max|S V - V diag(w)| <= tau_residual * max(max|w|, 1), else
    NumericError (a NaN anywhere fails the test).  The product
    K (M^{-1/2} V) runs over K's band (`_band_product`), read off K's own
    entries, so every nonzero of the assembled K enters it: O(n^2 h) for
    half-bandwidth h in place of O(n^3).

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
        mass = np.asarray(self.mass, dtype=np.float64)
        k = np.asarray(self.stiffness, dtype=np.float64)
        if mass.ndim != 1:
            raise ValidationError("mass must be a vector of per-coordinate masses")
        if k.shape != (mass.size, mass.size):
            raise ValidationError("stiffness must be square, one row per mass")
        if not (np.all(np.isfinite(mass)) and np.all(mass > 0)):
            raise ValidationError("masses must be finite and positive")
        tol = self.tol
        k = require_hermitian(k, tol, name="stiffness", dtype=np.float64)
        k = 0.5 * (k + k.T)
        r = 1.0 / np.sqrt(mass)
        if _factored is None:
            sym = (r[:, None] * k) * r[None, :]
            w, v = eigh(0.5 * (sym + sym.T), tol)
        else:
            w, v = _factored
            defect = _band_product(k, r[:, None] * v)  # S V - V diag(w) = R (K (R V)) - V diag(w), in place
            defect *= r[:, None]
            defect -= v * w
            resid = max_abs(defect)
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


def _band_product(k: np.ndarray, y: np.ndarray) -> np.ndarray:
    """k @ y over the band of k: each block of rows against its column window, one product each.

    The half-bandwidth h is read off k's entries, each row's first and last nonzero, so every
    nonzero enters and only exact zeros are skipped; an all-zero row reads as spanning the whole
    row, so h can come out too wide, never too narrow.  O(n^2 h) in place of O(n^3); `k @ y`
    itself when one window would cover k."""
    n = k.shape[0]
    nz, i = k != 0, np.arange(n)
    h = int(max(np.max(i - nz.argmax(axis=1)), np.max(n - 1 - i - nz[:, ::-1].argmax(axis=1)))) if n else 0
    block = max(h, 64)
    if block + 2 * h >= n:
        return k @ y
    out = np.empty((n, y.shape[1]), dtype=np.result_type(k, y))
    for a in range(0, n, block):
        lo, hi = max(a - h, 0), min(a + block + h, n)
        out[a : a + block] = k[a : a + block, lo:hi] @ y[lo:hi]
    return out


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
        gam = tuple(np.asarray(g, dtype=np.float64).reshape(-1) for g in self.gammas)
        if not gam:
            raise ValidationError("need at least one coupling vector")
        squares = []
        for j, g in enumerate(gam):
            if g.size != self.n_components:
                raise ValidationError("coupling vectors must have one entry per component")
            if not np.all(np.isfinite(g)):
                raise ValidationError("coupling vectors must be finite")
            if not np.any(g):
                raise ValidationError("coupling vectors must be nonzero")
            with np.errstate(over="ignore", under="ignore"):
                square = float(g @ g)
            if not np.finfo(np.float64).tiny <= square < math.inf:
                fate = "overflows" if square > 1.0 else "underflows"
                raise ValidationError(f"the squared norm of coupling vector {j} {fate} ({square:.3g})")
            squares.append(square)
            g.flags.writeable = False
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


def _chain_form(l_half_width: int) -> np.ndarray:
    """Form T of the squared forward differences along one axis of 2L+1
    sites, the neighbor past the last counting as zero.

    Tridiagonal, -1 off the diagonal, diagonal [1, 2, ..., 2]: every
    site keeps the weight of its outgoing bond, and all but the first
    gain one from the bond coming in.
    """
    size = 2 * l_half_width + 1
    t = 2.0 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1)
    t[0, 0] = 1.0
    return t


def _dirichlet_form(chain: np.ndarray, d: int) -> np.ndarray:
    """Quadratic form B of sum over sites of |forward gradient|^2 on the
    cube, zero outside: the Kronecker sum of the chain form over d axes,
    sites in lexicographic order of their coordinates, the first axis
    slowest."""
    b = chain
    for _ in range(d - 1):
        b = np.kron(b, np.eye(chain.shape[0])) + np.kron(np.eye(b.shape[0]), chain)
    return b


def _factored_spectrum(spec: LatticeSpec, chain: np.ndarray, gram: np.ndarray, tol: ToleranceConfig) -> tuple:
    """Eigenpairs of S = (xi I + 2 B kron G) / m from one solve of the chain
    form T and one of G, ascending by a stable sort.

    B = T (+) ... (+) T has eigenvalues beta = sum over axes of those of T
    and vectors Q_B = Q_T kron ... kron Q_T; with G = U diag(g) U^T the
    pairs are (xi + 2 beta_a g_b) / m and Q_B[:, a] kron U[:, b].
    """
    beta_t, q_t = eigh(chain, tol)
    g, u = eigh(gram, tol)
    beta, q_b = beta_t, q_t
    for _ in range(spec.d - 1):
        beta = np.add.outer(beta, beta_t).ravel()
        q_b = np.kron(q_b, q_t)
    w = ((spec.xi + 2.0 * np.multiply.outer(beta, g)) / spec.m).ravel()
    order = np.argsort(w, kind="stable")
    a, c = np.divmod(order, g.size)  # sorted column k is Q_B[:, a_k] kron U[:, c_k]
    return w[order], (q_b[:, None, a] * u[None, :, c]).reshape(-1, order.size)


def lattice_system(
    spec: LatticeSpec, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, QuadraticHamiltonian]:
    """Frequency operator of the lattice plus the assembled Hamiltonian.

    K = xi I + 2 sum_j (B kron gamma_j gamma_j^T) with B the Dirichlet
    gradient form on the cube; the factor 2 converts the interaction
    terms, which enter the energy without 1/2, to the q^T K q / 2
    convention.  DOF ordering is site-major, (site, component), with the
    sites in the order of `_dirichlet_form`.  The spectrum of S comes from
    the Kronecker factors of K, certified against the assembled S at tol
    (`QuadraticHamiltonian`).
    """
    ham = _lattice_hamiltonian(spec, tol)
    return frequency_operator(ham), ham


def _lattice_hamiltonian(spec: LatticeSpec, tol: ToleranceConfig) -> QuadraticHamiltonian:
    if spec.total_dim > LATTICE_DIM_BUDGET:
        raise BudgetError(f"lattice has {spec.total_dim} degrees of freedom; budget is {LATTICE_DIM_BUDGET}")
    chain = _chain_form(spec.l_half_width)
    b = _dirichlet_form(chain, spec.d)
    k = spec.xi * np.eye(spec.total_dim)
    # k += 2 kron(B, g g^T) per gamma, added on B's nonzero site pairs alone: the other terms are zeros
    pairs, blocks = np.nonzero(b), k.reshape(spec.volume, spec.n_components, spec.volume, spec.n_components)
    for g in spec.gammas:
        blocks[pairs[0], :, pairs[1], :] += 2.0 * (b[pairs][:, None, None] * np.outer(g, g))
    gamma_stack = np.stack(spec.gammas)
    spectrum = _factored_spectrum(spec, chain, gamma_stack.T @ gamma_stack, tol)
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


def _apply_site_frame(op: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """op @ kron(I_V, frame) for op whose columns are site-major (site,
    component) pairs, by one reshape: no dense Kronecker frame is formed."""
    return (op.reshape(-1, frame.shape[0]) @ frame).reshape(op.shape[0], -1)


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
    check reads Omega, applied to that frame by `_apply_site_frame`, with
    ||Omega||_2 = sqrt(w_max).  The report carries E_gamma^perp as a plain
    real array: the component frames come from an SVD and a QR of the real
    gammas, which keep real data real (imaginary parts exactly zero).
    """
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
        resid = _apply_site_frame(omega, g_perp).reshape(volume, n, volume, f)
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
    built with, cut and clipped there, not a formed Omega: assembled from
    one solve of the chain form and one of G, and certified against the
    row's assembled S like every lattice Hamiltonian (`QuadraticHamiltonian`).
    """
    rows = []
    for l_val in l_values:
        current = LatticeSpec(spec.d, l_val, spec.n_components, spec.m, spec.xi, spec.gammas)
        freqs = np.sqrt(_lattice_hamiltonian(current, tol)._spectrum[0])
        mult = max(cl.dim for cl in cluster_spectrum(freqs, tol))
        rows.append(ScanRow(current.l_half_width, current.volume, mult))
    return rows
