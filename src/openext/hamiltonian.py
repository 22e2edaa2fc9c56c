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
S = M^{-1/2} K M^{-1/2}, made when the Hamiltonian is built.  A
`QuadraticHamiltonian` solves S densely and keeps K and V.  A lattice's
K = xi I + 2 B kron G has B the Kronecker sum over the d axes of one chain
form T, so its `LatticeHamiltonian` keeps w and the Kronecker factors of
V, T's in closed form and those of one solve of G = sum_j gamma_j
gamma_j^T, and no n x n array: V is formed a block of columns at a time
and certified against K's stencil, which applies K as its definition
reads and forms no K, O(n^2 J d) for n degrees of freedom and J coupling
vectors.  So a scan row holds no n x n array, and a frozen report holds
Omega, formed from V x V Kronecker blocks, with a few V x V temporaries;
the report reads its coupled clusters off the factors, and Omega serves
only its frozen-residual check.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import reduce

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
    "LatticeHamiltonian",
    "FrozenReport",
    "frequency_operator",
    "oscillator_system",
    "lattice_system",
    "frozen_report",
    "ScanRow",
    "multiplicity_scan",
]

LATTICE_DIM_BUDGET = 2000
_BLOCK = 64  # the lattice's n x n work is cut into pieces of 2 _BLOCK columns of V or _BLOCK rows of Omega


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Kinetic-plus-quadratic-potential system: sum p_i^2/2m_i + q^T K q / 2.

    `mass` is the vector of the m_i, each finite and positive; it and
    `stiffness` are stored as read-only copies, the caller's left as is.
    Construction makes the one real eigendecomposition (w, V) of S that
    every frequency decision reads, a dense solve of the symmetrized S,
    and cuts its spectrum once (`_cut_spectrum`).
    """

    mass: np.ndarray = field(repr=False)
    stiffness: np.ndarray = field(repr=False)
    tol: ToleranceConfig = DEFAULT_TOLERANCES
    _spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self):
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
        k = require_hermitian(k, tol, name="stiffness", dtype=np.float64)
        k = 0.5 * (k + k.T)  # a new array, so the caller's is not the one stored
        sym = (r[:, None] * k) * r[None, :]
        w, v = eigh(0.5 * (sym + sym.T), tol)
        for arr in (mass, k, v):
            arr.flags.writeable = False
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "_spectrum", (_cut_spectrum(w, tol), v))

    @property
    def dim(self) -> int:
        return self.mass.size


def _cut_spectrum(w: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """S's eigenvalues cut once under `tol`, read-only.  Eigenvalues failing `below_psd_cut` raise
    NotPositiveSemidefiniteError (by Sylvester's law of inertia S and K have the same inertia); the rest
    are clipped at zero.  K is singular, with a warning, when w_min <= tau_rank * w_max, decided on w, not
    on sqrt(w): a zero eigenvalue of S comes out as rounding of size eps ||S||, which is sqrt(eps) ||Omega||,
    above the cut on Omega's scale.  The complex encoding z = Qdot~ - i Omega Q~ then loses the position
    component of the zero modes, though spectra and multiplicities stay correct."""
    require_psd(w, tol, "stiffness is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    if w.size and w[0] <= tol.tau_rank * w[-1]:
        warnings.warn(
            "stiffness is singular: zero-frequency modes make the complex state encoding "
            "non-injective on positions",
            stacklevel=4,
        )
    w.flags.writeable = False
    return w


def frequency_operator(h: QuadraticHamiltonian | LatticeHamiltonian) -> np.ndarray:
    """Real symmetric PSD Omega = S^{1/2}, S = M^{-1/2} K M^{-1/2}, from the
    spectrum that h was built with, cut and clipped there; a float64 array,
    exactly symmetric.  For a `QuadraticHamiltonian` it is X X^T with
    X = V diag(w^{1/4}), one symmetric rank-k update; for a
    `LatticeHamiltonian` it is sum_b (Q_B diag(w_{.b}^{1/2}) Q_B^T) kron
    u_b u_b^T, N symmetric rank-k updates of size V x V added into Omega's
    blocks in place (see there)."""
    if isinstance(h, LatticeHamiltonian):
        return h._frequency_operator()
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
    With s = sum_j |gamma_j|^2, the chain form's eigenvalues are below 4, so
    S's spectrum is at most (xi + 8 d s) / m, which must be finite; its
    numerator bounds every entry of K and of K applied to a unit vector.
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
        s_bound = (self.xi + 8 * self.d * sum(squares)) / self.m
        if not s_bound < math.inf:  # Python floats overflow to inf silently
            raise ValidationError(f"the lattice leaves the float range: bound {s_bound:.3g} on the spectrum of S")
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


def _apply_stiffness(spec: LatticeSpec, x: np.ndarray) -> np.ndarray:
    """K x = xi x + 2 sum_j gamma_j kron B (gamma_j^T x) for x of n rows, with no K formed: the J fields
    gamma_j^T x, stacked on the (2L + 1)^d site grid, take B along each axis by shifted slices with the chain
    form's entries, diagonal [1, 2, ..., 2] and -1 off it."""
    gamma, j, grid = np.stack(spec.gammas), len(spec.gammas), (2 * spec.l_half_width + 1,) * spec.d
    fields = (gamma @ x.reshape(spec.volume, spec.n_components, -1)).reshape(grid + (j, -1))
    out = np.multiply(fields, 2.0 * spec.d)
    for axis in range(spec.d):
        first, ahead, behind = ((slice(None),) * axis + (part,) for part in (0, slice(1, None), slice(None, -1)))
        out[first] -= fields[first]
        out[behind] -= fields[ahead]
        out[ahead] -= fields[behind]
    return spec.xi * x + ((2.0 * gamma.T) @ out.reshape(spec.volume, j, -1)).reshape(x.shape)


@dataclass(frozen=True, eq=False)
class LatticeHamiltonian:
    """A lattice's Hamiltonian, held as the Kronecker factors of its spectrum, no n x n array.

    K = xi I + 2 B kron G with B = T (+) ... (+) T, the Kronecker sum over the
    d axes of the chain form T, and G = sum_j gamma_j gamma_j^T, so S = K / m
    has the eigenpairs ((xi + 2 beta_a g_b) / m, Q_B[:, a] kron U[:, b]), with
    beta and Q_B = Q_T kron ... kron Q_T from T's closed form
    (`_chain_spectrum`) and (g, U) from one solve of G.  The holder keeps the
    `eigenvalues`, ascending by a stable sort, their order, Q_T and U.

    Construction certifies the spectrum against K's definition,
    max|K V / m - V diag(w)| <= tau_residual * max(max|w|, 1), else
    NumericError (a NaN fails too), with V formed from the factors a block
    of columns at a time and K applied to it by its stencil
    (`_apply_stiffness`), so no K is formed.  `stiffness` is that stencil
    applied to the identity, symmetrized once.  The spectrum is cut as a
    `QuadraticHamiltonian`'s is (`_cut_spectrum`).
    """

    spec: LatticeSpec
    tol: ToleranceConfig = DEFAULT_TOLERANCES
    eigenvalues: np.ndarray = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)
    _chain: np.ndarray = field(init=False, repr=False)
    _gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        spec, tol = self.spec, self.tol
        if spec.total_dim > LATTICE_DIM_BUDGET:
            raise BudgetError(f"lattice has {spec.total_dim} degrees of freedom; budget is {LATTICE_DIM_BUDGET}")
        gamma_stack = np.stack(spec.gammas)
        beta_t, q_t = _chain_spectrum(2 * spec.l_half_width + 1)
        g, u = eigh(gamma_stack.T @ gamma_stack, tol)
        beta = beta_t
        for _ in range(spec.d - 1):
            beta = np.add.outer(beta, beta_t).ravel()
        w = ((spec.xi + 2.0 * np.multiply.outer(beta, g)) / spec.m).ravel()
        order = np.argsort(w, kind="stable")
        w = w[order]
        for name, arr in (("_order", order), ("_chain", q_t), ("_gram", u)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # K V / m - V diag(w), V formed from the factors a few columns at a time
        resid = []
        for part in (slice(a, a + 2 * _BLOCK) for a in range(0, w.size, 2 * _BLOCK)):
            v = self._eigenvector_columns(part)
            resid.append(max_abs(_apply_stiffness(spec, v) / spec.m - v * w[part]))
            del v  # before the next columns are formed
        resid = max_abs(np.array(resid))  # an array, so that a NaN is kept
        bound = tol.tau_residual * max(max_abs(w), 1.0)
        if not resid <= bound:  # so that a NaN fails too
            raise NumericError(
                f"factored stiffness spectrum fails its residual certificate ({resid:.3e} > {bound:.3e})"
            )
        object.__setattr__(self, "eigenvalues", _cut_spectrum(w, tol))

    @property
    def dim(self) -> int:
        return self.spec.total_dim

    @property
    def mass(self) -> np.ndarray:
        return np.full(self.dim, self.spec.m)

    @property
    def stiffness(self) -> np.ndarray:
        """K, the stencil applied to the identity, read-only; halved before the symmetrizing sum, so it
        cannot overflow."""
        half = 0.5 * _apply_stiffness(self.spec, np.eye(self.dim))
        k = half + half.T
        k.flags.writeable = False
        return k

    def _eigenvector_columns(self, columns: slice) -> np.ndarray:
        """V[:, columns] from the factors: column k of V is Q_B[:, a] kron U[:, b], (a, b) = divmod(order_k, N),
        and Q_B[:, a] the Kronecker product over the axes of Q_T's columns at the coordinates of a, multiplied
        in the order of `np.kron`."""
        n, shape = self.spec.n_components, (2 * self.spec.l_half_width + 1,) * self.spec.d
        a, b = np.divmod(self._order[columns], n)
        q = reduce(lambda acc, t: (acc[:, None, :] * self._chain[:, t]).reshape(-1, t.size),
                   np.unravel_index(a, shape), np.ones((1, a.size)))
        return (q[:, None, :] * self._gram[:, b]).reshape(-1, a.size)

    def _frequency_operator(self) -> np.ndarray:
        """Omega = sum_b (Q_B diag(w_{.b}^{1/2}) Q_B^T) kron u_b u_b^T, w_{.b} the
        cut eigenvalues (xi + 2 beta_a g_b) / m over a.  For each b, one
        symmetric rank-k update P = X X^T, X = Q_B diag(w_{.b}^{1/4}), is added
        into each N x N block (i, j) of Omega as (u_ib u_jb) P, in place; the
        last X overwrites Q_B.  Each block's term is the transpose of its
        mirror's, added in the same order, so Omega is exactly symmetric.
        Held at once: Omega and three V x V arrays, Q_B, X and P."""
        n, volume = self.spec.n_components, self.spec.volume
        root = np.empty(self.dim)
        root[self._order] = np.sqrt(np.sqrt(self.eigenvalues))
        root = root.reshape(volume, n)
        q_b, u = reduce(np.kron, [self._chain] * self.spec.d, np.ones((1, 1))), self._gram  # a new Q_B at every d
        omega = np.zeros((self.dim, self.dim))
        blocks = omega.reshape(volume, n, volume, n)
        for b in range(n):
            x = np.multiply(q_b, root[:, b], out=q_b if b == n - 1 else None)
            p = x @ x.T
            for i, j in itertools.product(range(n), repeat=2):
                block = blocks[:, i, :, j]
                np.add(block, np.multiply(p, u[i, b] * u[j, b], out=x), out=block)
        return omega


def lattice_system(
    spec: LatticeSpec, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, LatticeHamiltonian]:
    """Frequency operator of the lattice plus its Hamiltonian.

    K = xi I + 2 sum_j (B kron gamma_j gamma_j^T) with B the Dirichlet
    gradient form on the cube; the factor 2 converts the interaction
    terms, which enter the energy without 1/2, to the q^T K q / 2
    convention.  DOF ordering is site-major, (site, component), with the
    sites in lexicographic order of their coordinates, the first axis
    slowest.  The Hamiltonian holds the spectrum of S as K's Kronecker
    factors, T's in closed form and one solve of G, certified against K's
    stencil at tol (`LatticeHamiltonian`), and Omega is formed from them
    (`frequency_operator`).
    """
    ham = LatticeHamiltonian(spec, tol)
    return frequency_operator(ham), ham


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

    The certified eigenvector Q_B[:, a] kron U[:, b] has weight
    ||E_gamma^perp^T U[:, b]||^2 on the frozen frame kron(I_V, E_gamma^perp),
    whatever a is, since Q_B is orthogonal; the coupled clusters are
    `cluster_spectrum` of sqrt(w) over the eigenpairs whose U[:, b] has
    weight below 1/2, which must be exactly V * dim E_gamma of them, else
    NumericError.  Each singular value s_j of the stacked gammas that the
    rank cut keeps must exceed sqrt(tau_rank) * s_0: G = Gamma^T Gamma holds
    s_j^2, so it cannot resolve a smaller one from the frozen frame, and the
    report is refused (NumericError, naming the ratio and the worst
    frozen-weight margin, min(weight, 1 - weight) over the columns of U).
    Only the frozen-residual check reads Omega, applied to that frame by
    blocks of sites, and ||Omega||_2 = sqrt(w_max); the report holds Omega
    and the factors, no other n x n array.  The report carries
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
    weights = np.square(g_perp.T @ h._gram).sum(axis=0)
    coupled = weights < 0.5
    count = volume * int(np.count_nonzero(coupled))
    if count != volume * j_eff:
        raise NumericError(f"{count} eigenvectors lie in the coupled frame, not {volume} x {j_eff}")
    sigma = np.linalg.norm(gamma_stack @ e_gamma.frame, axis=0)  # the singular values the rank cut kept
    if j_eff and sigma[-1] <= math.sqrt(tol.tau_rank) * sigma[0]:
        raise NumericError(
            f"the coupling vectors keep a direction that G = Gamma^T Gamma cannot resolve: singular value ratio "
            f"{sigma[-1] / sigma[0]:.3e} <= sqrt(tau_rank) = {math.sqrt(tol.tau_rank):.3e} (worst frozen-weight "
            f"margin {np.max(np.minimum(weights, 1.0 - weights)):.3e})"
        )
    w = h.eigenvalues
    per = tuple((cl.value, cl.dim) for cl in cluster_spectrum(np.sqrt(w[coupled[h._order % n]]), tol))

    freq = math.sqrt(spec.xi / spec.m)
    omega_norm = math.sqrt(w[-1])  # Omega is PSD
    squares = np.zeros((volume, f))
    step = max(_BLOCK // n, 1)
    for first in range(0, volume if f else 0, step):
        # rows of Omega kron(I_V, E^perp) - freq kron(I_V, E^perp) at `step` sites; the frame term sits on their diagonal
        sites = np.arange(first, min(first + step, volume))
        resid = (omega[first * n : (sites[-1] + 1) * n].reshape(-1, n) @ g_perp).reshape(sites.size, n, volume, f)
        resid[np.arange(sites.size), :, sites, :] -= freq * g_perp
        squares += np.square(resid).sum(axis=(0, 1))
    max_resid = math.sqrt(np.max(squares)) if frozen_dim else 0.0
    if not max_resid <= tol.tau_residual * max(omega_norm, 1.0):  # so that a NaN fails too
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
    the eigenvalues of S = K / m that its `LatticeHamiltonian` is built
    with, cut and clipped there and certified against K's stencil, and
    forms no Omega, so a row holds no n x n array.
    """
    rows = []
    for l_val in l_values:
        current = LatticeSpec(spec.d, l_val, spec.n_components, spec.m, spec.xi, spec.gammas)
        freqs = np.sqrt(LatticeHamiltonian(current, tol).eigenvalues)
        mult = max(cl.dim for cl in cluster_spectrum(freqs, tol))
        rows.append(ScanRow(current.l_half_width, current.volume, mult))
    return rows
