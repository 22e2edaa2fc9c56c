"""Coupling channels and the finest split into non-interacting subsystems.

The singular value decomposition of the coupling block Gamma defines
the channels: unit vectors g_q in H1 and g'_q in H2 with
Gamma = sum_q sqrt(gamma_q) |g_q><g'_q|.  Channels whose orbits touch
belong to the same dynamical component; the connected components of
that contact graph give the finest decomposition of the system into
parts that evolve independently and split the observable space
("s-invariant": the component projectors commute with both the
frequency operator and the observable projection).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import ConservativeSystem
from .numerics import (
    DEFAULT_TOLERANCES,
    Subspace,
    ToleranceConfig,
    _invariance_leak,
    cluster_spectrum,
    eigen_clusters,
    matrix_rank,
    max_abs,
    orthonormal_basis,
    svd,
    zero_subspace,
)
from .decomposition import _block_frame, _cluster_orbit, _embed, _split_parts, orbit
from .extension import kernel_eval

__all__ = [
    "ChannelSet",
    "channels",
    "coupling_matrix",
    "is_s_invariant",
    "SInvariantDecomposition",
    "canonical_decomposition",
    "DecouplingReport",
    "decoupling_report",
]


@dataclass(frozen=True)
class ChannelSet:
    """Rank-one channels of the coupling block.

    gammas are the eigenvalues of Gamma Gamma^H in descending order; the
    columns of g and g_prime are the corresponding unit vectors in H1
    and H2.  Channel q carries coupling strength sqrt(gamma_q):
    Gamma^H g_q = sqrt(gamma_q) g'_q.  degenerate_groups lists channel
    indices whose strengths coincide within clustering tolerance; inside
    such a group the individual vectors are a basis choice, only their
    span is canonical.
    """

    gammas: tuple[float, ...]
    g: np.ndarray = field(repr=False)
    g_prime: np.ndarray = field(repr=False)
    degenerate_groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.g.shape[1] != self.rank or self.g_prime.shape[1] != self.rank:
            raise ValidationError("channel vector count must equal the rank")

    @property
    def rank(self) -> int:
        return len(self.gammas)


def channels(system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ChannelSet:
    """Extract the coupling channels from the SVD of the coupling block."""
    gamma = system.coupling
    if gamma.size == 0 or max_abs(gamma) == 0.0:
        return ChannelSet(
            (),
            np.zeros((system.n1, 0), dtype=np.complex128),
            np.zeros((system.n2, 0), dtype=np.complex128),
        )
    left, sigma, right_h = svd(gamma, tol)
    rank = int(np.count_nonzero(sigma > tol.tau_rank * sigma[0]))
    gammas = tuple(float(s) ** 2 for s in sigma[:rank])
    # cluster ascending (sigma/sigma_0)^2, which cannot underflow; reversed i is channel rank - 1 - i
    clusters = cluster_spectrum((sigma[:rank][::-1] / sigma[0]) ** 2, tol)
    groups = [tuple(range(rank - cl.stop, rank - cl.start)) for cl in reversed(clusters) if cl.dim > 1]
    return ChannelSet(
        gammas,
        np.ascontiguousarray(left[:, :rank]),
        np.ascontiguousarray(right_h[:rank].conj().T),
        tuple(groups),
    )


def coupling_matrix(
    system: ConservativeSystem,
    parts1: Sequence[Subspace],
    parts2: Sequence[Subspace],
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Integer matrix of coupling ranks between observable and hidden parts.

    parts1 and parts2 are subspaces of H1 and H2, in block coordinates.
    Entry (a, b) is the numerical rank of the coupling block compressed to
    parts1[a] and parts2[b] (any two subspaces; no orthogonality needed),
    measured against the largest singular value of the whole coupling.
    A zero row or column marks a part that no channel reaches.
    """
    if any(p.ambient_dim != system.n1 for p in parts1) or any(p.ambient_dim != system.n2 for p in parts2):
        raise ValidationError("part ambient dims do not match the system blocks")
    gamma = system.coupling
    scale = float(np.linalg.norm(gamma, 2)) if gamma.size else 0.0
    out = np.zeros((len(parts1), len(parts2)), dtype=np.int64)
    for a, pa in enumerate(parts1):
        for b, pb in enumerate(parts2):
            out[a, b] = matrix_rank(pa.frame.conj().T @ gamma @ pb.frame, tol, scale=scale)
    return out


def is_s_invariant(
    system: ConservativeSystem,
    h_sub: Subspace,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> tuple[bool, tuple[float, float]]:
    """Does the projector onto h_sub commute with omega and with P1?

    Returns (verdict, (||[pi, omega]||, ||[pi, P1]||)); the first
    residual is compared against tau_residual * ||omega||, the second
    against tau_residual (P1 has norm one).  Both come from the frame F:
    the n x k leak of omega, and ||[pi, P1]|| = ||pi_12|| = ||F_1 F_2^H||.
    """
    if h_sub.ambient_dim != system.dim:
        raise ValidationError("subspace must live in the full space")
    f, n1 = h_sub.frame, system.n1
    r_omega = _invariance_leak(system.omega, f)
    r_p1 = float(np.linalg.norm(f[:n1] @ f[n1:].conj().T, 2))
    verdict = r_omega <= tol.tau_residual * system._omega_norm and r_p1 <= tol.tau_residual
    return verdict, (r_omega, r_p1)


@dataclass(frozen=True)
class SInvariantDecomposition:
    """Finest splitting into independently evolving two-sided parts.

    components[k] = (observable part, hidden part), both in full-space
    coordinates; their direct sums over k recover H1 and H2.  Channel q
    drives component assignment[q].  Components beyond the assigned ones
    are the decoupled remainders (empty on one side).  channels is the
    channel set the grouping was built from.
    """

    components: tuple[tuple[Subspace, Subspace], ...]
    assignment: tuple[int, ...]
    channels: ChannelSet

    @property
    def count(self) -> int:
        return len(self.components)


def canonical_decomposition(
    system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> SInvariantDecomposition:
    """Group channels whose orbits overlap; each group is one component.

    Channels p and q interact iff the orbit of g_p under omega1 has a
    component along g_q, or the orbit of g'_p under omega2 has one along
    g'_q (the orbits then share an eigenspace direction, so no invariant
    splitting can separate them).  Both overlaps are read from one
    eigendecomposition per side: for an eigen-cluster with eigenvectors
    V_c put C = V_c^H U (U = g or g', orthonormal columns); the orbit
    frame F_p of u_p holds the unit vector V_c C[:, p] / |C[:, p]|
    exactly when |C[:, p]| > tau_rank, so the overlap is

        |F_p^H u_q| = sqrt( sum_c |C[:, p]^H C[:, q]|^2 / |C[:, p]|^2 )

    over the kept clusters, and p < q are linked when it exceeds
    tau_residual on either side.  Connected components of that relation,
    ordered by their smallest channel, give the finest splitting; the
    decoupled remainders h1d and h2d, read from the same two spectra, are
    attached as extra components with an empty other side.
    """
    n1, n2 = system.n1, system.n2
    cs = channels(system, tol)
    r = cs.rank
    pairs = ((system.omega1, cs.g), (system.omega2, cs.g_prime)) if r else ()
    sides = [(*eigen_clusters(op, tol)[1:], u) for op, u in pairs]
    linked = np.eye(r, dtype=bool)
    for v, clusters, u in sides:
        overlap2 = np.zeros((r, r))
        for cl in clusters:
            c = v[:, cl.start : cl.stop].conj().T @ u
            norms = np.linalg.norm(c, axis=0)
            kept = norms > tol.tau_rank
            overlap2[kept] += np.abs(c[:, kept].conj().T @ c) ** 2 / norms[kept, None] ** 2
        linked |= np.triu(np.sqrt(overlap2) > tol.tau_residual)
    linked |= linked.T
    while not np.array_equal(closure := linked @ linked, linked):
        linked = closure
    members = [tuple(np.flatnonzero(row).tolist()) for row in linked]
    groups = sorted(set(members))

    components: list[tuple[Subspace, Subspace]] = []
    for group in groups:
        f1, f2 = (_cluster_orbit(v, clusters, u[:, group], tol).frame for v, clusters, u in sides)
        components.append((Subspace(n1 + n2, _embed(f1, n1, n2, 1)), Subspace(n1 + n2, _embed(f2, n1, n2, 2))))

    # coupled_parts' seeds on the spectra above; no spectra when the coupling is zero
    gamma = system.coupling
    blocks = [zero_subspace(n1), zero_subspace(n2)]
    for i, ((v, clusters, _), seed) in enumerate(zip(sides, (gamma, gamma.conj().T))):
        blocks[i] = _cluster_orbit(v, clusters, orthonormal_basis(seed, tol).frame, tol)
    parts = _split_parts(system, *blocks)
    empty = zero_subspace(n1 + n2)
    if parts.h1d.dim:
        components.append((parts.h1d, empty))
    if parts.h2d.dim:
        components.append((empty, parts.h2d))
    return SInvariantDecomposition(tuple(components), tuple(groups.index(m) for m in members), cs)


@dataclass(frozen=True)
class DecouplingReport:
    """Can a candidate observable subspace be split off?

    The split succeeds iff the internal operator and the friction kernel
    are both block-diagonal with respect to (h1_sub, complement): the
    forward residuals are the norms of the omega1 block and the worst
    kernel block over the sampled times.  Decoupling is mutual, so the
    reverse residuals must come out small whenever the forward ones do;
    both are reported.  On success `splitting` carries the full-space
    invariant pair (h1_sub, orbit of coupling^H h1_sub).
    """

    decoupled: bool
    residual_internal: float
    residual_kernel: float
    reverse_residual_internal: float
    reverse_residual_kernel: float
    times: np.ndarray = field(repr=False)
    splitting: tuple[Subspace, Subspace] | None = None


KERNEL_CHECK_POINTS = 25


def _kernel_check_times(system: ConservativeSystem, tol: ToleranceConfig) -> np.ndarray:
    """25 points over the slowest beat period: the least gap between hidden eigen-clusters."""
    values = [cl.value for cl in eigen_clusters(system.omega2, tol, vectors=False)[2]]
    horizon = 2.0 * np.pi / float(np.diff(values).min()) if len(values) > 1 else 2.0 * np.pi
    return np.linspace(0.0, horizon, KERNEL_CHECK_POINTS)


def decoupling_report(
    system: ConservativeSystem,
    h1_sub: Subspace,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DecouplingReport:
    """Test whether h1_sub decouples from the rest of the observable side."""
    n1, n2 = system.n1, system.n2
    if h1_sub.ambient_dim == n1 + n2:
        frame = _block_frame(h1_sub, n1, 1)
    elif h1_sub.ambient_dim == n1:
        frame = h1_sub.frame
    else:
        raise ValidationError("candidate subspace must live in H1 (or the full space, H1-supported)")

    pi = frame @ frame.conj().T
    pi_c = np.eye(n1, dtype=np.complex128) - pi
    omega1 = system.omega1
    r_int = float(np.linalg.norm(pi @ omega1 @ pi_c, 2))
    r_int_rev = float(np.linalg.norm(pi_c @ omega1 @ pi, 2))

    times = _kernel_check_times(system, tol)
    kernel = kernel_eval(system, times, tol)
    r_ker = max(
        (float(np.linalg.norm(pi @ a @ pi_c, 2)) for a in kernel.values), default=0.0
    )
    r_ker_rev = max(
        (float(np.linalg.norm(pi_c @ a @ pi, 2)) for a in kernel.values), default=0.0
    )

    omega_scale = max(float(np.linalg.norm(system.omega, 2)), 1.0)
    kernel_scale = max(float(np.linalg.norm(kernel.values[0], 2)), 1.0)
    decoupled = r_int <= tol.tau_residual * omega_scale and r_ker <= tol.tau_residual * kernel_scale

    splitting = None
    if decoupled:
        seed = system.coupling.conj().T @ frame
        h2_part = orbit(system.omega2, seed, tol) if n2 else zero_subspace(0)
        splitting = (
            Subspace(n1 + n2, _embed(frame, n1, n2, 1)),
            Subspace(n1 + n2, _embed(h2_part.frame, n1, n2, 2)),
        )
    return DecouplingReport(
        decoupled=decoupled,
        residual_internal=r_int,
        residual_kernel=r_ker,
        reverse_residual_internal=r_int_rev,
        reverse_residual_kernel=r_ker_rev,
        times=times,
        splitting=splitting,
    )
