"""Coupling channels and the finest split into non-interacting subsystems.

The singular value decomposition of the coupling block Gamma defines
the channels: unit vectors g_q in H1 and g'_q in H2 with
Gamma = sum_q sqrt(gamma_q) |g_q><g'_q|.  The finest decomposition of
the system into parts that evolve independently and split the
observable space ("s-invariant": the component projectors commute with
both the frequency operator and the observable projection) is read from
the blocks of the algebra the channels generate with the two spectra.
Whether a candidate observable subspace splits off is read from the
spectral masses of the friction kernel, one per hidden eigen-cluster.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, ValidationError
from .model import ConservativeSystem
from .numerics import (
    DEFAULT_TOLERANCES,
    Subspace,
    ToleranceConfig,
    _invariance_leak,
    as_matrix,
    cluster_spectrum,
    complement,
    eigen_clusters,
    eigh,
    max_abs,
    svd,
    zero_subspace,
)
from .decomposition import _atom_orbit, _cluster_orbit

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

_ALGEBRA_SEED = 0  # seeds the weights of the generic combination X in `canonical_decomposition`


@dataclass(frozen=True, eq=False)
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
        for name in ("g", "g_prime"):
            m = as_matrix(getattr(self, name), name=name, own=True)
            if m.shape[1] != self.rank:
                raise ValidationError("channel vector count must equal the rank")
            object.__setattr__(self, name, m)

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
    system._kernel_size()  # refuses a coupling whose weights gamma_q overflow
    left, sigma, right_h = svd(gamma, tol)
    rank = int(np.count_nonzero(sigma > tol.tau_rank * sigma[0]))
    gammas = tuple(float(s) ** 2 for s in sigma[:rank])
    # cluster ascending (sigma/sigma_0)^2, which cannot underflow; reversed i is channel rank - 1 - i
    clusters = cluster_spectrum((sigma[:rank][::-1] / sigma[0]) ** 2, tol)
    groups = [tuple(range(rank - cl.stop, rank - cl.start)) for cl in reversed(clusters) if cl.dim > 1]
    return ChannelSet(gammas, left[:, :rank], right_h[:rank].conj().T, tuple(groups))


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
    cut by the atom rule, the cut of h2c: the singular values sigma of
    the compression of Gamma / ||Gamma||_2 with sigma > sqrt(tau_rank).
    Dividing first keeps couplings whose squares underflow.  A zero row or
    column marks a part that no channel reaches.
    """
    if any(p.ambient_dim != system.n1 for p in parts1) or any(p.ambient_dim != system.n2 for p in parts2):
        raise ValidationError("part ambient dims do not match the system blocks")
    gamma, cut = system.coupling / (system._coupling_norm or 1.0), np.sqrt(tol.tau_rank)
    out = np.zeros((len(parts1), len(parts2)), dtype=np.int64)
    for a, pa in enumerate(parts1):
        for b, pb in enumerate(parts2):
            compressed = pa.frame.conj().T @ gamma @ pb.frame
            out[a, b] = np.count_nonzero(np.linalg.svd(compressed, compute_uv=False) > cut)
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


@dataclass(frozen=True, eq=False)
class SInvariantDecomposition:
    """Finest splitting into independently evolving two-sided parts.

    components[k] = (observable part, hidden part), a subspace of H1 and
    one of H2; their direct sums over k recover H1 and H2.  Channel q
    drives component assignment[q].  Components beyond the assigned ones
    are the decoupled remainders (empty on one side); a channel with
    tau_rank < sigma_q / sigma_0 <= sqrt(tau_rank) may drive one that is
    empty on H2 and fails `is_s_invariant`.  channels is the channel set,
    each degenerate group's vectors rotated onto the components.
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
    """Split the coupled part along the blocks of the channel algebra.

    In channel coordinates x in C^r (x -> g x in H1, x -> g' x in H2) the
    S-invariant splittings are those of C^r that reduce every Hermitian
    generator: G_c = C_c^H C_c, C_c = V_c^H g, per eigen-cluster c of
    omega1 (g' for omega2), and the diagonal of strengths sigma_q/sigma_0,
    made scalar on each degenerate group.  The eigenvectors q_i of X, a
    combination of the generators with seeded weights in [1, 2), lie in
    single blocks; q_i and q_j are linked when |q_i^H G q_j| > tau_residual
    for some G, and the blocks are the connected components (Murota, Kanno,
    Kojima and Kojima, Japan J. Indust. Appl. Math. 27, 2010).  Channels
    of a degenerate group are rotated onto the blocks: g, g_prime and
    assignment move there only.  A repeated eigenvalue of X is accepted
    only where its vectors link to nothing (one-dimensional components,
    only their span canonical); any other repeat, from equivalent
    components of dimension two or more or bad luck of the seed, raises
    NumericError.  A component is the pair of orbits of `coupled_parts` of
    its channels g, or of its block's g q_i where they leak into other
    blocks past tau_rank; they are ordered by smallest channel, and the
    decoupled remainders h1d and h2d follow with an empty other side.
    """
    n1, n2 = system.n1, system.n2
    cs = channels(system, tol)
    r = cs.rank
    # (eigenvectors, clusters) of each side; none without a coupling, whose orbits are then empty
    sides = [eigen_clusters(op, tol)[1:] if r else (op[:, :0], []) for op in (system.omega1, system.omega2)]
    # sigma_q from g_q^H Gamma g'_q, which has no square to underflow; scalar on each degenerate group
    strengths = np.sum(cs.g.conj() * (system.coupling @ cs.g_prime), axis=0).real
    for group in map(list, cs.degenerate_groups):
        strengths[group] = strengths[group].mean()
    strengths /= max(strengths, default=1.0)
    coefficients = [(v.conj().T @ u, clusters) for (v, clusters), u in zip(sides, (cs.g, cs.g_prime))]
    rng = np.random.default_rng(_ALGEBRA_SEED)
    x = np.diag(rng.uniform(1.0, 2.0) * strengths)
    for a, clusters in coefficients:
        x = x + (a.conj().T * np.repeat(rng.uniform(1.0, 2.0, len(clusters)), [cl.dim for cl in clusters])) @ a
    _, q, x_clusters = eigen_clusters(x, tol)
    link = np.abs(q.conj().T @ (strengths[:, None] * q))
    for a, clusters in coefficients:
        d = a @ q
        for cl in clusters:
            np.maximum(link, np.abs(d[cl.start : cl.stop].conj().T @ d[cl.start : cl.stop]), out=link)
    linked = (link > tol.tau_residual) | np.eye(r, dtype=bool)
    if any(cl.dim > 1 and np.count_nonzero(linked[cl.start : cl.stop]) > cl.dim for cl in x_clusters):
        raise NumericError("ambiguous channel blocks: linked eigenvectors of X share an eigenvalue")
    while not np.array_equal(closure := linked @ linked, linked):
        linked = closure
    members = [tuple(np.flatnonzero(row).tolist()) for row in linked]
    x_blocks = sorted(set(members))
    # sum_k k Q_k Q_k^H over the blocks k: a channel outside a degenerate group is its eigenvector
    block_index = (q * np.array([x_blocks.index(m) for m in members], dtype=np.float64)) @ q.conj().T
    block_of = np.rint(block_index.diagonal().real).astype(np.int64)
    g, g_prime = np.array(cs.g), np.array(cs.g_prime)
    for group in map(list, cs.degenerate_groups):
        # Sigma is scalar on the group: rotate its channels, in copies of cs's, and q's rows
        found, w = eigh(block_index[np.ix_(group, group)], tol)
        g[:, group], g_prime[:, group] = g[:, group] @ w, g_prime[:, group] @ w
        q[group] = w.conj().T @ q[group]
        block_of[group] = np.rint(found)
    index: dict[int, int] = {}
    assignment = tuple(index.setdefault(k, len(index)) for k in block_of.tolist())
    groups = [[p for p in range(r) if assignment[p] == i] for i in range(len(index))]

    # close strengths leave eps/gap of one channel vector in the other, which the orbit's cut may keep
    seeds = [g[:, group] if np.linalg.norm(np.delete(q[group], block, axis=1)) <= tol.tau_rank
             else g @ q[:, block] for group, block in zip(groups, (list(x_blocks[k]) for k in index))]
    # cs.g's orbits (coupled_parts' seed, a frame of Ran Gamma) come last: h1d and h2d are their complements
    *components, coupled = [(_cluster_orbit(*sides[0], f, tol.tau_rank)[0], _atom_orbit(system, *sides[1], f, tol)[0])
                            for f in (*seeds, cs.g)]
    h1d, h2d = map(complement, coupled)
    components += [(h1d, zero_subspace(n2))] * bool(h1d.dim) + [(zero_subspace(n1), h2d)] * bool(h2d.dim)
    return SInvariantDecomposition(tuple(components), assignment, replace(cs, g=g, g_prime=g_prime))


@dataclass(frozen=True, eq=False)
class DecouplingReport:
    """Can a candidate observable subspace be split off?

    Yes iff omega1 and the kernel a(t) = sum_c N_c e^{-i w_c t} are both
    block-diagonal for (h1_sub, complement).  Exponentials at distinct
    frequencies are linearly independent, so a(t) is exactly when every
    N_c = B_c B_c^H is, B_c = Gamma V_c over every eigen-cluster c of
    omega2.  The residuals are ||pi omega1 pi^perp|| and
    sum_c ||(pi B_c)(pi^perp B_c)^H||, a bound on ||pi a(t) pi^perp|| at
    every t; omega1 and each N_c are Hermitian, so the swapped products
    have the same norms.  On success `splitting` carries the invariant
    pair (h1_sub, `coupled_parts`' orbit of Gamma^H h1_sub), in H1 and H2.
    """

    decoupled: bool
    residual_internal: float
    residual_kernel: float
    splitting: tuple[Subspace, Subspace] | None = None


def decoupling_report(
    system: ConservativeSystem,
    h1_sub: Subspace,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DecouplingReport:
    """Test whether h1_sub, a subspace of H1, decouples from the rest of the observable side."""
    n1 = system.n1
    if h1_sub.ambient_dim != n1:
        raise ValidationError("candidate subspace must live in H1")

    # ||pi omega1 pi^perp||_2 and sum_c ||pi B_c (pi^perp B_c)^H||_2 for pi = F F^H, read off the frame F:
    # with P = F^H B_c, pi B_c = F P and pi^perp B_c = B_c - F P, and F's orthonormal columns keep the norm
    frame = h1_sub.frame
    r_int = _invariance_leak(system.omega1, frame)

    _, v, clusters = eigen_clusters(system.omega2, tol)
    gv = system.coupling @ v
    r_ker = 0.0
    for b in (gv[:, cl.start : cl.stop] for cl in clusters):
        p = frame.conj().T @ b
        r_ker += float(np.linalg.norm(p @ (b - frame @ p).conj().T, 2))

    omega_scale = max(system._omega_norm, 1.0)
    kernel_scale = max(system._kernel_size(), 1.0)
    decoupled = r_int <= tol.tau_residual * omega_scale and r_ker <= tol.tau_residual * kernel_scale

    # the orbit of Gamma^H h1_sub, on the spectrum above
    splitting = (h1_sub, _atom_orbit(system, v, clusters, frame, tol)[0]) if decoupled else None
    return DecouplingReport(decoupled, r_int, r_ker, splitting)
