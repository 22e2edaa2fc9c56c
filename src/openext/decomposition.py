"""Invariant-subspace structure of two-block conservative systems.

Everything here is driven by orbits: the smallest invariant subspace of
a Hermitian operator containing a seed set.  The coupled parts of a
system are the orbits of the coupling range on each side, the hidden one
cut by the atom rule; their complements are invisible.  H1 + H2c gives
the smallest extension with the same friction kernel, restricting to
H1c + H2c gives the reconstructible core.  Strings slice the coupled
hidden space into multiplicity-one invariant pieces (the orbit's own
cluster pieces, by coupling strength), and the multiplicity of any
coupled restriction is bounded by the coupling rank.

Subspace conventions: `orbit` and `multiplicity` work in the ambient
space of the operator they are given.  Every one-sided subspace lives in
its own block: observable-side parts are subspaces of H1 = C^{n1},
hidden-side parts and strings subspaces of H2 = C^{n2}.  Only the
restrictions to a sum of parts form the full-space basis, block-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import ConservativeSystem
from .numerics import (
    DEFAULT_TOLERANCES,
    STRUCTURE_TOL,
    Subspace,
    ToleranceConfig,
    _invariance_leak,
    _phase_fix,
    as_matrix,
    cluster_spectrum,
    cluster_svd,
    complement,
    compress,
    eigen_clusters,
    eigh,
    matrix_rank,
    max_abs,
    orthonormal_basis,
    zero_subspace,
)

__all__ = [
    "orbit",
    "CoupledParts",
    "coupled_parts",
    "four_block_residual",
    "minimal_subsystem",
    "reconstructible_core",
    "multiplicity",
    "MultiplicityBoundReport",
    "check_multiplicity_bounds",
    "StringDecomposition",
    "string_decomposition",
    "is_reconstructible",
]


def orbit(op, seed, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Subspace:
    """Smallest op-invariant subspace containing the seed vectors.

    Equals the span of the eigen-cluster projections of the seed: each
    cluster of the spectrum (merged at tau_eig_cluster relative to the
    spectral radius) contributes the projection of the seed onto its
    eigenspace.  A `Subspace` seed is used as it is; any other seed is
    first cut to an orthonormal frame F of its span by `orthonormal_basis`
    (the frame rule).  Each part's rank is cut on the d_c x k coefficients
    V_c^H F at tau_rank, so the orbit depends only on span(seed).
    """
    a = as_matrix(op)
    n = a.shape[0]
    basis = seed if isinstance(seed, Subspace) else orthonormal_basis(seed, tol)
    if basis.ambient_dim != n:
        raise ValidationError(f"seed ambient dim {basis.ambient_dim} does not match operator dim {n}")
    if basis.dim == 0:
        return zero_subspace(n)
    _, v, clusters = eigen_clusters(a, tol)
    return _cluster_orbit(v, clusters, basis.frame, tol.tau_rank)[0]


def _cluster_orbit(v: np.ndarray, clusters, seed: np.ndarray, cut: float) -> tuple[Subspace, tuple]:
    """Orbit of the seed, given the operator's eigenvectors and clusters, and each cluster's piece's
    (value, dim): V_c on the left singular vectors of V_c^H seed above cut (`cluster_svd`), strongest first."""
    pieces, kept = [np.zeros((v.shape[0], 0), dtype=np.complex128)], []
    for cl, (u, s) in zip(clusters, cluster_svd(v.conj().T @ seed, clusters)):
        keep = int(np.count_nonzero(s > cut))
        if keep:
            pieces.append(v[:, cl.start : cl.stop] @ u[:, :keep])
            kept.append((cl.value, keep))
    return Subspace(v.shape[0], _phase_fix(np.hstack(pieces))[0]), tuple(kept)


@dataclass(frozen=True, eq=False)
class CoupledParts:
    """Coupled/decoupled split of both sides, each part in its own block.

    h1c is the orbit of a frame F of Ran(coupling) under omega1, h2c that
    of Gamma^H F under omega2 by the atom rule (`_atom_orbit`), each cluster's
    piece on the right singular vectors of Gamma V_c, strongest first; h1d
    and h2d are the complements in their blocks, H1 and H2.  The decoupled
    parts never feel or feed the other side.  h2c_clusters is the (value,
    dim) of each omega2 eigen-cluster's piece of h2c, in frame order.
    """

    h1c: Subspace
    h1d: Subspace
    h2c: Subspace
    h2d: Subspace
    h2c_clusters: tuple[tuple[float, int], ...]

    def __post_init__(self):
        for a, b in ((self.h1c, self.h1d), (self.h2c, self.h2d)):
            if a.ambient_dim != b.ambient_dim:
                raise ValidationError("coupled and decoupled parts must share one block")
            if a.dim and b.dim and max_abs(a.frame.conj().T @ b.frame) > STRUCTURE_TOL:
                raise ValidationError("coupled and decoupled parts must be orthogonal")
        if sum(dim for _, dim in self.h2c_clusters) != self.h2c.dim:
            raise ValidationError("h2c cluster dims must sum to the dim of h2c")


def _atom_orbit(system: ConservativeSystem, v, clusters, frame, tol: ToleranceConfig) -> tuple[Subspace, tuple]:
    """`_cluster_orbit` under omega2 of Gamma^H F / ||Gamma||_2, F an orthonormal H1 frame, cut at
    sqrt(tau_rank): the atom rule sigma^2 > tau_rank * ||a(0)||_2 on the singular values sigma of
    F^H Gamma V_c.  Dividing first keeps couplings whose squares underflow."""
    norm, images = system._coupling_norm, system.coupling.conj().T @ frame
    return _cluster_orbit(v, clusters, images / norm if norm else images, np.sqrt(tol.tau_rank))


def coupled_parts(system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> CoupledParts:
    """Split each side into its coupled orbit and the decoupled remainder, once per (system, tol):
    the split is kept on the system, and every later call with an equal tol returns that object."""
    if (parts := system._coupled_parts.get(tol)) is None:
        basis = orthonormal_basis(system.coupling, tol)
        h1c = orbit(system.omega1, basis, tol)
        _, v, clusters = eigen_clusters(system.omega2, tol)
        h2c, h2c_clusters = _atom_orbit(system, v, clusters, basis.frame, tol)
        parts = system._coupled_parts[tol] = CoupledParts(h1c, complement(h1c), h2c, complement(h2c), h2c_clusters)
    return parts


def _block_basis(frame1: np.ndarray, frame2: np.ndarray) -> np.ndarray:
    """Full-space basis diag(F1, F2) of span F1 + span F2, F1 a frame in H1 and F2 in H2."""
    (n1, k1), (n2, k2) = frame1.shape, frame2.shape
    basis = np.zeros((n1 + n2, k1 + k2), dtype=np.complex128)
    basis[:n1, :k1], basis[n1:, k1:] = frame1, frame2
    return basis


def four_block_residual(system: ConservativeSystem, parts: CoupledParts) -> float:
    """Largest entry of omega over the ten blocks that must vanish.

    In the ordered basis (h1d, h1c, h2c, h2d) the only blocks allowed to
    be nonzero are the four diagonal ones and the h1c/h2c coupling pair;
    a correct split drives everything else to zero.
    """
    if (parts.h1c.ambient_dim, parts.h2c.ambient_dim) != (system.n1, system.n2):
        raise ValidationError("parts blocks do not match the system")
    order = (parts.h1d, parts.h1c, parts.h2c, parts.h2d)
    if sum(p.dim for p in order) != system.dim:
        raise ValidationError("parts do not span the full space")
    basis = _block_basis(np.hstack([parts.h1d.frame, parts.h1c.frame]),
                         np.hstack([parts.h2c.frame, parts.h2d.frame]))
    t = basis.conj().T @ system.omega @ basis
    part = np.repeat(np.arange(4), [p.dim for p in order])  # the part of each basis column
    coupled = (part == 1) | (part == 2)
    return max_abs(t[(part[:, None] != part) & ~(coupled[:, None] & coupled)])


def _compress(system: ConservativeSystem, frame1: np.ndarray, frame2: np.ndarray) -> ConservativeSystem:
    """Restriction of the system to span(frame1) + span(frame2), frame1 in H1 and frame2 in H2."""
    return ConservativeSystem(frame1.shape[1], frame2.shape[1], compress(system.omega, _block_basis(frame1, frame2)))


def minimal_subsystem(system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ConservativeSystem:
    """Restriction to H1 + h2c: the smallest extension with the same kernel."""
    parts = coupled_parts(system, tol)
    return _compress(system, np.eye(system.n1, dtype=np.complex128), parts.h2c.frame)


def reconstructible_core(system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ConservativeSystem:
    """Restriction to h1c + h2c: both sides reduced to their coupled parts."""
    parts = coupled_parts(system, tol)
    if parts.h1c.dim == 0:
        raise ValidationError("system has no coupled observable part; the core is trivial")
    return _compress(system, parts.h1c.frame, parts.h2c.frame)


def multiplicity(
    op,
    invariant_subspace: Subspace | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    *, leak: float = 0.0,
) -> tuple[tuple[float, int], ...]:
    """(value, dim) of every eigen-cluster, ascending; the multiplicity is the largest dim.

    With a subspace the operator is first compressed to it; the subspace
    must be invariant up to `leak`, a departure the caller allows, plus
    tau_residual times the operator norm, because compressing a
    non-invariant subspace produces spectra of nothing in particular.
    """
    a = as_matrix(op)
    if invariant_subspace is None:
        restricted = a
    else:
        if invariant_subspace.ambient_dim != a.shape[0]:
            raise ValidationError("subspace ambient does not match the operator")
        if invariant_subspace.dim == 0:
            return ()
        f = invariant_subspace.frame
        scale = float(np.linalg.norm(a, 2))
        residual = _invariance_leak(a, f)
        if residual > leak + tol.tau_residual * max(scale, 1.0):
            raise ValidationError(f"subspace is not invariant: leak {residual:.3e} exceeds "
                                  f"{leak:.1e} + {tol.tau_residual:.1e} * max(||op||, 1)")
        restricted = compress(a, f)
    return tuple((cl.value, cl.dim) for cl in cluster_spectrum(np.linalg.eigvalsh(restricted), tol))


def _max_multiplicity(per_cluster: tuple[tuple[float, int], ...]) -> int:
    return max((m for _, m in per_cluster), default=0)


def _min_cluster_gap(per_cluster: tuple[tuple[float, int], ...]) -> float | None:
    values = [v for v, _ in per_cluster]
    return float(min(b - a for a, b in zip(values, values[1:]))) if len(values) > 1 else None


@dataclass(frozen=True)
class MultiplicityBoundReport:
    """Coupling-rank bounds on spectral multiplicity, with per-cluster slack.
    Stores the measured cluster tables; maxima, verdicts and violations are read off them."""

    coupling_rank: int
    per_cluster_h1c: tuple[tuple[float, int], ...]
    per_cluster_h2c: tuple[tuple[float, int], ...]
    per_cluster_minimal: tuple[tuple[float, int], ...]
    h1_fully_coupled: bool
    minimal_bound: int

    @property
    def mult_h1c(self) -> int:
        return _max_multiplicity(self.per_cluster_h1c)

    @property
    def mult_h2c(self) -> int:
        return _max_multiplicity(self.per_cluster_h2c)

    @property
    def mult_minimal(self) -> int:
        return _max_multiplicity(self.per_cluster_minimal)

    @property
    def bound_minimal_ok(self) -> bool | None:
        return self.mult_minimal <= self.minimal_bound if self.h1_fully_coupled else None

    @property
    def violations(self) -> tuple[str, ...]:
        rank = self.coupling_rank
        found = [f"mult(omega{i} on h{i}c) = {m} exceeds coupling rank {rank}"
                 for i, m in ((1, self.mult_h1c), (2, self.mult_h2c)) if m > rank]
        if self.bound_minimal_ok is False:  # None: the bound does not apply
            found.append(f"mult(omega on minimal extension) = {self.mult_minimal} "
                         f"exceeds min(n1, 2 rank) = {self.minimal_bound}")
        return tuple(found)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        def side(per, bound, ok, **applies):
            return {
                "max_multiplicity": _max_multiplicity(per),
                "bound": bound,
                **applies,
                "ok": ok,
                "clusters": [{"value": v, "multiplicity": m, "slack": bound - m} for v, m in per],
                "min_cluster_gap": _min_cluster_gap(per),
            }

        rank = self.coupling_rank
        return {
            "coupling_rank": rank,
            "h1_coupled": side(self.per_cluster_h1c, rank, self.mult_h1c <= rank),
            "h2_coupled": side(self.per_cluster_h2c, rank, self.mult_h2c <= rank),
            "minimal_extension": side(self.per_cluster_minimal, self.minimal_bound, self.bound_minimal_ok,
                                      bound_applies=self.h1_fully_coupled),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def check_multiplicity_bounds(
    system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> MultiplicityBoundReport:
    """Verify the coupling-rank multiplicity bounds on one system.

    The restriction of either internal operator to its coupled part has
    multiplicity at most rank(coupling); when the whole observable side
    is coupled, the minimal extension, omega compressed to H1 + h2c, obeys
    mult <= min(n1, 2 rank(coupling)).  Violations indicate tolerance
    trouble (clusters merged or split wrongly), not new mathematics, so
    they are reported rather than raised.  A coupled part that leaks more
    than its cut drops is not invariant, and raises ValidationError.
    """
    n1, n2 = system.n1, system.n2
    rank = matrix_rank(system.coupling, tol)

    parts = coupled_parts(system, tol)
    min_frame = _block_basis(np.eye(n1, dtype=np.complex128), parts.h2c.frame)
    # H1 + h2c leaks only the couplings the cuts drop: at most sqrt(tau_rank) ||Gamma||_2 from each
    # of at most n2 omega2 clusters (orthogonal in H2, so their squares add), tau_rank ||Gamma||_2 off Ran Gamma
    dropped = (np.sqrt(n2 * tol.tau_rank) + tol.tau_rank) * system._coupling_norm
    return MultiplicityBoundReport(
        coupling_rank=rank,
        per_cluster_h1c=multiplicity(system.omega1, parts.h1c, tol),
        per_cluster_h2c=multiplicity(system.omega2, parts.h2c, tol) if n2 else (),
        per_cluster_minimal=multiplicity(system.omega, Subspace(n1 + n2, min_frame), tol, leak=dropped),
        h1_fully_coupled=parts.h1c.dim == n1,
        minimal_bound=min(n1, 2 * rank),
    )


@dataclass(frozen=True, eq=False)
class StringDecomposition:
    """Multiplicity-one invariant slices of the coupled hidden space, subspaces of H2.

    String j collects column j of each omega2 eigen-cluster's piece P of
    h2c with more than j columns, which `coupled_parts` orders by coupling
    strength, strongest first.  Each string is invariant with simple
    spectrum, the strings are mutually orthogonal and sum to h2c, and their
    spectral contents are nested: every frequency present in string j+1 is
    present in string j.  Where strengths tie inside a cluster, only the
    span of the tied strings' columns is canonical, as for
    `ChannelSet.degenerate_groups`.
    """

    strings: tuple[Subspace, ...]
    measures: tuple[tuple[tuple[float, float], ...], ...] = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.strings)


def string_decomposition(
    system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> StringDecomposition:
    """Decompose h2c into strings (see StringDecomposition)."""
    parts = coupled_parts(system, tol)
    dims = [dim for _, dim in parts.h2c_clusters]
    pieces = np.split(parts.h2c.frame, np.cumsum(dims[:-1], dtype=int), axis=1)
    depth = range(max(dims, default=0))
    strings = [Subspace(system.n2, np.column_stack([p[:, j] for p in pieces if p.shape[1] > j])) for j in depth]
    measures = [tuple((value, 1.0) for value, dim in parts.h2c_clusters if dim > j) for j in depth]
    return StringDecomposition(tuple(strings), tuple(measures))


def is_reconstructible(
    system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[bool, tuple[float, np.ndarray] | None]:
    """Does every eigenmode of omega feel the coupling?

    Yes iff both decoupled parts of `coupled_parts` are trivial: a mode in
    h1d or h2d evolves identically in the system with the coupling
    removed, so no observation can pin it down.  On failure the witness is
    (eigenvalue, phase-fixed unit vector of the full space): the lowest
    eigenpair of omega on h1d + h2d, where omega is block-diagonal, so that
    of omega1 on h1d or of omega2 on h2d; on success it is None.
    """
    parts = coupled_parts(system, tol)
    if parts.h1d.dim == parts.h2d.dim == 0:
        return True, None
    frame = _block_basis(parts.h1d.frame, parts.h2d.frame)
    w, u = eigh(compress(system.omega, frame), tol)
    return False, (float(w[0]), _phase_fix(frame @ u[:, :1])[0][:, 0])
