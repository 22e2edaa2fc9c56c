"""Invariant-subspace structure of two-block conservative systems.

Everything here is driven by orbits: the smallest invariant subspace of
a Hermitian operator containing a seed set.  The coupled parts of a
system are the orbits of the coupling range on each side; their
complements are dynamically invisible.  Restricting to H1 + H2c gives
the smallest extension with the same friction kernel, restricting to
H1c + H2c gives the reconstructible core.  Strings slice the coupled
hidden space into multiplicity-one invariant pieces, and the
multiplicity of any coupled restriction is bounded by the coupling
rank.

Subspace conventions: `orbit` and `multiplicity` work in the ambient
space of the operator they are given.  All subspaces stored on result
types (CoupledParts, strings) live in the full space C^{n1+n2}, with
observable-side frames supported on the first n1 coordinates and
hidden-side frames on the last n2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import ConservativeSystem
from .numerics import (
    DEFAULT_TOLERANCES,
    Subspace,
    ToleranceConfig,
    _invariance_leak,
    _phase_fix,
    as_matrix,
    complement,
    compress,
    eigen_clusters,
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


def _seed_frame(seed) -> np.ndarray:
    if isinstance(seed, Subspace):
        return seed.frame
    frame = np.asarray(seed, dtype=np.complex128)
    if frame.ndim == 1:
        frame = frame[:, None]
    if frame.ndim != 2:
        raise ValidationError("seed must be a Subspace or a matrix of column vectors")
    return frame


def orbit(op, seed, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Subspace:
    """Smallest op-invariant subspace containing the seed vectors.

    Equals the span of the eigen-cluster projections of the seed: each
    cluster of the spectrum (merged at tau_eig_cluster relative to the
    spectral radius) contributes the projection of the seed onto its
    eigenspace.  Each part's rank is cut on the d_c x k coefficients
    V_c^H F, relative to the largest seed column norm.
    """
    a = as_matrix(op)
    n = a.shape[0]
    frame = _seed_frame(seed)
    if frame.shape[0] != n:
        raise ValidationError(f"seed ambient dim {frame.shape[0]} does not match operator dim {n}")
    if frame.shape[1] == 0 or not frame.any():
        return zero_subspace(n)
    _, v, clusters = eigen_clusters(a, tol)
    return _cluster_orbit(v, clusters, frame, tol)


def _cluster_orbit(v: np.ndarray, clusters, frame: np.ndarray, tol: ToleranceConfig) -> Subspace:
    """`orbit` of a nonzero seed, given the eigenvectors and clusters of the operator."""
    cut = tol.tau_rank * float(np.max(np.linalg.norm(frame, axis=0)))
    coefficients = v.conj().T @ frame
    pieces = [np.zeros((v.shape[0], 0), dtype=np.complex128)]
    for cl in clusters:
        c = coefficients[cl.start : cl.stop]
        if cl.dim == 1:  # a 1 x k row: its one singular value is its norm
            u, s = np.ones((1, 1)), np.linalg.norm(c, axis=1)
        else:
            u, s, _ = np.linalg.svd(c, full_matrices=False)
        keep = int(np.count_nonzero(s > cut))
        if keep:
            pieces.append(v[:, cl.start : cl.stop] @ u[:, :keep])
    return Subspace(v.shape[0], _phase_fix(np.hstack(pieces))[0])


def _embed(frame: np.ndarray, n1: int, n2: int, side: int) -> np.ndarray:
    """Pad an H1-side (side=1) or H2-side (side=2) frame to the full space."""
    full = np.zeros((n1 + n2, frame.shape[1]), dtype=np.complex128)
    if side == 1:
        full[:n1] = frame
    else:
        full[n1:] = frame
    return full


def _block_frame(sub: Subspace, n1: int, side: int) -> np.ndarray:
    """Inverse of _embed; checks the frame really is supported on one block."""
    other = sub.frame[n1:] if side == 1 else sub.frame[:n1]
    if other.size and max_abs(other) > 1e-9:
        raise ValidationError("subspace is not supported on a single block")
    return sub.frame[:n1] if side == 1 else sub.frame[n1:]


@dataclass(frozen=True)
class CoupledParts:
    """Coupled/decoupled split of both sides, in full-space coordinates.

    h1c is the orbit of Ran(coupling) under omega1, h2c the orbit of
    Ran(coupling^H) under omega2; h1d and h2d are the orthogonal
    complements within their blocks.  The decoupled parts never feel or
    feed the other side.
    """

    h1c: Subspace
    h1d: Subspace
    h2c: Subspace
    h2d: Subspace

    def __post_init__(self):
        dims = {s.ambient_dim for s in (self.h1c, self.h1d, self.h2c, self.h2d)}
        if len(dims) != 1:
            raise ValidationError("all four parts must share one ambient space")
        for a, b in ((self.h1c, self.h1d), (self.h2c, self.h2d)):
            if a.dim and b.dim and max_abs(a.frame.conj().T @ b.frame) > 1e-9:
                raise ValidationError("coupled and decoupled parts must be orthogonal")

    @property
    def ambient_dim(self) -> int:
        return self.h1c.ambient_dim


def coupled_parts(system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> CoupledParts:
    """Split each side into its coupled orbit and the decoupled remainder."""
    gamma = system.coupling
    h1c_block = orbit(system.omega1, orthonormal_basis(gamma, tol), tol)
    h2c_block = orbit(system.omega2, orthonormal_basis(gamma.conj().T, tol), tol) if system.n2 else zero_subspace(0)
    return _split_parts(system, h1c_block, h2c_block)


def _split_parts(system: ConservativeSystem, h1c_block: Subspace, h2c_block: Subspace) -> CoupledParts:
    """CoupledParts from the coupled orbits of each side, in block coordinates."""
    n1, n2 = system.n1, system.n2
    return CoupledParts(
        h1c=Subspace(n1 + n2, _embed(h1c_block.frame, n1, n2, 1)),
        h1d=Subspace(n1 + n2, _embed(complement(h1c_block).frame, n1, n2, 1)),
        h2c=Subspace(n1 + n2, _embed(h2c_block.frame, n1, n2, 2)),
        h2d=Subspace(n1 + n2, _embed(complement(h2c_block).frame, n1, n2, 2)),
    )


def four_block_residual(system: ConservativeSystem, parts: CoupledParts) -> float:
    """Largest entry of omega over the ten blocks that must vanish.

    In the ordered basis (h1d, h1c, h2c, h2d) the only blocks allowed to
    be nonzero are the four diagonal ones and the h1c/h2c coupling pair;
    a correct split drives everything else to zero.
    """
    n = system.dim
    if parts.ambient_dim != n:
        raise ValidationError("parts ambient does not match the system")
    order = (parts.h1d, parts.h1c, parts.h2c, parts.h2d)
    if sum(p.dim for p in order) != n:
        raise ValidationError("parts do not span the full space")
    basis = np.hstack([p.frame for p in order if p.dim]) if n else np.zeros((0, 0))
    t = basis.conj().T @ system.omega @ basis
    edges = np.cumsum([0] + [p.dim for p in order])
    allowed = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}
    worst = 0.0
    for i in range(4):
        for j in range(4):
            if (i, j) in allowed:
                continue
            block = t[edges[i] : edges[i + 1], edges[j] : edges[j + 1]]
            if block.size:
                worst = max(worst, max_abs(block))
    return worst


def _compress(system: ConservativeSystem, frame1: np.ndarray, frame2: np.ndarray) -> ConservativeSystem:
    """Restriction of the system to span(frame1) + span(frame2) (full-space frames)."""
    k1 = frame1.shape[1]
    basis = np.hstack([frame1, frame2]) if frame2.size else frame1
    return ConservativeSystem(k1, basis.shape[1] - k1, compress(system.omega, basis))


def minimal_subsystem(system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ConservativeSystem:
    """Restriction to H1 + h2c: the smallest extension with the same kernel."""
    parts = coupled_parts(system, tol)
    n1, n2 = system.n1, system.n2
    eye1 = _embed(np.eye(n1, dtype=np.complex128), n1, n2, 1)
    return _compress(system, eye1, parts.h2c.frame)


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
) -> tuple[int, list[tuple[float, int]]]:
    """Largest eigen-cluster dimension, with the per-cluster breakdown.

    With a subspace the operator is first compressed to it; the subspace
    must be invariant (leak checked against tau_residual times the
    operator norm) because compressing a non-invariant subspace produces
    spectra of nothing in particular.
    """
    a = as_matrix(op)
    if invariant_subspace is None:
        restricted = a
    else:
        if invariant_subspace.ambient_dim != a.shape[0]:
            raise ValidationError("subspace ambient does not match the operator")
        if invariant_subspace.dim == 0:
            return 0, []
        f = invariant_subspace.frame
        scale = float(np.linalg.norm(a, 2))
        residual = _invariance_leak(a, f)
        if residual > tol.tau_residual * max(scale, 1.0):
            raise ValidationError(
                f"subspace is not invariant: leak {residual:.3e} exceeds "
                f"{tol.tau_residual:.1e} * max(||op||, 1)"
            )
        restricted = compress(a, f)
    _, _, clusters = eigen_clusters(restricted, tol, vectors=False)
    if not clusters:
        return 0, []
    per = [(cl.value, cl.dim) for cl in clusters]
    return max(m for _, m in per), per


def _min_cluster_gap(per_cluster: list[tuple[float, int]]) -> float:
    values = [v for v, _ in per_cluster]
    if len(values) < 2:
        return math.inf
    return float(min(b - a for a, b in zip(values, values[1:])))


@dataclass(frozen=True)
class MultiplicityBoundReport:
    """Coupling-rank bounds on spectral multiplicity, with per-cluster slack."""

    coupling_rank: int
    mult_h1c: int
    mult_h2c: int
    mult_minimal: int
    per_cluster_h1c: tuple[tuple[float, int], ...]
    per_cluster_h2c: tuple[tuple[float, int], ...]
    per_cluster_minimal: tuple[tuple[float, int], ...]
    bound_h1c_ok: bool
    bound_h2c_ok: bool
    h1_fully_coupled: bool
    minimal_bound: int
    bound_minimal_ok: bool | None
    min_gap_h1c: float
    min_gap_h2c: float
    min_gap_minimal: float
    violations: tuple[str, ...]
    ok: bool

    def as_dict(self) -> dict:
        def gap(x: float):
            return None if math.isinf(x) else x

        def clusters(per, bound):
            return [
                {"value": v, "multiplicity": m, "slack": bound - m} for v, m in per
            ]

        return {
            "coupling_rank": self.coupling_rank,
            "h1_coupled": {
                "max_multiplicity": self.mult_h1c,
                "bound": self.coupling_rank,
                "ok": self.bound_h1c_ok,
                "clusters": clusters(self.per_cluster_h1c, self.coupling_rank),
                "min_cluster_gap": gap(self.min_gap_h1c),
            },
            "h2_coupled": {
                "max_multiplicity": self.mult_h2c,
                "bound": self.coupling_rank,
                "ok": self.bound_h2c_ok,
                "clusters": clusters(self.per_cluster_h2c, self.coupling_rank),
                "min_cluster_gap": gap(self.min_gap_h2c),
            },
            "minimal_extension": {
                "max_multiplicity": self.mult_minimal,
                "bound": self.minimal_bound,
                "bound_applies": self.h1_fully_coupled,
                "ok": self.bound_minimal_ok,
                "clusters": clusters(self.per_cluster_minimal, self.minimal_bound),
                "min_cluster_gap": gap(self.min_gap_minimal),
            },
            "violations": list(self.violations),
            "ok": self.ok,
        }


def check_multiplicity_bounds(
    system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> MultiplicityBoundReport:
    """Verify the coupling-rank multiplicity bounds on one system.

    The restriction of either internal operator to its coupled part has
    multiplicity at most rank(coupling); when the whole observable side
    is coupled, the minimal extension obeys
    mult <= min(n1, 2 rank(coupling)).  Violations indicate tolerance
    trouble (clusters merged or split wrongly), not new mathematics, so
    they are reported rather than raised.
    """
    n1, n2 = system.n1, system.n2
    rank = matrix_rank(system.coupling, tol)

    parts = coupled_parts(system, tol)
    f1c = _block_frame(parts.h1c, n1, 1)
    f2c = _block_frame(parts.h2c, n1, 2)
    m1, per1 = multiplicity(system.omega1, Subspace(n1, f1c), tol)
    m2, per2 = multiplicity(system.omega2, Subspace(n2, f2c), tol) if n2 else (0, [])

    eye1 = _embed(np.eye(n1, dtype=np.complex128), n1, n2, 1)
    min_frame = np.hstack([eye1, parts.h2c.frame]) if parts.h2c.dim else eye1
    m_min, per_min = multiplicity(system.omega, Subspace(n1 + n2, min_frame), tol)

    fully = parts.h1c.dim == n1
    minimal_bound = min(n1, 2 * rank)
    violations = []
    ok1 = m1 <= rank
    ok2 = m2 <= rank
    if not ok1:
        violations.append(f"mult(omega1 on h1c) = {m1} exceeds coupling rank {rank}")
    if not ok2:
        violations.append(f"mult(omega2 on h2c) = {m2} exceeds coupling rank {rank}")
    ok_min: bool | None = None
    if fully:
        ok_min = m_min <= minimal_bound
        if not ok_min:
            violations.append(
                f"mult(omega on minimal extension) = {m_min} exceeds min(n1, 2 rank) = {minimal_bound}"
            )
    return MultiplicityBoundReport(
        coupling_rank=rank,
        mult_h1c=m1,
        mult_h2c=m2,
        mult_minimal=m_min,
        per_cluster_h1c=tuple(per1),
        per_cluster_h2c=tuple(per2),
        per_cluster_minimal=tuple(per_min),
        bound_h1c_ok=ok1,
        bound_h2c_ok=ok2,
        h1_fully_coupled=fully,
        minimal_bound=minimal_bound,
        bound_minimal_ok=ok_min,
        min_gap_h1c=_min_cluster_gap(per1),
        min_gap_h2c=_min_cluster_gap(per2),
        min_gap_minimal=_min_cluster_gap(per_min),
        violations=tuple(violations),
        ok=not violations,
    )


@dataclass(frozen=True)
class StringDecomposition:
    """Multiplicity-one invariant slices of the coupled hidden space.

    String j collects the j-th orthonormal eigenvector of every
    eigen-cluster of omega2 restricted to h2c that is at least j+1
    dimensional.  Each string is invariant with simple spectrum, the
    strings are mutually orthogonal and sum to h2c, and their spectral
    contents are nested: every frequency present in string j+1 is
    present in string j.
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
    n1, n2 = system.n1, system.n2
    parts = coupled_parts(system, tol)
    f2c = _block_frame(parts.h2c, n1, 2)
    d = f2c.shape[1]
    if d == 0:
        return StringDecomposition((), ())
    _, u, clusters = eigen_clusters(compress(system.omega2, f2c), tol)
    depth = max(cl.stop - cl.start for cl in clusters)
    strings = []
    measures = []
    for j in range(depth):
        cols = [f2c @ u[:, cl.start + j] for cl in clusters if cl.stop - cl.start > j]
        content = tuple((cl.value, 1.0) for cl in clusters if cl.stop - cl.start > j)
        frame = _embed(np.column_stack(cols), n1, n2, 2)
        strings.append(Subspace(n1 + n2, frame))
        measures.append(content)
    return StringDecomposition(tuple(strings), tuple(measures))


def is_reconstructible(
    system: ConservativeSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[bool, tuple[float, np.ndarray] | None]:
    """Does every eigenmode of omega feel the coupling?

    The off-diagonal coupling part of omega must not annihilate any
    eigenvector: an annihilated mode evolves identically in the system
    with the coupling removed, so no observation can pin it down.  The
    verdict is equivalent to both decoupled parts being trivial.  On
    failure the witness is (eigenvalue, unit vector in the kernel
    intersection); on success it is None.
    """
    c = system.coupling_part
    c_scale = float(np.linalg.norm(system.coupling, 2))
    _, v, clusters = eigen_clusters(system.omega, tol)
    for cl in clusters:
        frame = v[:, cl.start : cl.stop]
        image = c @ frame
        _, s, vh = np.linalg.svd(image, full_matrices=False)
        rank = int(np.count_nonzero(s > tol.tau_rank * c_scale)) if c_scale > 0 else 0
        if rank < cl.stop - cl.start:
            null_combo = vh[-1].conj()
            witness = frame @ null_combo
            witness = witness / np.linalg.norm(witness)
            return False, (cl.value, witness)
    return True, None
