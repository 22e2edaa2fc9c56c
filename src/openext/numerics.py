"""Deterministic dense linear algebra kernels and subspace arithmetic.

Everything downstream (extensions, decompositions, coupling analysis)
reduces to Hermitian eigenproblems, singular value decompositions and
orthonormal frames, so this module fixes the conventions once:

* eigenvalues ascending, singular values descending;
* every returned eigenvector / singular vector has its first
  significant component rotated to be real and positive, which makes
  repeated runs and serialized reports reproducible;
* rank and clustering decisions are made against an explicit
  ``ToleranceConfig`` rather than ad-hoc constants.

Matrices are plain complex ``numpy`` arrays, with one exception: `eigh`
keeps real symmetric input real (real orthogonal vectors, each with its
first significant entry made positive), so the real stiffness problems
of `hamiltonian` take LAPACK's real solver.  A ``Subspace`` is an
orthonormal frame together with its ambient dimension.  The merge,
Hermitian, rank and PSD cuts that the structural verdicts rest on are
made here, each on the smallest matrix that carries it:
`cluster_spectrum` (the only merge), `hermitian_defect`, `matrix_rank`
and `below_psd_cut` (`require_psd` raises on it).  `complement` makes
no cut.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import NotPositiveSemidefiniteError, NumericError, ValidationError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "Subspace",
    "SpectralCluster",
    "eigh",
    "svd",
    "matrix_rank",
    "cluster_spectrum",
    "orthonormal_basis",
    "subspaces_equal",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances, one per kind of verdict; each line names what reads it.

    tau_herm         read by `hermitian_defect` alone, the Hermitian rule of `require_hermitian`
                     (every `eigh`, a `QuadraticHamiltonian`'s stiffness), `validate` and `OpenSystem.from_mass_form`.
    tau_rank         every rank cut, by one of two rules: the frame rule, tau_rank * sigma_max of the matrix
                     cut (`matrix_rank`, `orthonormal_basis`, `channels`, `orbit` on an orthonormal seed's
                     coefficients, `fit`'s pencil); the atom rule, tau_rank * ||a(0)||_2, every hidden-side
                     cut (`measure_of`, `minimal_extension`, `fit`'s masses, `propagate_open`, and sqrt(tau_rank)
                     on the coupling's images in h2c, the canonical components and `decoupling_report`'s
                     splitting, and on the compressed blocks of `coupling_matrix`).  Also mass/stiffness
                     definiteness, and the refusal in `frozen_report` of a kept singular value of the
                     coupling vectors at most sqrt(tau_rank) s_0.
    tau_eig_cluster  read by `cluster_spectrum` alone, the merge rule of eigen-clusters, channel
                     groups, lattice multiplicities and atom frequencies (`PointMeasure.create`, `validate`).
    tau_residual     residual verdicts (invariance, the channel algebra's links, the decoupling masses,
                     `subspaces_equal`), PSD/MC cuts (among them `fit`'s gain verdict on the fitted
                     kernel's block Toeplitz form), certificates.
    """

    tau_herm: float = 1e-10
    tau_rank: float = 1e-9
    tau_eig_cluster: float = 1e-8
    tau_residual: float = 1e-9

    def replace(self, **kwargs: float) -> "ToleranceConfig":
        return replace(self, **kwargs)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ToleranceConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(mapping) - known
        if bad:
            raise ValidationError(f"unknown tolerance keys: {sorted(bad)}")
        for k, v in mapping.items():
            # JSON numbers only (a JSON true is a Python bool, an int subclass), compared
            # as Python numbers so that an integer past the float range fails, not overflows
            if type(v) not in (int, float) or not 0.0 < v <= np.finfo(float).max.item():
                raise ValidationError(f"tolerance {k} must be a finite positive number, got {v!r}")
        return cls(**{k: float(v) for k, v in mapping.items()})

    @classmethod
    def from_file(cls, path: str) -> "ToleranceConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to parse
                raise ValidationError(f"tolerance file {path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValidationError("tolerance file must contain a JSON object")
        return cls.from_mapping(data)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOLERANCES = ToleranceConfig()

# Bound of the construction-time structure checks (orthonormal frames, block support,
# Hermitian atom masses, uniform grids): invariants, not verdicts, so not a config field.
STRUCTURE_TOL = 1e-9

# Largest array, in complex entries, that `kernel` (steps x max(n1^2, n2): its samples and
# its phase table), `simulate` (grid points x dimension) and `fit` (its matrix-pencil Hankel
# and its Toeplitz form) form from their input; past it, BudgetError.
SIZE_BUDGET = 10_000_000


def as_matrix(values, *, square=False, name="matrix", dtype=np.complex128, own=False, ndim=2) -> np.ndarray:
    """The intake rule of every held array: coerce to dtype (complex128 unless told) with `ndim` axes (square:
    the last two equal), refuse non-finite entries, and return it contiguous and read-only, the caller's array
    left writeable.  Where it would share the caller's memory, a reader (own=False) gets a view, and a holder
    (own=True) a copy, unless the array is read-only down to the array that owns its memory: its owner has
    handed it over, and the holder keeps it."""
    m = np.asarray(values, dtype=dtype)
    if m.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {m.shape}")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    m = np.ascontiguousarray(m)
    if isinstance(values, np.ndarray) and np.may_share_memory(m, values):
        if not own:
            m = m.view()
        elif not _handed_over(m):
            m = m.copy()
    m.flags.writeable = False
    return m


def _handed_over(a: np.ndarray) -> bool:
    """Read-only down to the array that owns its memory, which its owner has frozen."""
    while not a.flags.writeable and isinstance(a.base, np.ndarray):
        a = a.base
    return not a.flags.writeable and a.base is None


def uniform_step(times: np.ndarray) -> float | None:
    """Step dt[0] of a grid whose steps all lie within STRUCTURE_TOL * dt[0] of it, else None."""
    dt = np.diff(times)
    return float(dt[0]) if dt.size and np.max(np.abs(dt - dt[0])) <= STRUCTURE_TOL * dt[0] else None


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def hermitian_defect(m: np.ndarray, tol: ToleranceConfig) -> float | None:
    """The Hermitian rule: max|m - m^H| when it exceeds tau_herm * (1 + max|m|), else None."""
    defect = max_abs(m - m.conj().T)
    return defect if defect > tol.tau_herm * (1.0 + max_abs(m)) else None


def require_hermitian(
    m, tol: ToleranceConfig = DEFAULT_TOLERANCES, *, name: str = "matrix", dtype=np.complex128
) -> np.ndarray:
    m = as_matrix(m, square=True, name=name, dtype=dtype)
    defect = hermitian_defect(m, tol)
    if defect is not None:
        raise ValidationError(f"{name} is not Hermitian: max asymmetry {defect:.3e}")
    return m


def _phase_fix(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each column so its first significant entry is real positive.

    Returns (fixed, phases) in the input's dtype (real phases are +-1),
    with columns == fixed * phases; the phase of a zero column is 1 and
    the column is left as it is.  The result is bitwise that of rotating
    column by column: each phase is a scalar division z / |z|, since
    numpy's vectorized complex divide can differ in the last bit, and the
    rotation is one out-of-place product with a (1, c) row, since the
    in-place broadcast takes another multiply loop on 1 x 1 input.
    """
    fixed = np.array(columns)
    phases = np.ones(fixed.shape[1], dtype=fixed.dtype)
    if fixed.size:
        mags = np.abs(fixed)
        top = mags.max(axis=0)
        cols = np.flatnonzero(top > 0.0)
        first = np.argmax(mags[:, cols] > 1e-12 * top[cols], axis=0)
        phases[cols] = [z / abs(z) for z in fixed[first, cols]]
        fixed[:, cols] = fixed[:, cols] * np.conj(phases[cols])[None, :]
    return fixed, phases


def eigh(matrix, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, ascending eigenvalues, fixed phases.

    Returns (eigenvalues, vectors) with vectors[:, k] the k-th eigenvector.
    Real input is solved as real symmetric: the vectors come back real,
    each with its first significant entry positive.  Raises
    ValidationError for non-Hermitian input, NumericError if the
    underlying iteration fails.
    """
    real = np.isrealobj(matrix)
    m = require_hermitian(matrix, tol, dtype=np.float64 if real else np.complex128)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigh did not converge: {exc}") from exc
    return w.astype(np.float64), _phase_fix(v)[0]


def svd(matrix, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD with descending singular values and fixed phases.

    The phase of each left vector is fixed and the compensating phase is
    applied to the matching right vector, so u @ diag(s) @ vh reproduces
    the input and repeated runs agree bitwise.
    """
    m = as_matrix(matrix)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"svd did not converge: {exc}") from exc
    u, phases = _phase_fix(u)
    return u, s.astype(np.float64), vh * phases[:, None]


def matrix_rank(matrix, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Numerical rank with the cut tau_rank * sigma_max (the frame rule)."""
    m = as_matrix(matrix)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol.tau_rank * s[0]))


@dataclass(frozen=True)
class SpectralCluster:
    """Contiguous run of near-equal eigenvalues: indices [start, stop)."""

    start: int
    stop: int
    value: float

    @property
    def dim(self) -> int:
        return self.stop - self.start


def cluster_spectrum(values, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> list[SpectralCluster]:
    """Merge ascending values into clusters by the gap rule, the package's only merge.

    Consecutive values whose gap is <= tau_eig_cluster * max|values|
    belong to the same cluster.  A one-member cluster takes its value as
    it is, a larger one the `np.mean` of its members.
    """
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 1:
        raise ValidationError("values to cluster must be a 1-D array")
    gaps = np.diff(w)
    if np.any(gaps < 0):
        raise ValidationError("values to cluster must be ascending")
    if not w.size:
        return []
    edges = [0, *(np.flatnonzero(gaps > tol.tau_eig_cluster * max_abs(w)) + 1).tolist(), w.size]
    starts, stops = edges[:-1], edges[1:]
    means = w[starts].tolist()
    for k in np.flatnonzero(np.subtract(stops, starts) > 1).tolist():
        means[k] = float(np.mean(w[starts[k] : stops[k]]))
    return [SpectralCluster(*c) for c in zip(starts, stops, means)]


def eigen_clusters(
    matrix, tol: ToleranceConfig, *, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None, list[SpectralCluster]]:
    """Spectrum of a Hermitian matrix grouped into eigen-clusters.

    Returns (eigenvalues, eigenvectors or None, clusters), merged by
    `cluster_spectrum`, so at tau_eig_cluster times the spectral radius.
    With vectors=False only eigenvalues are computed and the input is
    not checked for Hermitian symmetry.
    """
    if vectors:
        w, v = eigh(matrix, tol)
    else:
        w, v = np.linalg.eigvalsh(matrix), None
    return w, v, cluster_spectrum(w, tol)


def compress(op: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Hermitian part of frame^H op frame: op restricted to span(frame)."""
    m = frame.conj().T @ op @ frame
    return 0.5 * (m + m.conj().T)


def below_psd_cut(w: np.ndarray, tol: ToleranceConfig) -> bool:
    """Do ascending eigenvalues w fail the PSD cut w_min >= -tau_residual * max|w|?"""
    return bool(w.size and w[0] < -tol.tau_residual * max(abs(w[0]), abs(w[-1])))


def require_psd(w: np.ndarray, tol: ToleranceConfig, what: str) -> None:
    """Raise NotPositiveSemidefiniteError, led by `what`, when w fails `below_psd_cut`."""
    if below_psd_cut(w, tol):
        raise NotPositiveSemidefiniteError(f"{what}: min eigenvalue {w[0]:.6e}")


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal frame spanning a subspace of C^ambient_dim.

    frame has shape (ambient_dim, dim); dim may be zero.
    """

    ambient_dim: int
    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        f = as_matrix(self.frame, name="frame", own=True)
        if f.shape[0] != self.ambient_dim:
            raise ValidationError(f"frame shape {f.shape} inconsistent with ambient dim {self.ambient_dim}")
        if f.shape[1] > self.ambient_dim:
            raise ValidationError("frame has more columns than the ambient dimension")
        gram_defect = max_abs(f.conj().T @ f - np.eye(f.shape[1]))
        if gram_defect > STRUCTURE_TOL:
            raise ValidationError(f"frame columns are not orthonormal: defect {gram_defect:.3e}")
        object.__setattr__(self, "frame", f)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((n, 0), dtype=np.complex128))


def orthonormal_basis(columns, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Subspace:
    """Rank-revealing orthonormal basis of the column span.

    Directions with singular value <= tau_rank times the largest one are
    discarded, the cut of `matrix_rank`. Zero or empty input yields the
    zero subspace.
    """
    m = np.asarray(columns, dtype=np.complex128)
    m = as_matrix(m[:, None] if m.ndim == 1 else m, name="columns")
    if m.size == 0:
        return zero_subspace(m.shape[0])
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = int(np.count_nonzero(s > tol.tau_rank * s[0]))
    return Subspace(m.shape[0], _phase_fix(u[:, :keep])[0])


def complement(sub: Subspace) -> Subspace:
    """Orthonormal complement of sub: the trailing n - k columns of a
    complete Householder QR of its frame, phase-fixed (the identity when
    sub is empty).  No rank cut, and it moves continuously with the frame.
    """
    n = sub.ambient_dim
    if sub.dim == 0:
        return Subspace(n, np.eye(n, dtype=np.complex128))
    q = np.linalg.qr(sub.frame, mode="complete")[0]
    return Subspace(n, _phase_fix(q[:, sub.dim :])[0])


def _invariance_leak(op: np.ndarray, frame: np.ndarray) -> float:
    """||op F - F (F^H op F)||_2, which is ||[F F^H, op]||_2 for Hermitian op."""
    image = op @ frame
    return float(np.linalg.norm(image - frame @ (frame.conj().T @ image), 2))


def subspaces_equal(a: Subspace, b: Subspace, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValidationError(
            f"subspaces live in different ambient spaces: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.dim != b.dim:
        return False
    return max_abs(a.projector() - b.projector()) <= tol.tau_residual
