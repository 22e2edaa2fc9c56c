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

Matrices are plain complex ``numpy`` arrays; a ``Subspace`` is an
orthonormal frame together with its ambient dimension.  The cluster,
rank and PSD cuts that the structural verdicts rest on are made here,
each on the smallest matrix that carries it: `eigen_clusters`,
`matrix_rank` and `below_psd_cut` (`require_psd` raises on it).
`complement` makes no cut.
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
    """Relative tolerances used for validation, rank cuts and clustering.

    tau_herm       Hermitian symmetry check, relative to 1 + max|entry|.
    tau_orth       orthonormality check for frames.
    tau_rank       rank cuts in SVD / eigenvalue factorizations.
    tau_eig_cluster  gap threshold for merging eigenvalues into clusters.
    tau_residual   block / commutator / membership residual checks.
    """

    tau_herm: float = 1e-10
    tau_orth: float = 1e-10
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
        values = {k: float(v) for k, v in mapping.items()}
        for k, v in values.items():
            if not (v > 0.0) or not np.isfinite(v):
                raise ValidationError(f"tolerance {k} must be finite and positive, got {v}")
        return cls(**values)

    @classmethod
    def from_file(cls, path: str) -> "ToleranceConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValidationError("tolerance file must contain a JSON object")
        return cls.from_mapping(data)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOLERANCES = ToleranceConfig()


def as_matrix(values, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a read-only complex128 2-D array, validating shape."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    m = np.ascontiguousarray(m)
    m.flags.writeable = False
    return m


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def require_hermitian(m, tol: ToleranceConfig = DEFAULT_TOLERANCES, *, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m, square=True, name=name)
    defect = max_abs(m - m.conj().T)
    if defect > tol.tau_herm * (1.0 + max_abs(m)):
        raise ValidationError(f"{name} is not Hermitian: max asymmetry {defect:.3e}")
    return m


def _phase_fix(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each column so its first significant entry is real positive.

    Returns (fixed, phases) with columns == fixed * phases; the phase of
    a zero column is 1.
    """
    fixed = np.array(columns, dtype=np.complex128)
    phases = np.ones(fixed.shape[1], dtype=np.complex128)
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        mags = np.abs(col)
        top = mags.max() if mags.size else 0.0
        if top == 0.0:
            continue
        k = int(np.argmax(mags > 1e-12 * top))
        phases[j] = col[k] / abs(col[k])
        fixed[:, j] = col * np.conj(phases[j])
    return fixed, phases


def eigh(matrix, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, ascending eigenvalues, fixed phases.

    Returns (eigenvalues, vectors) with vectors[:, k] the k-th eigenvector.
    Raises ValidationError for non-Hermitian input, NumericError if the
    underlying iteration fails.
    """
    m = require_hermitian(matrix, tol)
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


def matrix_rank(matrix, tol: ToleranceConfig = DEFAULT_TOLERANCES, *, scale: float | None = None) -> int:
    """Numerical rank with the cut tau_rank * scale (scale defaults to sigma_max)."""
    m = as_matrix(matrix)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    return int(np.count_nonzero(s > tol.tau_rank * scale))


@dataclass(frozen=True)
class SpectralCluster:
    """Contiguous run of near-equal eigenvalues: indices [start, stop)."""

    start: int
    stop: int
    value: float

    @property
    def dim(self) -> int:
        return self.stop - self.start


def cluster_spectrum(eigenvalues, scale: float, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> list[SpectralCluster]:
    """Merge ascending eigenvalues into clusters by the gap rule.

    Consecutive values whose gap is <= tau_eig_cluster * scale belong to
    the same cluster; the representative value is the cluster mean.
    """
    w = np.asarray(eigenvalues, dtype=np.float64)
    if w.ndim != 1:
        raise ValidationError("eigenvalues must be a 1-D array")
    if w.size and np.any(np.diff(w) < 0):
        raise ValidationError("eigenvalues must be ascending")
    if scale < 0:
        raise ValidationError("scale must be nonnegative")
    clusters: list[SpectralCluster] = []
    threshold = tol.tau_eig_cluster * scale
    start = 0
    for i in range(1, w.size + 1):
        if i == w.size or (w[i] - w[i - 1]) > threshold:
            clusters.append(SpectralCluster(start, i, float(np.mean(w[start:i]))))
            start = i
    return clusters


def eigen_clusters(
    matrix, tol: ToleranceConfig, *, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None, list[SpectralCluster]]:
    """Spectrum of a Hermitian matrix grouped into eigen-clusters.

    Returns (eigenvalues, eigenvectors or None, clusters), merging at
    tau_eig_cluster times the spectral radius (0 for an empty matrix).
    With vectors=False only eigenvalues are computed and the input is
    not checked for Hermitian symmetry.
    """
    if vectors:
        w, v = eigh(matrix, tol)
    else:
        w, v = np.linalg.eigvalsh(matrix), None
    radius = float(np.max(np.abs(w))) if w.size else 0.0
    return w, v, cluster_spectrum(w, radius, tol)


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
        raise NotPositiveSemidefiniteError(f"{what}: min eigenvalue {w[0]:.6e}", min_eigenvalue=float(w[0]))


@dataclass(frozen=True)
class Subspace:
    """Orthonormal frame spanning a subspace of C^ambient_dim.

    frame has shape (ambient_dim, dim); dim may be zero.
    """

    ambient_dim: int
    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=np.complex128)
        if f.ndim != 2 or f.shape[0] != self.ambient_dim:
            raise ValidationError(
                f"frame shape {f.shape} inconsistent with ambient dim {self.ambient_dim}"
            )
        if f.shape[1] > self.ambient_dim:
            raise ValidationError("frame has more columns than the ambient dimension")
        gram_defect = max_abs(f.conj().T @ f - np.eye(f.shape[1]))
        if gram_defect > 1e-9:
            raise ValidationError(f"frame columns are not orthonormal: defect {gram_defect:.3e}")
        f = np.ascontiguousarray(f)
        f.flags.writeable = False
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

    Directions with singular value <= tau_rank times the largest column
    norm are discarded. Zero input (or an empty column list) yields the
    zero subspace.
    """
    m = np.asarray(columns, dtype=np.complex128)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValidationError("columns must form a 2-D array")
    n, k = m.shape
    if k == 0:
        return zero_subspace(n)
    if not np.all(np.isfinite(m)):
        raise ValidationError("columns have non-finite entries")
    scale = float(np.linalg.norm(m, axis=0).max())
    if scale == 0.0:
        return zero_subspace(n)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = int(np.count_nonzero(s > tol.tau_rank * scale))
    return Subspace(n, _phase_fix(u[:, :keep])[0])


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
    return max_abs(a.projector() - b.projector()) <= max(tol.tau_residual, 1e-10)
