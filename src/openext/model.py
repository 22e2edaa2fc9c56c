"""Domain types: conservative systems, point spectral measures, open systems.

A conservative system is a Hermitian frequency operator on
C^n1 (+) C^n2 stored as one block matrix

    omega = [[omega1, coupling], [coupling^H, omega2]],

where the first block carries the observable variables and the second
the hidden ones.  A point measure is one ascending frequency vector and
one stack of Hermitian masses, describing a friction kernel
a(t) = sum_k exp(-i w_k t) N_k, and an open system pairs an observable
frequency operator with such a kernel.  Construction enforces structural
invariants (shapes, Hermitian symmetry of the stored blocks, ascending
frequencies); definiteness of the masses is a semantic property reported
by :func:`validate` and by the dissipation checker rather than a
construction-time requirement, so that invalid measures can still be
represented and diagnosed.

Systems with a nontrivial mass operator enter through
:meth:`OpenSystem.from_mass_form`, which applies the standard rescaling
v -> m^(1/2) v and normalizes the mass to the identity.  Instantaneous
(delta-like) friction is rejected: it corresponds to an unbounded
coupling and is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import UnboundedCouplingError, ValidationError
from .numerics import (
    DEFAULT_TOLERANCES,
    STRUCTURE_TOL,
    ToleranceConfig,
    as_matrix,
    below_psd_cut,
    cluster_spectrum,
    eigh,
    hermitian_defect,
    max_abs,
    require_hermitian,
)

__all__ = [
    "ConservativeSystem",
    "PointMeasure",
    "OpenSystem",
    "validate",
    "Violation",
    "ValidationReport",
]


@dataclass(frozen=True, eq=False)
class ConservativeSystem:
    """Two-block conservative system (n1 observable + n2 hidden variables)."""

    n1: int
    n2: int
    omega: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n1 < 1:
            raise ValidationError("n1 must be at least 1")
        if self.n2 < 0:
            raise ValidationError("n2 must be nonnegative")
        m = as_matrix(self.omega, square=True, name="omega", own=True)
        if m.shape[0] != self.n1 + self.n2:
            raise ValidationError(
                f"omega has size {m.shape[0]}, expected n1 + n2 = {self.n1 + self.n2}"
            )
        object.__setattr__(self, "omega", m)

    @property
    def dim(self) -> int:
        return self.n1 + self.n2

    @cached_property
    def _omega_norm(self) -> float:
        """||omega||_2, the residual scale of every S-invariance test on this
        system; omega is read-only, so its 2-norm SVD runs once."""
        return float(np.linalg.norm(self.omega, 2))

    @cached_property
    def _coupling_norm(self) -> float:
        """||Gamma||_2, the scale of every hidden-side cut (0 without a hidden side)."""
        return float(np.linalg.norm(self.coupling, 2)) if self.n2 else 0.0

    @cached_property
    def _coupled_parts(self) -> dict:
        """`decomposition.coupled_parts` of this system per ToleranceConfig, filled there:
        omega is read-only, so each split is computed once and its callers share it."""
        return {}

    def _kernel_size(self) -> float:
        """||a(0)||_2 = ||Gamma||_2^2, the size of the kernel; ValidationError where it overflows."""
        if (size := self._coupling_norm * self._coupling_norm) == np.inf:
            raise ValidationError(f"coupling norm {self._coupling_norm:.3e}: its square, the kernel's size, overflows")
        return size

    @property
    def omega1(self) -> np.ndarray:
        return self.omega[: self.n1, : self.n1]

    @property
    def omega2(self) -> np.ndarray:
        return self.omega[self.n1 :, self.n1 :]

    @property
    def coupling(self) -> np.ndarray:
        """Top-right block mapping hidden to observable variables."""
        return self.omega[: self.n1, self.n1 :]

    @property
    def coupling_part(self) -> np.ndarray:
        """Off-diagonal part of omega (internal blocks zeroed)."""
        out = self.omega.copy()
        out[: self.n1, : self.n1] = out[self.n1 :, self.n1 :] = 0.0
        return out


@dataclass(frozen=True, eq=False)
class PointMeasure:
    """Finite point measure on the real frequency line with matrix masses.

    Atom k sits at frequencies[k] (a read-only float64 vector, strictly
    increasing) with mass masses[k] (a read-only complex128 stack of shape
    (K, dim, dim)).  The stack holds each mass's Hermitian part, stored by
    as_matrix's rule: a copy of the caller's writeable stack, while a
    complex128 stack already read-only down to its owner, every mass
    exactly Hermitian, is kept, bits and buffer.  A mass further than
    STRUCTURE_TOL from Hermitian is rejected.
    """

    dim: int
    frequencies: np.ndarray = field(default=(), repr=False)
    masses: np.ndarray = field(default=(), repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("measure dimension must be at least 1")
        freqs = as_matrix(self.frequencies, name="atom frequencies", dtype=np.float64, own=True, ndim=1)
        if np.any(np.diff(freqs) <= 0):
            raise ValidationError("atom frequencies must be strictly increasing")
        masses = self.masses if np.size(self.masses) else np.zeros((0, self.dim, self.dim))
        masses = as_matrix(masses, name="atom masses", own=True, ndim=3)
        if masses.shape != (freqs.size, self.dim, self.dim):
            raise ValidationError(f"masses have shape {masses.shape}, expected {(freqs.size, self.dim, self.dim)}")
        # the Hermitian check goes atom by atom, so that it makes no complex temporary of the
        # stack's size (as_matrix's finiteness test makes a boolean one)
        inexact = []
        for k, mass in enumerate(masses):
            defect = max_abs(mass - mass.conj().T)
            if defect > STRUCTURE_TOL * (1.0 + max_abs(mass)):
                raise ValidationError(f"atom mass is not Hermitian: defect {defect:.3e}")
            if defect:
                inexact.append(k)
        if inexact:  # their Hermitian parts go into the stack as_matrix made, or a copy of the one it kept
            if isinstance(self.masses, np.ndarray) and np.may_share_memory(masses, self.masses):
                masses = masses.copy()
            masses.flags.writeable = True
            for k in inexact:
                masses[k] = 0.5 * (masses[k] + masses[k].conj().T)
            masses.flags.writeable = False
            if not np.all(np.isfinite(masses[inexact])):
                raise ValidationError("the Hermitian part of an atom mass overflows")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def create(
        cls,
        dim: int,
        atoms,
        tol: ToleranceConfig = DEFAULT_TOLERANCES,
    ) -> "PointMeasure":
        """Normalize raw (frequency, mass) pairs into a measure.

        Exactly-zero masses are dropped and the atoms sorted by frequency
        (stably).  Atoms that `cluster_spectrum` merges, gaps at most
        tau_eig_cluster * max|frequency|, become one atom at the cluster
        mean whose mass is their sum, taken in atom order.
        """
        pairs = [(float(f), as_matrix(m, square=True, name="mass")) for f, m in atoms]
        pairs = sorted(((f, m) for f, m in pairs if max_abs(m) > 0.0), key=lambda p: p[0])
        for _, m in pairs:
            if m.shape[0] != dim:
                raise ValidationError(f"atom mass has size {m.shape[0]}, measure dimension is {dim}")
        freqs = np.array([f for f, _ in pairs])
        if not np.all(np.isfinite(freqs)):
            raise ValidationError("atom frequencies must be finite")
        masses = [m for _, m in pairs]
        clusters = cluster_spectrum(freqs, tol)
        return cls(
            dim,
            [c.value for c in clusters],
            [sum(masses[c.start + 1 : c.stop], masses[c.start]) for c in clusters],
        )

    def total_mass(self) -> np.ndarray:
        """Sum of the atom masses, the kernel value at t = 0, accumulated in atom order:
        numpy's reductions may pair terms differently (they do for 1 x 1 masses)."""
        return sum(self.masses, np.zeros((self.dim, self.dim), dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class OpenSystem:
    """Observable frequency operator plus a friction kernel measure."""

    dim: int
    omega1: np.ndarray = field(repr=False)
    kernel: PointMeasure = field(default=None)

    def __post_init__(self):
        m = as_matrix(self.omega1, square=True, name="omega1", own=True)
        if m.shape[0] != self.dim:
            raise ValidationError(f"omega1 has size {m.shape[0]}, expected {self.dim}")
        if self.kernel is None:
            object.__setattr__(self, "kernel", PointMeasure(self.dim))
        if self.kernel.dim != self.dim:
            raise ValidationError(
                f"kernel dimension {self.kernel.dim} does not match system dimension {self.dim}"
            )
        object.__setattr__(self, "omega1", m)

    @classmethod
    def from_mass_form(
        cls,
        mass,
        a_operator,
        kernel: PointMeasure,
        a_inf=None,
        tol: ToleranceConfig = DEFAULT_TOLERANCES,
    ) -> "OpenSystem":
        """Normalize m dv/dt = -i A v - (a * v) + f to unit mass.

        mass may be a positive vector (diagonal mass) or a positive
        definite Hermitian matrix.  The rescaling v -> m^(1/2) v maps
        A to m^(-1/2) A m^(-1/2) and every kernel mass the same way.
        A nonzero instantaneous friction coefficient a_inf is rejected.
        """
        if a_inf is not None and max_abs(np.atleast_2d(np.asarray(a_inf, dtype=np.complex128))) > 0.0:
            raise UnboundedCouplingError("unbounded coupling unsupported: instantaneous friction term")
        m = np.asarray(mass, dtype=np.complex128)
        if m.ndim == 1:
            m = np.diag(m)
        m = require_hermitian(m, tol, name="mass")
        w, v = eigh(m, tol)
        if w.size == 0 or w[0] <= tol.tau_rank * max(w[-1], 0.0) or w[0] <= 0.0:
            raise ValidationError("mass operator must be positive definite")
        inv_root = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
        a = require_hermitian(a_operator, tol, name="a_operator")
        if a.shape != m.shape:
            raise ValidationError("mass and a_operator must have the same shape")
        if kernel.dim != m.shape[0]:
            raise ValidationError("kernel dimension does not match the mass operator")
        omega1 = inv_root @ a @ inv_root
        omega1 = 0.5 * (omega1 + omega1.conj().T)
        masses = inv_root @ kernel.masses @ inv_root
        scaled = PointMeasure.create(kernel.dim, zip(kernel.frequencies, masses), tol)
        return cls(m.shape[0], omega1, scaled)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _hermitian_violations(m: np.ndarray, name: str, tol: ToleranceConfig) -> list[Violation]:
    defect = hermitian_defect(m, tol)
    return [] if defect is None else [Violation("not_hermitian", f"{name} is not Hermitian", defect)]


def _validate_measure(measure: PointMeasure, tol: ToleranceConfig) -> list[Violation]:
    out: list[Violation] = []
    freqs = measure.frequencies.tolist()
    for c in cluster_spectrum(measure.frequencies, tol):
        for f1, f2 in zip(freqs[c.start : c.stop - 1], freqs[c.start + 1 : c.stop]):
            out.append(
                Violation(
                    "atoms_too_close",
                    f"frequencies {f1} and {f2} are closer than the cluster tolerance",
                    f2 - f1,
                )
            )
    eigs = np.linalg.eigvalsh(measure.masses)
    for k, (f, w) in enumerate(zip(freqs, eigs)):
        if not measure.masses[k].any():
            out.append(Violation("zero_mass", f"atom {k} has zero mass", 0.0))
        elif below_psd_cut(w, tol):
            out.append(
                Violation(
                    "mass_not_psd",
                    f"atom {k} (frequency {f}) has min eigenvalue {w[0]:.6e}",
                    float(w[0]),
                )
            )
    return out


def validate(obj, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ValidationReport:
    """Check semantic invariants and return a report of violations.

    Accepts a ConservativeSystem, PointMeasure or OpenSystem.
    """
    if isinstance(obj, ConservativeSystem):
        return ValidationReport("conservative_system", tuple(_hermitian_violations(obj.omega, "omega", tol)))
    if isinstance(obj, PointMeasure):
        return ValidationReport("point_measure", tuple(_validate_measure(obj, tol)))
    if isinstance(obj, OpenSystem):
        out = _hermitian_violations(obj.omega1, "omega1", tol) + _validate_measure(obj.kernel, tol)
        return ValidationReport("open_system", tuple(out))
    raise ValidationError(f"cannot validate object of type {type(obj).__name__}")
