"""Time propagation for conservative and open systems.

The conservative propagator works in the eigenbasis of the frequency
operator, advancing each mode with its exact phase and integrating the
forcing with a piecewise-linear-exact quadrature, so unforced runs are
unitary to rounding and forced runs carry no step-size error beyond the
linear interpolation of the forcing between grid points.  Written in
closed form, each mode coefficient is its phase times a cumulative sum
of phase-weighted forcing increments, so the whole grid is evaluated
with array operations in fixed-size blocks of steps.

The open propagator integrates

    v'(t) = -i omega1 v(t) - int_0^t a(tau) v(t - tau) dtau + f(t)

from rest with an explicit midpoint step; the memory integral uses
composite trapezoid over the stored history.  Because the kernel is a
finite sum of exponentials e^{-i w_k t} N_k, the history enters only
through the sums sigma_k(t_j) = sum_{l<=j} e^{-i w_k (t_j - t_l)} v_l,
which obey sigma_k <- e^{-i w_k h} sigma_k + v.  On a uniform grid the
midpoint step is then a constant linear map of (v, sigma_1..sigma_K)
plus a forcing input: one matrix-vector product per step instead of
O(history) work.

Both trajectories are compared by `equivalence_residual`: driving the
extension with a forcing supported on the observable block and
projecting must agree with driving the open system directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .extension import measure_of
from .model import ConservativeSystem, OpenSystem
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig, eigh

__all__ = [
    "Trajectory",
    "propagate_conservative",
    "propagate_open",
    "equivalence_residual",
    "forcing_step",
    "forcing_pulse",
    "forcing_sine",
    "sample_forcing",
]

# Largest trajectory the command line propagates, in state entries
# (grid points x dimension): each (T, dim) complex array costs 16 bytes
# per entry, and a run holds a few of them.
SIMULATE_SIZE_BUDGET = 10_000_000

# Steps per block of the conservative closed form.  It bounds the
# temporaries to a few (block x dim) arrays whatever the grid length.
_CONSERVATIVE_BLOCK = 128


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: states[j] is the state at times[j]."""

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64).reshape(-1)
        s = np.asarray(self.states, dtype=np.complex128)
        if s.ndim != 2 or s.shape[0] != t.size:
            raise ValidationError("states must be one row per time")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValidationError("times must be strictly ascending")
        if not np.all(np.isfinite(s)):
            raise NumericError(
                "trajectory has non-finite states: the integration diverged (decrease the time step)"
            )
        t.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def forcing_step(direction, t_on: float = 0.0):
    """Constant forcing along `direction`, switched on at t_on."""
    d = np.asarray(direction, dtype=np.complex128).reshape(-1)
    return lambda t: d if t >= t_on else np.zeros_like(d)


def forcing_pulse(direction, t_on: float, t_off: float):
    """Forcing along `direction` during [t_on, t_off)."""
    if not t_off > t_on:
        raise ValidationError("pulse needs t_off > t_on")
    d = np.asarray(direction, dtype=np.complex128).reshape(-1)
    return lambda t: d if t_on <= t < t_off else np.zeros_like(d)


def forcing_sine(direction, frequency: float, t_on: float = 0.0):
    """sin(frequency * (t - t_on)) along `direction` for t >= t_on."""
    d = np.asarray(direction, dtype=np.complex128).reshape(-1)
    return lambda t: np.sin(frequency * (t - t_on)) * d if t >= t_on else np.zeros_like(d)


def sample_forcing(forcing, times: np.ndarray, dim: int) -> np.ndarray:
    """Normalize a forcing (None, callable, or samples) to a (T, dim) array."""
    if forcing is None:
        return np.zeros((times.size, dim), dtype=np.complex128)
    if callable(forcing):
        out = np.empty((times.size, dim), dtype=np.complex128)
        for j, t in enumerate(times):
            row = np.asarray(forcing(float(t)), dtype=np.complex128).reshape(-1)
            if row.size != dim:
                raise ValidationError(f"forcing returned dimension {row.size}, expected {dim}")
            out[j] = row
        return out
    arr = np.asarray(forcing, dtype=np.complex128)
    if arr.shape != (times.size, dim):
        raise ValidationError(f"forcing samples must have shape {(times.size, dim)}, got {arr.shape}")
    return arr


def _check_grid(grid) -> np.ndarray:
    t = np.asarray(grid, dtype=np.float64).reshape(-1)
    if t.size < 1:
        raise ValidationError("empty time grid")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValidationError("time grid must be strictly ascending")
    return t


def _phi_coefficients(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact forcing-quadrature weights for one step of length dt.

    For a mode with eigenvalue w and theta = w dt, the integral of
    e^{-i w (dt - s)} (f0 + (f1 - f0) s / dt) ds over the step equals
    dt (phi0 f0 + phi1 (f1 - f0)).  Series branch guards small theta.
    """
    theta = np.asarray(theta, dtype=np.float64)
    small = np.abs(theta) < 1e-5
    safe = np.where(small, 1.0, theta)
    e = np.exp(-1j * safe)
    phi0_exact = (1.0 - e) / (1j * safe)
    phi1_exact = phi0_exact - (phi0_exact - e) / (1j * safe)
    phi0_series = 1.0 - 1j * theta / 2.0 - theta**2 / 6.0 + 1j * theta**3 / 24.0
    phi1_series = 0.5 - 1j * theta / 6.0 - theta**2 / 24.0 + 1j * theta**3 / 120.0
    return np.where(small, phi0_series, phi0_exact), np.where(small, phi1_series, phi1_exact)


def propagate_conservative(
    system: ConservativeSystem,
    v0,
    forcing,
    grid,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> Trajectory:
    """Evolve dv/dt = -i omega v + F(t) in the eigenbasis of omega.

    Exact for forcing that is linear between grid points; in particular
    unforced evolution is a pure phase per mode and conserves the norm.
    """
    times = _check_grid(grid)
    n = system.dim
    v0 = np.asarray(v0, dtype=np.complex128).reshape(-1)
    if v0.size != n:
        raise ValidationError(f"initial state has dimension {v0.size}, expected {n}")
    f = sample_forcing(forcing, times, n)

    w, basis = eigh(system.omega, tol)
    ft = f @ basis.conj()
    dts = np.diff(times)
    states = np.empty((times.size, n), dtype=np.complex128)
    states[0] = v0
    # Mode coefficients c_j = P_j (c_0 + sum_{l<j} P_{l+1}^* g_l), where
    # P_j = e^{-i w (t_j - t_0)} and g_l is the exact quadrature increment
    # of step l; `rotated` carries the bracket from block to block.
    rotated = basis.conj().T @ v0
    for a in range(0, dts.size, _CONSERVATIVE_BLOCK):
        b = min(a + _CONSERVATIVE_BLOCK, dts.size)
        dt = dts[a:b, None]
        phi0, phi1 = _phi_coefficients(w * dt)
        g = dt * (phi0 * ft[a:b] + phi1 * (ft[a + 1 : b + 1] - ft[a:b]))
        phase = np.exp(-1j * np.outer(times[a + 1 : b + 1] - times[0], w))
        block = rotated + np.cumsum(phase.conj() * g, axis=0)
        rotated = block[-1]
        states[a + 1 : b + 1] = (phase * block) @ basis.T

    forced = bool(np.any(f != 0))
    if forced:
        drift = None
    else:
        norms = np.linalg.norm(states, axis=1)
        ref = max(float(norms[0]), 1e-300)
        drift = float(np.max(np.abs(norms - norms[0])) / ref)
    uniform = dts.size == 0 or np.max(np.abs(dts - dts[0])) <= 1e-9 * dts[0]
    return Trajectory(
        times,
        states,
        {
            "scheme": "eigenbasis",
            "dt": float(dts[0]) if uniform and dts.size else None,
            "norm_drift": drift,
        },
    )


def propagate_open(
    open_system: OpenSystem,
    f1,
    grid,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> Trajectory:
    """Integrate the open system from rest on a uniform grid.

    Explicit midpoint on the local part; the memory convolution is a
    composite trapezoid over the stored history.  The history enters
    through one decaying sum per kernel atom,
    sigma_k(t_j) = sum_{l<=j} e^{-i w_k (t_j - t_l)} v_l, which is
    algebraically identical to re-evaluating the kernel at every lag.
    Each step is then one product of a constant n x n(K+1) matrix with
    (v, sigma_1..sigma_K) plus the step's forcing input, followed by
    sigma_k <- e^{-i w_k h} sigma_k + v.  Second order: halving the
    step shrinks the error about fourfold.
    """
    times = _check_grid(grid)
    if times.size < 2:
        raise ValidationError("open propagation needs at least two grid points")
    dts = np.diff(times)
    h = float(dts[0])
    if np.max(np.abs(dts - h)) > 1e-9 * h:
        raise ValidationError("open propagation requires a uniform grid")
    n = open_system.dim
    f = sample_forcing(f1, times, n)
    if callable(f1):
        f_mid = sample_forcing(f1, times[:-1] + h / 2.0, n)
    else:
        f_mid = 0.5 * (f[:-1] + f[1:])

    atoms = open_system.kernel.atoms
    freqs = np.array([a.frequency for a in atoms], dtype=np.float64)
    masses = [a.mass for a in atoms]
    half = np.exp(-0.5j * h * freqs)
    eye = np.eye(n, dtype=np.complex128)
    a0 = sum(masses, np.zeros((n, n), dtype=np.complex128))
    a_half = sum((e * m for e, m in zip(half, masses)), np.zeros((n, n), dtype=np.complex128))
    local = -1j * open_system.omega1
    # node stage: u = u_v v - (h^2/2) sum_k N_k sigma_k + (h/2) f_j, the
    # trapezoid's half weight on the newest sample folded into u_v
    u_v = eye + 0.5 * h * local + 0.25 * h * h * a0
    # midpoint stage: v' = (I + (h^2/4) a(h/2)) v
    #   - h^2 sum_k e^{-i w_k h/2} N_k sigma_k + from_u u + h f_mid_j
    from_u = h * local - 0.25 * h * h * a0
    step = np.hstack(
        [eye + 0.25 * h * h * a_half + from_u @ u_v]
        + [-h * h * (e * m) - 0.5 * h * h * (from_u @ m) for e, m in zip(half, masses)]
    )
    drive = f[:-1] @ (0.5 * h * from_u).T + h * f_mid
    decay = np.exp(-1j * h * freqs)[:, None]

    states = np.zeros((times.size, n), dtype=np.complex128)
    # x = [v; sigma_1; ...; sigma_K], all zero at rest
    x = np.zeros((len(atoms) + 1, n), dtype=np.complex128)
    flat = x.reshape(-1)
    sigma = x[1:]
    for j in range(times.size - 1):
        v = np.add(step @ flat, drive[j], out=states[j + 1])
        sigma *= decay
        sigma += v
        x[0] = v

    return Trajectory(
        times,
        states,
        {"scheme": "explicit-midpoint", "dt": h, "norm_drift": None},
    )


def equivalence_residual(
    system: ConservativeSystem,
    f1,
    grid,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> float:
    """max_t || P1 V(t) - v1(t) || between extension and open dynamics.

    The extension is driven from rest by the forcing embedded in the
    observable block and projected back; the open system is driven by
    the same forcing with the kernel measure extracted from the
    extension.  Agreement is limited by the open integrator's step
    error.
    """
    times = _check_grid(grid)
    n1 = system.n1
    # both schemes must integrate the same piecewise-linear interpolant,
    # so a callable is sampled once and passed as values to each
    f_obs = sample_forcing(f1, times, n1)
    full = np.zeros((times.size, system.dim), dtype=np.complex128)
    full[:, :n1] = f_obs
    conservative = propagate_conservative(system, np.zeros(system.dim), full, times, tol)

    open_sys = OpenSystem(n1, system.omega1, measure_of(system, tol))
    open_traj = propagate_open(open_sys, f_obs, times, tol)

    diff = conservative.states[:, :n1] - open_traj.states
    return float(np.max(np.linalg.norm(diff, axis=1)))
