"""Time propagation for conservative and open systems.

The conservative propagator works in the eigenbasis of the frequency
operator, advancing each mode with its exact phase and integrating the
forcing with a piecewise-linear-exact quadrature, so unforced runs are
unitary to rounding and forced runs carry no step-size error beyond the
linear interpolation of the forcing between grid points.  Written in
closed form, each mode coefficient is its phase times a cumulative sum
of phase-weighted forcing increments, so the whole grid is evaluated
with array operations in fixed-size blocks of steps.  The quadrature
weights phi0, phi1 depend on w dt alone: they are tabulated once per
distinct step length and mode, from their Taylor series for |w dt| <= 1
and their closed forms above, which makes them accurate to rounding for
every w dt.

The open propagator integrates

    v'(t) = -i omega1 v(t) - int_0^t a(tau) v(t - tau) dtau + f(t)

from rest with an explicit midpoint step; the memory integral uses
composite trapezoid over the stored history.  Because the kernel is a
finite sum of exponentials e^{-i w_k t} N_k, the history enters only
through the sums sigma_k(t_j) = sum_{l<=j} e^{-i w_k (t_j - t_l)} v_l,
which obey sigma_k <- e^{-i w_k h} sigma_k + v.  Carried on each mass's
range (tau_k = R_k^H sigma_k for N_k = L_k R_k^H, eigenpairs at or below
tau_rank * ||a(0)||_2 cut, the atom rule of `minimal_extension`), the
midpoint step is a constant linear map of a state of dimension
n + sum_k rank N_k, a diagonal plus a rank-n part, applied as a block
scan in about 2 sqrt(steps) Python iterations; `propagate_open` gives
the scan, its cost and the bound of the cut.

Both trajectories are compared by `equivalence_residual`: driving the
extension with a forcing supported on the observable block and
projecting must agree with driving the open system directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .extension import measure_of
from .model import ConservativeSystem, OpenSystem
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix, eigh, uniform_step

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

# Steps per block of the conservative closed form.  It bounds the
# temporaries to a few (block x dim) arrays whatever the grid length; the
# phi table beside them has (distinct steps x dim) entries: a few rows on
# a uniform grid, the size of the forcing samples where all steps differ.
_CONSERVATIVE_BLOCK = 128


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: states[j] is the state at times[j]."""

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = as_matrix(np.reshape(self.times, -1), name="trajectory times", dtype=np.float64, own=True, ndim=1)
        try:
            s = as_matrix(self.states, name="trajectory states", own=True)
        except ValidationError:  # non-finite states are a diverged integration, not bad input
            if np.all(np.isfinite(self.states)):
                raise
            raise NumericError("trajectory has non-finite states: the integration diverged "
                               "(decrease the time step)") from None
        if s.shape[0] != t.size:
            raise ValidationError("states must be one row per time")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValidationError("times must be strictly ascending")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _column(t) -> np.ndarray:
    """Times as a column: a forcing of a time array t is then the (T, dim)
    array of its vectors at t (one vector for a scalar t)."""
    return np.asarray(t, dtype=np.float64)[..., None]


def forcing_step(direction, t_on: float = 0.0):
    """Constant forcing along `direction`, switched on at t_on."""
    return forcing_pulse(direction, t_on, np.inf)


def forcing_pulse(direction, t_on: float, t_off: float):
    """Forcing along `direction` during [t_on, t_off)."""
    if not t_off > t_on:
        raise ValidationError("pulse needs t_off > t_on")
    d = np.asarray(direction, dtype=np.complex128).reshape(-1)
    return lambda t: np.where((t_on <= _column(t)) & (_column(t) < t_off), d, 0.0)


def forcing_sine(direction, frequency: float, t_on: float = 0.0):
    """sin(frequency * (t - t_on)) along `direction` for t >= t_on."""
    d = np.asarray(direction, dtype=np.complex128).reshape(-1)
    return lambda t: np.where(_column(t) >= t_on, np.sin(frequency * (_column(t) - t_on)) * d, 0.0)


def sample_forcing(forcing, times: np.ndarray, dim: int) -> np.ndarray:
    """Normalize a forcing (None, a function of the time array, or samples)
    to a (T, dim) array; a function is called once, on the whole grid."""
    if forcing is None:
        return np.zeros((times.size, dim), dtype=np.complex128)
    arr = np.asarray(forcing(times) if callable(forcing) else forcing, dtype=np.complex128)
    if arr.shape != (times.size, dim):
        raise ValidationError(f"forcing samples have shape {arr.shape}, expected {(times.size, dim)}")
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
    dt (phi0 f0 + phi1 (f1 - f0)), where
    phi_j = int_0^1 u^j e^{-i theta (1 - u)} du = sum_k (-i theta)^k / (k + j + 1)!.

    The closed forms phi0 = (1 - e) / (i theta) and
    phi1 = phi0 - (phi0 - e) / (i theta), e = e^{-i theta}, cancel as
    theta shrinks, so for |theta| <= 1 phi1 is its series by Horner in
    19 terms (the first dropped term is at most 1/21!) and
    phi0 = 1 - i theta phi1; both are then accurate to rounding for
    every theta.  Elementwise: `propagate_conservative` calls it on a
    table of one row per distinct step length.
    """
    theta = np.asarray(theta, dtype=np.float64)
    small = np.abs(theta) <= 1.0
    safe = np.where(small, 1.0, theta)
    e = np.exp(-1j * safe)
    phi0_exact = (1.0 - e) / (1j * safe)
    phi1_exact = phi0_exact - (phi0_exact - e) / (1j * safe)
    z = -1j * np.where(small, theta, 0.0)
    phi1_series = np.full(theta.shape, 1.0 / math.factorial(20), dtype=np.complex128)
    for k in range(17, -1, -1):
        phi1_series = phi1_series * z + 1.0 / math.factorial(k + 2)
    phi0_series = 1.0 + z * phi1_series
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
    # phi depends on w dt alone, so it is tabulated once per distinct step
    # length (a handful on a linspace grid) and each step gathers its row
    steps, step_row = np.unique(dts, return_inverse=True)
    phi0, phi1 = _phi_coefficients(np.multiply.outer(steps, w))
    states = np.empty((times.size, n), dtype=np.complex128)
    states[0] = v0
    # Mode coefficients c_j = P_j (c_0 + sum_{l<j} P_{l+1}^* g_l), where
    # P_j = e^{-i w (t_j - t_0)} and g_l is the exact quadrature increment
    # of step l; `rotated` carries the bracket from block to block.
    rotated = basis.conj().T @ v0
    for a in range(0, dts.size, _CONSERVATIVE_BLOCK):
        b = min(a + _CONSERVATIVE_BLOCK, dts.size)
        rows = step_row[a:b]
        g = dts[a:b, None] * (phi0[rows] * ft[a:b] + phi1[rows] * (ft[a + 1 : b + 1] - ft[a:b]))
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
    states.flags.writeable = False  # handed to the trajectory, which keeps it
    return Trajectory(
        times,
        states,
        {
            "scheme": "eigenbasis",
            "dt": uniform_step(times),
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
    algebraically identical to re-evaluating the kernel at every lag,
    and only as N_k sigma_k.  So each mass is factored on its range,
    N_k = L_k R_k^H, and the memory state is tau_k = R_k^H sigma_k: one
    step is the constant linear map x <- A x + (drive_j, R^H drive_j) of
    x = (v, tau_1..tau_K), of dimension n + sum_k rank N_k.  Second
    order: halving the step shrinks the error about fourfold.

    A = diag(0, decay) + lift top is a diagonal plus a rank-n part, with
    lift = (I, R^H) and `top` the v-rows, and is never formed.  It is
    applied in blocks of s = ceil(sqrt(steps)) steps: s iterations
    advance every block from rest at once and build the v-rows of
    A^1..A^s; one pass over the blocks then carries tau across a block
    as decay^s tau plus the phase-weighted sum of R^H v over its rows and
    adds the v-rows of A^1..A^s applied to each block's start.  The work
    is O(steps n d) with d = n + sum_k rank N_k, as for one step at a
    time; the gain is the Python iterations, 2 sqrt(steps) instead of
    steps, and fades where d is in the hundreds per observable.
    Temporaries hold O(sqrt(steps) n d) entries.

    The range cut drops mass eigenpairs with |lambda| <= tau_rank * c,
    c = max(||a(0)||_2, max_k |lambda_k|): for a positive semidefinite
    measure c is ||a(0)||_2 up to rounding, the cut of `minimal_extension`,
    so it keeps exactly the minimal extension's modes, and where an
    indefinite total mass cancels c keeps the atoms' scale.  The dropped
    parts, each ||dN_k|| <= tau_rank * c, move a contracting (PSD) evolution
    by at most (t^2 / 2) sum_k ||dN_k|| max ||v|| up to time t.
    meta["hidden_dim"] counts the kept pairs, sum_k rank N_k.

    An unstable step raises `NumericError` naming the first time whose
    state is not finite.
    """
    times = _check_grid(grid)
    if times.size < 2:
        raise ValidationError("open propagation needs at least two grid points")
    h = uniform_step(times)
    if h is None:
        raise ValidationError("open propagation requires a uniform grid")
    n = open_system.dim
    f = sample_forcing(f1, times, n)
    if callable(f1):
        f_mid = sample_forcing(f1, times[:-1] + h / 2.0, n)
    else:
        f_mid = 0.5 * (f[:-1] + f[1:])

    # each mass on its range: N_k = W_k diag(lam) W_k^H, indefinite or not,
    # keeping |lam| > tau_rank * max(||a(0)||_2, max |lam|); the columns of
    # left = W diag(lam) and right = W are the kept pairs of every atom
    lam, vecs = np.linalg.eigh(open_system.kernel.masses)
    scale = max(float(np.linalg.norm(open_system.kernel.total_mass(), 2)), float(np.abs(lam).max(initial=0.0)))
    atom, pair = np.nonzero(np.abs(lam) > tol.tau_rank * scale)
    right = vecs[atom, :, pair].T
    left = right * lam[atom, pair]
    freqs = open_system.kernel.frequencies[atom]
    d = n + freqs.size
    # e^{-i w_k h/2} per range column; a(0) and a(h/2) from the factors
    half = np.exp(-0.5j * h * freqs)
    eye = np.eye(n, dtype=np.complex128)
    project = right.conj()  # v @ project is (R^H v)^T
    a0 = left @ project.T
    a_half = (left * half) @ project.T
    local = -1j * open_system.omega1
    # node stage: u = u_v v - (h^2/2) sum_k N_k sigma_k + (h/2) f_j, the
    # trapezoid's half weight on the newest sample folded into u_v
    u_v = eye + 0.5 * h * local + 0.25 * h * h * a0
    # midpoint stage: v' = (I + (h^2/4) a(h/2)) v
    #   - h^2 sum_k e^{-i w_k h/2} N_k sigma_k + from_u u + h f_mid_j
    from_u = h * local - 0.25 * h * h * a0
    # v' = top (v, tau) + drive_j, then tau' = decay tau + R^H v': the step
    # is A = diag(hold) + lift top, diagonal plus rank n, never formed
    top = np.hstack(
        [eye + 0.25 * h * h * a_half + from_u @ u_v, -h * h * (left * half) - 0.5 * h * h * (from_u @ left)]
    )
    hold = np.concatenate([np.zeros(n), np.exp(-1j * h * freqs)])
    lift = np.vstack([eye, project.T])  # v -> (v, R^H v)

    steps = times.size - 1
    size = math.isqrt(steps - 1) + 1  # ceil(sqrt(steps))
    blocks = -(-steps // size)
    drive = f[:-1] @ (0.5 * h * from_u).T + h * f_mid
    states = np.zeros((blocks * size + 1, n), dtype=np.complex128)
    rows = states[1:].reshape(blocks, size, n)  # rows[b, i]: v after step b * size + i + 1
    powers = np.empty((size, n, d), dtype=np.complex128)  # powers[i]: the v-rows of A^(i+1)
    powers[0] = top
    x = np.zeros((blocks, d), dtype=np.complex128)
    # an unstable step carries inf and NaN onwards, checked in the states
    # at the end: a threaded BLAS product raises no flag in this thread
    with np.errstate(over="ignore", invalid="ignore"):
        # every block from rest, x <- x A^T + drive lift^T, all blocks at
        # once; a block is dropped past the grid's end, so the last may be short
        for i in range(size):
            inputs = drive[i::size]
            live = x[: len(inputs)]
            v = np.matmul(live, top.T, out=rows[: len(inputs), i])
            v += inputs
            live *= hold
            live += v @ lift.T
            if i:
                # y A = y diag(hold) + (y lift) top, for the rows y of A^i
                np.matmul(powers[i - 1] @ lift, top, out=powers[i])
                powers[i] += powers[i - 1] * hold
        # chain the blocks: the state at the start of block b + 1 is the last
        # row of block b as v and decay^s tau + sum_i decay^(s-1-i) R^H v_i
        # over its rows as tau; each block then adds the v-rows of A^1..A^m
        # applied to its start
        aged = np.exp(-1j * h * np.outer(np.arange(size, -1, -1), freqs))  # aged[i] = decay^(s-i)
        start = np.zeros(d, dtype=np.complex128)
        carry = start[n:]
        for b in range(1, blocks):
            carry *= aged[0]
            carry += (project * (rows[b - 1].T @ aged[1:])).sum(axis=0)
            start[:n] = rows[b - 1, -1]
            m = min(size, steps - b * size)
            rows[b, :m] += (powers[:m].reshape(m * n, d) @ start).reshape(m, n)
    finite = np.isfinite(states[: steps + 1]).all(axis=1)
    if not finite.all():
        raise NumericError(
            f"open integration diverged by t = {float(times[np.argmin(finite)]):.6g}: the state "
            "overflowed (decrease the time step)"
        )
    states.flags.writeable = False  # handed to the trajectory, which keeps its first steps + 1 rows
    return Trajectory(
        times,
        states[: steps + 1],
        {"scheme": "explicit-midpoint", "dt": h, "norm_drift": None, "hidden_dim": freqs.size},
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
