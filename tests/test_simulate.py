"""Time evolution: exactness, convergence order, dynamical equivalence.

Closed-form variation-of-constants expressions and analytic phase
rotations serve as the oracles here.  Three comparisons are against
integrators: TestReferenceSchemes checks the recurrences against plain
per-step transcriptions of both schemes, with the memory trapezoid
summed over every lag; TestBlockScan checks the open propagator's
block scan on the masses' range against `stepwise_open`, the same
recurrence on the full memory state, one matrix-vector product a step;
and TestPhiTable checks the conservative propagator's one-row-per-step
phi table bitwise against `blockwise_conservative`, the block loop with
phi on every (step, mode) entry.  TestPhiCoefficients checks phi itself
against Gauss-Legendre quadrature.
"""

import tracemalloc

import numpy as np
import pytest

from openext import (
    ConservativeSystem,
    NumericError,
    OpenSystem,
    PointMeasure,
    ValidationError,
    equivalence_residual,
    forcing_pulse,
    forcing_sine,
    forcing_step,
    kernel_eval,
    measure_of,
    minimal_extension,
    propagate_conservative,
    propagate_open,
    sample_forcing,
)

from openext import simulate
from openext.numerics import DEFAULT_TOLERANCES, eigh
from openext.simulate import _CONSERVATIVE_BLOCK, _phi_coefficients

from conftest import random_measure, random_psd


def closed_form_linear_forcing(omega_val, a, b, t):
    """v(t) = int_0^t exp(-i w (t - s)) (a + b s) ds for scalar w != 0."""
    w = omega_val
    e = np.exp(-1j * w * t)
    term_a = a * (1.0 - e) / (1j * w)
    term_b = b * (t / (1j * w) - (1.0 - e) / (1j * w) ** 2)
    return term_a + term_b


def reference_conservative(system, v0, forcing, times):
    """Per-step eigenbasis scheme, quadrature weights rebuilt every step."""
    n = system.dim
    f = sample_forcing(forcing, times, n)
    w, basis = np.linalg.eigh(system.omega)
    ft = f @ basis.conj()
    states = np.empty((times.size, n), dtype=complex)
    states[0] = v0
    current = basis.conj().T @ np.asarray(v0, dtype=complex)
    for j in range(times.size - 1):
        dt = times[j + 1] - times[j]
        theta = w * dt
        phi0, phi1 = _phi_coefficients(theta)
        current = np.exp(-1j * theta) * current + dt * (
            phi0 * ft[j] + phi1 * (ft[j + 1] - ft[j])
        )
        states[j + 1] = basis @ current
    return states


def blockwise_conservative(system, v0, forcing, times):
    """The block closed form with phi evaluated on every (step, mode) entry."""
    n = system.dim
    f = sample_forcing(forcing, times, n)
    w, basis = eigh(system.omega, DEFAULT_TOLERANCES)
    ft = f @ basis.conj()
    dts = np.diff(times)
    states = np.empty((times.size, n), dtype=complex)
    states[0] = v0
    rotated = basis.conj().T @ np.asarray(v0, dtype=complex)
    for a in range(0, dts.size, _CONSERVATIVE_BLOCK):
        b = min(a + _CONSERVATIVE_BLOCK, dts.size)
        dt = dts[a:b, None]
        phi0, phi1 = _phi_coefficients(w * dt)
        g = dt * (phi0 * ft[a:b] + phi1 * (ft[a + 1 : b + 1] - ft[a:b]))
        phase = np.exp(-1j * np.outer(times[a + 1 : b + 1] - times[0], w))
        block = rotated + np.cumsum(phase.conj() * g, axis=0)
        rotated = block[-1]
        states[a + 1 : b + 1] = (phase * block) @ basis.T
    return states


def reference_open(open_system, f1, times):
    """Explicit midpoint with the memory trapezoid summed over every lag: O(T^2)."""
    n = open_system.dim
    h = times[1] - times[0]
    f = sample_forcing(f1, times, n)
    if callable(f1):
        f_mid = sample_forcing(f1, times[:-1] + h / 2.0, n)
    else:
        f_mid = 0.5 * (f[:-1] + f[1:])
    kernel_ = open_system.kernel

    def kernel(lag):
        return sum(
            (np.exp(-1j * w * lag) * m for w, m in zip(kernel_.frequencies, kernel_.masses)),
            np.zeros((n, n), complex),
        )

    def memory(target_t, j, history):
        # h * sum_{l<=j} a(target_t - t_l) v_l with half weight on l = j;
        # the l = 0 end carries v_0 = 0 from rest
        total = np.zeros(n, dtype=complex)
        for l in range(j + 1):
            weight = 0.5 if l == j else 1.0
            total += weight * h * (kernel(target_t - times[l]) @ history[l])
        return total

    states = np.zeros((times.size, n), dtype=complex)
    omega1 = open_system.omega1
    for j in range(times.size - 1):
        t = times[j]
        v = states[j]
        u = v + 0.5 * h * (-1j * (omega1 @ v) - memory(t, j, states) + f[j])
        mem_mid = memory(t + 0.5 * h, j, states) + 0.25 * h * (kernel(0.5 * h) @ v + kernel(0.0) @ u)
        states[j + 1] = v + h * (-1j * (omega1 @ u) - mem_mid + f_mid[j])
    return states


def stepwise_open(open_system, f1, times):
    """The open scheme as a per-step recurrence on the full memory state.

    x = (v, sigma_1..sigma_K), sigma_k(t_j) = sum_{l<=j} e^{-i w_k (t_j - t_l)} v_l,
    advanced by one product with a constant n x n(K+1) matrix per step and
    sigma_k <- e^{-i w_k h} sigma_k + v, with no range cut.  Raises
    NumericError naming the step whose state first overflowed.
    """
    n = open_system.dim
    h = times[1] - times[0]
    f = sample_forcing(f1, times, n)
    if callable(f1):
        f_mid = sample_forcing(f1, times[:-1] + h / 2.0, n)
    else:
        f_mid = 0.5 * (f[:-1] + f[1:])
    freqs, masses = open_system.kernel.frequencies, open_system.kernel.masses
    half = np.exp(-0.5j * h * freqs)[:, None, None] * masses
    eye = np.eye(n, dtype=complex)
    a0 = open_system.kernel.total_mass()
    a_half = sum(half, np.zeros((n, n), dtype=complex))
    local = -1j * open_system.omega1
    u_v = eye + 0.5 * h * local + 0.25 * h * h * a0
    from_u = h * local - 0.25 * h * h * a0
    step = np.hstack(
        [eye + 0.25 * h * h * a_half + from_u @ u_v, *(-h * h * half - 0.5 * h * h * (from_u @ masses))]
    )
    drive = f[:-1] @ (0.5 * h * from_u).T + h * f_mid
    decay = np.exp(-1j * h * freqs)[:, None]
    states = np.zeros((times.size, n), dtype=complex)
    x = np.zeros((freqs.size + 1, n), dtype=complex)
    flat = x.reshape(-1)
    sigma = x[1:]
    with np.errstate(over="raise", invalid="raise"):
        try:
            for j in range(times.size - 1):
                v = np.add(step @ flat, drive[j], out=states[j + 1])
                if not np.all(np.isfinite(v)):  # a threaded BLAS product raises no flag here
                    raise FloatingPointError
                sigma *= decay
                sigma += v
                x[0] = v
        except FloatingPointError as exc:
            raise NumericError(f"diverged at t = {float(times[j + 1]):.6g}: overflow") from exc
    return states


def relative_error(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestForcingHelpers:
    def test_step(self):
        f = forcing_step([1.0, 0.0], t_on=1.0)
        assert np.array_equal(f(0.5), [0.0, 0.0])
        assert np.array_equal(f(1.0), [1.0, 0.0])

    def test_pulse(self):
        f = forcing_pulse([2.0], 1.0, 2.0)
        assert f(0.9)[0] == 0.0
        assert f(1.5)[0] == 2.0
        assert f(2.0)[0] == 0.0
        with pytest.raises(ValidationError):
            forcing_pulse([1.0], 2.0, 1.0)

    def test_sine(self):
        f = forcing_sine([1.0], 2.0)
        assert f(0.25)[0] == pytest.approx(np.sin(0.5))

    def test_sample_forcing_accepts_arrays_and_none(self):
        times = np.linspace(0, 1, 5)
        z = sample_forcing(None, times, 2)
        assert np.max(np.abs(z)) == 0.0
        arr = np.ones((5, 2))
        assert np.array_equal(sample_forcing(arr, times, 2), arr)
        with pytest.raises(ValidationError):
            sample_forcing(np.ones((4, 2)), times, 2)
        with pytest.raises(ValidationError):
            sample_forcing(lambda t: np.ones((t.size, 3)), times, 2)

    def test_grid_call_matches_pointwise_calls(self):
        # one call on the grid gives, row by row, the vectors of scalar calls
        times = np.linspace(0.0, 3.0, 31)
        forcings = (forcing_step([1.0, 2j], 0.5), forcing_pulse([1.0, 0.0], 0.5, 2.0), forcing_sine([0.5, -1.0], 1.7, 0.3))
        for f in forcings:
            grid = sample_forcing(f, times, 2)
            assert np.array_equal(grid, np.array([f(t) for t in times]))


class TestConservativePropagation:
    def test_eigenmode_pure_phase(self):
        omega = np.diag([1.0, 2.5]).astype(complex)
        sys_ = ConservativeSystem(1, 1, omega)
        v0 = np.array([0.0, 1.0])
        times = np.linspace(0.0, 7.0, 23)
        traj = propagate_conservative(sys_, v0, None, times)
        for t, v in zip(traj.times, traj.states):
            assert abs(v[1] - np.exp(-2.5j * t)) < 1e-12
            assert abs(v[0]) < 1e-14

    def test_norm_conserved_without_forcing(self):
        rng = np.random.default_rng(70)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        sys_ = ConservativeSystem(3, 2, h + h.conj().T)
        v0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        traj = propagate_conservative(sys_, v0, None, np.linspace(0, 20, 11))
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - norms[0])) < 1e-10 * norms[0]
        assert traj.meta["norm_drift"] < 1e-12

    def test_exact_for_piecewise_linear_forcing(self):
        # one step over a long interval must already be exact
        w = 1.7
        sys_ = ConservativeSystem(1, 0, np.array([[w]], dtype=complex))
        a, b = 0.8, -0.3
        grid = np.array([0.0, 2.0])
        traj = propagate_conservative(sys_, [0.0], lambda t: (a + b * t)[:, None], grid)
        ref = closed_form_linear_forcing(w, a, b, 2.0)
        assert abs(traj.states[1][0] - ref) < 1e-13

    def test_refining_grid_does_not_change_linear_forcing_result(self):
        w = 0.9
        sys_ = ConservativeSystem(1, 0, np.array([[w]], dtype=complex))
        f = lambda t: (1.0 + 2.0 * t)[:, None]
        coarse = propagate_conservative(sys_, [0.0], f, np.linspace(0, 3, 4))
        fine = propagate_conservative(sys_, [0.0], f, np.linspace(0, 3, 301))
        assert abs(coarse.states[-1][0] - fine.states[-1][0]) < 1e-12

    def test_zero_frequency_mode_integrates_forcing(self):
        sys_ = ConservativeSystem(1, 0, np.zeros((1, 1), dtype=complex))
        traj = propagate_conservative(sys_, [0.0], lambda t: t[:, None], np.array([0.0, 2.0]))
        assert abs(traj.states[1][0] - 2.0) < 1e-13

    def test_meta_records_scheme(self):
        sys_ = ConservativeSystem(1, 0, np.eye(1, dtype=complex))
        traj = propagate_conservative(sys_, [1.0], None, [0.0, 1.0])
        assert traj.meta["scheme"] == "eigenbasis"


class TestPhiCoefficients:
    def test_against_gauss_legendre_for_every_theta(self):
        # phi_j = int_0^1 u^j e^{-i theta (1 - u)} du, here as
        # int_0^1 (1 - s)^j e^{-i theta s} ds by Gauss-Legendre on 60 nodes,
        # 15 on each quarter of [0, 1]: exact to rounding for |theta| <= 30
        # (one 60-node rule from leggauss carries about 6e-15 of node and
        # weight error); the old series cut (1e-5) and the new branch
        # point (1) are sampled on both sides
        x, weights = np.polynomial.legendre.leggauss(15)
        s = ((np.arange(4)[:, None] + 0.5 * (x + 1.0)) / 4.0).reshape(-1)
        weights = np.tile(weights / 8.0, 4)
        mags = np.concatenate([np.logspace(-12, np.log10(30.0), 600), [0.99999e-5, 1.01e-5, 1e-4, 1e-3, 1.0, np.nextafter(1.0, 2.0)]])
        theta = np.concatenate([-mags, [0.0], mags])
        phase = np.exp(-1j * np.outer(theta, s))
        phi0, phi1 = _phi_coefficients(theta)
        assert np.max(np.abs(phi0 - phase @ weights)) <= 1e-14
        assert np.max(np.abs(phi1 - phase @ (weights * (1.0 - s)))) <= 1e-14


def non_uniform_case():
    """A forced 5-mode system with an initial state, on a random 700-point grid."""
    rng = np.random.default_rng(84)
    h_ = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sys_ = ConservativeSystem(2, 3, h_ + h_.conj().T)
    v0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    grid = 0.4 + np.cumsum(rng.uniform(1e-3, 2e-2, 700))
    f = lambda t: np.stack([np.sin(3.0 * t), np.ones_like(t), 0.5j * t, np.zeros_like(t), np.cos(t)], axis=1)
    return sys_, v0, f, grid


def alternating_grid():
    # steps of 2^-6 and 3 x 2^-7 in runs of 1 to 40, so every time is exact
    # and the grid has exactly two step lengths, neither in one contiguous run
    runs = np.random.default_rng(85).integers(1, 41, size=16)
    steps = np.concatenate([np.full(r, 2.0**-6 if i % 2 else 3 * 2.0**-7) for i, r in enumerate(runs)])
    return np.concatenate([[0.0], np.cumsum(steps)])


class TestPhiTable:
    """phi tabulated once per distinct step against the block loop that
    evaluates it on every (step, mode) entry: bitwise the same states."""

    GRIDS = {
        "linspace_1001": lambda: np.linspace(0.0, 1.0, 1001),
        "alternating_runs": alternating_grid,
        "random_700": lambda: non_uniform_case()[3],
        "two_points": lambda: np.array([0.0, 0.7]),
        "one_point": lambda: np.array([0.3]),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_bitwise_the_block_loop_with_one_phi_row_per_distinct_step(self, name, monkeypatch):
        sys_, v0, f, _ = non_uniform_case()
        grid = self.GRIDS[name]()
        ref = blockwise_conservative(sys_, v0, f, grid)
        rows = []

        def spy(theta):
            rows.append(np.shape(theta)[0])
            return _phi_coefficients(theta)

        monkeypatch.setattr(simulate, "_phi_coefficients", spy)
        got = propagate_conservative(sys_, v0, f, grid).states
        assert np.array_equal(got, ref)
        assert rows and max(rows) <= np.unique(np.diff(grid)).size


class TestOpenPropagation:
    def test_memoryless_system_matches_conservative(self):
        # empty kernel: the open integrator must track the exact
        # eigenbasis propagation to its own second-order accuracy
        omega1 = np.diag([1.0, 2.0]).astype(complex)
        open_sys = OpenSystem(2, omega1, PointMeasure(2, ()))
        closed = ConservativeSystem(1, 1, omega1)
        f = forcing_sine([1.0, 0.5], 1.3)
        errs = []
        for n in (2001, 4001):
            grid = np.linspace(0.0, 4.0, n)
            got = propagate_open(open_sys, f, grid)
            ref = propagate_conservative(closed, np.zeros(2), f, grid)
            errs.append(np.max(np.abs(got.states - ref.states)))
        assert errs[1] < 2e-6
        assert errs[0] / errs[1] > 3.5

    def test_starts_from_rest(self, worked_system):
        mu = measure_of(worked_system)
        open_sys = OpenSystem(2, worked_system.omega1, mu)
        traj = propagate_open(open_sys, None, np.linspace(0, 1, 101))
        assert np.max(np.abs(traj.states)) == 0.0

    def test_requires_uniform_grid(self, worked_system):
        mu = measure_of(worked_system)
        open_sys = OpenSystem(2, worked_system.omega1, mu)
        with pytest.raises(ValidationError):
            propagate_open(open_sys, None, np.array([0.0, 0.1, 0.3]))

    def test_divergence_raises_numeric_error(self):
        # dt = 0.9 is past the explicit step's stability limit here; the
        # trajectory must not come back holding inf and NaN rows
        omega = np.array([[3.0, 1.0, 0.5], [1.0, 5.0, 0.0], [0.5, 0.0, 4.0]])
        mu = measure_of(ConservativeSystem(1, 2, omega))
        open_sys = OpenSystem(1, omega[:1, :1], mu)
        with pytest.raises(NumericError, match="diverged"):
            propagate_open(open_sys, forcing_step([1.0]), np.arange(3335) * 0.9)

    def test_keeps_exactly_the_minimal_extension_modes(self):
        # a 5e-9 f f^T on the first of ten unit atoms e e^T lies below the
        # atom rule's cut, tau_rank * ||a(0)||_2 = 1e-8: minimal_extension
        # drops it, and the range cut must drop it too, bit for bit
        e, f = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        masses = [np.outer(e, e)] * 10
        masses[0] = masses[0] + 5e-9 * np.outer(f, f)
        mu = PointMeasure(2, np.arange(1.0, 11.0), masses)
        omega1 = np.array([[0.5, 0.1], [0.1, -0.3]])
        drive = forcing_step(np.ones(2) / np.sqrt(2))
        grid = np.linspace(0.0, 5.0, 5001)
        got = propagate_open(OpenSystem(2, omega1, mu), drive, grid)
        extended = measure_of(minimal_extension(mu))
        want = propagate_open(OpenSystem(2, omega1, extended), drive, grid)
        assert np.array_equal(got.states, want.states)

    def test_memory_damps_driven_mode(self, worked_system):
        # energy leaks into the hidden modes: the driven open system
        # must stay strictly below the kernel-free response
        mu = measure_of(worked_system)
        open_sys = OpenSystem(2, worked_system.omega1, mu)
        bare = OpenSystem(2, worked_system.omega1, PointMeasure(2, ()))
        grid = np.linspace(0.0, 6.0, 6001)
        f = forcing_step([1.0, 0.0])
        with_mem = propagate_open(open_sys, f, grid)
        without = propagate_open(bare, f, grid)
        assert np.linalg.norm(with_mem.states[-1]) < np.linalg.norm(without.states[-1])


class TestReferenceSchemes:
    """The recurrences reproduce the per-step schemes to rounding."""

    @pytest.mark.parametrize("n_atoms", [0, 1, 3])
    def test_open_matches_direct_memory_sum(self, n_atoms):
        rng = np.random.default_rng(80 + n_atoms)
        # full-rank atoms on a 3-dim observable block, forcing given as samples
        freqs = (-1.3, 0.4, 2.1)[:n_atoms]
        mu = PointMeasure(3, freqs, [random_psd(rng, 3, rank=3) for _ in freqs])
        h_ = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        open_sys = OpenSystem(3, h_ + h_.conj().T, mu)
        grid = np.linspace(0.0, 1.5, 61)
        f = rng.standard_normal((grid.size, 3)) + 1j * rng.standard_normal((grid.size, 3))
        got = propagate_open(open_sys, f, grid).states
        assert relative_error(got, reference_open(open_sys, f, grid)) <= 1e-12

    def test_open_shifted_grid_with_callable_forcing(self, worked_system):
        # a callable is sampled at the midpoints; the grid starts at t = 2
        open_sys = OpenSystem(2, worked_system.omega1, measure_of(worked_system))
        grid = 2.0 + np.arange(81) * 0.025
        for f in (forcing_pulse([1.0, 0.3], 2.2, 3.1), forcing_sine([1.0, -0.5], 1.7)):
            got = propagate_open(open_sys, f, grid).states
            assert relative_error(got, reference_open(open_sys, f, grid)) <= 1e-12

    def test_conservative_non_uniform_grid(self):
        # longer than one evaluation block, with an initial state
        sys_, v0, f, grid = non_uniform_case()
        got = propagate_conservative(sys_, v0, f, grid).states
        assert relative_error(got, reference_conservative(sys_, v0, f, grid)) <= 1e-12


def driven_open_system(rng, masses, freqs):
    """An open system with the given atoms and a random Hermitian omega1."""
    n = np.shape(masses)[-1]
    h_ = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return OpenSystem(n, h_ + h_.conj().T, PointMeasure(n, freqs, masses))


def random_samples(rng, times, n):
    return rng.standard_normal((times.size, n)) + 1j * rng.standard_normal((times.size, n))


class TestBlockScan:
    """The block scan on the masses' range against the per-step recurrence."""

    TOL = 1e-12

    def check(self, open_sys, f, times):
        got = propagate_open(open_sys, f, times).states
        assert relative_error(got, stepwise_open(open_sys, f, times)) <= self.TOL

    # one step; one block of two; a prime count, so the last block is short
    # (97 = 9 x 10 + 7); several full blocks (1024 = 32 x 32)
    @pytest.mark.parametrize("steps", [1, 2, 97, 1024])
    def test_step_counts(self, steps):
        rng = np.random.default_rng(90 + steps)
        open_sys = driven_open_system(rng, [random_psd(rng, 3, rank=3) for _ in range(2)], (-0.7, 1.9))
        times = np.arange(steps + 1) * 0.01
        self.check(open_sys, random_samples(rng, times, 3), times)

    def test_no_atoms(self):
        rng = np.random.default_rng(95)
        open_sys = driven_open_system(rng, np.empty((0, 3, 3)), ())
        times = np.linspace(0.0, 4.0, 401)
        self.check(open_sys, forcing_sine([1.0, 0.5j, -0.2], 1.3), times)

    def test_rank_one_masses(self):
        rng = np.random.default_rng(96)
        masses = [random_psd(rng, 3, rank=1) for _ in range(3)]
        open_sys = driven_open_system(rng, masses, (-1.1, 0.3, 2.4))
        times = np.linspace(0.0, 3.0, 601)
        self.check(open_sys, forcing_pulse([1.0, 0.0, 0.4], 0.2, 1.1), times)

    def test_indefinite_mass(self):
        rng = np.random.default_rng(97)
        indefinite = random_psd(rng, 3, rank=1) - random_psd(rng, 3, rank=1)
        open_sys = driven_open_system(rng, [random_psd(rng, 3, rank=2), indefinite], (0.5, 1.5))
        times = np.linspace(0.0, 2.0, 401)
        self.check(open_sys, random_samples(rng, times, 3), times)

    def test_hidden_dim_is_the_minimal_extension_size(self):
        rng = np.random.default_rng(103)
        times = np.linspace(0.0, 1.0, 101)
        for n_atoms in (1, 2, 3, 5):
            mu = random_measure(rng, 3, n_atoms)
            traj = propagate_open(OpenSystem(3, np.zeros((3, 3)), mu), forcing_step([1.0, 0.0, 0.0]), times)
            assert traj.meta["hidden_dim"] == minimal_extension(mu).n2

    def test_cancelling_total_mass_keeps_only_the_atoms_ranges(self):
        # P and -P: a(0) = 0 exactly, yet each atom has rank one, and the
        # range cut must not keep the other eigenpairs' rounding noise
        rng = np.random.default_rng(104)
        p = random_psd(rng, 3, rank=1)
        open_sys = driven_open_system(rng, [p, -p], (0.5, 1.5))
        assert not np.any(open_sys.kernel.total_mass())
        times = np.linspace(0.0, 2.0, 401)
        f = random_samples(rng, times, 3)
        assert propagate_open(open_sys, f, times).meta["hidden_dim"] == 2
        self.check(open_sys, f, times)

    def test_measure_of_32_by_32(self):
        # the size of the benchmark's largest dynamics system: K = 32 rank-one atoms
        rng = np.random.default_rng(98)
        h_ = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        omega = h_ + h_.conj().T
        omega *= 5.0 / np.linalg.norm(omega, 2)
        system = ConservativeSystem(32, 32, omega)
        mu = measure_of(system)
        assert mu.frequencies.size == 32
        open_sys = OpenSystem(32, system.omega1, mu)
        direction = rng.standard_normal(32)
        times = np.linspace(0.0, 1.0, 1001)
        self.check(open_sys, forcing_sine(direction / np.linalg.norm(direction), 1.3), times)

    def test_rank_deficient_masses_against_the_memory_sum(self):
        # the O(T^2) memory sum, independent of both recurrences
        rng = np.random.default_rng(99)
        open_sys = driven_open_system(rng, [random_psd(rng, 3, rank=1), random_psd(rng, 3, rank=2)], (-0.4, 0.8))
        times = np.linspace(0.0, 1.5, 151)
        f = random_samples(rng, times, 3)
        got = propagate_open(open_sys, f, times).states
        assert relative_error(got, reference_open(open_sys, f, times)) <= self.TOL

    def test_temporaries_within_the_states_size(self):
        # the forcing samples, midpoints, drive and states are four arrays of
        # the states' size; the scan's own temporaries add at most one more
        rng = np.random.default_rng(101)
        open_sys = driven_open_system(rng, [random_psd(rng, 4, rank=4) for _ in range(4)], (-1.0, 0.2, 0.9, 1.7))
        times = np.arange(40_001) * 1e-3
        tracemalloc.start()
        try:
            states = propagate_open(open_sys, forcing_sine([1.0, 0.0, 0.5, 0.2j], 1.1), times).states
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * states.nbytes

    def test_temporaries_without_a_dense_step(self):
        # one observable and 1,000 rank-one atoms: d = 1,001 exceeds
        # sqrt(steps) = 100, and the scan's temporaries are a few arrays of
        # sqrt(steps) n d entries, where one d x d matrix alone is ten
        rng = np.random.default_rng(102)
        masses = rng.uniform(0.5, 1.0, (1000, 1, 1)) * 1e-3
        open_sys = OpenSystem(1, np.array([[0.3]]), PointMeasure(1, np.linspace(-3.0, 3.0, 1000), masses))
        times = np.arange(10_001) * 1e-2
        tracemalloc.start()
        try:
            states = propagate_open(open_sys, forcing_sine([1.0], 1.1), times).states
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entry = np.dtype(complex).itemsize
        assert peak <= 5 * states.nbytes + 5 * 100 * 1001 * entry < 1001 * 1001 * entry

    @staticmethod
    def planted(factor):
        """Two PSD rank-two masses on n = 3, and the same with factor * (the
        cut) added to the second along the direction outside its range."""
        rng = np.random.default_rng(100)
        masses = np.array([random_psd(rng, 3, rank=2) for _ in range(2)])
        size = factor * DEFAULT_TOLERANCES.tau_rank * np.max(np.abs(np.linalg.eigvalsh(masses)))
        outside = np.linalg.svd(masses[1])[0][:, 2]
        full = masses.copy()
        full[1] += size * np.outer(outside, outside.conj())
        cut = driven_open_system(rng, masses, (-0.6, 1.2))
        return cut, OpenSystem(3, cut.omega1, PointMeasure(3, (-0.6, 1.2), full)), size

    def test_component_below_the_cut_is_dropped(self):
        cut, full, size = self.planted(0.5)
        times = np.linspace(0.0, 10.0, 1001)
        f = forcing_sine([1.0, -0.3, 0.6j], 0.8)
        got = propagate_open(full, f, times).states
        # it integrates the measure without the component ...
        assert relative_error(got, stepwise_open(cut, f, times)) <= self.TOL
        # ... which moves the result off the full-mass run by more than
        # rounding, and by less than (t^2 / 2) ||dN|| max ||v||
        ref = stepwise_open(full, f, times)
        moved = np.linalg.norm(got - ref, axis=1)
        bound = 0.5 * times**2 * size * np.max(np.linalg.norm(ref, axis=1))
        assert np.max(moved) > 1e3 * np.finfo(float).eps * np.max(np.abs(ref))
        assert np.all(moved <= bound)

    def test_component_above_the_cut_is_kept(self):
        _, full, _ = self.planted(2.0)
        times = np.linspace(0.0, 10.0, 1001)
        self.check(full, forcing_sine([1.0, -0.3, 0.6j], 0.8), times)


class TestEquivalence:
    def test_worked_example_within_step_error(self, worked_system):
        grid = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        f = forcing_pulse([1.0, 0.3], 0.5, 1.5)
        res = equivalence_residual(worked_system, f, grid)
        # reference amplitude is order one for this drive
        assert res < 1e-4

    def test_second_order_in_step(self, worked_system):
        f = forcing_sine([1.0, -0.5], 0.9)
        res_h = equivalence_residual(worked_system, f, np.arange(0.0, 3.0 + 1e-12, 2e-3))
        res_h2 = equivalence_residual(worked_system, f, np.arange(0.0, 3.0 + 1e-12, 1e-3))
        assert res_h / res_h2 >= 3.0

    def test_random_extensions(self):
        rng = np.random.default_rng(71)
        for _ in range(3):
            mu = random_measure(rng, 2, 2)
            sys_ = minimal_extension(mu)
            f = forcing_sine([1.0, 0.5], 1.1)
            grid = np.arange(0.0, 3.0 + 1e-12, 1e-3)
            assert equivalence_residual(sys_, f, grid) < 1e-4

    def test_kernel_feedback_visible(self, worked_system):
        # sanity for the oracle itself: with the memory removed the two
        # trajectories must disagree by far more than the tolerance
        grid = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        f = forcing_step([1.0, 0.0])
        mu_empty = PointMeasure(2, ())
        open_sys = OpenSystem(2, worked_system.omega1, mu_empty)
        v_open = propagate_open(open_sys, f, grid).states
        full0 = np.zeros(4, dtype=complex)
        f_emb = lambda t: np.hstack([f(t), np.zeros((t.size, 2))])
        v_full = propagate_conservative(worked_system, full0, f_emb, grid).states[:, :2]
        assert np.max(np.abs(v_full - v_open)) > 0.05
