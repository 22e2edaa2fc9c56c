"""Time evolution: exactness, convergence order, dynamical equivalence.

Closed-form variation-of-constants expressions and analytic phase
rotations serve as the oracles here.  The one comparison against an
integrator is TestReferenceSchemes: plain per-step transcriptions of
both schemes, with the memory trapezoid summed over every lag, check
the recurrences the propagators are written as.
"""

import numpy as np
import pytest

from openext import (
    ConservativeSystem,
    MeasureAtom,
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

from openext.simulate import _phi_coefficients

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


def reference_open(open_system, f1, times):
    """Explicit midpoint with the memory trapezoid summed over every lag: O(T^2)."""
    n = open_system.dim
    h = times[1] - times[0]
    f = sample_forcing(f1, times, n)
    if callable(f1):
        f_mid = sample_forcing(f1, times[:-1] + h / 2.0, n)
    else:
        f_mid = 0.5 * (f[:-1] + f[1:])
    atoms = open_system.kernel.atoms

    def kernel(lag):
        return sum((np.exp(-1j * a.frequency * lag) * a.mass for a in atoms), np.zeros((n, n), complex))

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
        traj = propagate_conservative(sys_, [0.0], lambda t: [a + b * t], grid)
        ref = closed_form_linear_forcing(w, a, b, 2.0)
        assert abs(traj.states[1][0] - ref) < 1e-13

    def test_refining_grid_does_not_change_linear_forcing_result(self):
        w = 0.9
        sys_ = ConservativeSystem(1, 0, np.array([[w]], dtype=complex))
        f = lambda t: [1.0 + 2.0 * t]
        coarse = propagate_conservative(sys_, [0.0], f, np.linspace(0, 3, 4))
        fine = propagate_conservative(sys_, [0.0], f, np.linspace(0, 3, 301))
        assert abs(coarse.states[-1][0] - fine.states[-1][0]) < 1e-12

    def test_zero_frequency_mode_integrates_forcing(self):
        sys_ = ConservativeSystem(1, 0, np.zeros((1, 1), dtype=complex))
        traj = propagate_conservative(sys_, [0.0], lambda t: [t], np.array([0.0, 2.0]))
        assert abs(traj.states[1][0] - 2.0) < 1e-13

    def test_meta_records_scheme(self):
        sys_ = ConservativeSystem(1, 0, np.eye(1, dtype=complex))
        traj = propagate_conservative(sys_, [1.0], None, [0.0, 1.0])
        assert traj.meta["scheme"] == "eigenbasis"


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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_raises_numeric_error(self):
        # dt = 0.9 is past the explicit step's stability limit here; the
        # trajectory must not come back holding inf and NaN rows
        omega = np.array([[3.0, 1.0, 0.5], [1.0, 5.0, 0.0], [0.5, 0.0, 4.0]])
        mu = measure_of(ConservativeSystem(1, 2, omega))
        open_sys = OpenSystem(1, omega[:1, :1], mu)
        with pytest.raises(NumericError, match="diverged"):
            propagate_open(open_sys, forcing_step([1.0]), np.arange(3335) * 0.9)

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
        mu = PointMeasure(3, tuple(MeasureAtom(w, random_psd(rng, 3, rank=3)) for w in freqs))
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
        rng = np.random.default_rng(84)
        h_ = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        sys_ = ConservativeSystem(2, 3, h_ + h_.conj().T)
        v0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        grid = 0.4 + np.cumsum(rng.uniform(1e-3, 2e-2, 700))
        f = lambda t: [np.sin(3.0 * t), 1.0, 0.5j * t, 0.0, np.cos(t)]
        got = propagate_conservative(sys_, v0, f, grid).states
        assert relative_error(got, reference_conservative(sys_, v0, f, grid)) <= 1e-12


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
        f_emb = lambda t: np.concatenate([np.asarray(f(t)), np.zeros(2)])
        v_full = propagate_conservative(worked_system, full0, f_emb, grid).states[:, :2]
        assert np.max(np.abs(v_full - v_open)) > 0.05
