"""Minimal extensions, kernel evaluation, dissipation checks, measure fitting.

The reference values here come from independent routes: direct quadrature
style sums over atoms, dense matrix exponentials, and Krylov spans.  The
package must agree with those, not with itself.
"""

import numpy as np
import pytest

from openext import (
    ConservativeSystem,
    FitError,
    KernelSamples,
    MeasureAtom,
    NotPositiveSemidefiniteError,
    PointMeasure,
    ValidationError,
    check_dissipation,
    fit_point_measure,
    kernel_eval,
    kernel_of_measure,
    measure_of,
    minimal_extension,
    orbit,
)
from openext.extension import DEFAULT_MC_SEED, MC_GRID_POINTS, MC_TIME_SPAN

from conftest import haar_unitary, krylov_span, random_measure, random_psd


def trapezoid_grid():
    """The Monte-Carlo grid of check_dissipation and its trapezoid weights."""
    times = np.linspace(0.0, MC_TIME_SPAN, MC_GRID_POINTS)
    weights = np.full(times.size, (times[-1] - times[0]) / (times.size - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return times, weights


def factor_tables(measure, times, weights):
    """Phase table w_j e^{i w_k t_j} and the stacked atom masses."""
    freqs = np.array([a.frequency for a in measure.atoms])
    return weights[:, None] * np.exp(1j * np.outer(times, freqs)), np.stack([a.mass for a in measure.atoms])


def per_atom_quadratic_form(measure, times, weights, v):
    """Factorized form summed atom by atom, each with its own local term."""
    total = 0.0
    for atom in measure.atoms:
        u = (weights * np.exp(1j * atom.frequency * times))[:, None] * v
        s = u.sum(axis=0)
        total += 0.5 * float(
            np.real(s.conj() @ atom.mass @ s) + np.real(np.einsum("ji,ji->", u.conj() @ atom.mass, u))
        )
    return total


def per_atom_profile_form(measure, times, weights, profile):
    """Hermitian H with Q(g * profile) = g^H H g, accumulated atom by atom."""
    h = np.zeros((measure.dim, measure.dim), dtype=complex)
    for atom in measure.atoms:
        u = weights * np.exp(1j * atom.frequency * times) * profile
        rho = 0.5 * (abs(u.sum()) ** 2 + float((np.abs(u) ** 2).sum()))
        h += rho * atom.mass
    return 0.5 * (h + h.conj().T)


def rank_deficient_measures(rng, count):
    """Seeded measures, dim 1-8 and 1-12 atoms, every mass of rank below dim when dim > 1."""
    for _ in range(count):
        dim = int(rng.integers(1, 9))
        freqs = np.sort(rng.uniform(-3.0, 3.0, int(rng.integers(1, 13))))
        freqs = freqs + np.arange(freqs.size) * 0.05
        atoms = [
            MeasureAtom(float(f), random_psd(rng, dim, rank=int(rng.integers(1, max(dim, 2)))))
            for f in freqs
        ]
        yield PointMeasure(dim, tuple(atoms))


def dense_kernel(system, times):
    """Gamma exp(-i Omega2 t) Gamma* via scipy-free dense expm (eig route)."""
    w, v = np.linalg.eigh(system.omega2)
    g = system.coupling
    out = np.empty((len(times), system.n1, system.n1), dtype=complex)
    for k, t in enumerate(times):
        e = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
        out[k] = g @ e @ g.conj().T
    return out


class TestKernelEval:
    def test_matches_dense_exponential(self, worked_system):
        times = np.linspace(0.0, 7.0, 40)
        got = kernel_eval(worked_system, times)
        ref = dense_kernel(worked_system, times)
        assert np.max(np.abs(got.values - ref)) < 1e-12

    def test_value_at_zero_is_gram(self, worked_system):
        got = kernel_eval(worked_system, [0.0])
        g = worked_system.coupling
        assert np.allclose(got.values[0], g @ g.conj().T, atol=1e-14)

    def test_adjoint_flips_time(self, worked_system):
        times = np.linspace(0.0, 5.0, 17)
        fwd = kernel_eval(worked_system, times).values
        # a(t)* equals a evaluated with the propagator conjugated
        for k in range(len(times)):
            w, v = np.linalg.eigh(worked_system.omega2)
            g = worked_system.coupling
            e = v @ np.diag(np.exp(1j * w * times[k])) @ v.conj().T
            assert np.allclose(fwd[k].conj().T, g @ e @ g.conj().T, atol=1e-12)

    def test_kernel_of_measure_is_fourier_sum(self):
        rng = np.random.default_rng(10)
        mu = random_measure(rng, 3, 4)
        times = np.linspace(0.0, 4.0, 21)
        got = kernel_of_measure(mu, times).values
        for k, t in enumerate(times):
            ref = sum(np.exp(-1j * a.frequency * t) * a.mass for a in mu.atoms)
            assert np.allclose(got[k], ref, atol=1e-13 * max(1.0, np.abs(ref).max()))

    def test_requires_sorted_nonnegative_times(self, worked_system):
        with pytest.raises(ValidationError):
            kernel_eval(worked_system, [1.0, 0.5])
        with pytest.raises(ValidationError):
            kernel_eval(worked_system, [-1.0, 0.5])


class TestMinimalExtension:
    def test_round_trip_kernel(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dim = int(rng.integers(1, 5))
            mu = random_measure(rng, dim, int(rng.integers(1, 6)))
            sys_ = minimal_extension(mu)
            times = np.linspace(0.0, 8.0, 50)
            direct = kernel_of_measure(mu, times).values
            ext = kernel_eval(sys_, times).values
            scale = np.linalg.norm(mu.total_mass(), 2)
            assert np.max(np.abs(direct - ext)) <= 1e-12 * max(scale, 1.0)

    def test_observable_block_is_zero(self):
        rng = np.random.default_rng(12)
        mu = random_measure(rng, 2, 3)
        sys_ = minimal_extension(mu)
        assert np.max(np.abs(sys_.omega1)) == 0.0

    def test_hidden_dim_is_sum_of_atom_ranks(self):
        rng = np.random.default_rng(13)
        ranks = [1, 3, 2]
        atoms = []
        for k, r in enumerate(ranks):
            atoms.append((float(k), random_psd(rng, 4, rank=r)))
        sys_ = minimal_extension(PointMeasure.create(4, atoms))
        assert sys_.n2 == sum(ranks)

    def test_minimality_no_smaller_extension(self):
        # the hidden orbit of the coupling range must be everything;
        # otherwise a compression would reproduce the same kernel
        rng = np.random.default_rng(14)
        for _ in range(10):
            mu = random_measure(rng, 3, int(rng.integers(1, 5)))
            sys_ = minimal_extension(mu)
            if sys_.n2 == 0:
                continue
            reach = krylov_span(sys_.omega2, sys_.coupling.conj().T)
            assert reach.shape[1] == sys_.n2

    def test_orbit_agrees_with_krylov(self):
        rng = np.random.default_rng(15)
        mu = random_measure(rng, 3, 3)
        sys_ = minimal_extension(mu)
        seed = sys_.coupling.conj().T
        got = orbit(sys_.omega2, seed)
        ref = krylov_span(sys_.omega2, seed)
        assert got.dim == ref.shape[1]

    def test_rejects_indefinite_atom(self):
        mu = PointMeasure(2, (MeasureAtom(1.0, np.diag([1.0, -0.3])),))
        with pytest.raises(NotPositiveSemidefiniteError):
            minimal_extension(mu)

    def test_empty_measure_gives_closed_system(self):
        sys_ = minimal_extension(PointMeasure(2, ()))
        assert sys_.n2 == 0


class TestMeasureOf:
    def test_inverts_minimal_extension(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            dim = int(rng.integers(1, 5))
            mu = random_measure(rng, dim, int(rng.integers(1, 6)))
            sys_ = minimal_extension(mu)
            back = measure_of(sys_)
            assert len(back.atoms) == len(mu.atoms)
            for a, b in zip(mu.atoms, back.atoms):
                scale = max(np.abs(a.mass).max(), 1e-30)
                assert abs(a.frequency - b.frequency) < 1e-9 * max(1.0, abs(a.frequency))
                assert np.max(np.abs(a.mass - b.mass)) < 1e-9 * scale

    def test_invariant_under_hidden_unitary(self):
        rng = np.random.default_rng(17)
        mu = random_measure(rng, 2, 3)
        sys_ = minimal_extension(mu)
        u = haar_unitary(sys_.n2, rng)
        omega = np.array(sys_.omega)
        n1 = sys_.n1
        omega[:n1, n1:] = omega[:n1, n1:] @ u
        omega[n1:, :n1] = omega[n1:, :n1].conj().T.conj().T
        omega[n1:, :n1] = omega[:n1, n1:].conj().T
        omega[n1:, n1:] = u.conj().T @ sys_.omega2 @ u
        rotated = ConservativeSystem(n1, sys_.n2, omega)
        back = measure_of(rotated)
        assert len(back.atoms) == len(mu.atoms)
        for a, b in zip(mu.atoms, back.atoms):
            assert np.max(np.abs(a.mass - b.mass)) < 1e-9 * max(np.abs(a.mass).max(), 1.0)

    def test_uncoupled_hidden_modes_dropped(self):
        omega = np.diag([1.0, 2.0, 3.0]).astype(complex)
        sys_ = ConservativeSystem(1, 2, omega)
        assert len(measure_of(sys_).atoms) == 0


class TestCheckDissipation:
    def test_valid_measure_passes_both_routes(self):
        rng = np.random.default_rng(18)
        mu = random_measure(rng, 2, 3)
        rep = check_dissipation(mu)
        assert rep.verdict is True
        assert rep.algebraic_available and rep.algebraic_pass
        assert rep.mc_pass
        assert rep.mc_min_value >= rep.threshold
        assert rep.seed == DEFAULT_MC_SEED

    def test_indefinite_measure_fails_with_witness(self):
        mass = np.diag([1.0, -0.4])
        mu = PointMeasure(2, (MeasureAtom(0.7, mass), MeasureAtom(2.0, np.eye(2)),))
        rep = check_dissipation(mu)
        assert rep.verdict is False
        assert not rep.algebraic_pass
        assert rep.witness_atoms == ((0, pytest.approx(-0.4)),)
        assert rep.atom_min_eigenvalues[0] == pytest.approx(-0.4)
        assert rep.mc_negative_found

    def test_mc_finds_clear_negativity(self):
        # min eigenvalue -0.5 against norm 1: well past the detection bar
        rng = np.random.default_rng(19)
        for k in range(5):
            u = haar_unitary(3, rng)
            mass = u @ np.diag([1.0, 0.2, -0.5]) @ u.conj().T
            mu = PointMeasure(3, (MeasureAtom(0.5 + 0.3 * k, mass),))
            rep = check_dissipation(mu)
            assert rep.mc_negative_found
            assert rep.trials <= 32

    def test_samples_mode_uses_mc_verdict(self, worked_system):
        times = np.linspace(0.0, 5.0, 64)
        samples = kernel_eval(worked_system, times)
        rep = check_dissipation(samples)
        assert rep.verdict is True
        assert not rep.algebraic_available

    def test_dual_route_same_quadratic_form(self):
        # the per atom factorized form and the direct double sum over
        # sampled kernel values are two routes to one number; on the
        # same grid they must agree to roundoff for every profile
        from openext.extension import _quadratic_form_measure, _quadratic_form_samples

        rng = np.random.default_rng(20)
        mu = random_measure(rng, 2, 3)
        times = np.linspace(0.0, MC_TIME_SPAN, MC_GRID_POINTS)
        samples = kernel_of_measure(mu, times)
        weights = np.full(times.size, (times[-1] - times[0]) / (times.size - 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        for _ in range(5):
            v = rng.standard_normal((times.size, 2)) + 1j * rng.standard_normal(
                (times.size, 2)
            )
            phases, masses = factor_tables(mu, times, weights)
            qm = _quadratic_form_measure(phases, masses, masses.sum(axis=0), weights, v)
            qs = _quadratic_form_samples(samples.values, weights, v)
            assert qm == pytest.approx(qs, rel=1e-10, abs=1e-10)

    def test_stacked_forms_match_per_atom_oracles(self):
        # the stacked helpers fold every atom's local term into one form
        # in the total mass; atom by atom the sums must come out the same
        from openext.extension import _profile_form_matrix, _quadratic_form_measure

        rng = np.random.default_rng(25)
        times, weights = trapezoid_grid()
        for mu in rank_deficient_measures(rng, 40):
            phases, masses = factor_tables(mu, times, weights)
            n = mu.dim
            v = rng.standard_normal((times.size, n)) + 1j * rng.standard_normal((times.size, n))
            got = _quadratic_form_measure(phases, masses, masses.sum(axis=0), weights, v)
            assert got == pytest.approx(per_atom_quadratic_form(mu, times, weights, v), rel=1e-12)
            profile = np.sin(np.pi * times / times[-1]) ** 2 * np.exp(-1j * rng.uniform(-4, 4) * times)
            h = _profile_form_matrix(phases, masses, weights, profile)
            ref = per_atom_profile_form(mu, times, weights, profile)
            assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_profile_form_matrix_is_the_quadratic_form(self):
        # g^H H(p) g must be the direct double sum over kernel lags for
        # the separable test function p(t) g
        from openext.extension import _profile_form_matrix, _quadratic_form_samples

        rng = np.random.default_rng(26)
        times, weights = trapezoid_grid()
        for mu in rank_deficient_measures(rng, 6):
            profile = rng.standard_normal(times.size) + 1j * rng.standard_normal(times.size)
            g = rng.standard_normal(mu.dim) + 1j * rng.standard_normal(mu.dim)
            h = _profile_form_matrix(*factor_tables(mu, times, weights), weights, profile)
            direct = _quadratic_form_samples(kernel_of_measure(mu, times).values, weights, profile[:, None] * g)
            assert float(np.real(g.conj() @ h @ g)) == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_trials_budget_respected(self):
        rng = np.random.default_rng(21)
        mu = random_measure(rng, 2, 2)
        rep = check_dissipation(mu, trials=5)
        assert rep.trials <= 5

    def test_report_serializes(self):
        rng = np.random.default_rng(22)
        rep = check_dissipation(random_measure(rng, 2, 2))
        d = rep.as_dict()
        assert d["verdict"] is True
        assert isinstance(d["mc_min_value"], float)


class TestFitPointMeasure:
    def test_recovers_planted_measure(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            dim = int(rng.integers(1, 4))
            n_atoms = int(rng.integers(1, 5))
            freqs = np.sort(rng.uniform(-2.5, 2.5, n_atoms))
            while n_atoms > 1 and np.min(np.diff(freqs)) < 0.5:
                freqs = np.sort(rng.uniform(-2.5, 2.5, n_atoms))
            mu = PointMeasure.create(
                dim, [(float(f), random_psd(rng, dim)) for f in freqs]
            )
            times = np.arange(128) * 0.1
            samples = kernel_of_measure(mu, times)
            fit = fit_point_measure(samples, max_atoms=8)
            assert len(fit.atoms) == n_atoms
            scale = np.linalg.norm(mu.total_mass(), 2)
            for a, b in zip(mu.atoms, fit.atoms):
                assert abs(a.frequency - b.frequency) < 1e-6
                assert np.max(np.abs(a.mass - b.mass)) < 1e-6 * scale

    def test_scalar_two_mode_example(self):
        mu = PointMeasure.create(1, [(1.0, [[2.0]]), (2.5, [[0.5]])])
        times = np.arange(64) * 0.1
        fit = fit_point_measure(kernel_of_measure(mu, times), max_atoms=4)
        assert [round(a.frequency, 9) for a in fit.atoms] == [1.0, 2.5]
        assert fit.atoms[0].mass[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_zero_samples_give_empty_measure(self):
        times = np.arange(32) * 0.1
        vals = np.zeros((32, 2, 2), dtype=complex)
        fit = fit_point_measure(KernelSamples(times, vals), max_atoms=4)
        assert len(fit.atoms) == 0

    def test_damped_kernel_rejected(self):
        times = np.arange(64) * 0.1
        vals = (np.exp((-0.3 - 1j) * times))[:, None, None] * np.ones((1, 1))
        with pytest.raises(FitError):
            fit_point_measure(KernelSamples(times, vals), max_atoms=4)

    def test_frequency_at_ambiguity_boundary_rejected(self):
        # a pencil root at angle pi cannot be assigned a sign
        dt = 0.1
        times = np.arange(64) * dt
        vals = (np.exp(-1j * (np.pi / dt) * times))[:, None, None] * np.ones((1, 1))
        with pytest.raises(ValidationError):
            fit_point_measure(KernelSamples(times, vals), max_atoms=2)

    def test_near_boundary_frequency_recovered(self):
        # strictly inside the resolvable band the fit stays exact
        dt = 0.1
        w = 0.98 * np.pi / dt
        mu = PointMeasure.create(1, [(w, [[1.0]])])
        times = np.arange(64) * dt
        fit = fit_point_measure(kernel_of_measure(mu, times), max_atoms=2)
        assert len(fit.atoms) == 1
        assert fit.atoms[0].frequency == pytest.approx(w, abs=1e-8)

    def test_nonuniform_grid_rejected(self):
        times = np.array([0.0, 0.1, 0.3])
        vals = np.zeros((3, 1, 1), dtype=complex)
        with pytest.raises(ValidationError):
            fit_point_measure(KernelSamples(times, vals), max_atoms=2)

    def test_atom_cap_enforced(self):
        rng = np.random.default_rng(24)
        mu = random_measure(rng, 1, 6, freq_lo=-3.0, freq_hi=3.0)
        times = np.arange(200) * 0.1
        fit = fit_point_measure(kernel_of_measure(mu, times), max_atoms=6)
        assert len(fit.atoms) <= 6


class TestKernelSamples:
    @pytest.mark.parametrize(
        "where, bad", [("times", np.nan), ("times", np.inf), ("values", np.nan), ("values", -np.inf)]
    )
    def test_rejects_non_finite(self, where, bad):
        # a NaN or inf sample used to pass check_dissipation as dissipative
        data = {"times": np.arange(4) * 0.1, "values": np.ones((4, 2, 2), dtype=complex)}
        data[where][(-1,) * data[where].ndim] = bad
        with pytest.raises(ValidationError, match="finite"):
            KernelSamples(data["times"], data["values"])

    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            KernelSamples(np.array([0.0, 1.0]), np.zeros((3, 2, 2)))
        with pytest.raises(ValidationError):
            KernelSamples(np.array([1.0, 0.0]), np.zeros((2, 2, 2)))

    def test_dim(self, worked_system):
        s = kernel_eval(worked_system, [0.0, 1.0])
        assert s.dim == 2
