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
    NotPositiveSemidefiniteError,
    PointMeasure,
    ValidationError,
    check_dissipation,
    fit_point_measure,
    kernel_eval,
    kernel_of_measure,
    measure_of,
    minimal_extension,
    minimal_subsystem,
    orbit,
    validate,
)
from openext.extension import (
    DEFAULT_MC_SEED,
    MC_GRID_POINTS,
    MC_TIME_SPAN,
    _profile_form_matrix,
)
from openext.numerics import DEFAULT_TOLERANCES, below_psd_cut

from conftest import haar_unitary, krylov_span, random_measure, random_psd


def trapezoid_grid():
    """The Monte-Carlo grid of check_dissipation and its trapezoid weights."""
    times = np.linspace(0.0, MC_TIME_SPAN, MC_GRID_POINTS)
    weights = np.full(times.size, (times[-1] - times[0]) / (times.size - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return times, weights


def _quadratic_form_measure(
    phases: np.ndarray, masses: np.ndarray, total_mass: np.ndarray, weights: np.ndarray, v: np.ndarray
) -> float:
    """Discretized double integral of the dissipation form for sampled v.

    With the phase table phases[j, k] = w_j e^{i w_k t_j}, u_j = phases[j, k] v_j
    and S_k = sum_j u_j, the per-atom identity
      Re sum_{j>=l} u_j^H N_k u_l = (S_k^H N_k S_k + sum_j u_j^H N_k u_j) / 2
    is exactly the trapezoid-weighted double sum and is nonnegative for PSD
    N_k.  The phases cancel in the local term, so summed over atoms it is
    sum_j w_j^2 v_j^H A v_j with the total mass A = total_mass = sum_k N_k.
    This is the direct evaluation; `check_dissipation` reads the same form
    through `_rough_form_values` and `_profile_form_matrix`, which the
    tests hold to this one.
    """
    s = phases.T @ v
    cross = np.vdot(s, np.einsum("kab,kb->ka", masses, s))
    local = np.vdot(weights[:, None] ** 2 * v, v @ total_mass.T)
    return 0.5 * float(np.real(cross + local))


def _quadratic_form_samples(values: np.ndarray, weights: np.ndarray, v: np.ndarray) -> float:
    """Direct lower-triangular double sum using tabulated kernel lags."""
    g = v.shape[0]
    total = 0.0
    for j in range(g):
        lagged = np.einsum("lab,lb->la", values[j::-1], v[: j + 1])
        contrib = np.real(np.conj(v[j]) @ (weights[: j + 1] * lagged.T).sum(axis=1))
        total += weights[j] * contrib
    return float(total)


def factor_tables(measure, times, weights):
    """Phase table w_j e^{i w_k t_j} and the atom mass stack."""
    return weights[:, None] * np.exp(1j * np.outer(times, measure.frequencies)), measure.masses


def per_atom_quadratic_form(measure, times, weights, v):
    """Factorized form summed atom by atom, each with its own local term."""
    total = 0.0
    for freq, mass in zip(measure.frequencies, measure.masses):
        u = (weights * np.exp(1j * freq * times))[:, None] * v
        s = u.sum(axis=0)
        total += 0.5 * float(
            np.real(s.conj() @ mass @ s) + np.real(np.einsum("ji,ji->", u.conj() @ mass, u))
        )
    return total


def per_atom_profile_form(measure, times, weights, profile):
    """Hermitian H with Q(g * profile) = g^H H g, accumulated atom by atom."""
    h = np.zeros((measure.dim, measure.dim), dtype=complex)
    for freq, mass in zip(measure.frequencies, measure.masses):
        u = weights * np.exp(1j * freq * times) * profile
        rho = 0.5 * (abs(u.sum()) ** 2 + float((np.abs(u) ** 2).sum()))
        h += rho * mass
    return 0.5 * (h + h.conj().T)


def reference_check_dissipation(measure, trials, seed=DEFAULT_MC_SEED, tol=DEFAULT_TOLERANCES):
    """The per-trial Monte-Carlo loop that `check_dissipation` batches: each
    trial interpolates its rough test function with np.interp and evaluates
    the direct form; each modulated trial takes the worst direction from a
    full eigh of the per-atom profile form.  Returns the report fields."""
    times, weights = trapezoid_grid()
    n, scale = measure.dim, float(np.linalg.norm(measure.total_mass(), 2))
    freqs = measure.frequencies
    phases = weights[:, None] * np.exp(1j * np.outer(times, freqs))
    masses = measure.masses
    eigs = np.linalg.eigvalsh(masses)
    witness = tuple((k, float(w[0])) for k, w in enumerate(eigs) if below_psd_cut(w, tol))
    min_eigs = tuple(eigs[:, 0].tolist())
    span = times[-1] - times[0]
    threshold = -tol.tau_residual * scale * max(span, 1.0) ** 2
    rng = np.random.default_rng(seed)
    taper = np.sin(np.pi * (times - times[0]) / span) ** 2

    def evaluate(v):
        return _quadratic_form_measure(phases, masses, masses.sum(axis=0), weights, v)

    mc_min = np.inf
    for _ in range(trials):
        nodes = rng.integers(6, 16)
        coarse = rng.standard_normal((nodes, n)) + 1j * rng.standard_normal((nodes, n))
        coarse_t = np.linspace(times[0], times[-1], nodes)
        rough = np.empty((times.size, n), dtype=complex)
        for c in range(n):
            rough[:, c] = np.interp(times, coarse_t, coarse[:, c].real) + 1j * np.interp(
                times, coarse_t, coarse[:, c].imag
            )
        rough *= taper[:, None]
        norm = np.sqrt(float((weights * (np.abs(rough) ** 2).sum(axis=1)).sum()))
        if norm > 0:
            mc_min = min(mc_min, evaluate(rough / norm))
        if freqs.size:
            if rng.random() < 0.5:
                w_star = float(rng.choice(freqs)) + 0.02 * rng.standard_normal()
            else:
                w_star = float(rng.uniform(freqs.min() - 1.0, freqs.max() + 1.0))
            modulated = taper * (1.0 + 0.2 * rng.random()) * np.exp(-1j * w_star * times)
            direction = np.linalg.eigh(per_atom_profile_form(measure, times, weights, modulated))[1][:, 0]
            shaped = modulated[:, None] * direction[None, :]
            norm = np.sqrt(float((weights * (np.abs(shaped) ** 2).sum(axis=1)).sum()))
            mc_min = min(mc_min, evaluate(shaped / norm))
    mc_min = mc_min if np.isfinite(mc_min) else 0.0
    return {
        "verdict": not witness,
        "mc_pass": mc_min >= threshold,
        "mc_negative_found": mc_min < threshold,
        "witness_atoms": witness,
        "atom_min_eigenvalues": min_eigs,
        "mc_min_value": mc_min,
        "threshold": threshold,
    }


def planted_measures(rng, count):
    """Seeded measures, dim 1-6 and 1-8 atoms, some masses rank deficient;
    every other one carries one indefinite atom."""
    for i in range(count):
        dim = int(rng.integers(1, 7))
        freqs = np.sort(rng.uniform(-3.0, 3.0, int(rng.integers(1, 9))))
        freqs = freqs + 0.05 * np.arange(freqs.size)
        masses = [random_psd(rng, dim) for _ in freqs]
        if i % 2:
            u = haar_unitary(dim, rng)
            spectrum = rng.uniform(0.1, 1.0, dim)
            spectrum[0] = -rng.uniform(0.01, 1.0)
            masses[int(rng.integers(len(masses)))] = u @ np.diag(spectrum) @ u.conj().T
        yield PointMeasure(dim, freqs, masses)


def rank_deficient_measures(rng, count):
    """Seeded measures, dim 1-8 and 1-12 atoms, every mass of rank below dim when dim > 1."""
    for _ in range(count):
        dim = int(rng.integers(1, 9))
        freqs = np.sort(rng.uniform(-3.0, 3.0, int(rng.integers(1, 13))))
        freqs = freqs + np.arange(freqs.size) * 0.05
        masses = [random_psd(rng, dim, rank=int(rng.integers(1, max(dim, 2)))) for _ in freqs]
        yield PointMeasure(dim, freqs, masses)


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
            ref = sum(np.exp(-1j * w * t) * m for w, m in zip(mu.frequencies, mu.masses))
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
        mu = PointMeasure(2, [1.0], [np.diag([1.0, -0.3])])
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
            assert back.frequencies.size == mu.frequencies.size
            for fa, fb, ma, mb in zip(mu.frequencies, back.frequencies, mu.masses, back.masses):
                scale = max(np.abs(ma).max(), 1e-30)
                assert abs(fa - fb) < 1e-9 * max(1.0, abs(fa))
                assert np.max(np.abs(ma - mb)) < 1e-9 * scale

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
        assert back.frequencies.size == mu.frequencies.size
        for ma, mb in zip(mu.masses, back.masses):
            assert np.max(np.abs(ma - mb)) < 1e-9 * max(np.abs(ma).max(), 1.0)

    def test_uncoupled_hidden_modes_dropped(self):
        omega = np.diag([1.0, 2.0, 3.0]).astype(complex)
        sys_ = ConservativeSystem(1, 2, omega)
        assert measure_of(sys_).frequencies.size == 0


class TestRoundTripProperty:
    """measure_of inverts minimal_extension on drawn measures (dim <= 3,
    K <= 4, frequencies at least 0.5 apart, PSD masses of drawn rank), and
    the extension is minimal: the hidden dimension is the sum of the ranks."""

    def test_measure_of_minimal_extension_is_the_measure(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def measures(draw):
            dim = draw(st.integers(1, 3))
            gaps = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4))
            ranks = draw(st.lists(st.integers(1, dim), min_size=len(gaps), max_size=len(gaps)))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            masses = [random_psd(rng, dim, rank=r) for r in ranks]
            return PointMeasure(dim, -3.0 + np.cumsum(gaps), masses), ranks

        @hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
        @hypothesis.given(measures())
        def check(case):
            mu, ranks = case
            ext = minimal_extension(mu)
            back = measure_of(ext)
            assert back.frequencies.size == mu.frequencies.size
            assert np.allclose(back.frequencies, mu.frequencies, rtol=0.0, atol=1e-12)
            for got, want in zip(back.masses, mu.masses):
                assert np.linalg.norm(got - want, 2) <= 1e-9 * np.linalg.norm(want, 2)
            assert ext.n2 == sum(ranks)
            assert minimal_subsystem(ext).n2 == sum(ranks)

        check()

    def test_round_trip_closes_on_created_measures_near_the_merge_cut(self):
        # consecutive gaps of 0.1-10x tau_eig_cluster * max|f| fall on both sides of the
        # cut; create and measure_of merge by one rule, so the atoms come back as created
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        cut = DEFAULT_TOLERANCES.tau_eig_cluster

        @st.composite
        def atoms(draw):
            dim = draw(st.integers(1, 2))
            base = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 100.0))
            ratios = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5))
            freqs = base + np.concatenate(([0.0], np.cumsum(ratios))) * cut * abs(base)
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            return dim, [(f, random_psd(rng, dim)) for f in freqs]

        merged = set()

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(atoms())
        def check(case):
            dim, raw = case
            mu = PointMeasure.create(dim, raw)
            merged.add(mu.frequencies.size < len(raw))
            assert validate(mu).ok
            back = measure_of(minimal_extension(mu))
            assert back.frequencies.size == mu.frequencies.size
            assert np.allclose(back.frequencies, mu.frequencies, rtol=1e-14, atol=0.0)
            for got, want in zip(back.masses, mu.masses):
                assert np.linalg.norm(got - want, 2) <= 1e-9 * np.linalg.norm(want, 2)

        check()
        assert merged == {True, False}

    def test_hidden_dimension_is_unique_across_the_atom_cut(self):
        # atom scales 10^U(-12, 0) fall on both sides of tau_rank * ||a(0)||: the
        # extension, its minimal subsystem and the extension of its measure agree
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def measures(draw):
            dim = draw(st.integers(1, 3))
            gaps = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4))
            scales = draw(st.lists(st.floats(-12.0, 0.0), min_size=len(gaps), max_size=len(gaps)))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            masses = [10.0**e * random_psd(rng, dim) for e in scales]
            return PointMeasure(dim, -3.0 + np.cumsum(gaps), masses)

        dropped = set()

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(measures())
        def check(mu):
            ext = minimal_extension(mu)
            back = measure_of(ext)
            dropped.add(back.frequencies.size < mu.frequencies.size)
            assert minimal_subsystem(ext).n2 == ext.n2
            assert minimal_extension(back).n2 == ext.n2

        check()
        assert dropped == {True, False}

    def test_atom_below_the_cut_is_dropped_by_every_route(self):
        mu = PointMeasure(1, [1.0, 2.0], [[[1.0]], [[1e-10]]])
        ext = minimal_extension(mu)
        assert ext.n2 == 1
        assert minimal_subsystem(ext).n2 == 1
        assert measure_of(ext).frequencies.tolist() == [1.0]


class TestCheckDissipation:
    def test_valid_measure_passes_both_routes(self):
        rng = np.random.default_rng(18)
        mu = random_measure(rng, 2, 3)
        rep = check_dissipation(mu)
        assert rep.verdict is True
        assert rep.algebraic_pass and rep.as_dict()["algebraic_available"] is True
        assert rep.mc_pass
        assert rep.mc_min_value >= rep.threshold
        assert rep.seed == DEFAULT_MC_SEED

    def test_indefinite_measure_fails_with_witness(self):
        mass = np.diag([1.0, -0.4])
        mu = PointMeasure(2, [0.7, 2.0], [mass, np.eye(2)])
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
            mu = PointMeasure(3, [0.5 + 0.3 * k], [mass])
            rep = check_dissipation(mu)
            assert rep.mc_negative_found
            assert rep.trials <= 32

    def test_sampled_kernel_is_rejected(self):
        # samples are checked through their fitted measure, not directly
        mu = random_measure(np.random.default_rng(31), 2, 3)
        with pytest.raises(ValidationError, match="fit_point_measure"):
            check_dissipation(kernel_of_measure(mu, np.linspace(0.0, MC_TIME_SPAN, MC_GRID_POINTS)))

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        mu = random_measure(np.random.default_rng(33), 2, 2)
        with pytest.raises(ValidationError, match="seed"):
            check_dissipation(mu, seed=seed)

    def test_dual_route_same_quadratic_form(self):
        # the per atom factorized form and the direct double sum over
        # sampled kernel values are two routes to one number; on the
        # same grid they must agree to roundoff for every profile
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
        rng = np.random.default_rng(26)
        times, weights = trapezoid_grid()
        for mu in rank_deficient_measures(rng, 6):
            profile = rng.standard_normal(times.size) + 1j * rng.standard_normal(times.size)
            g = rng.standard_normal(mu.dim) + 1j * rng.standard_normal(mu.dim)
            h = _profile_form_matrix(*factor_tables(mu, times, weights), weights, profile)
            direct = _quadratic_form_samples(kernel_of_measure(mu, times).values, weights, profile[:, None] * g)
            assert float(np.real(g.conj() @ h @ g)) == pytest.approx(direct, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("trials", [1, 5, 8, 9, 32])
    def test_batched_trials_match_the_per_trial_loop(self, trials):
        rng, planted = np.random.default_rng(27), 0
        for mu in planted_measures(rng, 12):
            got, ref = check_dissipation(mu, trials=trials).as_dict(), reference_check_dissipation(mu, trials)
            planted += bool(ref["witness_atoms"])
            for key in ("verdict", "mc_pass", "mc_negative_found", "atom_min_eigenvalues", "threshold"):
                assert got[key] == (list(ref[key]) if key == "atom_min_eigenvalues" else ref[key]), key
            assert [(w["atom"], w["min_eigenvalue"]) for w in got["witness_atoms"]] == list(ref["witness_atoms"])
            assert abs(got["mc_min_value"] - ref["mc_min_value"]) <= 1e-6 * abs(ref["threshold"])
        assert planted == 6

    def test_profile_forms_are_the_measure_form(self):
        # the batched route reads lambda_min(H_p) in place of evaluating the
        # form along the worst direction: Q(p d) = d^H H_p d must hold for
        # every profile of a stack
        rng = np.random.default_rng(29)
        times, weights = trapezoid_grid()
        for mu in rank_deficient_measures(rng, 10):
            phases, masses = factor_tables(mu, times, weights)
            profiles = rng.standard_normal((3, times.size)) + 1j * rng.standard_normal((3, times.size))
            forms = _profile_form_matrix(phases, masses, weights, profiles)
            scale = float(np.linalg.norm(mu.total_mass(), 2)) * float(np.max(np.abs(profiles))) ** 2
            for p, h in zip(profiles, forms):
                d = rng.standard_normal(mu.dim) + 1j * rng.standard_normal(mu.dim)
                direct = _quadratic_form_measure(phases, masses, masses.sum(axis=0), weights, p[:, None] * d)
                assert abs(float(np.real(d.conj() @ h @ d)) - direct) <= 1e-12 * scale * float(np.vdot(d, d).real)

    def test_memory_does_not_grow_with_trials(self):
        import tracemalloc

        rng = np.random.default_rng(30)
        mu = random_measure(rng, 64, 32)
        stack_bytes = 32 * 64 * 64 * 16
        tracemalloc.start()
        try:
            check_dissipation(mu, trials=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack_bytes

    def test_no_second_copy_of_the_mass_stack(self):
        import tracemalloc

        rng = np.random.default_rng(32)
        mu = random_measure(rng, 64, 32)
        stack_bytes = 32 * 64 * 64 * 16
        tracemalloc.start()
        try:
            check_dissipation(mu, trials=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes / 2

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
            assert fit.frequencies.size == n_atoms
            scale = np.linalg.norm(mu.total_mass(), 2)
            assert np.max(np.abs(mu.frequencies - fit.frequencies)) < 1e-6
            assert np.max(np.abs(mu.masses - fit.masses)) < 1e-6 * scale

    def test_scalar_two_mode_example(self):
        mu = PointMeasure.create(1, [(1.0, [[2.0]]), (2.5, [[0.5]])])
        times = np.arange(64) * 0.1
        fit = fit_point_measure(kernel_of_measure(mu, times), max_atoms=4)
        assert [round(f, 9) for f in fit.frequencies.tolist()] == [1.0, 2.5]
        assert fit.masses[0, 0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_design_conditioning_is_read_from_lstsq(self, monkeypatch):
        # the Vandermonde condition number comes from the singular values lstsq returns
        mu = PointMeasure.create(1, [(1.0, [[2.0]]), (2.5, [[0.5]])])
        samples = kernel_of_measure(mu, np.arange(64) * 0.1)
        svd, lstsq, shapes = np.linalg.svd, np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
        fit_point_measure(samples, max_atoms=4)
        assert shapes == [(32, 33), (32, 2)]  # the Hankel and the pencil's lower block only

        def flattened(a, b, rcond=None):
            x, res, rank, sv = lstsq(a, b, rcond=rcond)
            return x, res, rank, sv * np.r_[1.0, np.full(sv.size - 1, 1e-11)]

        monkeypatch.setattr(np.linalg, "lstsq", flattened)
        with pytest.raises(FitError, match=r"frequency design matrix is ill-conditioned \(\d\.\d\de\+11\)"):
            fit_point_measure(samples, max_atoms=4)

    def test_zero_samples_give_empty_measure(self):
        times = np.arange(32) * 0.1
        vals = np.zeros((32, 2, 2), dtype=complex)
        fit = fit_point_measure(KernelSamples(times, vals), max_atoms=4)
        assert fit.frequencies.size == 0

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
        assert fit.frequencies.size == 1
        assert fit.frequencies[0] == pytest.approx(w, abs=1e-8)

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
        assert fit.frequencies.size <= 6


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
