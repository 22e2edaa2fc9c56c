"""Quadratic Hamiltonians, oscillator networks, lattices.

The independent oracle for the frequency-domain encoding is classical
velocity-Verlet integration of Newton's equations; for lattices it is a
dense brute-force eigendecomposition of the assembled stiffness.
`frequency_operator` is also held bitwise to a dense route: products
with M^{-1/2} as a diagonal matrix and a principal square root of S.
"""

import warnings

import numpy as np
import pytest

from openext import (
    BudgetError,
    ConservativeSystem,
    LatticeSpec,
    NotPositiveSemidefiniteError,
    QuadraticHamiltonian,
    ToleranceConfig,
    ValidationError,
    cluster_spectrum,
    coupled_parts,
    decode_state,
    eigh,
    encode_state,
    frequency_operator,
    frozen_report,
    lattice_system,
    multiplicity,
    multiplicity_scan,
    orthonormal_basis,
    oscillator_system,
    propagate_conservative,
)


def verlet(mass, stiffness, q0, qdot0, dt, steps):
    """Classical reference integrator for M qddot = -K q."""
    minv = 1.0 / np.diag(mass)
    q = np.array(q0, dtype=float)
    v = np.array(qdot0, dtype=float)
    acc = -minv * (stiffness @ q)
    out = [(q.copy(), v.copy())]
    for _ in range(steps):
        q = q + dt * v + 0.5 * dt * dt * acc
        new_acc = -minv * (stiffness @ q)
        v = v + 0.5 * dt * (acc + new_acc)
        acc = new_acc
        out.append((q.copy(), v.copy()))
    return out


def dense_frequency_operator(h):
    """Omega through dense diagonal products and a principal square root of S."""
    inv_sqrt_m = np.diag(1.0 / np.sqrt(np.diag(h.mass)))
    sym = inv_sqrt_m @ h.stiffness @ inv_sqrt_m
    sym = 0.5 * (sym + sym.T)
    w, v = eigh(sym.astype(np.complex128))
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def seeded_hamiltonian(rng, n, rank):
    """C C^T (+ I when rank == n) with C of size n x rank, non-uniform masses."""
    c = rng.standard_normal((n, rank))
    k = c @ c.T + (np.eye(n) if rank == n else 0.0)
    return QuadraticHamiltonian(tuple(range(n)), np.diag(rng.uniform(0.5, 2.0, n)), k)


def warns_singular(h):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        omega = frequency_operator(h)
    return omega, any("singular" in str(w.message) for w in caught)


LATTICE_SPECS = [
    LatticeSpec(1, 2, 3, 1.0, 2.0, (np.array([1.0, 0.0, 0.0]),)),
    LatticeSpec(2, 1, 3, 1.0, 1.0, (np.array([1.0, 0.0, 0.0]),)),
    LatticeSpec(1, 1, 2, 1.0, 1.5, (np.array([1.0, 0.5]), np.array([0.0, 2.0]))),
    LatticeSpec(1, 2, 2, 1.0, 1.0, (np.array([1.0, 1.0]),)),
    LatticeSpec(2, 1, 2, 0.7, 1.3, (np.array([0.6, 0.8]),)),
]


class TestFrequencyOperator:
    def test_scalar(self):
        h = QuadraticHamiltonian(("q",), np.array([[2.0]]), np.array([[8.0]]))
        omega = frequency_operator(h)
        assert omega[0, 0] == pytest.approx(2.0)

    def test_diagonal(self):
        h = QuadraticHamiltonian(
            ("a", "b"), np.eye(2), np.diag([1.0, 4.0])
        )
        assert np.allclose(frequency_operator(h), np.diag([1.0, 2.0]), atol=1e-12)

    def test_coupled_pair_eigenvalues(self):
        k = np.array([[2.0, -1.0], [-1.0, 2.0]])
        h = QuadraticHamiltonian(("a", "b"), np.eye(2), k)
        w = np.linalg.eigvalsh(frequency_operator(h))
        assert np.allclose(w, [1.0, np.sqrt(3.0)], atol=1e-12)

    def test_mass_weighting(self):
        h = QuadraticHamiltonian(("a",), np.array([[4.0]]), np.array([[4.0]]))
        assert frequency_operator(h)[0, 0] == pytest.approx(1.0)

    def test_singular_stiffness_warns(self):
        h = QuadraticHamiltonian(("a", "b"), np.eye(2), np.diag([1.0, 0.0]))
        with pytest.warns(UserWarning, match="singular"):
            frequency_operator(h)

    def test_bitwise_equal_to_the_dense_route(self):
        rng = np.random.default_rng(67)
        for n in range(1, 13):
            for rank in (n, n - 1, n // 2):
                h = seeded_hamiltonian(rng, n, rank)
                omega, _ = warns_singular(h)
                assert np.array_equal(omega, dense_frequency_operator(h)), (n, rank)
        for spec in LATTICE_SPECS:
            omega, h = lattice_system(spec)
            assert np.array_equal(omega, dense_frequency_operator(h))

    def test_warns_exactly_when_the_stiffness_is_singular(self):
        # a zero eigenvalue of S is rounding of size eps ||S||; on Omega's
        # scale that is sqrt(eps) ||Omega||, above tau_rank, so the cut
        # must be read on S
        rng = np.random.default_rng(68)
        assert all(warns_singular(seeded_hamiltonian(rng, 8, 7))[1] for _ in range(50))
        assert not any(warns_singular(seeded_hamiltonian(rng, 8, 8))[1] for _ in range(50))

    def test_clips_tiny_negative_eigenvalues(self):
        h = QuadraticHamiltonian(("a", "b"), np.eye(2), np.diag([1.0, -1e-14]))
        with pytest.warns(UserWarning, match="singular"):
            omega = frequency_operator(h)
        assert np.array_equal(omega, np.diag([1.0, 0.0]))

    def test_rejects_indefinite_at_a_tighter_residual_cut(self):
        # construction accepts -1e-12 at the default cut; frequency_operator
        # applies its own tolerances to S
        h = QuadraticHamiltonian(("a", "b"), np.eye(2), np.diag([1.0, -1e-12]))
        with pytest.raises(NotPositiveSemidefiniteError):
            frequency_operator(h, ToleranceConfig(tau_residual=1e-14))

    def test_square_is_weighted_stiffness(self):
        rng = np.random.default_rng(60)
        c = rng.standard_normal((4, 4))
        k = c @ c.T + 4 * np.eye(4)
        mass = np.diag(rng.uniform(0.5, 2.0, 4))
        h = QuadraticHamiltonian(tuple(range(4)), mass, k)
        omega = frequency_operator(h)
        root_m = np.sqrt(np.diag(mass))
        target = (k / root_m).T / root_m  # M^-1/2 K M^-1/2
        assert np.allclose(omega @ omega, target.T, atol=1e-10)


class TestEncoding:
    def test_round_trip(self):
        rng = np.random.default_rng(61)
        k = np.diag([1.0, 4.0, 9.0])
        mass = np.diag([1.0, 2.0, 0.5])
        h = QuadraticHamiltonian(tuple(range(3)), mass, k)
        omega = frequency_operator(h)
        q = rng.standard_normal(3)
        qdot = rng.standard_normal(3)
        z = encode_state(omega, mass, q, qdot)
        q2, qdot2 = decode_state(omega, mass, z)
        assert np.allclose(q2, q, atol=1e-12)
        assert np.allclose(qdot2, qdot, atol=1e-12)

    def test_norm_is_twice_energy(self):
        k = np.diag([4.0, 1.0])
        mass = np.eye(2)
        h = QuadraticHamiltonian(("a", "b"), mass, k)
        omega = frequency_operator(h)
        q = np.array([1.0, -2.0])
        qdot = np.array([0.5, 0.25])
        z = encode_state(omega, mass, q, qdot)
        energy = 0.5 * qdot @ mass @ qdot + 0.5 * q @ k @ q
        assert np.linalg.norm(z) ** 2 == pytest.approx(2.0 * energy, rel=1e-12)

    def test_dynamics_match_verlet(self):
        # the encoded state rotates by exp(-i Omega t); decoding it must
        # track the classical trajectory
        rng = np.random.default_rng(62)
        c = rng.standard_normal((3, 3))
        k = c @ c.T + 3 * np.eye(3)
        mass = np.diag([1.0, 1.5, 0.75])
        h = QuadraticHamiltonian(tuple(range(3)), mass, k)
        omega = frequency_operator(h)
        q0 = rng.standard_normal(3)
        v0 = rng.standard_normal(3)
        # step chosen so the reference integrator's own second-order
        # error stays an order of magnitude under the tolerance
        dt = 2.5e-4
        steps = 40_000  # t = 10
        ref = verlet(mass, k, q0, v0, dt, steps)
        z0 = encode_state(omega, mass, q0, v0)
        sys_ = ConservativeSystem(3, 0, omega.astype(complex))
        traj = propagate_conservative(sys_, z0, None, np.array([0.0, 5.0, 10.0]))
        for t, z in [(5.0, traj.states[1]), (10.0, traj.states[2])]:
            q_ref, v_ref = ref[int(round(t / dt))]
            q_got, v_got = decode_state(omega, mass, z)
            assert np.max(np.abs(q_got - q_ref)) < 1e-5
            assert np.max(np.abs(v_got - v_ref)) < 1e-5


class TestOscillatorSystem:
    def make(self, rng, n, j, nh):
        g1 = [rng.standard_normal(n) for _ in range(j)]
        kh = rng.standard_normal((nh, nh))
        kh = kh @ kh.T + nh * np.eye(nh)
        hidden = QuadraticHamiltonian(tuple(range(nh)), np.eye(nh), kh)
        g2 = [rng.standard_normal(nh) for _ in range(j)]
        return oscillator_system(n, 1.0, 2.0, g1, hidden, g2), g1

    def test_dimensions_and_hermiticity(self):
        rng = np.random.default_rng(63)
        sys_, _ = self.make(rng, 3, 2, 2)
        assert sys_.n1 == 3 and sys_.n2 == 2
        assert np.allclose(sys_.omega, sys_.omega.conj().T)

    def test_uncoupled_directions_freeze_at_bare_frequency(self):
        rng = np.random.default_rng(64)
        sys_, g1 = self.make(rng, 4, 2, 3)
        parts = coupled_parts(sys_)
        span = np.linalg.matrix_rank(np.column_stack(g1))
        assert parts.h1d.dim >= 4 - span
        # frozen directions sit at sqrt(xi / m) = sqrt(2)
        if parts.h1d.dim:
            f = parts.h1d.frame
            r = sys_.omega @ f - np.sqrt(2.0) * f
            assert np.max(np.abs(r)) < 1e-9

    def test_generic_coupling_leaves_no_site_frozen(self):
        rng = np.random.default_rng(65)
        sys_, g1 = self.make(rng, 3, 2, 2)
        parts = coupled_parts(sys_)
        for s in range(3):
            e = np.zeros(sys_.dim)
            e[s] = 1.0
            if parts.h1d.dim:
                proj = np.linalg.norm(parts.h1d.frame.conj().T @ e)
                assert proj < 1 - 1e-6

    def test_rejects_indefinite_hidden_stiffness(self):
        # construction itself rejects genuinely indefinite stiffness
        with pytest.raises(ValidationError):
            QuadraticHamiltonian(("b",), np.eye(1), np.array([[-1.0]]))
        # a singular but PSD hidden block passes construction and is
        # refused by the network assembly, which needs strict positivity
        hidden = QuadraticHamiltonian(("b",), np.eye(1), np.array([[0.0]]))
        with pytest.raises(ValidationError):
            oscillator_system(2, 1.0, 1.0, [np.ones(2)], hidden, [np.ones(1)])

    def test_no_interactions_gives_block_diagonal(self):
        hidden = QuadraticHamiltonian(("b",), np.eye(1), np.array([[4.0]]))
        sys_ = oscillator_system(2, 1.0, 1.0, None, hidden, None)
        assert np.max(np.abs(sys_.coupling)) < 1e-12


class TestLattice:
    def test_spec_counts(self):
        spec = LatticeSpec(2, 1, 3, 1.0, 1.0, (np.array([1.0, 0.0, 0.0]),))
        assert spec.volume == 9
        assert spec.total_dim == 27
        assert len(spec.sites) == 9

    def test_budget_enforced(self):
        spec = LatticeSpec(3, 5, 3, 1.0, 1.0, (np.array([1.0, 0.0, 0.0]),))
        with pytest.raises(BudgetError):
            lattice_system(spec)

    def test_single_site_hand_value(self):
        # volume 1, one component: K = xi + 2 gamma^2, omega = sqrt(K/m)
        spec = LatticeSpec(1, 0, 1, 2.0, 3.0, (np.array([0.5]),))
        omega, h = lattice_system(spec)
        assert h.stiffness[0, 0] == pytest.approx(3.0 + 2 * 0.25)
        assert omega[0, 0] == pytest.approx(np.sqrt((3.0 + 0.5) / 2.0))

    def test_three_chain_dirichlet_form(self):
        # d = 1, L = 1, scalar field: forward differences from sites
        # -1, 0, 1 with zero clamped outside give the asymmetric form
        spec = LatticeSpec(1, 1, 1, 1.0, 1.0, (np.array([1.0]),))
        _, h = lattice_system(spec)
        b_expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert np.allclose(h.stiffness, np.eye(3) + 2 * b_expected, atol=1e-12)

    def test_stiffness_matches_quadratic_energy(self):
        # brute force: evaluate the energy expression on random fields
        rng = np.random.default_rng(66)
        gammas = (np.array([1.0, 0.5]), np.array([0.0, 2.0]))
        spec = LatticeSpec(1, 1, 2, 1.0, 1.5, gammas)
        _, h = lattice_system(spec)
        sites = spec.sites
        index = {s: i for i, s in enumerate(sites)}
        for _ in range(5):
            q = rng.standard_normal(spec.total_dim)

            def field(site, g):
                if site not in index:
                    return 0.0
                i = index[site]
                return g @ q[2 * i : 2 * i + 2]

            energy = 0.5 * spec.xi * q @ q
            for g in gammas:
                for s in sites:
                    for axis in range(spec.d):
                        nbr = (s[0] + 1,)
                        energy += (field(nbr, g) - field(s, g)) ** 2
            assert energy == pytest.approx(0.5 * q @ h.stiffness @ q, rel=1e-12)

    def test_frozen_report_exact_small_case(self):
        # d = 1, L = 1, N = 2, one coupling along e2: one frozen
        # component per site
        spec = LatticeSpec(1, 1, 2, 1.0, 1.0, (np.array([0.0, 1.0]),))
        rep = frozen_report(spec)
        assert rep.frozen_dim_complex == 3
        assert rep.frozen_dim_real == 6
        assert rep.frozen_frequency == pytest.approx(1.0)
        assert rep.dim_lower_bound == 3
        assert rep.dim_bound_ok and rep.mult_bound_ok
        assert rep.satisfied
        # brute force: multiplicity of sqrt(xi/m) in the full spectrum
        omega, _ = lattice_system(spec)
        w = np.linalg.eigvalsh(omega)
        exact = int(np.sum(np.abs(w - 1.0) < 1e-9))
        assert exact == rep.frozen_dim_complex

    def test_frozen_directions_are_eigenvectors(self):
        spec = LatticeSpec(1, 2, 3, 1.0, 2.0, (np.array([1.0, 0.0, 0.0]),))
        rep = frozen_report(spec)
        omega, _ = lattice_system(spec)
        f = rep.frozen_subspace.frame
        r = omega @ f - np.sqrt(2.0) * f
        assert np.max(np.abs(r)) < 1e-9
        assert rep.max_frozen_residual < 1e-9

    def test_coupled_multiplicity_bound(self):
        spec = LatticeSpec(1, 2, 2, 1.0, 1.0, (np.array([1.0, 1.0]),))
        rep = frozen_report(spec)
        bound = 1 * spec.volume  # one coupling vector
        assert all(m <= bound for _, m in rep.coupled_mult_per_cluster)
        assert rep.mult_upper_bound == bound

    def test_fully_coupled_lattice_has_no_frozen_part(self):
        spec = LatticeSpec(1, 1, 1, 1.0, 1.0, (np.array([1.0]),))
        rep = frozen_report(spec)
        assert rep.frozen_dim_complex == 0

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_scan_matches_the_clusters_of_dense_omega(self, spec):
        rows = multiplicity_scan(spec, [0, 1, 2])
        for row in rows:
            current = LatticeSpec(spec.d, row.l_half_width, spec.n_components, spec.m, spec.xi, spec.gammas)
            w = np.linalg.eigvalsh(lattice_system(current)[0])
            assert row.max_multiplicity == max(cl.dim for cl in cluster_spectrum(w, float(np.max(np.abs(w)))))

    def test_scan_rows(self):
        spec = LatticeSpec(1, 1, 2, 1.0, 1.0, (np.array([0.0, 1.0]),))
        rows = multiplicity_scan(spec, [0, 1, 2])
        assert [r.l_half_width for r in rows] == [0, 1, 2]
        assert [r.volume for r in rows] == [1, 3, 5]
        for r in rows:
            assert r.max_multiplicity >= r.volume  # frozen part grows with volume
            assert r.ratio <= 1.0 + 1e-12
