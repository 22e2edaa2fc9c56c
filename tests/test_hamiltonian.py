"""Quadratic Hamiltonians, oscillator networks, lattices.

The independent oracle for the frequency-domain encoding is classical
velocity-Verlet integration of Newton's equations; for lattices it is a
dense brute-force eigendecomposition of the assembled stiffness.
`frequency_operator` solves S = M^{-1/2} K M^{-1/2} in real arithmetic;
it is held to a complex dense route (products with M^{-1/2} as a
diagonal matrix and a principal square root of S as a complex Hermitian
matrix), and `frozen_report` to the same route with dense Kronecker
frames.  A lattice's spectrum is held as the Kronecker factors of its
stiffness; `TestFactoredSpectrum` holds it to a dense real solve of
S = K / m, holds K's stencil and `stiffness` to K summed bond by bond,
checks that the certificate applies the stencil to every column of V
once and refuses a wrong factor, a coupling the stencil should not have
and a one-way coupling, and that `stiffness` is the K it checked;
`TestLatticeHolder` bounds a report's memory and holds the Omega formed
from the factors to the dense route, and `TestClosedFormSpectrum` holds
the chain form's closed-form eigenpairs to the assembled chain form.
"""

import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import openext.hamiltonian as hamiltonian
from openext import (
    BudgetError,
    ConservativeSystem,
    LatticeSpec,
    NotPositiveSemidefiniteError,
    NumericError,
    QuadraticHamiltonian,
    ToleranceConfig,
    ValidationError,
    cluster_spectrum,
    coupled_parts,
    eigh,
    frequency_operator,
    frozen_report,
    lattice_system,
    multiplicity,
    multiplicity_scan,
    orthonormal_basis,
    oscillator_system,
    propagate_conservative,
)
from openext.cli import main
from openext.numerics import (
    DEFAULT_TOLERANCES,
    Subspace,
    complement,
    zero_subspace,
)

from conftest import joint_frame


def verlet(mass, stiffness, q0, qdot0, dt, steps):
    """Classical reference integrator for M qddot = -K q, M = diag(mass)."""
    minv = 1.0 / mass
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
    inv_sqrt_m = np.diag(1.0 / np.sqrt(h.mass))
    sym = inv_sqrt_m @ h.stiffness @ inv_sqrt_m
    sym = 0.5 * (sym + sym.T)
    w, v = eigh(sym.astype(np.complex128))
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def dense_frozen_report(spec):
    """Frozen dimension, coupled clusters, bound verdicts and ||Omega||_2
    through the complex dense Omega and dense Kronecker frames."""
    omega = dense_frequency_operator(lattice_system(spec)[1])
    e_gamma = orthonormal_basis(np.stack(spec.gammas).T.astype(np.complex128))
    eye = np.eye(spec.volume)
    frozen = np.kron(eye, complement(e_gamma).frame)
    coupled = np.kron(eye, e_gamma.frame)
    restricted = coupled.conj().T @ omega @ coupled
    w = np.linalg.eigvalsh(0.5 * (restricted + restricted.conj().T))
    per = [(cl.value, cl.dim) for cl in cluster_spectrum(w)]
    return {
        "frozen_dim_complex": frozen.shape[1],
        "clusters": per,
        "dim_bound_ok": frozen.shape[1] >= (spec.n_components - e_gamma.dim) * spec.volume,
        "mult_bound_ok": max(m for _, m in per) <= len(spec.gammas) * spec.volume,
        "omega_norm": float(np.linalg.norm(omega, 2)),
    }


def seeded_hamiltonian(rng, n, rank):
    """C C^T (+ I when rank == n) with C of size n x rank, non-uniform masses."""
    c = rng.standard_normal((n, rank))
    k = c @ c.T + (np.eye(n) if rank == n else 0.0)
    return QuadraticHamiltonian(rng.uniform(0.5, 2.0, n), k)


def warns_singular(build):
    """Build a Hamiltonian and its Omega, and whether either step warned that K is singular."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = build()
        omega = frequency_operator(h)
    return h, omega, any("singular" in str(w.message) for w in caught)


def lattice_sites(spec):
    """The sites of the cube in the lattice's order, the first axis slowest."""
    return list(itertools.product(range(-spec.l_half_width, spec.l_half_width + 1), repeat=spec.d))


LATTICE_SPECS = [
    LatticeSpec(1, 2, 3, 1.0, 2.0, (np.array([1.0, 0.0, 0.0]),)),
    LatticeSpec(2, 1, 3, 1.0, 1.0, (np.array([1.0, 0.0, 0.0]),)),
    LatticeSpec(1, 1, 2, 1.0, 1.5, (np.array([1.0, 0.5]), np.array([0.0, 2.0]))),
    LatticeSpec(1, 2, 2, 1.0, 1.0, (np.array([1.0, 1.0]),)),
    LatticeSpec(2, 1, 2, 0.7, 1.3, (np.array([0.6, 0.8]),)),
]

# the specs above plus the two hand cases of TestLattice
REPORT_SPECS = LATTICE_SPECS + [
    LatticeSpec(1, 1, 2, 1.0, 1.0, (np.array([0.0, 1.0]),)),
    LatticeSpec(1, 1, 1, 1.0, 1.0, (np.array([1.0]),)),
]


# gamma_1 = Q e_1, gamma_2 = Q (e_1 + delta e_2) at d = 1, L = 2, N = 3: singular values ~ sqrt(2) and delta / sqrt(2)
NEAR_NULL_ROTATIONS = [np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0] for seed in (89, 97, 101)]


def near_null_lattice(delta, q):
    return LatticeSpec(1, 2, 3, 1.0, 1.0, (q @ np.array([1.0, 0.0, 0.0]), q @ np.array([1.0, delta, 0.0])))


def near_null_argument(spec):
    return ";".join(",".join(repr(float(x)) for x in g) for g in spec.gammas)


class TestFrequencyOperator:
    def test_scalar(self):
        h = QuadraticHamiltonian(np.array([2.0]), np.array([[8.0]]))
        omega = frequency_operator(h)
        assert omega[0, 0] == pytest.approx(2.0)

    def test_diagonal(self):
        h = QuadraticHamiltonian(np.ones(2), np.diag([1.0, 4.0]))
        assert np.allclose(frequency_operator(h), np.diag([1.0, 2.0]), atol=1e-12)

    def test_coupled_pair_eigenvalues(self):
        k = np.array([[2.0, -1.0], [-1.0, 2.0]])
        h = QuadraticHamiltonian(np.ones(2), k)
        w = np.linalg.eigvalsh(frequency_operator(h))
        assert np.allclose(w, [1.0, np.sqrt(3.0)], atol=1e-12)

    def test_mass_weighting(self):
        h = QuadraticHamiltonian(np.array([4.0]), np.array([[4.0]]))
        assert frequency_operator(h)[0, 0] == pytest.approx(1.0)

    def test_singular_stiffness_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            frequency_operator(QuadraticHamiltonian(np.ones(2), np.diag([1.0, 0.0])))
        assert [str(w.message).split(":")[0] for w in caught] == ["stiffness is singular"]
        with pytest.warns(UserWarning, match="singular"):
            h = QuadraticHamiltonian(np.ones(2), np.diag([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frequency_operator(h)

    @pytest.mark.parametrize(
        "mass",
        [np.eye(2), np.ones((2, 1)), np.array(1.0), np.array([1.0, np.inf]), np.array([np.nan, 1.0]),
         np.array([1.0, 0.0]), np.array([-1.0, 1.0]), np.ones(3)],
    )
    def test_rejects_a_mass_that_is_not_a_vector_of_finite_positive_masses(self, mass):
        with pytest.raises(ValidationError):
            QuadraticHamiltonian(mass, np.diag([1.0, 4.0]))

    def test_keeps_the_tolerances_it_was_built_with(self):
        loose = ToleranceConfig(tau_rank=1e-6)
        assert QuadraticHamiltonian(np.ones(1), np.eye(1)).tol is DEFAULT_TOLERANCES
        assert QuadraticHamiltonian(np.ones(1), np.eye(1), loose).tol is loose
        # w_min = 1e-7 w_max is singular at tau_rank = 1e-6 and not at the default 1e-9
        QuadraticHamiltonian(np.ones(2), np.diag([1.0, 1e-7]))
        with pytest.warns(UserWarning, match="singular"):
            QuadraticHamiltonian(np.ones(2), np.diag([1.0, 1e-7]), loose)

    def test_agrees_with_the_complex_dense_route(self):
        # On a nonsingular S the two routes agree to rounding.  Where S is
        # singular its zero eigenvalues come out as rounding of size
        # eps ||S||, and their square roots, of size sqrt(eps) ||Omega||,
        # differ between any two backward-stable solves; there the bound
        # is sqrt(1e-13 ||S||_2), what ||A^1/2 - B^1/2||_2 <= ||A - B||_2^1/2
        # (PSD A, B; Ando) gives for squares 1e-13 ||S||_2 apart.
        rng = np.random.default_rng(67)
        cases = [
            (lambda n=n, rank=rank: seeded_hamiltonian(rng, n, rank), rank < n)
            for n in range(1, 13)
            for rank in (n, n - 1, n // 2)
        ]
        cases += [(lambda spec=spec: lattice_system(spec)[1], False) for spec in LATTICE_SPECS]
        for build, singular in cases:
            h, omega, warned = warns_singular(build)
            assert warned == singular
            assert omega.dtype == np.float64
            r = 1.0 / np.sqrt(h.mass)
            sym = (r[:, None] * h.stiffness) * r[None, :]
            s_norm = np.linalg.norm(sym, 2)
            assert np.linalg.norm(omega @ omega - sym, 2) <= 1e-13 * s_norm
            gap = np.linalg.norm(omega - dense_frequency_operator(h), 2)
            if singular:
                assert gap <= np.sqrt(1e-13 * s_norm)
            else:
                assert gap <= 1e-13 * np.linalg.norm(omega, 2)

    def test_omega_is_exactly_symmetric(self):
        # X X^T with X = V diag(w^1/4) is one symmetric rank-k update
        rng = np.random.default_rng(71)
        hams = [lattice_system(spec)[1] for spec in LATTICE_SPECS]
        hams += [seeded_hamiltonian(rng, n, n) for n in (1, 5, 12)]
        for h in hams:
            omega = frequency_operator(h)
            assert np.array_equal(omega, omega.T)
            dense = dense_frequency_operator(h)
            assert np.linalg.norm(omega - dense, 2) <= 1e-12 * np.linalg.norm(dense, 2)
        system, _ = TestOscillatorSystem().make(rng, 4, 2, 3)
        assert np.array_equal(system.omega, system.omega.conj().T)

    def test_warns_exactly_when_the_stiffness_is_singular(self):
        # a zero eigenvalue of S is rounding of size eps ||S||; on Omega's
        # scale that is sqrt(eps) ||Omega||, above tau_rank, so the cut
        # must be read on S
        rng = np.random.default_rng(68)
        assert all(warns_singular(lambda: seeded_hamiltonian(rng, 8, 7))[2] for _ in range(50))
        assert not any(warns_singular(lambda: seeded_hamiltonian(rng, 8, 8))[2] for _ in range(50))

    def test_clips_tiny_negative_eigenvalues(self):
        with pytest.warns(UserWarning, match="singular"):
            omega = frequency_operator(QuadraticHamiltonian(np.ones(2), np.diag([1.0, -1e-14])))
        assert np.array_equal(omega, np.diag([1.0, 0.0]))

    def test_rejects_indefinite_at_a_tighter_residual_cut(self):
        # construction accepts -1e-12 at the default cut, as a singular
        # stiffness, and refuses it under the tolerances it is given
        with pytest.warns(UserWarning, match="singular"):
            QuadraticHamiltonian(np.ones(2), np.diag([1.0, -1e-12]))
        with pytest.raises(NotPositiveSemidefiniteError):
            QuadraticHamiltonian(np.ones(2), np.diag([1.0, -1e-12]), ToleranceConfig(tau_residual=1e-14))

    def test_stiffness_takes_the_hermitian_rule(self):
        # the bound is tau_herm * (1 + max|k|) = 5e-10: an asymmetry of 6e-10 fails, 4.5e-10 passes
        with pytest.raises(ValidationError, match="stiffness is not Hermitian"):
            QuadraticHamiltonian(np.ones(2), np.array([[4.0, 1.0 + 6e-10], [1.0, 4.0]]))
        h = QuadraticHamiltonian(np.ones(2), np.array([[4.0, 1.0 + 4.5e-10], [1.0, 4.0]]))
        assert np.array_equal(h.stiffness, h.stiffness.T)

    def test_square_is_weighted_stiffness(self):
        rng = np.random.default_rng(60)
        c = rng.standard_normal((4, 4))
        k = c @ c.T + 4 * np.eye(4)
        mass = rng.uniform(0.5, 2.0, 4)
        h = QuadraticHamiltonian(mass, k)
        omega = frequency_operator(h)
        root_m = np.sqrt(mass)
        target = (k / root_m).T / root_m  # M^-1/2 K M^-1/2
        assert np.allclose(omega @ omega, target.T, atol=1e-10)


def encode_state(omega, mass, q, qdot):
    """Complex state z = M^{1/2} qdot - i Omega M^{1/2} q, M = diag(mass)."""
    m_sqrt = np.sqrt(mass)
    return m_sqrt * qdot - 1j * (omega @ (m_sqrt * q))


def decode_state(omega, mass, z):
    """Invert encode_state; requires Omega nonsingular."""
    m_sqrt = np.sqrt(mass)
    return np.linalg.solve(omega, -z.imag) / m_sqrt, z.real / m_sqrt


class TestCallersArrays:
    def test_the_hamiltonian_stores_copies_of_mass_and_stiffness(self):
        mass, k = np.array([1.0, 2.0]), np.array([[2.0, -1.0], [-1.0, 2.0]])
        h = QuadraticHamiltonian(mass, k)
        assert mass.flags.writeable and k.flags.writeable
        assert not h.mass.flags.writeable and not h.stiffness.flags.writeable
        mass[0], k[0, 0] = 5.0, 9.0
        assert h.mass[0] == 1.0 and h.stiffness[0, 0] == 2.0
        fresh = QuadraticHamiltonian([1.0, 2.0], [[2.0, -1.0], [-1.0, 2.0]])
        assert frequency_operator(h).tobytes() == frequency_operator(fresh).tobytes()


class TestEncoding:
    """Omega's physics through the encoding z = M^{1/2} qdot - i Omega M^{1/2} q."""

    def test_norm_is_twice_energy(self):
        k = np.diag([4.0, 1.0])
        mass = np.ones(2)
        h = QuadraticHamiltonian(mass, k)
        omega = frequency_operator(h)
        q = np.array([1.0, -2.0])
        qdot = np.array([0.5, 0.25])
        z = encode_state(omega, mass, q, qdot)
        energy = 0.5 * qdot @ (mass * qdot) + 0.5 * q @ k @ q
        assert np.linalg.norm(z) ** 2 == pytest.approx(2.0 * energy, rel=1e-12)

    def test_dynamics_match_verlet(self):
        # the encoded state rotates by exp(-i Omega t); decoding it must
        # track the classical trajectory
        rng = np.random.default_rng(62)
        c = rng.standard_normal((3, 3))
        k = c @ c.T + 3 * np.eye(3)
        mass = np.array([1.0, 1.5, 0.75])
        h = QuadraticHamiltonian(mass, k)
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
        hidden = QuadraticHamiltonian(np.ones(nh), kh)
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
            f = joint_frame(sys_, parts.h1d, zero_subspace(sys_.n2))
            r = sys_.omega @ f - np.sqrt(2.0) * f
            assert np.max(np.abs(r)) < 1e-9

    def test_generic_coupling_leaves_no_site_frozen(self):
        rng = np.random.default_rng(65)
        sys_, g1 = self.make(rng, 3, 2, 2)
        parts = coupled_parts(sys_)
        for s in range(3):
            e = np.zeros(sys_.n1)
            e[s] = 1.0
            if parts.h1d.dim:
                proj = np.linalg.norm(parts.h1d.frame.conj().T @ e)
                assert proj < 1 - 1e-6

    def test_rejects_indefinite_hidden_stiffness(self):
        # construction itself rejects genuinely indefinite stiffness
        with pytest.raises(ValidationError):
            QuadraticHamiltonian(np.ones(1), np.array([[-1.0]]))
        # a singular but PSD hidden block passes construction, with its
        # warning, and is refused by the network assembly, which needs
        # strict positivity
        with pytest.warns(UserWarning, match="singular"):
            hidden = QuadraticHamiltonian(np.ones(1), np.array([[0.0]]))
        with pytest.raises(ValidationError):
            oscillator_system(2, 1.0, 1.0, [np.ones(2)], hidden, [np.ones(1)])

    def test_no_interactions_gives_block_diagonal(self):
        hidden = QuadraticHamiltonian(np.ones(1), np.array([[4.0]]))
        sys_ = oscillator_system(2, 1.0, 1.0, None, hidden, None)
        assert np.max(np.abs(sys_.coupling)) < 1e-12


class TestLattice:
    def test_spec_counts(self):
        spec = LatticeSpec(2, 1, 3, 1.0, 1.0, (np.array([1.0, 0.0, 0.0]),))
        assert spec.volume == 9
        assert spec.total_dim == 27
        assert len(lattice_sites(spec)) == 9

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
        sites = lattice_sites(spec)
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

    def test_bound_verdicts_are_read_off_the_stored_counts(self):
        rep = hamiltonian.FrozenReport(np.zeros((2, 1)), 3, 1.0, ((1.0, 2), (2.0, 4)), 3, 3, 0.0)
        assert rep.frozen_dim_real == 6 and rep.dim_bound_ok
        assert rep.mult_bound_ok is False and rep.satisfied is False
        d = rep.as_dict()
        assert (d["frozen_dim_real"], d["dim_bound_ok"], d["mult_bound_ok"], d["satisfied"]) == (6, True, False, False)

    def test_frozen_directions_are_eigenvectors(self):
        spec = LatticeSpec(1, 2, 3, 1.0, 2.0, (np.array([1.0, 0.0, 0.0]),))
        rep = frozen_report(spec)
        omega, _ = lattice_system(spec)
        f = np.kron(np.eye(spec.volume), rep.site_frozen_frame)
        r = omega @ f - np.sqrt(2.0) * f
        assert np.max(np.abs(r)) < 1e-9
        assert rep.max_frozen_residual < 1e-9

    def test_failed_frozen_check_is_a_numeric_error(self, monkeypatch, capsys):
        # a valid spec whose Omega misses the frozen eigenvectors is a
        # computation failing (exit 2), not a rejected input (exit 1)
        build = hamiltonian.lattice_system

        def shifted(spec, tol=DEFAULT_TOLERANCES):
            omega, h = build(spec, tol)
            return omega + 1e-6 * np.eye(omega.shape[0]), h

        monkeypatch.setattr(hamiltonian, "lattice_system", shifted)
        with pytest.raises(NumericError, match="frozen directions"):
            frozen_report(LatticeSpec(1, 2, 3, 1.0, 2.0, (np.array([1.0, 0.0, 0.0]),)))
        assert main(["lattice", "--d", "1", "--L", "2", "--N", "3", "--J", "1", "--xi", "2",
                     "--gammas", "1,0,0"]) == 2
        assert "frozen directions" in capsys.readouterr().err

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

    def test_frozen_count_is_the_couplings_null_space_per_site(self):
        # the specific-heat statement: (N - rank Gamma) V directions freeze,
        # with rank Gamma < J where one coupling vector is a multiple of another
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def specs(draw):
            d, l_half_width = draw(st.integers(1, 3)), draw(st.integers(0, 2))
            n = draw(st.integers(1, min(4, 200 // (2 * l_half_width + 1) ** d)))
            gammas = []
            for _ in range(draw(st.integers(1, 3))):
                if gammas and draw(st.booleans()):
                    factor = draw(st.sampled_from([2.0, -1.0, 0.5]))
                    gammas.append(factor * gammas[draw(st.integers(0, len(gammas) - 1))])
                else:
                    entries = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
                    gammas.append(np.array(entries, dtype=float))
            m, xi = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
            return LatticeSpec(d, l_half_width, n, m, xi, tuple(gammas))

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(specs())
        @hypothesis.example(LatticeSpec(1, 3, 3, 1.0, 1.0, (np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))))
        def check(spec):
            rank = np.linalg.matrix_rank(np.stack(spec.gammas))
            rep = frozen_report(spec)
            assert rep.frozen_dim_complex == (spec.n_components - rank) * spec.volume
            assert rep.satisfied

        check()

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_scan_matches_the_clusters_of_dense_omega(self, spec):
        rows = multiplicity_scan(spec, [0, 1, 2])
        for row in rows:
            current = LatticeSpec(spec.d, row.l_half_width, spec.n_components, spec.m, spec.xi, spec.gammas)
            w = np.linalg.eigvalsh(lattice_system(current)[0])
            assert row.max_multiplicity == max(cl.dim for cl in cluster_spectrum(w))

    @pytest.mark.parametrize("spec", REPORT_SPECS)
    def test_report_agrees_with_the_complex_dense_route(self, spec):
        rep, dense = frozen_report(spec), dense_frozen_report(spec)
        # real gammas give real frames: dropping the imaginary part loses nothing
        assert rep.site_frozen_frame.dtype == np.float64
        assert not np.any(complement(orthonormal_basis(np.stack(spec.gammas).T.astype(complex))).frame.imag)
        assert rep.frozen_dim_complex == dense["frozen_dim_complex"]
        assert rep.dim_bound_ok == dense["dim_bound_ok"]
        assert rep.mult_bound_ok == dense["mult_bound_ok"]
        assert [m for _, m in rep.coupled_mult_per_cluster] == [m for _, m in dense["clusters"]]
        for (v, _), (w, _) in zip(rep.coupled_mult_per_cluster, dense["clusters"]):
            assert abs(v - w) <= 1e-12 * abs(w)
        assert rep.max_frozen_residual <= DEFAULT_TOLERANCES.tau_residual * max(dense["omega_norm"], 1.0)

    def test_scan_rows(self):
        spec = LatticeSpec(1, 1, 2, 1.0, 1.0, (np.array([0.0, 1.0]),))
        rows = multiplicity_scan(spec, [0, 1, 2])
        assert [r.l_half_width for r in rows] == [0, 1, 2]
        assert [r.volume for r in rows] == [1, 3, 5]
        for r in rows:
            assert r.max_multiplicity >= r.volume  # frozen part grows with volume
            assert r.ratio <= 1.0 + 1e-12

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-8, 3e-9])
    @pytest.mark.parametrize("rotation", range(len(NEAR_NULL_ROTATIONS)))
    def test_a_direction_g_cannot_resolve_is_a_numeric_error(self, delta, rotation, tmp_path, capsys):
        # the rank cut keeps gamma_2's component delta / sqrt(2) of the stack's singular values, G holds its square
        spec = near_null_lattice(delta, NEAR_NULL_ROTATIONS[rotation])
        message = r"G = Gamma\^T Gamma cannot resolve: singular value ratio (\S+) <= sqrt\(tau_rank\) = 3.162e-05 "
        with pytest.raises(NumericError, match=message + r"\(worst frozen-weight margin \S+\)") as caught:
            frozen_report(spec)
        assert float(re.search(message, str(caught.value)).group(1)) == pytest.approx(delta / 2, rel=1e-6)
        argv = ["lattice", "--d", "1", "--L", "2", "--N", "3", "--gammas=" + near_null_argument(spec),
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert "cannot resolve" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("delta,j_eff", [(1e-4, 2), (1e-9, 1)])
    def test_a_direction_g_resolves_or_the_cut_drops_gives_a_report(self, delta, j_eff, capsys):
        for q in NEAR_NULL_ROTATIONS:
            spec = near_null_lattice(delta, q)
            rep = frozen_report(spec)
            assert rep.frozen_dim_complex == (3 - j_eff) * 5 and rep.satisfied
            assert main(["lattice", "--d", "1", "--L", "2", "--N", "3", "--gammas=" + near_null_argument(spec)]) == 0
            assert json.loads(capsys.readouterr().out)["frozen_dim_complex"] == (3 - j_eff) * 5

    @pytest.mark.parametrize("name", ["m", "xi", "gamma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spec_rejects_non_finite_entries(self, name, bad):
        args = {"m": 1.0, "xi": 1.0, "gamma": 0.5}
        args[name] = bad
        with pytest.raises(ValidationError, match="finite"):
            LatticeSpec(1, 1, 2, args["m"], args["xi"], (np.array([1.0, args["gamma"]]),))

    @pytest.mark.parametrize("gammas", ["1e-200,5e-201", "1e-170,1e-170", "1e-160,1e-160", "1e160,1", "1,0;1e-200,0"])
    def test_spec_rejects_a_coupling_whose_square_leaves_the_float_range(self, gammas, capsys):
        # G = sum_j gamma_j gamma_j^T holds each |gamma_j|^2, which must be a
        # normal float: the vector is named, the exit is 1, nothing warns
        index = gammas.count(";")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"coupling vector {index} (under|over)flows"):
                LatticeSpec(1, 2, 2, 1.0, 1.0, tuple(np.array(g.split(","), dtype=float) for g in gammas.split(";")))
            assert main(["lattice", "--d", "1", "--L", "2", "--N", "2", "--gammas", gammas]) == 1
        assert capsys.readouterr().err.startswith(f"error: the squared norm of coupling vector {index}")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--gammas", "1.3e154,1"),  # |gamma|^2 = 1.69e308 is a float, 8 d |gamma|^2 in S's bound is not
            ("--gammas", "1,1", "--m", "1e-310"),  # S = K / m overflows
            ("--gammas", "1,1", "--xi", "1e308", "--m", "0.5"),  # xi / m overflows
            ("--gammas", "1e154,0;1e154,0"),  # each square a float, their sum past the range
        ],
        ids=["gamma", "mass", "xi", "sum"],
    )
    def test_spec_rejects_operators_past_the_float_range(self, flags, capsys):
        # the bound on the spectrum of S, whose numerator bounds K too, refuses
        # the spec before anything is formed: exit 1, nothing warns
        argv = ["lattice", "--d", "1", "--L", "2", "--N", "2", *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: the lattice leaves the float range")
        values = dict(zip(flags[2::2], map(float, flags[3::2])))
        gammas = tuple(np.array(g.split(","), dtype=float) for g in flags[1].split(";"))
        with pytest.raises(ValidationError, match="leaves the float range"):
            LatticeSpec(1, 2, 2, values.get("--m", 1.0), values.get("--xi", 1.0), gammas)

    @pytest.mark.parametrize("flags", [("--gammas", "4e153,1"), ("--gammas", "1,1", "--m", "1e-307"),
                                       ("--gammas", "1,1", "--xi", "1e307"),
                                       ("--gammas", "1,1", "--xi", "1.5e308", "--m", "2")])
    def test_spec_near_the_float_range_reports_without_warnings(self, flags, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)  # a stiffness singular to rounding is reported as such
            assert main(["lattice", "--d", "1", "--L", "2", "--N", "2", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["satisfied"] is True

    @pytest.mark.parametrize("sizes", [(1.5, 2, 1), (1, 2.5, 1), (1, 2, 1.0), (True, 2, 1), (1, "2", 1), (1, None, 1)])
    def test_spec_takes_integer_sizes_only(self, sizes):
        with pytest.raises(ValidationError, match="must be an integer"):
            LatticeSpec(*sizes, 1.0, 1.0, (np.array([1.0]),))

    def test_spec_keeps_numpy_integer_sizes_as_ints(self):
        spec = LatticeSpec(np.int64(2), np.int32(1), np.uint8(2), 1.0, 1.0, (np.array([1.0, 0.5]),))
        assert (spec.d, spec.l_half_width, spec.n_components) == (2, 1, 2)
        assert all(type(x) is int for x in (spec.d, spec.l_half_width, spec.n_components, spec.total_dim))

    @pytest.mark.parametrize("l_values", [[2.7], ["3"], [1, 2.0], [False]])
    def test_scan_takes_integer_half_widths_only(self, l_values):
        spec = LatticeSpec(1, 1, 2, 1.0, 1.0, (np.array([0.0, 1.0]),))
        with pytest.raises(ValidationError, match="l_half_width must be an integer"):
            multiplicity_scan(spec, l_values)


def per_site_dirichlet_form(spec):
    """The gradient form summed bond by bond over the sites: B of the
    reference K that the stencil is held to."""
    sites = lattice_sites(spec)
    index = {s: i for i, s in enumerate(sites)}
    b = np.zeros((len(sites), len(sites)))
    for s in sites:
        i = index[s]
        for axis in range(spec.d):
            neighbor = tuple(c + (1 if a == axis else 0) for a, c in enumerate(s))
            b[i, i] += 1.0
            j = index.get(neighbor)
            if j is not None:
                b[j, j] += 1.0
                b[i, j] -= 1.0
                b[j, i] -= 1.0
    return b


def reference_stiffness(spec):
    """K = xi I + 2 sum_j B kron gamma_j gamma_j^T, assembled densely from the per-site form."""
    b, k = per_site_dirichlet_form(spec), spec.xi * np.eye(spec.total_dim)
    for g in spec.gammas:
        k += 2.0 * np.kron(b, np.outer(g, g))
    return k


def seeded_lattice(rng, d, l_half_width, n, j):
    gammas = tuple(rng.standard_normal(n) for _ in range(j))
    return LatticeSpec(d, l_half_width, n, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)), gammas)


# d = 1, 2, 3, each with J < N and J = N; masses drawn away from 1
_rng = np.random.default_rng(69)
FACTORED_SPECS = [
    seeded_lattice(_rng, d, l_half_width, n, j)
    for d, l_half_width, n, j in [(1, 4, 3, 1), (1, 3, 2, 2), (2, 2, 3, 2), (2, 1, 2, 2), (3, 1, 3, 1), (3, 1, 2, 2)]
]


# one lattice per d, its first and last sites far from neighbors
FAR_CORNER_SPECS = [
    LatticeSpec(1, 50, 2, 1.2, 0.8, (np.array([0.6, -1.1]),)),
    LatticeSpec(2, 7, 2, 0.9, 1.4, (np.array([1.3, 0.4]),)),
    LatticeSpec(3, 3, 1, 1.1, 0.7, (np.array([0.9]),)),
]

# the lattice shapes of the benchmark (d, L, N, J), each scan at its largest L
_rng = np.random.default_rng(79)
BENCHMARK_SHAPES = [
    seeded_lattice(_rng, d, l_half_width, n, j)
    for d, l_half_width, n, j in [(1, 50, 1, 1), (2, 5, 3, 1), (1, 100, 2, 1), (1, 150, 1, 1), (3, 2, 4, 2),
                                  (2, 7, 3, 2), (2, 10, 2, 1), (1, 30, 3, 1), (1, 40, 2, 1), (2, 6, 2, 1),
                                  (3, 4, 1, 1)]
]

# fields the seeded specs do not reach: a zero entry, parallel fields, more fields than components,
# one site, and a single column to apply the stencil to
SPECIAL_FIELDS = [
    ("zero_entry", LatticeSpec(2, 3, 3, 1.1, 0.9, (np.array([0.8, 0.0, -1.2]),)), 7),
    ("parallel", LatticeSpec(2, 2, 2, 0.7, 1.3, (np.array([0.5, -0.9]), np.array([-1.0, 1.8]))), 7),
    ("j_above_n", LatticeSpec(1, 6, 2, 1.2, 0.6, (np.array([1.0, 0.3]), np.array([-0.4, 0.7]),
                                                  np.array([0.9, 0.9]))), 7),
    ("one_site", LatticeSpec(3, 0, 3, 0.8, 1.1, (np.array([0.6, 1.4, -0.2]),)), 7),
    ("one_column", LatticeSpec(3, 2, 2, 1.4, 0.8, (np.array([1.1, -0.5]),)), 1),
]


class TestFactoredSpectrum:
    @pytest.mark.parametrize("d,l_half_width", [(1, 0), (1, 1), (1, 6), (2, 0), (2, 1), (2, 3), (3, 1), (3, 2)])
    def test_stiffness_is_the_per_site_sum(self, d, l_half_width):
        spec = LatticeSpec(d, l_half_width, 2, 1.3, 0.9, (np.array([0.7, -1.3]), np.array([0.2, 0.9])))
        k, ref = lattice_system(spec)[1].stiffness, reference_stiffness(spec)
        assert np.array_equal(k, k.T) and not k.flags.writeable
        assert np.max(np.abs(k - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("spec", FACTORED_SPECS)
    def test_matches_the_dense_solve(self, spec):
        assert spec.m != 1.0
        omega, h = lattice_system(spec)
        w = h.eigenvalues
        ref_w, ref_v = np.linalg.eigh(h.stiffness / spec.m)
        assert np.all(np.abs(w - ref_w) <= 1e-12 * np.abs(ref_w))
        freqs, ref_freqs = np.sqrt(w), np.sqrt(ref_w)
        dims = [cl.dim for cl in cluster_spectrum(freqs)]
        assert dims == [cl.dim for cl in cluster_spectrum(ref_freqs)]
        ref_omega = (ref_v * ref_freqs) @ ref_v.T
        assert np.linalg.norm(omega - ref_omega, 2) <= 1e-12 * np.linalg.norm(ref_omega, 2)

    def test_a_corrupted_factor_fails_the_certificate(self, monkeypatch, tmp_path, capsys):
        spec = LatticeSpec(1, 2, 3, 1.3, 0.8, (np.array([1.0, 0.5, -0.2]),))

        def corrupting(size):
            # the eigenpairs of the chain form with its first site clamped too: exact, but of another T
            chain = chain_form(size)
            chain[0, 0] = 2.0
            return eigh(chain)

        monkeypatch.setattr(hamiltonian, "_chain_spectrum", corrupting)
        with pytest.raises(NumericError, match="certificate"):
            lattice_system(spec)
        with pytest.raises(NumericError, match="certificate"):
            multiplicity_scan(spec, [1, 2])
        argv = ["lattice", "--d", "1", "--L", "2", "--N", "3", "--J", "1", "--m", "1.3", "--xi", "0.8",
                "--gammas=1,0.5,-0.2", "--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert "certificate" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_a_nan_fails_the_certificate(self, monkeypatch):
        chain = hamiltonian._chain_spectrum
        for factor in (0, 1):  # a NaN eigenvalue, then a NaN eigenvector entry, of the chain form

            def with_a_nan(size, factor=factor):
                pair = [np.array(x) for x in chain(size)]
                pair[factor][(3,) * pair[factor].ndim] = np.nan
                return tuple(pair)

            monkeypatch.setattr(hamiltonian, "_chain_spectrum", with_a_nan)
            with pytest.raises(NumericError, match="certificate"):
                lattice_system(FACTORED_SPECS[0])

    def test_the_certificate_reads_the_given_tolerances(self):
        spec = LatticeSpec(2, 3, 2, 1.0, 1.0, (np.array([1.0, 0.5]),))
        tight = ToleranceConfig(tau_residual=1e-22)
        lattice_system(spec)
        with pytest.raises(NumericError, match="certificate"):
            lattice_system(spec, tight)
        with pytest.raises(NumericError, match="certificate"):
            multiplicity_scan(spec, [1], tight)
        with pytest.raises(NumericError, match="certificate"):
            frozen_report(spec, tight)

    @pytest.mark.parametrize("spec", FAR_CORNER_SPECS, ids=lambda s: f"d{s.d}")
    def test_a_coupling_of_the_first_and_last_site_fails_the_certificate(self, spec, monkeypatch, capsys):
        stencil, n = hamiltonian._apply_stiffness, spec.n_components

        def coupled(spec, x):
            kx = stencil(spec, x)
            kx[:n] += 1e-3 * x[-n:]
            kx[-n:] += 1e-3 * x[:n]
            return kx

        monkeypatch.setattr(hamiltonian, "_apply_stiffness", coupled)
        with pytest.raises(NumericError, match="certificate"):
            lattice_system(spec)
        argv = ["lattice", "--d", str(spec.d), "--L", str(spec.l_half_width), "--N", str(n), "--m", repr(spec.m),
                "--xi", repr(spec.xi), "--gammas=" + ",".join(map(repr, spec.gammas[0].tolist()))]
        assert main(argv) == 2
        assert "certificate" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", FACTORED_SPECS + BENCHMARK_SHAPES,
                             ids=lambda s: f"d{s.d}L{s.l_half_width}N{s.n_components}")
    def test_the_stencil_is_the_dense_product(self, spec):
        k = reference_stiffness(spec)
        y = np.random.default_rng(k.shape[0]).standard_normal((k.shape[0], 7))
        got = hamiltonian._apply_stiffness(spec, y)
        # each entry sums the same terms as the dense one, factored through the fields gamma_j^T y
        assert np.all(np.abs(got - k @ y) <= 2 * k.shape[0] * np.finfo(float).eps * (np.abs(k) @ np.abs(y)))

    @pytest.mark.parametrize("case", SPECIAL_FIELDS, ids=lambda c: c[0])
    def test_the_stencil_on_special_fields_is_the_dense_product(self, case):
        _, spec, width = case
        k = reference_stiffness(spec)
        y = np.random.default_rng(k.shape[0]).standard_normal((k.shape[0], width))
        got = hamiltonian._apply_stiffness(spec, y)
        assert got.shape == y.shape
        assert np.all(np.abs(got - k @ y) <= 2 * k.shape[0] * np.finfo(float).eps * (np.abs(k) @ np.abs(y)))

    @pytest.mark.parametrize("where", ["in_band", "corner", "nan"])
    @pytest.mark.parametrize("spec", FAR_CORNER_SPECS, ids=lambda s: f"d{s.d}")
    def test_a_planted_asymmetry_fails_the_certificate(self, spec, where, monkeypatch):
        # no Hermitian rule reads K any more: a stencil that is not symmetric is refused by the certificate
        stencil, i = hamiltonian._apply_stiffness, spec.total_dim // 2
        row, col, value = {"in_band": (i, i + 1, 1e-3), "corner": (0, -1, 1e-3), "nan": (i, i + 1, np.nan)}[where]

        def one_way(spec, x):
            kx = stencil(spec, x)
            kx[row] += value * x[col]
            return kx

        monkeypatch.setattr(hamiltonian, "_apply_stiffness", one_way)
        with pytest.raises(NumericError, match="certificate"):
            lattice_system(spec)

    @pytest.mark.parametrize("shape", [(1, 2, 1), (1, 0, 128), (1, 64, 1), (2, 5, 2), (1, 64, 3)],
                             ids=lambda s: f"d{s[0]}L{s[1]}N{s[2]}")
    def test_the_certificate_applies_the_stencil_to_every_column_once(self, shape, monkeypatch):
        spec = seeded_lattice(np.random.default_rng(sum(shape)), *shape, 1)
        n, stencil, applied = spec.total_dim, hamiltonian._apply_stiffness, []

        def recording(spec, x):
            applied.append(x.copy())
            return stencil(spec, x)

        monkeypatch.setattr(hamiltonian, "_apply_stiffness", recording)
        lattice_system(spec)
        step = 2 * hamiltonian._BLOCK
        assert [x.shape for x in applied] == [(n, min(step, n - a)) for a in range(0, n, step)]
        v = np.hstack(applied)  # the eigenvectors, each one once
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("spec", FAR_CORNER_SPECS + FACTORED_SPECS + BENCHMARK_SHAPES,
                             ids=lambda s: f"d{s.d}L{s.l_half_width}N{s.n_components}J{len(s.gammas)}")
    def test_stiffness_read_on_demand_is_the_k_the_certificate_checked(self, spec, monkeypatch):
        # K is not kept: `stiffness` applies the stencil again, and its product is the certificate's K V
        stencil, applied = hamiltonian._apply_stiffness, []

        def recording(spec, x):
            kx = stencil(spec, x)
            applied.append((x.copy(), kx.copy()))
            return kx

        monkeypatch.setattr(hamiltonian, "_apply_stiffness", recording)
        h = lattice_system(spec)[1]
        checked = len(applied)
        k = h.stiffness
        assert len(applied) == checked + 1  # one more application, to the identity
        assert np.array_equal(k, k.T) and not k.flags.writeable
        eps = np.finfo(float).eps
        for x, kx in applied[:checked]:
            assert np.all(np.abs(k @ x - kx) <= 4 * k.shape[0] * eps * (np.abs(k) @ np.abs(x)))

    @pytest.mark.parametrize("spec", FACTORED_SPECS)
    def test_no_solve_is_larger_than_a_factor(self, spec, monkeypatch):
        sizes, solve = [], np.linalg.eigh

        def recording(matrix, *args, **kwargs):
            sizes.append(np.shape(matrix)[0])
            return solve(matrix, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("no values-only solve on a lattice Hamiltonian")

        monkeypatch.setattr(np.linalg, "eigh", recording)
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        # one solve per Hamiltonian, of the N x N matrix G: the chain form's eigenpairs are in closed form
        lattice_system(spec)
        assert sizes == [spec.n_components]
        sizes.clear()
        multiplicity_scan(spec, [0, 1, 2, 3])
        assert sizes == [spec.n_components] * 4
        sizes.clear()
        frozen_report(spec)
        assert sizes == [spec.n_components]

    @pytest.mark.parametrize("spec", FACTORED_SPECS)
    def test_sorted_columns_are_bitwise_the_sorted_kronecker_product(self, spec):
        gamma_stack = np.stack(spec.gammas)
        gram = gamma_stack.T @ gamma_stack
        h = lattice_system(spec)[1]
        w, v = h.eigenvalues, h._eigenvector_columns(slice(None))
        # formed a block of columns at a time, as the certificate forms them, V is the same
        parts = [slice(0, 5), slice(5, spec.total_dim // 2), slice(spec.total_dim // 2, None)]
        assert np.hstack([h._eigenvector_columns(part) for part in parts]).tobytes() == v.tobytes()
        # the route the gather replaces: the unsorted Kronecker product, then its columns sorted
        beta_t, q_t = hamiltonian._chain_spectrum(2 * spec.l_half_width + 1)
        g, u = eigh(gram)
        beta, q_b = beta_t, q_t
        for _ in range(spec.d - 1):
            beta = np.add.outer(beta, beta_t).ravel()
            q_b = np.kron(q_b, q_t)
        ref_w = ((spec.xi + 2.0 * np.multiply.outer(beta, g)) / spec.m).ravel()
        order = np.argsort(ref_w, kind="stable")
        assert np.array_equal(w, ref_w[order])
        assert np.array_equal(v, np.kron(q_b, u)[:, order])

    def test_a_coupled_count_other_than_volume_times_rank_is_a_numeric_error(self, monkeypatch, capsys):
        # an extra column (0, 1, 1, 1)/sqrt(3) in E_gamma leaves every null
        # eigenvector e_2, e_3, e_4 of G = e_1 e_1^T with weight 2/3 on the
        # frozen frame: 3 coupled eigenpairs against 3 sites x 2 columns
        basis = hamiltonian.orthonormal_basis

        def one_extra_column(columns, tol=DEFAULT_TOLERANCES):
            frame = basis(columns, tol).frame
            extra = np.array([0.0, 1.0, 1.0, 1.0]) / np.sqrt(3.0)
            return Subspace(4, np.column_stack([frame, extra]))

        monkeypatch.setattr(hamiltonian, "orthonormal_basis", one_extra_column)
        with pytest.raises(NumericError, match="3 eigenvectors lie in the coupled frame, not 3 x 2"):
            frozen_report(LatticeSpec(1, 1, 4, 1.0, 1.0, (np.array([1.0, 0.0, 0.0, 0.0]),)))
        assert main(["lattice", "--d", "1", "--L", "1", "--N", "4", "--gammas", "1,0,0,0"]) == 2
        assert "coupled frame" in capsys.readouterr().err


class TestLatticeHolder:
    """A frozen report holds one n x n array and a scan row none: V is formed a block of columns at a time,
    K is applied by its stencil and never formed, and Omega is summed from V x V Kronecker blocks."""

    @staticmethod
    def peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_frozen_report_peaks_below_two_n_by_n_arrays(self):
        spec = LatticeSpec(2, 10, 2, 1.3, 0.9, (np.array([0.6, 0.8]),))
        n = spec.total_dim
        assert n == 882
        rep = frozen_report(spec)  # warm, so that first-call allocations are not counted
        assert rep.frozen_dim_complex == spec.volume and rep.satisfied
        assert self.peak_bytes(lambda: frozen_report(spec)) < 2 * n * n * 8

    def test_a_scan_peaks_below_one_and_a_half_n_by_n_arrays(self):
        spec = LatticeSpec(3, 1, 1, 1.3, 0.9, (np.array([0.7]),))
        n = LatticeSpec(3, 4, 1, 1.3, 0.9, spec.gammas).total_dim
        assert n == 729
        multiplicity_scan(spec, [1])
        assert self.peak_bytes(lambda: multiplicity_scan(spec, [1, 2, 3, 4])) < 1.5 * n * n * 8

    def test_a_scan_near_the_budget_peaks_below_half_an_n_by_n_array(self):
        spec = LatticeSpec(2, 1, 2, 1.3, 0.9, (np.array([0.6, 0.8]),))
        n = LatticeSpec(2, 15, 2, 1.3, 0.9, spec.gammas).total_dim
        assert n == 1922
        multiplicity_scan(spec, [1])
        assert self.peak_bytes(lambda: multiplicity_scan(spec, [5, 10, 15])) < 0.5 * n * n * 8

    @pytest.mark.parametrize("spec", LATTICE_SPECS + BENCHMARK_SHAPES,
                             ids=lambda s: f"d{s.d}L{s.l_half_width}N{s.n_components}J{len(s.gammas)}")
    def test_omega_from_kronecker_blocks_is_the_dense_route(self, spec):
        omega, h = lattice_system(spec)
        assert np.array_equal(omega, omega.T)
        # X X^T with X = V diag(w^1/4) from a dense eigh of the assembled S, clipped as the holder clips
        w, v = np.linalg.eigh(h.stiffness / spec.m)
        x = v * np.sqrt(np.sqrt(np.clip(w, 0.0, None)))
        norm = np.linalg.norm(omega, 2)
        assert np.linalg.norm(omega - x @ x.T, 2) <= DEFAULT_TOLERANCES.tau_residual * norm

    def test_no_factor_is_n_by_n_past_one_axis(self):
        # held at d = 2, N = 2: the order, the N x N solve and the M x M chain factor, no n x n array
        h = lattice_system(LatticeSpec(2, 10, 2, 1.3, 0.9, (np.array([0.6, 0.8]),)))[1]
        held = [h.eigenvalues, h._order, h._chain, h._gram]
        assert [a.shape for a in held] == [(882,), (882,), (21, 21), (2, 2)]
        assert not any(a.flags.writeable for a in held)


def chain_form(size):
    """The chain form T on `size` sites: tridiagonal, -1 off the diagonal, diagonal [1, 2, ..., 2]."""
    t = 2.0 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1)
    t[0, 0] = 1.0
    return t


def chain_eigenvalues(l_half_width, dtype=np.float64):
    """Eigenvalues 2 - 2 cos((2k - 1) pi / (2M + 1)) = 4 sin^2((2k - 1) pi / (2(2M + 1))),
    k = 1..M, of the chain form on M = 2L + 1 sites: one free end, one
    clamped (Strang, SIAM Review 41, 1999)."""
    size = 2 * l_half_width + 1
    k = np.arange(1, size + 1, dtype=dtype)
    return 4 * np.sin((2 * k - 1) * np.pi / (2 * (2 * size + 1))) ** 2


# J = 1 lattices, d = 1..3, up to 882 DOF; the first one's gamma has norm 1
_rng = np.random.default_rng(73)
CLOSED_FORM_SPECS = [LatticeSpec(2, 10, 2, 1.0, 1.0, (np.array([0.6, 0.8]),))] + [
    seeded_lattice(_rng, d, l_half_width, n, 1)
    for d, l_half_width, n in [(1, 50, 1), (1, 100, 2), (2, 10, 2), (2, 7, 3), (3, 2, 4), (3, 3, 2)]
]


class TestClosedFormSpectrum:
    def test_chain_form(self):
        for l_half_width in range(31):
            w, _ = hamiltonian._chain_spectrum(2 * l_half_width + 1)
            assert np.max(np.abs(np.linalg.eigvalsh(chain_form(2 * l_half_width + 1)) - w)) <= 1e-14
            exact = chain_eigenvalues(l_half_width, np.longdouble)
            assert np.max(np.abs(w - exact) / exact) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("l_half_width", [0, 1, 2, 5, 30, 150, 500, 999])
    def test_chain_eigenpairs(self, l_half_width):
        # eigenpairs of the assembled T to rounding, up to the longest chain the budget admits (1,999 sites)
        size = 2 * l_half_width + 1
        beta, q = hamiltonian._chain_spectrum(size)
        bound = 2 * size * np.finfo(float).eps
        assert np.all(np.diff(beta) > 0) and np.all(q[0] > 0)
        assert np.max(np.abs(chain_form(size) @ q - q * beta)) <= bound
        assert np.max(np.abs(q.T @ q - np.eye(size))) <= bound

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=lambda s: f"d{s.d}L{s.l_half_width}N{s.n_components}")
    def test_coupled_clusters(self, spec):
        # with one gamma the coupled spectrum is sqrt((xi + 2 |gamma|^2 sum_axes lambda) / m),
        # evaluated here in extended precision, so the bound measures the report alone
        lam = chain_eigenvalues(spec.l_half_width, np.longdouble)
        beta = lam
        for _ in range(spec.d - 1):
            beta = np.add.outer(beta, lam).ravel()
        g = spec.gammas[0].astype(np.longdouble)
        freqs = np.sort(np.sqrt((np.longdouble(spec.xi) + 2 * (g @ g) * beta) / np.longdouble(spec.m)))
        ref = [(np.mean(freqs[c.start : c.stop]), c.dim) for c in cluster_spectrum(freqs.astype(np.float64))]
        rep = frozen_report(spec)
        assert [m for _, m in rep.coupled_mult_per_cluster] == [m for _, m in ref]
        err = max(abs(v - r) / r for (v, _), (r, _) in zip(rep.coupled_mult_per_cluster, ref))
        assert err <= 1e-15
