"""Coupled / decoupled splittings, multiplicity bounds, strings.

Reference answers come from a Krylov-span orbit (conftest) and from
brute-force dense eigendecompositions, so every structural claim made by
the package is checked against an independent construction.
"""

import numpy as np
import pytest

from openext import (
    ConservativeSystem,
    CoupledParts,
    MultiplicityBoundReport,
    OpenSystem,
    PointMeasure,
    Subspace,
    ValidationError,
    canonical_decomposition,
    check_multiplicity_bounds,
    coupled_parts,
    forcing_step,
    four_block_residual,
    is_reconstructible,
    is_s_invariant,
    kernel_eval,
    measure_of,
    minimal_extension,
    minimal_subsystem,
    multiplicity,
    orbit,
    orthonormal_basis,
    propagate_open,
    reconstructible_core,
    string_decomposition,
    subspaces_equal,
)

from openext import decomposition
from openext.numerics import DEFAULT_TOLERANCES, _phase_fix, eigen_clusters

from conftest import haar_unitary, joint_frame, krylov_span, random_conservative, random_measure, random_psd
from test_small_cuts import planted_system


def count_eigensolves(monkeypatch) -> list:
    """Record the name of every numpy eigensolver call from now on."""
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _s=solver, _n=name, **k: calls.append(_n) or _s(*a, **k))
    return calls


def full_omega_frozen_mode(system, tol=DEFAULT_TOLERANCES):
    """Frozen mode found on omega itself, as a test-local oracle for `is_reconstructible`.

    The lowest eigen-cluster of omega on which the coupling part has rank
    below the cluster's dim, ranked at tau_rank * ||Gamma||_2, with a unit
    vector of that rank gap; None when every mode feels the coupling.
    """
    c = system.coupling_part
    scale = float(np.linalg.norm(system.coupling, 2))
    _, v, clusters = eigen_clusters(system.omega, tol)
    for cl in clusters:
        frame = v[:, cl.start : cl.stop]
        image = c @ frame
        if np.count_nonzero(np.linalg.svd(image, compute_uv=False) > tol.tau_rank * scale) < cl.dim:
            vec = frame @ np.linalg.svd(image, full_matrices=False)[2][-1].conj()
            return cl.value, vec / np.linalg.norm(vec)
    return None


def rotate_h2(system, u):
    """The system with H2 in the basis u: omega2 -> u omega2 u^H, Gamma -> Gamma u^H."""
    w = np.eye(system.dim, dtype=complex)
    w[system.n1 :, system.n1 :] = u
    omega = w @ system.omega @ w.conj().T
    return ConservativeSystem(system.n1, system.n2, 0.5 * (omega + omega.conj().T))


class TestOrbit:
    def test_matches_krylov_span(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = h + h.conj().T
            k = int(rng.integers(1, 3))
            seed = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            got = orbit(h, seed)
            ref = krylov_span(h, seed)
            assert got.dim == ref.shape[1]
            # same span, not just same dimension
            assert np.linalg.norm(ref - got.frame @ (got.frame.conj().T @ ref)) < 1e-8

    def test_invariant_under_operator(self):
        rng = np.random.default_rng(31)
        h = rng.standard_normal((6, 6))
        h = h + h.T
        sub = orbit(h, rng.standard_normal(6))
        image = h @ sub.frame
        assert np.linalg.norm(image - sub.frame @ (sub.frame.conj().T @ image)) < 1e-9

    def test_eigenvector_seed_gives_line(self):
        h = np.diag([1.0, 2.0, 3.0])
        assert orbit(h, np.array([0.0, 1.0, 0.0])).dim == 1

    def test_zero_seed_gives_zero_subspace(self):
        assert orbit(np.eye(3), np.zeros(3)).dim == 0

    def test_spread_seed_fills_space(self):
        h = np.diag([1.0, 2.0, 3.0])
        assert orbit(h, np.array([1.0, 1.0, 1.0])).dim == 3

    def test_depends_only_on_the_span_of_the_seed(self):
        # the 3e-9 component along the second eigenvector stays above the
        # cut however the seed's columns are scaled
        h = np.diag([1.0, 2.0, 3.0])
        seed = np.array([[1.0, 0.0], [3e-9, 0.0], [0.0, 1.0]])
        got, scaled = orbit(h, seed), orbit(h, seed @ np.diag([1.0, 1e3]))
        assert got.dim == 3
        assert subspaces_equal(got, scaled)

    @pytest.mark.parametrize("trial", range(12))
    def test_span_invariance_property(self, trial):
        # spectrum 1, 1, 1, 2, 3, 4 in a random eigenbasis; a seed of two unit
        # columns in eigen-coordinates, with a component delta in [3e-9, 1e-8]
        # of the first column along the top eigenvector; any R of condition
        # number s in [1e2, 1e3] spans the same seed space
        rng = np.random.default_rng(700 + trial)
        basis = haar_unitary(6, rng)
        h = basis @ np.diag([1.0, 1.0, 1.0, 2.0, 3.0, 4.0]) @ basis.conj().T
        coeffs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        coeffs[5] = 0.0
        coeffs /= np.linalg.norm(coeffs, axis=0)
        coeffs[5, 0] = 10.0 ** rng.uniform(np.log10(3e-9), -8.0)
        seed = basis @ coeffs
        s = 10.0 ** rng.uniform(2.0, 3.0)
        r = np.diag([1.0, s]) @ haar_unitary(2, rng)
        got, mixed = orbit(h, seed), orbit(h, seed @ r)
        assert got.dim == 5  # two directions of the triple cluster, and 2, 3, 4
        assert subspaces_equal(got, mixed)

    def test_non_finite_seed_raises(self):
        with pytest.raises(ValidationError):
            orbit(np.diag([1.0, 2.0, 3.0]), np.array([np.nan, 0.0, 0.0]))


def per_cluster_orbit(v, clusters, seed, cut):
    """The per-cluster loop that `_cluster_orbit` batches: one norm or one SVD per cluster.  The oracle
    it must equal bitwise."""
    coefficients = v.conj().T @ seed
    pieces = [np.zeros((v.shape[0], 0), dtype=np.complex128)]
    kept = []
    for cl in clusters:
        c = coefficients[cl.start : cl.stop]
        if cl.dim == 1:
            u, s = np.ones((1, 1)), np.linalg.norm(c, axis=1)
        else:
            u, s, _ = np.linalg.svd(c, full_matrices=False)
        keep = int(np.count_nonzero(s > cut))
        if keep:
            pieces.append(v[:, cl.start : cl.stop] @ u[:, :keep])
            kept.append((cl.value, keep))
    return _phase_fix(np.hstack(pieces))[0], tuple(kept)


def mixed_cluster_operator(rng, levels):
    """Hermitian operator with each level repeated its given number of times, in a Haar basis, with
    exact zeros in its eigenvectors: the basis mixes only within blocks of four."""
    values = np.repeat(np.arange(len(levels), dtype=float), levels)
    n = values.size
    basis = np.zeros((n, n), dtype=complex)
    for start in range(0, n, 4):
        size = min(4, n - start)
        basis[start : start + size, start : start + size] = haar_unitary(size, rng)
    return basis @ np.diag(values) @ basis.conj().T


class TestBatchedClusterOrbit:
    @pytest.mark.parametrize("levels", [(1, 2, 1, 3, 1, 2, 2, 1), (3, 3, 1), (1,) * 9, (2, 4, 2)])
    @pytest.mark.parametrize("columns", [0, 1, 2, 5])
    def test_matches_the_per_cluster_loop_bitwise(self, levels, columns):
        rng = np.random.default_rng(sum(levels) * 10 + columns)
        op = mixed_cluster_operator(rng, levels)
        seed = rng.standard_normal((op.shape[0], columns)) + 1j * rng.standard_normal((op.shape[0], columns))
        seed[: op.shape[0] // 3] = 0.0  # whole clusters the seed misses
        _, v, clusters = eigen_clusters(op, DEFAULT_TOLERANCES)
        for cut in (DEFAULT_TOLERANCES.tau_rank, np.sqrt(DEFAULT_TOLERANCES.tau_rank), 0.5):
            got, kept = decomposition._cluster_orbit(v, clusters, seed, cut)
            frame, ref_kept = per_cluster_orbit(v, clusters, seed, cut)
            assert kept == ref_kept
            assert got.frame.tobytes() == frame.tobytes()

    @pytest.mark.parametrize("coupling", ["planted", "zero"])
    def test_coupled_parts_match_the_per_cluster_loop_bitwise(self, coupling):
        rng = np.random.default_rng(97)
        n1, n2 = 4, 12
        omega = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        omega[:n1, :n1] = np.diag(rng.uniform(0.0, 4.0, n1))
        omega[n1:, n1:] = mixed_cluster_operator(rng, (1, 3, 2, 1, 3, 2))
        if coupling == "planted":
            omega[:n1, n1:] = rng.standard_normal((n1, 2)) @ rng.standard_normal((2, n2))
            omega[n1:, :n1] = omega[:n1, n1:].conj().T
        system = ConservativeSystem(n1, n2, omega)
        tol = DEFAULT_TOLERANCES
        basis = orthonormal_basis(system.coupling, tol)
        _, v, clusters = eigen_clusters(system.omega2, tol)
        norm, images = system._coupling_norm, system.coupling.conj().T @ basis.frame
        frame, kept = per_cluster_orbit(v, clusters, images / norm if norm else images, np.sqrt(tol.tau_rank))
        parts = coupled_parts(system, tol)
        assert parts.h2c.frame.tobytes() == frame.tobytes()
        assert parts.h2c_clusters == kept
        assert bool(kept) == (coupling == "planted")


class TestCoupledParts:
    def test_worked_example_blocks(self, worked_system):
        parts = coupled_parts(worked_system)
        e = np.eye(2)  # each part is a subspace of its own 2-dim block
        assert subspaces_equal(parts.h1c, Subspace(2, e[:, :1]))
        assert subspaces_equal(parts.h1d, Subspace(2, e[:, 1:2]))
        assert subspaces_equal(parts.h2c, Subspace(2, e))
        assert parts.h2d.dim == 0

    def test_four_block_residual_zero_on_worked_example(self, worked_system):
        parts = coupled_parts(worked_system)
        assert four_block_residual(worked_system, parts) < 1e-12

    def test_four_block_residual_detects_wrong_split(self, worked_system):
        e = np.eye(2)
        # swap the coupled and frozen observable lines
        wrong = type(coupled_parts(worked_system))(
            Subspace(2, e[:, 1:2]),
            Subspace(2, e[:, :1]),
            Subspace(2, e),
            Subspace(2, e[:, :0]),
            ((1.0, 1), (2.0, 1)),
        )
        assert four_block_residual(worked_system, wrong) > 0.5

    def test_four_block_residual_equals_the_block_loop(self):
        # seeded splits of each side into coupled and decoupled parts, empty parts included
        rng = np.random.default_rng(35)
        empty = 0
        for _ in range(24):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(0, 5))
            sys_ = random_conservative(rng, n1, n2)
            k1, k2 = int(rng.integers(0, n1 + 1)), int(rng.integers(0, n2 + 1))
            u1, u2 = haar_unitary(n1, rng), haar_unitary(n2, rng)
            parts = CoupledParts(Subspace(n1, u1[:, :k1]), Subspace(n1, u1[:, k1:]),
                                 Subspace(n2, u2[:, :k2]), Subspace(n2, u2[:, k2:]), ((0.0, k2),))
            order = (parts.h1d, parts.h1c, parts.h2c, parts.h2d)
            empty += any(p.dim == 0 for p in order)
            basis = np.zeros((sys_.dim, sys_.dim), dtype=complex)
            basis[:n1, :n1] = np.hstack([parts.h1d.frame, parts.h1c.frame])
            basis[n1:, n1:] = np.hstack([parts.h2c.frame, parts.h2d.frame])
            t = basis.conj().T @ sys_.omega @ basis
            edges = np.cumsum([0] + [p.dim for p in order])
            worst = 0.0
            for i in range(4):
                for j in range(4):
                    block = t[edges[i] : edges[i + 1], edges[j] : edges[j + 1]]
                    if i != j and {i, j} != {1, 2} and block.size:
                        worst = max(worst, float(np.max(np.abs(block))))
            assert four_block_residual(sys_, parts) == worst
        assert empty >= 5

    def test_h2c_clusters_are_the_cluster_pieces_of_h2c(self):
        rng = np.random.default_rng(36)
        for _ in range(6):
            sys_ = planted_system(rng, 5, 8, 2)
            parts = coupled_parts(sys_)
            start = 0
            for value, dim in parts.h2c_clusters:
                piece = parts.h2c.frame[:, start : start + dim]
                assert np.linalg.norm(sys_.omega2 @ piece - value * piece) <= 1e-12 * np.linalg.norm(sys_.omega, 2)
                start += dim
            assert start == parts.h2c.dim
            with pytest.raises(ValidationError, match="cluster dims must sum"):
                CoupledParts(parts.h1c, parts.h1d, parts.h2c, parts.h2d, parts.h2c_clusters[1:])

    def test_parts_partition_each_side(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(0, 5))
            sys_ = random_conservative(rng, n1, n2)
            parts = coupled_parts(sys_)
            assert parts.h1c.dim + parts.h1d.dim == n1
            assert parts.h2c.dim + parts.h2d.dim == n2
            assert four_block_residual(sys_, parts) < 1e-9 * max(
                np.linalg.norm(sys_.omega, 2), 1.0
            )

    def test_observable_orbit_identity(self):
        # the orbit of the whole observable side under omega equals
        # H1 plus the coupled hidden part
        rng = np.random.default_rng(33)
        for _ in range(10):
            sys_ = random_conservative(rng, 3, 4)
            parts = coupled_parts(sys_)
            reach = orbit(sys_.omega, np.eye(7, dtype=complex)[:, :3])
            h1_plus_h2c = Subspace(7, joint_frame(sys_, Subspace(3, np.eye(3)), parts.h2c))
            assert subspaces_equal(reach, h1_plus_h2c)

    def test_fully_coupled_system_has_trivial_frozen_parts(self):
        rng = np.random.default_rng(34)
        mu = random_measure(rng, 2, 3)
        sys_ = minimal_extension(mu)
        # omega1 = 0 with full-rank-reachable coupling: the observable
        # side may still freeze directions orthogonal to the coupling
        parts = coupled_parts(sys_)
        assert parts.h2d.dim == 0


class TestCoupledPartsOncePerSystem:
    """The split is kept on the system, one per ToleranceConfig: `decompose`'s three
    callers (the CLI, `check_multiplicity_bounds`, `string_decomposition`) share it."""

    @staticmethod
    def same_split(a: CoupledParts, b: CoupledParts) -> bool:
        names = ("h1c", "h1d", "h2c", "h2d")
        return a.h2c_clusters == b.h2c_clusters and all(
            getattr(a, name).frame.tobytes() == getattr(b, name).frame.tobytes() for name in names
        )

    def test_the_decompose_callers_get_one_object(self, monkeypatch, tmp_path):
        from openext import cli
        from openext.serialization import dumps, system_to_json

        original, seen = decomposition.coupled_parts, []

        def spy(system, tol=DEFAULT_TOLERANCES):
            seen.append((system, original(system, tol)))
            return seen[-1][1]

        monkeypatch.setattr(decomposition, "coupled_parts", spy)
        monkeypatch.setattr(cli, "coupled_parts", spy)
        path = tmp_path / "system.json"
        path.write_text(dumps(system_to_json(planted_system(np.random.default_rng(45), 6, 9, 3))))
        assert cli.main(["decompose", str(path), "--out", str(tmp_path / "out.json")]) == 0
        assert len(seen) == 3
        assert all(system is seen[0][0] and parts is seen[0][1] for system, parts in seen)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_tolerance_gets_its_own_split_equal_to_a_fresh_one(self, seed):
        rng = np.random.default_rng(46 + seed)
        sys_ = planted_system(rng, int(rng.integers(2, 8)), int(rng.integers(1, 9)), int(rng.integers(1, 3)))
        loose = DEFAULT_TOLERANCES.replace(tau_rank=1e-6, tau_eig_cluster=1e-5)
        first = coupled_parts(sys_)
        assert coupled_parts(sys_) is first
        assert coupled_parts(sys_, DEFAULT_TOLERANCES.replace()) is first  # an equal config
        other = coupled_parts(sys_, loose)
        assert other is not first and coupled_parts(sys_, loose) is other
        for tol, parts in ((DEFAULT_TOLERANCES, first), (loose, other)):
            fresh = coupled_parts(ConservativeSystem(sys_.n1, sys_.n2, sys_.omega.copy()), tol)
            assert fresh is not parts and self.same_split(fresh, parts)


class TestMinimalSubsystem:
    def test_preserves_kernel(self, worked_system):
        small = minimal_subsystem(worked_system)
        times = np.linspace(0.0, 6.0, 31)
        full = kernel_eval(worked_system, times).values
        red = kernel_eval(small, times).values
        assert small.dim <= worked_system.dim
        assert np.max(np.abs(full - red)) < 1e-10

    def test_worked_example_keeps_everything(self, worked_system):
        # both observable modes stay (the frozen one still belongs to
        # the observable side); only hidden waste would be cut
        small = minimal_subsystem(worked_system)
        assert small.n1 == 2 and small.n2 == 2

    def test_cuts_unreachable_hidden_modes(self):
        omega = np.zeros((4, 4), dtype=complex)
        omega[0, 0] = 1.0
        omega[1, 1] = 2.0
        omega[2, 2] = 3.0
        omega[3, 3] = 4.0
        omega[0, 2] = omega[2, 0] = 1.0
        sys_ = ConservativeSystem(2, 2, omega)
        small = minimal_subsystem(sys_)
        assert small.n1 == 2 and small.n2 == 1

    def test_core_drops_frozen_observables(self, worked_system):
        core = reconstructible_core(worked_system)
        assert core.n1 == 1 and core.n2 == 2
        ok, _ = is_reconstructible(core)
        assert ok

    def test_core_requires_some_coupling(self):
        sys_ = ConservativeSystem(2, 0, np.eye(2, dtype=complex))
        with pytest.raises(ValidationError):
            reconstructible_core(sys_)


class TestMultiplicity:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = h + h.conj().T
            # plant a degeneracy half the time
            if rng.random() < 0.5:
                w, v = np.linalg.eigh(h)
                w[1] = w[0]
                h = v @ np.diag(w) @ v.conj().T
            table = multiplicity(h)
            w = np.linalg.eigvalsh(h)
            scale = max(abs(w[0]), abs(w[-1]), 1e-300)
            counts = []
            run = 1
            for a, b in zip(w, w[1:]):
                if b - a <= 1e-8 * scale:
                    run += 1
                else:
                    counts.append(run)
                    run = 1
            counts.append(run)
            assert [c for _, c in table] == counts

    def test_restriction_to_invariant_subspace(self):
        h = np.diag([1.0, 1.0, 2.0, 2.0, 2.0])
        sub = Subspace(5, np.eye(5)[:, 2:])
        table = multiplicity(h, invariant_subspace=sub)
        assert table == ((2.0, 3),)

    def test_rejects_non_invariant_subspace(self):
        h = np.zeros((3, 3))
        h[0, 1] = h[1, 0] = 1.0
        sub = Subspace(3, np.eye(3)[:, :1])
        with pytest.raises(ValidationError):
            multiplicity(h, invariant_subspace=sub)


class TestMultiplicityBounds:
    def test_worked_example_report(self, worked_system):
        rep = check_multiplicity_bounds(worked_system)
        assert rep.ok
        assert rep.coupling_rank == 1
        assert rep.mult_h1c == 1
        assert rep.mult_h2c == 1
        assert rep.violations == ()

    def test_bound_tight_for_planted_degeneracy(self):
        # two hidden modes at the same frequency, coupling rank 2:
        # the coupled hidden multiplicity hits the rank bound
        omega = np.zeros((4, 4), dtype=complex)
        omega[2, 2] = omega[3, 3] = 2.0
        omega[0, 2] = omega[2, 0] = 1.0
        omega[1, 3] = omega[3, 1] = 1.0
        sys_ = ConservativeSystem(2, 2, omega)
        rep = check_multiplicity_bounds(sys_)
        assert rep.ok
        assert rep.coupling_rank == 2
        assert rep.mult_h2c == 2

    def test_random_sweep_no_violations(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(0, 6))
            rep = check_multiplicity_bounds(random_conservative(rng, n1, n2))
            assert rep.ok, rep.violations

    def test_violations_are_read_off_the_cluster_tables(self):
        # no system reaches a violation, so the report is built from its tables
        rep = MultiplicityBoundReport(
            coupling_rank=1,
            per_cluster_h1c=((0.0, 2),),
            per_cluster_h2c=((1.0, 1), (2.5, 1)),
            per_cluster_minimal=((0.0, 1), (1.0, 3)),
            h1_fully_coupled=True,
            minimal_bound=2,
        )
        assert (rep.mult_h1c, rep.mult_h2c, rep.mult_minimal) == (2, 1, 3)
        assert rep.violations == (
            "mult(omega1 on h1c) = 2 exceeds coupling rank 1",
            "mult(omega on minimal extension) = 3 exceeds min(n1, 2 rank) = 2",
        )
        assert rep.bound_minimal_ok is False and rep.ok is False
        d = rep.as_dict()
        assert (d["h1_coupled"]["ok"], d["h2_coupled"]["ok"], d["minimal_extension"]["ok"]) == (False, True, False)
        assert d["h1_coupled"]["min_cluster_gap"] is None
        assert d["h2_coupled"]["min_cluster_gap"] == 1.5
        assert d["violations"] == list(rep.violations) and d["ok"] is False

    def test_minimal_bound_does_not_apply_unless_h1_is_fully_coupled(self):
        rep = MultiplicityBoundReport(1, ((0.0, 1),), ((1.0, 1),), ((0.0, 1), (1.0, 3)), False, 2)
        assert rep.bound_minimal_ok is None
        assert rep.violations == () and rep.ok
        minimal = rep.as_dict()["minimal_extension"]
        assert minimal["ok"] is None and minimal["bound_applies"] is False
        assert minimal["max_multiplicity"] == 3

    def test_minimal_extension_may_leak_only_what_the_atom_cut_drops(self, monkeypatch):
        omega1, omega2 = np.diag([0.0, 3.0]), np.diag([1.0, 2.0])

        def system(weak):
            omega = np.zeros((4, 4), dtype=complex)
            omega[:2, :2], omega[2:, 2:] = omega1, omega2
            omega[:2, 2:] = omega[2:, :2] = np.diag([1.0, weak])
            return ConservativeSystem(2, 2, omega)

        # masses 1e-12 and 9e-10 fall under tau_rank * ||a(0)||_2: H1 + h2c leaks the dropped coupling
        for weak in (1e-6, 3e-5):
            assert coupled_parts(system(weak)).h2d.dim == 1
            assert check_multiplicity_bounds(system(weak)).ok
        # a cut that also drops a coupling of 0.1 leaves H1 + h2c far from invariant
        def coarse_atom_orbit(s, v, clusters, frame, tol):
            return decomposition._cluster_orbit(v, clusters, s.coupling.conj().T @ frame / s._coupling_norm, 0.5)

        monkeypatch.setattr(decomposition, "_atom_orbit", coarse_atom_orbit)
        assert coupled_parts(system(0.1)).h2d.dim == 1
        with pytest.raises(ValidationError, match="not invariant"):
            check_multiplicity_bounds(system(0.1))

    def test_report_dict_has_slack(self, worked_system):
        d = check_multiplicity_bounds(worked_system).as_dict()
        assert d["ok"] is True
        assert all(row["slack"] >= 0 for row in d["h2_coupled"]["clusters"])
        assert d["h1_coupled"]["bound"] == d["coupling_rank"]


class TestStrings:
    def test_worked_example_single_string(self, worked_system):
        dec = string_decomposition(worked_system)
        assert dec.count == 1
        assert dec.strings[0].dim == 2
        assert [v for v, _ in dec.measures[0]] == [1.0, 2.0]
        assert all(w == 1.0 for _, w in dec.measures[0])

    def test_string_lives_in_hidden_side(self, worked_system):
        dec = string_decomposition(worked_system)
        assert [s.ambient_dim for s in dec.strings] == [worked_system.n2]

    def test_degenerate_pair_gives_two_nested_strings(self):
        # one frequency with a rank-2 mass next to a simple one: the
        # second string only sees the doubled frequency
        omega = np.zeros((5, 5), dtype=complex)
        omega[2, 2] = omega[3, 3] = 1.0
        omega[4, 4] = 2.0
        omega[0, 2] = omega[2, 0] = 1.0
        omega[1, 3] = omega[3, 1] = 1.0
        omega[0, 4] = omega[4, 0] = 0.5
        sys_ = ConservativeSystem(2, 3, omega)
        dec = string_decomposition(sys_)
        assert dec.count == 2
        assert [v for v, _ in dec.measures[0]] == [1.0, 2.0]
        assert [v for v, _ in dec.measures[1]] == [1.0]

    def test_string_count_bounded_by_rank(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            sys_ = random_conservative(rng, 3, 4)
            dec = string_decomposition(sys_)
            assert dec.count <= np.linalg.matrix_rank(sys_.coupling)

    def test_strings_sum_to_coupled_hidden_part(self):
        rng = np.random.default_rng(38)
        for _ in range(8):
            sys_ = random_conservative(rng, 2, 4)
            dec = string_decomposition(sys_)
            parts = coupled_parts(sys_)
            if dec.count == 0:
                assert parts.h2c.dim == 0
                continue
            total = orthonormal_basis(np.hstack([s.frame for s in dec.strings]))
            assert subspaces_equal(total, parts.h2c)


    @pytest.mark.parametrize("case", ["planted", "rank_two_atoms"])
    def test_strings_are_covariant_under_rotations_of_h2(self, case):
        # degenerate hidden clusters: planted levels of multiplicity up to 3,
        # and the minimal extension of rank-2 atoms with n1 >= n2, where every
        # cluster's eigenspace lies inside Ran Gamma^H
        rng = np.random.default_rng(42)
        for _ in range(3):
            if case == "planted":
                sys_ = planted_system(rng, 6, 9, 3)
            else:
                sys_ = minimal_extension(PointMeasure.create(5, [(f, random_psd(rng, 5, 2)) for f in (-1.0, 0.5)]))
                assert (sys_.n1, sys_.n2) == (5, 4)
            dec = string_decomposition(sys_)
            assert dec.count > 1  # some cluster piece has more than one column
            for _ in range(3):
                u = haar_unitary(sys_.n2, rng)
                got = string_decomposition(rotate_h2(sys_, u))
                assert [len(m) for m in got.measures] == [len(m) for m in dec.measures]
                for (a, b), (c, d) in zip(sum(dec.measures, ()), sum(got.measures, ())):
                    assert abs(a - c) <= 1e-12 * max(abs(a), 1.0) and b == d == 1.0
                for s, r in zip(dec.strings, got.strings):
                    back = u.conj().T @ r.frame
                    assert np.max(np.abs(s.projector() - back @ back.conj().T)) <= 1e-12

    def test_strings_span_h2c_one_cluster_piece_per_column(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            sys_ = planted_system(rng, 5, 8, 2)
            parts, dec = coupled_parts(sys_), string_decomposition(sys_)
            total = orthonormal_basis(np.hstack([s.frame for s in dec.strings]))
            assert subspaces_equal(total, parts.h2c)
            for sub, measure in zip(dec.strings, dec.measures):
                # column i of a string is an eigenvector of omega2 at its content value i
                values = np.array([v for v, _ in measure])
                residual = sys_.omega2 @ sub.frame - sub.frame * values
                assert np.linalg.norm(residual, axis=0).max() <= 1e-12 * max(np.linalg.norm(sys_.omega2, 2), 1.0)
            # nested contents, one column per kept cluster piece
            assert all(set(b) <= set(a) for a, b in zip(dec.measures, dec.measures[1:]))
            assert sorted(sum(([v] * d for v, d in parts.h2c_clusters), [])) == sorted(
                v for m in dec.measures for v, _ in m)

    def test_strengths_order_the_columns_of_each_piece(self):
        # one hidden level of multiplicity 2 coupled with strengths 2 and 1:
        # string 0 takes the strongly coupled direction
        omega = np.zeros((4, 4), dtype=complex)
        omega[2, 2] = omega[3, 3] = 1.0
        omega[0, 3] = omega[3, 0] = 2.0
        omega[1, 2] = omega[2, 1] = 1.0
        dec = string_decomposition(ConservativeSystem(2, 2, omega))
        assert [s.dim for s in dec.strings] == [1, 1]
        assert np.abs(dec.strings[0].frame[:, 0]) == pytest.approx([0.0, 1.0], abs=1e-15)
        assert np.abs(dec.strings[1].frame[:, 0]) == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_no_eigensolve_beyond_those_of_coupled_parts(self, monkeypatch):
        sys_ = planted_system(np.random.default_rng(44), 6, 9, 3)
        calls = count_eigensolves(monkeypatch)
        coupled_parts(sys_)
        assert calls == ["eigh", "eigh"]  # omega1 and omega2, once each
        calls.clear()
        string_decomposition(sys_)
        assert calls == []  # the split kept on the system
        string_decomposition(ConservativeSystem(sys_.n1, sys_.n2, sys_.omega.copy()))
        assert calls == ["eigh", "eigh"]

    @pytest.mark.parametrize("n1, n2", [(3, 0), (2, 3)])
    def test_no_hidden_side_or_no_coupling_gives_no_strings(self, n1, n2):
        omega = np.diag(np.arange(1.0, n1 + n2 + 1.0)).astype(complex)
        sys_ = ConservativeSystem(n1, n2, omega)
        parts = coupled_parts(sys_)
        assert parts.h2c.dim == 0 and parts.h2c_clusters == ()
        dec = string_decomposition(sys_)
        assert dec.count == 0 and dec.measures == ()


class TestReconstructible:
    def test_worked_example_not_reconstructible(self, worked_system):
        ok, witness = is_reconstructible(worked_system)
        assert not ok
        value, vec = witness
        assert value == pytest.approx(3.0)
        # the frozen observable line is the witness direction
        assert abs(abs(vec[1]) - 1.0) < 1e-10
        assert np.linalg.norm(vec[[0, 2, 3]]) < 1e-10

    def test_minimal_extensions_of_generic_measures_pass(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            mu = random_measure(rng, 2, 3)
            sys_ = minimal_extension(mu)
            ok, witness = is_reconstructible(sys_)
            assert ok and witness is None

    def test_agrees_with_frozen_part_triviality(self):
        rng = np.random.default_rng(40)
        frozen = 0
        for _ in range(20):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(0, 5))
            sys_ = random_conservative(rng, n1, n2)
            parts = coupled_parts(sys_)
            ok, witness = is_reconstructible(sys_)
            want = full_omega_frozen_mode(sys_)
            assert ok == (parts.h1d.dim == 0 and parts.h2d.dim == 0) == (want is None)
            if not ok:
                frozen += 1
                value, vec = witness
                scale = max(np.linalg.norm(sys_.omega, 2), 1.0)
                assert abs(value - want[0]) <= 1e-12 * scale
                # the same unit vector up to phase: a genuine eigenvector of omega that the coupling part kills
                assert abs(abs(np.vdot(want[1], vec)) - 1.0) <= 1e-10
                assert np.linalg.norm(sys_.omega @ vec - value * vec) < 1e-8 * scale
                assert np.linalg.norm(sys_.coupling_part @ vec) < 1e-8 * scale
        assert 0 < frozen < 20


def weak_column_system(rng, n1, n2, scale):
    """Random system whose coupling to one eigenmode of omega2 is scaled by `scale`.

    It is not the extension of a measure, so nothing places its hidden modes
    on either side of the atom rule's cut.
    """
    h = rng.standard_normal((n1 + n2, n1 + n2)) + 1j * rng.standard_normal((n1 + n2, n1 + n2))
    omega = 0.5 * (h + h.conj().T)
    column = np.linalg.eigh(omega[n1:, n1:])[1][:, [rng.integers(n2)]]
    omega[:n1, n1:] -= (1.0 - scale) * (omega[:n1, n1:] @ column) @ column.conj().T
    omega[n1:, :n1] = omega[:n1, n1:].conj().T
    return ConservativeSystem(n1, n2, omega)


def epsilon_system(eps):
    """omega = [[0, 1, eps], [1, 1, 0], [eps, 0, 2]]: the hidden mode at 2 couples with amplitude eps."""
    return ConservativeSystem(1, 2, np.array([[0.0, 1.0, eps], [1.0, 1.0, 0.0], [eps, 0.0, 2.0]], dtype=complex))


def hidden_dims(system):
    """Hidden dimension of h2c, `minimal_subsystem`, `minimal_extension(measure_of)` and `propagate_open`,
    after checking the canonical H2 dims, the reconstructibility verdict, the multiplicity bounds and
    the minimal subsystem's measure against the parts and the measure of the system."""
    parts = coupled_parts(system)
    mu = measure_of(system)
    times = np.linspace(0.0, 0.5, 11)
    traj = propagate_open(OpenSystem(system.n1, system.omega1, mu), forcing_step(np.eye(system.n1)[0]), times)
    dec = canonical_decomposition(system)
    assigned = dec.components[: len(set(dec.assignment))]
    assert sum(h2.dim for _, h2 in assigned) + parts.h2d.dim == system.n2
    assert is_reconstructible(system)[0] == (parts.h1d.dim == parts.h2d.dim == 0)
    # the minimal extension is omega compressed to H1 + h2c, invariant only up to the dropped couplings
    assert check_multiplicity_bounds(system).ok
    # the minimal subsystem has the system's measure, up to the dropped directions' masses
    small = minimal_subsystem(system)
    back = measure_of(small)
    size = np.linalg.norm(mu.total_mass(), 2)
    assert back.frequencies.size == mu.frequencies.size
    assert np.max(np.abs(back.frequencies - mu.frequencies), initial=0.0) <= 1e-12 * np.linalg.norm(system.omega, 2)
    for got, want in zip(back.masses, mu.masses):
        assert np.linalg.norm(got - want, 2) <= (DEFAULT_TOLERANCES.tau_rank + 1e-12) * size
    return parts.h2c.dim, small.n2, minimal_extension(mu).n2, traj.meta["hidden_dim"]


class TestOneHiddenDimension:
    """h2c, the minimal subsystem, the extension of the measure and the open propagator read one
    hidden dimension: every hidden-side cut is the atom rule sigma^2 > tau_rank * ||a(0)||_2."""

    @pytest.mark.parametrize("exponent", np.linspace(-12.0, 0.0, 25))
    def test_weak_hidden_column_on_a_log_grid(self, exponent):
        rng = np.random.default_rng(int(1000 * -exponent))
        for _ in range(4):
            n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 7))
            dims = hidden_dims(weak_column_system(rng, n1, n2, 10.0**exponent))
            assert len(set(dims)) == 1, dims

    @pytest.mark.parametrize("eps, n2", [(1e-4, 2), (3.2e-5, 2), (3.0e-5, 1), (1e-5, 1), (1e-7, 1), (1e-9, 1)])
    def test_epsilon_system(self, eps, n2):
        # the amplitude eps has mass eps^2 against ||a(0)||_2 = 1 + eps^2: kept above sqrt(tau_rank)
        assert hidden_dims(epsilon_system(eps)) == (n2,) * 4

    @pytest.mark.parametrize("eps, n2", [(1e-6, 5), (1e-5, 5), (3e-5, 5), (1e-4, 6), (1.8e-4, 6), (1e-3, 6)])
    def test_two_observables_and_six_hidden_modes(self, eps, n2):
        assert hidden_dims(weak_column_system(np.random.default_rng(26), 2, 6, eps)) == (n2,) * 4

    def test_weak_channel_shows_in_the_residuals(self):
        # Gamma = diag(1, 1e-6): the frame rule keeps the weak channel on H1, the atom rule drops
        # its hidden mode (mass 1e-12), so the coupling that the cut dropped shows as residuals
        omega = np.diag([0.0, 3.0, 1.0, 2.0]).astype(complex)
        omega[:2, 2:] = omega[2:, :2] = np.diag([1.0, 1e-6])
        system = ConservativeSystem(2, 2, omega)
        parts = coupled_parts(system)
        assert (parts.h1c.dim, parts.h2c.dim, parts.h2d.dim) == (2, 1, 1)
        assert four_block_residual(system, parts) == pytest.approx(1e-6, rel=1e-12)
        assert hidden_dims(system) == (1,) * 4
        dec = canonical_decomposition(system)
        assert dec.assignment == (0, 1)
        assert [(h1.dim, h2.dim) for h1, h2 in dec.components] == [(1, 1), (1, 0), (0, 1)]
        verdicts = [is_s_invariant(system, Subspace(system.dim, joint_frame(system, h1, h2)))[0]
                    for h1, h2 in dec.components]
        assert verdicts == [True, False, False]
        assert is_reconstructible(system)[0] is False
