"""Rank and residual cuts made on the small matrix that carries them.

Each cut is checked against a test-local transcription of the dense
n-dimensional route it replaces:

* `orbit`: the seed cut to an orthonormal frame F at tau_rank * sigma_max,
  then the projection V_c V_c^H F onto every eigen-cluster cut by an SVD at
  tau_rank;
* h2c of `coupled_parts`: the atom rule, the projection of Gamma^H / ||Gamma||_2
  onto every eigen-cluster of omega2 cut by an SVD at sqrt(tau_rank);
* `complement`: a singular basis of I - F F^H, cut at tau_rank;
* `is_s_invariant`: the dense commutators [pi, omega] and [pi, P1];
* `frozen_report`: the coupled frame as the complement of the frozen one,
  with ||Omega||_2 from an SVD.

The seeded systems have repeated eigenvalues, rank-deficient seeds,
clusters the coupling does not reach, and an empty hidden side.
"""

import math

import numpy as np
import pytest

from openext import (
    ConservativeSystem,
    LatticeSpec,
    Subspace,
    canonical_decomposition,
    coupled_parts,
    frozen_report,
    is_s_invariant,
    lattice_system,
    orbit,
)
from openext.numerics import (
    DEFAULT_TOLERANCES,
    _phase_fix,
    cluster_spectrum,
    complement,
    compress,
    eigen_clusters,
    orthonormal_basis,
    zero_subspace,
)

from conftest import haar_unitary, joint_frame

TOL = DEFAULT_TOLERANCES


# ---------------------------------------------------------------- oracles


def dense_basis(columns, scale):
    """Orthonormal basis of the column span, cut at tau_rank * scale."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return _phase_fix(u[:, : int(np.count_nonzero(s > TOL.tau_rank * scale))])[0]


def dense_orbit(op, seed):
    """Orbit as the span of an orthonormal seed frame's n x k projections onto every cluster."""
    n = op.shape[0]
    if seed.shape[1] == 0 or not seed.any():
        return np.zeros((n, 0), dtype=complex)
    frame = dense_basis(seed, float(np.linalg.norm(seed, 2)))
    _, v, clusters = eigen_clusters(op, TOL)
    pieces = [np.zeros((n, 0), dtype=complex)]
    for cl in clusters:
        vc = v[:, cl.start : cl.stop]
        pieces.append(dense_basis(vc @ (vc.conj().T @ frame), 1.0))
    return np.hstack(pieces)


def dense_atom_orbit(op, gamma):
    """h2c as the span of the n2 x n1 projections of Gamma^H / ||Gamma||_2 onto every cluster, each cut
    at sqrt(tau_rank): sigma^2 > tau_rank * ||Gamma||_2^2 for the singular values sigma of Gamma V_c."""
    n = op.shape[0]
    if not gamma.any():
        return np.zeros((n, 0), dtype=complex)
    seed = gamma.conj().T / np.linalg.norm(gamma, 2)
    _, v, clusters = eigen_clusters(op, TOL)
    pieces = [np.zeros((n, 0), dtype=complex)]
    for cl in clusters:
        vc = v[:, cl.start : cl.stop]
        u, s, _ = np.linalg.svd(vc @ (vc.conj().T @ seed), full_matrices=False)
        pieces.append(u[:, : int(np.count_nonzero(s > math.sqrt(TOL.tau_rank)))])
    return np.hstack(pieces)


def svd_complement(frame):
    """Complement as a singular basis of I - F F^H at unit scale."""
    n = frame.shape[0]
    if frame.shape[1] == 0:
        return np.eye(n, dtype=complex)
    out = dense_basis(np.eye(n) - frame @ frame.conj().T, 1.0)
    assert out.shape[1] == n - frame.shape[1]
    return out


def dense_is_s_invariant(system, frame):
    """Verdict and residuals from the dense commutators with pi and P1."""
    n = system.dim
    pi = frame @ frame.conj().T
    p1 = np.zeros((n, n), dtype=complex)
    p1[: system.n1, : system.n1] = np.eye(system.n1)
    omega = system.omega
    r_omega = float(np.linalg.norm(pi @ omega - omega @ pi, 2))
    r_p1 = float(np.linalg.norm(pi @ p1 - p1 @ pi, 2))
    verdict = r_omega <= TOL.tau_residual * np.linalg.norm(omega, 2) and r_p1 <= TOL.tau_residual
    return verdict, (r_omega, r_p1)


def dense_frozen(spec):
    """Frozen frame, coupled clusters and frozen residual via dense complements."""
    omega, _ = lattice_system(spec)
    e_gamma = orthonormal_basis(np.stack(spec.gammas).T.astype(complex))
    frozen = np.kron(np.eye(spec.volume), svd_complement(e_gamma.frame))
    coupled = svd_complement(frozen)
    clusters = cluster_spectrum(np.linalg.eigvalsh(compress(omega, coupled)), TOL)
    freq = math.sqrt(spec.xi / spec.m)
    resid = omega @ frozen - freq * frozen
    max_resid = float(np.max(np.linalg.norm(resid, axis=0))) if frozen.size else 0.0
    return frozen, [(cl.value, cl.dim) for cl in clusters], max_resid, float(np.linalg.norm(omega, 2))


# ---------------------------------------------------------------- systems


def planted_system(rng, n1, n2, rank):
    """Repeated eigenvalues on both sides; the coupling reaches only some clusters.

    Each side has eigenvalues drawn from a few levels with multiplicity up
    to 3 in a Haar-random eigenbasis.  The coupling has the given rank and
    lives on a random subset of each side's eigenvectors, so the other
    clusters have no overlap with it.
    """
    sides = []
    for n in (n1, n2):
        levels = rng.choice(np.arange(-6, 7) * 0.5, size=n, replace=False)
        w = np.sort(np.repeat(levels, rng.integers(1, 4, size=n))[:n])
        u = haar_unitary(n, rng) if n else np.zeros((0, 0))
        sides.append((u * w) @ u.conj().T if n else u)
        sides.append(u)
    omega1, u1, omega2, u2 = sides
    omega = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    omega[:n1, :n1] = omega1
    omega[n1:, n1:] = omega2
    if n2:
        reach1 = rng.choice(n1, size=max(rank, n1 // 2), replace=False)
        reach2 = rng.choice(n2, size=max(rank, n2 // 2), replace=False)
        core = (rng.standard_normal((reach1.size, rank)) + 1j * rng.standard_normal((reach1.size, rank))) @ (
            rng.standard_normal((rank, reach2.size)) + 1j * rng.standard_normal((rank, reach2.size))
        )
        gamma = 0.3 * u1[:, reach1] @ core @ u2[:, reach2].conj().T
        omega[:n1, n1:] = gamma
        omega[n1:, :n1] = gamma.conj().T
    return ConservativeSystem(n1, n2, 0.5 * (omega + omega.conj().T))


SHAPES = [(6, 5, 2), (8, 8, 1), (5, 7, 3), (9, 4, 2), (4, 0, 0), (7, 6, 2)]


def systems():
    for seed, (n1, n2, rank) in enumerate(SHAPES):
        yield planted_system(np.random.default_rng(700 + seed), n1, n2, rank)


def projector_gap(a, b):
    assert a.shape == b.shape
    return float(np.max(np.abs(a @ a.conj().T - b @ b.conj().T), initial=0.0))


def assert_phase_fixed(frame):
    for col in frame.T:
        mags = np.abs(col)
        lead = col[int(np.argmax(mags > 1e-12 * mags.max()))]
        assert lead.real > 0 and abs(lead.imag) <= 1e-14 * abs(lead)


# ---------------------------------------------------------------- tests


class TestOrbitOnClusterCoefficients:
    @pytest.mark.parametrize("index", range(len(SHAPES)))
    def test_matches_dense_projection_route(self, index):
        system = list(systems())[index]
        rng = np.random.default_rng(index)
        gamma = system.coupling
        op = system.omega1
        seeds = [
            gamma,  # rank-deficient when the coupling is
            np.hstack([gamma[:, :1], 2 * gamma[:, :1]]) if gamma.size else gamma,
            rng.standard_normal((system.n1, 2)) + 0j,
            np.eye(system.n1)[:, :1],
        ]
        for seed in seeds:
            got = orbit(op, seed)
            want = dense_orbit(op, seed)
            assert got.dim == want.shape[1]
            assert projector_gap(got.frame, want) <= 1e-12
            assert_phase_fixed(got.frame)

    def test_cut_is_relative_to_the_seed_not_the_cluster(self):
        # a 1e-12 sliver along the second eigenvector is below the rank cut
        # against the seed norm, though it is the whole of its cluster's part
        op = np.diag([1.0, 2.0, 3.0]).astype(complex)
        seed = np.array([[1.0], [1e-12], [0.0]])
        assert orbit(op, seed).dim == dense_orbit(op, seed).shape[1] == 1
        assert orbit(op, np.array([[1.0], [1e-8], [0.0]])).dim == 2

    def test_cut_is_on_the_orthonormal_seed_frame(self):
        # 3e-9 along the second eigenvector: above tau_rank on the orthonormal
        # frame of the seed, below tau_rank times its largest column norm 1e3
        op = np.diag([1.0, 2.0, 3.0]).astype(complex)
        seed = np.array([[1.0, 0.0], [3e-9, 0.0], [0.0, 1.0]]) @ np.diag([1.0, 1e3])
        got, want = orbit(op, seed), dense_orbit(op, seed)
        assert got.dim == want.shape[1] == 3
        assert projector_gap(got.frame, want) <= 1e-12

    def test_coupled_parts_match_dense_routes(self):
        # the last system couples its hidden mode at 2 with amplitude 1e-5: kept by the frame rule, but
        # its atom mass 1e-10 is below tau_rank, so h2c drops it
        window = ConservativeSystem(1, 2, np.array([[0, 1, 1e-5], [1, 1, 0], [1e-5, 0, 2]], dtype=complex))
        for system in [*systems(), window]:
            parts = coupled_parts(system)
            h1c = dense_orbit(system.omega1, orthonormal_basis(system.coupling).frame)
            h2c = dense_atom_orbit(system.omega2, system.coupling)
            for got, want, block in (
                (parts.h1c, h1c, system.n1),
                (parts.h1d, svd_complement(h1c), system.n1),
                (parts.h2c, h2c, system.n2),
                (parts.h2d, svd_complement(h2c), system.n2),
            ):
                assert got.ambient_dim == block
                assert got.dim == want.shape[1]
                assert projector_gap(got.frame, want) <= 1e-12


class TestCanonicalRemainders:
    def test_decoupled_components_are_coupled_parts_bitwise(self):
        # canonical_decomposition seeds the orbits on its own spectra; the
        # remainders it attaches must be coupled_parts' h1d and h2d exactly
        rank_zero = planted_system(np.random.default_rng(799), 5, 4, 0)
        assert not rank_zero.coupling.any()
        for system in [*systems(), rank_zero]:
            parts = coupled_parts(system)
            dec = canonical_decomposition(system)
            remainders = dec.components[len(set(dec.assignment)) :]
            want = [(parts.h1d, 0)] * bool(parts.h1d.dim) + [(parts.h2d, 1)] * bool(parts.h2d.dim)
            assert len(remainders) == len(want)
            for got, (sub, side) in zip(remainders, want):
                assert np.array_equal(got[side].frame, sub.frame)
                assert got[1 - side].dim == 0


class TestComplementByQR:
    @pytest.mark.parametrize("n, k", [(1, 1), (4, 1), (6, 3), (7, 6), (5, 5)])
    def test_matches_the_singular_basis_of_the_projector(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        sub = Subspace(n, haar_unitary(n, rng)[:, :k])
        comp = complement(sub)
        assert comp.dim == n - k
        assert projector_gap(comp.frame, svd_complement(sub.frame)) <= 1e-12
        assert np.max(np.abs(sub.frame.conj().T @ comp.frame), initial=0.0) <= 1e-14
        assert_phase_fixed(comp.frame)

    def test_empty_subspace_gives_the_identity(self):
        assert np.array_equal(complement(zero_subspace(3)).frame, np.eye(3))

    def test_moves_continuously_with_the_frame(self):
        rng = np.random.default_rng(3)
        f = haar_unitary(8, rng)[:, :3]
        g = np.linalg.qr(f + 1e-13 * rng.standard_normal((8, 3)))[0]
        moved = complement(Subspace(8, g)).frame - complement(Subspace(8, f)).frame
        assert np.max(np.abs(moved)) <= 1e-10


class TestSInvariantFromTheLeak:
    def test_matches_dense_commutators(self):
        for index, system in enumerate(systems()):
            rng = np.random.default_rng(50 + index)
            n = system.dim
            dec = canonical_decomposition(system)
            frames = [joint_frame(system, h1, h2) for h1, h2 in dec.components]
            frames += [haar_unitary(n, rng)[:, :k] for k in (1, 2, n - 1)]
            parts = coupled_parts(system)
            frames += [joint_frame(system, parts.h1c, zero_subspace(system.n2)),
                       joint_frame(system, parts.h1d, parts.h2d)]
            scale = max(np.linalg.norm(system.omega, 2), 1.0)
            for frame in frames:
                if frame.shape[1] == 0:
                    continue
                verdict, (r_omega, r_p1) = is_s_invariant(system, Subspace(n, frame))
                want, (w_omega, w_p1) = dense_is_s_invariant(system, frame)
                assert verdict == want
                assert abs(r_omega - w_omega) <= 1e-12 * scale
                assert abs(r_p1 - w_p1) <= 1e-12 * scale


SPECS = [
    LatticeSpec(1, 2, 3, 1.0, 2.0, (np.array([1.0, 0.0, 0.0]),)),
    LatticeSpec(2, 1, 3, 1.5, 1.0, (np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, -1.0]))),
    LatticeSpec(1, 3, 2, 1.0, 1.0, (np.array([1.0, 0.5]), np.array([0.0, 1.0]))),
    LatticeSpec(1, 4, 3, 2.0, 3.0, (np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))),
    LatticeSpec(3, 1, 2, 1.0, 1.0, (np.array([0.6, 0.8]),)),
]


class TestFrozenReportClosedForm:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}L{s.l_half_width}N{s.n_components}J{len(s.gammas)}")
    def test_matches_dense_complements(self, spec):
        rep = frozen_report(spec)
        frozen, per, max_resid, omega_norm = dense_frozen(spec)
        scale = max(omega_norm, 1.0)
        assert rep.frozen_dim_complex == frozen.shape[1]
        assert projector_gap(np.kron(np.eye(spec.volume), rep.site_frozen_frame), frozen) <= 1e-12
        assert [m for _, m in rep.coupled_mult_per_cluster] == [m for _, m in per]
        for (v, _), (w, _) in zip(rep.coupled_mult_per_cluster, per):
            assert abs(v - w) <= 1e-12 * scale
        assert abs(rep.max_frozen_residual - max_resid) <= 1e-12 * scale


class TestContinuity:
    def test_decoupled_frames_follow_a_tiny_move_of_omega(self):
        # the decoupled frames are complements of the coupled orbits; a
        # 1e-15 relative move of omega must not turn them
        for index, system in enumerate(systems()):
            rng = np.random.default_rng(90 + index)
            h = rng.standard_normal((system.dim,) * 2) + 1j * rng.standard_normal((system.dim,) * 2)
            h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T, 2)
            moved = ConservativeSystem(
                system.n1, system.n2, system.omega + 1e-15 * np.linalg.norm(system.omega, 2) * h
            )
            before, after = coupled_parts(system), coupled_parts(moved)
            for name in ("h1d", "h2d"):
                a, b = getattr(before, name).frame, getattr(after, name).frame
                assert a.shape == b.shape
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-9, (index, name)
