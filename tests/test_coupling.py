"""Coupling channels, invariant decompositions, mutual decoupling."""

import numpy as np
import pytest

from openext import (
    ConservativeSystem,
    Subspace,
    ValidationError,
    canonical_decomposition,
    channels,
    coupled_parts,
    coupling_matrix,
    decoupling_report,
    is_s_invariant,
    orbit,
    subspaces_equal,
)

from openext.numerics import DEFAULT_TOLERANCES

from conftest import haar_unitary, random_conservative


def planted_block_system(rng, sizes, conjugate=True):
    """Independent diagonal blocks with rank-one couplings, optionally
    mixed by a block unitary that preserves the observable/hidden split."""
    blocks = []
    shift = 0.0
    for k1, k2 in sizes:
        w1 = np.sort(rng.uniform(0.0, 1.0, k1)) + shift
        w2 = np.sort(rng.uniform(0.0, 1.0, k2)) + shift
        shift += 3.0
        g = rng.standard_normal((k1, k2)) + 1j * rng.standard_normal((k1, k2))
        blocks.append((np.diag(w1.astype(complex)), np.diag(w2.astype(complex)), g))
    n1 = sum(k1 for k1, _ in sizes)
    n2 = sum(k2 for _, k2 in sizes)
    omega = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    i1 = i2 = 0
    for b1, b2, g in blocks:
        k1, k2 = b1.shape[0], b2.shape[0]
        omega[i1 : i1 + k1, i1 : i1 + k1] = b1
        omega[n1 + i2 : n1 + i2 + k2, n1 + i2 : n1 + i2 + k2] = b2
        omega[i1 : i1 + k1, n1 + i2 : n1 + i2 + k2] = g
        omega[n1 + i2 : n1 + i2 + k2, i1 : i1 + k1] = g.conj().T
        i1 += k1
        i2 += k2
    if conjugate:
        w = np.zeros_like(omega)
        w[:n1, :n1] = haar_unitary(n1, rng)
        w[n1:, n1:] = haar_unitary(n2, rng)
        omega = w @ omega @ w.conj().T
    return ConservativeSystem(n1, n2, omega)


def reference_grouping(system, tol=DEFAULT_TOLERANCES):
    """Channel grouping built the direct way, as a test-local oracle.

    One orbit per channel and side, the overlap |F_p^H u_q| of the orbit
    of channel p with channel q, union-find over the linked pairs, then
    the orbit of each group's channels.  Returns (assignment, frames)
    with frames[k] = (H1 frame, H2 frame) of group k.
    """
    cs = channels(system, tol)
    r = cs.rank
    orbits1 = [orbit(system.omega1, cs.g[:, q], tol) for q in range(r)]
    orbits2 = [orbit(system.omega2, cs.g_prime[:, q], tol) for q in range(r)]
    parent = list(range(r))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in range(r):
        for q in range(p + 1, r):
            touch1 = np.linalg.norm(orbits1[p].frame.conj().T @ cs.g[:, q])
            touch2 = np.linalg.norm(orbits2[p].frame.conj().T @ cs.g_prime[:, q])
            if touch1 > tol.tau_residual or touch2 > tol.tau_residual:
                a, b = find(p), find(q)
                parent[max(a, b)] = min(a, b)
    roots = {}
    for q in range(r):
        roots.setdefault(find(q), []).append(q)
    groups = sorted(roots.values(), key=lambda group: group[0])
    assignment = [0] * r
    for k, group in enumerate(groups):
        for q in group:
            assignment[q] = k
    frames = [
        (orbit(system.omega1, cs.g[:, group], tol).frame, orbit(system.omega2, cs.g_prime[:, group], tol).frame)
        for group in groups
    ]
    return tuple(assignment), frames


def structured_system(rng):
    """Random system with repeated eigenvalues, sparse or equal-strength couplings.

    Each side's spectrum is drawn from a few levels, so eigen-clusters of
    dimension two or more are common; about half the systems couple
    single eigenvectors (channels inside one cluster then have orthogonal
    projections, and a channel is orthogonal to most clusters), and about
    a third give all channels the same strength.
    """
    n1, n2 = (int(k) for k in rng.integers(2, 7, size=2))
    w1 = rng.choice([0.0, 1.0, 2.5], n1).astype(complex)
    w2 = rng.choice([-1.0, 0.5, 3.0], n2).astype(complex)
    rank = int(rng.integers(1, min(n1, n2) + 1))
    if rng.random() < 0.5:
        gamma = np.zeros((n1, n2), dtype=complex)
        rows = rng.choice(n1, rank, replace=False)
        cols = rng.choice(n2, rank, replace=False)
        gamma[rows, cols] = rng.uniform(0.5, 2.0, rank)
    else:
        a = haar_unitary(n1, rng)[:, :rank]
        b = haar_unitary(n2, rng)[:, :rank]
        gamma = a @ np.diag(rng.uniform(0.5, 2.0, rank)) @ b.conj().T
    if rng.random() < 1 / 3:
        # equal channel strengths: replace every nonzero singular value by one
        left, sigma, right_h = np.linalg.svd(gamma, full_matrices=False)
        keep = sigma > 1e-12
        gamma = left[:, keep] @ right_h[keep]
    # rotated eigenbases turn the exact zeros of a sparse coupling into rounding noise
    u1, u2 = (haar_unitary(n1, rng), haar_unitary(n2, rng)) if rng.random() < 0.5 else (np.eye(n1), np.eye(n2))
    omega = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    omega[:n1, :n1] = u1 @ np.diag(w1) @ u1.conj().T
    omega[n1:, n1:] = u2 @ np.diag(w2) @ u2.conj().T
    gamma = u1 @ gamma @ u2.conj().T
    omega[:n1, n1:] = gamma
    omega[n1:, :n1] = gamma.conj().T
    return ConservativeSystem(n1, n2, 0.5 * (omega + omega.conj().T))


class TestChannels:
    def test_worked_example(self, worked_system):
        ch = channels(worked_system)
        assert ch.rank == 1
        assert ch.gammas[0] == pytest.approx(2.0)
        assert np.allclose(ch.g[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(np.abs(ch.g_prime[:, 0]), [2**-0.5, 2**-0.5], atol=1e-12)
        assert ch.degenerate_groups == ()

    def test_channel_vectors_diagonalize_gram(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            sys_ = random_conservative(rng, 3, 4)
            ch = channels(sys_)
            gram = sys_.coupling @ sys_.coupling.conj().T
            for q in range(ch.rank):
                g = ch.g[:, q]
                assert np.linalg.norm(gram @ g - ch.gammas[q] * g) < 1e-10 * max(
                    ch.gammas[0], 1.0
                )

    def test_polar_relation_between_sides(self):
        # Gamma maps g'_q to sqrt(gamma_q) g_q
        rng = np.random.default_rng(51)
        sys_ = random_conservative(rng, 3, 3)
        ch = channels(sys_)
        for q in range(ch.rank):
            lhs = sys_.coupling @ ch.g_prime[:, q]
            rhs = np.sqrt(ch.gammas[q]) * ch.g[:, q]
            assert np.linalg.norm(lhs - rhs) < 1e-10 * max(np.sqrt(ch.gammas[0]), 1.0)

    def test_weights_descend(self):
        rng = np.random.default_rng(52)
        ch = channels(random_conservative(rng, 4, 4))
        assert all(a >= b for a, b in zip(ch.gammas, ch.gammas[1:]))

    def test_zero_coupling_gives_empty_set(self):
        sys_ = ConservativeSystem(2, 2, np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        ch = channels(sys_)
        assert ch.rank == 0
        assert ch.gammas == ()

    def test_degenerate_weights_grouped(self):
        omega = np.zeros((4, 4), dtype=complex)
        omega[0, 2] = omega[2, 0] = 1.0
        omega[1, 3] = omega[3, 1] = 1.0
        sys_ = ConservativeSystem(2, 2, omega)
        ch = channels(sys_)
        assert ch.rank == 2
        assert ch.degenerate_groups == ((0, 1),)

    @pytest.mark.parametrize(
        "strengths, groups", [((3, 2, 2, 1), ((1, 2),)), ((2, 2, 1, 1), ((0, 1), (2, 3)))]
    )
    def test_degenerate_groups_use_descending_channel_indices(self, strengths, groups):
        omega = np.zeros((8, 8), dtype=complex)
        omega[:4, 4:] = np.diag(np.sqrt(strengths))
        omega[4:, :4] = omega[:4, 4:]
        ch = channels(ConservativeSystem(4, 4, omega))
        assert ch.gammas == pytest.approx(strengths)
        assert ch.degenerate_groups == groups

    def test_couplings_whose_squares_underflow_stay_distinct(self):
        omega = np.zeros((4, 4), dtype=complex)
        omega[2:, 2:] = np.diag([1.0, 2.0])
        omega[:2, 2:] = np.diag([1e-170, 3e-170])
        omega[2:, :2] = omega[:2, 2:]
        ch = channels(ConservativeSystem(2, 2, omega))
        assert ch.rank == 2
        assert ch.degenerate_groups == ()
        assert ch.gammas == (0.0, 0.0)  # sigma^2 is below the float range


class TestCouplingMatrix:
    def test_worked_example_against_hand_count(self, worked_system):
        # parts live in the coordinates of their own block
        e = np.eye(2)
        p1 = [Subspace(2, e[:, :1]), Subspace(2, e[:, 1:])]
        p2 = [Subspace(2, e[:, :1]), Subspace(2, e[:, 1:])]
        m = coupling_matrix(worked_system, p1, p2)
        assert m.tolist() == [[1, 1], [0, 0]]

    def test_entries_are_ranks(self):
        rng = np.random.default_rng(53)
        sys_ = random_conservative(rng, 3, 3)
        p1 = [Subspace(3, np.eye(3))]
        p2 = [Subspace(3, np.eye(3))]
        m = coupling_matrix(sys_, p1, p2)
        assert m.shape == (1, 1)
        assert m[0, 0] == np.linalg.matrix_rank(sys_.coupling)

    def test_mismatched_ambient_rejected(self, worked_system):
        p1 = [Subspace(3, np.eye(3)[:, :1])]
        p2 = [Subspace(3, np.eye(3)[:, 1:2])]
        with pytest.raises(ValidationError):
            coupling_matrix(worked_system, p1, p2)

    def test_empty_part_lists_give_zero_matrices(self, worked_system):
        parts = [Subspace(2, np.eye(2)[:, :1]), Subspace(2, np.eye(2)[:, 1:])]
        for p1, p2, shape in (([], parts, (0, 2)), (parts, [], (2, 0)), ([], [], (0, 0))):
            m = coupling_matrix(worked_system, p1, p2)
            assert m.dtype == np.int64 and m.shape == shape

    def test_parts_need_not_be_orthogonal(self, worked_system):
        e = np.eye(2)
        overlapping = [Subspace(2, e), Subspace(2, e[:, :1])]
        m = coupling_matrix(worked_system, overlapping, [Subspace(2, e)])
        assert m.tolist() == [[np.linalg.matrix_rank(worked_system.coupling)], [1]]


class TestSInvariance:
    def test_worked_example_cases(self, worked_system):
        e = np.eye(4)
        cases = [
            ([1], True),          # frozen observable line
            ([0, 2, 3], True),    # coupled part, both sides
            ([0], False),         # loses the hidden image
            ([2, 3], False),      # loses the observable image
            ([0, 1, 2, 3], True), # everything
        ]
        for cols, expect in cases:
            sub = Subspace(4, e[:, cols])
            verdict, residuals = is_s_invariant(worked_system, sub)
            assert verdict == expect, cols
            if expect:
                assert max(residuals) < 1e-12

    def test_residuals_scale_with_leak(self, worked_system):
        v = np.zeros((4, 1))
        v[0, 0] = 1.0
        _, residuals = is_s_invariant(worked_system, Subspace(4, v))
        # e1 couples to (e3 + e4), norm sqrt(2)
        assert max(residuals) == pytest.approx(np.sqrt(2.0))

    def test_omega_norm_is_factored_once_per_system(self, worked_system, monkeypatch):
        # two residual norms per call, plus one ||omega||_2 per system
        impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        calls = []
        svd = impl.svd
        monkeypatch.setattr(impl, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        e = np.eye(4)
        results = [is_s_invariant(worked_system, Subspace(4, e[:, cols])) for cols in ([0, 2, 3], [1], [0])]
        assert len(calls) == 2 * len(results) + 1
        assert worked_system._omega_norm == float(np.linalg.norm(worked_system.omega, 2))
        assert [verdict for verdict, _ in results] == [True, True, False]

    def test_canonical_components_are_invariant(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            sys_ = planted_block_system(rng, [(2, 1), (1, 2)])
            dec = canonical_decomposition(sys_)
            for h1p, h2p in dec.components:
                cols = [f.frame for f in (h1p, h2p) if f.dim]
                sub = Subspace(sys_.dim, np.hstack(cols))
                verdict, _ = is_s_invariant(sys_, sub)
                assert verdict


class TestCanonicalDecomposition:
    def test_worked_example_components(self, worked_system):
        dec = canonical_decomposition(worked_system)
        assert dec.count == 2
        assert dec.assignment == (0,)
        dims = [(a.dim, b.dim) for a, b in dec.components]
        assert dims == [(1, 2), (1, 0)]
        # second component is the frozen observable line
        e = np.eye(4)
        assert subspaces_equal(dec.components[1][0], Subspace(4, e[:, 1:2]))

    def test_components_partition_the_space(self):
        rng = np.random.default_rng(55)
        for _ in range(8):
            sys_ = planted_block_system(rng, [(1, 1), (2, 2)])
            dec = canonical_decomposition(sys_)
            total = sum(a.dim + b.dim for a, b in dec.components)
            assert total == sys_.dim

    def test_recovers_planted_component_count(self):
        rng = np.random.default_rng(56)
        for trial in range(10):
            sizes = [(1, 1), (2, 1), (1, 2)][: 2 + trial % 2]
            sys_ = planted_block_system(rng, sizes)
            dec = canonical_decomposition(sys_)
            two_sided = [c for c in dec.components if c[0].dim and c[1].dim]
            assert len(two_sided) == len(sizes)

    def test_inter_component_blocks_vanish(self):
        rng = np.random.default_rng(57)
        sys_ = planted_block_system(rng, [(2, 2), (1, 1)])
        dec = canonical_decomposition(sys_)
        frames = [
            np.hstack([f.frame for f in comp if f.dim]) for comp in dec.components
        ]
        norm = np.linalg.norm(sys_.omega, 2)
        for i in range(len(frames)):
            for j in range(i + 1, len(frames)):
                blk = frames[i].conj().T @ sys_.omega @ frames[j]
                assert np.max(np.abs(blk)) < 1e-9 * norm

    def test_assignment_maps_channels_to_components(self, worked_system):
        dec = canonical_decomposition(worked_system)
        ch = channels(worked_system)
        assert len(dec.assignment) == ch.rank
        assert all(0 <= k < dec.count for k in dec.assignment)

    def test_uncoupled_system_splits_into_lines(self):
        sys_ = ConservativeSystem(2, 1, np.diag([1.0, 2.0, 3.0]).astype(complex))
        dec = canonical_decomposition(sys_)
        assert dec.assignment == ()
        assert sum(a.dim + b.dim for a, b in dec.components) == 3

    def test_matches_per_channel_reference(self):
        rng = np.random.default_rng(58)
        shared = 0
        for _ in range(150):
            sys_ = structured_system(rng)
            assignment, frames = reference_grouping(sys_)
            dec = canonical_decomposition(sys_)
            assert dec.assignment == assignment
            for (h1, h2), (f1, f2) in zip(dec.components, frames):
                assert np.array_equal(h1.frame[: sys_.n1], f1)
                assert np.array_equal(h2.frame[sys_.n1 :], f2)
            shared += len(frames) < len(assignment)
        # both outcomes occur: some channels merge, some stay apart
        assert 0 < shared < 150

    @pytest.mark.parametrize(
        "g0, g1, assignment, dims",
        [
            # projections onto the 2-dim cluster are e0 and e1: orthogonal
            ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], (0, 1), [(1, 1), (1, 1), (1, 0)]),
            # both project onto e0 / sqrt(2): the channels interact
            ([1.0, 0.0, 1.0], [1.0, 0.0, -1.0], (0, 0), [(2, 2), (1, 0)]),
        ],
    )
    def test_two_channels_in_one_two_dim_cluster(self, g0, g1, assignment, dims):
        # omega1 = diag(1, 1, 4): span(e0, e1) is one eigen-cluster
        g = np.array([g0, g1], dtype=complex).T
        g /= np.linalg.norm(g, axis=0)
        gamma = g @ np.diag([2.0, 1.0])
        omega = np.diag([1.0, 1.0, 4.0, 0.0, 5.0]).astype(complex)
        omega[:3, 3:] = gamma
        omega[3:, :3] = gamma.conj().T
        sys_ = ConservativeSystem(3, 2, omega)
        dec = canonical_decomposition(sys_)
        assert dec.assignment == assignment
        assert [(a.dim, b.dim) for a, b in dec.components] == dims
        assert reference_grouping(sys_)[0] == assignment

    def test_chain_of_links_is_one_component(self):
        # channels 0 and 1 meet in the omega1 eigenvector e0, channels 1 and 2
        # in the omega2 eigenvector e1; 0 and 2 touch only through channel 1
        r = 2**-0.5
        g = np.array([[r, 0.0, r], [r, 0.0, -r], [0.0, 1.0, 0.0]]).T
        g_prime = np.array([[1.0, 0.0, 0.0], [0.0, r, r], [0.0, r, -r]]).T
        gamma = g @ np.diag([3.0, 2.0, 1.0]) @ g_prime.T
        omega = np.diag([1.0, 2.0, 4.0, 0.0, 3.0, 5.0]).astype(complex)
        omega[:3, 3:] = gamma
        omega[3:, :3] = gamma.T
        sys_ = ConservativeSystem(3, 3, omega)
        assert canonical_decomposition(sys_).assignment == (0, 0, 0)
        assert reference_grouping(sys_)[0] == (0, 0, 0)


class TestDecouplingReport:
    def test_frozen_line_decouples(self, worked_system):
        sub = Subspace(2, np.eye(2)[:, 1:])
        rep = decoupling_report(worked_system, sub)
        assert rep.decoupled
        assert rep.residual_internal < 1e-12
        assert rep.residual_kernel < 1e-12
        assert rep.reverse_residual_internal < 1e-12
        assert rep.reverse_residual_kernel < 1e-12
        h1_sub, h2_sub = rep.splitting
        assert h1_sub.dim == 1 and h2_sub.dim == 0

    def test_coupled_line_decouples_with_its_orbit(self, worked_system):
        sub = Subspace(2, np.eye(2)[:, :1])
        rep = decoupling_report(worked_system, sub)
        assert rep.decoupled
        h1_sub, h2_sub = rep.splitting
        assert h1_sub.dim == 1 and h2_sub.dim == 2

    def test_oblique_line_fails_internal(self, worked_system):
        v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        rep = decoupling_report(worked_system, Subspace(2, v))
        assert not rep.decoupled
        assert rep.residual_internal == pytest.approx(1.5, abs=1e-12)

    def test_kernel_route_catches_memory_mixing(self):
        # omega1 = 0 cannot leak, but the kernel mixes the two modes
        omega = np.zeros((3, 3), dtype=complex)
        omega[2, 2] = 1.0
        omega[0, 2] = omega[2, 0] = 1.0
        omega[1, 2] = omega[2, 1] = 1.0
        sys_ = ConservativeSystem(2, 1, omega)
        rep = decoupling_report(sys_, Subspace(2, np.eye(2)[:, :1]))
        assert not rep.decoupled
        assert rep.residual_internal < 1e-12
        assert rep.residual_kernel > 0.4

    def test_accepts_full_space_embedding(self, worked_system):
        # the same candidate given as a subspace of the extension space
        sub = Subspace(4, np.eye(4)[:, 1:2])
        rep = decoupling_report(worked_system, sub)
        assert rep.decoupled

    def test_time_grid_spans_the_beat_between_eigen_clusters(self):
        # 1 and 1 + 1e-10 merge into one atom at 1 + 5e-11; the beat is with 2
        omega = np.diag([0.0, 1.0, 1.0 + 1e-10, 2.0]).astype(complex)
        omega[0, 1:] = omega[1:, 0] = 1.0
        rep = decoupling_report(ConservativeSystem(1, 3, omega), Subspace(1, np.eye(1)))
        assert rep.times[-1] == pytest.approx(2.0 * np.pi / (2.0 - (1.0 + 5e-11)), rel=1e-12)

    def test_kernel_residual_times_recorded(self, worked_system):
        rep = decoupling_report(worked_system, Subspace(2, np.eye(2)[:, 1:]))
        assert len(rep.times) > 0
        assert rep.times[0] == 0.0
