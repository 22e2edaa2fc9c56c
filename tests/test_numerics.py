"""Deterministic linear algebra layer: phase fixing, clustering, subspaces."""

import json

import numpy as np
import pytest

from openext import (
    QuadraticHamiltonian,
    SpectralCluster,
    Subspace,
    ToleranceConfig,
    ValidationError,
    cluster_spectrum,
    eigh,
    frequency_operator,
    matrix_rank,
    orthonormal_basis,
    subspaces_equal,
    svd,
)
from openext.numerics import (
    DEFAULT_TOLERANCES,
    complement,
    eigen_clusters,
    require_hermitian,
    zero_subspace,
)

from conftest import haar_unitary, random_psd


class TestToleranceConfig:
    def test_defaults(self):
        t = ToleranceConfig()
        assert t.tau_herm == 1e-10
        assert t.tau_orth == 1e-10
        assert t.tau_rank == 1e-9
        assert t.tau_eig_cluster == 1e-8
        assert t.tau_residual == 1e-9

    def test_replace_returns_new(self):
        t = ToleranceConfig()
        t2 = t.replace(tau_rank=1e-6)
        assert t2.tau_rank == 1e-6
        assert t.tau_rank == 1e-9

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValidationError):
            ToleranceConfig.from_mapping({"tau_bogus": 1.0})

    def test_from_mapping_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            ToleranceConfig.from_mapping({"tau_rank": 0.0})

    def test_round_trip_file(self, tmp_path):
        t = ToleranceConfig().replace(tau_eig_cluster=3e-7)
        p = tmp_path / "tol.json"
        p.write_text(json.dumps(t.as_dict()))
        assert ToleranceConfig.from_file(str(p)) == t


class TestEigh:
    def test_ascending_and_reconstructs(self):
        rng = np.random.default_rng(1)
        a = random_psd(rng, 5)
        w, v = eigh(a)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-12 * max(1.0, w[-1]))

    def test_deterministic_phase(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = h + h.conj().T
        w1, v1 = eigh(h)
        w2, v2 = eigh(h.copy(order="F"))
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSvd:
    def test_factorization(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        u, s, vh = svd(m)
        assert np.all(np.diff(s) <= 0)
        assert np.allclose(u @ np.diag(s) @ vh, m, atol=1e-12 * s[0])
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_phase_convention_stable_under_recompute(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        u1, s1, vh1 = svd(m)
        u2, s2, vh2 = svd(np.array(m, order="F"))
        assert np.array_equal(u1, u2)
        assert np.array_equal(vh1, vh2)


def test_require_hermitian_tolerates_roundoff_but_rejects_skew():
    a = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
    out = require_hermitian(a)
    assert out.shape == (2, 2)
    with pytest.raises(ValidationError):
        require_hermitian(np.array([[1.0, 0.5 + 1e-3], [0.5, 2.0]]))


def test_matrix_rank_uses_relative_cut():
    base = np.diag([1.0, 1e-12, 0.0])
    assert matrix_rank(base) == 1
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(3) * 1e-14, scale=1.0) == 0


class TestClusterSpectrum:
    def test_groups_at_relative_width(self):
        vals = np.array([1.0, 1.0 + 5e-9, 2.0, 3.0])
        out = cluster_spectrum(vals, scale=3.0)
        assert [c.dim for c in out] == [2, 1, 1]
        assert out[0].value == pytest.approx(1.0 + 2.5e-9)

    def test_exact_degeneracy(self):
        out = cluster_spectrum(np.array([2.0, 2.0, 2.0]), scale=2.0)
        assert len(out) == 1
        assert out[0] == SpectralCluster(0, 3, 2.0)

    def test_empty(self):
        assert cluster_spectrum(np.array([]), scale=1.0) == []

    def test_zero_scale_separates_distinct(self):
        out = cluster_spectrum(np.array([0.0, 1e-300]), scale=0.0)
        assert len(out) == 2


class TestEigenClusters:
    def test_empty(self):
        w, v, clusters = eigen_clusters(np.zeros((0, 0)), DEFAULT_TOLERANCES)
        assert w.size == 0 and v.shape == (0, 0) and clusters == []

    def test_values_only(self):
        w, v, clusters = eigen_clusters(np.diag([1.0, 1.0, 2.0]), DEFAULT_TOLERANCES, vectors=False)
        assert v is None
        assert np.array_equal(w, [1.0, 1.0, 2.0])
        assert [c.dim for c in clusters] == [2, 1]

    def test_merges_relative_to_the_spectral_radius(self):
        # a gap of 5e-8 merges against radius 10 (threshold 1e-7) but
        # splits against radius 1 (threshold 1e-8)
        tol = DEFAULT_TOLERANCES
        _, _, wide = eigen_clusters(np.diag([0.5, 0.5 + 5e-8, -10.0]), tol)
        _, _, narrow = eigen_clusters(np.diag([0.5, 0.5 + 5e-8, 1.0]), tol)
        assert [c.dim for c in wide] == [1, 2]
        assert [c.dim for c in narrow] == [1, 1, 1]


class TestPrincipalSqrt:
    def test_square_recovers(self):
        # With unit masses Omega is the principal square root of K.
        rng = np.random.default_rng(5)
        a = random_psd(rng, 6, rank=6).real
        h = QuadraticHamiltonian(tuple("abcdef"), np.eye(6), a)
        r = frequency_operator(h)
        assert np.allclose(r @ r, h.stiffness, atol=1e-10 * np.linalg.norm(a, 2))
        w = np.linalg.eigvalsh(r)
        assert w[0] >= -1e-12


class TestSubspaces:
    def test_frame_must_be_orthonormal(self):
        with pytest.raises(ValidationError):
            Subspace(3, np.array([[1.0], [1.0], [0.0]]))

    def test_orthonormal_basis_filters_dependent_columns(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        cols = np.hstack([v, v @ np.array([[1.0], [2.0]])])
        sub = orthonormal_basis(cols)
        assert sub.dim == 2

    def test_orthonormal_basis_scale_overrides_relative_cut(self):
        # the cut is relative to the largest column norm: tiny but well
        # conditioned columns survive, a column tiny next to another does not
        cols = 1e-12 * np.eye(3)[:, :2]
        assert orthonormal_basis(cols).dim == 2
        assert orthonormal_basis(cols * [1.0, 1e-10]).dim == 1

    def test_complement_of_empty_is_identity(self):
        comp = complement(zero_subspace(4))
        assert np.array_equal(comp.frame, np.eye(4))

    def test_complement_is_orthogonal_and_fills_the_space(self):
        rng = np.random.default_rng(8)
        sub = Subspace(5, haar_unitary(5, rng)[:, :2])
        comp = complement(sub)
        assert comp.dim == 3
        assert np.linalg.norm(sub.frame.conj().T @ comp.frame) < 1e-10
        assert np.allclose(sub.projector() + comp.projector(), np.eye(5), atol=1e-12)

    def test_equality_ignores_basis_choice(self):
        rng = np.random.default_rng(9)
        u = haar_unitary(4, rng)
        f = u[:, :2]
        g = f @ haar_unitary(2, rng)
        assert subspaces_equal(Subspace(4, f), Subspace(4, g))

    def test_projector_idempotent(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(5, rng)
        p = Subspace(5, u[:, :3]).projector()
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)


def test_default_tolerances_are_shared_instance():
    assert DEFAULT_TOLERANCES == ToleranceConfig()
