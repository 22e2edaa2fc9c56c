"""Deterministic linear algebra layer: phase fixing, clustering, subspaces."""

import json
from pathlib import Path

import numpy as np
import pytest

import openext
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
    _phase_fix,
    as_matrix,
    complement,
    eigen_clusters,
    require_hermitian,
    uniform_step,
    zero_subspace,
)

from conftest import haar_unitary, random_psd


class TestToleranceConfig:
    def test_defaults(self):
        t = ToleranceConfig()
        assert t.tau_herm == 1e-10
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

    def test_every_field_is_read(self):
        source = "".join(p.read_text() for p in Path(openext.__file__).parent.glob("*.py"))
        for name in ToleranceConfig.__dataclass_fields__:
            assert f".{name}" in source, name

    def test_from_mapping_accepts_only_json_numbers(self):
        assert ToleranceConfig.from_mapping({"tau_rank": 1}).tau_rank == 1.0
        for value in (True, None, "1e-9", [1e-9], float("nan"), 10**400):
            with pytest.raises(ValidationError):
                ToleranceConfig.from_mapping({"tau_rank": value})

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

    def test_real_symmetric_input_stays_real(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 30):
            a = rng.standard_normal((n, n))
            a = a + a.T
            w, v = eigh(a)
            assert w.dtype == np.float64 and v.dtype == np.float64
            assert np.all(np.diff(w) >= 0)
            assert np.allclose(v.T @ v, np.eye(n), atol=1e-13)
            assert np.allclose((v * w) @ v.T, a, atol=1e-13 * max(1.0, np.abs(w).max()))

    def test_real_sign_rule(self):
        # the first entry above 1e-12 of the column's largest is positive;
        # the block's eigenvectors (0, +-1, 1)/sqrt(2) have a zero first entry
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6))
        blocked = np.array([[1.0, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, 1.0, 3.0]])
        for m in (a + a.T, blocked):
            _, v = eigh(m)
            for col in v.T:
                mags = np.abs(col)
                assert col[np.argmax(mags > 1e-12 * mags.max())] > 0
        _, v = eigh(blocked)
        assert np.allclose(np.abs(v[0]), [1.0, 0.0, 0.0])
        # the rule, not LAPACK's sign choice, fixes the vectors: the same
        # answer for the same matrix in another memory order
        assert np.array_equal(eigh(a + a.T)[1], eigh(np.asfortranarray(a + a.T))[1])

    def test_empty_real_input(self):
        w, v = eigh(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)
        assert w.dtype == np.float64 and v.dtype == np.float64

    def test_rejects_non_symmetric_real_input(self):
        with pytest.raises(ValidationError):
            eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            eigh(np.ones((2, 3)))

    def test_complex_input_keeps_the_complex_route(self):
        # transcription of the complex-only eigh that real input now bypasses
        def complex_route(matrix):
            m = np.asarray(matrix, dtype=np.complex128)
            w, v = np.linalg.eigh(m)
            fixed = np.array(v, dtype=np.complex128)
            for j in range(fixed.shape[1]):
                col = fixed[:, j]
                mags = np.abs(col)
                top = mags.max() if mags.size else 0.0
                if top == 0.0:
                    continue
                k = int(np.argmax(mags > 1e-12 * top))
                fixed[:, j] = col * np.conj(col[k] / abs(col[k]))
            return w.astype(np.float64), fixed

        rng = np.random.default_rng(13)
        for n in (0, 1, 3, 16):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for m in (h + h.conj().T, (h + h.T).real.astype(np.complex128)):
                w, v = eigh(m)
                w_ref, v_ref = complex_route(m)
                assert v.dtype == np.complex128
                assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def per_column_phase_fix(columns):
    """Column-by-column loop that `_phase_fix` vectorizes."""
    fixed = np.array(columns, dtype=np.complex128)
    phases = np.ones(fixed.shape[1], dtype=np.complex128)
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        mags = np.abs(col)
        top = mags.max() if mags.size else 0.0
        if top == 0.0:
            continue
        k = int(np.argmax(mags > 1e-12 * top))
        phases[j] = col[k] / abs(col[k])
        fixed[:, j] = col * np.conj(phases[j])
    return fixed, phases


def vectorized_sign_fix(columns):
    """Flip each real column whose first significant entry is negative (a zero
    column is left alone), in one vectorized product: the real-only route
    `eigh` took before `_phase_fix` kept its input's dtype."""
    columns = np.array(columns)
    if columns.size:
        mags = np.abs(columns)
        first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
        columns *= np.where(columns[first, np.arange(columns.shape[1])] < 0, -1.0, 1.0)
    return columns


def test_phase_fix_is_bitwise_the_per_column_loop():
    # zero columns, signed zeros and entries below the significance cut
    # included; tobytes compares the signs of zeros too
    rng = np.random.default_rng(5)
    for trial in range(600):
        rows, cols = int(rng.integers(0, 24)), int(rng.integers(0, 24))
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        a[:, rng.random(cols) < 0.2] = 0.0
        a[rng.random((rows, cols)) < 0.2] = -0.0
        a[rng.random((rows, cols)) < 0.1] *= 1e-14
        if trial % 3 == 0:
            a = a.real.copy()
            assert _phase_fix(a)[0].tobytes() == vectorized_sign_fix(a).tobytes()
            continue
        for got, ref in zip(_phase_fix(a), per_column_phase_fix(a)):
            assert got.tobytes() == ref.tobytes()


def test_phase_fix_keeps_real_columns_real_and_only_flips_signs():
    rng = np.random.default_rng(6)
    cases = [np.zeros((0, 0)), np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((4, 2)), -np.zeros((4, 2))]
    for _ in range(400):
        rows, cols = int(rng.integers(1, 16)), int(rng.integers(1, 16))
        a = rng.standard_normal((rows, cols))
        a[:, rng.random(cols) < 0.2] = 0.0
        a[rng.random((rows, cols)) < 0.2] = -0.0
        a[rng.random((rows, cols)) < 0.1] *= 1e-14
        cases.append(a)
    for a in cases:
        fixed, phases = _phase_fix(a)
        assert fixed.dtype == phases.dtype == np.float64
        assert fixed.shape == a.shape and phases.shape == (a.shape[1],)
        assert fixed.tobytes() == vectorized_sign_fix(a).tobytes()
        assert set(phases.tolist()) <= {-1.0, 1.0}
        assert (fixed * phases).tobytes() == a.tobytes()


def test_eigh_real_vectors_are_the_sign_fixed_solver_vectors():
    # sparse and block-diagonal symmetric matrices give eigenvectors with exact and signed zeros
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(0, 12))
        h = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        m = h + h.T
        w, v = eigh(m)
        assert v.dtype == np.float64
        assert v.tobytes() == vectorized_sign_fix(np.linalg.eigh(m)[1]).tobytes()


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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("read", [eigh, svd, matrix_rank, require_hermitian, as_matrix],
                         ids=["eigh", "svd", "matrix_rank", "require_hermitian", "as_matrix"])
def test_a_transient_read_leaves_the_callers_array_writeable(read, dtype):
    a = np.array([[2.0, 0.5], [0.5, 3.0]], dtype=dtype)
    before = a.copy()
    read(a)
    assert a.flags.writeable and a.tobytes() == before.tobytes()
    a[0, 0] = 7.0  # and still the caller's to write


def test_as_matrix_owns_a_copy_only_when_asked():
    a = np.eye(2, dtype=np.complex128)
    view, own = as_matrix(a), as_matrix(a, own=True)
    assert np.shares_memory(view, a) and not np.shares_memory(own, a)
    assert not view.flags.writeable and not own.flags.writeable and a.flags.writeable
    fresh = as_matrix([[1.0, 2.0], [3.0, 4.0]], own=True)  # converted input is already the holder's own
    assert fresh.base is None and not fresh.flags.writeable


def test_matrix_rank_uses_relative_cut():
    base = np.diag([1.0, 1e-12, 0.0])
    assert matrix_rank(base) == 1
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(3) * 1e-14) == 3


def loop_clusters(w, scale, tol=DEFAULT_TOLERANCES):
    """The per-value gap loop that `cluster_spectrum` replaced, as the oracle."""
    clusters, start, threshold = [], 0, tol.tau_eig_cluster * scale
    for i in range(1, w.size + 1):
        if i == w.size or (w[i] - w[i - 1]) > threshold:
            clusters.append(SpectralCluster(start, i, float(np.mean(w[start:i]))))
            start = i
    return clusters


def chain_spectrum(d, half_width):
    """Ascending eigenvalues of the d-fold Kronecker sum of the chain form T."""
    m = 2 * half_width + 1
    beta = 2.0 - 2.0 * np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m + 1))
    total = beta
    for _ in range(d - 1):
        total = np.add.outer(total, beta).ravel()
    return np.sort(total)


class TestClusterSpectrum:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.7],
            [2.5] * 5,
            1.0 + np.linspace(0.0, 1e-7, 40),
            np.sort(np.r_[-np.geomspace(1.0, 1e-3, 30), -2.0 + 3e-9 * np.arange(4)]),
            [0.0, 1e-300],
            np.sort(np.random.default_rng(81).uniform(-1, 1, 500).round(8)),
            chain_spectrum(3, 10),
        ],
        ids=["empty", "one", "all_equal", "ramp_10x_threshold", "negative", "zero_and_tiny", "seeded_rounded",
             "chain_d3"],
    )
    def test_bitwise_the_per_value_loop(self, values):
        w = np.asarray(values, dtype=np.float64)
        want = loop_clusters(w, float(np.max(np.abs(w))) if w.size else 0.0)
        got = cluster_spectrum(w)
        assert [(c.start, c.stop) for c in got] == [(c.start, c.stop) for c in want]
        assert np.array([c.value for c in got]).tobytes() == np.array([c.value for c in want]).tobytes()
        assert all(type(x) is int for c in got for x in (c.start, c.stop))
        assert all(type(c.value) is float for c in got)

    def test_chain_spectrum_has_multi_member_clusters(self):
        w = chain_spectrum(3, 10)
        assert w.size == 9261
        dims = [c.dim for c in cluster_spectrum(w)]
        assert sum(dims) == w.size and max(dims) >= 6 and dims.count(1) < len(dims)

    def test_rejects_unsorted_and_non_vector_input(self):
        with pytest.raises(ValidationError):
            cluster_spectrum(np.array([2.0, 1.0]))
        with pytest.raises(ValidationError):
            cluster_spectrum(np.ones((2, 2)))

    def test_groups_at_relative_width(self):
        vals = np.array([1.0, 1.0 + 5e-9, 2.0, 3.0])
        out = cluster_spectrum(vals)
        assert [c.dim for c in out] == [2, 1, 1]
        assert out[0].value == pytest.approx(1.0 + 2.5e-9)

    def test_exact_degeneracy(self):
        out = cluster_spectrum(np.array([2.0, 2.0, 2.0]))
        assert len(out) == 1
        assert out[0] == SpectralCluster(0, 3, 2.0)

    def test_empty(self):
        assert cluster_spectrum(np.array([])) == []

    def test_zero_scale_separates_distinct(self):
        out = cluster_spectrum(np.array([0.0, 1e-300]))
        assert len(out) == 2


class TestEigenClusters:
    def test_empty(self):
        w, v, clusters = eigen_clusters(np.zeros((0, 0)), DEFAULT_TOLERANCES)
        assert w.size == 0 and v.shape == (0, 0) and clusters == []

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
        h = QuadraticHamiltonian(np.ones(6), a)
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
        # the cut is relative to the largest singular value: tiny but well
        # conditioned columns survive, a column tiny next to another does not
        cols = 1e-12 * np.eye(3)[:, :2]
        assert orthonormal_basis(cols).dim == 2
        assert orthonormal_basis(cols * [1.0, 1e-10]).dim == 1

    def test_orthonormal_basis_cuts_like_matrix_rank(self):
        # sigma = (1, 8e-10) with both column norms 0.7071: the second value
        # lies between tau_rank times the largest column norm and tau_rank * sigma_max
        c, sc = 0.7071067811865476, 5.656854249492381e-10
        gamma = np.array([[c, c], [-sc, sc]])
        assert orthonormal_basis(gamma).dim == matrix_rank(gamma) == 1
        rng = np.random.default_rng(61)
        tau = DEFAULT_TOLERANCES.tau_rank
        for _ in range(10):
            n, k = int(rng.integers(3, 7)), int(rng.integers(2, 4))
            u = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
            v = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            s = np.ones(k)
            s[-1] = 0.0
            top_column = float(np.linalg.norm(u @ np.diag(s) @ v.conj().T, axis=0).max())
            s[-1] = tau * np.sqrt(top_column)  # between tau * top_column and tau * sigma_max = tau
            gamma = u @ np.diag(s) @ v.conj().T
            assert tau * np.linalg.norm(gamma, axis=0).max() < s[-1] < tau
            assert orthonormal_basis(gamma).dim == matrix_rank(gamma) == k - 1

    def test_orthonormal_basis_of_columns_whose_squares_underflow(self):
        cols = np.diag([1e-170, 3e-170])
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

    def test_equality_reads_tau_residual_without_a_floor(self):
        line = Subspace(2, np.array([[1.0], [0.0]]))
        tilted = Subspace(2, np.array([[1.0], [1e-11]]) / np.hypot(1.0, 1e-11))
        assert subspaces_equal(line, tilted)
        assert not subspaces_equal(line, tilted, ToleranceConfig(tau_residual=1e-12))

    def test_projector_idempotent(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(5, rng)
        p = Subspace(5, u[:, :3]).projector()
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)


def test_uniform_step():
    dt = 0.1
    grid = dt * np.arange(6)
    for rel, expected in ((2e-9, None), (5e-10, dt)):
        bumped = grid.copy()
        bumped[3:] += rel * dt
        assert uniform_step(bumped) == expected
    assert uniform_step(grid) == dt
    assert uniform_step(np.zeros(0)) is None
    assert uniform_step(np.array([1.0])) is None


def test_default_tolerances_are_shared_instance():
    assert DEFAULT_TOLERANCES == ToleranceConfig()
