"""Core data types, validation reports, and JSON / CSV round trips."""

import json

import numpy as np
import pytest

from openext import (
    ConservativeSystem,
    NotPositiveSemidefiniteError,
    OpenSystem,
    PointMeasure,
    QuadraticHamiltonian,
    Subspace,
    UnboundedCouplingError,
    ValidationError,
    check_dissipation,
    frequency_operator,
    measure_of,
    minimal_extension,
    validate,
)
from openext.serialization import (
    SCHEMA,
    detect_kind,
    load_object,
    matrix_from_json,
    matrix_to_json,
    measure_from_json,
    measure_to_json,
    open_system_from_json,
    open_system_to_json,
    read_kernel_csv,
    system_from_json,
    system_to_json,
    write_kernel_csv,
    write_trajectory_csv,
)

from conftest import random_measure, random_psd


class TestConservativeSystem:
    def test_blocks(self, worked_system):
        s = worked_system
        assert s.n1 == 2 and s.n2 == 2 and s.dim == 4
        assert np.array_equal(s.omega1, np.diag([0.0 + 0j, 3.0]))
        assert np.array_equal(s.omega2, np.diag([1.0 + 0j, 2.0]))
        assert np.array_equal(s.coupling, np.array([[1.0 + 0j, 1.0], [0.0, 0.0]]))

    def test_internal_plus_coupling_parts(self, worked_system):
        s = worked_system
        c = s.coupling_part
        assert np.max(np.abs(c[: s.n1, : s.n1])) == 0.0
        assert np.max(np.abs(c[s.n1 :, s.n1 :])) == 0.0
        assert np.array_equal(c[: s.n1, s.n1 :], s.omega[: s.n1, s.n1 :])
        assert np.array_equal(c[s.n1 :, : s.n1], s.omega[s.n1 :, : s.n1])

    def test_non_hermitian_surfaces_in_validation(self):
        # construction stores the matrix as given; validate flags it
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        rep = validate(ConservativeSystem(2, 1, m))
        assert not rep.ok
        assert rep.violations[0].code == "not_hermitian"

    def test_rejects_bad_split(self):
        with pytest.raises(ValidationError):
            ConservativeSystem(0, 2, np.eye(2, dtype=complex))
        with pytest.raises(ValidationError):
            ConservativeSystem(2, 1, np.eye(4, dtype=complex))

    def test_hidden_side_may_be_empty(self):
        s = ConservativeSystem(2, 0, np.eye(2, dtype=complex))
        assert s.coupling.shape == (2, 0)


class TestPointMeasure:
    def test_atoms_sorted_and_merged(self):
        m = np.eye(2)
        mu = PointMeasure.create(2, [(2.0, m), (1.0, m), (1.0 + 1e-12, m)])
        # the merged atom sits at the cluster mean, 1 + 5e-13
        assert mu.frequencies.tolist() == [np.mean([1.0, 1.0 + 1e-12]), 2.0]
        assert np.array_equal(mu.masses[0], 2 * np.eye(2))

    def test_create_merges_at_the_scale_of_the_largest_frequency(self):
        # gap 5e-7 <= tau_eig_cluster * 101: one rule with `measure_of`, so the round trip closes
        atoms = [(100.0, [[1.0]]), (100.0 + 5e-7, [[2.0]]), (101.0, [[1.0]])]
        mu = PointMeasure.create(1, atoms)
        assert mu.frequencies.tolist() == [np.mean([100.0, 100.0 + 5e-7]), 101.0]
        assert mu.masses[:, 0, 0].tolist() == [3.0, 1.0]
        assert validate(mu).ok
        back = measure_of(minimal_extension(mu))
        assert back.frequencies.tolist() == mu.frequencies.tolist()
        assert np.allclose(back.masses, mu.masses, rtol=0.0, atol=1e-12)

    def test_create_drops_zero_mass(self):
        mu = PointMeasure.create(2, [(1.0, np.zeros((2, 2))), (2.0, np.eye(2))])
        assert mu.frequencies.size == 1

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(ValidationError):
            PointMeasure(2, [2.0, 1.0], [np.eye(2), np.eye(2)])

    def test_rejects_non_hermitian_mass(self):
        with pytest.raises(ValidationError):
            PointMeasure(2, [1.0], [np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_exactly_hermitian_stack_is_stored_without_copy(self):
        stack = np.stack([np.eye(2), np.array([[2.0, 1j], [-1j, 1.0]])]).astype(complex)
        mu = PointMeasure(2, np.array([0.5, 1.5]), stack)
        assert mu.masses is stack
        assert not mu.masses.flags.writeable and not mu.frequencies.flags.writeable
        assert mu.frequencies.dtype == np.float64 and mu.masses.dtype == np.complex128

    def test_stores_hermitian_parts_and_leaves_the_input(self):
        near = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]], dtype=complex)
        stack = np.stack([np.eye(2, dtype=complex), near])
        before = stack.copy()
        mu = PointMeasure(2, [0.0, 1.0], stack)
        assert np.array_equal(stack, before) and stack.flags.writeable
        assert np.array_equal(mu.masses[0], np.eye(2))
        assert np.array_equal(mu.masses[1], 0.5 * (near + near.conj().T))
        assert np.array_equal(mu.masses[1], mu.masses[1].conj().T)

    @pytest.mark.parametrize(
        "freqs, masses",
        [([1.0], np.ones((1, 3, 3))), ([1.0, 2.0], np.ones((1, 2, 2))), ([np.inf], np.ones((1, 2, 2))),
         ([1.0], [[[np.nan, 0.0], [0.0, 1.0]]]), ([[1.0]], np.ones((1, 2, 2)))],
        ids=["wrong_dim", "count_mismatch", "inf_frequency", "nan_mass", "frequencies_2d"],
    )
    def test_rejects_malformed_arrays(self, freqs, masses):
        with pytest.raises(ValidationError):
            PointMeasure(2, freqs, masses)

    def test_total_mass(self):
        # bitwise the sum in atom order, also for 1 x 1 masses, where numpy's
        # own reduction over the stack pairs the terms differently
        rng = np.random.default_rng(0)
        for dim, count in ((3, 4), (1, 40)):
            mu = random_measure(rng, dim, count)
            direct = np.zeros((dim, dim), dtype=complex)
            for mass in mu.masses:
                direct = direct + mass
            assert np.array_equal(mu.total_mass(), direct)

    def test_negative_frequencies_allowed(self):
        mu = PointMeasure.create(1, [(-2.5, [[1.0]])])
        assert mu.frequencies[0] == -2.5


class TestOpenSystem:
    def test_mass_form_rescales(self):
        kernel = PointMeasure.create(2, [(1.0, np.eye(2))])
        sys_ = OpenSystem.from_mass_form([4.0, 1.0], np.diag([2.0, 3.0]), kernel)
        assert np.allclose(sys_.omega1, np.diag([0.5, 3.0]))
        assert np.allclose(sys_.kernel.masses[0], np.diag([0.25, 1.0]))

    def test_mass_form_matrix_mass(self):
        rng = np.random.default_rng(1)
        mass = random_psd(rng, 3).real + 3 * np.eye(3)
        a_op = random_psd(rng, 3)
        kernel = PointMeasure.create(3, [(0.5, random_psd(rng, 3))])
        sys_ = OpenSystem.from_mass_form(mass, a_op, kernel)
        # undo the rescaling and compare
        w, v = np.linalg.eigh(mass)
        root = v @ np.diag(np.sqrt(w)) @ v.conj().T
        assert np.allclose(root @ sys_.omega1 @ root, a_op, atol=1e-10)

    def test_instantaneous_friction_rejected(self):
        kernel = PointMeasure.create(1, [(1.0, [[1.0]])])
        with pytest.raises(UnboundedCouplingError):
            OpenSystem.from_mass_form([1.0], [[1.0]], kernel, a_inf=[[0.5]])

    def test_singular_mass_rejected(self):
        kernel = PointMeasure.create(2, [(1.0, np.eye(2))])
        with pytest.raises(ValidationError):
            OpenSystem.from_mass_form([1.0, 0.0], np.eye(2), kernel)


class TestValidate:
    def test_valid_system_report(self, worked_system):
        rep = validate(worked_system)
        assert rep.ok
        assert rep.kind == "conservative_system"
        assert rep.violations == ()

    def test_valid_measure_report(self):
        rng = np.random.default_rng(2)
        rep = validate(random_measure(rng, 2, 3))
        assert rep.ok and rep.kind == "point_measure"

    def test_indefinite_atom_flagged(self):
        mu = PointMeasure(2, [1.0], [np.diag([1.0, -0.5])])
        rep = validate(mu)
        assert not rep.ok
        assert any(v.code == "mass_not_psd" for v in rep.violations)
        bad = [v for v in rep.violations if v.code == "mass_not_psd"][0]
        assert bad.magnitude == pytest.approx(-0.5)

    @pytest.mark.parametrize("shift, psd", [(5e-9, True), (5e-7, False)])
    def test_psd_cut_agrees_with_the_other_routes(self, shift, psd):
        # J - shift*I: largest entry ~1 but spectral norm 10, so a cut
        # scaled by the largest entry would reject what the others accept
        n = 10
        mass = np.ones((n, n)) - shift * np.eye(n)
        mu = PointMeasure(n, [1.0], [mass])
        assert validate(mu).ok is psd
        assert check_dissipation(mu).verdict is psd

        def stiffness_route():
            return frequency_operator(QuadraticHamiltonian(tuple(range(n)), np.eye(n), mass))

        if psd:
            minimal_extension(mu)
            with pytest.warns(UserWarning, match="singular"):  # J - shift*I is singular to tau_rank
                stiffness_route()
        else:
            for route in (lambda: minimal_extension(mu), stiffness_route):
                with pytest.raises(NotPositiveSemidefiniteError):
                    route()

    def test_open_system_report(self):
        kernel = PointMeasure.create(2, [(1.0, np.eye(2))])
        rep = validate(OpenSystem(2, np.diag([1.0, 2.0]), kernel))
        assert rep.ok and rep.kind == "open_system"

    def test_validate_flags_each_close_pair_of_a_direct_measure(self):
        mu = PointMeasure(1, [100.0, 100.0 + 5e-7, 100.0 + 1e-6, 101.0], np.ones((4, 1, 1)))
        rep = validate(mu)
        f = mu.frequencies.tolist()
        assert [v.code for v in rep.violations] == ["atoms_too_close"] * 2
        assert [v.magnitude for v in rep.violations] == [f[1] - f[0], f[2] - f[1]]
        assert validate(PointMeasure.create(1, zip(mu.frequencies, mu.masses))).ok

    @pytest.mark.parametrize("asymmetry, ok", [(2e-10, True), (4e-10, False)])
    def test_not_hermitian_at_the_hermitian_rule(self, asymmetry, ok):
        # bound tau_herm * (1 + max|m|) = 3e-10 for both operators
        m = np.array([[2.0, 1.0 + asymmetry], [1.0, 0.5]])
        kernel = PointMeasure.create(2, [(1.0, np.eye(2))])
        for obj, name in [(ConservativeSystem(1, 1, m), "omega"), (OpenSystem(2, m, kernel), "omega1")]:
            rep = validate(obj)
            assert rep.ok is ok
            if not ok:
                assert [(v.code, v.message) for v in rep.violations] == [("not_hermitian", f"{name} is not Hermitian")]
                assert rep.violations[0].magnitude == pytest.approx(asymmetry)


class TestJsonRoundTrips:
    def test_matrix(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_system(self, worked_system):
        data = system_to_json(worked_system)
        assert data["schema"] == SCHEMA
        back = system_from_json(data)
        assert back.n1 == worked_system.n1
        assert np.array_equal(back.omega, worked_system.omega)

    def test_measure(self):
        rng = np.random.default_rng(4)
        mu = random_measure(rng, 3, 5)
        back = measure_from_json(measure_to_json(mu))
        assert np.array_equal(back.frequencies, mu.frequencies)
        assert np.array_equal(back.masses, mu.masses)

    def test_open_system(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 2, 2)
        sys_ = OpenSystem(2, np.diag([1.0, 4.0]).astype(complex), mu)
        back = open_system_from_json(open_system_to_json(sys_))
        assert np.array_equal(back.omega1, sys_.omega1)
        assert back.kernel.frequencies.size == 2

    def test_detect_kind_and_load(self, worked_system):
        rng = np.random.default_rng(6)
        mu = random_measure(rng, 2, 2)
        cases = [
            (system_to_json(worked_system), "conservative_system", ConservativeSystem),
            (measure_to_json(mu), "point_measure", PointMeasure),
            (open_system_to_json(OpenSystem(2, np.eye(2, dtype=complex), mu)), "open_system", OpenSystem),
        ]
        for payload, kind, cls in cases:
            assert detect_kind(payload) == kind
            assert isinstance(load_object(payload), cls)

    def test_detect_kind_rejects_garbage(self):
        with pytest.raises(ValidationError):
            detect_kind({"what": 1})

    @pytest.mark.parametrize("sizes", [{"n1": True, "n2": 3}, {"n1": 3, "n2": True}])
    def test_system_rejects_boolean_block_size(self, worked_system, sizes):
        data = system_to_json(worked_system)
        data.update(sizes)
        with pytest.raises(ValidationError):
            system_from_json(data)

    def test_measure_rejects_boolean_dim(self):
        data = measure_to_json(PointMeasure.create(1, [(1.0, np.eye(1))]))
        data["dim"] = True
        with pytest.raises(ValidationError):
            measure_from_json(data)

    def test_measure_rejects_a_frequency_beyond_the_float_range(self):
        data = measure_to_json(PointMeasure.create(1, [(1.0, np.eye(1))]))
        data["atoms"][0]["omega"] = 10**400
        with pytest.raises(ValidationError):
            measure_from_json(data)

    @pytest.mark.parametrize(
        "text",
        [
            "[[[1, 0], [2, 0]], [[3, 0]]]",
            "[[[1.0, 0.0, 0.0]]]",
            "[[1.0]]",
            "[[[true, 0.0]]]",
            '[[["1.0", 0.0]]]',
            "[[[null, 0.0]]]",
            "[[[[1.0, 0.0], [0.0, 0.0]]]]",
            "[[[1e400, 0.0]]]",
        ],
        ids=["ragged", "triple", "scalar", "bool", "string", "null", "nested", "overflow"],
    )
    def test_matrix_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            matrix_from_json(json.loads(text))


class TestCsv:
    def test_kernel_round_trip(self):
        rng = np.random.default_rng(7)
        times = np.linspace(0, 2, 9)
        vals = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
        text = write_kernel_csv(times, vals)
        t2, v2 = read_kernel_csv(text)
        assert np.allclose(t2, times, atol=0, rtol=1e-15)
        assert np.allclose(v2, vals, atol=0, rtol=1e-15)

    @pytest.mark.parametrize("row", ["0.1,1.0,abc", "0.1,nan,0.0", "0.1,1.0,-inf", "0.1,1.0", "0.1,,0.0"])
    def test_kernel_csv_rejects_malformed_rows(self, row):
        with pytest.raises(ValidationError):
            read_kernel_csv(f"t,re_11,im_11\n0.0,1.0,0.0\n{row}\n")

    def test_kernel_csv_names_every_column_once(self):
        # a separator keeps (1, 11) and (11, 1) apart once n reaches 10
        header = write_kernel_csv(np.zeros(1), np.zeros((1, 12, 12))).splitlines()[0].split(",")
        assert len(header) == len(set(header)) == 1 + 2 * 12 * 12
        assert header[1:3] == ["re_1_1", "im_1_1"]

    def test_kernel_csv_reads_headers_without_separator(self):
        times, values = read_kernel_csv("t,re_11,im_11,re_12,im_12,re_21,im_21,re_22,im_22\n0.5,1,2,3,4,5,6,7,8\n")
        assert times.tolist() == [0.5]
        assert values[0].tolist() == [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]]

    def test_kernel_csv_rejects_header_only(self):
        with pytest.raises(ValidationError):
            read_kernel_csv("t,re_11,im_11\n")

    def test_trajectory_has_header_and_rows(self):
        times = np.array([0.0, 0.5])
        states = np.array([[1 + 2j, 0j], [0j, 3 - 1j]])
        text = write_trajectory_csv(times, states)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("t,")
