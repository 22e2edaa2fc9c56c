"""Core data types, validation reports, and JSON / CSV round trips."""

import json

import numpy as np
import pytest

from openext import (
    BlockPartition,
    ConservativeSystem,
    MeasureAtom,
    NotPositiveSemidefiniteError,
    OpenSystem,
    PointMeasure,
    QuadraticHamiltonian,
    Subspace,
    UnboundedCouplingError,
    ValidationError,
    assemble,
    check_dissipation,
    frequency_operator,
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
        assert np.allclose(s.internal_part + s.coupling_part, s.omega)
        assert np.max(np.abs(s.coupling_part[: s.n1, : s.n1])) == 0.0
        assert np.max(np.abs(s.internal_part[: s.n1, s.n1 :])) == 0.0

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

    def test_assemble_matches_direct_construction(self, worked_system):
        s = assemble(
            np.diag([0.0, 3.0]),
            np.diag([1.0, 2.0]),
            np.array([[1.0, 1.0], [0.0, 0.0]]),
        )
        assert np.array_equal(s.omega, worked_system.omega)


class TestPointMeasure:
    def test_atoms_sorted_and_merged(self):
        m = np.eye(2)
        mu = PointMeasure.create(2, [(2.0, m), (1.0, m), (1.0 + 1e-12, m)])
        assert [a.frequency for a in mu.atoms] == [1.0, 2.0]
        assert np.array_equal(mu.atoms[0].mass, 2 * np.eye(2))

    def test_create_drops_zero_mass(self):
        mu = PointMeasure.create(2, [(1.0, np.zeros((2, 2))), (2.0, np.eye(2))])
        assert len(mu.atoms) == 1

    def test_rejects_unsorted_direct_construction(self):
        a = MeasureAtom(2.0, np.eye(2))
        b = MeasureAtom(1.0, np.eye(2))
        with pytest.raises(ValidationError):
            PointMeasure(2, (a, b))

    def test_rejects_non_hermitian_mass(self):
        with pytest.raises(ValidationError):
            MeasureAtom(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_total_mass(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 3, 4)
        direct = sum(a.mass for a in mu.atoms)
        assert np.allclose(mu.total_mass(), direct)

    def test_negative_frequencies_allowed(self):
        mu = PointMeasure.create(1, [(-2.5, [[1.0]])])
        assert mu.atoms[0].frequency == -2.5


class TestOpenSystem:
    def test_mass_form_rescales(self):
        kernel = PointMeasure.create(2, [(1.0, np.eye(2))])
        sys_ = OpenSystem.from_mass_form([4.0, 1.0], np.diag([2.0, 3.0]), kernel)
        assert np.allclose(sys_.omega1, np.diag([0.5, 3.0]))
        assert np.allclose(sys_.kernel.atoms[0].mass, np.diag([0.25, 1.0]))

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


class TestBlockPartition:
    def test_requires_orthogonal_parts(self):
        e = np.eye(3)
        with pytest.raises(ValidationError):
            BlockPartition(1, 3, (Subspace(3, e[:, :2]), Subspace(3, e[:, 1:2])))

    def test_complete_flag(self):
        e = np.eye(3)
        p = BlockPartition(1, 3, (Subspace(3, e[:, :2]), Subspace(3, e[:, 2:])))
        assert p.complete
        q = BlockPartition(2, 3, (Subspace(3, e[:, :1]),))
        assert not q.complete


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
        mu = PointMeasure(2, (MeasureAtom(1.0, np.diag([1.0, -0.5])),))
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
        mu = PointMeasure(n, (MeasureAtom(1.0, mass),))
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
        assert len(back.atoms) == 5
        for a, b in zip(mu.atoms, back.atoms):
            assert a.frequency == b.frequency
            assert np.array_equal(a.mass, b.mass)

    def test_open_system(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 2, 2)
        sys_ = OpenSystem(2, np.diag([1.0, 4.0]).astype(complex), mu)
        back = open_system_from_json(open_system_to_json(sys_))
        assert np.array_equal(back.omega1, sys_.omega1)
        assert len(back.kernel.atoms) == 2

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
