"""Command line front end: exit codes, envelopes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import openext
from openext import (
    ConservativeSystem,
    NumericError,
    OpenSystem,
    PointMeasure,
    Subspace,
    ValidationError,
    canonical_decomposition,
    channels,
    decoupling_report,
    forcing_step,
    kernel_eval,
    kernel_of_measure,
    measure_of,
)
from openext.cli import main
from openext.serialization import (
    dumps,
    measure_to_json,
    system_from_json,
    system_to_json,
    write_kernel_csv,
)

from test_coupling import equivalent_components_system, rotated
from test_decomposition import epsilon_system
from test_simulate import stepwise_open
from test_small_cuts import planted_system


@pytest.fixture
def worked_file(tmp_path, worked_system):
    p = tmp_path / "system.json"
    p.write_text(dumps(system_to_json(worked_system)))
    return str(p)


@pytest.fixture
def measure_file(tmp_path):
    mu = PointMeasure.create(
        2, [(1.0, np.diag([2.0, 0.0])), (2.0, np.diag([0.5, 1.0]))]
    )
    p = tmp_path / "measure.json"
    p.write_text(dumps(measure_to_json(mu)))
    return str(p)


@pytest.fixture
def bad_measure_file(tmp_path):
    mu = PointMeasure(2, [1.0], [np.diag([1.0, -0.5])])
    p = tmp_path / "bad.json"
    p.write_text(dumps(measure_to_json(mu)))
    return str(p)


@pytest.fixture
def tiny_coupling_file(tmp_path):
    # coupling entries whose squares underflow: sigma^2 is below the float range
    omega = np.zeros((4, 4), dtype=complex)
    omega[2:, 2:] = np.diag([1.0, 2.0])
    omega[:2, 2:] = np.diag([1e-170, 3e-170])
    omega[2:, :2] = omega[:2, 2:]
    p = tmp_path / "tiny.json"
    p.write_text(dumps(system_to_json(ConservativeSystem(2, 2, omega))))
    return str(p)


@pytest.fixture
def weak_channel_file(tmp_path):
    # Gamma = diag(1, 1e-6) on omega1 = diag(0, 3), omega2 = diag(1, 2): the weak channel's
    # singular value is above tau_rank but its square below tau_rank * ||Gamma||_2^2
    omega = np.diag([0.0, 3.0, 1.0, 2.0]).astype(complex)
    omega[:2, 2:] = omega[2:, :2] = np.diag([1.0, 1e-6])
    p = tmp_path / "weak.json"
    p.write_text(dumps(system_to_json(ConservativeSystem(2, 2, omega))))
    return str(p)


def huge_coupling_system():
    # Gamma = 1e160 I_2: ||Gamma||_2^2, the size of the friction kernel, is past the float range
    omega = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    omega[:2, 2:] = omega[2:, :2] = 1e160 * np.eye(2)
    return ConservativeSystem(2, 2, omega)


@pytest.fixture
def rank_gap_file(tmp_path):
    # coupling singular values (1, 8e-10), both column norms 0.7071: the small
    # value sits between tau_rank * sigma_max and tau_rank * the largest column norm
    c, sc = 0.7071067811865476, 5.656854249492381e-10
    omega = np.zeros((4, 4), dtype=complex)
    omega[2, 2], omega[3, 3] = 1.0, 2.0
    omega[:2, 2:] = [[c, c], [-sc, sc]]
    omega[2:, :2] = omega[:2, 2:].T
    p = tmp_path / "gap.json"
    p.write_text(dumps(system_to_json(ConservativeSystem(2, 2, omega))))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodes:
    def test_validate_ok(self, capsys, worked_file):
        code, out = run_cli(capsys, "validate", worked_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_validate_failure_is_exit_one(self, capsys, bad_measure_file):
        code, out = run_cli(capsys, "validate", bad_measure_file)
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == "mass_not_psd"

    def test_missing_file_is_exit_one(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 1

    def test_input_that_is_not_utf8_is_exit_one(self, capsys, tmp_path):
        p = tmp_path / "system.json"
        p.write_bytes(b"\xff\xfe")
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_payload_is_exit_one(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{\"schema\": \"openext/v1\"}")
        code, _ = run_cli(capsys, "validate", str(p))
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [("kernel", "{system}", "--steps", "abc"), ("kernel", "{system}", "--bogus"), ("frobnicate",), ()],
    )
    def test_usage_error_is_exit_one(self, capsys, worked_file, argv):
        code = main([a.format(system=worked_file) for a in argv])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("kernel", "--help")])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "command, sizes",
        [("decompose", {"n1": True, "n2": 3}), ("check", {"n1": 3, "n2": True}), ("extend", {"dim": True})],
    )
    def test_boolean_count_is_exit_one(self, capsys, tmp_path, worked_system, command, sizes):
        # True == 1 adds up with the other size, so only the type check can reject it
        if command == "extend":
            data = measure_to_json(PointMeasure.create(1, [(1.0, np.eye(1))]))
        else:
            data = system_to_json(worked_system)
        data.update(sizes)
        p = tmp_path / "input.json"
        p.write_text(dumps(data))
        code = main([command, str(p)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_extend_rejects_a_frequency_beyond_the_float_range(self, capsys, tmp_path):
        text = dumps(measure_to_json(PointMeasure.create(1, [(1.0, np.eye(1))])))
        p = tmp_path / "measure.json"
        p.write_text(text.replace('"omega": 1.0', '"omega": 1' + "0" * 400))
        code = main(["extend", str(p)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("field", ["abc", "nan", "inf"])
    def test_fit_rejects_malformed_csv(self, capsys, tmp_path, field):
        times = np.arange(32) * 0.1
        lines = write_kernel_csv(times, np.exp(-1j * times)[:, None, None]).splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + field
        p = tmp_path / "kernel.csv"
        p.write_text("\n".join(lines) + "\n")
        code = main(["fit", str(p)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind", ["ragged", "empty_field", "header_only"])
    def test_fit_rejects_malformed_csv_layout(self, capsys, tmp_path, kind):
        times = np.arange(32) * 0.1
        lines = write_kernel_csv(times, np.exp(-1j * times)[:, None, None]).splitlines()
        fields = lines[5].split(",")
        if kind == "ragged":
            lines[5] = ",".join(fields[:-1])
        elif kind == "empty_field":
            lines[5] = ",".join([fields[0], "", *fields[2:]])
        else:
            lines = lines[:1]
        p = tmp_path / "kernel.csv"
        p.write_text("\n".join(lines) + "\n")
        code = main(["fit", str(p)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "entry",
        [None, "[1.0, 0.0, 0.0]", "1.0", "[true, 0.0]", '["1.0", 0.0]', "[null, 0.0]",
         "[[1.0, 0.0], [0.0, 0.0]]", "[1e400, 0.0]"],
        ids=["ragged", "triple", "scalar", "bool", "string", "null", "nested", "overflow"],
    )
    def test_malformed_matrix_is_exit_one(self, capsys, tmp_path, worked_system, entry):
        data = json.loads(dumps(system_to_json(worked_system)))
        data["omega"][0][-1] = "ENTRY"
        text = json.dumps(data)
        # None drops the entry, which leaves row 0 one entry short
        text = text.replace(', "ENTRY"', "") if entry is None else text.replace('"ENTRY"', entry)
        p = tmp_path / "system.json"
        p.write_text(text)
        code = main(["decompose", str(p)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEnvelope:
    def test_common_fields(self, capsys, worked_file):
        _, out = run_cli(capsys, "decompose", worked_file)
        payload = json.loads(out)
        assert payload["schema"] == "openext/v1"
        assert payload["command"] == "decompose"
        assert len(payload["input_digest"]) == 64
        assert payload["tolerances"]["tau_rank"] == 1e-9

    def test_deterministic_output(self, capsys, worked_file):
        _, out1 = run_cli(capsys, "decompose", worked_file)
        _, out2 = run_cli(capsys, "decompose", worked_file)
        assert out1 == out2

    def test_out_flag_writes_file(self, tmp_path, capsys, worked_file):
        target = tmp_path / "result.json"
        code, out = run_cli(capsys, "decompose", worked_file, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "decompose"


class TestToleranceFlags:
    def test_flag_override(self, capsys, worked_file):
        _, out = run_cli(capsys, "decompose", worked_file, "--tau-rank", "1e-6")
        assert json.loads(out)["tolerances"]["tau_rank"] == 1e-6

    def test_env_override(self, capsys, worked_file, tmp_path, monkeypatch):
        tol_file = tmp_path / "tol.json"
        tol_file.write_text(json.dumps({"tau_eig_cluster": 1e-5}))
        monkeypatch.setenv("OPENEXT_TOLERANCES", str(tol_file))
        _, out = run_cli(capsys, "decompose", worked_file)
        assert json.loads(out)["tolerances"]["tau_eig_cluster"] == 1e-5

    def test_flag_beats_env(self, capsys, worked_file, tmp_path, monkeypatch):
        tol_file = tmp_path / "tol.json"
        tol_file.write_text(json.dumps({"tau_rank": 1e-5}))
        monkeypatch.setenv("OPENEXT_TOLERANCES", str(tol_file))
        _, out = run_cli(capsys, "decompose", worked_file, "--tau-rank", "1e-7")
        assert json.loads(out)["tolerances"]["tau_rank"] == 1e-7

    def test_nonpositive_rejected(self, capsys, worked_file):
        for value in ("-1", "0"):
            code, _ = run_cli(capsys, "decompose", worked_file, "--tau-rank", value)
            assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_rejected(self, capsys, worked_file, value):
        code, _ = run_cli(capsys, "decompose", worked_file, "--tau-residual", value)
        assert code == 1

    def test_tau_orth_is_gone(self, capsys, worked_file, tmp_path):
        code, _ = run_cli(capsys, "decompose", worked_file, "--tau-orth", "1e-3")
        assert code == 1
        tol_file = tmp_path / "tol.json"
        tol_file.write_text(json.dumps({"tau_orth": 1e-10}))
        code, _ = run_cli(capsys, "decompose", worked_file, "--tolerances", str(tol_file))
        assert code == 1
        assert "tau_orth" not in json.loads(run_cli(capsys, "decompose", worked_file)[1])["tolerances"]

    @pytest.mark.parametrize(
        "content",
        [b"{", b"\xff\xfe", b'{"tau_rank": "abc"}', b'{"tau_rank": null}', b'{"tau_rank": true}',
         b"[1e-9]", b'{"tau_rank": 1' + b"0" * 400 + b"}", b'{"tau_rank": ' + b"1" * 5000 + b"}"],
        ids=["truncated", "not-utf8", "string", "null", "bool", "list", "int-overflow", "int-too-long"],
    )
    @pytest.mark.parametrize("route", ["flag", "env"])
    def test_malformed_tolerance_file_is_exit_one(self, capsys, worked_file, tmp_path, monkeypatch, content, route):
        tol_file = tmp_path / "tol.json"
        tol_file.write_bytes(content)
        argv = ["decompose", worked_file]
        if route == "flag":
            argv += ["--tolerances", str(tol_file)]
        else:
            monkeypatch.setenv("OPENEXT_TOLERANCES", str(tol_file))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "tolerance" in err  # rejected when read, not by a later verdict


class TestExtendAndFit:
    def test_extend_emits_loadable_system(self, capsys, measure_file):
        code, out = run_cli(capsys, "extend", measure_file)
        assert code == 0
        payload = json.loads(out)
        sys_ = system_from_json(payload)
        assert sys_.n1 == 2
        assert sys_.n2 == 3  # atom ranks 1 + 2
        assert np.max(np.abs(sys_.omega1)) == 0.0

    def test_kernel_then_fit_round_trip(self, capsys, tmp_path, measure_file):
        mu = PointMeasure.create(
            2, [(1.0, np.diag([2.0, 0.0])), (2.0, np.diag([0.5, 1.0]))]
        )
        times = np.arange(128) * 0.1
        csv_text = write_kernel_csv(times, kernel_of_measure(mu, times).values)
        csv_path = tmp_path / "kernel.csv"
        csv_path.write_text(csv_text)
        code, out = run_cli(capsys, "fit", str(csv_path), "--max-atoms", "4")
        assert code == 0
        payload = json.loads(out)
        freqs = [a["omega"] for a in payload["atoms"]]
        assert freqs == pytest.approx([1.0, 2.0], abs=1e-8)

    def test_kernel_csv_output(self, capsys, worked_file):
        code, out = run_cli(
            capsys, "kernel", worked_file, "--t0", "0", "--t1", "1", "--steps", "5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 6

    def test_kernel_size_budget(self, capsys, worked_file, tmp_path):
        # rejected before the time grid is allocated; n1 = 2, so 4 entries per step
        target = tmp_path / "kernel.csv"
        code = main(["kernel", worked_file, "--steps", str(10**12), "--out", str(target)])
        assert code == 1
        assert "budget" in capsys.readouterr().err
        assert not target.exists()

    def test_kernel_budget_counts_the_phase_table(self, capsys, monkeypatch, tmp_path):
        # n1 = 1, n2 = 11: 10^6 steps are 10^6 kernel entries but an 1.1e7-entry
        # steps x n2 phase table, refused before `kernel_eval` runs
        def refused(*args, **kwargs):
            raise AssertionError("kernel_eval reached")

        monkeypatch.setattr(openext.cli, "kernel_eval", refused)
        p = tmp_path / "wide.json"
        p.write_text(dumps(system_to_json(ConservativeSystem(1, 11, np.eye(12)))))
        code = main(["kernel", str(p), "--steps", str(10**6)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("flags", [("--t1", "nan"), ("--t0", "-inf"), ("--t1", "inf")])
    def test_kernel_rejects_nonfinite_times(self, capsys, worked_file, flags):
        code = main(["kernel", worked_file, *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_fit_rejects_non_utf8_csv(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"t,re_1_1,im_1_1\n0,1,0\n\xff\xfe,1,0\n")
        code = main(["fit", str(p)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "UTF-8" in err

    def test_fit_size_budget(self, capsys, tmp_path):
        # 6,400 rows at n1 = 1 ask for a 3,200 x 3,201 Hankel, past the 10^7 entries
        times = np.arange(6400) * 0.01
        p = tmp_path / "long.csv"
        p.write_text(write_kernel_csv(times, np.exp(-1j * times)[:, None, None]))
        code = main(["fit", str(p)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "budget" in err

    def test_fit_rejects_damped_data(self, capsys, tmp_path):
        times = np.arange(64) * 0.1
        vals = (np.exp((-0.4 - 1j) * times))[:, None, None] * np.ones((1, 1))
        p = tmp_path / "damped.csv"
        p.write_text(write_kernel_csv(times, vals))
        code, _ = run_cli(capsys, "fit", str(p))
        assert code == 2

    def test_fit_refuses_a_gain_in_the_samples(self, capsys, tmp_path):
        mu = PointMeasure(2, [0.5, 1.7], [np.eye(2), np.diag([1.0, -1e-7])])
        times = np.linspace(0.0, 12.7, 129)
        p = tmp_path / "gain.csv"
        p.write_text(write_kernel_csv(times, kernel_of_measure(mu, times).values))
        code = main(["fit", str(p), "--max-atoms", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: the fitted kernel's block Toeplitz form has min eigenvalue")
        assert "at frequency 1.7: the samples carry a gain" in err

    def test_fit_of_close_atoms(self, capsys, tmp_path):
        # orthogonal rank-one atoms 1e-3 apart: each least-squares mass fails the PSD
        # cut on its own, the fitted kernel's Toeplitz form passes it
        mu = PointMeasure(2, [1.0, 1.001], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        times = np.linspace(0.0, 12.7, 129)
        p = tmp_path / "close.csv"
        p.write_text(write_kernel_csv(times, kernel_of_measure(mu, times).values))
        code, out = run_cli(capsys, "fit", str(p), "--max-atoms", "5")
        assert code == 0
        assert [a["omega"] for a in json.loads(out)["atoms"]] == pytest.approx([1.0, 1.001], abs=1e-9)

    @pytest.mark.parametrize(
        "mass, flags", [(np.diag([1.0, -1.0]), ()), (np.eye(2), ("--max-atoms", "0"))], ids=["traceless", "no-atoms"]
    )
    def test_fit_with_an_empty_pencil_is_exit_two(self, capsys, tmp_path, mass, flags):
        times = np.linspace(0.0, 12.7, 129)
        p = tmp_path / "kernel.csv"
        p.write_text(write_kernel_csv(times, kernel_of_measure(PointMeasure(2, [1.0], [mass]), times).values))
        code = main(["fit", str(p), *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: fitted measure misses the samples by 1.000e+00 (contract 1e-06")

    def test_extend_kernel_fit_keeps_an_atom_above_the_atom_cut(self, capsys, tmp_path):
        # mass 2e-9 against a(0) = 1: above tau_rank = 1e-9, which now also cuts the pencil
        measure = tmp_path / "measure.json"
        measure.write_text(dumps(measure_to_json(PointMeasure(1, [1.0, 2.0], [[[1.0]], [[2e-9]]]))))
        ext, csv = str(tmp_path / "ext.json"), str(tmp_path / "kernel.csv")
        assert main(["extend", str(measure), "--out", ext]) == 0
        assert main(["kernel", ext, "--t1", "12.7", "--steps", "128", "--out", csv]) == 0
        code, out = run_cli(capsys, "fit", csv)
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert [a["omega"] for a in atoms] == pytest.approx([1.0, 2.0], abs=1e-6)
        assert [a["mass"][0][0][0] for a in atoms] == pytest.approx([1.0, 2e-9], rel=1e-4)


    def test_fit_of_a_kernel_sampled_where_it_nearly_vanishes(self, capsys, tmp_path):
        # atoms at 1 and 1.5 sampled from t0 = 2 pi, where |a(t0)| is about 1e-16
        measure = tmp_path / "measure.json"
        measure.write_text(dumps(measure_to_json(PointMeasure(1, [1.0, 1.5], [[[1.0]], [[1.0]]]))))
        ext, csv = str(tmp_path / "ext.json"), str(tmp_path / "kernel.csv")
        assert main(["extend", str(measure), "--out", ext]) == 0
        assert main(["kernel", ext, "--t0", "6.283185307179586", "--t1", "18.983185307179586",
                     "--steps", "128", "--out", csv]) == 0
        code, out = run_cli(capsys, "fit", csv, "--max-atoms", "5")
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert [a["omega"] for a in atoms] == pytest.approx([1.0, 1.5], abs=1e-12)
        assert [a["mass"][0][0][0] for a in atoms] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_extend_drops_an_atom_below_the_cut_of_the_total_mass(self, capsys, tmp_path):
        p = tmp_path / "measure.json"
        p.write_text(dumps(measure_to_json(PointMeasure(1, [1.0, 2.0], [[[1.0]], [[1e-10]]]))))
        code, out = run_cli(capsys, "extend", str(p))
        assert code == 0
        assert json.loads(out)["n2"] == 1


class TestAnalysisCommands:
    def test_decompose_worked_example(self, capsys, worked_file):
        _, out = run_cli(capsys, "decompose", worked_file)
        payload = json.loads(out)
        dims = payload["parts"]
        assert dims["h1c"]["dim"] == 1
        assert dims["h1d"]["dim"] == 1
        assert dims["h2c"]["dim"] == 2
        assert dims["h2d"]["dim"] == 0
        assert payload["strings"]["count"] == 1
        assert payload["multiplicity_bounds"]["ok"] is True

    def test_channels_worked_example(self, capsys, worked_file):
        _, out = run_cli(capsys, "channels", worked_file)
        payload = json.loads(out)
        assert payload["rank"] == 1
        assert payload["gammas"][0] == pytest.approx(2.0)

    def test_canonical_worked_example(self, capsys, worked_file):
        _, out = run_cli(capsys, "canonical", worked_file)
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["assignment"] == [0]

    def test_decompose_sees_couplings_whose_squares_underflow(self, capsys, tiny_coupling_file):
        code, out = run_cli(capsys, "decompose", tiny_coupling_file)
        assert code == 0
        dims = json.loads(out)["parts"]
        assert (dims["h1c"]["dim"], dims["h2c"]["dim"]) == (2, 2)

    def test_channels_of_couplings_whose_squares_underflow(self, capsys, tiny_coupling_file):
        code, out = run_cli(capsys, "channels", tiny_coupling_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2
        assert payload["degenerate_groups"] == []
        assert payload["coupling_matrix"]["entries"] == [[1, 0], [0, 1]]

    def test_channels_cuts_the_coupling_matrix_by_the_atom_rule(self, capsys, weak_channel_file):
        code, out = run_cli(capsys, "channels", weak_channel_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2  # the channels keep the frame rule
        # the weak channel's component is empty on H2 (canonical), and the h2d remainder is uncoupled
        assert payload["coupling_matrix"]["entries"] == [[1, 0], [0, 0]]
        assert payload["coupling_matrix"]["zero_rows"] == [1]
        assert payload["coupling_matrix"]["zero_columns"] == [1]
        code, out = run_cli(capsys, "canonical", weak_channel_file)
        assert code == 0
        assert [c["h2_dim"] for c in json.loads(out)["components"]] == [1, 0, 1]

    def test_canonical_of_couplings_whose_squares_underflow(self, capsys, tiny_coupling_file):
        code, out = run_cli(capsys, "canonical", tiny_coupling_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["assignment"] == [0, 1]

    def test_decompose_cuts_frames_like_the_coupling_rank(self, capsys, rank_gap_file):
        code, out = run_cli(capsys, "decompose", rank_gap_file)
        assert code == 0
        payload = json.loads(out)
        dims = {name: part["dim"] for name, part in payload["parts"].items()}
        assert dims == {"h1c": 1, "h1d": 1, "h2c": 2, "h2d": 0}
        bounds = payload["multiplicity_bounds"]
        assert bounds["coupling_rank"] == 1
        assert bounds["violations"] == [] and bounds["ok"] is True

    def test_canonical_components_sum_to_h1_at_a_rank_gap(self, capsys, rank_gap_file):
        code, out = run_cli(capsys, "canonical", rank_gap_file)
        assert code == 0
        comps = json.loads(out)["components"]
        assert [(c["h1_dim"], c["h2_dim"]) for c in comps] == [(1, 2), (1, 0)]

    @pytest.mark.parametrize("planted", [False, True])
    def test_reports_write_full_space_frames(self, capsys, tmp_path, worked_system, planted):
        # parts, strings and components are block subspaces in the library; every
        # frame a report writes has n1 + n2 rows and is exactly zero off its block
        system = planted_system(np.random.default_rng(702), 5, 7, 3) if planted else worked_system
        n1, n2 = system.n1, system.n2
        p = tmp_path / "system.json"
        p.write_text(dumps(system_to_json(system)))
        decompose = json.loads(run_cli(capsys, "decompose", str(p))[1])
        frames = [(part["frame"], part["dim"], int(name[1])) for name, part in decompose["parts"].items()]
        frames += [(item["frame"], item["dim"], 2) for item in decompose["strings"]["items"]]
        components = json.loads(run_cli(capsys, "canonical", str(p))[1])["components"]
        assert all(c["h1_dim"] or c["h2_dim"] for c in components)
        frames += [(c[f"h{side}_frame"], c[f"h{side}_dim"], side) for c in components for side in (1, 2)]
        for frame, dim, side in frames:
            m = np.array([[complex(*z) for z in row] for row in frame]).reshape(n1 + n2, dim)
            assert len(frame) == n1 + n2
            assert not (m[n1:] if side == 1 else m[:n1]).any()
            assert np.linalg.norm(m, axis=0) == pytest.approx(np.ones(dim), abs=1e-12)

    def test_canonical_on_equivalent_components_is_exit_two(self, capsys, tmp_path):
        # two equivalent two-channel components: the split between them is not canonical
        system = rotated(equivalent_components_system(), np.random.default_rng(64))
        p = tmp_path / "equivalent.json"
        p.write_text(dumps(system_to_json(system)))
        code = main(["canonical", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "ambiguous channel blocks" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_channels_at_a_rank_gap(self, capsys, rank_gap_file):
        code, out = run_cli(capsys, "channels", rank_gap_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 1
        assert payload["coupling_matrix"]["entries"] == [[1], [0]]

    @pytest.mark.parametrize("argv", [["check"], ["simulate", "--open", "--T", "0.1"], ["simulate", "--both", "--T", "0.1"]])
    def test_atom_masses_below_the_float_range_are_exit_two(self, capsys, tiny_coupling_file, tmp_path, argv):
        out = tmp_path / "out"
        code = main([argv[0], tiny_coupling_file, *argv[1:], "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "atom at 1.0 is below the float range" in err
        assert not out.exists()

    def test_check_worked_example(self, capsys, worked_file):
        code, out = run_cli(capsys, "check", worked_file)
        payload = json.loads(out)
        rec = payload["reconstructible"]
        assert rec["verdict"] is False
        assert rec["witness"]["eigenvalue"] == pytest.approx(3.0)
        assert payload["dissipation"]["verdict"] is True
        assert code == 0

    def test_check_requires_a_system(self, capsys, bad_measure_file):
        # measures go through validate; check inspects extensions
        code, _ = run_cli(capsys, "check", bad_measure_file)
        assert code == 1

    def test_check_rejects_a_negative_seed(self, capsys, worked_file):
        code = main(["check", worked_file, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "seed" in captured.err
        assert captured.out == ""

    def test_simulate_both_reports_residual(self, capsys, worked_file):
        code, out = run_cli(
            capsys,
            "simulate",
            worked_file,
            "--both",
            "--forcing",
            "pulse",
            "--t-on",
            "0.5",
            "--t-off",
            "1.5",
            "--dt",
            "1e-2",
            "--T",
            "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] < 1e-2

    def test_simulate_open_writes_csv(self, capsys, worked_file):
        code, out = run_cli(
            capsys, "simulate", worked_file, "--open", "--dt", "1e-2", "--T", "1"
        )
        assert code == 0
        assert out.startswith("t,")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--dt", "nan"),
            ("--T", "inf"),
            ("--t-on", "nan"),
            ("--t-off=-inf",),
            ("--freq", "nan"),
            ("--direction", "nan"),
            ("--direction", "1.5"),
            ("--direction", "1,nan"),
            ("--direction", "1,x"),
        ],
    )
    def test_simulate_rejects_malformed_flags(self, capsys, worked_file, flags):
        code = main(["simulate", worked_file, "--forcing", "sine", "--dt", "1e-2", "--T", "1", *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flags",
        [("--dt", "1e-300", "--T", "1"), ("--dt", "1e-310", "--T", "1e300"), ("--dt", "1e-7", "--T", "10")],
    )
    def test_simulate_size_budget(self, capsys, worked_file, flags):
        # each request trips the budget before any array is allocated
        code = main(["simulate", worked_file, "--both", *flags])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["--open", "--both"])
    def test_simulate_divergence_is_exit_two(self, capsys, tmp_path, mode):
        # the explicit midpoint step is unstable at dt = 0.9 for this system
        omega = np.array([[3.0, 1.0, 0.5], [1.0, 5.0, 0.0], [0.5, 0.0, 4.0]])
        path = tmp_path / "system.json"
        path.write_text(dumps(system_to_json(ConservativeSystem(1, 2, omega))))
        code = main(["simulate", str(path), mode, "--dt", "0.9", "--T", "3000", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == [path]

    @staticmethod
    def check_divergence(tmp_path, system, dt, total, env=()):
        """Run a diverging `simulate --open` in a fresh interpreter and check
        that it stops with one error line naming a time within one block of
        the step at which the per-step recurrence first overflows."""
        # a fresh interpreter, so stderr is what a user sees: numpy's
        # RuntimeWarning lines would print there, outside pytest's filters
        path = tmp_path / "system.json"
        path.write_text(dumps(system_to_json(system)))
        src = os.path.dirname(os.path.dirname(openext.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "openext.cli", "simulate", str(path), "--open",
             "--dt", str(dt), "--T", str(total), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default", **dict(env)},
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error:")
        reported = float(line.split("t = ")[1].split(":")[0])
        assert reported < total
        assert list(tmp_path.iterdir()) == [path]
        # the same grid and forcing (a step along the first axis) per step
        steps = round(total / dt)
        times = np.linspace(0.0, steps * dt, steps + 1)
        open_sys = OpenSystem(system.n1, system.omega1, measure_of(system))
        with pytest.raises(NumericError) as info:
            stepwise_open(open_sys, forcing_step(np.eye(system.n1)[0]), times)
        first = float(str(info.value).split("t = ")[1].split(":")[0])
        assert abs(reported - first) <= math.ceil(math.sqrt(steps)) * dt

    def test_simulate_divergence_stops_at_first_overflow(self, tmp_path):
        omega = np.array([[3.0, 1.0, 0.5], [1.0, 5.0, 0.0], [0.5, 0.0, 4.0]])
        self.check_divergence(tmp_path, ConservativeSystem(1, 2, omega), 0.9, 3000)

    def test_simulate_divergence_under_threaded_blas(self, tmp_path):
        # n1 = n2 = 32 over 40,000 steps: products large enough for a
        # threaded BLAS, whose overflow flags never reach numpy, and an
        # overflow about a fifth of the way in, past the first blocks
        rng = np.random.default_rng(3)
        h_ = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        omega = h_ + h_.conj().T
        omega *= 5.0 / np.linalg.norm(omega, 2)
        threads = {var: "2" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        self.check_divergence(tmp_path, ConservativeSystem(32, 32, omega), 0.3, 12000, threads)

    def test_lattice_report(self, capsys):
        code, out = run_cli(
            capsys,
            "lattice",
            "--d", "1", "--L", "1", "--N", "2",
            "--gammas", "0,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["frozen_dim_complex"] == 3
        assert payload["satisfied"] is True

    def test_lattice_scan_csv(self, capsys):
        code, out = run_cli(
            capsys,
            "lattice",
            "--d", "1", "--L", "1", "--N", "2",
            "--gammas", "0,1",
            "--scan", "0,1,2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L,volume,max_mult,ratio"
        assert len(lines) == 4

    @pytest.mark.parametrize("scan", ["", ","])
    def test_lattice_scan_without_l_values_is_rejected(self, capsys, scan):
        code = main(["lattice", "--d", "1", "--L", "1", "--N", "2", "--gammas", "0,1", "--scan", scan])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: --scan lists no L values")
        assert captured.out == ""

    def test_lattice_budget_exit_code(self, capsys):
        code, _ = run_cli(
            capsys,
            "lattice",
            "--d", "3", "--L", "5", "--N", "3",
            "--gammas", "1,0,0",
        )
        assert code == 1

    def test_lattice_coupling_count_cross_check(self, capsys):
        code, out = run_cli(
            capsys,
            "lattice",
            "--d", "1", "--L", "1", "--N", "2", "--J", "1",
            "--gammas", "0,1",
        )
        assert code == 0
        code, _ = run_cli(
            capsys,
            "lattice",
            "--d", "1", "--L", "1", "--N", "2", "--J", "2",
            "--gammas", "0,1",
        )
        assert code == 1

    def test_lattice_numeric_failure_under_a_tolerance_file_exits_2(self, capsys, tmp_path):
        # a valid spec whose checks cannot pass at tau_residual = 1e-22 is a
        # numeric failure (exit 2), not a rejected input (exit 1); the file
        # reaches the construction-time certificate, which fails first
        tol_file = tmp_path / "t.json"
        tol_file.write_text(json.dumps({"tau_residual": 1e-22}))
        argv = ["lattice", "--d", "2", "--L", "3", "--N", "2", "--J", "1", "--gammas", "1,0.5",
                "--tolerances", str(tol_file)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "certificate" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--gammas", "1,abc"),
            ("--gammas", "0,1", "--scan", "1,x"),
            ("--gammas", "1,nan"),
            ("--gammas", "0,1;inf,0"),
            ("--gammas", "0,1", "--xi", "nan"),
            ("--gammas", "0,1", "--m", "inf"),
        ],
    )
    def test_lattice_rejects_malformed_flags(self, capsys, flags):
        code = main(["lattice", "--d", "1", "--L", "1", "--N", "2", *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCouplingWhoseSquareOverflows:
    """Every route that forms ||Gamma||_2^2 refuses Gamma = 1e160 I_2 with ValidationError, and no warning."""

    @pytest.mark.parametrize("route", [
        channels,
        canonical_decomposition,
        measure_of,
        lambda system: kernel_eval(system, [0.0, 1.0]),
        lambda system: decoupling_report(system, Subspace(2, np.eye(2)[:, :1])),
    ])
    def test_library_refuses(self, route):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="its square, the kernel's size, overflows"):
                route(huge_coupling_system())

    @pytest.mark.parametrize("argv", [
        ["channels"], ["canonical"], ["check"], ["kernel"],
        ["simulate", "--open", "--T", "0.1"], ["simulate", "--both", "--T", "0.1"],
    ])
    def test_cli_exits_one(self, capsys, tmp_path, argv):
        p = tmp_path / "huge.json"
        p.write_text(dumps(system_to_json(huge_coupling_system())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], str(p), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: coupling norm 1.000e+160: its square")
        assert "Traceback" not in captured.err

    def test_decompose_forms_no_square(self, capsys, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(dumps(system_to_json(huge_coupling_system())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "decompose", str(p))
        assert code == 0
        assert {name: part["dim"] for name, part in json.loads(out)["parts"].items()} == {
            "h1c": 2, "h1d": 0, "h2c": 2, "h2d": 0}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_epsilon_system_reads_one_hidden_dimension(tmp_path, threads):
    # omega = [[0, 1, 1e-5], [1, 1, 0], [1e-5, 0, 2]]: the hidden mode at 2 has mass 1e-10, below tau_rank * ||a(0)||,
    # so decompose, the measure and the reconstructibility verdict all drop it, and the residual shows the cut
    p = tmp_path / "eps.json"
    p.write_text(dumps(system_to_json(epsilon_system(1e-5))))
    # a fresh interpreter per thread count: BLAS reads it at start-up
    src = os.path.dirname(os.path.dirname(openext.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
    reports = {}
    for command in ("decompose", "check"):
        out = tmp_path / f"{command}.json"
        subprocess.run([sys.executable, "-m", "openext.cli", command, str(p), "--out", str(out)],
                       check=True, env=env, timeout=120)
        reports[command] = json.loads(out.read_text())
    decompose, check = reports["decompose"], reports["check"]
    assert decompose["parts"]["h2c"]["dim"] == len(check["dissipation"]["atom_min_eigenvalues"]) == 1
    assert decompose["four_block_residual"] == 1e-5
    assert decompose["multiplicity_bounds"]["ok"] is True
    assert check["reconstructible"]["verdict"] is False
    assert check["reconstructible"]["witness"]["eigenvalue"] == 2.0
