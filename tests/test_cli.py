"""Command line front end: exit codes, envelopes, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import openext
from openext import (
    ConservativeSystem,
    NumericError,
    OpenSystem,
    PointMeasure,
    forcing_step,
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

from test_simulate import stepwise_open


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
        p.write_text(json.dumps(data))
        code = main([command, str(p)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_extend_rejects_a_frequency_beyond_the_float_range(self, capsys, tmp_path):
        text = json.dumps(measure_to_json(PointMeasure.create(1, [(1.0, np.eye(1))])))
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
        data = system_to_json(worked_system)
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
        code, _ = run_cli(capsys, "decompose", worked_file, "--tau-rank", "-1")
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

    def test_canonical_of_couplings_whose_squares_underflow(self, capsys, tiny_coupling_file):
        code, out = run_cli(capsys, "canonical", tiny_coupling_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["assignment"] == [0, 1]

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
