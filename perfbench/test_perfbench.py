"""Tests of the benchmark itself: seeded inputs, output checks, layer trace.

    PYTHONPATH=src python -m pytest perfbench -q

Each test runs only the smallest unit of a workload, so the file takes a
few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from openext import ConservativeSystem, cli, decomposition  # noqa: E402

# the cheapest units that together reach every check kind
SMALL_UNITS = {
    "analyze": (0,),
    "roundtrip": (0,),
    "dynamics": (0, len(workloads.DYNAMICS_UNITS) - 1),
    "lattice": (1, 8),
}


def _small_units(workload, seed=3):
    pool = workloads.generate(workload, seed)
    return pool, [pool.units[i] for i in SMALL_UNITS[workload]]


def _write_inputs(pool, workdir):
    for name, data in pool.files.items():
        (workdir / name).write_bytes(data)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = workloads.generate(workload, 11)
    b = workloads.generate(workload, 11)
    assert a.files == b.files
    assert a.manifest() == b.manifest()
    assert workloads.generate(workload, 12).manifest() != a.manifest()


def test_schedule_is_seeded_and_covers_every_unit():
    pool = workloads.generate("lattice", 5)
    first = [next(workloads.schedule(pool, 5)) for _ in range(2)]
    assert first[0] == first[1]
    assert sorted(u[0].op_id for u in first[0]) == sorted(u[0].op_id for u in pool.units)


def _edit_json(edit):
    def corrupt(data):
        obj = json.loads(data)
        edit(obj)
        return json.dumps(obj).encode()

    return corrupt


def _edit_csv_field(row, column, delta):
    def corrupt(data):
        lines = data.decode().splitlines()
        fields = lines[row].split(",")
        value = fields[column]
        fields[column] = str(int(value) + 1) if value.isdigit() else repr(float(value) + delta)
        lines[row] = ",".join(fields)
        return ("\n".join(lines) + "\n").encode()

    return corrupt


def _drop_last_line(data):
    return b"\n".join(data.splitlines()[:-1]) + b"\n"


CORRUPT = {
    "decompose": _edit_json(lambda r: r.update(four_block_residual=1.0)),
    "channels": _edit_json(lambda r: r.update(rank=r["rank"] + 1)),
    "canonical": _edit_json(lambda r: r["components"][0].update(s_invariant=False)),
    "check": _edit_json(lambda r: r["dissipation"].update(verdict=False)),
    "extend": _edit_json(lambda r: r.update(n2=r["n2"] - 1)),
    "kernel": _edit_csv_field(-1, 1, 1e-6),
    "fit": _edit_json(lambda r: r["atoms"][0].update(omega=r["atoms"][0]["omega"] + 1e-5)),
    "both": _edit_json(lambda r: r.update(relative_residual=2 * workloads.DYNAMICS_TOL)),
    "open": _drop_last_line,
    "full": _edit_csv_field(-1, 1, 1.0),
    "frozen": _edit_json(lambda r: r.update(satisfied=False)),
    "scan": _edit_csv_field(1, 1, 1.0),
}


def test_every_check_kind_has_a_corruption():
    assert set(CORRUPT) == set(workloads._CHECKS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_real_output_and_fail_on_corrupted(workload, tmp_path):
    pool, units = _small_units(workload)
    _write_inputs(pool, tmp_path)
    for unit in units:
        outputs = []
        for op in unit:
            assert cli.main(op.resolve(str(tmp_path))) == 0, op.op_id
            outputs.append((tmp_path / op.output).read_bytes())
        state = {}
        for op, data in zip(unit, outputs):
            result = workloads.check_output(op, data, state)
            assert result.ok, (op.op_id, result.detail)
            assert all(d > 0 for d in result.digits)
        for bad in range(len(unit)):
            state = {}
            for i, (op, data) in enumerate(zip(unit, outputs)):
                if i == bad:
                    assert not workloads.check_output(op, CORRUPT[op.check](data), state).ok, op.op_id
                    break
                assert workloads.check_output(op, data, state).ok


# layers the table expects to work on each workload's small units
EXPECTED_CALLS = {
    "analyze": [
        "numerics.eigh", "numerics.orthonormal_basis", "numerics.cluster_spectrum",
        "numerics.svd", "linalg.eigh", "linalg.svd", "model.post_init",
        "extension.measure_of", "extension.check_dissipation",
        *(f"decomposition.{fn}" for fn in tracer.LAYER_FUNCTIONS["decomposition"]),
        *(f"coupling.{fn}" for fn in tracer.LAYER_FUNCTIONS["coupling"]),
    ],
    "roundtrip": [
        "numerics.eigh", "linalg.eigh", "linalg.svd", "model.post_init",
        "extension.minimal_extension", "extension.kernel_eval", "extension.fit_point_measure",
    ],
    "dynamics": [
        "numerics.eigh", "linalg.eigh", "model.post_init", "extension.measure_of",
        *(f"simulate.{fn}" for fn in tracer.LAYER_FUNCTIONS["simulate"]),
    ],
    "lattice": [
        "numerics.eigh", "numerics.orthonormal_basis", "numerics.cluster_spectrum",
        "linalg.eigh", "linalg.svd", "model.post_init",
        *(f"hamiltonian.{fn}" for fn in tracer.LAYER_FUNCTIONS["hamiltonian"]),
    ],
}
# predicted bypasses: these layers must stay untouched
EXPECTED_IDLE = {
    "analyze": ["hamiltonian", "simulate"],
    "roundtrip": ["hamiltonian", "simulate", "coupling"],
    "dynamics": ["hamiltonian", "coupling"],
    "lattice": ["simulate", "coupling", "extension"],
}
COMMANDS = {
    "analyze": ("decompose", "channels", "canonical", "check"),
    "roundtrip": ("extend", "kernel", "fit"),
    "dynamics": ("simulate",),
    "lattice": ("lattice",),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_units_report_the_expected_layers(workload, tmp_path):
    pool, units = _small_units(workload)
    _write_inputs(pool, tmp_path)
    runner = run.Runner(cli, str(tmp_path))
    original, svd = decomposition.coupled_parts, np.linalg.svd
    with tracer.Tracer() as tr:
        assert decomposition.coupled_parts is not original
        for unit in units:
            assert runner.run_unit(unit, tracer=tr), runner.failures
    assert decomposition.coupled_parts is original
    assert np.linalg.svd is svd
    assert "__wrapped__" not in vars(ConservativeSystem.__post_init__)

    metrics = tr.metrics(*runner.io_bytes)
    assert [name for name, _, _ in tracer.per_layer_names()] == list(metrics)
    for layer in EXPECTED_CALLS[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
    for module in EXPECTED_IDLE[workload]:
        for fn in tracer.LAYER_FUNCTIONS[module]:
            assert metrics[f"{module}.{fn}.calls"] == 0, (module, fn)
    for cmd in COMMANDS[workload]:
        assert metrics[f"cli.{cmd}.self_s"] > 0, cmd
    assert metrics["serialization.encode.bytes"] > 0
    assert metrics["serialization.encode.self_s"] > 0
    if workload != "lattice":  # lattice specs arrive as arguments, not files
        assert metrics["serialization.decode.bytes"] > 0

    per_kind = tr.per_op_kind()
    if workload == "analyze":
        assert per_kind["decompose"]["decomposition.coupled_parts"] == 3
    if workload == "dynamics":
        assert metrics["simulate.propagate_open.steps_per_s"] > 0
        assert metrics["simulate.propagate_conservative.steps_per_s"] > 0
        assert per_kind["both"]["simulate.propagate_open"] == 2


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0], [1, 5.0, 6.0, 0, 0], [2, 2.0, 3.0, 1, 0]]
    assert tr.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()


def _copy_checkout(dest, with_sources):
    shutil.copytree(BENCH_DIR, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src", "openext"), dest / "src" / "openext",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run_benchmark(checkout, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=checkout, capture_output=True,
        text=True, timeout=120, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_reports_exactly_the_declared_metrics(trace, tmp_path):
    _copy_checkout(tmp_path, with_sources=True)
    proc = _run_benchmark(tmp_path, "--workload", "dynamics", "--seed", "2", "--seconds", "1",
                          "--trace", str(trace), "--cycles", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)


def test_refuses_to_run_without_sources(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = _run_benchmark(tmp_path, "--workload", "lattice", "--seed", "1", "--seconds", "1",
                          "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
