#!/usr/bin/env python3
"""openext benchmark: seeded CLI workloads driven in-process.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 28 --trace 0

Each workload is a closed loop with one client: ops (single
`openext.cli.main(argv)` calls writing `--out` into a scratch directory)
run one after another in a seed-determined order, one full cycle over
the workload's input pool at a time, for about `--seconds` seconds
(the run ends on the cycle boundary nearest to it, so every run sees the
same op mix).  Every output is checked; a nonzero exit, an exception or
a failed check counts as a failed op.

BLAS is pinned to one thread (`--threads`; the count is recorded): on a
small shared host a second BLAS thread stalls whenever its core is
taken (interleaved runs of one seed: 3.0-5.1 ops/s with two threads,
4.1-4.7 with one).  `--trace 0` prints the end-to-end metrics;
`--trace 1` alternates untraced and traced cycles (per-layer metrics and
tracing overhead), then repeats the cycles in a child process with BLAS
on all usable cores (the multi-thread reference).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  A detail record (machine, percentiles, sample counts,
output digests, failures) is written to .perfbench_work/results/ at the
root of the checkout.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 3  # this process plus two fresh set-up-only child processes
CHILD_TIMEOUT_S = 150
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Gated end-to-end metrics (BENCHMARK.json), then the ones printed and
# recorded but not gated: on the reference host the run-to-run spread of
# single-op latency percentiles exceeds the largest bound a metric may have.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)
RECORDED = (
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, bad arguments)."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS threads, capped at the usable cores; 0 means all of them")
    p.add_argument("--cycles", type=int, default=0,
                   help="run exactly this many cycles instead of timing the loop, and time "
                        "only this process's set-up (reference passes)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (set-up sampling)")
    return p.parse_args(argv)


def pin_threads(requested: int) -> int:
    """Pin BLAS to min(requested, nproc) threads (0: nproc); must precede numpy import."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(requested or nproc, nproc)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import openext from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "openext", "cli.py")):
        raise BenchError(f"no openext sources under {SRC}")
    sys.path.insert(0, SRC)
    import openext.cli

    if not os.path.abspath(openext.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"openext imported from {openext.cli.__file__}, not from {SRC}")
    return openext.cli


def machine_record(threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    src_lines = 0
    pkg = os.path.join(SRC, "openext")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_lines += fh.read().count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "src_openext_lines": src_lines,
    }


# ------------------------------------------------------------------ running ops


class Runner:
    """Runs ops against one work directory and accumulates their outcomes."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.latencies: list[float] = []
        self.by_op: dict[str, list[float]] = {}
        self.digits: list[float] = []
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}
        self.mismatched: set[str] = set()
        self.attempted = 0
        self.cycle_rates: list[float] = []  # ops per summed op-second, per cycle
        self.io_bytes = [0, 0]  # output bytes written, input bytes read

    def call(self, argv, tracer=None, op=None) -> tuple[object, str]:
        """One CLI invocation; returns (exit code or None, error text)."""
        try:
            if tracer is None:
                return self.cli.main(argv), ""
            return tracer.run_op(op.op_id, self.cli.main, argv), ""
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code, "argument error"
        except Exception as exc:  # any crash is a failed op, not a crashed benchmark
            return None, f"{type(exc).__name__}: {exc}"

    def run_unit(self, unit, tracer=None, record=True) -> bool:
        import workloads

        state: dict = {}
        ok_all = True
        for op in unit:
            t0 = time.perf_counter()
            rc, err = self.call(op.resolve(self.workdir), tracer, op)
            latency = time.perf_counter() - t0
            ok, detail = rc == 0, err or f"exit {rc}"
            out_path = os.path.join(self.workdir, op.output)
            if ok:
                try:
                    with open(out_path, "rb") as fh:
                        data = fh.read()
                    result = workloads.check_output(op, data, state)
                    ok, detail = result.ok, result.detail
                    if record:
                        self.digits += result.digits
                        self._digest(op, data)
                        self.io_bytes[0] += len(data)
                        self.io_bytes[1] += sum(
                            os.path.getsize(os.path.join(self.workdir, name)) for name in op.inputs
                        )
                except Exception as exc:  # a malformed output fails its check
                    ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
            ok_all &= ok
            if record:
                self.attempted += 1
                self.latencies.append(latency)
                self.by_op.setdefault(op.op_id, []).append(latency)
                if not ok:
                    self.failures.append({"op": op.op_id, "detail": detail})
        return ok_all

    def _digest(self, op, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(op.op_id, digest) != digest:
            self.mismatched.add(op.op_id)

    def run_cycles(self, orders, seconds: float, cycles: int, tracer=None) -> tuple[int, float]:
        """Whole cycles, ending on the cycle boundary nearest to `seconds` (or exactly `cycles`)."""
        t0 = time.perf_counter()
        done = 0
        for order in orders:
            first = len(self.latencies)
            for unit in order:
                self.run_unit(unit, tracer)
            cycle = self.latencies[first:]
            self.cycle_rates.append(len(cycle) / sum(cycle))
            done += 1
            elapsed = time.perf_counter() - t0
            if cycles:
                if done == cycles:
                    break
            elif elapsed * (done + 0.5) / done >= seconds:
                break
        return done, time.perf_counter() - t0


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(runner, workload, setup_samples) -> tuple[dict, dict]:
    import workloads

    lat = runner.latencies
    pct = workloads.TAIL_PERCENTILE[workload]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": statistics.median(runner.cycle_rates),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * percentile(lat, pct),
        "accuracy_digits": min(runner.digits) if runner.digits else workloads.DIGITS_CAP,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {
        "setup_samples_s": setup_samples,
        "op_samples": len(lat),
        "tail_percentile": pct,
        "samples_beyond_tail": sum(1 for x in lat if x > percentile(lat, pct)),
        "checks_with_digits": len(runner.digits),
        "op_median_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(runner.by_op.items())},
    }
    return values, detail


# ------------------------------------------------------------------ set-up


def setup(cli, workload, seed, workdir):
    """Generate and write the inputs, then run the warm-up unit once."""
    import workloads

    pool = workloads.generate(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    for name, data in pool.files.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)
    return pool, Runner(cli, workdir).run_unit(pool.warmup, record=False)


def child(args, extra, timeout=CHILD_TIMEOUT_S) -> str:
    """Run this script again in a fresh process; returns its last stdout line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {extra} failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return lines[-1]


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads(args.threads)
    sys.path.insert(0, BENCH_DIR)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    cli = import_program()

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        pool, warm_ok = setup(cli, args.workload, args.seed, workdir)
        setup_local = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_local, "warmup_ok": warm_ok}))
            return 0
        if args.trace:
            return traced_run(args, cli, pool, workdir, threads, warm_ok)

        setup_samples = [setup_local]
        if not args.cycles:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(json.loads(child(args, ["--setup-only",
                                                             "--threads", str(threads)]))["setup_s"])
        runner = Runner(cli, workdir)
        cycles, wall = runner.run_cycles(workloads.schedule(pool, args.seed), args.seconds, args.cycles)
        values, detail = end_to_end(runner, args.workload, setup_samples)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        recorded = {name: {"value": values[name], "unit": unit} for name, unit in RECORDED}
        return report(args, runner, metrics, warm_ok, {
            **detail, "recorded": recorded, "cycles": cycles, "wall_s": wall,
            "machine": machine_record(threads)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, cli, pool, workdir, threads, warm_ok) -> int:
    import tracer as tracing
    import workloads

    # untraced and traced cycles alternate over the same op order, so host
    # drift hits both sides of the overhead difference alike
    plain = Runner(cli, workdir)
    traced = Runner(cli, workdir)
    tr = tracing.Tracer()
    plain_orders = workloads.schedule(pool, args.seed)
    traced_orders = workloads.schedule(pool, args.seed)
    t0 = time.perf_counter()
    cycles = 0
    while True:
        plain.run_cycles(plain_orders, 0.0, 1)
        with tr:
            traced.run_cycles(traced_orders, 0.0, 1, tr)
        cycles += 1
        elapsed = time.perf_counter() - t0
        if cycles == args.cycles or (not args.cycles
                                     and elapsed * (cycles + 0.5) / cycles >= 2 * args.seconds / 3):
            break
    multi = json.loads(child(args, ["--trace", "0", "--threads", "0", "--cycles", str(cycles)]))

    values = tr.metrics(encode_bytes=traced.io_bytes[0], decode_bytes=traced.io_bytes[1])
    values["trace.overhead_s"] = sum(traced.latencies) - sum(plain.latencies)
    values["all_cores.ops_per_s"] = multi["metrics"]["ops_per_s"]["value"]
    units = {name: unit for name, unit, _ in per_layer_spec()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name, *_ in per_layer_spec()}

    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    trace_path = os.path.join(WORK_ROOT, "results", f"trace-{args.workload}-seed{args.seed}.json")
    tr.dump(trace_path, {"workload": args.workload, "seed": args.seed, "cycles": cycles})
    per_kind = tr.per_op_kind()
    for kind, fn in (("decompose", "decomposition.coupled_parts"),
                     ("both", "simulate.propagate_open"),
                     ("canonical", "linalg.eigh.eigh"),
                     ("canonical", "linalg.svd.svd")):
        if fn in per_kind.get(kind, {}):
            print(f"trace: {fn} calls per {kind} op = {per_kind[kind][fn]:g}")

    plain.attempted += traced.attempted + multi["attempted"]
    plain.failures += traced.failures
    if multi["failed"]:
        plain.failures.append({"op": "all-cores child", "detail": f"{multi['failed']} failed"})
    return report(args, plain, metrics, warm_ok and multi["correct"], {
        "cycles": cycles, "untraced_op_s": sum(plain.latencies),
        "traced_op_s": sum(traced.latencies),
        "all_cores": multi["metrics"], "trace_file": os.path.relpath(trace_path, ROOT),
        "calls_per_op_kind": per_kind, "machine": machine_record(threads)})


def per_layer_spec():
    import tracer as tracing

    return tracing.per_layer_names() + [
        ("trace.overhead_s", "s", "lower"),
        ("all_cores.ops_per_s", "1/s", "higher"),
    ]


def report(args, runner, metrics, warm_ok, detail) -> int:
    failed = len(runner.failures)
    correct = warm_ok and failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": runner.attempted, "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:50], "metrics": metrics, **detail,
        "output_sha256": dict(sorted(runner.digests.items())),
        "outputs_differing_between_cycles": sorted(runner.mismatched),
    }
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-threads{args.threads}.json"
    with open(os.path.join(WORK_ROOT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    combined = hashlib.sha256("".join(record["output_sha256"].values()).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} ops, {failed} failed, outputs sha256 {combined[:16]}")
    print(f"  failed_frac = {record['failed_frac']:.6g} ratio (recorded)")
    for name, m in record.get("recorded", {}).items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (recorded)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
