"""Outside-in tracer for the benchmark's traced pass.

Nothing in openext is edited: `Tracer.install()` rebinds each traced
public function in every `openext.*` namespace that holds it (a
`from .numerics import eigh` copies the name into the importer), wraps
the numpy.linalg eigensolvers and SVD in both `numpy.linalg` and its
implementation module (so the SVDs inside `norm(x, 2)` and `pinv` count
too), hooks `__post_init__` on the package's dataclasses (class
attributes, so `isinstance` is unaffected) and the CLI dispatch table.
`uninstall()` puts every original back.

Spans (name, start, end, parent, op) are kept in memory; self time is a
span's duration minus the durations of its direct children, which on
one thread are disjoint and nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions traced there (metric prefix = module name)
LAYER_FUNCTIONS = {
    "numerics": ("eigh", "svd", "orthonormal_basis", "cluster_spectrum"),
    "extension": ("minimal_extension", "measure_of", "kernel_eval", "check_dissipation",
                  "fit_point_measure"),
    "decomposition": ("orbit", "coupled_parts", "string_decomposition",
                      "check_multiplicity_bounds", "is_reconstructible", "four_block_residual"),
    "coupling": ("channels", "canonical_decomposition", "coupling_matrix", "is_s_invariant"),
    "hamiltonian": ("lattice_system", "frequency_operator", "frozen_report", "multiplicity_scan"),
    "simulate": ("propagate_conservative", "propagate_open", "equivalence_residual",
                 "sample_forcing"),
}
# serialization functions, grouped by direction
SERIALIZATION = {
    "encode": ("dumps", "write_kernel_csv", "write_trajectory_csv", "atomic_write_text"),
    "decode": ("load_object", "read_kernel_csv"),
}
# numpy.linalg kernels, grouped: eigh covers the three Hermitian/general eigensolvers
LINALG = {"eigh": ("eigh", "eigvalsh", "eigvals"), "svd": ("svd",)}
CLI_COMMANDS = ("extend", "kernel", "fit", "decompose", "channels", "canonical", "check",
                "simulate", "lattice")
PROPAGATORS = ("propagate_conservative", "propagate_open")
OP_SPAN = "op"


def _matrix_work(shape, kind: str) -> int:
    """Computed work of one call: n^3 per eigensolve, m*n*min(m, n) per SVD."""
    if len(shape) < 2:
        return 0
    batch = 1
    for b in shape[:-2]:
        batch *= int(b)
    m, n = int(shape[-2]), int(shape[-1])
    return batch * (n**3 if kind == "eigh" else m * n * min(m, n))


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for fn in ("eigh", "orthonormal_basis"):
        out += [(f"numerics.{fn}.calls", "count", "lower"), (f"numerics.{fn}.self_s", "s", "lower")]
    out += [("numerics.cluster_spectrum.calls", "count", "lower"),
            ("numerics.svd.calls", "count", "lower")]
    for group in LINALG:
        out += [(f"linalg.{group}.calls", "count", "lower"), (f"linalg.{group}.self_s", "s", "lower")]
    out += [("linalg.eigh.n3", "count", "lower"), ("linalg.svd.mnk", "count", "lower")]
    out += [("model.post_init.calls", "count", "lower"), ("model.post_init.self_s", "s", "lower")]
    for module in ("extension", "decomposition", "coupling", "hamiltonian", "simulate"):
        for fn in LAYER_FUNCTIONS[module]:
            out += [(f"{module}.{fn}.calls", "count", "lower"),
                    (f"{module}.{fn}.self_s", "s", "lower")]
    out += [(f"simulate.{fn}.steps_per_s", "1/s", "higher") for fn in PROPAGATORS]
    for group in SERIALIZATION:
        out += [(f"serialization.{group}.self_s", "s", "lower"),
                (f"serialization.{group}.bytes", "bytes", "lower")]
    out += [(f"cli.{cmd}.self_s", "s", "lower") for cmd in CLI_COMMANDS]
    return out


class Tracer:
    """Install wrappers, record spans while installed, summarize afterwards."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index, op_index]
        self.steps: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.ops: list[str] = []  # op_id per op index
        self._stack: list[int] = []
        self._op = -1
        self._restore: list = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def run_op(self, op_id: str, fn, *args):
        """Call fn(*args) as one op: a root span that its layer spans attach to."""
        self._op = len(self.ops)
        self.ops.append(op_id)
        try:
            return self._wrap(OP_SPAN, fn)(*args)
        finally:
            self._op = -1

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr: str, value, *, item: bool = False):
        if item:
            self._restore.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> "Tracer":
        import numpy.linalg

        openext_modules = [m for name, m in sorted(sys.modules.items())
                           if (name == "openext" or name.startswith("openext.")) and m is not None]

        for module_name, functions in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"openext.{module_name}")
            for fn in functions:
                original = getattr(module, fn)
                after = None
                if fn in PROPAGATORS:
                    key = f"{module_name}.{fn}"
                    after = functools.partial(self._count_steps, key)
                self._rebind_everywhere(original, self._wrap(f"{module_name}.{fn}", original, after),
                                        openext_modules)

        serialization = importlib.import_module("openext.serialization")
        for group, functions in SERIALIZATION.items():
            for fn in functions:
                original = getattr(serialization, fn)
                self._rebind_everywhere(
                    original, self._wrap(f"serialization.{group}.{fn}", original), openext_modules
                )

        impl = getattr(numpy.linalg, "_linalg", None) or getattr(numpy.linalg, "linalg")
        for group, functions in LINALG.items():
            for fn in functions:
                original = getattr(numpy.linalg, fn)
                after = functools.partial(self._count_work, group)
                wrapper = self._wrap(f"linalg.{group}.{fn}", original, after)
                self._set(numpy.linalg, fn, wrapper)
                if getattr(impl, fn, None) is original:
                    self._set(impl, fn, wrapper)

        for module in openext_modules:
            for cls in vars(module).values():
                if (inspect.isclass(cls) and cls.__module__ == module.__name__
                        and "__post_init__" in vars(cls)):
                    self._set(cls, "__post_init__",
                              self._wrap(f"model.post_init.{cls.__name__}", vars(cls)["__post_init__"]))

        cli = importlib.import_module("openext.cli")
        for cmd in CLI_COMMANDS:
            self._set(cli._COMMANDS, cmd, self._wrap(f"cli.{cmd}", cli._COMMANDS[cmd]), item=True)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value, item = self._restore.pop()
            if item:
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _count_steps(self, key, args, result) -> None:
        self.steps[key] += max(len(result.times) - 1, 0)

    def _count_work(self, group, args, result) -> None:
        shape = getattr(args[0], "shape", None) if args else None
        if shape is not None:
            self.work[group] += _matrix_work(shape, group)

    # ------------------------------------------------------------ summary

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its direct children's."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def by_name(self) -> dict[str, dict]:
        """calls, self_s and total_s per span name."""
        stats: dict[str, dict] = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            s = stats.setdefault(self.names[rec[0]], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += self_s
            s["total_s"] += rec[2] - rec[1]
        return stats

    def per_op_kind(self) -> dict[str, dict[str, float]]:
        """Mean calls of each traced function per op, by op kind (the op id's last part)."""
        kinds = [op_id.rsplit(".", 1)[-1] for op_id in self.ops]
        counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for name_id, _, _, _, op in self.spans:
            if op >= 0:
                counts[kinds[op]][self.names[name_id]] += 1
        return {
            kind: {name: n / kinds.count(kind) for name, n in sorted(names.items()) if name != OP_SPAN}
            for kind, names in sorted(counts.items())
        }

    def metrics(self, encode_bytes: int, decode_bytes: int) -> dict[str, float]:
        """Every per-layer metric of per_layer_names(); untouched layers read 0."""
        stats = self.by_name()
        group: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for name, s in stats.items():
            parts = name.split(".")
            key = ".".join(parts[:2]) if parts[0] in ("linalg", "serialization", "model") \
                else name
            for k in ("calls", "self_s", "total_s"):
                group[key][k] += s[k]
        out: dict[str, float] = {}
        for name, _, _ in per_layer_names():
            key, stat = name.rsplit(".", 1)
            if stat in ("calls", "self_s"):
                out[name] = group[key][stat] if key in group else 0
            elif stat == "steps_per_s":
                total = group[key]["total_s"] if key in group else 0.0
                out[name] = self.steps[key] / total if total > 0 else 0.0
            elif stat in ("n3", "mnk"):
                out[name] = self.work[key.split(".")[1]]
            elif stat == "bytes":
                out[name] = encode_bytes if key.endswith("encode") else decode_bytes
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write spans (times relative to the first span) and summaries as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        record = {
            "names": self.names,
            "ops": self.ops,
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, o] for n, s, e, p, o in self.spans],
            "by_name": self.by_name(),
            "calls_per_op_kind": self.per_op_kind(),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
