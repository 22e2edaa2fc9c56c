"""The JSON and CSV renderers against their byte-level oracles.

`dumps` must write exactly what the stdlib encoder writes under
`indent=2`, a 2-D complex128 array as the nested [re, im] rows of
`np.stack([re, im], -1).tolist()`; the CSV writers must write exactly what
the earlier per-row `repr` join wrote.  Both oracles live here, so a
faster renderer is only ever compared with the plain one.
"""

import json

import numpy as np
import pytest

from openext.serialization import (
    dumps,
    matrix_from_json,
    read_kernel_csv,
    write_kernel_csv,
    write_trajectory_csv,
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -2.5, 1e-7, 123456789.0, 0.1]


def pairs(value):
    """The oracle's form of a 2-D complex128 array: nested rows of [re, im] pairs."""
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.complex128:
        return np.stack([value.real, value.imag], -1).tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def oracle(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False, default=pairs) + "\n"


def oracle_csv_text(header, times, samples) -> str:
    """The CSV body as the per-row `repr` join wrote it."""
    width = 2 * int(np.prod(samples.shape[1:]))
    pairs = np.stack([samples.real, samples.imag], -1).reshape(times.size, width)
    rows = (",".join(map(repr, [t, *row])) for t, row in zip(times.tolist(), pairs.tolist()))
    return "\n".join([",".join(header), *rows]) + "\n"


def oracle_read_kernel_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The kernel CSV body parsed one row at a time, as the earlier reader did."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    n = int(round(np.sqrt((len(lines[0].split(",")) - 1) // 2)))
    times, values = [], []
    for ln in lines[1:]:
        fields = [float(x) for x in ln.split(",")]
        times.append(fields[0])
        flat = np.array(fields[1:], dtype=np.float64).reshape(n * n, 2)
        values.append((flat[:, 0] + 1j * flat[:, 1]).reshape(n, n))
    return np.array(times, dtype=np.float64), np.array(values, dtype=np.complex128)


def special_matrix(rng, rows, cols) -> np.ndarray:
    parts = rng.choice(SPECIAL, size=(2, rows, cols)) * rng.choice([1.0, 1e-300, 1e-10], size=(2, rows, cols))
    mixed = np.where(rng.random((2, rows, cols)) < 0.5, parts, rng.standard_normal((2, rows, cols)))
    out = np.empty((rows, cols), dtype=np.complex128)
    out.real, out.imag = mixed  # keeps -0.0 real parts, which re + 1j * im would not
    return out


def seeded_payload(rng) -> dict:
    k, rows, cols = (int(x) for x in rng.integers(2, 7, size=3))
    shapes = [(1, 1), (1, k), (k, 1), (rows, cols)]
    matrices = [special_matrix(rng, r, c) for r, c in shapes]
    odd = pairs(special_matrix(rng, 2, 2))  # a list matrix takes the generic path
    odd[0][1][0] = int(rng.integers(-5, 5))  # an int in a pair slot
    odd[1][0][1] = bool(rng.integers(2))  # a bool in a pair slot
    return {
        "schema": "openext/v1",
        "name": "résumé ω₁ — \U0001d6c0 \"quoted\"\n\ttab",
        "count": 10**25 + int(rng.integers(100)),
        "flags": [True, False, None],
        "empty_list": [],
        "empty_dict": {},
        "scalars": rng.choice(SPECIAL, size=5).tolist(),
        "matrices": matrices,
        "odd": odd,
        "ragged": [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]],
        "list_matrix": pairs(matrices[-1]),
        "pair_vector": [[0.5, -0.0], [1e308, 5e-324]],
        "nested": {"inner": {"frame": matrices[-1], "items": [{"dim": 1, "frame": matrices[0]}, []]}},
        "tuple": (1.5, "x"),
        "float_key": {2.5: "value", "k": [{}]},
    }


class TestDumpsOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_payloads(self, seed):
        payload = seeded_payload(np.random.default_rng(seed))
        assert dumps(payload) == oracle(payload)

    @pytest.mark.parametrize(
        "payload",
        [{}, [], "", 0, -0.0, 5e-324, True, None, [[[1.0, 2.0]]], [[[1, 2.0]]], [[[1.0, 2.0], [3.0, 4.0]]],
         [[[1.0], [2.0]]], [[]], {"a": [[[float(2**53), -1e-310]]]}],
    )
    def test_small_nodes(self, payload):
        assert dumps(payload) == oracle(payload)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["scalar", "matrix", "array", "imaginary", "pair_vector", "key"])
    def test_non_finite_raises_on_both_sides(self, bad, where):
        payload = {
            "scalar": {"x": bad},
            "matrix": {"m": [[[1.0, 2.0], [3.0, bad]], [[5.0, 6.0], [7.0, 8.0]]]},
            "array": {"m": np.array([[1.0, 2.0], [3.0, bad]], dtype=complex)},
            "imaginary": {"m": np.array([[0.0, complex(1.0, bad)]])},
            "pair_vector": {"v": [[bad, 0.0]]},
            "key": {"d": {bad: 1}},
        }[where]
        with pytest.raises(ValueError):
            oracle(payload)
        with pytest.raises(ValueError):
            dumps(payload)

    @pytest.mark.parametrize(
        "value", [np.zeros((2, 2)), np.zeros(2, dtype=complex), np.zeros((1, 1, 1), dtype=complex), object(), {1j: 1}]
    )
    def test_unknown_type_raises_like_the_stdlib(self, value):
        with pytest.raises(TypeError):
            oracle({"a": value})
        with pytest.raises(TypeError):
            dumps({"a": value})

    @pytest.mark.parametrize("seed", range(10))
    def test_matrix_round_trip_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = special_matrix(rng, *rng.integers(1, 9, size=2))
        back = matrix_from_json(json.loads(dumps({"m": m}))["m"])
        assert back.tobytes() == m.tobytes()


class TestDumpsProperty:
    def test_matches_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        finite = st.floats(allow_nan=False, allow_infinity=False)
        # float pairs take the row templates; an int or a bool anywhere sends
        # the whole node down the generic path
        pairs = [st.lists(slot, min_size=2, max_size=2)
                 for slot in (finite, st.one_of(finite, st.integers(), st.booleans()))]
        matrix = st.tuples(st.integers(1, 4), st.sampled_from(pairs)).flatmap(
            lambda wp: st.lists(st.lists(wp[1], min_size=wp[0], max_size=wp[0]), min_size=1, max_size=4)
        )
        leaf = st.one_of(st.none(), st.booleans(), st.integers(), finite, st.text(), matrix)
        payloads = st.recursive(
            leaf,
            lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
            max_leaves=12,
        )

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(payloads)
        def check(payload):
            assert dumps(payload) == oracle(payload)

        check()

    def test_non_finite_matrix_raises(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(
            st.lists(st.floats(), min_size=2, max_size=8).filter(lambda xs: not np.all(np.isfinite(xs)))
        )
        def check(leaves):
            payload = {"m": [[leaves[2 * k : 2 * k + 2] for k in range(len(leaves) // 2)]]}
            if np.all(np.isfinite(leaves[: 2 * (len(leaves) // 2)])):
                payload["x"] = leaves[-1]
            with pytest.raises(ValueError):
                oracle(payload)
            with pytest.raises(ValueError):
                dumps(payload)

        check()


def nest(value, depth: int):
    """value at nesting depth `depth` (0: the payload itself), alternating dicts and lists."""
    for level in range(depth):
        value = {"k": value, "n": level} if level % 2 else [value, None]
    return value


ARRAYS = {
    "1x1": np.array([[1.5 - 2j]]),
    "rows_of_nothing": np.zeros((3, 0), dtype=complex),
    "no_rows": np.zeros((0, 4), dtype=complex),
    "row": np.array([[1.0, -0.0, 5e-324j]]),
    "column": np.array([[0.25 - 1e308j], [0.0], [-0.0]]),
}


def zero_rows() -> np.ndarray:
    """Rows of +0.0 (cached), a row whose one -0.0 must not take the cache, and the extreme floats."""
    m = np.zeros((6, 3), dtype=complex)
    m[1, 1] = complex(-0.0, 0.0)
    m[2, 2] = complex(0.0, -0.0)
    m[4] = [5e-324 - 5e-324j, 1e308 - 1e308j, -5e-324 + 1e308j]
    return m


class TestArrayNodes:
    @pytest.mark.parametrize("name", sorted(ARRAYS))
    @pytest.mark.parametrize("depth", range(5))
    def test_shapes(self, name, depth):
        payload = nest(ARRAYS[name], depth)
        assert dumps(payload) == oracle(payload)

    @pytest.mark.parametrize("depth", range(5))
    def test_zero_rows_and_extreme_values(self, depth):
        m = zero_rows()
        payload = nest({"frame": m, "again": m, "wider": np.zeros((2, 5), dtype=complex)}, depth)
        text = dumps(payload)
        assert text == oracle(payload)
        assert "-0.0" in text and "5e-324" in text and "-1e+308" in text

    @pytest.mark.parametrize("view", ["transposed", "strided", "columns", "read_only", "reversed"])
    def test_views(self, view):
        rng = np.random.default_rng(7)
        base = special_matrix(rng, 5, 4)
        base[1] = 0.0
        if view == "read_only":
            base.flags.writeable = False
        a = {"transposed": base.T, "strided": base[::2], "columns": base[:, 1::2], "read_only": base,
             "reversed": base[::-1, ::-1]}[view]
        assert dumps({"a": a, "b": [a]}) == oracle({"a": a, "b": [a]})

    @pytest.mark.parametrize("seed", range(10))
    def test_text_round_trip_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = special_matrix(rng, *rng.integers(1, 6, size=2))
        m[0] = 0.0
        back = matrix_from_json(json.loads(dumps([{"m": m.T}]))[0]["m"])
        assert back.tobytes() == np.ascontiguousarray(m.T).tobytes()

    def test_matches_oracle_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))
        arrays = hnp.arrays(
            np.complex128,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4),
            elements=st.builds(complex, values, values),
        )
        views = st.tuples(arrays, st.booleans()).map(lambda ab: ab[0].T if ab[1] else ab[0])
        payloads = st.recursive(
            st.one_of(views, values, st.none()),
            lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
            max_leaves=6,
        )

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(payloads)
        def check(payload):
            assert dumps(payload) == oracle(payload)

        check()

    def test_non_finite_array_raises_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(
            st.lists(st.floats(), min_size=1, max_size=8).filter(lambda xs: not np.all(np.isfinite(xs))),
            st.integers(0, 4),
            st.booleans(),
        )
        def check(leaves, depth, imaginary):
            a = np.zeros((1, len(leaves)), dtype=complex)
            (a.imag if imaginary else a.real)[0] = leaves
            payload = nest(a, depth)
            with pytest.raises(ValueError):
                oracle(payload)
            with pytest.raises(ValueError):
                dumps(payload)

        check()


class TestCsvOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_kernel_csv(self, seed):
        rng = np.random.default_rng(seed)
        n, steps = int(rng.integers(1, 4)), int(rng.integers(0, 6))
        times = np.sort(rng.choice(SPECIAL, size=steps) * rng.random(steps))
        values = np.array([special_matrix(rng, n, n) for _ in range(steps)], dtype=complex).reshape(steps, n, n)
        header = ["t"]
        for i in range(n):
            for j in range(n):
                header += [f"re_{i + 1}_{j + 1}", f"im_{i + 1}_{j + 1}"]
        text = write_kernel_csv(times, values)
        assert text == oracle_csv_text(header, times, values)
        if steps:
            got, want = read_kernel_csv(text), oracle_read_kernel_csv(text)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("seed", range(20))
    def test_trajectory_csv(self, seed):
        rng = np.random.default_rng(seed)
        n, steps = int(rng.integers(1, 5)), int(rng.integers(0, 6))
        times = rng.choice(SPECIAL, size=steps)
        states = special_matrix(rng, steps, n)
        header = ["t"] + [f"{part}_{i + 1}" for i in range(n) for part in ("re", "im")]
        assert write_trajectory_csv(times, states) == oracle_csv_text(header, times, states)
