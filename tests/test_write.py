"""The one output writer: byte-for-byte equal to the plain row loop and to
json.dumps(indent=2, sort_keys=True) on every payload georank writes."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, integer_dtypes

import georank as gr
from georank import _write, cli
from georank import selftest as selftest_mod
from georank._write import csv_text, json_text
from georank.measures import _read_table


def row_loop_csv(names, rows):
    """The per-row writer the CLI and the save methods used to run."""
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def tolist(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: tolist(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [tolist(v) for v in obj]
    return obj


def dumps_json(obj):
    return json.dumps(tolist(obj), indent=2, sort_keys=True) + "\n"


def assert_json_same(obj):
    assert json_text(obj) == dumps_json(obj)


def _grid_points(d, n):
    mesh = np.meshgrid(*[np.linspace(-2.0, 2.0, n)] * d, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def test_grid_table_and_payload():
    pts = _grid_points(3, 7)
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    ranks = ev.rank_many(pts)
    names = ["x1", "x2", "x3", "r1", "r2", "r3"]
    rows = [list(p) + list(r) for p, r in zip(pts, ranks)]
    assert csv_text(names, np.hstack([pts, ranks])) == row_loop_csv(names,
                                                                     rows)
    assert_json_same({"points": pts, "rank": ranks})


def test_points_table_with_int_at_atom_column():
    rng = np.random.default_rng(11)
    atoms = rng.standard_normal((20, 2))
    pts = np.vstack([rng.standard_normal((6, 2)), atoms[:3]])
    ranks = gr.RankEvaluator(gr.Empirical(atoms)).rank_many(pts)
    at_atom = np.array([0] * 6 + [1] * 3)
    names = ["x1", "x2", "r1", "r2", "at_atom"]
    # the old writer formatted the numpy ints themselves
    rows = [list(p) + list(r) + [a] for p, r, a in zip(pts, ranks, at_atom)]
    table = np.column_stack([pts, ranks, at_atom])
    assert csv_text(names, table) == row_loop_csv(names, rows)
    assert csv_text(names, table).splitlines()[-1].endswith(",1")
    assert_json_same({"points": pts, "rank": ranks, "at_atom": at_atom})


@pytest.mark.parametrize("reference", [True, False])
def test_radial_curve(reference, tmp_path):
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    cfg = gr.ReconstructionConfig(method="singular",
                                  radii=np.linspace(0.0, 1.5, 4))
    rep = gr.reconstruct_even_singular(ev, cfg)
    if not reference:
        rep.f_reference = None
    cols = [rep.radii, rep.f_hat]
    names = ["r", "f_hat"]
    if reference:
        cols += [rep.f_reference, rep.abs_error]
        names += ["f_reference", "abs_error"]
    expected = row_loop_csv(names, zip(*cols))
    assert rep.csv_text() == expected
    rep.save_curve_csv(tmp_path / "curve.csv")
    assert (tmp_path / "curve.csv").read_text() == expected
    payload = rep.to_json_dict()
    assert payload["r"] is rep.radii and payload["f_hat"] is rep.f_hat
    assert ("f_reference" in payload) == reference
    assert_json_same(payload)


def test_report_config_and_diagnostics(tmp_path):
    rng = np.random.default_rng(12)
    atoms = rng.standard_normal((30, 2))
    pts = rng.standard_normal((5, 2))
    cfg = gr.ReconstructionConfig(method="extension", points=pts,
                                  extension_height=0.2)
    rep = gr.reconstruct_extension(gr.RankEvaluator(gr.Empirical(atoms)),
                                   cfg)
    payload = rep.to_json_dict()
    assert isinstance(payload["config"]["points"], np.ndarray)
    assert_json_same(payload)
    rep.save_json(tmp_path / "rep.json")
    assert (tmp_path / "rep.json").read_text() == dumps_json(payload)
    rows = [list(p) + [f] for p, f in zip(pts, rep.f_hat)]
    assert rep.csv_text() == row_loop_csv(["x1", "x2", "f_hat"], rows)


def test_grid_report_json_carries_f_hat(tmp_path):
    # the FD crop moves the grid: JSON gives its origin, spacing and shape,
    # and f_hat in the CSV's row order
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 3))
    rep = gr.reconstruct_odd_local(ev, gr.ReconstructionConfig(
        grid_nodes=13, force_grid=True, coarse_check=False))
    payload = rep.to_json_dict()
    assert payload["kind"] == "grid"
    assert np.array_equal(payload["f_hat"],
                          np.loadtxt(rep.csv_text().splitlines()[1:],
                                     delimiter=",")[:, -1])
    assert np.array_equal(payload["origin"], rep.grid.origin)
    assert payload["origin"][0] > -3.0
    assert payload["spacing"] == rep.grid.spacing
    assert payload["shape"] == list(rep.grid.shape)
    assert_json_same(payload)
    rep.save_json(tmp_path / "grid.json")
    assert (tmp_path / "grid.json").read_text() == json_text(payload)


def test_contour_rayfan_and_radial(tmp_path):
    rng = np.random.default_rng(13)
    ev = gr.RankEvaluator(gr.Empirical(rng.standard_normal((40, 2))))
    c = gr.contour(ev, 0.4, n_rays=9)
    rows = [list(u) + [r, a]
            for u, r, a in zip(c.directions, c.radii, c.achieved)]
    expected = row_loop_csv(["u1", "u2", "radius", "rank_norm"], rows)
    c.save_csv(tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == expected
    payload = c.summary()
    payload.update(directions=c.directions, radii=c.radii,
                   rank_norm=c.achieved)
    assert_json_same(payload)
    radial = gr.contour(gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2)),
                        0.5)
    assert_json_same(radial.summary())


def test_quantile_content_and_selftest_payloads():
    x = np.array([0.25, -1.0 / 3.0])
    residual = 3.0e-17
    assert csv_text(["q1", "q2", "residual"], [list(x) + [residual]]) == \
        row_loop_csv(["q1", "q2", "residual"], [list(x) + [residual]])
    assert_json_same({"quantile": x, "residual": residual})
    assert_json_same({"radius": 1.0, "content": 0.19874804309879915,
                      "path": "analytic", "oracle": 0.1987480430987992,
                      "abs_error": 5.551115123125783e-17})
    passed, results, notes = selftest_mod.run_selftest()
    assert_json_same({"passed": passed, "checks": results, "notes": notes})


def test_grid_field_rows():
    # a grid table repeats its values: the distinct-value path, row-loop bytes
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    field = gr.sample_grid(ev, (-1.0, 1.0), 6)
    rows = np.hstack([field.nodes(), field.values.reshape(36, -1)])
    names = ["x1", "x2", "r1", "r2"]
    assert csv_text(names, rows) == row_loop_csv(names, rows)


def test_negative_zero_fast_path_and_non_finite_fallback():
    assert_json_same(np.array([-0.0, 0.0, 1e-320, 1.5e300]))
    assert json_text(np.array([[-0.0]])) == "[\n  [\n    -0.0\n  ]\n]\n"
    for bad in (np.nan, np.inf, -np.inf):
        a = np.array([[1.0, bad], [-0.0, 2.0]])
        assert_json_same({"a": a, "b": a[0]})
        assert csv_text(["a", "b"], a) == row_loop_csv(["a", "b"], a)
    assert "NaN" in json_text(np.array([np.nan]))
    assert csv_text(["a"], [[-0.0]]) == "a\n-0\n"


def test_empty_tables():
    assert csv_text(["x1", "r1"], np.empty((0, 2))) == "x1,r1\n"
    for obj in (np.empty(0), np.empty((0, 3)), np.empty((2, 0)), {}, [],
                {"a": np.empty(0), "b": {}}):
        assert_json_same(obj)


def test_non_string_keys_and_bools_fall_back():
    assert_json_same({2: np.array([1.0]), 1: True})
    assert_json_same(np.array([True, False]))
    assert_json_same([np.array([1, 2]), None, "x\ny", {"k": [np.ones(2)]}])


_floats = st.floats(width=64)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_shapes = array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), _floats,
    st.text(max_size=6),
    arrays(np.float64, _shapes, elements=_finite),
    arrays(np.float64, _shapes, elements=_floats),
    arrays(np.int64, _shapes, elements=st.integers(-9, 9)))
_payloads = st.recursive(
    _leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=5), kids,
                                           max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_payloads)
def test_json_text_equals_json_dumps(payload):
    assert json_text(payload) == dumps_json(payload)



_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
          2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
          1.7976931348623157e308]
_tables = st.tuples(st.integers(1, 6), st.integers(3, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(_EDGES), _finite)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_tables)
def test_csv_round_trip_is_exact_through_every_reader(tmp_path_factory,
                                                      table):
    # what csv_text writes, the --csv and --points readers, and the one
    # parser on curve and contour headers, give back bit for bit, -0.0,
    # subnormals and 1e+-300 included
    k = table.shape[1]
    readers = [
        ([f"x{i + 1}" for i in range(k)],
         lambda p: gr.empirical_from_csv(p).atoms),
        ([f"c{i + 1}" for i in range(k)], lambda p: cli.load_table(p)[1]),
        (["r", "f_hat"] + [f"c{i + 1}" for i in range(2, k)],
         lambda p: _read_table(p)[1]),
        ([f"u{i + 1}" for i in range(k - 2)] + ["radius", "rank_norm"],
         lambda p: _read_table(p)[1]),
    ]
    path = tmp_path_factory.mktemp("tables") / "table.csv"
    for names, read in readers:
        path.write_text(csv_text(names, table))
        got, want = read(path), table
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# repeated values take the path that formats each distinct value once, so
# the pool holds values that differ only in bits: signed zeros, NaN payloads
_NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                  0xFFF8000000000000], dtype=np.uint64).view(np.float64)
_POOL = np.concatenate([_EDGES, [1.0, -2.5, 0.1, np.inf, -np.inf], _NANS])
_FINITE_POOL = _POOL[np.isfinite(_POOL)]
_INT_POOL = np.array([0, 1, -1, 7, -(2 ** 40), 2 ** 62])


def _pooled(pool):
    """Tables of at least 16 values drawn from 4 members of `pool`: at most
    a quarter of the values are distinct."""
    members = st.lists(st.integers(0, len(pool) - 1), min_size=4,
                       max_size=4)
    index = st.tuples(st.integers(16, 40), st.integers(1, 5)).flatmap(
        lambda shape: arrays(np.intp, shape, elements=st.integers(0, 3)))
    return st.tuples(members, index).map(
        lambda drawn: pool[np.array(drawn[0])][drawn[1]])


def _distinct(elements, dtype=np.float64):
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 5))
    return arrays(dtype, shapes, elements=elements, unique=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_pooled(_POOL),
                 _distinct(st.one_of(st.sampled_from(_EDGES), _floats))))
def test_csv_text_equals_row_loop_on_repeated_and_distinct_values(table):
    names = [f"c{i + 1}" for i in range(table.shape[1])]
    assert csv_text(names, table) == row_loop_csv(names, table)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_pooled(_FINITE_POOL), _pooled(_INT_POOL),
                 _distinct(st.one_of(st.sampled_from(_EDGES), _finite)),
                 integer_dtypes().flatmap(
                     lambda dt: _distinct(None, dt))))
def test_json_text_equals_json_dumps_on_repeated_and_distinct_values(a):
    assert_json_same({"table": a, "row": a[0], "flat": a.ravel()})


def test_only_repeated_tables_pay_the_full_sort():
    # the path is chosen on a strided sample of rows before any full sort,
    # and the repeated path sorts all values once, with np.argsort
    sizes = []
    real_argsort = np.argsort

    def argsort(keys, **kw):
        sizes.append(keys.size)
        return real_argsort(keys, **kw)
    pts = _grid_points(3, 21)
    ranks = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3)).rank_many(pts)
    distinct = np.random.default_rng(14).standard_normal(pts.shape)
    with mock.patch.object(_write.np, "argsort", argsort):
        csv_text(["a", "b", "c"], distinct)
        assert sizes == []
        grid = np.hstack([pts, ranks])
        assert csv_text(list("abcdef"), grid) == row_loop_csv(list("abcdef"),
                                                              grid)
        assert sizes == [grid.size]


def test_distinct_table_peaks_as_one_format_pass():
    a = np.random.default_rng(15).standard_normal((200_000, 5))

    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    direct = peak(lambda: ("%.17g,%.17g,%.17g,%.17g,%.17g\n" * a.shape[0])
                  % tuple(a.ravel().tolist()))
    assert peak(lambda: csv_text(list("abcde"), a)) <= 1.1 * direct
