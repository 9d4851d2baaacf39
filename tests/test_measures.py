"""Measure variants, closed-form radial profiles, sampling, CSV input.

Monte-Carlo cross checks: for each radial family the closed-form rank
magnitude g must match the empirical mean of the unit-vector kernel within
three standard errors (n = 10^6, fixed seeds).
"""

import csv
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import georank as gr
from georank.errors import (DimensionMismatchError, DomainError,
                            NonConvergenceError, ParseError,
                            UnsupportedVariantError)
from georank.measures import _parse_plain, _read_rows, _read_table, _row_norms

FAMILIES = [("gaussian", 2), ("gaussian", 3), ("cauchy", 2), ("cauchy", 3)]


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_gaussian_d3_origin():
    m = gr.RadialClosedForm("gaussian", 3)
    assert gr.density(m, np.zeros(3)) == pytest.approx((2 * np.pi) ** -1.5,
                                                       rel=1e-12)


def test_density_cauchy_d3_origin():
    m = gr.RadialClosedForm("cauchy", 3)
    assert gr.density(m, np.zeros(3)) == pytest.approx(1.0 / np.pi ** 2,
                                                       rel=1e-12)


def test_density_cauchy_d2_at_radius_one():
    # (Gamma(3/2)/pi^{3/2}) (1+1)^{-3/2} = (1/(2 pi)) 2^{-3/2}
    m = gr.RadialClosedForm("cauchy", 2)
    want = (1.0 / (2 * np.pi)) * 2.0 ** -1.5
    assert gr.density(m, np.array([1.0, 0.0])) == pytest.approx(want,
                                                                rel=1e-12)


def test_density_rejects_empirical():
    m = gr.Empirical(np.array([[0.0, 0.0]]))
    with pytest.raises(UnsupportedVariantError):
        gr.density(m, np.zeros(2))


def test_densities_integrate_to_one():
    for fam, d in FAMILIES:
        prof = gr.radial_profile(gr.RadialClosedForm(fam, d))
        S = 2 * np.pi ** (d / 2) / gr.gamma_fn(d / 2)
        # the cauchy tail mass beyond R decays only like 1/R, so the heavy
        # families integrate over the half line
        upper = 40.0 if fam == "gaussian" else np.inf
        val, _ = quad(lambda r: S * r ** (d - 1) * prof.f(r), 0, upper,
                      limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

def test_profile_examples():
    p = gr.radial_profile(gr.RadialClosedForm("gaussian", 3))
    phi1 = np.exp(-0.5) / np.sqrt(2 * np.pi)
    assert p.g(1.0) == pytest.approx(2 * phi1, rel=1e-12)
    p = gr.radial_profile(gr.RadialClosedForm("cauchy", 3))
    assert p.h(1.0) == pytest.approx(1.0, rel=1e-12)
    p = gr.radial_profile(gr.RadialClosedForm("cauchy", 2))
    assert p.h(0.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("fam,d", FAMILIES)
def test_profile_scalar_gives_float_array_keeps_shape(fam, d):
    p = gr.radial_profile(gr.RadialClosedForm(fam, d))
    r = np.array([[0.0, 5e-4], [0.5, 3.0]])       # both sides of the cut
    for name in ("g", "g_over_r", "g_prime", "h", "h_prime", "h_second",
                 "f"):
        fn = getattr(p, name)
        if fn is None:
            continue
        out = fn(r)
        assert isinstance(out, np.ndarray) and out.shape == r.shape
        for i, j in np.ndindex(r.shape):
            v = fn(float(r[i, j]))
            # a scalar takes the array path, so no bit differs
            assert type(v) is float
            assert v == out[i, j], name


@pytest.mark.parametrize("fam,d", FAMILIES)
def test_profile_shape_invariants(fam, d):
    p = gr.radial_profile(gr.RadialClosedForm(fam, d))
    assert p.g(0.0) == pytest.approx(0.0, abs=1e-300)
    r = np.linspace(0.0, 50.0, 400)
    g = p.g(r)
    assert np.all(np.diff(g) > 0)
    assert abs(p.g(50.0) - 1.0) < 0.05
    r = np.linspace(0.05, 20.0, 120)
    err = np.abs(p.h(r) - (p.g_prime(r) + (d - 1) * p.g(r) / r))
    assert np.max(err) <= 1e-10


@pytest.mark.parametrize("fam,d", FAMILIES)
def test_profile_derivatives_match_finite_differences(fam, d):
    p = gr.radial_profile(gr.RadialClosedForm(fam, d))
    r = np.linspace(0.1, 10.0, 50)
    h = 1e-5
    fd_g = (p.g(r + h) - p.g(r - h)) / (2 * h)
    assert np.max(np.abs(fd_g - p.g_prime(r))) <= 1e-6
    # h' and h'' are filled where they are read, in d = 3 only
    assert (p.h_prime is None) == (p.h_second is None) == (d == 2)
    if d == 2:
        return
    fd_h = (p.h(r + h) - p.h(r - h)) / (2 * h)
    assert np.max(np.abs(fd_h - p.h_prime(r))) <= 1e-6
    fd_h2 = (p.h(r + h) - 2 * p.h(r) + p.h(r - h)) / (h * h)
    assert np.max(np.abs(fd_h2 - p.h_second(r))) <= 1e-4


@pytest.mark.parametrize("fam,d", FAMILIES)
def test_profile_series_joins_closed_form(fam, d):
    # the small-r series branch and the closed form must agree at the switch
    # radius itself (the two radii below differ by one part in 10^13, so any
    # genuine function change is far below the tolerance)
    p = gr.radial_profile(gr.RadialClosedForm(fam, d))
    below, above = 1e-3 * (1.0 - 1e-13), 1e-3
    for fn in (p.g, p.g_prime, p.h, p.h_prime, p.h_second, p.g_over_r):
        if fn is None:
            continue
        a, b = fn(below), fn(above)
        assert abs(a - b) <= 1e-6 * max(1.0, abs(b))


PROFILE_FUNCS = ("g", "g_prime", "h", "h_prime", "h_second", "f", "g_over_r")


@pytest.mark.parametrize("fam,d", FAMILIES)
def test_profile_unmasked_path_matches_masked(fam, d):
    # an array with no radius below the series cut skips the mask; its
    # values must equal those the masked path gives the same radii inside
    # a mixed array, and the scalar evaluations, bit for bit
    prof = gr.radial_profile(gr.RadialClosedForm(fam, d))
    small = np.array([0.0, 1e-9, 3e-5, 2e-4, 9.9e-4])
    large = np.array([1e-3, 0.0105, 0.37, 1.0, 2.5, 17.0, 400.0])
    mixed = np.concatenate([large[:3], small, large[3:]])
    is_small = mixed < 1e-3
    for name in PROFILE_FUNCS:
        fn = getattr(prof, name)
        if fn is None:
            continue
        got = fn(mixed)
        np.testing.assert_array_equal(fn(mixed[~is_small]), got[~is_small])
        np.testing.assert_array_equal(fn(mixed[is_small]), got[is_small])
        np.testing.assert_array_equal([fn(r) for r in mixed], got)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_row_norms_equal_numpy_norm(d):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((500, d))
    pts[::5, 0] = -0.0
    pts[1::5, -1] = 1e-160       # its square underflows to 0
    pts[2::5, 0] = 1e200         # its square overflows to inf
    pts[3::5] = 1e-160
    pts[4, :] = -0.0
    with np.errstate(over="ignore", under="ignore"):
        want = np.linalg.norm(pts, axis=1)
        got = _row_norms(pts)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isinf(got[2::5]).all() and (got[4] == 0.0)


@pytest.mark.parametrize("fam,d", FAMILIES)
def test_rank_magnitude_matches_monte_carlo(fam, d):
    m = gr.RadialClosedForm(fam, d)
    p = gr.radial_profile(m)
    z = gr.sample(m, 1_000_000, seed=11)
    for rad in (0.5, 1.0, 2.0):
        x = np.zeros(d)
        x[0] = rad
        diff = x[None, :] - z
        unit = diff / np.linalg.norm(diff, axis=1, keepdims=True)
        est = unit.mean(axis=0)
        se = unit.std(axis=0, ddof=1) / np.sqrt(unit.shape[0])
        want = np.zeros(d)
        want[0] = p.g(rad)
        assert np.all(np.abs(est - want) <= 3.0 * se + 1e-12)


def test_rank_radial_symmetry_monte_carlo():
    m = gr.RadialClosedForm("gaussian", 2)
    th = 1.1
    O = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    x = np.array([1.3, -0.4])
    norms, ses = [], []
    for seed, pt in ((5, x), (6, O @ x)):
        z = gr.sample(m, 1_000_000, seed=seed)
        diff = pt[None, :] - z
        unit = diff / np.linalg.norm(diff, axis=1, keepdims=True)
        est = unit.mean(axis=0)
        norms.append(np.linalg.norm(est))
        ses.append(np.linalg.norm(unit.std(axis=0, ddof=1))
                   / np.sqrt(unit.shape[0]))
    assert abs(norms[0] - norms[1]) <= 3.0 * np.hypot(ses[0], ses[1])


def test_invert_g_refuses_a_level_the_profile_never_reaches():
    stub = gr.RadialProfile(2, "stub", g=lambda r: 0.5 * r / (1.0 + r))
    with pytest.raises(NonConvergenceError) as info:
        gr.invert_g(stub, 0.9)
    assert info.value.residual == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        gr.sample(gr.RadialClosedForm("gaussian", 2), 0, seed=1)


def test_sample_single_atom_repeats():
    a = np.array([2.0, -1.0])
    m = gr.Empirical(a[None, :])
    out = gr.sample(m, 3, seed=0)
    assert np.array_equal(out, np.tile(a, (3, 1)))


def test_sample_gaussian_mean_is_centered():
    z = gr.sample(gr.RadialClosedForm("gaussian", 3), 1_000_000, seed=7)
    assert z.shape == (1_000_000, 3)
    assert np.all(np.abs(z.mean(axis=0)) <= 4e-3)      # 4 sigma / sqrt(n)
    assert np.all(np.abs(z.std(axis=0) - 1.0) <= 5e-3)


def test_sample_deterministic_in_seed():
    m = gr.RadialClosedForm("cauchy", 2)
    a = gr.sample(m, 1000, seed=42)
    b = gr.sample(m, 1000, seed=42)
    c = gr.sample(m, 1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_cauchy_coordinate_median():
    # each coordinate of the spherical Cauchy is a scalar Cauchy centered
    # at 0: the sample median is within ~4 * (pi/2)/sqrt(n) of 0
    z = gr.sample(gr.RadialClosedForm("cauchy", 3), 400_000, seed=3)
    med = np.median(z, axis=0)
    assert np.all(np.abs(med) < 4 * (np.pi / 2) / np.sqrt(z.shape[0]))


def test_generic_density_sampler_roundtrip():
    dens = lambda q: np.exp(-np.abs(q).sum(axis=1)) / 4.0
    samp = lambda n, rng: rng.laplace(size=(n, 2))
    m = gr.GenericDensity(2, dens, samp)
    z = gr.sample(m, 10, seed=1)
    assert z.shape == (10, 2)
    assert gr.density(m, np.zeros(2)) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# empirical construction and CSV input
# ---------------------------------------------------------------------------

def test_empirical_weight_validation():
    atoms = np.array([[0.0], [1.0]])
    m = gr.Empirical(atoms, np.array([0.5 + 2e-10, 0.5 - 3e-10]))
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        gr.Empirical(atoms, np.array([0.7, 0.4]))
    with pytest.raises(DomainError):
        gr.Empirical(atoms, np.array([1.2, -0.2]))
    with pytest.raises(DomainError, match="finite"):
        gr.Empirical(atoms, np.array([0.5, np.nan]))
    with pytest.raises(DimensionMismatchError):
        gr.Empirical(atoms, np.array([0.5, 0.25, 0.25]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_empirical_rejects_non_finite_atoms(bad):
    with pytest.raises(DomainError, match="finite"):
        gr.Empirical(np.array([[0.0, 1.0], [bad, 0.5], [2.0, 2.0]]))


def test_csv_two_rows(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("1,0\n-1,0\n")
    m = gr.empirical_from_csv(p)
    assert np.array_equal(m.atoms, np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(m.weights, [0.5, 0.5])


def test_csv_header_detected(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("x,y\n1,0\n-1,0\n")
    m = gr.empirical_from_csv(p)
    assert m.atoms.shape == (2, 2)


def test_csv_ragged_row_reports_location(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("1,0\n-1\n")
    with pytest.raises(ParseError, match="row 2"):
        gr.empirical_from_csv(p)


def test_csv_bad_number_reports_location(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("1,0\n2,oops\n")
    with pytest.raises(ParseError, match="row 2, column 2"):
        gr.empirical_from_csv(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_non_finite_reports_location(tmp_path, bad):
    p = tmp_path / "atoms.csv"
    p.write_text(f"x1,x2\n0.5,-0.25\n0.125,{bad}\n-1,2\n")
    with pytest.raises(ParseError, match="row 3, column 2"):
        gr.empirical_from_csv(p)


def test_csv_weight_column(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("0,0,0.75\n1,1,0.25\n")
    m = gr.empirical_from_csv(p, d=2)
    assert m.atoms.shape == (2, 2)
    assert np.allclose(m.weights, [0.75, 0.25])


def test_csv_crlf_line_endings(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_bytes(b"1,0\r\n-1,0\r\n")
    m = gr.empirical_from_csv(p)
    assert m.atoms.shape == (2, 2)
    assert np.allclose(m.weights, [0.5, 0.5])


def _outcome(read, path):
    """(header, data dtype, shape and bytes) or the ParseError message of
    one reader, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            header, data = read(path)
        except ParseError as exc:
            return str(exc)
    return header, data.dtype.str, data.shape, data.tobytes()


def _row_parser(path):
    """The row parser alone, on the text of the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        return _read_rows(path, fh.read())


def _both_readers(path):
    """`_read_table` and the row parser alone, on the same file."""
    return (_outcome(_read_table, path), _outcome(_row_parser, path))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(
    _FINITE.map(lambda v: "%.17g" % v), _FINITE.map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0.0", "0", "+0", "4.9e-324", "2.2250738585072014e-308",
                     "1e-400", ".5", "5.", "1E3", "-1.5e+300"]))
_ODD_CELL = st.sampled_from([
    "", " ", "x1", "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "1_0",
    " 1.5 ", "\t2", "2\x0c", "\u00a03", "\u0663", "\uff11", '"1"', '"1,5"',
    "1\x002", "#4", "2#4", "0x10", "1e", "+-1", "1 2", "--1", "1\x0c2",
    "1\x1e2", "3\u20284", "5\x85"])
_CELL = st.one_of(_NUMBER, _NUMBER, _NUMBER, _ODD_CELL)
_SKIPPED = st.sampled_from(["", "  ", ",,", " , ,", "# a comment", "  #x,1",
                            "#", "\t"])


@st.composite
def _csv_files(draw):
    width = draw(st.integers(1, 4))
    cells = st.lists(_CELL, min_size=width, max_size=width)
    ragged = st.lists(_CELL, min_size=1, max_size=5)
    row = st.one_of(cells, cells, cells, ragged).map(",".join)
    lines = draw(st.lists(st.one_of(row, row, row, _SKIPPED), max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, min(2, len(lines)))),
                     ",".join(draw(st.sampled_from(
                         [["x1", "x2"], ["u", "radius"], ["a"], ["x", "1"]]))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):           # one line end for the whole file
        ends = [ends[0]] * len(ends) if ends else ends
    text = "".join(ln + end for ln, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text.encode("utf-8")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_csv_files())
def test_loadtxt_path_equals_row_parser(data):
    # the same header and bits, or the same ParseError, and no warning
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        fast, rows = _both_readers(path)
    assert fast == rows


@pytest.mark.parametrize("text", [
    "x1,x2\r\n0.5,-0.25\r\n\r\n# note\r\n,,\r\n-1,2\r\n",
    "# written by np.savetxt\n1, 2 \n 3,4\n\n",
    "u1,u2,radius,rank_norm\r0,1,2.5,0.5\r-0.0,1e-310,3,4",
    "1\n2\n3\n",
])
def test_plain_text_takes_the_loadtxt_path(tmp_path, text):
    # blank, comment and ',,' lines, a header, CRLF, CR and padded cells
    # stay on the one-call path, and give the row parser's arrays
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    assert _parse_plain(text) is not None
    fast, rows = _both_readers(path)
    assert fast == rows


@pytest.mark.parametrize("text, message", [
    ("x1,x2\n", "no data rows"),
    ("x1,x2\n# only a comment\n,,\n", "no data rows"),
    ("x1,x2\n1,2\n3\n", "row 3 has 1 columns, expected 2"),
    ("1,2\n3,1_0x\n", "row 2, column 2: not a number"),
    ('1,2\n"3",nan\n', "row 2, column 2: not a finite number"),
    ("1,2\r\n3,inf\r\n", "row 2, column 2: not a finite number"),
    ("1,2\n3,\x004\n", "row 2, column 2: not a number"),
    ("1,2\n3,4#5\n", "row 2, column 2: not a number"),
    ("1,2\n3\x0c4,5\n", "row 2, column 1: not a number"),
])
def test_row_parser_names_what_the_loadtxt_path_refuses(tmp_path, text,
                                                        message):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    fast, rows = _both_readers(path)
    assert fast == rows == f"{path}: {message}"


def test_quoted_and_underscored_cells_read_as_the_row_parser_reads_them(
        tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('x,y\n1_0,"2"\n')
    header, data = _read_table(path)
    assert header == ["x", "y"] and np.array_equal(data, [[10.0, 2.0]])


def test_decode_error_names_the_byte_offset_in_the_file(tmp_path):
    # 0xff at byte 20 000, far past the first chunk a line reader decodes
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1,2\n" * 5000 + b"\xff,1\n")
    msg = _outcome(_read_table, bad)
    assert msg.startswith(f"{bad}: cannot read: ")
    assert "byte 0xff in position 20000:" in msg


def test_reader_errors_keep_their_text(tmp_path):
    # a line past csv's field limit is refused by both paths
    wide = tmp_path / "wide.csv"
    wide.write_text("1," + "0" * 200 + "1\n")
    limit = csv.field_size_limit(100)
    try:
        fast, rows = _both_readers(wide)
    finally:
        csv.field_size_limit(limit)
    assert fast == rows and "field larger than field limit" in fast


def test_box_muller_normality_ks():
    # distributional check of the normal sampler: KS of one coordinate
    # against the normal cdf, below the 1% critical value 1.63/sqrt(n)
    from scipy.stats import norm
    z = gr.sample(gr.RadialClosedForm("gaussian", 2), 100_000, seed=31)
    u = np.sort(norm.cdf(z[:, 0]))
    n = len(u)
    i = np.arange(1, n + 1)
    ks = max(np.max(np.abs(u - i / n)), np.max(np.abs(u - (i - 1) / n)))
    assert ks <= 1.63 / np.sqrt(n)


def test_cauchy_sampler_matches_density_radially():
    # dual route: the ratio-construction sampler against the closed-form
    # density through the radial cdf (validated against quadrature first)
    m = gr.RadialClosedForm("cauchy", 2)
    for r in (0.5, 1.0, 3.0):
        assert gr.radial_content_oracle(m, r) == pytest.approx(
            1.0 - 1.0 / np.sqrt(1.0 + r * r), abs=1e-12)
    z = gr.sample(m, 100_000, seed=32)
    rr = np.linalg.norm(z, axis=1)
    u = np.sort(1.0 - 1.0 / np.sqrt(1.0 + rr * rr))
    n = len(u)
    i = np.arange(1, n + 1)
    ks = max(np.max(np.abs(u - i / n)), np.max(np.abs(u - (i - 1) / n)))
    assert ks <= 1.63 / np.sqrt(n)
