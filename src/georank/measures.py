"""Probability-measure model: empirical atom sets, the closed-form radial
reference families (standard normal and standard Cauchy in dimensions 2 and
3), and generic densities with samplers.

Radial profiles
---------------
For a spherically symmetric measure the rank field is radial,
``R(x) = g(|x|) x/|x|``, with divergence profile
``h(r) = g'(r) + (d-1) g(r)/r``.  The four reference families admit closed
forms (Phi/phi are the standard normal cdf/pdf, I0/I1 modified Bessel):

* normal, d=3:   g = 2 phi(r)/r + (1 - 1/r^2) erf(r/sqrt2),
                 h = 2 erf(r/sqrt2)/r
* cauchy, d=3:   g = 2((1+r^2) arctan r - r) / (pi r^2),
                 h = 4 arctan(r) / (pi r)
* normal, d=2:   g = (1/2) sqrt(pi/2) r e^{-q}(I0(q)+I1(q)),  q = r^2/4,
                 h = sqrt(pi/2) e^{-q} I0(q)
* cauchy, d=2:   g = r / (1 + sqrt(1+r^2)),
                 h = 1 / sqrt(1+r^2)

The d=3 forms have removable singularities at r=0 and severe cancellation for
small r; both are evaluated by Taylor expansions below r = 1e-3 (exact
rational coefficients, through the 4th-order correction).  The d=2 forms are
written in algebraically stable shapes and need no series.

Density convention for the trivariate Cauchy family: the probability density
is (1/pi^2) (1+r^2)^{-2}.  The unsquared variant (1/pi^2)(1+r^2)^{-1}
sometimes quoted alongside the same h(r) is not integrable on R^3 and is
rejected here; applying the odd-dimension reconstruction operator to
h = 4 arctan(r)/(pi r) independently confirms the squared form.  The built-in
self test prints both values as a reminder.

CSV input
---------
Every table georank reads (--csv atoms and --points) goes through one
parser, ``_read_table``: blank lines and lines starting with '#' are
skipped, a non-numeric first line is the header, and a bad or non-finite
cell, a ragged row or a file without data rows raises ParseError naming
the file line as the row and the column.  Plain numeric text is parsed by
one np.loadtxt call; anything else, and every error, goes through the
row-by-row csv.reader parser.
"""

import csv
import io
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import specfun as sf
from .errors import (DimensionMismatchError, DomainError, NonConvergenceError,
                     ParseError, UnsupportedVariantError)

_FAMILIES = ("gaussian", "cauchy")


# ---------------------------------------------------------------------------
# Measure variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Empirical:
    """Finite atom set with positive weights summing to one."""

    atoms: np.ndarray            # (n, d)
    weights: np.ndarray = None   # (n,), uniform when omitted

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if not np.all(np.isfinite(atoms)):
            raise DomainError("atoms must be finite")
        object.__setattr__(self, "atoms", atoms)
        n = atoms.shape[0]
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise DimensionMismatchError(
                    f"{n} atoms but {w.shape} weights")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise DomainError("weights must be finite and positive")
            s = w.sum()
            if abs(s - 1.0) > 1e-9:
                raise DomainError(
                    f"weights sum to {s!r}, more than 1e-9 away from 1")
            w = w / s
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class RadialClosedForm:
    """One of the closed-form radial reference families."""

    family: str                  # "gaussian" | "cauchy"
    d: int                       # 2 or 3

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; "
                              f"expected one of {_FAMILIES}")
        if self.d not in (2, 3):
            raise DomainError(
                "closed-form radial families are available for d in {2, 3}")


@dataclass(frozen=True)
class GenericDensity:
    """Arbitrary density with a sampler.

    ``density(x)`` maps an (m, d) array to (m,) nonnegative values;
    ``sampler(n, rng)`` draws (n, d) variates from a numpy Generator.
    """

    d: int
    density: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[int, np.random.Generator], np.ndarray]


Measure = Union[Empirical, RadialClosedForm, GenericDensity]


# ---------------------------------------------------------------------------
# Radial profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """Scalar profiles of a radial measure: rank magnitude g, divergence h,
    their derivatives, and the target density f.  All callables accept
    scalars or arrays of radii r >= 0.  h_prime and h_second are filled in
    d = 3 only, where the odd-local curve and the analytic probability
    content read them; in d = 2 they are None."""

    d: int
    family: str
    g: Callable = field(repr=False, default=None)
    g_prime: Callable = field(repr=False, default=None)
    h: Callable = field(repr=False, default=None)
    h_prime: Callable = field(repr=False, default=None)
    h_second: Callable = field(repr=False, default=None)
    f: Callable = field(repr=False, default=None)
    g_over_r: Callable = field(repr=False, default=None)   # g(r)/r, finite at 0


_R_SMALL = 1e-3


def _shaped(out, r):
    """`out` in the shape of the radius argument r; a float for a scalar r."""
    if np.ndim(r):
        return out.reshape(np.shape(r))
    return float(out[0])


def _radii(r):
    """r as a float array of at least one dimension: a scalar radius takes
    the array path, so it gets the same bits as in an array."""
    return np.atleast_1d(np.asarray(r, dtype=float))


def _piecewise(r, small_fn, large_fn, cut=_R_SMALL):
    r_arr = _radii(r)
    m = r_arr < cut
    if not m.any():
        # the common case: no mask, no fancy-index copies
        return _shaped(large_fn(r_arr), r)
    out = np.empty_like(r_arr)
    out[m] = small_fn(r_arr[m])
    if not m.all():
        out[~m] = large_fn(r_arr[~m])
    return _shaped(out, r)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b).sum(axis=1) for (m, d) arrays, column by column: numpy sums
    a row of fewer than 8 entries in index order, so for d < 8 this is the
    reduction bit for bit, at 1.5-4 ns a row against about 21."""
    s = a[:, 0] * b[:, 0]
    for k in range(1, a.shape[1]):
        s += a[:, k] * b[:, k]
    return s


def _row_norms(pts: np.ndarray) -> np.ndarray:
    """|x| of every row x of pts (m, d), from `_row_dots`: for d < 8 (every
    radial family lives in d = 2 or 3) bit-identical to
    np.linalg.norm(pts, axis=1), at a fraction of its cost."""
    s = _row_dots(pts, pts)
    return np.sqrt(s, out=s)


def _profile_gaussian_d3() -> RadialProfile:
    c = np.sqrt(2.0 / np.pi)
    phi, erf = sf.std_normal_pdf, sf.erf
    sq2 = np.sqrt(2.0)

    def g(r):
        return _piecewise(
            r,
            lambda t: c * (2 * t / 3 - t**3 / 15 + t**5 / 140),
            lambda t: 2 * phi(t) / t + (1 - 1 / t**2) * erf(t / sq2))

    def g_over_r(r):
        return _piecewise(
            r,
            lambda t: c * (2.0 / 3 - t**2 / 15 + t**4 / 140),
            lambda t: 2 * phi(t) / t**2 + (1 / t - 1 / t**3) * erf(t / sq2))

    def g_prime(r):
        return _piecewise(
            r,
            lambda t: c * (2.0 / 3 - t**2 / 5 + t**4 / 28),
            lambda t: 2 * (erf(t / sq2) - 2 * t * phi(t)) / t**3)

    def h(r):
        return _piecewise(
            r,
            lambda t: c * (2 - t**2 / 3 + t**4 / 20),
            lambda t: 2 * erf(t / sq2) / t)

    def h_prime(r):
        return _piecewise(
            r,
            lambda t: c * (-2 * t / 3 + t**3 / 5 - t**5 / 28),
            lambda t: (4 * t * phi(t) - 2 * erf(t / sq2)) / t**2)

    def h_second(r):
        return _piecewise(
            r,
            lambda t: c * (-2.0 / 3 + 3 * t**2 / 5 - 5 * t**4 / 28),
            lambda t: -4 * phi(t) - 2 * (4 * t * phi(t) - 2 * erf(t / sq2)) / t**3)

    def f(r):
        t = _radii(r)
        return _shaped(np.exp(-0.5 * t * t) / (2 * np.pi) ** 1.5, r)

    return RadialProfile(3, "gaussian", g, g_prime, h, h_prime, h_second, f,
                         g_over_r)


def _profile_cauchy_d3() -> RadialProfile:
    c = 4.0 / np.pi

    def g(r):
        return _piecewise(
            r,
            lambda t: c * (t / 3 - t**3 / 15 + t**5 / 35),
            lambda t: 2 * ((1 + t * t) * np.arctan(t) - t) / (np.pi * t * t))

    def g_over_r(r):
        return _piecewise(
            r,
            lambda t: c * (1.0 / 3 - t**2 / 15 + t**4 / 35),
            lambda t: 2 * ((1 + t * t) * np.arctan(t) - t) / (np.pi * t**3))

    def g_prime(r):
        return _piecewise(
            r,
            lambda t: c * (1.0 / 3 - t**2 / 5 + t**4 / 7),
            lambda t: 4 * (t - np.arctan(t)) / (np.pi * t**3))

    def h(r):
        return _piecewise(
            r,
            lambda t: c * (1 - t**2 / 3 + t**4 / 5),
            lambda t: 4 * np.arctan(t) / (np.pi * t))

    def h_prime(r):
        return _piecewise(
            r,
            lambda t: c * (-2 * t / 3 + 4 * t**3 / 5 - 6 * t**5 / 7),
            lambda t: 4 * (t - (1 + t * t) * np.arctan(t))
            / (np.pi * t * t * (1 + t * t)))

    def h_second(r):
        return _piecewise(
            r,
            lambda t: c * (-2.0 / 3 + 12 * t**2 / 5 - 30 * t**4 / 7),
            lambda t: 8 * (-t**3 - t * (1 + t * t)
                           + (1 + t * t) ** 2 * np.arctan(t))
            / (np.pi * t**3 * (1 + t * t) ** 2))

    def f(r):
        t = _radii(r)
        return _shaped(1.0 / (np.pi ** 2 * (1.0 + t * t) ** 2), r)

    return RadialProfile(3, "cauchy", g, g_prime, h, h_prime, h_second, f,
                         g_over_r)


def _profile_gaussian_d2() -> RadialProfile:
    a = 0.5 * np.sqrt(np.pi / 2.0)   # = sqrt(pi) / (2 sqrt 2)
    b = np.sqrt(np.pi / 2.0)
    i0e, i1e = sf.bessel_i0e, sf.bessel_i1e

    def g(r):
        t = _radii(r)
        q = 0.25 * t * t
        return _shaped(a * t * (i0e(q) + i1e(q)), r)

    def g_over_r(r):
        t = _radii(r)
        q = 0.25 * t * t
        return _shaped(a * (i0e(q) + i1e(q)), r)

    def g_prime(r):
        t = _radii(r)
        q = 0.25 * t * t
        return _shaped(a * (i0e(q) - i1e(q)), r)

    def h(r):
        t = _radii(r)
        return _shaped(b * i0e(0.25 * t * t), r)

    def f(r):
        t = _radii(r)
        return _shaped(np.exp(-0.5 * t * t) / (2 * np.pi), r)

    return RadialProfile(2, "gaussian", g, g_prime, h, None, None, f, g_over_r)


def _profile_cauchy_d2() -> RadialProfile:
    def g(r):
        t = _radii(r)
        return _shaped(t / (1.0 + np.sqrt(1.0 + t * t)), r)

    def g_over_r(r):
        t = _radii(r)
        return _shaped(1.0 / (1.0 + np.sqrt(1.0 + t * t)), r)

    def g_prime(r):
        t = _radii(r)
        s = np.sqrt(1.0 + t * t)
        return _shaped(1.0 / (s * (1.0 + s)), r)

    def h(r):
        t = _radii(r)
        return _shaped(1.0 / np.sqrt(1.0 + t * t), r)

    def f(r):
        t = _radii(r)
        return _shaped(1.0 / (2 * np.pi * (1.0 + t * t) ** 1.5), r)

    return RadialProfile(2, "cauchy", g, g_prime, h, None, None, f, g_over_r)


_PROFILE_BUILDERS = {
    ("gaussian", 3): _profile_gaussian_d3,
    ("cauchy", 3): _profile_cauchy_d3,
    ("gaussian", 2): _profile_gaussian_d2,
    ("cauchy", 2): _profile_cauchy_d2,
}


def radial_profile(m: Measure) -> RadialProfile:
    """Closed-form radial profile of a RadialClosedForm measure."""
    if not isinstance(m, RadialClosedForm):
        raise UnsupportedVariantError(
            "radial_profile is defined for RadialClosedForm measures only")
    return _PROFILE_BUILDERS[(m.family, m.d)]()


# Past 2^53 every family's g rounds to 1.0, so a bracket that grows beyond
# this cap can never close.
_BRACKET_CAP = 1e18


def invert_g(profile: RadialProfile, beta: float) -> float:
    """Radius r with g(r) = beta: the bracket [0, hi] doubles from hi = 1
    until g(hi) >= beta, then Brent's method closes it.  Raises
    NonConvergenceError when the bracket passes the cap."""
    # imported here: scipy.optimize would add to every CLI start-up
    from scipy.optimize import brentq
    hi = 1.0
    while profile.g(hi) < beta:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise NonConvergenceError(
                f"radial profile never reaches {beta!r}",
                residual=beta - profile.g(hi))
    return brentq(lambda t: profile.g(t) - beta, 0.0, hi, xtol=1e-14)


def density(m: Measure, x) -> float:
    """Density f(x) of a RadialClosedForm or a GenericDensity at a point
    (d,) or at the rows of (m, d); an Empirical measure has none."""
    x_arr = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x_arr)
    if isinstance(m, RadialClosedForm):
        out = radial_profile(m).f(_row_norms(pts))
    elif isinstance(m, GenericDensity):
        out = np.asarray(m.density(pts), dtype=float)
    else:
        raise UnsupportedVariantError(f"{type(m).__name__} has no density")
    return out if x_arr.ndim > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _box_muller(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` standard normal variates from uniform pairs."""
    n_pairs = (count + 1) // 2
    u1 = rng.random(n_pairs)
    u2 = rng.random(n_pairs)
    u1 = np.maximum(u1, 1e-300)       # guard log(0)
    rad = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    z = np.empty(2 * n_pairs)
    z[0::2] = rad * np.cos(ang)
    z[1::2] = rad * np.sin(ang)
    return z[:count]


def sample(m: Measure, n: int, seed: int) -> np.ndarray:
    """Draw n variates as an (n, d) array; deterministic for a given seed.

    Normal variates come from the Box-Muller transform; the radial Cauchy
    uses the ratio construction Z = G/|W| with G a standard d-normal and W an
    independent standard scalar normal, which yields the spherically
    symmetric multivariate Cauchy in any dimension.
    """
    if n < 1:
        raise ValueError("sample requires n >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    if isinstance(m, Empirical):
        idx = rng.choice(m.atoms.shape[0], size=n, p=m.weights)
        return m.atoms[idx]
    if isinstance(m, RadialClosedForm):
        g = _box_muller(rng, n * m.d).reshape(n, m.d)
        if m.family == "gaussian":
            return g
        w = _box_muller(rng, n)
        return g / np.abs(w)[:, None]
    if isinstance(m, GenericDensity):
        out = np.asarray(m.sampler(n, rng), dtype=float)
        if out.shape != (n, m.d):
            raise DimensionMismatchError(
                f"sampler returned shape {out.shape}, expected {(n, m.d)}")
        return out
    raise UnsupportedVariantError(f"cannot sample from {type(m).__name__}")


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

# a line after the first that may be blank or a comment: empty, or led by
# whitespace, a comma or '#'
_ODD_LINE = re.compile(r"\n[\s,#]")


def _read_table(path):
    """The one parser of every table georank reads: (header, data).

    Reads the CSV file at `path` once.  Blank lines (nothing but whitespace
    and commas) and lines whose first cell starts with '#' (np.savetxt's
    header and comments) are skipped; a non-numeric first line is the
    header, returned as its list of cells (None without one); every other
    line is a data row, and `data` is their (rows, columns) float array.  A
    non-numeric or non-finite cell, a row whose width differs from the first
    data row's, and a file without data rows raise ParseError naming the
    file line as the row and the 1-based column, as does a file that cannot
    be read.

    Text without quotes or NULs is split into lines, and its data lines are
    parsed by one np.loadtxt call (`_parse_plain`).  Whenever that call
    raises, a value is not finite, no data line is left or a line is longer
    than csv's field limit, the text goes to the row parser (`_read_rows`)
    instead, which decides and names the error; so both give the same
    header, the same bits and the same errors.  loadtxt and float() round
    correctly, so "%.17g" text reads back exactly.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        # one decode of the whole file: a decode error names its byte offset
        # within the file
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    if '"' not in text and "\0" not in text:
        table = _parse_plain(text)
        if table is not None:
            return table
    return _read_rows(path, text)


def _parse_plain(text):
    """(header, data) of a CSV text without quotes or NULs from one
    np.loadtxt call on its data lines, or None where `_read_rows` must
    decide.  Lines end at \\r\\n, \\r or \\n, as csv reads them."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    if text[:1].isspace() or text[:1] in ",#" or _ODD_LINE.search(text):
        lines = [ln for ln in lines if ln.replace(",", "").strip()
                 and not ln.lstrip().startswith("#")]
    elif not lines[-1]:
        lines.pop()                   # the end of the last line
    header = None
    if lines:
        try:
            [float(c) for c in lines[0].split(",")]
        except ValueError:
            header, lines = lines[0].split(","), lines[1:]
    if not lines:
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:                # the row parser names what is wrong
        return None
    if not np.isfinite(data).all():
        return None
    return header, data


def _read_rows(path, text):
    """`_read_table` row by row with csv.reader, on the file's `text`."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        lines = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    header, rows = None, []
    for i, row in lines:
        if not "".join(row).strip() or row[0].lstrip().startswith("#"):
            continue
        try:
            vals = [float(c) for c in row]
        except ValueError:
            if header is None and not rows:
                header = row
                continue
            vals = None
        if vals is None or not all(map(math.isfinite, vals)):
            for j, c in enumerate(row, start=1):
                try:
                    if math.isfinite(float(c)):
                        continue
                    what = "not a finite number"
                except ValueError:
                    what = "not a number"
                raise ParseError(f"{path}: row {i}, column {j}: {what}")
        if rows and len(vals) != len(rows[0]):
            raise ParseError(f"{path}: row {i} has {len(vals)} columns, "
                             f"expected {len(rows[0])}")
        rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return header, np.array(rows)


def empirical_from_csv(path, d: int = None) -> Empirical:
    """Read an empirical measure from a CSV of numeric rows (`_read_table`).

    When ``d`` is given and the rows have d+1 columns, the final column is
    taken as weights; otherwise all columns are coordinates and weights are
    uniform.
    """
    _, data = _read_table(path)
    if d is not None:
        if data.shape[1] == d + 1:
            return Empirical(data[:, :d], data[:, d])
        if data.shape[1] != d:
            raise DimensionMismatchError(
                f"{path}: rows have {data.shape[1]} columns, "
                f"expected {d} or {d + 1}")
    return Empirical(data)
