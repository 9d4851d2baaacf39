"""Independent references and output checks for the benchmark.

Nothing here imports georank: the closed forms come from their formulas with
`math` and `scipy.special`, the empirical quantities from direct sums, and
ball contents from `scipy.integrate.quad`.  Every check raises CheckFailed
when an output is wrong and otherwise returns its accuracy in digits,
-log10(error / scale), capped at DIGITS_CAP.  Solver outputs are scored by
their achieved residual, not by the tolerance they were asked for, so a
solver that stops closer to its tolerance scores fewer digits.
"""

import math

import numpy as np
from scipy import integrate, optimize, special

DIGITS_CAP = 12.0
RANK_NORM_SLACK = 1e-12       # |R| <= 1 up to rounding of a weighted sum


class CheckFailed(AssertionError):
    """An output disagrees with its reference or breaks a property."""


def digits(err, scale=1.0):
    """-log10(err / scale), capped; an exact answer scores the cap."""
    rel = float(err) / float(scale)
    if rel <= 0.0:
        return DIGITS_CAP
    return float(min(DIGITS_CAP, -math.log10(rel)))


def within(name, err, tol):
    if not err <= tol:           # also rejects NaN
        raise CheckFailed(f"{name}: error {err:.3e} exceeds {tol:.3e}")


# ---------------------------------------------------------------------------
# Closed-form radial families: density f, rank profile g, divergence h
# ---------------------------------------------------------------------------

def sphere_area(d):
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def density(family, d, r):
    r = np.asarray(r, dtype=float)
    if family == "gaussian":
        return np.exp(-0.5 * r * r) / (2.0 * math.pi) ** (d / 2.0)
    if d == 2:
        return 1.0 / (2.0 * math.pi * (1.0 + r * r) ** 1.5)
    return 1.0 / (math.pi ** 2 * (1.0 + r * r) ** 2)


def _small_series(r, cut, series, exact):
    """Evaluate `exact`, except below `cut`, where the d=3 forms cancel
    badly or divide by zero and the Maclaurin `series` is used instead."""
    r = np.asarray(r, dtype=float)
    small = r < cut
    safe = np.where(small, 1.0, r)
    return np.where(small, series(r), exact(safe))


def rank_profile(family, d, r):
    """|R| at radius r: g(r) with R(x) = g(|x|) x/|x|."""
    r = np.asarray(r, dtype=float)
    if family == "gaussian" and d == 2:
        q = 0.25 * r * r
        return 0.5 * math.sqrt(math.pi / 2.0) * r * (special.i0e(q)
                                                    + special.i1e(q))
    if family == "cauchy" and d == 2:
        return r / (1.0 + np.sqrt(1.0 + r * r))
    if family == "gaussian":
        c = math.sqrt(2.0 / math.pi)
        return _small_series(
            r, 0.05,
            lambda t: c * (2 * t / 3 - t ** 3 / 15 + t ** 5 / 140
                           - t ** 7 / 1512 + t ** 9 / 19008),
            lambda t: (c * np.exp(-0.5 * t * t) / t
                       + (1 - 1 / t ** 2) * special.erf(t / math.sqrt(2.0))))
    return _small_series(
        r, 0.05,
        lambda t: (4 / math.pi) * (t / 3 - t ** 3 / 15 + t ** 5 / 35
                                   - t ** 7 / 63 + t ** 9 / 99),
        lambda t: 2 * ((1 + t * t) * np.arctan(t) - t) / (math.pi * t * t))


def divergence_profile(family, d, r):
    """div R at radius r: h(r) = g'(r) + (d-1) g(r)/r."""
    r = np.asarray(r, dtype=float)
    if family == "gaussian" and d == 2:
        return math.sqrt(math.pi / 2.0) * special.i0e(0.25 * r * r)
    if family == "cauchy" and d == 2:
        return 1.0 / np.sqrt(1.0 + r * r)
    if family == "gaussian":
        c = math.sqrt(2.0 / math.pi)
        return _small_series(
            r, 1e-8, lambda t: c * (2 - t ** 2 / 3),
            lambda t: 2 * special.erf(t / math.sqrt(2.0)) / t)
    return _small_series(
        r, 1e-8, lambda t: (4 / math.pi) * (1 - t ** 2 / 3),
        lambda t: 4 * np.arctan(t) / (math.pi * t))


def radial_rank(family, d, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    g = rank_profile(family, d, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = pts * (g / r)[:, None]
    out[r == 0.0] = 0.0
    return out


def ball_content(family, d, radius):
    """P[|Z| <= radius] by quadrature of the reference density."""
    val, _ = integrate.quad(
        lambda r: sphere_area(d) * r ** (d - 1) * float(density(family, d, r)),
        0.0, radius, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def profile_radius(family, d, beta):
    """The radius where g(r) = beta, by bracketed root finding on the
    reference profile."""
    hi = 1.0
    while float(rank_profile(family, d, hi)) < beta:
        hi *= 2.0
    return optimize.brentq(lambda t: float(rank_profile(family, d, t)) - beta,
                           0.0, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Empirical measures: direct sums, one point at a time
# ---------------------------------------------------------------------------

def direct_rank(atoms, weights, x):
    diff = np.asarray(x, dtype=float)[None, :] - atoms
    nrm = np.sqrt(np.einsum("nk,nk->n", diff, diff))
    keep = nrm > 0.0
    return weights[keep] @ (diff[keep] / nrm[keep, None])


def direct_divergence(atoms, weights, x):
    d = atoms.shape[1]
    diff = np.asarray(x, dtype=float)[None, :] - atoms
    return (d - 1) * (weights @ (1.0 / np.sqrt(np.einsum("nk,nk->n", diff,
                                                         diff))))


def poisson_constant(d):
    """Normalizer of the Poisson kernel of the upper half space R^{d+1}_+."""
    return math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)


def direct_poisson(atoms, weights, x, t):
    """Poisson-kernel density estimate at x with bandwidth t."""
    d = atoms.shape[1]
    diff = np.asarray(x, dtype=float)[None, :] - atoms
    q = np.einsum("nk,nk->n", diff, diff)
    kern = t / (q + t * t) ** ((d + 1) / 2.0)
    return poisson_constant(d) * (weights @ kern)


def direct_extension(atoms, weights, x, t):
    """The extension route's Richardson extrapolate 2 P_{t/2} - P_t."""
    return (2.0 * direct_poisson(atoms, weights, x, t / 2.0)
            - direct_poisson(atoms, weights, x, t))


def direct_ranks(atoms, weights, pts):
    return np.array([direct_rank(atoms, weights, x) for x in pts])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_rank_bound(name, ranks):
    """|R| <= 1 at every evaluated point."""
    ranks = np.asarray(ranks, dtype=float)
    if not np.all(np.isfinite(ranks)):
        raise CheckFailed(f"{name}: non-finite rank")
    worst = float(np.max(np.linalg.norm(ranks.reshape(-1, ranks.shape[-1]),
                                        axis=1)))
    within(f"{name}: |R| - 1", worst - 1.0, RANK_NORM_SLACK)


def check_values(name, got, ref, tol, scale=1.0):
    """max |got - ref| / scale <= tol; returns the digits."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {ref.shape}")
    err = float(np.max(np.abs(got - ref))) if got.size else 0.0
    if not np.all(np.isfinite(got)):
        err = math.inf
    within(name, err / scale, tol)
    return digits(err, scale)


def check_relative(name, got, ref, tol):
    """max |got - ref| / |ref| <= tol, elementwise; returns the digits."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {ref.shape}")
    rel = np.abs(got - ref) / np.abs(ref)
    err = float(np.max(rel)) if np.all(np.isfinite(got)) else math.inf
    within(name, err, tol)
    return digits(err)


def check_quantile(name, x, rank_at, alpha, u, tol):
    """|R_ref(x) - alpha u| <= tol, with R_ref the reference rank."""
    res = float(np.linalg.norm(rank_at(np.asarray(x, dtype=float))
                               - alpha * np.asarray(u)))
    if not np.all(np.isfinite(x)):
        res = math.inf
    within(name, res, tol)
    return digits(res)


def check_contour(name, pts, rank_at, beta, tol):
    """| |R_ref(t u)| - beta | <= tol at every emitted contour point."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[0] == 0:
        raise CheckFailed(f"{name}: no contour points")
    res = max(abs(float(np.linalg.norm(rank_at(p))) - beta) for p in pts)
    if not np.all(np.isfinite(pts)):
        res = math.inf
    within(name, res, tol)
    return digits(res)


def check_monte_carlo_rank(name, got, exact, n, k=5.0):
    """Monte-Carlo rank within k standard errors of the exact rank.

    For n independent unit vectors the error of their mean has
    E|err|^2 = (1 - |R|^2)/n, so sqrt of that is the standard error used."""
    got = np.asarray(got, dtype=float)
    se = np.sqrt(np.maximum(1.0 - np.sum(exact * exact, axis=1), 0.0) / n)
    err = np.linalg.norm(got - exact, axis=1)
    worst = float(np.max(err / se)) if np.all(np.isfinite(got)) else math.inf
    within(f"{name} (standard errors)", worst, k)
