"""Internal quadrature helpers: Gauss-Legendre segments, sphere product rules
and the blocked loop over rings of points around centres.

Everything here is deterministic; rules are cached by their defining integers.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# pairs per kernel block (rankfield) and points per ring block: d + 1
# arrays of a block fit in L2
_EVAL_BLOCK = 32_768


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = leggauss(n)
    return x, w


def gl_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def gl_segments(edges, n: int):
    """Concatenated Gauss-Legendre rule over consecutive segments: the
    arithmetic of gl_nodes on every segment, in one broadcast."""
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(n)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (half * x + 0.5 * (a + b)).ravel(), (half * w).ravel()


def geometric_edges(a: float, b: float, factor: float = 2.0):
    """Segment edges a, a*factor, ..., capped at b."""
    edges = [a]
    while edges[-1] < b:
        edges.append(min(edges[-1] * factor, b))
    return np.array(edges)


def circle_rule(n: int):
    """Uniform midpoint rule on the unit circle; exact for trigonometric
    polynomials of degree < n and spectrally accurate for smooth integrands.

    Returns (points (n,2), weights (n,)) with weights summing to 2*pi.
    """
    th = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    w = np.full(n, 2.0 * np.pi / n)
    return pts, w


@lru_cache(maxsize=16)
def sphere_rule(d: int, n_polar: int = 48, n_azimuth: int = 96):
    """Product quadrature on the unit sphere S^{d-1}.

    Gauss-Legendre in each polar angle (weight sin^{d-2-j}), uniform in
    azimuth.  Weights sum to the sphere surface area.  S^0 is the two
    directions +1 and -1, each of weight 1, whatever n_polar and n_azimuth.
    """
    if d < 1:
        raise ValueError("sphere_rule requires d >= 1")
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    if d == 2:
        return circle_rule(n_azimuth)
    # polar angles theta_1..theta_{d-2} in [0, pi], azimuth in [0, 2pi)
    az_pts, az_w = circle_rule(n_azimuth)          # (m, 2)
    pts = az_pts
    w = az_w
    for j in range(d - 2):                          # innermost angle first
        power = j + 1                               # sin^power weight
        t, tw = gl_nodes(0.0, np.pi, n_polar)
        st, ct = np.sin(t), np.cos(t)
        # prepend coordinate: x = (cos t, sin t * previous)
        n_old = pts.shape[0]
        new_pts = np.empty((n_polar * n_old, pts.shape[1] + 1))
        new_w = np.empty(n_polar * n_old)
        for i in range(n_polar):
            sl = slice(i * n_old, (i + 1) * n_old)
            new_pts[sl, 0] = ct[i]
            new_pts[sl, 1:] = st[i] * pts
            new_w[sl] = tw[i] * (st[i] ** power) * w
        pts, w = new_pts, new_w
    return pts, w


def ring_blocks(centres, radii, omega):
    """The one (centre, ring) loop behind every spherical quadrature.

    `centres` is (m, d); `radii` is one vector (n,) of ring radii shared by
    every centre, or one row (m, n) per centre; `omega` (p, d) holds the
    directions of a sphere rule.  The rings, centre by centre with the ring
    index fastest, are cut into blocks of at most _EVAL_BLOCK points, or of
    one ring where a ring alone is larger.  Yields, per block, the centre
    indices i and ring indices k of its rings and their points
    z = c_i + r_ik omega, (len(i), p, d).  It knows no integrand: callers
    reduce each ring against their weights.
    """
    radii = np.asarray(radii, dtype=float)
    n_rings = radii.shape[-1]
    n_total = len(centres) * n_rings
    step = max(1, _EVAL_BLOCK // len(omega))
    for lo in range(0, n_total, step):
        i, k = np.divmod(np.arange(lo, min(lo + step, n_total)), n_rings)
        r = radii[k] if radii.ndim == 1 else radii[i, k]
        # one coordinate at a time: the same sums as one broadcast over the
        # short last axis d, at half its cost
        z = np.empty((len(i), len(omega), centres.shape[1]))
        for j in range(centres.shape[1]):
            np.multiply(r[:, None], omega[:, j], out=z[:, :, j])
            z[:, :, j] += centres[i, j, None]
        yield i, k, z
