"""Depth contours {|R(x)| = beta}, probability content of regions through the
surface-integral identity, and probability-content re-indexing of the rank.

The contour of order beta is the image of the quantile map over directions at
fixed order, equivalently the level set of |R|.  For a measure with a density
the rank Jacobian is positive definite, so contours are smooth manifolds and
|R(t u)| is strictly increasing along rays, which the lockstep ray solver
exploits.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _write
from . import specfun as sf
from ._quadrature import sphere_rule
from .errors import ParityError
from .measures import RadialClosedForm, invert_g, sample
from .rankfield import _EVAL_BLOCK, RankEvaluator, _neg_laplacian

_RAY_CAP = 1e9

# the defaults of scipy.optimize.elementwise.find_root: the residual
# tolerance is the smallest normal float, the iteration cap the number of
# bisections that span the normal floats
_FATOL = np.finfo(float).smallest_normal
_MAXITER = math.log2(np.finfo(float).max) - math.log2(_FATOL)


@dataclass
class DepthContour:
    """Level set {|R| = beta}: a single radius for radial measures, or a fan
    of rays with per-ray radii otherwise."""

    beta: float
    kind: str                       # "radial" | "rayfan"
    r_beta: float = None
    directions: np.ndarray = None   # (n, d)
    radii: np.ndarray = None        # (n,)
    achieved: np.ndarray = None     # |R| at the emitted points
    skipped: list = dc_field(default_factory=list)

    def points(self) -> np.ndarray:
        if self.kind == "radial":
            raise ValueError("radial contour is a sphere; sample directions "
                             "yourself or request a rayfan")
        return self.directions * self.radii[:, None]

    def csv_text(self) -> str:
        """A radial contour as one row beta, r_beta; a ray fan as one row
        per ray: direction components, radius, achieved |R|."""
        if self.kind == "radial":
            return _write.csv_text(["beta", "r_beta"],
                                   [[self.beta, self.r_beta]])
        d = self.directions.shape[1]
        names = [f"u{i+1}" for i in range(d)] + ["radius", "rank_norm"]
        return _write.csv_text(names, np.column_stack(
            [self.directions, self.radii, self.achieved]))

    def save_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())

    def summary(self) -> dict:
        out = {"beta": self.beta, "kind": self.kind,
               "skipped_rays": list(self.skipped)}
        if self.kind == "radial":
            out["r_beta"] = self.r_beta
        else:
            out["n_rays"] = int(len(self.radii))
        return out


def _ray_directions(d: int, n: int) -> np.ndarray:
    if d == 2:
        th = 2.0 * np.pi * np.arange(n) / n
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if d == 3:
        # Fibonacci lattice: near-uniform spread without a seed
        k = np.arange(n) + 0.5
        phi = np.pi * (1.0 + np.sqrt(5.0)) * k
        z = 1.0 - 2.0 * k / n
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    rng = np.random.Generator(np.random.PCG64(0))
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _clear_of_atoms(dirs: np.ndarray, atoms: np.ndarray,
                    norms: np.ndarray) -> np.ndarray:
    """dirs, with every ray that passes within 1e-9 of an atom turned by 1e-6
    towards the next axis: the rank is discontinuous at atoms.

    |z|^2 - (z, u)^2 screens the atom x ray pairs, in blocks of at most
    _EVAL_BLOCK pairs; the few it keeps get the exact distance |z - (z, u) u|.
    """
    n_rays, d = dirs.shape
    hit = np.zeros(n_rays, dtype=bool)
    rows = max(1, _EVAL_BLOCK // n_rays)
    for lo in range(0, len(atoms), rows):
        z, zz = atoms[lo:lo + rows], norms[lo:lo + rows, None] ** 2
        t = z @ dirs.T
        a, r = np.nonzero((t > 0.0) & (zz - t * t <= 1e-12 * (1.0 + zz)))
        dist = np.linalg.norm(z[a] - t[a, r, None] * dirs[r], axis=1)
        hit[r[dist < 1e-9]] = True
    out = dirs.copy()
    for i in np.nonzero(hit)[0]:
        out[i, (i + 1) % d] += 1e-6
        out[i] /= np.linalg.norm(out[i])
    return out


def contour(ev: RankEvaluator, beta: float, n_rays: int = 64,
            tol: float = 1e-10) -> DepthContour:
    """Depth contour at level beta.

    Radial measures invert g(r) = beta directly.  Otherwise every ray solves
    |R(t u)| = beta, all rays in lockstep: the bracket [lo, hi] doubles from
    [0, 1] and Chandrupatla's method closes it.  Each step is one batch rank
    evaluation on the rays still active.  Rays whose bracket never closes
    are reported as skipped, and so are the rays whose first unit step is
    not below beta while |R(0)| > beta: the origin lies outside the
    contour, and [0, 1] brackets no crossing.

    The root loop is `_chandrupatla`, a port of the one behind scipy's
    `optimize.elementwise.find_root` with the same radii bit for bit:
    find_root's general framework (argument broadcasting, result objects,
    per-step bookkeeping) costs about 0.35 ms a step against 0.07 ms for
    the port (48 brackets of a linear function; Python 3.11, scipy 1.17),
    more than a step's rank evaluations on a 400-atom cloud.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if n_rays < 1:
        raise ValueError(f"n_rays must be at least 1, got {n_rays}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if beta == 0.0:
        if ev.profile is not None:
            return DepthContour(beta, "radial", r_beta=0.0)
        # every ray ends at the origin; |R| there is 0 only at the median
        at_0 = np.linalg.norm(ev.rank_many(np.zeros((n_rays, ev.d))), axis=1)
        return DepthContour(beta, "rayfan", directions=_ray_directions(
            ev.d, n_rays), radii=np.zeros(n_rays), achieved=at_0)
    if ev.profile is not None:
        return DepthContour(beta, "radial",
                            r_beta=float(invert_g(ev.profile, beta)))

    dirs = _clear_of_atoms(_ray_directions(ev.d, n_rays), ev.atoms()[0],
                           ev.atom_norms)

    def norm_rank(t, i):
        """|R(t u_i)| for rays i at distances t."""
        return np.linalg.norm(ev.rank_many(t[:, None] * dirs[i]), axis=1)

    fun = lambda t, i: norm_rank(t, i) - beta
    rays = np.arange(n_rays)
    lo, hi = np.zeros(n_rays), np.ones(n_rays)
    f_hi = fun(hi, rays)
    grow = (f_hi < 0.0) & (hi < _RAY_CAP)
    while grow.any():
        i = rays[grow]
        lo[i] = hi[i]
        hi[i] *= 2.0
        f_hi[i] = fun(hi[i], i)
        grow = (f_hi < 0.0) & (hi < _RAY_CAP)
    skip = f_hi < 0.0
    # f(lo) < 0 wherever lo moved, so only a bracket [0, hi] can start above
    # beta, and then on every such ray: it holds no sign change to solve for
    i = rays[~skip & (lo == 0.0)]
    if len(i) and np.linalg.norm(ev.rank(np.zeros(ev.d))) > beta:
        skip[i] = True
    radii = np.full(n_rays, np.nan)
    achieved = np.full(n_rays, np.nan)
    i = rays[~skip]
    if len(i):
        x, conv = _chandrupatla(lambda t, k: fun(t, i[k]), lo[i], hi[i],
                                min(tol, 1e-12), 4 * np.finfo(float).eps)
        skip[i[~conv]] = True
        i = i[conv]
        radii[i] = x[conv]
        achieved[i] = norm_rank(radii[i], i)
    ok = ~skip
    return DepthContour(beta, "rayfan", directions=dirs[ok], radii=radii[ok],
                        achieved=achieved[ok],
                        skipped=rays[skip].tolist())


def _chandrupatla(fun, x1, x2, xatol, xrtol):
    """Roots of fun(x, k) = 0 on the brackets [x1[k], x2[k]], all brackets in
    lockstep: (x, converged).  `fun` gets the abscissae of the brackets
    still open and their indices k.

    Chandrupatla's hybrid of inverse quadratic interpolation and bisection
    (Adv. Eng. Software 28(3), 1997), ported from scipy 1.17's
    `optimize._chandrupatla` with its updates, its termination tests and
    find_root's defaults (residual tolerance `_FATOL`, no relative residual
    tolerance, `_MAXITER` steps), so the roots are find_root's bit for bit.
    Like find_root it evaluates both bracket ends first.  A bracket whose
    ends share a sign, or whose abscissae stop being finite, gives x = nan
    and converged False; one that runs out of steps gives its best end.
    """
    k = np.arange(len(x1))
    f1, f2 = fun(x1, k), fun(x2, k)
    x, converged = np.full(len(k), np.nan), np.zeros(len(k), dtype=bool)
    nit, x3, f3 = 0, None, None
    while True:
        near = np.abs(f1) < np.abs(f2)
        xm = np.where(near, x1, x2)
        conv = np.abs(np.where(near, f1, f2)) <= _FATOL
        bad = ~conv & ((np.sign(f1) == np.sign(f2)) | ~np.isfinite(x1)
                       | ~np.isfinite(x2) | np.isnan(f1) & np.isnan(f2))
        xm[bad] = np.nan
        dx = np.abs(x2 - x1)
        tol = np.abs(xm) * xrtol + xatol
        conv |= dx < tol
        stop = conv | bad
        if nit >= _MAXITER:
            stop[:] = True
        x[k[stop]], converged[k[stop]] = xm[stop], conv[stop]
        if stop.all():
            return x, converged
        go = ~stop
        k, x1, x2, f1, f2, dx, tol = (a[go] for a in
                                      (k, x1, x2, f1, f2, dx, tol))
        t = 0.5
        if nit:
            x3, f3 = x3[go], f3[go]
            with np.errstate(divide="ignore", invalid="ignore"):
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                iqi = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        xn = x1 + t * (x2 - x1)
        fn = fun(xn, k)
        same = np.sign(fn) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xn, fn
        nit += 1


# ---------------------------------------------------------------------------
# Probability content through the surface integral
# ---------------------------------------------------------------------------

def probability_content_surface(ev: RankEvaluator, radius: float,
                                path: str = "analytic",
                                fd_step: float = 0.05,
                                n_polar: int = 48, n_azimuth: int = 96
                                ) -> float:
    """P[B_R] as the flux integral gamma_d * int_{|x|=R} ((-Delta)^{(d-1)/2}
    R(x), x/R) dS.  Odd d only (the integrand needs integer Laplacians).

    d=1 reduces to the exact (R(R) - R(-R))/2, the analytic path, and has no
    grid path.  For d=3 the analytic path uses the radial identity
    (-Delta)(g(r) xhat) = -h'(r) xhat; the grid path applies a centered
    second-difference Laplacian to the sampled rank at sphere quadrature
    nodes.
    """
    if path not in ("analytic", "grid"):
        raise ValueError("path must be 'analytic' or 'grid'")
    d = ev.d
    if d % 2 == 0:
        raise ParityError("surface-integral content requires odd d "
                          "(fractional surface integrand otherwise)")
    R = float(radius)
    if not 0.0 <= R < np.inf:
        raise ValueError(f"radius must be finite and at least 0, got {R}")
    if d == 1:
        if path == "grid":
            raise ValueError("d = 1 has no grid path: the analytic "
                             "(R(R) - R(-R))/2 is exact")
        lo = ev.rank(np.array([-R]))[0]
        hi = ev.rank(np.array([R]))[0]
        return float(0.5 * (hi - lo))
    if d != 3:
        raise ValueError("implemented for d in {1, 3}")
    gd = sf.gamma_d(3)
    if path == "analytic":
        if ev.profile is None:
            raise ValueError("analytic path requires a radial closed form")
        return float(gd * 4.0 * np.pi * R * R * (-ev.profile.h_prime(R)))
    omega, w_ang = sphere_rule(3, n_polar, n_azimuth)
    neg_lap = _neg_laplacian(ev.rank_many, R * omega, fd_step)
    flux = np.einsum("nk,nk->n", neg_lap, omega)
    return float(gd * R * R * np.dot(flux, w_ang))


def radial_content_oracle(m: RadialClosedForm, radius: float) -> float:
    """P[B_R] by direct radial quadrature of the density (independent of the
    rank field); used as the reference for the surface-integral identity."""
    # imported here: scipy.integrate would add to every CLI start-up
    from scipy.integrate import quad
    from .measures import radial_profile
    prof = radial_profile(m)
    S = 2.0 * np.pi ** (m.d / 2.0) / sf.gamma_fn(m.d / 2.0)
    val, _ = quad(lambda r: S * r ** (m.d - 1) * prof.f(r), 0.0, radius,
                  limit=200)
    return float(val)


# ---------------------------------------------------------------------------
# Probability-content re-indexing
# ---------------------------------------------------------------------------

def rank_norm_cdf(ev: RankEvaluator, mc_budget: int = 100_000,
                  seed: int = 0):
    """Estimated cdf of |R(Z)|, Z ~ P, as a callable on [0, 1) (the
    re-indexing map).  Monte-Carlo; dimension generic."""
    z = sample(ev.measure, mc_budget, seed)
    norms = np.sort(np.linalg.norm(ev.rank_many(z), axis=1))
    n = len(norms)

    def theta(beta):
        return np.searchsorted(norms, np.asarray(beta), side="right") / n

    return theta


def theta_radial_exact(ev: RankEvaluator, beta: float) -> float:
    """Exact re-indexing value for radial closed forms: the probability
    content of the ball whose radius solves g(r) = beta."""
    if ev.profile is None:
        raise ValueError("exact theta requires a radial closed form")
    if beta <= 0.0:
        return 0.0
    return radial_content_oracle(ev.measure, invert_g(ev.profile, beta))
