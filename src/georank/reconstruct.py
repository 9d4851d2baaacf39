"""Density reconstruction from the rank field.

The operator is L = gamma_d (-Delta)^{(d-1)/2} div.  Odd dimensions are
purely local (integer Laplacians); even dimensions require one half-
Laplacian, realized three interchangeable ways:

* ``singular``  - pointwise singular integral with the c_{d,1/2} constant,
  symmetrized second differences near the singularity, and an analytic tail
  correction beyond the truncation radius, for every output point in one
  blocked pass over the rings of the radial rule;
* ``hankel``    - order-zero Hankel transform route for isotropic fields
  (forward transform of the divergence profile, multiply by |xi|, transform
  back, using that the isotropic Fourier transform is an involution).  The
  spectrum |xi| F(div R) is ``divergence_fourier_profile``: one FFTLog
  (Talman 1978; Hamilton 2000; scipy.fft.fht) of s h(s), sampled once on
  4 096 log-spaced nodes, brought by a 6-point Lagrange interpolant to one
  fixed Gauss-Legendre rule over the frequency axis that every output
  radius shares, and transformed back on that rule.  It subtracts the far
  field a s/sqrt(1+s^2) that s h(s) tends to (a = 1 for every measure in
  d = 2) and adds back its exact transform from the Hankel pair
  int_0^inf s (1+s^2)^{-1/2} J0(rho s) ds = e^{-rho}/rho, so FFTLog only
  sees an absolutely convergent remainder;
* ``extension`` - harmonic extension to the upper half space: the density is
  the boundary limit of -d/dt of the extension, evaluated at small heights t
  via the Poisson kernel and Richardson-extrapolated in t.  For an empirical
  measure this is exactly a Poisson-kernel density estimate with bandwidth t.

A rank field of atoms, an empirical measure's or a GenericDensity's
Monte-Carlo sample, has no density: ``singular`` and ``odd-local`` refuse
it with ConfigError, and in odd d ``verify_identity_on_test_function``
checks the identity for it weakly.

Every route but the odd-local grid takes its points from one resolver,
``_targets`` (cfg.points, else cfg.radii or the route's default radii), and
its report from one builder, ``_report``, with the closed form's density as
reference.  A report writes the same answer as CSV (``csv_text``) and JSON
(``to_json_dict``).
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np
from scipy.special import j0

from . import _write
from . import specfun as sf
from ._quadrature import (_EVAL_BLOCK, circle_rule, geometric_edges, gl_nodes,
                          gl_segments, ring_blocks, sphere_rule)
from .errors import (BudgetError, ConfigError, DecayError,
                     DimensionMismatchError, ParityError, ToleranceError)
from .measures import (Empirical, Measure, _row_dots, _row_norms,
                       density as measure_density)
from .rankfield import (RankEvaluator, VectorGridField,
                        _neg_laplacian, _pair_sums, _rank_sum,
                        fd_divergence, fd_laplacian, sample_grid)

_METHODS = ("odd-local", "singular", "hankel", "extension")


@dataclass
class ReconstructionConfig:
    method: str = "odd-local"
    eta: float = 1e-3              # inner cutoff of the singular integral
    r_max: float = 50.0            # outer truncation radius
    fd_order: int = 2
    grid_box: tuple = (-3.0, 3.0)
    grid_nodes: int = 61
    extension_height: float = 0.01
    radii: np.ndarray = None       # evaluation radii (radial measures)
    points: np.ndarray = None      # evaluation points (general measures)
    tolerance: float = 1e-3        # refinement-agreement requirement
    n_theta: int = 64              # azimuthal nodes of the polar quadrature
    n_polar: int = 24              # polar nodes (d >= 3 spheres)
    fd_step: float = 1e-2          # local stencil step (even d >= 4)
    check_refinement: bool = True
    coarse_check: bool = True      # odd-local grid: two-resolution estimate
    force_grid: bool = False       # odd-local: grid path even for radial

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not self.r_max > 10.0:
            raise ValueError("r_max must exceed 10")
        if self.fd_order not in (2, 4):
            raise ValueError("fd_order must be 2 or 4")
        if not 0.0 < self.extension_height <= 0.5:
            raise ValueError("extension_height must lie in (0, 0.5]")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if min(self.n_theta, self.n_polar) < 1:
            raise ValueError("n_theta and n_polar must be at least 1")
        for name, val in (("radii", self.radii), ("points", self.points)):
            if val is not None and not (np.size(val) and np.isfinite(
                    np.asarray(val, dtype=float)).all()):
                raise ValueError(f"{name} must be finite and non-empty")

    def echo(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ReconstructionReport:
    """Reconstructed values plus error diagnostics.

    ``negativity_mass`` integrates max(0, -f_hat); a correct reconstruction
    of a density is nonnegative up to quadrature error, and the mass is
    reported rather than clipped.
    """

    method: str
    config: dict
    kind: str                      # "radial_curve" | "points" | "grid"
    f_hat: np.ndarray
    radii: np.ndarray = None
    points: np.ndarray = None
    f_reference: np.ndarray = None
    diagnostics: dict = dc_field(default_factory=dict)
    grid: VectorGridField = None

    @property
    def abs_error(self):
        if self.f_reference is None:
            return None
        return np.abs(self.f_hat - self.f_reference)

    def to_json_dict(self) -> dict:
        """The report's JSON payload for `_write.json_text`, arrays kept as
        arrays: method, config, kind, diagnostics and f_hat, with a curve's
        r, f_reference when set, or a grid's origin, spacing and shape, its
        f_hat in row-major node order as in the CSV."""
        out = {"method": self.method, "config": self.config,
               "kind": self.kind, "diagnostics": self.diagnostics,
               "f_hat": self.f_hat}
        if self.kind == "grid":
            out.update(f_hat=self.f_hat.ravel(), origin=self.grid.origin,
                       spacing=self.grid.spacing, shape=list(self.grid.shape))
            return out
        if self.kind == "radial_curve":
            out["r"] = self.radii
        if self.f_reference is not None:
            out["f_reference"] = self.f_reference
        return out

    def csv_text(self) -> str:
        """A curve as r, f_hat; grid nodes or points as x1..xd, f_hat.  A
        curve or points with a reference add f_reference, abs_error."""
        if self.kind == "radial_curve":
            cols = [self.radii, self.f_hat]
            names = ["r", "f_hat"]
        else:
            pts = self.grid.nodes() if self.kind == "grid" else self.points
            cols = [pts, self.f_hat.reshape(pts.shape[0], -1)]
            names = [f"x{i+1}" for i in range(pts.shape[1])] + ["f_hat"]
        if self.f_reference is not None and self.kind != "grid":
            cols += [self.f_reference, self.abs_error]
            names += ["f_reference", "abs_error"]
        return _write.csv_text(names, np.column_stack(cols))

    def save_curve_csv(self, path):
        if self.kind != "radial_curve":
            raise ValueError("curve CSV applies to radial reports")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())

    def save_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_write.json_text(self.to_json_dict()))


def _sphere_area(d: int) -> float:
    return 2.0 * np.pi ** (d / 2.0) / sf.gamma_fn(d / 2.0)


def _errors(f_hat, f_ref, prof):
    """The sup error relative to f(0) and the relative l2 error."""
    return {"sup_rel_error": float(np.max(np.abs(f_hat - f_ref))
                                   / prof.f(0.0)),
            "l2_rel_error": (float(np.linalg.norm(f_hat - f_ref))
                             / float(np.linalg.norm(f_ref)))}


def _targets(ev, cfg, route, default_radii, points=True):
    """(pts, radii): the rows of cfg.points with radii None, else the points
    (r, 0, ..., 0) at cfg.radii or at the route's default_radii.  A route
    that writes only curves (points=False) refuses cfg.points, and every
    route refuses points whose column count is not the measure's d."""
    if cfg.points is not None:
        if not points:
            raise ConfigError(f"the {route} route writes a radial curve at "
                              "--radii (cfg.radii) and takes no --points")
        pts = np.atleast_2d(np.asarray(cfg.points, dtype=float))
        if pts.shape[1] != ev.d:
            raise DimensionMismatchError(
                f"cfg.points has {pts.shape[1]} columns, but the measure "
                f"lives in d = {ev.d}")
        return pts, None
    radii = (np.asarray(cfg.radii, dtype=float) if cfg.radii is not None
             else default_radii)
    pts = np.zeros((len(radii), ev.d))
    pts[:, 0] = radii
    return pts, radii


def _report(method, ev, cfg, targets, f_hat, diag):
    """The report of f_hat at targets = (pts, radii): a curve where radii is
    set, else the points, with the closed form's density at the radii or at
    |x| as f_reference where ev has one."""
    pts, radii = targets
    f_ref = (None if ev.profile is None else
             ev.profile.f(radii if radii is not None else _row_norms(pts)))
    return ReconstructionReport(
        method, cfg.echo(), "points" if radii is None else "radial_curve",
        f_hat, radii=radii, points=pts if radii is None else None,
        f_reference=f_ref, diagnostics=diag)


def _with_errors(rep, ev):
    """rep with its sup and l2 errors added to its diagnostics, and for a
    curve the negativity mass, the integral of max(0, -f_hat)."""
    rep.diagnostics.update(_errors(rep.f_hat, rep.f_reference, ev.profile))
    if rep.kind == "radial_curve":
        r, d = rep.radii, ev.d
        neg = np.maximum(0.0, -rep.f_hat) * (_sphere_area(d) * r ** (d - 1))
        rep.diagnostics["negativity_mass"] = (
            float(np.trapezoid(neg, r)) if len(r) > 1 else 0.0)
    return rep


# ---------------------------------------------------------------------------
# Odd dimension: local pipeline
# ---------------------------------------------------------------------------

def _refuse_atoms(ev, route, instead):
    """ConfigError for a rank field of atoms, which has no density."""
    if ev.profile is None:
        raise ConfigError(f"the {route} route evaluates a density pointwise, "
                          "and a rank field of atoms has none (an atomic "
                          "measure, or the Monte-Carlo sample of a "
                          f"GenericDensity); use {instead}")


def _odd_local_radial_curve(prof, r):
    gd = sf.gamma_d(3)
    hp = prof.h_prime(r)
    hpp = prof.h_second(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = -(gd) * (hpp + 2.0 * hp / np.where(r == 0.0, 1.0, r))
    if np.any(r == 0.0):
        # limit: h'(r)/r -> h''(0), so the bracket tends to 3 h''(0)
        val = np.where(r == 0.0, -gd * 3.0 * prof.h_second(0.0), val)
    return val


def _grid_reconstruct_odd(field, order):
    cur = fd_divergence(field, order)
    for _ in range((field.grid_dim - 1) // 2):
        cur = fd_laplacian(cur, order)
        np.negative(cur.values, out=cur.values)
    cur.values *= sf.gamma_d(field.grid_dim)
    return cur


def reconstruct_odd_local(ev: RankEvaluator, cfg: ReconstructionConfig
                          ) -> ReconstructionReport:
    """Local reconstruction for odd d: gamma_d (-Delta)^{(d-1)/2} div R.

    A closed form in d=3 takes the analytic path
    f_hat(r) = -gamma_3 (h''(r) + 2 h'(r)/r) at cfg.radii; with force_grid
    it samples the rank on a grid and applies centered finite differences,
    and coarse_check repeats them on the grid's even nodes: observed_order,
    and refinement_delta, max |coarse - fine| on the shared nodes.
    """
    d = ev.d
    if d % 2 == 0:
        raise ParityError("odd-local reconstruction requires odd d, "
                          f"got d={d}")
    _refuse_atoms(ev, "odd-local", "poisson_smooth (on atoms a Poisson"
                  " KDE with an explicit bandwidth), or the weak form in "
                  "verify_identity_on_test_function")
    targets = _targets(ev, cfg, "odd-local", np.linspace(0.05, 5.0, 100),
                       points=False)
    prof = ev.profile
    if d == 3 and not cfg.force_grid:
        f_hat = _odd_local_radial_curve(prof, targets[1])
        return _with_errors(_report("odd-local", ev, cfg, targets, f_hat, {}),
                            ev)

    field = sample_grid(ev, cfg.grid_box, cfg.grid_nodes)
    fine = _grid_reconstruct_odd(field, cfg.fd_order)
    grid_ref = lambda g: prof.f(_row_norms(g.nodes())).reshape(g.shape)
    ref = grid_ref(fine)
    diag = {**_errors(fine.values, ref, prof), "negativity_mass": float(
        np.sum(np.maximum(0.0, -fine.values)) * fine.spacing ** d)}
    if cfg.coarse_check and cfg.grid_nodes >= 13:
        # with n odd, bit for bit the nodes of a grid of (n - 1) // 2 + 1
        even = field.values[(slice(None, None, 2),) * d]
        coarse = _grid_reconstruct_odd(VectorGridField(
            field.origin, 2.0 * field.spacing, even.shape[:d], even),
            cfg.fd_order)
        ec = float(np.max(np.abs(coarse.values - grid_ref(coarse))))
        ef = float(np.max(np.abs(fine.values - ref)))
        if ef > 0:
            diag["observed_order"] = float(np.log2(ec / ef))
        # as many nodes per side go to the stencils: coarse j is fine crop+2j
        crop = (field.shape[0] - fine.shape[0]) // 2
        shared = fine.values[tuple(slice(crop, crop + 2 * n - 1, 2)
                                   for n in coarse.shape)]
        diag["refinement_delta"] = float(np.max(np.abs(coarse.values
                                                       - shared)))
    return ReconstructionReport("odd-local", cfg.echo(), "grid", fine.values,
                                f_reference=ref, diagnostics=diag, grid=fine)


# ---------------------------------------------------------------------------
# Even dimension: singular-integral pipeline
# ---------------------------------------------------------------------------

def half_laplacian_singular(u, d: int, x, cfg: ReconstructionConfig,
                            tail_coef: float = 0.0, tail_power: int = None):
    """Half-Laplacian of a scalar field u at the rows of x, (m, d), or at
    one point x, (d,), for which it returns a float.

    c_{d,1/2} * [near + far + tail] where near integrates the angularly
    symmetrized difference over eta < |y| < 1 (the full-sphere angular
    average cancels the odd gradient term, leaving an absolutely convergent
    integrand), far covers 1 < |y| < r_max, and the tail uses the caller's
    asymptote u(z) ~ tail_coef / |z|^tail_power beyond r_max.

    ``u`` maps an (m, d) array of points to (m,) values.  The radial rule
    is 48 Gauss-Legendre nodes on [eta, 1], then 24 per geometric segment
    out to r_max; u sees every ring of every point in calls of at most
    _EVAL_BLOCK points, or of one ring where a ring alone is larger.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if tail_power is None:
        tail_power = d - 1
    if d == 2:
        omega, w_ang = circle_rule(cfg.n_theta)
    else:
        omega, w_ang = sphere_rule(d, cfg.n_polar, cfg.n_theta)
    rn, rw = np.concatenate([gl_nodes(cfg.eta, 1.0, 48), gl_segments(
        geometric_edges(1.0, cfg.r_max), 24)], axis=1)
    n_rings = len(rn)
    ux = u(pts)

    terms = np.empty((len(pts), n_rings))
    for i, k, z in ring_blocks(pts, rn, omega):
        uz = u(z.reshape(-1, d)).reshape(len(i), -1)
        terms[i, k] = (ux[i, None] - uz) @ w_ang
    terms *= rw
    terms /= rn ** 2
    total = np.zeros(len(pts))
    for seg in np.split(terms, range(48, n_rings, 24), axis=1):
        total += np.sum(seg, axis=1)         # segment by segment
    # tail beyond r_max against the declared asymptote
    S = _sphere_area(d)
    R = cfg.r_max
    p = tail_power
    total += S * (ux / R - tail_coef / ((p + 1) * R ** (p + 1)))
    if d == 2 and p == 1:
        # next term of the angular average of 1/|x+y|; x.x by np.dot per
        # point, whose bits a batched row sum need not reproduce
        xx = np.array([np.dot(q, q) for q in pts])
        total += -2.0 * np.pi * tail_coef * xx / (16.0 * R ** 4)
    out = sf.c_ds(d, 0.5) * total
    return float(out[0]) if x.ndim == 1 else out


def _scalar_u_and_tail(ev: RankEvaluator, cfg: ReconstructionConfig):
    """The intermediate scalar field gamma_d (-Delta)^{(d-2)/2} div R and its
    far-field coefficient A with u(z) ~ A / |z|^{d-1}."""
    d = ev.d
    gd = sf.gamma_d(d)
    field = ev.divergence_many       # then (-Delta) of it, (d-2)/2 times
    for _ in range((d - 2) // 2):
        field = lambda pts, f=field: _neg_laplacian(f, pts, cfg.fd_step)
    ufunc = lambda pts: gd * field(pts)
    tail = gd * (d - 1) * sf.lambda_dl(d, (d - 2) // 2)
    return ufunc, tail


def reconstruct_even_singular(ev: RankEvaluator, cfg: ReconstructionConfig
                              ) -> ReconstructionReport:
    """Even-d reconstruction of a closed form via the pointwise singular
    integral: at cfg.points when given, else on the curve at cfg.radii."""
    d = ev.d
    if d % 2 == 1:
        raise ParityError("singular-integral reconstruction requires even "
                          f"d, got d={d}")
    _refuse_atoms(ev, "singular", "the extension method (on atoms a Poisson"
                  " KDE with the bandwidth extension_height, --height)")
    ufunc, tail = _scalar_u_and_tail(ev, cfg)
    targets = _targets(ev, cfg, "singular", np.linspace(0.0, 2.0, 20))
    pts = targets[0]
    f_hat = half_laplacian_singular(ufunc, d, pts, cfg, tail)
    diag = {}
    if cfg.check_refinement:
        fine = replace(cfg, eta=cfg.eta / 2, r_max=2 * cfg.r_max,
                       check_refinement=False)
        delta = float(np.max(np.abs(
            half_laplacian_singular(ufunc, d, pts, fine, tail) - f_hat)))
        diag["refinement_delta"] = delta
        if delta > cfg.tolerance:
            raise ToleranceError(
                f"refining (eta, r_max) moved the answer by {delta:.3e}, "
                f"beyond the {cfg.tolerance:.3e} tolerance")
    return _with_errors(_report("singular", ev, cfg, targets, f_hat, diag),
                        ev)


# ---------------------------------------------------------------------------
# Even dimension: Hankel route (isotropic, d = 2)
# ---------------------------------------------------------------------------

def _require_isotropic_d2(ev):
    if ev.d != 2 or ev.profile is None:
        raise ParityError("the Hankel route applies to closed-form radial "
                          "measures in d = 2")


# FFTLog grid of the spectrum: s h(s) is sampled once on n nodes log-spaced
# over [1e-8, 1e8], whose top _SPECTRUM_TOP nodes (a factor 1.15 in s) must
# show its far-field limit to _SPECTRUM_SETTLE of max |s h(s)|
_SPECTRUM_NODES = 4096
_SPECTRUM_LOG10 = 8.0
_SPECTRUM_TOP = 16
_SPECTRUM_SETTLE = 1e-8
# prod_{l != m} (m - l) over l = 0..5: the denominators of the 6-point
# Lagrange weights on the uniform grid in ln k
_LAGRANGE_DENOM = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])


def _fftlog_j0(g, s, rho):
    """B(rho) = int_0^inf g(s) J0(rho s) ds from samples g at log-spaced
    nodes s: one forward FFTLog of order 0 (scipy.fft.fht, bias 0, offset
    0) gives k B(k) at the nodes k = 1/s, and a 6-point Lagrange
    interpolant in ln k brings B to the frequencies rho, which must lie
    within [1/s[-1], 1/s[0]]."""
    from scipy.fft import fht
    n = len(g)
    dln = np.log(s[-1] / s[0]) / (n - 1)
    lnk = -np.log(s[::-1])
    B = fht(g, dln, 0.0) / np.exp(lnk)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (np.log(rho) - lnk[0]) / dln        # fractional node index
    if not (np.all(x >= 0.0) and np.all(x <= n - 1)):
        raise ValueError(f"2 pi |xi| must lie in [{np.exp(lnk[0]):.3g}, "
                         f"{np.exp(lnk[-1]):.3g}], the FFTLog window")
    j = np.clip(np.floor(x).astype(int) - 2, 0, n - 6)
    du = (x - j)[:, None] - np.arange(6.0)
    w = np.ones_like(du)
    for m in range(6):
        w[:, np.arange(6) != m] *= du[:, m:m + 1]
    w /= _LAGRANGE_DENOM
    return np.einsum("ij,ij->i", w, B[j[:, None] + np.arange(6)])


def _spectrum_samples(ev):
    """(s, g, a): the FFTLog grid of _SPECTRUM_NODES nodes, the remainder
    g = s h(s) - a s/sqrt(1+s^2) on it and the far-field limit a, from one
    evaluation of h; DecayError when s h(s) is not admissible."""
    s = np.logspace(-_SPECTRUM_LOG10, _SPECTRUM_LOG10, _SPECTRUM_NODES)
    sh = s * ev.profile.h(s)
    a = float(sh[-1])
    if not np.all(np.isfinite(sh)):
        raise DecayError("s h(s) is not finite on the spectrum grid")
    if (np.max(np.abs(sh[-_SPECTRUM_TOP:] - a))
            > _SPECTRUM_SETTLE * np.max(np.abs(sh))):
        raise DecayError(
            "s h(s) does not settle to a limit over the top of the spectrum "
            f"grid (s near 1e{_SPECTRUM_LOG10:g}); it is not admissible for "
            "the Hankel transform")
    return s, sh - a * s / np.sqrt(1.0 + s * s), a


def _spectrum(s, g, a, rho):
    """V at rho = 2 pi |xi| from samples g of the remainder at the nodes s
    (all of _spectrum_samples' nodes, or every other one) and the far-field
    limit a."""
    return a * np.exp(-rho) + rho * _fftlog_j0(g, s, rho)


def divergence_fourier_profile(ev: RankEvaluator, xi):
    """V(|xi|) = |xi| (F div R)(xi) for an isotropic rank field in d = 2.

    F div R is isotropic with radial value 2 pi int s h(s) J0(2 pi |xi| s) ds.
    Every probability measure on R^2 shares its far field: h(s) =
    E[1/|x - Z|] gives s h(s) -> a = 1.  The Hankel pair
    int_0^inf s (1+s^2)^{-1/2} J0(rho s) ds = e^{-rho}/rho
    (Gradshteyn & Ryzhik 6.554.1) transforms that far field in closed form,
    so with rho = 2 pi |xi|
    V = a e^{-rho} + rho B(s h(s) - a s/sqrt(1+s^2), rho),
    where B(g, rho) = int_0^inf g(s) J0(rho s) ds of the absolutely
    convergent remainder is one FFTLog (Talman 1978, J. Comput. Phys. 29;
    Hamilton 2000, MNRAS 312; scipy.fft.fht) on _SPECTRUM_NODES nodes
    log-spaced over s in [1e-8, 1e8], brought to rho by a 6-point Lagrange
    interpolant in ln k; a is read off the top node.  h is evaluated once,
    on that grid.  Raises DecayError when s h(s) is not admissible: not
    finite on the grid, or not settled to a over its top nodes; ValueError
    when 2 pi |xi| leaves the grid's window [1e-8, 1e8].
    """
    _require_isotropic_d2(ev)
    rho = 2.0 * np.pi * np.atleast_1d(np.asarray(xi, dtype=float))
    V = _spectrum(*_spectrum_samples(ev), rho)
    return V.reshape(np.shape(xi)) if np.ndim(xi) else float(V[0])


# Outer rule of the Hankel chain: Gauss-Legendre on t in [0, T], shared by
# every output radius.  |xi| F(div R) decays like e^{-2 pi^2 t^2} (Gaussian)
# or e^{-2 pi t} (Cauchy), so T = 4 leaves a negligible tail.
_HANKEL_T = 4.0
_HANKEL_SEGMENTS = 16
_HANKEL_GL = 32
_HANKEL_TAIL_SHARE = 1e-7


def reconstruct_isotropic_hankel(ev: RankEvaluator,
                                 cfg: ReconstructionConfig
                                 ) -> ReconstructionReport:
    """Reconstruction through the isotropic Fourier/Hankel chain:
    transform the divergence profile, multiply by |xi|, transform back.

    V(t) = |xi| F(div R) at |xi| = t, the spectrum of
    divergence_fourier_profile, is evaluated once on a fixed Gauss-Legendre
    rule over [0, T]; every radius then comes from the same nodes.  Raises
    DecayError when s h(s) is not admissible, or when the last segment of
    the outer rule holds a non-negligible share of the integrand, i.e. V
    decays too slowly.

    Diagnostics: spectrum_nodes, the FFTLog grid's n; far_field_limit, a;
    outer_tail_share, the last segment's share of the outer integrand; and
    refinement_delta, max |f_hat(n) - f_hat(n/2)| where the n/2 spectrum is
    the FFTLog of the same samples on the grid's even nodes.  The delta is
    truth-free and covers the spectrum grid only, not the truncation of the
    outer rule at T.
    """
    _require_isotropic_d2(ev)
    targets = _targets(ev, cfg, "Hankel", np.linspace(0.2, 2.0, 10),
                       points=False)
    radii = targets[1]
    t, w = gl_segments(np.linspace(0.0, _HANKEL_T, _HANKEL_SEGMENTS + 1),
                       _HANKEL_GL)
    s, g, a = _spectrum_samples(ev)
    rho = 2.0 * np.pi * t
    V = _spectrum(s, g, a, rho)
    V_half = _spectrum(s[::2], g[::2], a, rho)
    wtv = w * t * V
    tail = np.abs(wtv[-_HANKEL_GL:]).sum()
    share = tail / np.abs(wtv).sum()
    if share > _HANKEL_TAIL_SHARE:
        raise DecayError(
            f"|xi| F(div R) does not decay on [0, {_HANKEL_T:g}]: the last "
            "segment of the outer rule holds a non-negligible share")

    # f = gamma_2 * (-Delta)^{1/2} h; the half-Laplacian contributes a 2 pi
    # via 2 pi F^{-1}(|xi| F h), the radial inverse transform another 2 pi
    const = sf.gamma_d(2) * (2.0 * np.pi) ** 2
    dwtv = w * t * (V - V_half)
    f_hat = np.empty(len(radii))
    delta = np.empty(len(radii))
    step = _EVAL_BLOCK // len(t)
    for lo in range(0, len(radii), step):
        kern = j0(2.0 * np.pi * np.outer(radii[lo:lo + step], t))
        f_hat[lo:lo + step] = const * (kern @ wtv)
        delta[lo:lo + step] = const * (kern @ dwtv)
    diag = {"spectrum_nodes": _SPECTRUM_NODES, "far_field_limit": a,
            "outer_tail_share": float(share),
            "refinement_delta": float(np.max(np.abs(delta)))}
    return _with_errors(_report("hankel", ev, cfg, targets, f_hat, diag), ev)


# ---------------------------------------------------------------------------
# Even dimension: harmonic-extension route
# ---------------------------------------------------------------------------

def _poisson_constant(d: int) -> float:
    # 2 gamma_{d+1} Gamma(d+1); times pi^{(d+1)/2}/Gamma((d+1)/2) this is 1
    return 2.0 * sf.gamma_d(d + 1) * sf.gamma_fn(d + 1.0)


def poisson_smooth(measure: Measure, pts: np.ndarray, t: float) -> np.ndarray:
    """-d/dt of the harmonic extension of the embedded measure, at height t:
    C_d * E[ t / (|x - Z|^2 + t^2)^{(d+1)/2} ].  Converges to the density as
    t -> 0+.  Exact sum for atoms (a Poisson-kernel density estimate),
    quadrature against the density otherwise: each point keeps its own
    polar rule and sum, and the density sees the rings of every point in
    blocks from ring_blocks."""
    if not 0.0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = pts.shape[1]
    C = _poisson_constant(d)
    if isinstance(measure, Empirical):
        weights = measure.weights

        def block(_, dist, cols):
            s = np.add(np.square(dist, out=dist), t * t, out=dist)
            return np.power(s, -(d + 1) / 2.0, out=s) @ weights[cols]
        return C * t * _pair_sums(pts, measure.atoms, block,
                                  np.zeros(pts.shape[0]))

    omega, w_ang = (circle_rule(64) if d == 2 else sphere_rule(d, 24, 48))
    rules = [_poisson_radial_rule(float(np.linalg.norm(x)), t) for x in pts]
    out = np.empty(pts.shape[0])
    # the rule's length depends on |x| only where 64 t reaches past |x| + 60
    for n in {len(rn) for rn, _ in rules}:
        idx = [j for j, (rn, _) in enumerate(rules) if len(rn) == n]
        fz = np.empty((len(idx), n))
        for i, k, z in ring_blocks(pts[idx], [rules[j][0] for j in idx],
                                   omega):
            fz[i, k] = (measure_density(measure, z.reshape(-1, d))
                        .reshape(len(i), -1) @ w_ang)
        for row, j in enumerate(idx):
            rn, rw = rules[j]
            kern = t / (rn * rn + t * t) ** ((d + 1) / 2.0)
            out[j] = C * np.sum(rw * kern * fz[row] * rn ** (d - 1))
    return out


def _poisson_radial_rule(r_x: float, t: float):
    """Radial rule of the Poisson quadrature around a point at |x| = r_x:
    geometric segments from t/8 up to a knee at 64 t, then 23 uniform ones
    out to r_x + 60, with 16 Gauss-Legendre nodes each."""
    r_out = r_x + 60.0
    knee = min(64.0 * t, r_out)
    edges = [0.0] + list(geometric_edges(t / 8.0, knee))
    if knee < r_out:
        edges += list(np.linspace(knee, r_out, 24)[1:])
    return gl_segments(np.array(edges), 16)


def reconstruct_extension(ev_or_measure, cfg: ReconstructionConfig
                          ) -> ReconstructionReport:
    """Boundary-limit reconstruction for even d.

    Evaluates the Poisson smoothing at heights t and t/2 and reports the
    Richardson extrapolate 2 f_{t/2} - f_t; the height error is first order
    in t for Lipschitz densities, so extrapolation buys one order.
    """
    ev = (ev_or_measure if isinstance(ev_or_measure, RankEvaluator)
          else RankEvaluator(ev_or_measure))
    if ev.d % 2 == 1:
        raise ParityError("the extension route embeds an even-d measure, "
                          f"got d={ev.d}")
    targets = _targets(ev, cfg, "extension", np.zeros(1))
    t = cfg.extension_height
    f_t = poisson_smooth(ev.measure, targets[0], t)
    f_t2 = poisson_smooth(ev.measure, targets[0], t / 2.0)
    rep = _report("extension", ev, cfg, targets, 2.0 * f_t2 - f_t,
                  {"height": t, "f_at_height": f_t, "f_at_half_height": f_t2})
    if rep.f_reference is not None:
        rep.diagnostics.update(
            error_at_height=np.abs(f_t - rep.f_reference),
            error_at_half_height=np.abs(f_t2 - rep.f_reference),
            richardson_error=rep.abs_error)
    return rep


def reconstruct_density(ev: RankEvaluator, cfg: ReconstructionConfig
                        ) -> ReconstructionReport:
    """Run the pipeline that ``cfg.method`` names.  Each pipeline refuses the
    dimension parity or the measure it cannot handle (ParityError,
    ConfigError)."""
    if cfg.method == "odd-local":
        return reconstruct_odd_local(ev, cfg)
    if cfg.method == "singular":
        return reconstruct_even_singular(ev, cfg)
    if cfg.method == "hankel":
        return reconstruct_isotropic_hankel(ev, cfg)
    if cfg.method == "extension":
        return reconstruct_extension(ev, cfg)
    raise ConfigError(f"unknown method {cfg.method!r}")


# ---------------------------------------------------------------------------
# Distributional identity on test functions (odd d)
# ---------------------------------------------------------------------------

class PolynomialBump:
    """Compactly supported test function psi(x) = (1 - |x-c|^2/a^2)_+^m.

    C^{m-1} across the support boundary, with closed-form gradient,
    Laplacian, and gradient-of-Laplacian (m >= 4 keeps the last one
    continuous).  Vectorized over (n, d) arrays; the two gradients are
    written into the one (n, d) difference array x - c, in place.
    """

    def __init__(self, center, radius: float, m: int = 8):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if m < 4:
            raise ValueError("need m >= 4 for a continuous grad-Laplacian")
        self.m = int(m)

    @property
    def d(self):
        return self.center.shape[0]

    def _s(self, x):
        y = np.atleast_2d(x) - self.center[None, :]
        return _row_dots(y, y) / self.radius ** 2, y


    def _w(self, s, order):
        """d^order/ds^order of (1 - s)_+^m, computed only where s < 1: it
        is exactly 0 outside."""
        m = self.m
        coef = 1.0
        for k in range(order):
            coef *= (m - k)
        out = np.zeros_like(s)
        inside = s < 1.0
        out[inside] = (((-1.0) ** order) * coef
                       * (1.0 - s[inside]) ** (m - order))
        return out

    def _times_gradient_of_s(self, coef, y):
        """coef * grad s = coef * 2 y / a^2 per row, written into y."""
        y *= 2.0
        y /= self.radius ** 2
        y *= coef[:, None]
        return y

    def value(self, x):
        s, _ = self._s(x)
        out = self._w(s, 0)
        return out if np.ndim(x) > 1 else float(out[0])

    def gradient(self, x):
        s, y = self._s(x)
        out = self._times_gradient_of_s(self._w(s, 1), y)
        return out if np.ndim(x) > 1 else out[0]

    def laplacian(self, x):
        s, _ = self._s(x)
        a2 = self.radius ** 2
        out = self._w(s, 2) * 4.0 * s / a2 + self._w(s, 1) * 2.0 * self.d / a2
        return out if np.ndim(x) > 1 else float(out[0])

    def grad_laplacian(self, x):
        s, y = self._s(x)
        a2 = self.radius ** 2
        coef = (4.0 * s / a2) * self._w(s, 3) \
            + ((4.0 + 2.0 * self.d) / a2) * self._w(s, 2)
        out = self._times_gradient_of_s(coef, y)
        return out if np.ndim(x) > 1 else out[0]


def verify_identity_on_test_function(psi: PolynomialBump, ev: RankEvaluator,
                                     n_radial: int = 48, n_polar: int = 32,
                                     n_azimuth: int = 64,
                                     quad_budget: int = 10_000_000) -> float:
    """Residual of the weak-form reconstruction identity on a test function:

        | int psi dP  -  int (R(x), V(x)) dx |,   V = L† psi,

    with L† = -gamma_d grad (-Delta)^{(d-1)/2} (the divergence contributes
    one sign flip under integration by parts): V = -gamma_1 psi' in d = 1
    and gamma_3 grad Laplacian psi in d = 3.  Odd d only, where L† needs no
    fractional derivative of psi; d in {1, 3} are implemented.  Works for
    every measure, atomic ones included, where no pointwise reconstruction
    exists.  Two passes of spherical quadrature on ring_blocks:

    * atom pass: rings around each atom c inside supp psi, out to
      |c - center| + radius, pair the atom's kernel, which is omega on the
      ray c + r omega, with V;
    * ball pass: rings around the centre of psi out to its radius pair the
      rest of R with V: the summed field of the atoms outside supp psi, or
      the whole field of a density or of its Monte-Carlo cloud.  For a
      measure with a density it also integrates psi dP.

    Both passes use n_radial Gauss-Legendre radii per ring set and the
    sphere rule sphere_rule(d, n_polar, n_azimuth); in d = 1 that rule is
    the two directions +-1, so n_polar and n_azimuth do not apply.  The
    residual converges to 0 under refinement of each of them.  quad_budget
    counts the evaluation points of both passes, n_radial times the sphere
    rule's size per ring set (one per atom inside supp psi, plus the ball);
    BudgetError when the rule exceeds it.
    """
    d = ev.d
    if d % 2 == 0:
        raise ParityError("the test-function identity is implemented for "
                          "odd d (even d would need a fractional derivative "
                          "of psi)")
    if d not in (1, 3):
        raise ValueError("implemented for d in {1, 3}")
    if psi.d != d:
        raise ValueError("test function dimension mismatch")
    # V = gamma_d U, the only place where d matters
    U = psi.grad_laplacian if d == 3 else (lambda x: -psi.gradient(x))
    omega, w_ang = sphere_rule(d, n_polar, n_azimuth)
    # a measure with a density, closed-form or sampled, takes the ball pass
    atomic = ev.profile is None and not ev.sampled
    atoms, weights = (ev.atoms() if atomic
                      else (np.empty((0, d)), np.empty(0)))
    gap = np.linalg.norm(atoms - psi.center, axis=1)
    near = gap <= psi.radius + 1e-9
    cost = (np.count_nonzero(near) + 1) * n_radial * len(omega)
    if cost > quad_budget:
        raise BudgetError(f"{cost} quadrature points exceed the budget of "
                          f"{quad_budget}")

    # atom pass: the kernel's jump sits at the centre of its rings, so each
    # ray sees a smooth integrand
    r_out = gap[near] + psi.radius + 1e-9
    x01, w01 = gl_nodes(0.0, 1.0, n_radial)
    rn, rw = np.outer(r_out, x01), np.outer(r_out, w01)
    rings = np.empty(rn.shape)
    for i, k, z in ring_blocks(atoms[near], rn, omega):
        v = U(z.reshape(-1, d)).reshape(z.shape)
        rings[i, k] = np.einsum("rak,ak->ra", v, omega) @ w_ang
    rhs = float(weights[near] @ np.sum(rw * rn ** (d - 1) * rings, axis=1))

    # ball pass: the far atoms' field and a density's are smooth on supp
    # psi; the jumps of a Monte-Carlo cloud's field are left to the rule
    if atomic:
        far, far_w = atoms[~near], weights[~near]
        rest = lambda x: _rank_sum(x, far, far_w)
    else:
        rest = ev.rank_many
    rn, rw = gl_nodes(0.0, psi.radius, n_radial)
    rings = np.empty((2, n_radial))
    for _, k, z in ring_blocks(psi.center[None, :], rn, omega):
        x = z.reshape(-1, d)
        rings[0, k] = _row_dots(rest(x), U(x)).reshape(len(k), -1) @ w_ang
        if not atomic:
            fx = measure_density(ev.measure, x) * psi.value(x)
            rings[1, k] = fx.reshape(len(k), -1) @ w_ang
    ball = rw * rn ** (d - 1) * rings
    rhs = sf.gamma_d(d) * (rhs + float(np.sum(ball[0])))
    lhs = (float(np.dot(psi.value(atoms), weights)) if atomic
           else float(np.sum(ball[1])))
    return abs(lhs - rhs)
