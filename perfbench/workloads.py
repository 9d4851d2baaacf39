"""The four benchmark workloads.

Each workload is a fixed list of operations, one *round*, built from inputs
generated from the seed.  `build(name, seed, workdir)` returns the round as a
list of Op; the harness runs the round repeatedly and checks every op's
output with `op.check`.  References are computed lazily on the first check,
so they are not part of the measured set-up.

georank functions are looked up on their modules at call time (never bound
at import), so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

import georank as G
from georank import cli

import refs

NAMES = ("cloud-field", "cloud-solve", "closed-form", "cli-io")
OP_KINDS = (
    "rank_many", "divergence_many", "extension",                # cloud-field
    "solve_quantile", "contour", "mc_rank", "identity",         # cloud-solve
    "hankel_gaussian", "hankel_cauchy", "singular", "odd_local", "content",
    "radial_solve",
    "radial_rank",                                              # closed-form
    "cli_rank_grid_csv", "cli_rank_grid_json", "cli_rank_points",
    "cli_reconstruct", "cli_contour", "cli_quantile", "cli_content",
    "cli_nan_atom",                                             # cli-io
)

# Rank vectors against a direct sum or a closed form, absolute.  Summation
# order alone gives errors near 1e-15, so a passing output scores anywhere
# up to the 12-digit cap and a loss of digits shows before a check fails.
RANK_TOL = 1e-10
REL_TOL = 1e-10               # divergence and Poisson sums, relative
# Requested of the quantile solver; at 1e-9 and below its Armijo search
# stalls on some clouds (see the FOUND line on solve_quantile in CHANGES.md).
QUANTILE_TOL = 3e-8
CONTOUR_TOL = 1e-10
# The discretized routes, relative to f(0) where they apply to a density:
# each bounds the discretization error of the configuration used here, and a
# wrong constant, sign or index gives an error of order one.
HANKEL_TOL = 1e-4
SINGULAR_TOL = 1e-3           # the acceptance tolerance at eta = 1e-3
EXTENSION_TOL = 1e-3
GRID_TOL = 2e-2               # second-order differences at spacing 0.12
CONTENT_TOL = 1e-3            # grid path, fd_step 0.05
THETA_TOL = 1e-9
# Relative residual of the weak-form identity at rule (24, 16, 32): it falls
# from ~1e-5 to ~1e-12 across clouds as atoms sit farther from the bump's
# edge.
IDENTITY_TOL = 1e-3


class OpFailed(Exception):
    """The operation did not produce its correct outcome (counted as failed,
    not as a wrong answer)."""


@dataclass
class Op:
    kind: str                             # operation kind, for round shares
    run: Callable[[], Any]
    check: Callable[[Any], list]          # digits terms; raises if wrong


def lazy(fn):
    """Compute fn() once, on first use."""
    return lru_cache(maxsize=None)(fn)


def build(name, seed, workdir):
    rng = np.random.default_rng(seed)
    return _BUILDERS[name](rng, workdir)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def cloud(rng, n, d):
    """A non-symmetric cloud: three anisotropic Gaussian clumps of unequal
    size at random centres."""
    means = rng.uniform(-1.5, 1.5, (3, d))
    scales = rng.uniform(0.3, 1.2, (3, d))
    counts = [n // 2, n // 3, n - n // 2 - n // 3]
    return np.concatenate([rng.normal(means[i], scales[i], (counts[i], d))
                           for i in range(3)])


def centred(atoms):
    """Shift a cloud so its coordinate-wise median is the origin, where
    depth contours start their rays."""
    return atoms - np.median(atoms, axis=0)


def positive_weights(rng, n):
    w = rng.uniform(0.5, 1.5, n)
    return w / w.sum()


def off_atom_points(rng, atoms, m, pad=0.5):
    """m uniform points in the cloud's padded bounding box, none within 1e-6
    of an atom (the rank is discontinuous there)."""
    lo, hi = atoms.min(axis=0) - pad, atoms.max(axis=0) + pad
    pts = rng.uniform(lo, hi, (m, atoms.shape[1]))
    for i, x in enumerate(pts):
        while np.min(np.linalg.norm(atoms - x, axis=1)) < 1e-6:
            x = x + 1e-3
        pts[i] = x
    return pts


def unit_vectors(rng, k, d):
    v = rng.standard_normal((k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def direct_rank_fn(atoms, weights):
    return lambda x: refs.direct_rank(atoms, weights, x)


# ---------------------------------------------------------------------------
# cloud-field: batch kernel sums
# ---------------------------------------------------------------------------

def _cloud_field(rng, workdir):
    a2 = cloud(rng, 3000, 2)
    w2 = positive_weights(rng, 3000)
    a3 = cloud(rng, 1200, 3)
    w3 = np.full(1200, 1.0 / 1200)
    p2 = off_atom_points(rng, a2, 600)
    p3 = off_atom_points(rng, a3, 400)
    ev2 = G.RankEvaluator(G.Empirical(a2, w2))
    ev3 = G.RankEvaluator(G.Empirical(a3))
    height = 0.2
    ext_cfg = G.ReconstructionConfig(method="extension", points=p2[:200],
                                     extension_height=height)
    sub = slice(0, 32)

    def rank_op(ev, atoms, w, pts, tag):
        ref = lazy(lambda: refs.direct_ranks(atoms, w, pts[sub]))

        def check(out):
            refs.check_rank_bound(tag, out)
            return [refs.check_values(tag, out[sub], ref(), RANK_TOL)]
        return Op("rank_many", lambda: ev.rank_many(pts), check)

    def div_op(ev, atoms, w, pts, tag):
        ref = lazy(lambda: np.array([refs.direct_divergence(atoms, w, x)
                                     for x in pts[sub]]))
        return Op("divergence_many", lambda: ev.divergence_many(pts),
                  lambda out: [refs.check_relative(tag, out[sub], ref(),
                                                   REL_TOL)])

    ext_ref = lazy(lambda: np.array([refs.direct_extension(a2, w2, x, height)
                                     for x in p2[sub]]))

    def ext_check(rep):
        if rep.kind != "points":
            raise refs.CheckFailed(f"extension: report kind {rep.kind}")
        return [refs.check_relative("extension d=2", rep.f_hat[sub],
                                    ext_ref(), REL_TOL)]

    return [
        rank_op(ev2, a2, w2, p2, "rank d=2"),
        div_op(ev2, a2, w2, p2, "divergence d=2"),
        rank_op(ev3, a3, w3, p3, "rank d=3"),
        div_op(ev3, a3, w3, p3, "divergence d=3"),
        Op("extension", lambda: G.reconstruct_extension(ev2, ext_cfg),
           ext_check),
    ]


# ---------------------------------------------------------------------------
# cloud-solve: one point at a time
# ---------------------------------------------------------------------------

MC_ATOMS = 120_000            # > 100k, so rank_many takes one point per block


def _gaussian_density_2d():
    return G.GenericDensity(
        2, lambda x: np.exp(-0.5 * np.sum(x * x, axis=1)) / (2 * math.pi),
        lambda n, gen: gen.standard_normal((n, 2)))


def _cloud_solve(rng, workdir):
    a2 = centred(cloud(rng, 2000, 2))
    w2 = np.full(2000, 1.0 / 2000)
    a3 = centred(cloud(rng, 800, 3))
    w3 = positive_weights(rng, 800)
    ev2 = G.RankEvaluator(G.Empirical(a2))
    ev3 = G.RankEvaluator(G.Empirical(a3, w3))
    mc_pts = rng.uniform(-2.5, 2.5, (12, 2))
    mc_seed = int(rng.integers(2 ** 31))
    gauss2 = _gaussian_density_2d()
    ops = []

    def quantile_op(ev, rank_at, alpha, u, tag):
        q = G.QuantileQuery(alpha, u)
        return Op("solve_quantile",
                  lambda: G.solve_quantile(ev, q, QUANTILE_TOL),
                  lambda x: [refs.check_quantile(tag, x, rank_at, alpha, u,
                                                 QUANTILE_TOL)])

    for ev, atoms, w, alphas, k in ((ev2, a2, w2, (0.2, 0.5, 0.8), 6),
                                    (ev3, a3, w3, (0.3, 0.5, 0.7), 4)):
        rank_at = direct_rank_fn(atoms, w)
        for u in unit_vectors(rng, k, ev.d):
            for alpha in alphas:
                ops.append(quantile_op(ev, rank_at, alpha, u,
                                       f"quantile d={ev.d} alpha={alpha}"))

    def contour_op(ev, atoms, w, beta, rays):
        rank_at = direct_rank_fn(atoms, w)
        tag = f"contour d={ev.d}"

        def check(c):
            if c.skipped:
                raise refs.CheckFailed(f"{tag}: rays {c.skipped} skipped")
            if len(c.radii) != rays:
                raise refs.CheckFailed(f"{tag}: {len(c.radii)} of {rays} rays")
            return [refs.check_contour(tag, c.points(), rank_at, beta,
                                       CONTOUR_TOL)]
        return Op("contour", lambda: G.contour(ev, beta, n_rays=rays,
                                               tol=CONTOUR_TOL), check)

    ops.append(contour_op(ev2, a2, w2, 0.5, 48))
    ops.append(contour_op(ev3, a3, w3, 0.4, 32))

    mc_exact = refs.radial_rank("gaussian", 2, mc_pts)

    def mc_run():
        # a fresh evaluator per round, so sampling the cloud is part of it
        ev = G.RankEvaluator(gauss2, mc_n=MC_ATOMS, seed=mc_seed)
        return ev.rank_many(mc_pts)

    def mc_check(out):
        refs.check_rank_bound("Monte-Carlo rank", out)
        refs.check_monte_carlo_rank("Monte-Carlo rank", out, mc_exact,
                                    MC_ATOMS)
        return []             # Monte-Carlo outputs do not count as digits

    ops.append(Op("mc_rank", mc_run, mc_check))

    # weak-form identity on a few d=3 atoms, bump centred on one of them
    few = a3[:24]
    few_w = np.full(24, 1.0 / 24)
    ev_few = G.RankEvaluator(G.Empirical(few))
    centre, radius = few[0], 0.8
    bump = G.PolynomialBump(centre, radius)
    s = np.sum((few - centre) ** 2, axis=1) / radius ** 2
    lhs = float(few_w @ np.where(s < 1.0, np.maximum(1.0 - s, 0.0) ** 8, 0.0))

    def identity_check(residual):
        # a quadrature residual, not an error against a reference: checked
        # but not counted as digits
        refs.within("identity residual", residual / lhs, IDENTITY_TOL)
        return []

    ops.append(Op("identity", lambda: G.verify_identity_on_test_function(
        bump, ev_few, n_radial=24, n_polar=16, n_azimuth=32), identity_check))
    return ops


# ---------------------------------------------------------------------------
# closed-form: special functions, quadrature and reconstruction operators
# ---------------------------------------------------------------------------

def _radial(family, d):
    return G.RankEvaluator(G.RadialClosedForm(family, d))


def _curve_check(tag, family, d, radii, tol):
    ref = refs.density(family, d, radii)
    f0 = float(refs.density(family, d, 0.0))

    def check(rep):
        return [refs.check_values(tag, rep.f_hat, ref, tol, scale=f0)]
    return check


def _closed_form(rng, workdir):
    gau2, cau2 = _radial("gaussian", 2), _radial("cauchy", 2)
    gau3, cau3 = _radial("gaussian", 3), _radial("cauchy", 3)
    cfg = G.ReconstructionConfig
    ops = []

    def curve_op(kind, fn, ev, family, d, radii, tol, method=None):
        c = cfg(method=method or kind, radii=radii)
        ops.append(Op(kind, lambda: fn(ev, c),
                      _curve_check(f"{kind} {family} d={d}", family, d,
                                   radii, tol)))

    r_h = np.round(rng.uniform(0.3, 1.5, 1), 3)
    curve_op("hankel_gaussian", G.reconstruct_isotropic_hankel, gau2,
             "gaussian", 2, r_h, HANKEL_TOL, method="hankel")
    curve_op("hankel_cauchy", G.reconstruct_isotropic_hankel, cau2, "cauchy",
             2, np.sort(np.round(rng.uniform(0.2, 2.5, 8), 3)), HANKEL_TOL,
             method="hankel")
    for ev, family in ((gau2, "gaussian"), (cau2, "cauchy")):
        radii = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 2.0, 3))])
        curve_op("singular", G.reconstruct_even_singular, ev, family, 2,
                 radii, SINGULAR_TOL)
    curve_op("extension", G.reconstruct_extension, gau2, "gaussian", 2,
             np.sort(rng.uniform(0.0, 2.0, 5)), EXTENSION_TOL)

    grid_cfg = cfg(method="odd-local", force_grid=True, grid_nodes=51)
    f0_3 = float(refs.density("gaussian", 3, 0.0))

    def grid_check(rep):
        nodes = rep.grid.nodes()
        ref = refs.density("gaussian", 3, np.linalg.norm(nodes, axis=1))
        return [refs.check_values("odd-local grid", rep.grid.values.ravel(),
                                  ref, GRID_TOL, scale=f0_3)]

    ops.append(Op("odd_local", lambda: G.reconstruct_odd_local(gau3,
                                                               grid_cfg),
                  grid_check))

    for ev, family in ((gau3, "gaussian"), (cau3, "cauchy")):
        radius = float(np.round(rng.uniform(0.5, 2.0), 3))
        ref = lazy(lambda family=family, radius=radius:
                   refs.ball_content(family, 3, radius))
        ops.append(Op(
            "content",
            lambda ev=ev, radius=radius: G.probability_content_surface(
                ev, radius, path="grid"),
            lambda got, family=family, ref=ref: [refs.check_values(
                f"content grid {family}", got, ref(), CONTENT_TOL)]))

    for ev, (family, d) in ((gau2, ("gaussian", 2)), (cau2, ("cauchy", 2)),
                            (gau3, ("gaussian", 3)), (cau3, ("cauchy", 3))):
        rank_at = lambda x, family=family, d=d: refs.radial_rank(
            family, d, x)[0]
        for alpha, u in zip(rng.uniform(0.1, 0.95, 2),
                            unit_vectors(rng, 2, d)):
            q = G.QuantileQuery(float(alpha), u)
            ops.append(Op(
                "radial_solve",
                lambda ev=ev, q=q: G.solve_quantile(ev, q, QUANTILE_TOL),
                lambda x, a=float(alpha), u=u, rank_at=rank_at, d=d:
                    [refs.check_quantile(f"radial quantile d={d}", x, rank_at,
                                         a, u, QUANTILE_TOL)]))
        beta = float(rng.uniform(0.1, 0.9))

        def contour_check(c, family=family, d=d, beta=beta):
            res = abs(float(refs.rank_profile(family, d, c.r_beta)) - beta)
            refs.within(f"radial contour {family} d={d}", res, CONTOUR_TOL)
            return [refs.digits(res)]

        ops.append(Op("radial_solve",
                      lambda ev=ev, beta=beta: G.contour(ev, beta),
                      contour_check))
        theta_ref = lazy(lambda family=family, d=d, beta=beta:
                         refs.ball_content(family, d, refs.profile_radius(
                             family, d, beta)))
        ops.append(Op(
            "radial_solve",
            lambda ev=ev, beta=beta: G.theta_radial_exact(ev, beta),
            lambda got, ref=theta_ref, family=family, d=d: [refs.check_values(
                f"theta {family} d={d}", got, ref(), THETA_TOL)]))

    for ev, (family, d), m in ((gau3, ("gaussian", 3), 200_000),
                               (gau2, ("gaussian", 2), 150_000),
                               (cau3, ("cauchy", 3), 100_000)):
        pts = rng.standard_normal((m, d)) * 1.5
        sub = slice(0, 512)
        ref = lazy(lambda family=family, d=d, pts=pts:
                   refs.radial_rank(family, d, pts[sub]))

        def rank_check(out, tag=f"radial rank {family} d={d}", ref=ref):
            refs.check_rank_bound(tag, out)
            return [refs.check_values(tag, out[sub], ref(), RANK_TOL)]

        ops.append(Op("radial_rank", lambda ev=ev, pts=pts: ev.rank_many(pts),
                      rank_check))
    return ops


# ---------------------------------------------------------------------------
# cli-io: the georank command, in process, with -o files
# ---------------------------------------------------------------------------

NAN_ATOMS = "x1,x2\n0.5,-0.25\n0.125,nan\n-1,2\n1.5,0.75\n"   # row 3, column 2


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def run_cli(argv):
    """georank.cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:     # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _table(data):
    """Header names and numeric rows of a CSV file's bytes."""
    text = io.StringIO(data.decode("utf-8"))
    names = text.readline().strip().split(",")
    return names, np.loadtxt(text, delimiter=",", ndmin=2)


def _cli_io(rng, workdir):
    atoms = centred(cloud(rng, 400, 2))
    w = np.full(400, 1.0 / 400)
    pts = off_atom_points(rng, atoms, 200)
    p = lambda name: os.path.join(workdir, name)
    _write_csv(p("atoms.csv"), "x1,x2", atoms)
    _write_csv(p("points.csv"), "x1,x2", pts)
    with open(p("nan_atoms.csv"), "w", encoding="utf-8") as fh:
        fh.write(NAN_ATOMS)
    # the CSV round trip is exact, so the library sees these very values
    rank_at = direct_rank_fn(atoms, w)
    height = 0.2
    alpha = float(np.round(rng.uniform(0.2, 0.8), 3))
    u = unit_vectors(rng, 1, 2)[0]
    radius = float(np.round(rng.uniform(0.5, 2.0), 3))
    ops = []

    def cli_op(kind, argv, out_name, check):
        argv = argv + ["-o", p(out_name)]
        first = {}

        def run():
            rc, out, err = run_cli(argv)
            if rc != 0:
                raise OpFailed(f"georank {argv[0]} exited {rc}: {err.strip()}")
            with open(p(out_name), "rb") as fh:
                return fh.read()

        def checked(data):
            # two identical invocations must write identical bytes
            if first.setdefault("bytes", data) != data:
                raise refs.CheckFailed(f"{kind}: output differs from the "
                                       "first identical invocation")
            return check(data)
        ops.append(Op(kind, run, checked))

    grid = ["rank", "--family", "gaussian", "--dim", "3", "--grid=-2:2:21"]
    lib_g3 = _radial("gaussian", 3)

    def grid_values(tag, x, r):
        if x.shape != (21 ** 3, 3):
            raise refs.CheckFailed(f"{tag}: {x.shape[0]} grid rows")
        refs.check_rank_bound(tag, r)
        if not np.array_equal(r, lib_g3.rank_many(x)):
            raise refs.CheckFailed(f"{tag}: file differs from the library")
        return [refs.check_values(tag, r, refs.radial_rank("gaussian", 3, x),
                                  RANK_TOL)]

    def grid_csv(data):
        names, table = _table(data)
        if names != ["x1", "x2", "x3", "r1", "r2", "r3"]:
            raise refs.CheckFailed(f"rank grid csv: header {names}")
        return grid_values("rank grid csv", table[:, :3], table[:, 3:])

    def grid_json(data):
        doc = json.loads(data)
        return grid_values("rank grid json", np.array(doc["points"]),
                           np.array(doc["rank"]))

    cli_op("cli_rank_grid_csv", grid, "grid.csv", grid_csv)
    cli_op("cli_rank_grid_json", grid + ["--format", "json"], "grid.json",
           grid_json)

    rank_ref = lazy(lambda: refs.direct_ranks(atoms, w, pts))
    lib_ev = lazy(lambda: G.RankEvaluator(G.Empirical(atoms)))
    lib_rank = lazy(lambda: lib_ev().rank_many(pts))
    ext_cfg = G.ReconstructionConfig(method="extension", points=pts,
                                     extension_height=height)
    lib_ext = lazy(lambda: G.reconstruct_extension(lib_ev(), ext_cfg).f_hat)

    def rank_points(data):
        names, table = _table(data)
        if names != ["x1", "x2", "r1", "r2", "at_atom"]:
            raise refs.CheckFailed(f"rank points csv: header {names}")
        if not np.array_equal(table[:, :2], pts) or np.any(table[:, 4] != 0):
            raise refs.CheckFailed("rank points csv: points or at_atom wrong")
        r = table[:, 2:4]
        refs.check_rank_bound("rank points csv", r)
        if not np.array_equal(r, lib_rank()):
            raise refs.CheckFailed("rank points csv: differs from the library")
        return [refs.check_values("rank points csv", r, rank_ref(), RANK_TOL)]

    cli_op("cli_rank_points",
           ["rank", "--csv", p("atoms.csv"), "--points", p("points.csv")],
           "rank.csv", rank_points)

    ext_ref = lazy(lambda: np.array([refs.direct_extension(atoms, w, x, height)
                                     for x in pts]))

    def extension(data):
        names, table = _table(data)
        if names != ["x1", "x2", "f_hat"] or not np.array_equal(table[:, :2],
                                                                pts):
            raise refs.CheckFailed("reconstruct csv: header or points wrong")
        if not np.array_equal(table[:, 2], lib_ext()):
            raise refs.CheckFailed("reconstruct csv: differs from the library")
        return [refs.check_relative("reconstruct csv", table[:, 2], ext_ref(),
                                    REL_TOL)]

    cli_op("cli_reconstruct",
           ["reconstruct", "--csv", p("atoms.csv"), "--method", "extension",
            "--points", p("points.csv"), "--height", str(height)],
           "extension.csv", extension)

    def contour(data):
        names, table = _table(data)
        if names != ["u1", "u2", "radius", "rank_norm"] or len(table) != 24:
            raise refs.CheckFailed("contour csv: header or ray count wrong")
        pts_c = table[:, :2] * table[:, 2:3]
        norms = np.array([np.linalg.norm(rank_at(x)) for x in pts_c])
        refs.check_values("contour csv rank_norm", table[:, 3], norms, 1e-12)
        return [refs.check_contour("contour csv", pts_c, rank_at, 0.5,
                                   CONTOUR_TOL)]

    cli_op("cli_contour",
           ["contour", "--csv", p("atoms.csv"), "--beta", "0.5", "--rays",
            "24"], "contour.csv", contour)

    def quantile(data):
        names, table = _table(data)
        if names != ["q1", "q2", "residual"] or table.shape != (1, 3):
            raise refs.CheckFailed("quantile csv: header or shape wrong")
        return [refs.check_quantile("quantile csv", table[0, :2], rank_at,
                                    alpha, u, QUANTILE_TOL)]

    cli_op("cli_quantile",
           ["quantile", "--csv", p("atoms.csv"), "--alpha", "%.17g" % alpha,
            "--direction=%.17g,%.17g" % tuple(u), "--tol",
            "%g" % QUANTILE_TOL],
           "quantile.csv", quantile)

    content_ref = lazy(lambda: refs.ball_content("gaussian", 3, radius))

    def content(data):
        doc = json.loads(data)
        return [refs.check_values("content json", doc["content"],
                                  content_ref(), 1e-10),
                refs.check_values("content json oracle", doc["oracle"],
                                  content_ref(), 1e-10)]

    cli_op("cli_content",
           ["content", "--family", "gaussian", "--dim", "3", "--radius",
            repr(radius)], "content.json", content)

    nan_argv = ["rank", "--csv", p("nan_atoms.csv"), "--points",
                p("points.csv"), "-o", p("nan_rank.csv")]

    def nan_check(outcome):
        rc, err = outcome
        if rc != 2 or "row 3" not in err or "column 2" not in err:
            raise OpFailed(f"rank on a NaN atom exited {rc}, expected 2 with "
                           "a parse error at row 3, column 2")
        return []

    ops.append(Op("cli_nan_atom", lambda: run_cli(nan_argv)[::2], nan_check))
    return ops


_BUILDERS = {
    "cloud-field": _cloud_field,
    "cloud-solve": _cloud_solve,
    "closed-form": _closed_form,
    "cli-io": _cli_io,
}
