"""Tests of the benchmark itself: the references against known values, every
check against a perturbed output, and the span arithmetic.

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps these tests out of the repository's default pytest run.
"""

import dataclasses
import json
import math
import os
import sys
import time

import numpy as np
import pytest
from scipy import integrate

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import refs        # noqa: E402
import spans       # noqa: E402
import workloads   # noqa: E402

FAMILIES = [("gaussian", 2), ("cauchy", 2), ("gaussian", 3), ("cauchy", 3)]


# ---------------------------------------------------------------------------
# References against values obtained another way
# ---------------------------------------------------------------------------

def _radial_law(family, d):
    """Density of |Z|."""
    if family == "gaussian":
        c = 1.0 if d == 2 else math.sqrt(2.0 / math.pi)
        return lambda s: c * s ** (d - 1) * math.exp(-0.5 * s * s)
    if d == 2:
        return lambda s: s / (1.0 + s * s) ** 1.5
    return lambda s: 4.0 * s * s / (math.pi * (1.0 + s * s) ** 2)


def _shell_rank(r, s, d):
    """|E (x - Z)/|x - Z|| for Z uniform on the sphere of radius s, |x| = r."""
    if d == 3:
        return 1.0 - s * s / (3 * r * r) if s < r else 2 * r / (3 * s)
    val, _ = integrate.quad(
        lambda th: (r - s * math.cos(th))
        / math.sqrt(r * r + s * s - 2 * r * s * math.cos(th)),
        0.0, math.pi, points=[0.0], limit=200)
    return val / math.pi


@pytest.mark.parametrize("family,d", FAMILIES)
@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_rank_profile_matches_shell_quadrature(family, d, r):
    law = _radial_law(family, d)
    val, _ = integrate.quad(lambda s: law(s) * _shell_rank(r, s, d), 0.0,
                            math.inf, points=None, limit=400, epsabs=1e-11)
    if d == 2:   # the kink at s = r slows the semi-infinite rule; split it
        a, _ = integrate.quad(lambda s: law(s) * _shell_rank(r, s, d), 0.0, r,
                              limit=400, epsabs=1e-12)
        b, _ = integrate.quad(lambda s: law(s) * _shell_rank(r, s, d), r,
                              math.inf, limit=400, epsabs=1e-12)
        val = a + b
    assert float(refs.rank_profile(family, d, r)) == pytest.approx(val,
                                                                   abs=1e-8)


@pytest.mark.parametrize("family,d", FAMILIES)
def test_divergence_profile_is_div_of_rank(family, d):
    for r in (0.01, 0.2, 1.0, 3.0):
        e = 1e-5
        g = lambda t: float(refs.rank_profile(family, d, t))
        h = (g(r + e) - g(r - e)) / (2 * e) + (d - 1) * g(r) / r
        assert float(refs.divergence_profile(family, d, r)) == pytest.approx(
            h, rel=1e-8)


@pytest.mark.parametrize("family,d", FAMILIES)
def test_small_radius_series_joins_the_closed_form(family, d):
    r = np.array([0.0, 1e-9, 0.049999, 0.050001, 0.3])
    g = refs.rank_profile(family, d, r)
    assert g[0] == 0.0 and np.all(np.diff(g) > 0)
    assert g[2] == pytest.approx(g[3], rel=1e-4)
    assert np.all(np.isfinite(refs.divergence_profile(family, d, r)))


def _content_closed_form(family, d, R):
    if family == "gaussian" and d == 2:
        return 1.0 - math.exp(-0.5 * R * R)
    if family == "gaussian":
        return (math.erf(R / math.sqrt(2.0))
                - math.sqrt(2.0 / math.pi) * R * math.exp(-0.5 * R * R))
    if d == 2:
        return 1.0 - 1.0 / math.sqrt(1.0 + R * R)
    return (2.0 / math.pi) * (math.atan(R) - R / (1.0 + R * R))


@pytest.mark.parametrize("family,d", FAMILIES)
def test_ball_content_and_density_normalization(family, d):
    for R in (0.5, 1.7, 40.0):
        assert refs.ball_content(family, d, R) == pytest.approx(
            _content_closed_form(family, d, R), abs=1e-11)


@pytest.mark.parametrize("family,d", FAMILIES)
def test_profile_radius_inverts_the_profile(family, d):
    for beta in (0.1, 0.5, 0.9):
        r = refs.profile_radius(family, d, beta)
        assert float(refs.rank_profile(family, d, r)) == pytest.approx(
            beta, abs=1e-14)


def test_direct_sums_on_two_symmetric_atoms():
    atoms = np.array([[1.0, 0.0], [-1.0, 0.0]])
    w = np.array([0.5, 0.5])
    x = np.array([0.0, 0.75])
    assert refs.direct_rank(atoms, w, x) == pytest.approx([0.0, 0.6],
                                                          abs=1e-15)
    assert refs.direct_divergence(atoms, w, x) == pytest.approx(0.8)
    t = 0.3
    c = 1.0 / (2.0 * math.pi)          # Gamma(3/2) / pi^{3/2}
    assert refs.direct_poisson(atoms, w, x, t) == pytest.approx(
        c * t / (1.5625 + t * t) ** 1.5)
    # the kernel vanishes on its own atom
    assert refs.direct_rank(atoms, w, atoms[0]) == pytest.approx([0.5, 0.0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_poisson_kernel_has_unit_mass(d):
    t = 0.7
    mass, _ = integrate.quad(
        lambda r: refs.sphere_area(d) * r ** (d - 1) * t
        / (r * r + t * t) ** ((d + 1) / 2.0), 0.0, math.inf, epsabs=1e-12)
    assert refs.poisson_constant(d) * mass == pytest.approx(1.0, abs=1e-9)


def test_digits_and_caps():
    assert refs.digits(1e-7) == pytest.approx(7.0)
    assert refs.digits(0.0) == refs.DIGITS_CAP
    assert refs.digits(1e-20) == refs.DIGITS_CAP
    assert refs.digits(1e-3, scale=0.1) == pytest.approx(2.0)
    with pytest.raises(refs.CheckFailed):
        refs.within("nan", float("nan"), 1.0)


def test_monte_carlo_check_uses_the_standard_error():
    exact = np.array([[0.6, 0.0]])
    n = 10_000
    se = math.sqrt(0.64 / n)
    refs.check_monte_carlo_rank("mc", exact + [[4.9 * se, 0.0]], exact, n)
    with pytest.raises(refs.CheckFailed):
        refs.check_monte_carlo_rank("mc", exact + [[5.1 * se, 0.0]], exact,
                                    n)


# ---------------------------------------------------------------------------
# Every check passes the program's output and rejects a perturbed one
# ---------------------------------------------------------------------------

def _bump(x):
    """x moved by 5 % of itself; 0 moves to 0.05."""
    return 1.05 * x if x != 0.0 else 0.05


def perturb(kind, out):
    """The same output with its checked values scaled by 1.05.

    The weak-form identity residual should be near 0, so a relative move
    says nothing; it is moved by 0.05 instead."""
    if kind == "identity":
        return out + 0.05
    if isinstance(out, np.ndarray):
        return 1.05 * out
    if isinstance(out, float):
        return _bump(out)
    if hasattr(out, "f_hat"):                     # ReconstructionReport
        if out.grid is not None:
            grid = dataclasses.replace(out.grid, values=1.05 * out.grid.values)
            return dataclasses.replace(out, grid=grid)
        return dataclasses.replace(out, f_hat=1.05 * out.f_hat)
    if hasattr(out, "r_beta"):                    # DepthContour
        if out.kind == "radial":
            return dataclasses.replace(out, r_beta=_bump(out.r_beta))
        return dataclasses.replace(out, radii=1.05 * out.radii)
    raise TypeError(f"no perturbation for {type(out).__name__}")


# column of the first data row moved in each CLI output file
CLI_FIELD = {"cli_rank_grid_csv": 3, "cli_rank_points": 2,
             "cli_reconstruct": 2, "cli_contour": 2, "cli_quantile": 0}


def perturb_cli(kind, data):
    if kind == "cli_rank_grid_json":
        doc = json.loads(data)
        doc["rank"][0][0] = _bump(doc["rank"][0][0])
        return json.dumps(doc).encode()
    if kind == "cli_content":
        doc = json.loads(data)
        doc["content"] = _bump(doc["content"])
        return json.dumps(doc).encode()
    lines = data.split(b"\n")
    row = lines[1].split(b",")
    col = CLI_FIELD[kind]
    row[col] = b"%.17g" % _bump(float(row[col]))
    lines[1] = b",".join(row)
    return b"\n".join(lines)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_checks_accept_outputs_and_reject_perturbations(name, tmp_path):
    ops = workloads.build(name, 7, str(tmp_path))
    (tmp_path / "fresh").mkdir()
    fresh = {op.kind: op for op in workloads.build(name, 7,
                                                    str(tmp_path / "fresh"))}
    for op in ops:
        out = op.run()
        if op.kind == "cli_nan_atom":
            with pytest.raises(workloads.OpFailed):
                op.check((0, ""))
            assert op.check((2, "configuration error: nan_atoms.csv: row 3, "
                                "column 2: not a finite number")) == []
            continue
        terms = op.check(out)
        assert all(0.0 < t <= refs.DIGITS_CAP for t in terms), op.kind
        if op.kind.startswith("cli_"):
            with pytest.raises(refs.CheckFailed):
                fresh[op.kind].check(perturb_cli(op.kind, out))
            with pytest.raises(refs.CheckFailed):   # not byte-identical
                op.check(out + b"\n")
        else:
            with pytest.raises(refs.CheckFailed):
                op.check(perturb(op.kind, out))


def test_rank_bound_rejects_a_long_vector():
    with pytest.raises(refs.CheckFailed):
        refs.check_rank_bound("r", np.array([[0.8, 0.6 + 1e-9]]))
    refs.check_rank_bound("r", np.array([[0.8, 0.6]]))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    tr = spans.Tracer()

    def inner():
        time.sleep(0.02)

    inner_t = tr.wrap(inner, "specfun.inner", lambda a, k, o: (5.0, None))

    def outer():
        time.sleep(0.01)
        inner_t()
        inner_t()

    tr.wrap(outer, "depth.outer")()
    m = spans.layer_metrics(tr, 0, len(tr))
    assert len(tr) == 3
    assert m["specfun.args"] == 10.0
    assert 40.0 <= m["specfun.self_ms"] < 60.0
    assert 10.0 <= m["depth.self_ms"] < 20.0


def test_install_restores_every_attribute():
    from georank import cli, quantile, rankfield
    before = (quantile.solve_quantile, rankfield.RankEvaluator.rank_many,
              cli._emit, cli.empirical_from_csv)
    tr = spans.Tracer()
    with tr.installed():
        assert quantile.solve_quantile is not before[0]
        ev = rankfield.RankEvaluator(workloads.G.Empirical(
            np.random.default_rng(0).normal(size=(40, 2))))
        workloads.G.solve_quantile(ev, workloads.G.QuantileQuery(
            0.3, np.array([0.6, 0.8])))
    after = (quantile.solve_quantile, rankfield.RankEvaluator.rank_many,
             cli._emit, cli.empirical_from_csv)
    assert after == before
    m = spans.layer_metrics(tr, 0, len(tr))
    assert m["quantile.solves"] == 1.0
    assert m["quantile.rank_calls_per_solve"] >= 1.0
    assert m["rankfield.point_pairs"] == 40.0 * m["rankfield.point_calls"]
