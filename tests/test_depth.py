"""Depth contours, the surface-integral probability content, and
probability-content re-indexing."""

import numpy as np
import pytest
from scipy.integrate import quad

import georank as gr
from georank.errors import ParityError
from georank.measures import _read_table


def test_contour_beta_zero_degenerates():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    c = gr.contour(ev, 0.0)
    assert c.kind == "radial" and c.r_beta == 0.0


def test_contour_beta_zero_on_atoms_reports_rank_at_the_origin():
    # every ray sits at the origin; off the median |R| there is not 0
    atoms = np.random.default_rng(0).standard_normal((300, 2)) + 3.0
    ev = gr.RankEvaluator(gr.Empirical(atoms))
    c = gr.contour(ev, 0.0, n_rays=8)
    want = np.linalg.norm(ev.rank(np.zeros(2)))
    assert want > 0.9
    assert np.array_equal(c.radii, np.zeros(8))
    np.testing.assert_allclose(c.achieved, want, rtol=1e-14)
    assert c.csv_text().splitlines()[1].split(",")[-1] != "0"


def test_contour_cauchy_d2_unit_radius():
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    beta = 1.0 / (1.0 + np.sqrt(2.0))
    c = gr.contour(ev, beta)
    assert c.r_beta == pytest.approx(1.0, abs=1e-10)
    # forward evaluation closes the loop
    assert ev.profile.g(c.r_beta) == pytest.approx(beta, abs=1e-12)


def test_contour_gaussian_d3_matches_profile():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    beta = ev.profile.g(1.0)
    c = gr.contour(ev, beta)
    assert c.r_beta == pytest.approx(1.0, abs=1e-10)


def test_contour_nesting_radial():
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 3))
    betas = np.linspace(0.05, 0.9, 10)
    radii = [gr.contour(ev, b).r_beta for b in betas]
    assert np.all(np.diff(radii) > 0)


def test_contour_rayfan_empirical_residuals_and_nesting():
    rng = np.random.default_rng(14)
    atoms = rng.standard_normal((60, 2))
    ev = gr.RankEvaluator(gr.Empirical(atoms))
    tol = 1e-10
    prev = None
    for beta in (0.2, 0.4, 0.6):
        c = gr.contour(ev, beta, n_rays=24, tol=tol)
        assert not c.skipped
        assert np.max(np.abs(c.achieved - beta)) <= tol
        # direct re-evaluation of the emitted points
        for u, r in zip(c.directions, c.radii):
            assert abs(np.linalg.norm(ev.rank(r * u)) - beta) <= tol
        if prev is not None:
            assert np.all(c.radii > prev)
        prev = c.radii
    c2 = gr.contour(ev, 0.5, n_rays=8)
    assert len(c2.radii) == 8


def test_contour_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    ev = gr.RankEvaluator(gr.Empirical(rng.standard_normal((30, 2))))
    c = gr.contour(ev, 0.45, n_rays=12)
    path = tmp_path / "contour.csv"
    c.save_csv(path)
    names, data = _read_table(path)
    assert names == ["u1", "u2", "radius", "rank_norm"]
    assert np.array_equal(data[:, :2], c.directions)
    assert np.array_equal(data[:, 2], c.radii)
    assert np.array_equal(data[:, 3], c.achieved)


def test_radial_contour_csv_roundtrip(tmp_path):
    # a closed form's contour is a sphere: one row beta, r_beta
    c = gr.contour(gr.RankEvaluator(gr.RadialClosedForm("cauchy", 3)), 0.5)
    path = tmp_path / "contour.csv"
    c.save_csv(path)
    names, data = _read_table(path)
    assert names == ["beta", "r_beta"]
    assert data.tolist() == [[0.5, c.r_beta]]


# ---------------------------------------------------------------------------
# probability content
# ---------------------------------------------------------------------------

def _gauss3_ball_oracle(R):
    # radial quadrature of the standard normal density in d=3
    val, _ = quad(lambda r: 4 * np.pi * r * r
                  * np.exp(-r * r / 2) / (2 * np.pi) ** 1.5, 0.0, R)
    return val


def test_content_gaussian_d3_analytic():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    for R in (0.5, 1.0, 2.0):
        got = gr.probability_content_surface(ev, R)
        assert got == pytest.approx(_gauss3_ball_oracle(R), abs=1e-6)
    assert gr.probability_content_surface(ev, 1.0) == pytest.approx(
        0.1987480, abs=1e-6)


def test_content_gaussian_d3_grid_path():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    for R in (0.5, 1.0, 2.0):
        got = gr.probability_content_surface(ev, R, path="grid")
        assert got == pytest.approx(_gauss3_ball_oracle(R), abs=1e-3)


def test_content_cauchy_d3_large_radius():
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 3))
    got = gr.probability_content_surface(ev, 200.0)
    assert got == pytest.approx(1.0, abs=2e-2)


def test_content_small_radius_vanishes():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    assert abs(gr.probability_content_surface(ev, 1e-2)) <= 1e-5


def test_content_parity_error_even_d():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    with pytest.raises(ParityError):
        gr.probability_content_surface(ev, 1.0)


def test_content_d1_is_cdf_difference():
    ev = gr.RankEvaluator(gr.Empirical(np.array([[-1.0], [1.0]])))
    assert gr.probability_content_surface(ev, 2.0) == pytest.approx(1.0)
    assert gr.probability_content_surface(ev, 0.5) == pytest.approx(0.0)


@pytest.mark.parametrize("d", [1, 3])
def test_content_checks_its_path_in_every_dimension(d):
    # in d = 1 "foo" and "grid" returned the analytic value
    ev = gr.RankEvaluator(gr.Empirical(
        np.random.default_rng(1).standard_normal((20, d))))
    with pytest.raises(ValueError, match="path must be"):
        gr.probability_content_surface(ev, 0.7, path="foo")
    with pytest.raises(ParityError):
        gr.probability_content_surface(
            gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2)), 0.7,
            path="analytic")


def test_content_d1_has_only_the_exact_path():
    ev = gr.RankEvaluator(gr.Empirical(np.array([[-1.0], [0.2], [1.0]])))
    with pytest.raises(ValueError, match="no grid path"):
        gr.probability_content_surface(ev, 0.5, path="grid")
    r = ev.rank_many(np.array([[-0.5], [0.5]]))[:, 0]
    assert (gr.probability_content_surface(ev, 0.5, path="analytic")
            == gr.probability_content_surface(ev, 0.5)
            == float(0.5 * (r[1] - r[0])))


def test_radial_content_oracle_matches_chi():
    # Gaussian d=2: P[|Z|<=r] = 1 - exp(-r^2/2)
    m = gr.RadialClosedForm("gaussian", 2)
    for r in (0.5, 1.0, 2.0):
        assert gr.radial_content_oracle(m, r) == pytest.approx(
            1.0 - np.exp(-r * r / 2), abs=1e-10)


# ---------------------------------------------------------------------------
# re-indexing
# ---------------------------------------------------------------------------

def test_theta_zero_at_zero():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    assert gr.rank_norm_cdf(ev, mc_budget=1000, seed=0)(0.0) == 0.0


def test_theta_matches_radial_composition():
    # theta(beta) is the ball content at radius g^{-1}(beta)
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    beta = ev.profile.g(1.0)
    want = _gauss3_ball_oracle(1.0)
    assert gr.theta_radial_exact(ev, beta) == pytest.approx(want, abs=1e-8)
    n = 100_000
    got = float(gr.rank_norm_cdf(ev, mc_budget=n, seed=2)(beta))
    se = np.sqrt(want * (1 - want) / n)
    assert abs(got - want) <= 4 * se


def test_theta_monotone():
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    theta = gr.rank_norm_cdf(ev, mc_budget=20_000, seed=3)
    betas = np.linspace(0.0, 0.95, 20)
    vals = theta(betas)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0


def test_contour_on_monte_carlo_smoothed_rank():
    # the rank field of a 200 000-atom sample of the closed form is smooth
    # enough between atoms for per-ray root finding; radii agree with the
    # closed form at Monte-Carlo accuracy
    ev = gr.RankEvaluator(gr.Empirical(gr.sample(
        gr.RadialClosedForm("gaussian", 2), 200_000, 33)))
    beta = float(gr.radial_profile(gr.RadialClosedForm("gaussian", 2)).g(1.0))
    c = gr.contour(ev, beta, n_rays=8)
    assert not c.skipped
    assert np.max(np.abs(c.radii - 1.0)) <= 0.02


# ---------------------------------------------------------------------------
# contour branches: origin outside the contour, skipped rays, the atom
# tweak, and radii against a per-ray Brent solve
# ---------------------------------------------------------------------------

def test_contour_skips_rays_when_origin_lies_outside():
    # the cloud sits to the right of the origin, so |R(0)| > beta; a ray
    # whose first unit step lands inside the contour closes its bracket by
    # doubling, and every other ray is skipped.  This pins today's
    # behaviour: such a ray may still cross the contour further out, and
    # looking for that crossing is open on ROADMAP.md ("Contours with the
    # origin outside")
    rng = np.random.default_rng(41)
    atoms = 0.4 * rng.standard_normal((300, 2)) + [1.2, 0.0]
    ev = gr.RankEvaluator(gr.Empirical(atoms))
    beta, n_rays = 0.5, 16
    assert np.linalg.norm(ev.rank(np.zeros(2))) > beta
    c = gr.contour(ev, beta, n_rays=n_rays, tol=1e-10)
    th = 2.0 * np.pi * np.arange(n_rays) / n_rays
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    step = np.linalg.norm(ev.rank_many(dirs), axis=1)
    assert np.min(np.abs(step - beta)) > 1e-3          # no ray on the edge
    assert c.skipped == np.nonzero(step >= beta)[0].tolist()
    assert 0 < len(c.radii) < n_rays
    np.testing.assert_array_equal(c.directions, dirs[step < beta])
    assert np.all(c.radii > 1.0)
    assert np.max(np.abs(c.achieved - beta)) <= 1e-10


def test_contour_rays_past_the_cap_are_skipped(monkeypatch):
    # doubling stops at the cap: with a cap of 2 a ray is skipped exactly
    # when |R(2u)| is still below beta
    monkeypatch.setattr(gr.depth, "_RAY_CAP", 2.0)
    rng = np.random.default_rng(42)
    atoms = rng.standard_normal((400, 2)) * [2.5, 0.4]
    ev = gr.RankEvaluator(gr.Empirical(atoms - np.median(atoms, axis=0)))
    beta, n_rays = 0.64, 24
    c = gr.contour(ev, beta, n_rays=n_rays, tol=1e-10)
    th = 2.0 * np.pi * np.arange(n_rays) / n_rays
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    at_cap = np.linalg.norm(ev.rank_many(2.0 * dirs), axis=1)
    assert np.min(np.abs(at_cap - beta)) > 1e-3
    assert c.skipped == np.nonzero(at_cap < beta)[0].tolist()
    assert 0 < len(c.skipped) < n_rays
    assert len(c.radii) == n_rays - len(c.skipped)
    assert np.all(c.radii <= 2.0)
    assert np.max(np.abs(c.achieved - beta)) <= 1e-10


def test_contour_tweaks_rays_through_an_atom():
    # ray 0 is (1, 0) and ray 3 of 12 is (cos pi/2, 1): each passes through
    # an atom, so it turns by 1e-6 towards the next axis; ray 6 points away
    # from the atom on ray 0 and keeps its direction
    rng = np.random.default_rng(43)
    ev = gr.RankEvaluator(gr.Empirical(np.vstack(
        [rng.standard_normal((60, 2)), [[0.7, 0.0], [0.0, 0.2]]])))
    n_rays = 12
    c = gr.contour(ev, 0.4, n_rays=n_rays, tol=1e-10)
    assert not c.skipped
    th = 2.0 * np.pi * np.arange(n_rays) / n_rays
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    want = dirs.copy()
    for i, axis in ((0, 1), (3, 0)):
        v = dirs[i].copy()
        v[axis] += 1e-6
        want[i] = v / np.linalg.norm(v)
    np.testing.assert_array_equal(c.directions, want)
    assert not np.array_equal(want[0], dirs[0])
    for u, r in zip(c.directions, c.radii):
        assert abs(np.linalg.norm(ev.rank(r * u)) - 0.4) <= 1e-10


def _brent_radii(ev, dirs, beta, xtol):
    """Per-ray bracket doubling and Brent's method on |R(t u)| - beta."""
    from scipy.optimize import brentq
    out = []
    for u in dirs:
        fun = lambda t: np.linalg.norm(ev.rank(t * u)) - beta
        lo, hi = 0.0, 1.0
        while fun(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
        out.append(brentq(fun, lo, hi, xtol=xtol))
    return np.array(out)


@pytest.mark.parametrize("d,n_rays,beta", [(2, 48, 0.5), (3, 32, 0.4)])
def test_contour_radii_match_per_ray_brent(d, n_rays, beta):
    rng = np.random.default_rng(44 + d)
    atoms = rng.standard_normal((2000, d)) * [1.0, 0.6, 1.4][:d]
    atoms[:700] += 1.2
    ev = gr.RankEvaluator(gr.Empirical(atoms - np.median(atoms, axis=0)))
    c = gr.contour(ev, beta, n_rays=n_rays, tol=1e-10)
    assert not c.skipped and len(c.radii) == n_rays
    want = _brent_radii(ev, c.directions, beta, 1e-12)
    assert np.max(np.abs(c.radii - want)) <= 1e-12


# ---------------------------------------------------------------------------
# the lockstep Chandrupatla loop against scipy's find_root, the loop it
# was ported from
# ---------------------------------------------------------------------------

def _find_root_solver(fun, x1, x2, xatol, xrtol, maxiter=None):
    """`depth._chandrupatla` through scipy.optimize.elementwise.find_root."""
    from scipy.optimize.elementwise import find_root
    res = find_root(fun, (x1, x2), args=(np.arange(len(x1)),),
                    tolerances={"xatol": xatol, "xrtol": xrtol},
                    maxiter=maxiter)
    return res.x, res.success


def _same_contour(ev, beta, n_rays, monkeypatch):
    """The contour from the in-house loop equals the one from find_root on
    the same brackets, bit for bit."""
    c = gr.contour(ev, beta, n_rays=n_rays, tol=1e-10)
    with monkeypatch.context() as m:
        m.setattr(gr.depth, "_chandrupatla", _find_root_solver)
        want = gr.contour(ev, beta, n_rays=n_rays, tol=1e-10)
    assert np.array_equal(c.directions, want.directions)
    assert np.array_equal(c.radii, want.radii)
    assert np.array_equal(c.achieved, want.achieved)
    assert c.skipped == want.skipped
    return c


@pytest.mark.parametrize("d, n_rays", [(2, 48), (3, 32)])
@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_contour_equals_find_root(d, n_rays, beta, monkeypatch):
    rng = np.random.default_rng(50 + d)
    atoms = rng.standard_normal((400, d)) * [1.0, 0.6, 1.4][:d]
    ev = gr.RankEvaluator(gr.Empirical(atoms - np.median(atoms, axis=0)))
    c = _same_contour(ev, beta, n_rays, monkeypatch)
    assert not c.skipped


def test_contour_with_skipped_rays_equals_find_root(monkeypatch):
    # the cloud of test_contour_skips_rays_when_origin_lies_outside
    rng = np.random.default_rng(41)
    atoms = 0.4 * rng.standard_normal((300, 2)) + [1.2, 0.0]
    c = _same_contour(gr.RankEvaluator(gr.Empirical(atoms)), 0.5, 16,
                      monkeypatch)
    assert 0 < len(c.skipped) < 16


def test_contour_past_the_cap_equals_find_root(monkeypatch):
    # the cloud and cap of test_contour_rays_past_the_cap_are_skipped
    monkeypatch.setattr(gr.depth, "_RAY_CAP", 2.0)
    rng = np.random.default_rng(42)
    atoms = rng.standard_normal((400, 2)) * [2.5, 0.4]
    ev = gr.RankEvaluator(gr.Empirical(atoms - np.median(atoms, axis=0)))
    c = _same_contour(ev, 0.64, 24, monkeypatch)
    assert 0 < len(c.skipped) < 24


@pytest.mark.parametrize("maxiter", [None, 3])
def test_chandrupatla_equals_find_root(maxiter, monkeypatch):
    # brackets with a root inside, no sign change, a root at an end, wide
    # and tight tolerances, and a capped iteration count
    rng = np.random.default_rng(51)
    c = rng.uniform(-3.0, 3.0, 300)
    fun = lambda x, k: x ** 3 - 2.0 * x - c[k]
    lo, hi = rng.uniform(-5.0, 0.0, 300), rng.uniform(0.0, 5.0, 300)
    lo[:30], hi[:30] = 3.0, 4.0
    lo[30], c[30] = 0.0, 0.0
    if maxiter is not None:
        monkeypatch.setattr(gr.depth, "_MAXITER", maxiter)
    for xatol in (1e-12, 1e-3):
        x, ok = gr.depth._chandrupatla(fun, lo, hi, xatol, 1e-15)
        want_x, want_ok = _find_root_solver(fun, lo, hi, xatol, 1e-15,
                                            maxiter)
        assert np.array_equal(x, want_x, equal_nan=True)
        assert np.array_equal(ok, want_ok)
        assert ok.any() and not ok.all()


@pytest.mark.parametrize("n_rays", [0, -3])
def test_contour_needs_a_ray(n_rays):
    for ev in (gr.RankEvaluator(gr.Empirical(np.eye(2))),
               gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))):
        for beta in (0.0, 0.5):
            with pytest.raises(ValueError, match="n_rays"):
                gr.contour(ev, beta, n_rays=n_rays)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_contour_needs_a_positive_finite_tol(tol):
    # tol nan was reported as "evaluation points must be finite"
    for ev in (gr.RankEvaluator(gr.Empirical(np.eye(2))),
               gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))):
        with pytest.raises(ValueError, match="tol"):
            gr.contour(ev, 0.5, tol=tol)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -1.0])
def test_content_radius_must_be_finite_and_not_negative(radius):
    # radius nan returned nan
    for ev in (gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3)),
               gr.RankEvaluator(gr.Empirical(np.array([[-1.0], [2.0]])))):
        with pytest.raises(ValueError, match="radius"):
            gr.probability_content_surface(ev, radius)
