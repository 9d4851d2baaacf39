"""Reconstruction pipelines: local (odd d), singular integral, Hankel chain,
harmonic extension, and the weak-form identity on test functions."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

import georank as gr
from georank import _quadrature, _write, reconstruct
from georank._quadrature import sphere_rule
from georank.errors import (ConfigError, DecayError,
                            DimensionMismatchError, ParityError,
                            ToleranceError)
from georank.measures import _read_table, _row_dots

CFG = gr.ReconstructionConfig


# ---------------------------------------------------------------------------
# odd-local
# ---------------------------------------------------------------------------

def test_odd_local_radial_values():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    rep = gr.reconstruct_odd_local(ev, CFG(radii=np.array([1.0])))
    want = np.exp(-0.5) / (2 * np.pi) / np.sqrt(2 * np.pi)   # phi(1)/(2 pi)
    assert rep.f_hat[0] == pytest.approx(want, rel=1e-12)
    assert rep.f_hat[0] == pytest.approx(0.0385108, abs=1e-6)

    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 3))
    rep = gr.reconstruct_odd_local(ev, CFG(radii=np.array([0.0, 1.0])))
    assert rep.f_hat[0] == pytest.approx(1.0 / np.pi ** 2, rel=1e-10)
    assert rep.f_hat[1] == pytest.approx(1.0 / (4 * np.pi ** 2), rel=1e-10)


@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_odd_local_radial_sup_error(fam):
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 3))
    rep = gr.reconstruct_odd_local(ev, CFG(radii=np.linspace(0.05, 5, 200)))
    assert rep.diagnostics["sup_rel_error"] <= 1e-10
    assert rep.diagnostics["negativity_mass"] <= 1e-3


def test_odd_local_parity_error():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    with pytest.raises(ParityError):
        gr.reconstruct_odd_local(ev, CFG())


def test_odd_local_grid_converges_second_order():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    rep = gr.reconstruct_odd_local(ev, CFG(grid_box=(-3.0, 3.0),
                                           grid_nodes=41, coarse_check=True,
                                           force_grid=True))
    # two-resolution estimate against the closed form
    assert 1.5 <= rep.diagnostics["observed_order"] <= 2.5
    assert rep.grid is not None
    assert rep.diagnostics["negativity_mass"] <= 1e-2


def test_odd_local_grid_refuses_empirical():
    # an atom cloud has no density: its pointwise grid values never settle
    rng = np.random.default_rng(6)
    ev = gr.RankEvaluator(gr.Empirical(rng.standard_normal((200, 3))))
    with pytest.raises(ConfigError, match="poisson_smooth"):
        gr.reconstruct_odd_local(ev, CFG(grid_box=(-1.0, 1.0),
                                         grid_nodes=15, coarse_check=False))


def test_odd_local_grid_reports_refinement_delta():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    box = (-3.0, 3.0)
    rep = gr.reconstruct_odd_local(ev, CFG(grid_box=box, grid_nodes=41,
                                           force_grid=True))
    coarse = gr.reconstruct_odd_local(ev, CFG(grid_box=box, grid_nodes=21,
                                              force_grid=True,
                                              coarse_check=False))
    # the 21-node grid's nodes are the 41-node grid's even nodes, bit for bit
    fine_nodes = gr.sample_grid(ev, box, 41).nodes().reshape(41, 41, 41, 3)
    assert np.array_equal(gr.sample_grid(ev, box, 21).nodes(),
                          fine_nodes[::2, ::2, ::2].reshape(-1, 3))
    # both answers lose two nodes per side to the stencils
    shared = rep.grid.values[2:35:2, 2:35:2, 2:35:2]
    delta = float(np.max(np.abs(coarse.grid.values - shared)))
    assert rep.diagnostics["refinement_delta"] == delta
    assert 0.0 < delta <= 0.05 * ev.profile.f(0.0)
    assert "observed_order" in rep.diagnostics
    assert "coarse_spacing" not in rep.diagnostics


def _normal(d):
    return gr.GenericDensity(
        d, lambda x: (np.exp(-0.5 * (x * x).sum(axis=1))
                   / (2 * np.pi) ** (d / 2)),
        lambda n, rng: rng.standard_normal((n, d)))


def test_monte_carlo_fields_are_refused_pointwise():
    # a GenericDensity's field is the rank of its sampled atoms, which has
    # no density: with mc_n = 2000, singular gave 0.023 at the origin in
    # d = 2 (truth 0.159) and a 13-node grid 0.033 in d = 3 (truth 0.0635)
    ev2 = gr.RankEvaluator(_normal(2), mc_n=2000)
    with pytest.raises(ConfigError, match="rank field of atoms .*Monte-Carlo"
                       " sample of a GenericDensity.*extension method"):
        gr.reconstruct_even_singular(ev2, CFG(method="singular",
                                              points=np.zeros((1, 2)),
                                              tolerance=1.0))
    ev3 = gr.RankEvaluator(_normal(3), mc_n=2000)
    with pytest.raises(ConfigError, match="rank field of atoms .*"
                       "verify_identity_on_test_function"):
        gr.reconstruct_odd_local(ev3, CFG(grid_box=(-3.0, 3.0),
                                          grid_nodes=13))
    # refused before any atom is drawn
    assert ev2._atoms is None and ev3._atoms is None


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("method, measure", [
    ("singular", gr.RadialClosedForm("gaussian", 2)),
    ("extension", gr.RadialClosedForm("gaussian", 2)),
    ("extension", gr.Empirical(np.random.default_rng(13).standard_normal(
        (20, 2))))], ids=["singular", "extension", "extension-atoms"])
def test_points_routes_refuse_points_of_another_dimension(method, measure,
                                                          cols):
    ev = gr.RankEvaluator(measure)
    with pytest.raises(DimensionMismatchError, match=f"{cols} columns.*d = 2"):
        gr.reconstruct_density(ev, CFG(method=method,
                                       points=np.ones((2, cols))))


@pytest.mark.parametrize("method, d", [("hankel", 2), ("odd-local", 3)])
def test_curve_routes_refuse_points(method, d):
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", d))
    with pytest.raises(ConfigError, match="--radii"):
        gr.reconstruct_density(ev, CFG(method=method,
                                       points=np.ones((2, d))))


# ---------------------------------------------------------------------------
# singular integral
# ---------------------------------------------------------------------------

def test_half_laplacian_cauchy_profile_at_origin():
    u = lambda pts: 1.0 / np.sqrt(1.0 + (pts ** 2).sum(axis=1))
    got = gr.half_laplacian_singular(u, 2, np.zeros(2), CFG(), tail_coef=1.0)
    assert got == pytest.approx(1.0, abs=2e-3)


def test_half_laplacian_gaussian_profile_at_origin():
    prof = gr.radial_profile(gr.RadialClosedForm("gaussian", 2))
    u = lambda pts: prof.h(np.linalg.norm(pts, axis=1))
    got = gr.half_laplacian_singular(u, 2, np.zeros(2), CFG(), tail_coef=1.0)
    assert got == pytest.approx(1.0, abs=2e-3)


def test_half_laplacian_constant_vanishes():
    u = lambda pts: np.full(pts.shape[0], 0.7)
    got = gr.half_laplacian_singular(u, 2, np.array([0.3, -0.1]), CFG(),
                                     tail_coef=0.7, tail_power=0)
    assert abs(got) <= 1e-12


@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_even_singular_pipeline(fam):
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
    rep = gr.reconstruct_even_singular(ev, CFG(method="singular",
                                               radii=np.linspace(0, 2, 20)))
    assert rep.diagnostics["sup_rel_error"] <= 1e-3
    assert rep.diagnostics["refinement_delta"] <= 1e-3
    assert rep.diagnostics["negativity_mass"] <= 1e-3


def test_even_singular_parity_error():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    with pytest.raises(ParityError):
        gr.reconstruct_even_singular(ev, CFG(method="singular"))


def test_even_singular_refuses_empirical():
    rng = np.random.default_rng(8)
    ev = gr.RankEvaluator(gr.Empirical(rng.standard_normal((30, 2))))
    with pytest.raises(ConfigError, match="extension method"):
        gr.reconstruct_even_singular(
            ev, CFG(method="singular", points=np.array([[0.2, 0.1]])))


def test_singular_at_points_of_a_closed_form():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    radii = np.array([0.0, 0.7, 1.3])
    curve = gr.reconstruct_even_singular(ev, CFG(method="singular",
                                                 radii=radii))
    on_axis = np.column_stack([radii, np.zeros(3)])
    rep = gr.reconstruct_even_singular(ev, CFG(method="singular",
                                               points=on_axis))
    assert rep.kind == "points" and rep.radii is None
    assert np.array_equal(rep.points, on_axis)
    # the curve's points are these very points
    assert np.array_equal(rep.f_hat, curve.f_hat)
    assert np.array_equal(rep.f_reference, curve.f_reference)
    assert (rep.diagnostics["refinement_delta"]
            == curve.diagnostics["refinement_delta"])
    # off the axis, against f(|x|)
    th = np.array([0.3, 2.0, 4.0])
    pts = radii[:, None] * np.column_stack([np.cos(th), np.sin(th)])
    rep = gr.reconstruct_even_singular(ev, CFG(method="singular",
                                               points=pts))
    np.testing.assert_array_equal(
        rep.f_reference, ev.profile.f(np.linalg.norm(pts, axis=1)))
    assert rep.diagnostics["sup_rel_error"] <= 1e-3
    names = rep.csv_text().splitlines()[0].split(",")
    assert names == ["x1", "x2", "f_hat", "f_reference", "abs_error"]


def _half_laplacian_per_point(u, x, cfg, tail_coef):
    """The d = 2 singular integral at one point, one u call per point and
    per radial segment: the arithmetic the batched pass must reproduce."""
    omega, w_ang = gr.reconstruct.circle_rule(cfg.n_theta)
    ux = float(u(x[None, :])[0])

    def ring_sums(r_nodes):
        pts = x[None, None, :] + r_nodes[:, None, None] * omega[None, :, :]
        uz = u(pts.reshape(-1, 2)).reshape(len(r_nodes), -1)
        return (ux - uz) @ w_ang

    rn, rw = gr.reconstruct.gl_nodes(cfg.eta, 1.0, 48)
    total = float(np.sum(rw * ring_sums(rn) / rn ** 2))
    edges = gr.reconstruct.geometric_edges(1.0, cfg.r_max)
    for a, b in zip(edges[:-1], edges[1:]):
        rn, rw = gr.reconstruct.gl_nodes(a, b, 24)
        total += float(np.sum(rw * ring_sums(rn) / rn ** 2))
    R = cfg.r_max
    total += 2.0 * np.pi * (ux / R - tail_coef / (2 * R ** 2))
    total += -2.0 * np.pi * tail_coef * float(np.dot(x, x)) / (16.0 * R ** 4)
    return gr.c_ds(2, 0.5) * total


@pytest.mark.parametrize("block", [_quadrature._EVAL_BLOCK, 40 * 64, 4 * 64])
@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_singular_batch_equals_per_point_reference(fam, block, monkeypatch):
    # calls of 512 rings (the default), of 40, which split points and radial
    # segments, and of 4; whole groups of four rows, as in the per-segment
    # calls of 48 and 24 rings, keep the row grouping of BLAS matrix-vector
    # products and with it every bit
    monkeypatch.setattr(_quadrature, "_EVAL_BLOCK", block)
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
    radii = np.array([0.0, 0.3, 1.0, 1.75])
    pts = np.column_stack([radii, np.zeros(4)])
    ufunc, tail = reconstruct._scalar_u_and_tail(ev, CFG(method="singular"))
    for check in (False, True):
        cfg = CFG(method="singular", radii=radii, check_refinement=check)
        rep = gr.reconstruct_even_singular(ev, cfg)
        want = [_half_laplacian_per_point(ufunc, p, cfg, tail) for p in pts]
        assert np.array_equal(rep.f_hat, want)
    fine = CFG(method="singular", eta=5e-4, r_max=100.0)
    want_fine = [_half_laplacian_per_point(ufunc, p, fine, tail) for p in pts]
    assert rep.diagnostics["refinement_delta"] == np.max(
        np.abs(np.subtract(want_fine, want)))
    rng = np.random.default_rng(11)
    cloud = np.vstack([np.zeros((1, 2)), rng.standard_normal((6, 2))])
    got = gr.half_laplacian_singular(ufunc, 2, cloud, fine, tail)
    assert np.array_equal(got, [_half_laplacian_per_point(ufunc, p, fine, tail)
                                for p in cloud])
    one = gr.half_laplacian_singular(ufunc, 2, cloud[3], fine, tail)
    assert isinstance(one, float) and one == got[3]


@pytest.mark.parametrize("block", [_quadrature._EVAL_BLOCK, 5 * 4, 3])
def test_ring_blocks_visit_every_ring_once(block, monkeypatch):
    # all nine rings in one block, blocks of 5 rings, and one ring per block
    # where a ring alone is larger; radii shared by every centre, or one row
    # per centre
    monkeypatch.setattr(_quadrature, "_EVAL_BLOCK", block)
    centres = np.array([[0.0, 0.0], [1.0, -2.0], [0.5, 3.0]])
    omega = _quadrature.circle_rule(4)[0]
    shared = np.array([0.1, 0.5, 1.0])
    for radii in (shared, np.outer([1.0, 2.0, 3.0], shared)):
        seen = np.zeros((3, 3), dtype=int)
        for i, k, z in _quadrature.ring_blocks(centres, radii, omega):
            assert z.shape == (len(i), 4, 2) and z.size <= max(block, 4) * 2
            r = radii[k] if radii.ndim == 1 else radii[i, k]
            np.testing.assert_array_equal(
                z, centres[i, None] + r[:, None, None] * omega)
            seen[i, k] += 1
        assert (seen == 1).all()


def test_singular_ring_larger_than_block(monkeypatch):
    # one ring per call when a ring alone exceeds the block
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    ufunc, tail = reconstruct._scalar_u_and_tail(ev, CFG(method="singular"))
    cloud = np.random.default_rng(12).standard_normal((3, 2))
    cfg = CFG(method="singular")
    want = gr.half_laplacian_singular(ufunc, 2, cloud, cfg, tail)
    sizes = []
    monkeypatch.setattr(_quadrature, "_EVAL_BLOCK", 10)
    got = gr.half_laplacian_singular(
        lambda q: sizes.append(len(q)) or ufunc(q), 2, cloud, cfg, tail)
    assert set(sizes[1:]) == {cfg.n_theta}
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_singular_many_points_in_bounded_memory():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    cfg = CFG(method="singular", radii=np.linspace(0.0, 3.0, 2000),
              check_refinement=False)
    tracemalloc.start()
    try:
        rep = gr.reconstruct_even_singular(ev, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    assert rep.diagnostics["sup_rel_error"] <= 1e-3


# ---------------------------------------------------------------------------
# Hankel
# ---------------------------------------------------------------------------

def _stretched(fam, h_of):
    """An evaluator of the d = 2 family whose profile h is h_of(h)."""
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
    ev._profile = dataclasses.replace(ev.profile, h=h_of(ev.profile.h))
    return ev


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_spectrum_far_field_pair_scales_with_its_limit(c):
    # h(s / c) of the Cauchy family: s h(s / c) -> c, and by Gradshteyn &
    # Ryzhik 6.554.1, int_0^inf s (1+s^2)^{-1/2} J0(rho s) ds = e^{-rho}/rho,
    # its spectrum is c e^{-c rho}; the remainder s h(s / c) - c s /
    # sqrt(1+s^2) that FFTLog sees is not zero
    ev = _stretched("cauchy", lambda h: (lambda s: h(s / c)))
    xi = np.linspace(0.05, 0.5, 10)
    rho = 2.0 * np.pi * xi
    got = gr.divergence_fourier_profile(ev, xi)
    assert np.max(np.abs(got - c * np.exp(-c * rho))) <= 5e-12 * c
    if c > 1.0:            # c < 1 decays too slowly for the outer rule
        rep = gr.reconstruct_isotropic_hankel(ev, CFG(method="hankel"))
        assert rep.diagnostics["far_field_limit"] == pytest.approx(
            c, rel=1e-14)


def test_spectrum_of_a_decaying_profile_has_no_far_field():
    # s h(s) = s / (1 + s^2) -> 0, and int_0^inf s (1+s^2)^{-1} J0(rho s) ds
    # = K0(rho) (Gradshteyn & Ryzhik 6.532.4): admitted, with V = rho K0(rho)
    from scipy.special import k0
    ev = _stretched("cauchy", lambda h: (lambda s: 1.0 / (1.0 + s * s)))
    xi = np.linspace(0.05, 0.5, 10)
    rho = 2.0 * np.pi * xi
    got = gr.divergence_fourier_profile(ev, xi)
    assert np.max(np.abs(got - rho * k0(rho))) <= 5e-12


@pytest.mark.parametrize("h_of", [
    lambda h: (lambda s: np.sqrt(s)),                   # s h(s) = s^1.5
    lambda h: (lambda s: np.log(2.0 + s) / s),          # s h(s) = log(2 + s)
    lambda h: (lambda s: np.where(s > 1e3, np.inf, h(s))),
    lambda h: (lambda s: np.where(s < 1e-6, np.nan, h(s)))],
    ids=["growing", "log-growing", "inf-tail", "nan-head"])
def test_spectrum_decay_error_on_growing_input(h_of):
    # refused from the samples in hand: not finite on the grid, or not
    # settled to a limit over its top nodes
    ev = _stretched("gaussian", h_of)
    with pytest.raises(DecayError, match="s h\\(s\\)"):
        gr.divergence_fourier_profile(ev, 0.25)
    with pytest.raises(DecayError, match="s h\\(s\\)"):
        gr.reconstruct_isotropic_hankel(ev, CFG(method="hankel"))


def test_spectrum_refuses_frequencies_outside_its_window():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    for xi in (0.0, -0.25, 1e-10, 1e8):
        with pytest.raises(ValueError, match="FFTLog window"):
            gr.divergence_fourier_profile(ev, xi)
    # and serves the whole window: next to its ends, 2 pi |xi| = 1.005e-8
    # lies outside the window of the even nodes that the Hankel route's
    # refinement check transforms
    for rho in (1.005e-8, 0.99e8):
        assert np.isfinite(gr.divergence_fourier_profile(ev, rho / (2 * np.pi)))


def test_hankel_spectrum_peaks_within_2mb():
    # one spectrum on the 512 outer nodes and one route call each stay
    # within 2 MB, after a first call has imported scipy.fft
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    t = np.linspace(0.0, 4.0, 513)[1:]
    calls = (lambda: gr.divergence_fourier_profile(ev, t),
             lambda: gr.reconstruct_isotropic_hankel(ev, CFG(method="hankel")))
    for call in calls:
        call()
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000
    assert np.all(np.isfinite(out.f_hat))


def test_gl_segments_equal_gl_nodes_per_segment():
    edges = np.concatenate([[0.0], _quadrature.geometric_edges(0.025, 12.8),
                            np.linspace(12.8, 61.3, 24)[1:]])
    for n in (1, 16, 32):
        got = _quadrature.gl_segments(edges, n)
        want = [np.concatenate(part) for part in zip(*[
            _quadrature.gl_nodes(a, b, n)
            for a, b in zip(edges[:-1], edges[1:])])]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_spectrum_values():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    for xi in (0.05, 0.1, 0.25, 0.5):
        got = gr.divergence_fourier_profile(ev, xi)
        want = np.exp(-2 * np.pi ** 2 * xi ** 2)
        assert got == pytest.approx(want, rel=1e-4)
    assert gr.divergence_fourier_profile(ev, 0.25) == pytest.approx(
        0.29121, abs=1e-5)
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    for xi in (0.05, 0.1, 0.25, 0.5):
        got = gr.divergence_fourier_profile(ev, xi)
        assert got == pytest.approx(np.exp(-2 * np.pi * xi), rel=1e-4)
    assert gr.divergence_fourier_profile(ev, 1.0 / (2 * np.pi)) \
        == pytest.approx(np.exp(-1.0), rel=1e-6)


def test_spectrum_far_field_subtracted():
    # criterion 05's frequencies: on Cauchy, s h(s) is the subtracted far
    # field itself, so V = e^{-rho} to rounding
    xi = np.linspace(0.05, 0.5, 10)
    for fam, want, rel in (("gaussian", np.exp(-2 * np.pi ** 2 * xi ** 2),
                            3e-9),
                           ("cauchy", np.exp(-2 * np.pi * xi), 1e-14)):
        ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
        got = gr.divergence_fourier_profile(ev, xi)
        assert got.shape == xi.shape
        assert np.max(np.abs(got / want - 1.0)) <= rel
        assert gr.divergence_fourier_profile(ev, xi[3]) == got[3]


def test_hankel_route_reads_the_public_spectrum(monkeypatch):
    # one |xi| F(div R): the Hankel chain reads, on its 512 outer nodes, the
    # spectrum that the public function returns
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    want = gr.reconstruct_isotropic_hankel(ev, CFG(method="hankel")).f_hat
    seen = []
    spectrum = reconstruct._spectrum

    def spy(s, g, a, rho):
        out = spectrum(s, g, a, rho)
        seen.append(out)
        return out

    monkeypatch.setattr(reconstruct, "_spectrum", spy)
    got = reconstruct.reconstruct_isotropic_hankel(ev, CFG(method="hankel"))
    t, _ = _quadrature.gl_segments(
        np.linspace(0.0, reconstruct._HANKEL_T,
                    reconstruct._HANKEL_SEGMENTS + 1), reconstruct._HANKEL_GL)
    assert [len(v) for v in seen] == [len(t)] * 2 == [512] * 2
    assert np.array_equal(seen[0], gr.divergence_fourier_profile(ev, t))
    assert np.array_equal(got.f_hat, want)


@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_each_spectrum_caller_transforms_only_what_it_reads(monkeypatch, fam):
    # one FFTLog per divergence_fourier_profile call; two per Hankel route
    # call, the spectrum and its n/2 refinement check
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
    sizes = []
    fftlog = reconstruct._fftlog_j0

    def spy(g, s, rho):
        sizes.append(len(g))
        return fftlog(g, s, rho)

    monkeypatch.setattr(reconstruct, "_fftlog_j0", spy)
    gr.divergence_fourier_profile(ev, 0.3)
    gr.divergence_fourier_profile(ev, np.array([0.1, 1.0]))
    n = reconstruct._SPECTRUM_NODES
    assert sizes == [n, n]
    sizes.clear()
    gr.reconstruct_isotropic_hankel(ev, CFG(method="hankel"))
    assert sizes == [n, n // 2]


@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_hankel_pipeline_matches_closed_form(fam):
    # ten times the errors read, 1.6e-12 and 3.2e-10; the Cauchy one is the
    # outer rule's floor, its spectrum being exact to rounding
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
    rep = gr.reconstruct_isotropic_hankel(
        ev, CFG(method="hankel", radii=np.linspace(0.0, 2.0, 10)))
    assert rep.diagnostics["sup_rel_error"] <= {"gaussian": 2e-11,
                                                "cauchy": 4e-9}[fam]
    assert rep.diagnostics["negativity_mass"] <= 1e-3
    # full-pipeline value at the origin
    assert rep.f_hat[0] == pytest.approx(1.0 / (2 * np.pi), rel=1e-4)


@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_hankel_radii_share_one_outer_rule(fam):
    # r = 0 takes the same path as r > 0; batching the radii changes nothing
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
    radii = np.linspace(0.0, 2.0, 10)
    batch = gr.reconstruct_isotropic_hankel(
        ev, CFG(method="hankel", radii=radii)).f_hat
    single = [gr.reconstruct_isotropic_hankel(
        ev, CFG(method="hankel", radii=np.array([r]))).f_hat[0]
        for r in radii]
    assert np.max(np.abs(batch - single)) <= 1e-14


@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_hankel_spectrum_evaluates_h_once(fam):
    # one spectrum, and one route call, evaluate h once, on at most the
    # 4 096 nodes of the FFTLog grid
    calls = []

    def counted(h):
        def spy(s):
            calls.append(np.size(s))
            return h(s)
        return spy

    ev = _stretched(fam, counted)
    gr.divergence_fourier_profile(ev, np.linspace(0.05, 0.5, 10))
    assert calls == [reconstruct._SPECTRUM_NODES] and calls[0] <= 4096
    calls.clear()
    rep = gr.reconstruct_isotropic_hankel(ev, CFG(method="hankel"))
    assert calls == [reconstruct._SPECTRUM_NODES]
    assert rep.diagnostics["sup_rel_error"] <= 1e-8


@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_hankel_diagnostics_explain_the_report(fam):
    # n, the far-field limit, the outer tail share and the truth-free
    # refinement delta reach the JSON, never the CSV
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
    rep = gr.reconstruct_isotropic_hankel(ev, CFG(method="hankel"))
    diag = rep.diagnostics
    assert diag["spectrum_nodes"] == 4096
    assert diag["far_field_limit"] == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < diag["outer_tail_share"] <= reconstruct._HANKEL_TAIL_SHARE
    # the n/2 grid carries the error of 2 048 nodes, 1e-10 on the Gaussian;
    # on the Cauchy the remainder is zero, so both grids agree to rounding
    delta = diag["refinement_delta"]
    assert (1e-13 <= delta <= 1e-9 if fam == "gaussian" else delta <= 1e-15)
    text = _write.json_text(rep.to_json_dict())
    for key in ("spectrum_nodes", "far_field_limit", "outer_tail_share",
                "refinement_delta"):
        assert f'"{key}"' in text and key not in rep.csv_text()


def test_hankel_many_radii_in_bounded_memory():
    # the radius x node matrix of the outer transform goes in blocks: 20000
    # radii at once would need 82 MB, and each row stays the one that a
    # single radius gives
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    radii = np.linspace(0.0, 3.0, 20000)
    tracemalloc.start()
    try:
        f_hat = gr.reconstruct_isotropic_hankel(
            ev, CFG(method="hankel", radii=radii)).f_hat
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30_000_000
    for i in (0, 63, 64, 9999, 19999):
        single = gr.reconstruct_isotropic_hankel(
            ev, CFG(method="hankel", radii=radii[i:i + 1])).f_hat[0]
        assert abs(f_hat[i] - single) <= 1e-14
    err = np.max(np.abs(f_hat - ev.profile.f(radii)))
    assert err <= 1e-8 * ev.profile.f(0.0)


def test_hankel_tail_guard_on_slow_spectrum(monkeypatch):
    # h(s / a) has the spectrum a e^{-2 pi a t} of the Cauchy profile
    # stretched by 1/a: admissible, but far from negligible at the end of
    # the outer rule
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    h = ev.profile.h
    monkeypatch.setattr(ev, "_profile", dataclasses.replace(
        ev.profile, h=lambda s: h(s / 0.2)))
    with pytest.raises(DecayError, match="last segment"):
        gr.reconstruct_isotropic_hankel(ev, CFG(method="hankel"))


def test_hankel_agrees_with_singular_pipeline():
    radii = np.linspace(0.1, 2.0, 10)
    for fam in ("gaussian", "cauchy"):
        ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
        hank = gr.reconstruct_isotropic_hankel(
            ev, CFG(method="hankel", radii=radii))
        sing = gr.reconstruct_even_singular(
            ev, CFG(method="singular", radii=radii, check_refinement=False))
        rel = np.abs(hank.f_hat - sing.f_hat) / np.abs(sing.f_hat)
        assert np.max(rel) <= 1e-3


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def test_poisson_kernel_normalization_constant():
    # smoothing the constant "density" 1 returns 1 at any height
    m = gr.GenericDensity(2, lambda q: np.ones(q.shape[0]),
                          lambda n, rng: rng.standard_normal((n, 2)))
    # the outer truncation of the quadrature leaves a tail ~ t / r_out
    got = gr.poisson_smooth(m, np.zeros((1, 2)), 0.01)[0]
    assert got == pytest.approx(1.0, abs=1e-3)


def test_poisson_smooth_matches_quad_oracle():
    # 2-D quadrature oracle for the Gaussian density at the origin
    m = gr.RadialClosedForm("gaussian", 2)
    t = 0.01
    want, _ = quad(lambda r: (1 / (2 * np.pi)) * t * r
                   * np.exp(-r * r / 2) / (r * r + t * t) ** 1.5,
                   0.0, 40.0, limit=400)
    got = gr.poisson_smooth(m, np.zeros((1, 2)), t)[0]
    assert got == pytest.approx(want, rel=1e-6)
    assert abs(got - 1.0 / (2 * np.pi)) <= 2e-3


def _poisson_per_point(dens, x, t):
    """The Poisson quadrature of a density at one point, one polar rule
    and one call of the density."""
    d = x.shape[0]
    omega, w_ang = (gr.reconstruct.circle_rule(64) if d == 2
                    else sphere_rule(d, 24, 48))
    r_out = float(np.linalg.norm(x)) + 60.0
    knee = min(64.0 * t, r_out)
    edges = [0.0] + list(gr.reconstruct.geometric_edges(t / 8.0, knee))
    if knee < r_out:
        edges += list(np.linspace(knee, r_out, 24)[1:])
    rn, rw = gr.reconstruct.gl_segments(np.array(edges), 16)
    q = x[None, None, :] + rn[:, None, None] * omega[None, :, :]
    fz = dens(q.reshape(-1, d)).reshape(len(rn), -1) @ w_ang
    kern = t / (rn * rn + t * t) ** ((d + 1) / 2.0)
    return reconstruct._poisson_constant(d) * np.sum(
        rw * kern * fz * rn ** (d - 1))


@pytest.mark.parametrize("block", [_quadrature._EVAL_BLOCK, 4 * 64])
def test_poisson_smooth_rings_in_blocks_equal_per_point_rules(block,
                                                              monkeypatch):
    # blocks of 512 and of 4 rings keep whole groups of four rows in the
    # BLAS matrix-vector products, so each point's sum keeps every bit; at
    # t = 1 the radial rules of the points differ in length
    monkeypatch.setattr(_quadrature, "_EVAL_BLOCK", block)
    pts = np.vstack([np.zeros((1, 2)),
                     np.random.default_rng(13).standard_normal((5, 2)) * 3])
    normal = gr.GenericDensity(
        2, lambda q: np.exp(-0.5 * np.sum(q * q, axis=1)) / (2.0 * np.pi),
        lambda n, rng: rng.standard_normal((n, 2)))
    cauchy = gr.RadialClosedForm("cauchy", 2)
    for m, dens in ((normal, normal.density),
                    (cauchy, lambda q: gr.density(cauchy, q))):
        for t in (0.01, 1.0):
            want = [_poisson_per_point(dens, x, t) for x in pts]
            assert np.array_equal(gr.poisson_smooth(m, pts, t), want)


def test_extension_error_scaling_and_richardson():
    m = gr.RadialClosedForm("gaussian", 2)
    rep = gr.reconstruct_extension(m, CFG(method="extension",
                                          extension_height=0.02,
                                          radii=np.zeros(1)))
    e_t = rep.diagnostics["error_at_height"][0]
    e_t2 = rep.diagnostics["error_at_half_height"][0]
    assert e_t <= 5e-3 and e_t2 <= 5e-3
    assert 1.7 <= e_t / e_t2 <= 2.3
    assert rep.diagnostics["richardson_error"][0] <= 5e-4


def test_extension_empirical_is_kernel_density_estimate():
    f0 = 1.0 / (2 * np.pi)
    vals = []
    for seed in (1, 2, 3):
        z = gr.sample(gr.RadialClosedForm("gaussian", 2), 100_000, seed=seed)
        m = gr.Empirical(z)
        vals.append(gr.poisson_smooth(m, np.zeros((1, 2)), 0.05)[0])
    assert all(abs(v - f0) <= 0.02 for v in vals)
    assert np.std(vals) <= 0.01


def test_extension_parity_error():
    m = gr.RadialClosedForm("gaussian", 3)
    with pytest.raises(ParityError):
        gr.reconstruct_extension(m, CFG(method="extension"))


def test_extension_off_center_points():
    m = gr.RadialClosedForm("cauchy", 2)
    prof = gr.radial_profile(m)
    pts = np.array([[1.0, 0.0], [0.0, 1.5]])
    got = gr.poisson_smooth(m, pts, 0.01)
    want = prof.f(np.linalg.norm(pts, axis=1))
    assert np.max(np.abs(got - want)) <= 5e-3


# ---------------------------------------------------------------------------
# weak-form identity on test functions
# ---------------------------------------------------------------------------

def test_identity_d1_dirac():
    ev = gr.RankEvaluator(gr.Empirical(np.array([[0.0]])))
    psi = gr.PolynomialBump([0.0], 1.0, m=8)
    assert psi.value(np.zeros((1, 1)))[0] == 1.0
    assert gr.verify_identity_on_test_function(psi, ev) <= 1e-8


def test_identity_d3_dirac_inside_support():
    ev = gr.RankEvaluator(gr.Empirical(np.array([[0.2, 0.0, 0.1]])))
    psi = gr.PolynomialBump([0.0, 0.0, 0.0], 1.0, m=8)
    assert gr.verify_identity_on_test_function(psi, ev) <= 1e-6


def test_identity_d3_two_atoms():
    atoms = np.array([[0.3, 0.0, 0.0], [-0.2, 0.1, 0.0]])
    ev = gr.RankEvaluator(gr.Empirical(atoms, np.array([0.6, 0.4])))
    psi = gr.PolynomialBump([0.0, 0.0, 0.0], 1.0, m=8)
    assert gr.verify_identity_on_test_function(psi, ev) <= 1e-6


def test_identity_locality_away_from_atoms():
    psi1 = gr.PolynomialBump([0.0], 1.0, m=8)
    ev1 = gr.RankEvaluator(gr.Empirical(np.array([[3.0]])))
    assert gr.verify_identity_on_test_function(psi1, ev1) <= 1e-8
    psi3 = gr.PolynomialBump([5.0, 5.0, 5.0], 1.0, m=8)
    ev3 = gr.RankEvaluator(gr.Empirical(np.array([[0.2, 0.0, 0.1]])))
    assert gr.verify_identity_on_test_function(psi3, ev3) <= 1e-8
    # both sides vanish individually: psi is zero at the atom
    assert psi3.value(np.array([[0.2, 0.0, 0.1]]))[0] == 0.0


def test_identity_parity_error():
    ev = gr.RankEvaluator(gr.Empirical(np.array([[0.0, 0.0]])))
    psi = gr.PolynomialBump([0.0, 0.0], 1.0, m=8)
    with pytest.raises(ParityError):
        gr.verify_identity_on_test_function(psi, ev)


def test_bump_derivatives_match_finite_differences():
    psi = gr.PolynomialBump([0.1, -0.2, 0.0], 1.3, m=8)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.6, 0.6, size=(12, 3))
    for x in pts:
        g = psi.gradient(x[None, :])[0]
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (psi.value((x + e)[None, :])[0]
                  - psi.value((x - e)[None, :])[0]) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-7)
        h = 1e-4                       # second differences need a wider step
        lap_fd = 0.0
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            lap_fd += (psi.value((x + e)[None, :])[0]
                       - 2 * psi.value(x[None, :])[0]
                       + psi.value((x - e)[None, :])[0]) / h ** 2
        assert psi.laplacian(x[None, :])[0] == pytest.approx(lap_fd, abs=1e-5)
        gl = psi.grad_laplacian(x[None, :])[0]
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (psi.laplacian((x + e)[None, :])[0]
                  - psi.laplacian((x - e)[None, :])[0]) / (2 * h)
            assert gl[j] == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_serialization_roundtrip(tmp_path):
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 3))
    rep = gr.reconstruct_odd_local(ev, CFG(radii=np.linspace(0.1, 2, 8)))
    csv_path = tmp_path / "curve.csv"
    rep.save_curve_csv(csv_path)
    names, back = _read_table(csv_path)
    assert names == ["r", "f_hat", "f_reference", "abs_error"]
    assert np.array_equal(back[:, 0], rep.radii)
    assert np.array_equal(back[:, 1], rep.f_hat)
    assert np.array_equal(back[:, 2], rep.f_reference)
    json_path = tmp_path / "report.json"
    rep.save_json(json_path)
    import json
    with open(json_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["method"] == "odd-local"
    assert "sup_rel_error" in meta["diagnostics"]


_ERRORS = ["sup_rel_error", "l2_rel_error"]
_HEIGHTS = ["height", "f_at_height", "f_at_half_height"]
_HEIGHT_ERRORS = ["error_at_height", "error_at_half_height",
                  "richardson_error"]
_CURVE = "r,f_hat"
_REF = ",f_reference,abs_error"
_CLOUD = np.random.default_rng(25).standard_normal((40, 2))


@pytest.mark.parametrize("route, measure, cfg, kind, header, keys", [
    ("odd-local", ("gaussian", 3), dict(radii=np.linspace(0.1, 2.0, 5)),
     "radial_curve", _CURVE + _REF, _ERRORS + ["negativity_mass"]),
    ("odd-local", ("gaussian", 3), dict(force_grid=True, grid_nodes=15),
     "grid", "x1,x2,x3,f_hat",
     _ERRORS + ["negativity_mass", "observed_order", "refinement_delta"]),
    ("singular", ("cauchy", 2), dict(radii=np.array([0.0, 0.7, 1.5])),
     "radial_curve", _CURVE + _REF,
     ["refinement_delta"] + _ERRORS + ["negativity_mass"]),
    ("singular", ("gaussian", 2), dict(points=np.array([[0.3, -0.4],
                                                        [1.0, 0.5]])),
     "points", "x1,x2,f_hat" + _REF, ["refinement_delta"] + _ERRORS),
    ("hankel", ("gaussian", 2), dict(radii=np.array([0.2, 1.0, 2.0])),
     "radial_curve", _CURVE + _REF,
     ["spectrum_nodes", "far_field_limit", "outer_tail_share",
      "refinement_delta"] + _ERRORS + ["negativity_mass"]),
    ("extension", ("gaussian", 2), dict(radii=np.array([0.0, 0.5])),
     "radial_curve", _CURVE + _REF, _HEIGHTS + _HEIGHT_ERRORS),
    ("extension", ("cauchy", 2), dict(points=np.array([[0.3, -0.4]])),
     "points", "x1,x2,f_hat" + _REF, _HEIGHTS + _HEIGHT_ERRORS),
    ("extension", None, {}, "radial_curve", _CURVE, _HEIGHTS),
    ("extension", None, dict(points=np.array([[0.3, -0.4], [1.0, 0.5]])),
     "points", "x1,x2,f_hat", _HEIGHTS),
])
def test_every_route_and_target_kind_writes_its_report_through_the_dispatcher(
        route, measure, cfg, kind, header, keys):
    # a family's reports carry f_reference; a cloud's carry none
    ev = gr.RankEvaluator(gr.RadialClosedForm(*measure) if measure
                          else gr.Empirical(_CLOUD))
    cfg = CFG(method=route, **cfg)
    fn = {"odd-local": gr.reconstruct_odd_local,
          "singular": gr.reconstruct_even_singular,
          "hankel": gr.reconstruct_isotropic_hankel,
          "extension": gr.reconstruct_extension}[route]
    direct, routed = fn(ev, cfg), gr.reconstruct_density(ev, cfg)
    assert direct.kind == kind
    assert direct.csv_text().split("\n")[0] == header
    assert list(direct.to_json_dict()["diagnostics"]) == keys
    assert routed.csv_text() == direct.csv_text()
    assert (_write.json_text(routed.to_json_dict())
            == _write.json_text(direct.to_json_dict()))


def test_even_d4_code_path_matches_kernel_identity():
    # single atom at the origin in d = 4: the intermediate scalar field is
    # gamma_4 * (-Delta)(div K) = gamma_4 * (d-1) * lambda_{4,1} / r^3 with
    # lambda_{4,1} = 1, so at |x| = 2 it equals gamma_4 * 3 / 8
    from georank.reconstruct import _scalar_u_and_tail
    ev = gr.RankEvaluator(gr.Empirical(np.zeros((1, 4))))
    ufunc, tail = _scalar_u_and_tail(ev, CFG(method="singular",
                                             fd_step=5e-3))
    x = np.array([[2.0, 0.0, 0.0, 0.0]])
    want = gr.gamma_d(4) * 3.0 / 8.0
    assert ufunc(x)[0] == pytest.approx(want, rel=1e-4)
    assert tail == pytest.approx(gr.gamma_d(4) * 3.0 * gr.lambda_dl(4, 1))


def test_identity_residual_shrinks_under_quadrature_refinement():
    ev = gr.RankEvaluator(gr.Empirical(np.array([[0.25, -0.1, 0.3]])))
    psi = gr.PolynomialBump([0.0, 0.0, 0.0], 1.0, m=8)
    coarse = gr.verify_identity_on_test_function(
        psi, ev, n_radial=12, n_polar=8, n_azimuth=16)
    fine = gr.verify_identity_on_test_function(
        psi, ev, n_radial=48, n_polar=32, n_azimuth=64)
    assert fine < coarse
    assert fine <= 1e-6


def test_identity_on_a_density_in_one_batched_call():
    # one density call over all 98 304 quadrature nodes gives the residual
    # that one call per node gave
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    psi = gr.PolynomialBump([0.0, 0.0, 0.0], 1.0)
    t0 = time.perf_counter()
    res = gr.verify_identity_on_test_function(psi, ev)
    assert time.perf_counter() - t0 < 1.0
    assert res == 1.97758476261356e-16


def test_identity_quadrature_budget_error():
    from georank.errors import BudgetError
    ev = gr.RankEvaluator(gr.Empirical(np.array([[0.25, -0.1, 0.3]])))
    psi = gr.PolynomialBump([0.0, 0.0, 0.0], 1.0, m=8)
    with pytest.raises(BudgetError):
        gr.verify_identity_on_test_function(psi, ev, quad_budget=100)


def test_identity_on_a_density_refines_every_knob_in_d3():
    # an off-centre bump: the ball pass's rule is coarse in each knob
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    psi = gr.PolynomialBump([0.3, -0.2, 0.4], 1.0)
    res = lambda *rule: gr.verify_identity_on_test_function(psi, ev, *rule)
    coarse = res(8, 6, 4)
    assert coarse > 1e-7
    for rule in ((16, 6, 4), (8, 12, 4), (8, 6, 8)):
        assert abs(res(*rule) - coarse) > 2e-8
    assert res(16, 12, 8) <= 1e-11
    assert res() <= 1e-15


def test_identity_on_a_monte_carlo_density_honours_n_radial_in_d1():
    # the ball pass integrates the Monte-Carlo cloud's rank against V, and
    # psi against the density, on n_radial radii; S^0 is the two
    # directions +-1, so n_polar and n_azimuth do not apply
    normal = gr.GenericDensity(
        1, lambda x: np.exp(-0.5 * x[:, 0] ** 2) / np.sqrt(2.0 * np.pi),
        lambda n, rng: rng.standard_normal((n, 1)))
    ev = gr.RankEvaluator(normal, mc_n=20_000, seed=3)
    psi = gr.PolynomialBump([0.2], 1.0)
    res = lambda **rule: gr.verify_identity_on_test_function(psi, ev, **rule)
    at = {n: res(n_radial=n) for n in (8, 16, 48)}
    assert len(set(at.values())) == 3
    assert max(at.values()) <= 3e-3          # the Monte-Carlo error
    assert res(n_polar=3, n_azimuth=5) == at[48]
    np.testing.assert_array_equal(sphere_rule(1, 3, 5)[0], [[1.0], [-1.0]])
    np.testing.assert_array_equal(sphere_rule(1, 3, 5)[1], [1.0, 1.0])


def test_identity_on_a_density_within_its_quadrature_budget():
    from georank.errors import BudgetError
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    psi = gr.PolynomialBump([0.0, 0.0, 0.0], 1.0)
    with pytest.raises(BudgetError, match="98304 quadrature points"):
        gr.verify_identity_on_test_function(psi, ev, quad_budget=100)
    # the atom pass adds one ring set per atom inside supp psi
    atoms = gr.RankEvaluator(gr.Empirical(np.array([[0.1, 0.0, 0.0],
                                                    [3.0, 0.0, 0.0]])))
    with pytest.raises(BudgetError, match="196608 quadrature points"):
        gr.verify_identity_on_test_function(psi, atoms,
                                            quad_budget=196_607)
    assert gr.verify_identity_on_test_function(
        psi, atoms, quad_budget=196_608) <= 1e-6


def test_identity_d1_several_atoms_inside_the_support():
    atoms = np.array([[-0.6], [-0.1], [0.25], [0.7], [1.1], [2.5]])
    w = np.array([0.1, 0.2, 0.3, 0.15, 0.1, 0.15])
    ev = gr.RankEvaluator(gr.Empirical(atoms, w))
    psi = gr.PolynomialBump([0.1], 1.0)
    assert gr.verify_identity_on_test_function(psi, ev) <= 1e-8
    # the atom pass honours n_radial
    assert gr.verify_identity_on_test_function(psi, ev, n_radial=8) > 1e-6


@st.composite
def _bump_and_cloud(draw, d):
    """A bump and 1-20 weighted atoms, each at least 0.05 from the bump's
    boundary sphere, inside or outside it."""
    centre = draw(arrays(float, d, elements=st.floats(-1.0, 1.0)))
    radius = draw(st.floats(0.3, 1.5))
    n = draw(st.integers(1, 20))
    u = (draw(arrays(float, (n, d), elements=st.floats(0.1, 1.0)))
         * np.where(draw(arrays(bool, (n, d))), -1.0, 1.0))
    nrm = np.linalg.norm(u, axis=1)
    t = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    inside = draw(arrays(bool, n))
    rho = np.where(inside, t * (radius - 0.05), radius + 0.05 + 1.5 * t)
    w = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    atoms = centre + rho[:, None] * u / nrm[:, None]
    return (gr.PolynomialBump(centre, radius),
            gr.RankEvaluator(gr.Empirical(atoms, w / w.sum())))


def _weak_form_residual_property(case, bound):
    # within the example bound at the default rule; doubling every knob
    # moves the residual up by no more than rounding
    psi, ev = case
    res = gr.verify_identity_on_test_function(psi, ev)
    assert res <= bound
    doubled = gr.verify_identity_on_test_function(
        psi, ev, n_radial=96, n_polar=64, n_azimuth=128,
        quad_budget=20_000_000)
    assert doubled <= res + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_bump_and_cloud(1))
def test_weak_form_residual_on_random_bumps_and_clouds_d1(case):
    _weak_form_residual_property(case, 1e-8)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_bump_and_cloud(3))
def test_weak_form_residual_on_random_bumps_and_clouds_d3(case):
    _weak_form_residual_property(case, 1e-6)


def test_even_singular_tolerance_error_when_unattainable():
    # a tolerance below what (eta, r_max) refinement moves the answer by
    radii = np.array([0.0, 0.7])
    for fam in ("gaussian", "cauchy"):
        ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 2))
        delta = gr.reconstruct_even_singular(
            ev, CFG(method="singular", radii=radii)).diagnostics[
                "refinement_delta"]
        assert delta > 0.0
        cfg = CFG(method="singular", radii=radii, tolerance=0.5 * delta)
        with pytest.raises(ToleranceError):
            gr.reconstruct_even_singular(ev, cfg)


def test_bump_gradients_in_place_equal_the_one_shot_formulas():
    rng = np.random.default_rng(14)
    for d, m in ((1, 8), (3, 8), (3, 4), (3, 5)):
        psi = gr.PolynomialBump(rng.standard_normal(d), 0.9, m=m)
        x = psi.center + rng.uniform(-1.2, 1.2, (500, d))
        x_before = x.copy()
        y = x - psi.center
        a2 = psi.radius ** 2
        s = _row_dots(y, y) / a2
        t = 2.0 * y / a2
        grad = psi._w(s, 1)[:, None] * t
        coef = ((4.0 * s / a2) * psi._w(s, 3)
                + ((4.0 + 2.0 * d) / a2) * psi._w(s, 2))
        assert psi.gradient(x).tobytes() == grad.tobytes()
        assert psi.grad_laplacian(x).tobytes() == (coef[:, None] * t).tobytes()
        assert psi.gradient(x[0]).tobytes() == grad[0].tobytes()
        assert np.array_equal(x, x_before)      # the caller's points stay


def test_identity_on_atoms_peaks_below_its_former_transient():
    # the cloud-solve rule (24, 16, 32) with 8 of 24 atoms in supp psi:
    # 4.53 MB while each gradient took three (N, d) arrays and every ring
    # block its own copy of the far atoms
    few = np.random.default_rng(1).standard_normal((24, 3)) * 0.7
    ev = gr.RankEvaluator(gr.Empirical(few))
    psi = gr.PolynomialBump(few[0], 0.8)
    run = lambda: gr.verify_identity_on_test_function(
        psi, ev, n_radial=24, n_polar=16, n_azimuth=32)
    res = run()
    tracemalloc.start()
    try:
        assert run() == res
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("field, value", [
    ("tolerance", np.nan), ("tolerance", np.inf), ("tolerance", 0.0),
    ("n_theta", 0), ("n_polar", 0),
    ("radii", np.array([0.5, np.nan])), ("radii", np.array([np.inf])),
    ("radii", np.array([])),
    ("points", np.array([[0.5, np.nan]])), ("points", np.zeros((0, 2)))])
def test_config_refuses_values_that_break_a_route(field, value):
    # nan turned the refinement check off, 0 nodes divided by zero, and
    # non-finite or empty radii wrote nan or failed inside np.max
    with pytest.raises(ValueError, match=field):
        CFG(method="singular", **{field: value})


@pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
def test_poisson_smooth_needs_a_positive_finite_height(t):
    for m in (gr.Empirical(np.eye(2)), gr.RadialClosedForm("cauchy", 2)):
        with pytest.raises(ValueError, match="t must be positive"):
            gr.poisson_smooth(m, np.zeros((1, 2)), t)
