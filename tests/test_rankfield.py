"""Rank evaluation, the Jacobian as the one source of first derivatives,
grid sampling, and the finite-difference stencils."""

import tracemalloc

import numpy as np
import pytest

import georank as gr
from georank import rankfield
from georank.errors import (BudgetError, DomainError, SingularityError,
                            StencilOverflowError, UnsupportedVariantError)
from georank.rankfield import _grid_nodes, _neg_laplacian
from georank.measures import _row_norms


def _ev_empirical(atoms, weights=None):
    return gr.RankEvaluator(gr.Empirical(np.asarray(atoms, dtype=float),
                                         weights))


# ---------------------------------------------------------------------------
# rank values
# ---------------------------------------------------------------------------

def test_rank_symmetric_pair_vanishes_at_center():
    ev = _ev_empirical([[-1.0], [1.0]])
    assert np.linalg.norm(ev.rank(np.array([0.0]))) == 0.0


def test_rank_four_atom_cross():
    # brute-force sum of the four unit vectors
    atoms = np.array([[1., 0.], [-1., 0.], [0., 1.], [0., -1.]])
    x = np.array([2.0, 0.0])
    units = (x[None, :] - atoms)
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    want = units.mean(axis=0)
    ev = _ev_empirical(atoms)
    assert np.allclose(ev.rank(x), want, atol=1e-15)
    assert want[0] == pytest.approx(0.5 + 1 / np.sqrt(5), rel=1e-12)
    assert want[1] == 0.0


def test_rank_gaussian_d3_closed_form():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    got = ev.rank(np.array([1.0, 0.0, 0.0]))
    phi1 = np.exp(-0.5) / np.sqrt(2 * np.pi)
    assert got == pytest.approx([2 * phi1, 0.0, 0.0], rel=1e-12)


def test_rank_norm_bound_everywhere():
    rng = np.random.default_rng(0)
    atoms = rng.standard_normal((40, 3))
    evs = [
        _ev_empirical(atoms),
        gr.RankEvaluator(gr.RadialClosedForm("cauchy", 3)),
        gr.RankEvaluator(gr.Empirical(gr.sample(
            gr.RadialClosedForm("gaussian", 2), 20_000, 4))),
    ]
    for ev in evs:
        pts = rng.standard_normal((50, ev.d)) * 3.0
        norms = np.linalg.norm(ev.rank_many(pts), axis=1)
        assert np.all(norms <= 1.0 + 1e-12)


def test_rank_at_atom_skips_diagonal():
    ev = _ev_empirical([[0.0, 0.0], [2.0, 0.0]], np.array([0.25, 0.75]))
    got = ev.rank(np.array([0.0, 0.0]))
    # only the other atom contributes: 0.75 * (-e1)
    assert np.allclose(got, [-0.75, 0.0], atol=1e-16)


def test_rank_discontinuity_at_atom_has_weight_size():
    w = 0.25
    ev = _ev_empirical([[0.0, 0.0], [2.0, 0.0]], np.array([w, 1 - w]))
    at_atom = ev.rank(np.zeros(2))
    u = np.array([0.0, 1.0])
    nearby = ev.rank(1e-9 * u)
    assert np.linalg.norm(nearby - at_atom) >= w / 2


def test_rank_oddness_under_reflection():
    # eighths are exact binary fractions, so 2c - x and the pairwise
    # differences incur no rounding and the identity holds bitwise
    rng = np.random.default_rng(7)
    atoms = rng.integers(-16, 17, size=(13, 2)) / 8.0
    c = np.array([0.375, -0.75])
    ev = _ev_empirical(atoms)
    ev_refl = _ev_empirical(2 * c[None, :] - atoms)
    for x in rng.integers(-16, 17, size=(10, 2)) / 8.0:
        a = ev.rank(x)
        b = ev_refl.rank(2 * c - x)
        assert np.array_equal(a, -b)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_rank_derivative_zeroth_order_is_rank():
    ev = _ev_empirical([[1.0, 2.0], [-0.5, 0.3]])
    x = np.array([0.2, 0.1])
    assert np.allclose(ev.rank_derivative(x, (0, 0)), ev.rank(x))


def test_rank_derivative_divergence_gaussian_d3():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    x = np.array([1.0, 0.0, 0.0])
    div = sum(ev.rank_derivative(x, tuple(np.eye(3, dtype=int)[j]))[j]
              for j in range(3))
    want = 2 * (2 * gr.std_normal_cdf(1.0) - 1)
    assert div == pytest.approx(want, rel=1e-12)
    assert div == pytest.approx(1.3653789, abs=1e-6)
    # Monte-Carlo cross check within 3 standard errors
    mc = gr.RankEvaluator(gr.Empirical(gr.sample(
        gr.RadialClosedForm("gaussian", 3), 200_000, 12)))
    atoms, _ = mc.atoms()
    nrm = np.linalg.norm(x[None, :] - atoms, axis=1)
    vals = 2.0 / nrm
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(mc.divergence(x) - want) <= 3 * se


def test_radial_first_derivatives_match_fd():
    rng = np.random.default_rng(5)
    for fam, d in (("gaussian", 3), ("cauchy", 2)):
        ev = gr.RankEvaluator(gr.RadialClosedForm(fam, d))
        for _ in range(30):
            x = rng.standard_normal(d)
            r = np.linalg.norm(x)
            if not 0.3 < r < 5.0:
                continue
            h = 1e-5
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (ev.rank(x + e) - ev.rank(x - e)) / (2 * h)
                assert np.max(np.abs(ev.jacobian(x)[:, j] - fd)) <= 1e-6
                alpha = tuple(1 if k == j else 0 for k in range(d))
                got = ev.rank_derivative(x, alpha)
                assert np.max(np.abs(got - fd)) <= 1e-6


_DERIVATIVE_FIELDS = {
    "cloud": lambda: _ev_empirical(
        np.random.default_rng(4).standard_normal((30, 3))),
    "gaussian": lambda: gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3)),
    "cauchy": lambda: gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2)),
}


@pytest.mark.parametrize("field", sorted(_DERIVATIVE_FIELDS))
def test_first_rank_derivatives_are_the_jacobian_columns(field):
    ev = _DERIVATIVE_FIELDS[field]()
    x = np.linspace(0.4, -0.7, ev.d)
    J = ev.jacobian(x)
    for j, e in enumerate(np.eye(ev.d, dtype=int)):
        assert np.array_equal(ev.rank_derivative(x, tuple(e)), J[:, j])


@pytest.mark.parametrize("field", sorted(_DERIVATIVE_FIELDS))
def test_second_rank_derivatives_are_refused(field):
    ev = _DERIVATIVE_FIELDS[field]()
    x = np.linspace(0.4, -0.7, ev.d)
    for alpha in ((2,) + (0,) * (ev.d - 1), (1, 1) + (0,) * (ev.d - 2)):
        with pytest.raises(ValueError, match="fd_derivative"):
            ev.rank_derivative(x, alpha)


def test_rank_derivative_singularity_error():
    ev = _ev_empirical([[1.0, 0.0]])
    with pytest.raises(SingularityError):
        ev.rank_derivative(np.array([1.0, 1e-13]), (1, 0))


def test_divergence_and_jacobian_single_atom():
    a = np.array([0.0, 0.0, 0.0])
    ev = _ev_empirical([a])
    x = np.array([2.0, 0.0, 0.0])
    assert ev.divergence(x) == pytest.approx(1.0, rel=1e-14)   # (d-1)/|x-a|
    J = ev.jacobian(x)
    u = (x - a) / np.linalg.norm(x - a)
    assert np.abs(J @ u).max() <= 1e-15         # radial eigenvalue is zero
    assert np.allclose(J, J.T, atol=1e-15)


def test_jacobian_symmetry_and_psd():
    rng = np.random.default_rng(9)
    atoms = rng.standard_normal((25, 3))
    ev = _ev_empirical(atoms)
    for _ in range(20):
        x = rng.standard_normal(3) * 2
        J = ev.jacobian(x)
        assert np.max(np.abs(J - J.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(J)) >= -1e-12


def test_divergence_is_trace_of_jacobian():
    rng = np.random.default_rng(2)
    ev = _ev_empirical(rng.standard_normal((12, 2)))
    x = np.array([0.4, 1.1])
    assert ev.divergence(x) == pytest.approx(np.trace(ev.jacobian(x)),
                                             rel=1e-12)


# ---------------------------------------------------------------------------
# grid sampling
# ---------------------------------------------------------------------------

def test_sample_grid_unit_kernel_far_atom():
    ev = _ev_empirical([[10.0, 10.0, 10.0]])
    field = gr.sample_grid(ev, (-1.0, 1.0), 5)
    norms = np.linalg.norm(field.values, axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-14)


def test_sample_grid_odd_symmetry_exact():
    # symmetric atoms, exact-binary grid nodes: field is exactly odd
    atoms = np.array([[0.5, 0.25], [-0.5, -0.25]])
    ev = _ev_empirical(atoms)
    field = gr.sample_grid(ev, (-2.0, 2.0), 5)
    v = field.values
    assert np.array_equal(v, -v[::-1, ::-1, :])


def test_sample_grid_gaussian_d2_corner_value():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    field = gr.sample_grid(ev, (-4.0, 4.0), 41)
    prof = ev.profile
    got = field.values[-1, 20]          # node (4, 0)
    assert abs(got[0] - prof.g(4.0)) <= 1e-10
    assert got[1] == 0.0


def test_sample_grid_budget_cap():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    with pytest.raises(BudgetError):
        gr.sample_grid(ev, (-1.0, 1.0), 400)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _linear_field(n=9, h=0.5):
    xs = np.arange(n) * h - 2.0
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return gr.VectorGridField(np.array([-2.0, -2.0]), h, (n, n), X.copy())


def test_fd_linear_exactness():
    field = _linear_field()
    out = gr.fd_derivative(field, (1, 0), order=2)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12
    assert out.shape == (7, 9)
    assert out.origin[0] == pytest.approx(-1.5)


def test_fd_quadratic_laplacian_exact():
    n, h = 11, 0.5
    xs = np.arange(n) * h - 2.5
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    field = gr.VectorGridField(np.array([-2.5, -2.5]), h, (n, n),
                               X * X + Y * Y)
    lap = gr.fd_laplacian(field, order=2)
    assert np.max(np.abs(lap.values - 4.0)) < 1e-12


def test_fd_fourth_order_truncation_bound():
    # d/dx sin(x), order 4, h=0.1: classical bound h^4/30
    n, h = 61, 0.1
    xs = np.arange(n) * h - 3.0
    field = gr.VectorGridField(np.array([-3.0]), h, (n,), np.sin(xs))
    out = gr.fd_derivative(field, (1,), order=4)
    xs_in = xs[2:-2]
    err = np.abs(out.values - np.cos(xs_in))
    assert np.max(err) <= h ** 4 / 30 + 1e-12


def test_fd_divergence_of_radial_grid():
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    field = gr.sample_grid(ev, (-2.0, 2.0), 81)
    div = gr.fd_divergence(field, order=2)
    pts = div.nodes()
    want = ev.profile.h(np.linalg.norm(pts, axis=1)).reshape(div.shape)
    assert np.max(np.abs(div.values - want)) < 5e-3


def test_fd_stencil_overflow():
    field = _linear_field(n=5)
    with pytest.raises(StencilOverflowError):
        gr.fd_derivative(field, (0, 4), order=4)


def test_grid_save_load_roundtrip(tmp_path):
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    field = gr.sample_grid(ev, (-1.0, 1.0), 6)
    path = tmp_path / "field.csv"
    field.save(path)
    back = gr.VectorGridField.load(path)
    assert back.shape == field.shape
    assert back.spacing == field.spacing
    assert np.array_equal(back.origin, field.origin)
    assert np.array_equal(back.values, field.values)


def test_scalar_grid_save_load_roundtrip(tmp_path):
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    field = gr.sample_grid(ev, (-1.0, 1.0), 7)
    div = gr.fd_divergence(field, order=2)
    assert div.n_components == 0
    path = tmp_path / "scalar.csv"
    div.save(path)
    back = gr.VectorGridField.load(path)
    assert back.shape == div.shape
    assert np.array_equal(back.values, div.values)


# ---------------------------------------------------------------------------
# what a rank field is made of
# ---------------------------------------------------------------------------

def _generic(family, d):
    """A closed-form family as a GenericDensity: its density, and a sampler
    of G or G/|W| with G a standard d-normal and W a standard normal."""
    f = gr.radial_profile(gr.RadialClosedForm(family, d)).f

    def sampler(n, rng):
        g = rng.standard_normal((n, d))
        return g if family == "gaussian" else (
            g / np.abs(rng.standard_normal(n))[:, None])
    return gr.GenericDensity(d, lambda x: f(np.linalg.norm(x, axis=1)),
                             sampler)


@pytest.mark.parametrize("family, d", [("gaussian", 2), ("cauchy", 3)])
def test_monte_carlo_field_is_its_sample_as_atoms(family, d):
    # a GenericDensity's field is the rank field of mc_n sampled atoms: bit
    # for bit that of the Empirical measure on the same sample
    m = _generic(family, d)
    mc = gr.RankEvaluator(m, mc_n=5000, seed=7)
    atoms = gr.RankEvaluator(gr.Empirical(gr.sample(m, 5000, 7)))
    assert (mc.mode, mc.sampled, mc.profile) == ("mc", True, None)
    assert (atoms.mode, atoms.sampled) == ("exact", False)
    assert mc._atoms is None                 # drawn on first use
    pts = np.random.default_rng(8).standard_normal((40, d))
    assert np.array_equal(mc.rank_many(pts), atoms.rank_many(pts))
    assert np.array_equal(mc.divergence_many(pts), atoms.divergence_many(pts))
    for x in pts[:3]:
        assert np.array_equal(mc.jacobian(x), atoms.jacobian(x))
        for a, b in zip(mc.rank(x, second_order=True),
                        atoms.rank(x, second_order=True)):
            assert np.array_equal(a, b)
    assert mc.atoms()[0].shape == (5000, d)


def test_evaluator_decides_once_and_mode_is_derived():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    assert (ev.mode, ev.sampled) == ("radial", False)
    with pytest.raises(AttributeError):
        ev.mode = "mc"
    with pytest.raises(TypeError):
        gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2), force_mc=True)
    with pytest.raises(UnsupportedVariantError, match="cannot evaluate"):
        gr.RankEvaluator(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# evaluation points must be finite
# ---------------------------------------------------------------------------

_EVALUATORS = {
    "exact": lambda: _ev_empirical([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]]),
    "radial": lambda: gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2)),
    "mc": lambda: gr.RankEvaluator(_generic("cauchy", 2), mc_n=500),
}
_METHODS = {
    "rank": lambda ev, x: ev.rank(x),
    "rank_many": lambda ev, x: ev.rank_many(np.vstack([[0.3, 0.1], x])),
    "divergence": lambda ev, x: ev.divergence(x),
    "divergence_many": lambda ev, x: ev.divergence_many(
        np.vstack([[0.3, 0.1], x])),
    "jacobian": lambda ev, x: ev.jacobian(x),
    "rank_derivative": lambda ev, x: ev.rank_derivative(x, (1, 0)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", sorted(_METHODS))
@pytest.mark.parametrize("mode", sorted(_EVALUATORS))
def test_non_finite_points_rejected(mode, method, bad):
    ev = _EVALUATORS[mode]()
    assert ev.mode == mode
    with pytest.raises(DomainError, match="finite"):
        _METHODS[method](ev, np.array([0.2, bad]))
    _METHODS[method](ev, np.array([0.2, 0.7]))     # finite points still work


# ---------------------------------------------------------------------------
# scattered-point Laplacian
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fam", ["gaussian", "cauchy"])
def test_neg_laplacian_matches_per_axis_stencil(fam):
    # one call on all 2d+1 shifted copies, summed in the per-axis order
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 3))
    pts = np.vstack([np.zeros((1, 3)),
                     np.random.default_rng(13).standard_normal((40, 3))])
    h = 0.05
    lap = -2.0 * 3 * ev.rank_many(pts)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        lap += ev.rank_many(pts + e) + ev.rank_many(pts - e)
    calls = []
    got = _neg_laplacian(lambda q: calls.append(len(q)) or ev.rank_many(q),
                         pts, h)
    assert calls == [7 * len(pts)]
    assert np.array_equal(got, -lap / h ** 2)


def test_neg_laplacian_of_quadratic_is_exact():
    pts = np.random.default_rng(14).standard_normal((10, 4))
    got = _neg_laplacian(lambda q: (q * q).sum(axis=1), pts, 0.1)
    np.testing.assert_allclose(got, -8.0, rtol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_nodes_equal_meshgrid_stack(d):
    axes = [np.linspace(-2.0, 2.0, 4 + i) * (1.0 + 1e-3 * i)
            for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    want = np.stack([m.ravel() for m in mesh], axis=1)
    got = _grid_nodes(axes)
    assert got.shape == want.shape and np.array_equal(got, want)
    field = gr.VectorGridField(origin=[a[0] for a in axes], spacing=0.5,
                               shape=[len(a) for a in axes],
                               values=np.zeros([len(a) for a in axes]))
    mesh = np.meshgrid(*field.axes(), indexing="ij")
    assert np.array_equal(field.nodes(),
                          np.stack([m.ravel() for m in mesh], axis=1))


# ---------------------------------------------------------------------------
# closed forms in blocks: bounded memory, the one-shot bits
# ---------------------------------------------------------------------------

_FAMILIES = [("gaussian", 2), ("cauchy", 2), ("gaussian", 3), ("cauchy", 3)]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family, d", _FAMILIES)
def test_radial_fields_peak_within_a_block_of_their_output(family, d):
    # in one piece, 400 000 points take 6.4-6.8 MB beyond the output
    ev = gr.RankEvaluator(gr.RadialClosedForm(family, d))
    pts = np.random.default_rng(4).standard_normal((400_000, d))
    for method in (ev.rank_many, ev.divergence_many):
        method(pts[:10])
        tracemalloc.start()
        try:
            out = method(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1_000_000, method.__name__


@pytest.mark.parametrize("family, d", _FAMILIES)
def test_radial_fields_in_blocks_equal_the_one_shot_formulas(family, d):
    ev = gr.RankEvaluator(gr.RadialClosedForm(family, d))
    prof = ev.profile
    block = rankfield._EVAL_BLOCK // 2
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((2 * block + 1, d)) * 1.5
    pts[7] = 0.0                    # the small-radius series branch too
    pts[block + 3] *= 1e-4
    for m in (2 * block - 1, 2 * block, 2 * block + 1):
        x = pts[:m]
        r = _row_norms(x)
        assert _same_bits(ev.rank_many(x), prof.g_over_r(r)[:, None] * x)
        assert _same_bits(ev.divergence_many(x), prof.h(r))


def _one_shot_stencil(values, axis, offsets, coeffs, scale):
    radius = int(np.max(np.abs(offsets)))
    n = values.shape[axis]
    out = None
    for off, c in zip(offsets, coeffs):
        if c == 0.0:
            continue
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(radius + off, n - radius + off)
        piece = c * values[tuple(sl)]
        out = piece if out is None else out + piece
    return out * scale


def _one_shot_axis_sum(field, values, deriv, order):
    d = field.grid_dim
    radius = 1 if order == 2 else 2
    offsets, coeffs = rankfield._STENCILS[(deriv, order)]
    out = None
    for axis in range(d):
        comp = _one_shot_stencil(values(axis), axis, offsets, coeffs,
                                 1.0 / field.spacing ** deriv)
        comp = comp[tuple(slice(None) if k == axis else
                          slice(radius, comp.shape[k] - radius)
                          for k in range(d))]
        out = comp if out is None else out + comp
    return out


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("family, d", [("gaussian", 2), ("cauchy", 3)])
def test_fd_operators_in_place_equal_the_sum_of_scaled_taps(family, d, order):
    field = gr.sample_grid(gr.RankEvaluator(gr.RadialClosedForm(family, d)),
                           (-2.0, 2.0), 17)
    div = gr.fd_divergence(field, order)
    want = _one_shot_axis_sum(field, lambda k: field.values[..., k], 1, order)
    assert _same_bits(div.values, want)
    assert div.values.flags.c_contiguous and div.values.flags.owndata
    lap = gr.fd_laplacian(div, order)
    assert _same_bits(lap.values,
                      _one_shot_axis_sum(div, lambda k: div.values, 2, order))
    first = gr.fd_derivative(field, (1,) + (0,) * (d - 1), order)
    offsets, coeffs = rankfield._STENCILS[(1, order)]
    assert _same_bits(first.values, _one_shot_stencil(
        field.values, 0, offsets, coeffs, 1.0 / field.spacing))
