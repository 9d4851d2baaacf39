"""Quantile solver: objective values, inversion of the rank map, and the
equivariance properties."""

import tracemalloc

import numpy as np
import pytest

import georank as gr
from georank import quantile, rankfield
from georank.errors import (DegenerateSupportError, DomainError,
                            NonConvergenceError, SingularityError,
                            UnsupportedVariantError)

FAMILIES = [("gaussian", 2), ("gaussian", 3), ("cauchy", 2), ("cauchy", 3)]


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_objective_zero_at_origin_without_direction():
    ev = gr.RankEvaluator(gr.Empirical(np.array([[1.0, 2.0], [0.5, -1.0]])))
    q = gr.QuantileQuery(0.0, np.array([1.0, 0.0]))
    assert gr.objective(ev, q, np.zeros(2)) == pytest.approx(0.0, abs=1e-15)


def test_objective_single_atom():
    a = np.array([2.0, 1.0])
    ev = gr.RankEvaluator(gr.Empirical(a[None, :]))
    q = gr.QuantileQuery(0.0, np.array([1.0, 0.0]))
    x = np.array([-1.0, 0.5])
    want = np.linalg.norm(x - a) - np.linalg.norm(a)
    assert gr.objective(ev, q, x) == pytest.approx(want, rel=1e-14)


def test_objective_two_atoms_hand_sum():
    ev = gr.RankEvaluator(gr.Empirical(np.array([[1.0, 0.0], [-1.0, 0.0]])))
    q = gr.QuantileQuery(0.0, np.array([1.0, 0.0]))
    got = gr.objective(ev, q, np.array([0.0, 1.0]))
    assert got == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-14)


def test_quantile_query_validation():
    with pytest.raises(ValueError):
        gr.QuantileQuery(1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        gr.QuantileQuery(0.5, np.array([1.0, 1.0]))


def test_radial_median_is_center():
    for fam, d in FAMILIES:
        ev = gr.RankEvaluator(gr.RadialClosedForm(fam, d))
        u = _unit(np.ones(d))
        x = gr.solve_quantile(ev, gr.QuantileQuery(0.0, u))
        assert np.allclose(x, 0.0)


def test_gaussian_d3_inversion_at_radius_one():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
    alpha = ev.profile.g(1.0)        # = 2 phi(1) ~ 0.4839414
    assert alpha == pytest.approx(0.4839414, abs=1e-7)
    x = gr.solve_quantile(ev, gr.QuantileQuery(alpha, np.eye(3)[0]), 1e-8)
    assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-8)


def test_cauchy_d2_inversion_at_radius_one():
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    alpha = ev.profile.g(1.0)        # = 1/(1+sqrt 2) ~ 0.4142136
    assert alpha == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-14)
    x = gr.solve_quantile(ev, gr.QuantileQuery(alpha, np.eye(2)[1]), 1e-8)
    assert np.allclose(x, [0.0, 1.0], atol=1e-8)



def test_one_answer_at_levels_near_one():
    # quantile, contour and theta invert g by the same rule; at this level
    # the root lies near 2e12
    level = 0.9999999999995
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    x = gr.solve_quantile(ev, gr.QuantileQuery(level, np.array([1.0, 0.0])))
    r_beta = gr.contour(ev, level).r_beta
    assert x[0] == r_beta and x[1] == 0.0
    assert 1.9e12 < r_beta < 2.1e12
    assert ev.profile.g(r_beta) == pytest.approx(level, abs=1e-15)
    assert 0.0 < gr.theta_radial_exact(ev, level) <= 1.0


def test_roundtrip_gaussian_d2_random_queries():
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = gr.QuantileQuery(rng.uniform(0.0, 0.95),
                             _unit(rng.standard_normal(2)))
        assert gr.rank_of_quantile_roundtrip(ev, q, 1e-8) <= 1e-8


def test_roundtrip_empirical_cloud():
    rng = np.random.default_rng(4)
    atoms = rng.standard_normal((100, 2))
    ev = gr.RankEvaluator(gr.Empirical(atoms))
    q = gr.QuantileQuery(0.5, np.eye(2)[0])
    assert gr.rank_of_quantile_roundtrip(ev, q, 1e-10) <= 1e-10


def test_monotone_radii_along_rays():
    for fam, d in FAMILIES:
        ev = gr.RankEvaluator(gr.RadialClosedForm(fam, d))
        u = _unit(np.arange(1, d + 1, dtype=float))
        alphas = np.linspace(0.05, 0.9, 10)
        radii = [np.linalg.norm(gr.solve_quantile(ev, gr.QuantileQuery(a, u)))
                 for a in alphas]
        assert np.all(np.diff(radii) > 0)


def test_translation_equivariance_empirical():
    rng = np.random.default_rng(8)
    atoms = rng.standard_normal((40, 3))
    t = np.array([1.5, -2.0, 0.25])
    tol = 1e-10
    ev = gr.RankEvaluator(gr.Empirical(atoms))
    ev_t = gr.RankEvaluator(gr.Empirical(atoms + t))
    q = gr.QuantileQuery(0.35, _unit([1.0, 2.0, -1.0]))
    a = gr.solve_quantile(ev, q, tol)
    b = gr.solve_quantile(ev_t, q, tol)
    assert np.max(np.abs(b - (a + t))) <= 10 * tol


def test_rotation_equivariance_radial():
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 3))
    rng = np.random.default_rng(10)
    A = rng.standard_normal((3, 3))
    O, _ = np.linalg.qr(A)
    u = _unit([0.3, -1.0, 0.5])
    tol = 1e-10
    a = gr.solve_quantile(ev, gr.QuantileQuery(0.6, u), tol)
    b = gr.solve_quantile(ev, gr.QuantileQuery(0.6, _unit(O @ u)), tol)
    assert np.max(np.abs(b - O @ a)) <= 10 * tol


def test_degenerate_support_detected():
    atoms = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
    ev = gr.RankEvaluator(gr.Empirical(atoms))
    with pytest.raises(DegenerateSupportError):
        gr.solve_quantile(ev, gr.QuantileQuery(0.3, _unit([1.0, 0.0])))


def test_roundtrip_generic_density_monte_carlo():
    dens = lambda q: np.exp(-0.5 * (q ** 2).sum(axis=1)) / (2 * np.pi)
    samp = lambda n, rng: rng.standard_normal((n, 2))
    ev = gr.RankEvaluator(gr.GenericDensity(2, dens, samp), mc_n=50_000,
                          seed=17)
    q = gr.QuantileQuery(0.4, _unit([1.0, 1.0]))
    assert gr.rank_of_quantile_roundtrip(ev, q, 1e-8) <= 1e-8


def test_objective_descent_along_accepted_steps():
    rng = np.random.default_rng(33)
    atoms = rng.standard_normal((80, 3))
    ev = gr.RankEvaluator(gr.Empirical(atoms))
    trace = []
    gr.solve_quantile(ev, gr.QuantileQuery(0.6, _unit([1.0, -1.0, 0.5])),
                      1e-10, trace=trace)
    assert len(trace) >= 2
    assert np.all(np.diff(trace) <= 1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_objective_with_cached_norms_equals_per_call_norms(monkeypatch, d):
    # blocks of 7 pairs, so one point splits the atoms into many blocks
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 7)
    rng = np.random.default_rng(d)
    atoms = rng.standard_normal((60, d)) * [1.0, 3.0, 0.1][:d]
    w = rng.uniform(1.0, 2.0, 60)
    ev = gr.RankEvaluator(gr.Empirical(atoms, w / w.sum()))
    a, w = ev.atoms()
    q = gr.QuantileQuery(0.3, _unit(rng.standard_normal(d)))
    for x in rng.standard_normal((10, d)):
        # |z| recomputed per block, as before the per-evaluator cache
        g = rankfield._pair_sums(
            x[None, :], a, lambda _, dist, cols: float(
                (dist[0] - np.linalg.norm(a[cols], axis=1)) @ w[cols]),
            np.zeros(1))[0]
        assert gr.objective(ev, q, x) == g - q.alpha * float(np.dot(q.u, x))
    assert ev.atom_norms is ev.atom_norms


@pytest.mark.parametrize("d", [2, 3])
def test_weiszfeld_step_sums_chunk_by_chunk(monkeypatch, d):
    # chunks of 7 atoms, the last ragged, and x on atom 9, whose term is
    # left out of both sums
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 7)
    rng = np.random.default_rng(40 + d)
    atoms = rng.standard_normal((31, d))
    w = rng.uniform(0.5, 2.0, 31)
    w /= w.sum()
    alpha_u = 0.4 * _unit(rng.standard_normal(d))
    x = atoms[9].copy()
    got = quantile._weiszfeld_step(atoms, w, alpha_u, x)
    # the numerator and denominator summed chunk by chunk, in chunk order
    num, den = alpha_u.copy(), 0.0
    for lo in range(0, 31, 7):
        z = atoms[lo:lo + 7]
        gap = x[:, None] - z.T
        dist = np.sqrt(np.einsum("kn,kn->n", gap, gap))
        c = np.divide(w[lo:lo + 7], dist, out=np.zeros(len(z)),
                      where=dist > 1e-14)
        num += c @ z
        den += c.sum()
    assert got.tobytes() == (num / den).tobytes()
    # the direct formula
    r = np.linalg.norm(atoms - x, axis=1)
    keep = r > 1e-14
    assert keep.sum() == 30
    c = w[keep] / r[keep]
    np.testing.assert_allclose(got, (alpha_u + c @ atoms[keep]) / c.sum(),
                               rtol=1e-13)


# five atoms whose coordinatewise median is the atom at the origin
FIVE = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, -2.0], [2.0, -1.0],
                 [-2.0, 1.0]])


def test_quantile_starting_on_an_atom_takes_a_weiszfeld_step():
    # the Jacobian is undefined at the start, as if singular
    ev = gr.RankEvaluator(gr.Empirical(FIVE))
    np.testing.assert_array_equal(ev.coordinatewise_median, FIVE[0])
    q = gr.QuantileQuery(0.6, np.array([1.0, 0.0]))
    x = gr.solve_quantile(ev, q)
    assert np.linalg.norm(ev.rank(x) - q.alpha * q.u) <= 1e-10
    np.testing.assert_allclose(x, [1.9072, -0.3926], atol=1e-4)
    # the cached start is not handed out
    x[:] = 7.0
    np.testing.assert_array_equal(ev.coordinatewise_median, FIVE[0])


@pytest.mark.parametrize("alpha", [0.05, 0.1])
def test_quantile_at_an_atom_is_the_atom(alpha):
    # R(0) = 0 without the origin's own term, and |0 - alpha u| <= 1/5, its
    # weight: 0 is in the objective's subgradient at the origin, and no
    # point solves R(x) = alpha u
    ev = gr.RankEvaluator(gr.Empirical(FIVE))
    x = gr.solve_quantile(ev, gr.QuantileQuery(alpha, np.array([1.0, 0.0])))
    assert x.tolist() == [0.0, 0.0]
    # a solve that converges keeps its bits
    x = gr.solve_quantile(ev, gr.QuantileQuery(0.6, np.array([1.0, 0.0])))
    assert x.tolist() == [1.9071624940423231, -0.39258505474699035]


def test_quantile_at_an_atom_is_tested_before_giving_up(monkeypatch):
    # no iteration at all: the start is the origin atom, which the solver
    # tests before it raises; at alpha = 0.6 the atom fails the test
    monkeypatch.setattr(quantile, "_MAX_ITERS", 0)
    ev = gr.RankEvaluator(gr.Empirical(FIVE))
    x = gr.solve_quantile(ev, gr.QuantileQuery(0.1, np.array([1.0, 0.0])))
    assert x.tolist() == [0.0, 0.0]
    with pytest.raises(NonConvergenceError):
        gr.solve_quantile(ev, gr.QuantileQuery(0.6, np.array([1.0, 0.0])))


def test_quantile_at_a_repeated_atom_counts_every_copy():
    # two copies at the origin weigh 1/3 together, more than alpha = 0.3
    ev = gr.RankEvaluator(gr.Empirical(np.vstack([FIVE, FIVE[:1]])))
    x = gr.solve_quantile(ev, gr.QuantileQuery(0.3, np.array([0.0, 1.0])))
    assert x.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("d", [2, 3])
def test_second_order_pass_equals_objective_rank_and_jacobian(monkeypatch,
                                                               d):
    # blocks of 7 pairs, so one point splits the atoms into many blocks
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 7)
    rng = np.random.default_rng(50 + d)
    atoms = rng.standard_normal((45, d)) * [1.0, 3.0, 0.1][:d]
    w = rng.uniform(1.0, 2.0, 45)
    ev = gr.RankEvaluator(gr.Empirical(atoms, w / w.sum()))
    q = gr.QuantileQuery(0.4, _unit(rng.standard_normal(d)))
    for x in rng.standard_normal((8, d)):
        phi, r, J = ev.rank(x, second_order=True)
        assert phi - q.alpha * float(np.dot(q.u, x)) == gr.objective(ev, q, x)
        assert np.array_equal(r, ev.rank(x))
        assert np.array_equal(J, ev.jacobian(x))
        assert quantile._newton_pass(ev, q, x)[0] == gr.objective(ev, q, x)
    # on an atom (in a middle block) the Jacobian is undefined
    x = atoms[20]
    fx, r, J = quantile._newton_pass(ev, q, x)
    assert fx == gr.objective(ev, q, x)
    assert np.array_equal(r, ev.rank(x))
    assert J is None
    with pytest.raises(SingularityError):
        ev.jacobian(x)
    with pytest.raises(DomainError):
        ev.rank(np.full(d, np.nan), second_order=True)
    radial = gr.RankEvaluator(gr.RadialClosedForm("gaussian", d))
    with pytest.raises(UnsupportedVariantError, match="second-order"):
        radial.rank(np.ones(d), second_order=True)


def test_closed_form_holds_no_atoms_for_the_objective():
    # a closed form is a radial profile, not a hidden Monte-Carlo cloud
    ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))
    q = gr.QuantileQuery(0.3, np.array([1.0, 0.0]))
    for call in (ev.atoms, lambda: gr.objective(ev, q, np.ones(2))):
        with pytest.raises(UnsupportedVariantError, match="no atoms"):
            call()
    assert ev._atoms is None
    assert np.array_equal(gr.solve_quantile(ev, q),
                          gr.invert_g(ev.profile, 0.3) * q.u)


def test_nonconvergence_carries_the_objective_history(monkeypatch):
    monkeypatch.setattr(quantile, "_MAX_ITERS", 2)
    rng = np.random.default_rng(60)
    ev = gr.RankEvaluator(gr.Empirical(rng.standard_normal((80, 2))))
    q = gr.QuantileQuery(0.7, _unit([1.0, 2.0]))
    trace = [123.0]
    with pytest.raises(NonConvergenceError) as info:
        gr.solve_quantile(ev, q, 1e-12, trace=trace)
    hist = info.value.history
    assert len(hist) == 3 and hist == trace[1:]
    assert np.all(np.diff(hist) <= 1e-14)
    assert info.value.residual > 1e-12
    with pytest.raises(NonConvergenceError) as again:
        gr.solve_quantile(ev, q, 1e-12)
    assert again.value.history == hist


def test_start_and_collinearity_are_cached():
    rng = np.random.default_rng(61)
    ev = gr.RankEvaluator(gr.Empirical(rng.standard_normal((30, 3))))
    assert ev.coordinatewise_median is ev.coordinatewise_median
    np.testing.assert_array_equal(ev.coordinatewise_median,
                                  np.median(ev.atoms()[0], axis=0))
    assert ev.atoms_collinear is False
    line = gr.RankEvaluator(gr.Empirical(np.outer([0.0, 1.0, 3.0], [1, 2])))
    assert line.atoms_collinear is True
    assert gr.RankEvaluator(gr.Empirical(FIVE[:2])).atoms_collinear is True


def _one_pass_atom_minimizer(ev, alpha_u, x):
    """_atom_minimizer with the whole cloud in one piece."""
    atoms, weights = ev.atoms()
    gap = atoms - x
    j = int(np.argmin(np.einsum("ij,ij->i", gap, gap)))
    z = atoms[j].copy()
    w_z = float(weights[np.all(atoms == z, axis=1)].sum())
    return z if np.linalg.norm(ev.rank(z) - alpha_u) <= w_z else None


def test_atom_minimizer_in_blocks_equals_one_pass(monkeypatch):
    # chunks of 7 atoms; atom 3 has copies in the third and sixth chunks,
    # and together they outweigh the rest, so the spatial median sits on it
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 7)
    rng = np.random.default_rng(12)
    atoms = rng.standard_normal((50, 2))
    atoms[[17, 40]] = atoms[3]
    w = rng.uniform(0.5, 1.5, 50)
    w[[3, 17, 40]] = 30.0
    ev = gr.RankEvaluator(gr.Empirical(atoms, w / w.sum()))
    xs = [atoms[3] + 1e-3, atoms[8] + 1e-3, 0.5 * (atoms[5] + atoms[30]),
          np.array([9.0, -9.0])]
    found = 0
    for x in xs:
        for alpha_u in (np.zeros(2), np.array([0.3, 0.0]),
                        np.array([0.0, -0.95])):
            got = quantile._atom_minimizer(ev, alpha_u, x)
            want = _one_pass_atom_minimizer(ev, alpha_u, x)
            assert (got is None) == (want is None)
            if got is not None:
                found += 1
                assert got.tobytes() == want.tobytes()
    assert found > 0


@pytest.mark.parametrize("d, seed", [(2, 43), (2, 48), (3, 41), (5, 46)])
def test_atom_minimizer_sums_copies_spread_over_chunks_as_one_pass(
        d, seed, monkeypatch):
    # 9 copies of one atom in 6 of the 9 chunks of 5 atoms; their weights
    # summed chunk by chunk round apart from the one pass over the cloud,
    # below it on the first and last seed, above it on the other two
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 5)
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((45, d))
    copies = [2, 4, 11, 12, 23, 26, 30, 38, 44]
    atoms[copies] = atoms[26]
    w = rng.uniform(0.5, 1.5, 45)
    w[copies] = rng.uniform(0.1, 0.3, len(copies))
    ev = gr.RankEvaluator(gr.Empirical(atoms, w / w.sum()))
    z, weights = atoms[26], ev.atoms()[1]
    one_pass = weights[np.all(atoms == z, axis=1)].sum()
    by_chunk = sum(weights[lo:lo + 5][np.all(atoms[lo:lo + 5] == z, axis=1)]
                   .sum() for lo in range(0, 45, 5))
    assert one_pass != by_chunk
    e = np.eye(d)[0]
    for x in (z + 1e-4, z.copy(), atoms[7] + 1e-4, np.full(d, 0.1)):
        for alpha_u in (np.zeros(d), 0.2 * e, -0.9 * e):
            got = quantile._atom_minimizer(ev, alpha_u, x)
            want = _one_pass_atom_minimizer(ev, alpha_u, x)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
    # with |R(z) - alpha u| at the larger sum, bit for bit, the subgradient
    # test passes with one of the two sums only
    target = max(one_pass, by_chunk)
    monkeypatch.setattr(ev, "rank", lambda _: target * e)
    got = quantile._atom_minimizer(ev, np.zeros(d), z + 1e-4)
    want = _one_pass_atom_minimizer(ev, np.zeros(d), z + 1e-4)
    assert (got is not None) == (want is not None) == (one_pass >= by_chunk)


def test_atom_minimizer_takes_the_first_of_equidistant_atoms(monkeypatch):
    # atoms 1 and 4, in the first and second chunk of 3, are both at
    # distance 2 from x; the first one in index order is the nearest
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 3)
    atoms = np.array([[3.0, 3.0], [0.0, 2.0], [4.0, 4.0], [5.0, 5.0],
                      [2.0, 0.0], [0.0, -3.0]])
    ev = gr.RankEvaluator(gr.Empirical(
        atoms, np.array([0.025, 0.45, 0.025, 0.025, 0.45, 0.025])))
    alpha_u = ev.rank(atoms[1])
    got = quantile._atom_minimizer(ev, alpha_u, np.zeros(2))
    assert got is not None and got.tobytes() == atoms[1].tobytes()


def test_atom_minimizer_allocates_nothing_in_proportion_to_the_cloud():
    # in one piece it held an (n, d) difference array: 4.8 MB here
    atoms = np.random.default_rng(13).standard_normal((200_000, 3))
    ev = gr.RankEvaluator(gr.Empirical(atoms))
    x, alpha_u = np.array([0.3, 0.2, -0.1]), np.array([0.1, 0.0, 0.0])
    quantile._atom_minimizer(ev, alpha_u, x)
    tracemalloc.start()
    try:
        quantile._atom_minimizer(ev, alpha_u, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < atoms.nbytes / 2


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
def test_solve_quantile_needs_a_positive_finite_tol(tol):
    # tol 0 or nan ran all iterations and ended in NonConvergenceError
    q = gr.QuantileQuery(0.5, _unit([1.0, 0.0]))
    rng = np.random.default_rng(3)
    for ev in (gr.RankEvaluator(gr.Empirical(rng.standard_normal((30, 2)))),
               gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2))):
        with pytest.raises(ValueError, match="tol"):
            gr.solve_quantile(ev, q, tol)
