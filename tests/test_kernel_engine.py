"""The blocked point x atom engine behind every kernel sum: block boundaries,
the diagonal, bounded memory, and properties on random clouds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import georank as gr
from georank import cli, rankfield
from georank.errors import SingularityError
from georank.reconstruct import _poisson_constant
from georank.rankfield import _pair_blocks, _rank_block


def _direct(atoms, weights, x, t):
    """Rank, divergence and Poisson sum at x, one atom at a time."""
    d = x.shape[0]
    rank, div, pois = np.zeros(d), 0.0, 0.0
    for z, w in zip(atoms, weights):
        y = x - z
        r = math.sqrt(float(y @ y))
        if r > 0.0:
            rank += w * y / r
            div += w * (d - 1) / r
        pois += w * t / (r * r + t * t) ** ((d + 1) / 2.0)
    return rank, div, _poisson_constant(d) * pois


def _cloud(seed, n, m, d):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, n)
    return (gr.Empirical(rng.standard_normal((n, d)), w / w.sum()),
            rng.uniform(-2.5, 2.5, (m, d)))


# 7: the 40 atoms split into blocks of 7, one point per block;
# 100: two points per block, a ragged last block, atoms whole
@pytest.mark.parametrize("block", [7, 100])
@pytest.mark.parametrize("d", [2, 3])
def test_blocked_sums_match_direct_sums(monkeypatch, block, d):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", block)
    m, pts = _cloud(d, 40, 31, d)
    ev = gr.RankEvaluator(m)
    ref = [_direct(m.atoms, m.weights, x, 0.1) for x in pts]
    np.testing.assert_allclose(ev.rank_many(pts), [r[0] for r in ref],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(ev.divergence_many(pts), [r[1] for r in ref],
                               rtol=1e-14)
    np.testing.assert_allclose(gr.poisson_smooth(m, pts, 0.1),
                               [r[2] for r in ref], rtol=1e-14)


@pytest.mark.parametrize("block", [3, 100])
def test_point_on_atom_across_blocks(monkeypatch, block):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", block)
    m, _ = _cloud(5, 9, 0, 2)
    ev = gr.RankEvaluator(m)
    # every point sits on an atom: the kernel is 0 on the diagonal
    ref = [_direct(m.atoms, m.weights, z, 0.1)[0] for z in m.atoms]
    np.testing.assert_allclose(ev.rank_many(m.atoms), ref, rtol=0,
                               atol=1e-14)
    last = m.atoms[-1]                  # in the last atom block
    for call in (ev.divergence, ev.jacobian,
                 lambda x: ev.rank_derivative(x, (1, 1))):
        with pytest.raises(SingularityError):
            call(last)
    with pytest.raises(SingularityError):
        ev.divergence_many(m.atoms[::-1])


def test_rank_block_reciprocal_with_and_without_a_coincident_pair():
    # the plain reciprocal and the masked one give the same bits
    m, pts = _cloud(7, 50, 20, 3)
    pts[3] = m.atoms[11]
    for p in (pts, np.delete(pts, 3, axis=0)):
        for _, cols, diff, dist in _pair_blocks(p, m.atoms):
            inv = np.divide(1.0, dist, out=dist.copy(), where=dist > 0.0)
            want = ((diff * inv) @ m.weights[cols]).T
            got = _rank_block(diff, dist, m.weights[cols])
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_cli_at_atom_column_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 3)
    m, pts = _cloud(6, 5, 6, 2)
    pts[1], pts[4] = m.atoms[4], m.atoms[0]
    atoms_csv, pts_csv = tmp_path / "atoms.csv", tmp_path / "pts.csv"
    np.savetxt(atoms_csv, np.column_stack([m.atoms, m.weights]),
               delimiter=",", fmt="%.17g")
    np.savetxt(pts_csv, pts, delimiter=",", fmt="%.17g")
    out = tmp_path / "out.csv"
    assert cli.main(["rank", "--csv", str(atoms_csv), "--dim", "2",
                     "--points", str(pts_csv), "-o", str(out)]) == 0
    _, data = cli.load_table(out)
    assert data[:, -1].tolist() == [0, 1, 0, 0, 1, 0]
    ref = [_direct(m.atoms, m.weights, x, 0.1)[0] for x in pts]
    np.testing.assert_allclose(data[:, 2:4], ref, rtol=0, atol=1e-14)


def test_atoms_beyond_one_block_are_split(monkeypatch):
    n = rankfield._EVAL_BLOCK + 7000
    m, pts = _cloud(7, n, 1, 2)
    x = pts[0]
    assert len(list(_pair_blocks(pts, m.atoms))) == 2
    ev = gr.RankEvaluator(m)
    split = (ev.rank(x), ev.divergence(x), ev.jacobian(x),
             gr.poisson_smooth(m, pts, 0.1)[0])
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 2 * n)
    assert len(list(_pair_blocks(pts, m.atoms))) == 1
    whole = (ev.rank(x), ev.divergence(x), ev.jacobian(x),
             gr.poisson_smooth(m, pts, 0.1)[0])
    for a, b in zip(split, whole):
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)


def test_poisson_smooth_on_atoms_stays_in_blocks():
    # unblocked, 500 points x 20 000 atoms in d=2 take a 160 MB array
    m, pts = _cloud(8, 20_000, 500, 2)
    tracemalloc.start()
    try:
        out = gr.poisson_smooth(m, pts, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert np.all(np.isfinite(out)) and np.all(out > 0)


# ---------------------------------------------------------------------------
# properties on random clouds
# ---------------------------------------------------------------------------

coords = st.floats(-10.0, 10.0)


@st.composite
def clouds(draw):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, 25))
    atoms = draw(arrays(float, (n, d), elements=coords))
    w = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    x = draw(arrays(float, d, elements=coords))
    return gr.RankEvaluator(gr.Empirical(atoms, w / w.sum())), x


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


@_PROPERTY
@given(clouds())
def test_rank_norm_at_most_one(cloud):
    ev, x = cloud
    assert np.linalg.norm(ev.rank(x)) <= 1.0 + 1e-12


@_PROPERTY
@given(clouds())
def test_jacobian_symmetric_psd(cloud):
    ev, x = cloud
    assume(np.min(np.linalg.norm(ev.measure.atoms - x, axis=1)) > 1e-9)
    J = ev.jacobian(x)
    scale = np.abs(J).max()
    assert np.abs(J - J.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(J).min() >= -1e-12 * scale


@_PROPERTY
@given(clouds())
def test_quantile_of_rank_roundtrip(cloud):
    # off the atoms R(x) = alpha u has the single solution x, so the
    # quantile of order |R(x)| in the direction of R(x) is x again
    ev, x = cloud
    assume(ev.measure.atoms.shape[0] >= 3 and not ev.atoms_collinear)
    assume(np.min(np.linalg.norm(ev.measure.atoms - x, axis=1)) > 1e-3)
    r = ev.rank(x)
    alpha = float(np.linalg.norm(r))
    assume(0.05 < alpha < 0.95)
    q = gr.QuantileQuery(alpha, r / alpha)
    got = gr.solve_quantile(ev, q, 1e-8)
    assert np.linalg.norm(ev.rank(got) - r) <= 1e-8
    assert np.linalg.norm(got - x) <= 1e-5


def _off_atoms(ev, x):
    return np.min(np.linalg.norm(ev.measure.atoms - x, axis=1)) >= 1e-3


@_PROPERTY
@given(clouds(), arrays(float, 3, elements=coords))
def test_rank_of_a_shifted_cloud_at_the_shifted_point(cloud, shift):
    # R_{P+c}(x + c) = R_P(x)
    ev, x = cloud
    assume(_off_atoms(ev, x))
    c = shift[:ev.d]
    moved = gr.RankEvaluator(gr.Empirical(ev.measure.atoms + c,
                                          ev.measure.weights))
    np.testing.assert_allclose(moved.rank(x + c), ev.rank(x), rtol=0,
                               atol=1e-12)


@_PROPERTY
@given(clouds())
def test_rank_of_a_symmetrized_cloud_is_odd(cloud):
    # P and its reflection -P with equal weights: R(-x) = -R(x)
    ev, x = cloud
    atoms, w = ev.measure.atoms, ev.measure.weights
    sym = gr.RankEvaluator(gr.Empirical(np.vstack([atoms, -atoms]),
                                        np.concatenate([w, w]) / 2.0))
    assume(_off_atoms(sym, x))
    np.testing.assert_allclose(sym.rank(-x), -sym.rank(x), rtol=0,
                               atol=1e-12)
