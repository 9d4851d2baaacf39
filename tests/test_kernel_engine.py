"""The blocked point x atom engine behind every kernel sum: block boundaries,
the diagonal, bounded memory, properties on random clouds, and the helper
thread that takes alternate row blocks."""

import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import georank as gr
from georank import _threads, cli, rankfield
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
                 lambda x: ev.rank_derivative(x, (1, 0))):
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


# ---------------------------------------------------------------------------
# atoms read chunk by chunk: the bits of the point-outer loop, bounded memory
# ---------------------------------------------------------------------------

def _point_outer_blocks(pts, atoms):
    """The engine's loop with the rows outside and one transposed copy of
    the whole cloud, as it was before the atoms were read in chunks."""
    (m, d), n = pts.shape, atoms.shape[0]
    n_blk = max(1, min(n, rankfield._EVAL_BLOCK))
    m_blk = rankfield._EVAL_BLOCK // n_blk
    buf = np.empty((d + 1) * min(m, m_blk) * n_blk)
    coords = atoms.T.copy()
    for lo in range(0, m, m_blk):
        x = pts[lo:lo + m_blk].T[:, :, None]
        for a_lo in range(0, n, n_blk):
            z = coords[:, None, a_lo:a_lo + n_blk]
            shape = (x.shape[1], z.shape[2])
            size = shape[0] * shape[1]
            diff = np.subtract(x, z, out=buf[:d * size].reshape((d,) + shape))
            dist = buf[d * size:(d + 1) * size].reshape(shape)
            np.sqrt(np.einsum("kmn,kmn->mn", diff, diff, out=dist), out=dist)
            yield slice(lo, lo + m_blk), slice(a_lo, a_lo + n_blk), diff, dist


def _point_outer_sums(pts, atoms, w, t):
    """Rank, divergence and Poisson sums with the arithmetic of _rank_sum,
    divergence_many and poisson_smooth, over _point_outer_blocks."""
    m, d = pts.shape
    rank, div, pois = np.zeros_like(pts), np.zeros(m), np.zeros(m)
    for rows, cols, diff, dist in _point_outer_blocks(pts, atoms):
        rank[rows] += _rank_block(diff, dist, w[cols])
    for rows, cols, _, dist in _point_outer_blocks(pts, atoms):
        div[rows] += np.divide(1.0, dist, out=dist) @ w[cols]
    for rows, cols, _, dist in _point_outer_blocks(pts, atoms):
        s = np.add(np.square(dist, out=dist), t * t, out=dist)
        pois[rows] += np.power(s, -(d + 1) / 2.0, out=s) @ w[cols]
    return rank, (d - 1) * div, _poisson_constant(d) * t * pois


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


# (block, atoms, points): chunks of 16 atoms with a ragged last one, one
# point per block; chunks of 64 over 200 atoms; one chunk of 40 atoms with
# three points per block and a ragged last row block
@pytest.mark.parametrize("block, n, m", [(16, 70, 9), (64, 200, 5),
                                         (128, 40, 11)])
@pytest.mark.parametrize("d", [2, 3])
def test_chunk_outer_loop_has_the_bits_of_the_point_outer_loop(
        monkeypatch, block, n, m, d):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", block)
    cloud, pts = _cloud(10 + d, n, m, d)
    rank, div, pois = _point_outer_sums(pts, cloud.atoms, cloud.weights, 0.1)
    ev = gr.RankEvaluator(cloud)
    assert _bytes(rankfield._rank_sum(pts, cloud.atoms, cloud.weights)) \
        == _bytes(rank)
    assert _bytes(ev.rank_many(pts)) == _bytes(rank)
    assert _bytes(ev.divergence_many(pts)) == _bytes(div)
    assert _bytes(gr.poisson_smooth(cloud, pts, 0.1)) == _bytes(pois)
    # every (row, atom) pair exactly once
    seen = np.zeros((m, n), dtype=int)
    for rows, cols, _, _ in _pair_blocks(pts, cloud.atoms):
        seen[rows, cols] += 1
    assert (seen == 1).all()


def _traced_peak(call):
    call()                              # caches and lazy imports first
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


_CALLS = {
    "rank_many-1": lambda ev, x: ev.rank_many(x[:1]),
    "rank_many-12": lambda ev, x: ev.rank_many(x),
    "second_order": lambda ev, x: ev.rank(x[0], second_order=True)[1],
    "divergence_many-12": lambda ev, x: ev.divergence_many(x),
}


@pytest.mark.parametrize("call", list(_CALLS))
def test_atom_fields_peak_within_a_block_of_their_output(call):
    # with the whole cloud copied, 200 000 atoms in d = 2 took 3.2 MB more
    d = 2
    block = (2 * d + 1) * rankfield._EVAL_BLOCK * 8   # pair buffer + chunk
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.0, 2.0, (12, d))
    peaks = []
    for n in (100_000, 200_000):
        ev = gr.RankEvaluator(gr.Empirical(rng.standard_normal((n, d))))
        peak, out = _traced_peak(lambda: _CALLS[call](ev, pts))
        assert peak <= out.nbytes + 2 * block, (n, peak)
        peaks.append(peak)
    # nothing in proportion to the cloud
    assert abs(peaks[1] - peaks[0]) <= 64_000, peaks


# ---------------------------------------------------------------------------
# the helper thread: alternate row blocks, the same bits as one thread
# ---------------------------------------------------------------------------

def _count_handoffs(monkeypatch):
    """Route _threads.both through a counter; returns the count list."""
    calls = []
    both = _threads.both

    def counted(here, there):
        calls.append(1)
        both(here, there)
    monkeypatch.setattr(_threads, "both", counted)
    return calls


def _atom_sums(cloud, pts):
    ev = gr.RankEvaluator(cloud)
    return [_bytes(ev.rank_many(pts)), _bytes(ev.divergence_many(pts)),
            _bytes(gr.poisson_smooth(cloud, pts, 0.1))]


# (block, atoms): one chunk of 40 atoms, two points per row block; chunks
# of 16 over 70 atoms, the last ragged, one point per row block
@pytest.mark.parametrize("block, n", [(80, 40), (16, 70)])
@pytest.mark.parametrize("row_blocks", [1, 3, 4, 5, 31])
@pytest.mark.parametrize("d", [2, 3])
def test_helper_thread_sums_have_the_bits_of_one_thread(
        monkeypatch, block, n, row_blocks, d):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", block)
    m_blk = block // min(n, block)
    cloud, pts = _cloud(20 + d, n, m_blk * (row_blocks - 1) + 1, d)
    monkeypatch.setattr(_threads, "_CPUS", 1)
    serial = _atom_sums(cloud, pts)
    monkeypatch.setattr(_threads, "_CPUS", 2)
    calls = _count_handoffs(monkeypatch)
    assert _atom_sums(cloud, pts) == serial
    # the helper takes a share once per chunk and sum, from 4 row blocks on
    chunks = -(-n // min(n, block))
    assert len(calls) == (3 * chunks if row_blocks >= 4 else 0)


def test_helper_error_reaches_the_caller_and_the_next_call_works(monkeypatch):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 16)
    monkeypatch.setattr(_threads, "_CPUS", 2)
    cloud, pts = _cloud(30, 16, 6, 2)
    ev = gr.RankEvaluator(cloud)
    on_atom = pts.copy()
    on_atom[3] = cloud.atoms[5]         # row block 3: the helper's share
    with pytest.raises(SingularityError) as info:
        ev.divergence_many(on_atom)
    assert any(e.name == "_serve" for e in info.traceback)
    got = _bytes(ev.divergence_many(pts))
    monkeypatch.setattr(_threads, "_CPUS", 1)
    assert got == _bytes(ev.divergence_many(pts))


def test_both_raises_the_helpers_exception_once_both_are_done(monkeypatch):
    monkeypatch.setattr(_threads, "_CPUS", 2)
    seen = {}

    def here():
        time.sleep(0.05)
        seen["here"] = threading.get_ident()

    def there():
        seen["there"] = threading.get_ident()
        raise SingularityError("on the helper")
    with pytest.raises(SingularityError, match="on the helper"):
        _threads.both(here, there)
    assert seen["here"] == threading.get_ident() != seen["there"]


def test_callers_errstate_holds_on_the_helper(monkeypatch):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 16)
    monkeypatch.setattr(_threads, "_CPUS", 2)
    cloud, pts = _cloud(31, 16, 6, 2)
    pts[5] = cloud.atoms[2]             # row block 5: the helper's share
    t = 1e-160                          # |x - z|^2 + t^2 is 1e-320 there
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            gr.poisson_smooth(cloud, pts, t)
        with pytest.raises(FloatingPointError):
            _threads.both(lambda: None,
                          lambda: np.power(np.array([1e-320]), -1.5))
    with np.errstate(over="ignore"):
        out = gr.poisson_smooth(cloud, pts, t)
    assert np.isinf(out[5]) and np.isfinite(np.delete(out, 5)).all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
def test_forked_child_starts_its_own_helper(monkeypatch):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 16)
    monkeypatch.setattr(_threads, "_CPUS", 1)
    cloud, pts = _cloud(32, 40, 9, 3)
    want = _bytes(rankfield._rank_sum(pts, cloud.atoms, cloud.weights))
    monkeypatch.setattr(_threads, "_CPUS", 2)
    rankfield._rank_sum(pts, cloud.atoms, cloud.weights)  # helper running
    assert _threads._jobs is not None
    with warnings.catch_warnings():
        # fork with a live helper thread is the case under test
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        ok = False
        try:
            fresh = _threads._jobs is None
            got = _bytes(rankfield._rank_sum(pts, cloud.atoms,
                                             cloud.weights))
            ok = fresh and _threads._jobs is not None and got == want
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish in 60 s")
        time.sleep(0.01)
    status = done[1]
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_a_call_on_the_helper_runs_serially(monkeypatch):
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 16)
    monkeypatch.setattr(_threads, "_CPUS", 2)
    cloud, pts = _cloud(33, 40, 9, 2)
    want = _bytes(rankfield._rank_sum(pts, cloud.atoms, cloud.weights))
    seen = {}

    def there():
        seen["parallel"] = _threads.parallel()
        seen["sum"] = _bytes(rankfield._rank_sum(pts, cloud.atoms,
                                                 cloud.weights))
    caller = threading.Thread(target=_threads.both,
                              args=(lambda: None, there))
    caller.start()
    caller.join(60.0)
    assert not caller.is_alive()
    assert seen == {"parallel": False, "sum": want}
    assert _threads.parallel()


def test_concurrent_callers_share_the_helper(monkeypatch):
    # more calling threads than CPUs, all queueing on the one helper, with
    # a short switch interval: each sum keeps the bits of one thread
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 64)
    clouds = [_cloud(40 + k, 30 + 7 * k, 23, 2 + k % 2) for k in range(6)]
    monkeypatch.setattr(_threads, "_CPUS", 1)
    want = [_bytes(rankfield._rank_sum(p, c.atoms, c.weights))
            for c, p in clouds]
    monkeypatch.setattr(_threads, "_CPUS", 2)
    got = [[] for _ in clouds]

    def work(k):
        c, p = clouds[k]
        for _ in range(20):
            got[k].append(_bytes(rankfield._rank_sum(p, c.atoms,
                                                     c.weights)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=work, args=(k,))
                   for k in range(len(clouds))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [[w] * 20 for w in want]
