"""Geometric quantiles: minimizers of the convex objective
O(x) = E[|x-Z| - |Z|] - alpha (u, x), located by damped Newton on the rank
equation R(x) = alpha u with a Weiszfeld-type fallback, or by 1-D root
finding on the radial profile when the measure is spherically symmetric.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSupportError, NonConvergenceError
from .measures import invert_g
from .rankfield import RankEvaluator, _pair_sums

_MAX_ITERS = 200
_ARMIJO = 1e-4


@dataclass(frozen=True)
class QuantileQuery:
    """Order alpha in [0,1) and unit direction u."""

    alpha: float
    u: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0,1), got {self.alpha}")
        u = np.asarray(self.u, dtype=float)
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise ValueError("direction u must be a unit vector")
        object.__setattr__(self, "u", u)


def objective(ev: RankEvaluator, q: QuantileQuery, x) -> float:
    """O(x) = sum_i w_i (|x - z_i| - |z_i|) - alpha (u, x), from the
    second-order pass.  A sum over atoms: an Empirical's, or a
    GenericDensity's Monte-Carlo sample (common random numbers); a closed
    form holds no atoms and raises UnsupportedVariantError.
    """
    return _newton_pass(ev, q, np.asarray(x, dtype=float))[0]


def _newton_pass(ev: RankEvaluator, q: QuantileQuery, x: np.ndarray):
    """objective(), ev.rank() and ev.jacobian() at x from one second-order
    rank pass; the Jacobian is None on an atom."""
    phi, rank, jac = ev.rank(x, second_order=True)
    return phi - q.alpha * float(np.dot(q.u, x)), rank, jac


def _newton_direction(J, F):
    """-J^{-1} F, or None where J is undefined (on an atom) or singular."""
    if J is None:
        return None
    try:
        return np.linalg.solve(J, -F)
    except np.linalg.LinAlgError:
        return None


def _weiszfeld_step(atoms, weights, alpha_u, x):
    """The Weiszfeld step from x; atoms within 1e-14 of x are left out."""
    row = np.empty(len(x) + 1)          # a block's numerator, denominator

    def block(_, dist, cols):
        w = np.divide(weights[cols], dist[0], out=np.zeros(dist.shape[1]),
                      where=dist[0] > 1e-14)
        row[:-1] = w @ atoms[cols]
        row[-1] = w.sum()
        return row
    out = _pair_sums(x[None, :], atoms, block, np.append(alpha_u, 0.0)[None])
    return out[0, :-1] / out[0, -1]


def _atom_minimizer(ev: RankEvaluator, alpha_u, x):
    """The atom z nearest x when it minimizes the objective, else None.

    At an atom the objective has the subgradient R(z) - alpha u + w_z B,
    with B the unit ball and w_z the weight at z: R(z) omits z's own term,
    because the kernel vanishes on the diagonal.  So z is the minimizer
    when |R(z) - alpha u| <= w_z, and then no point solves R(x) = alpha u.
    """
    atoms, weights = ev.atoms()
    # two passes of the engine, a chunk of atoms at a time: the first
    # nearest atom by the squared distances behind |x - z|, then the weights
    # of its exact copies in index order, summed once over the whole cloud
    best = [np.inf, 0]

    def nearest(diff, dist, cols):
        dd = np.einsum("kmn,kmn->mn", diff, diff, out=dist)[0]
        k = int(np.argmin(dd))
        if dd[k] < best[0]:
            best[:] = dd[k], cols.start + k
        return 0.0
    _pair_sums(x[None, :], atoms, nearest, np.zeros(1))
    z = atoms[best[1]].copy()
    copies = []

    def same(diff, _, cols):
        copies.append(weights[cols][np.all(diff[:, 0] == 0.0, axis=0)])
        return 0.0
    _pair_sums(z[None, :], atoms, same, np.zeros(1))
    w_z = float(np.concatenate(copies).sum())
    return z if np.linalg.norm(ev.rank(z) - alpha_u) <= w_z else None


def solve_quantile(ev: RankEvaluator, q: QuantileQuery,
                   tol: float = None, trace: list = None) -> np.ndarray:
    """Point x with |R(x) - alpha u| <= tol.

    Radial closed forms invert the monotone profile g by bracketed root
    finding.  Otherwise: damped Newton on F(x) = R(x) - alpha u from the
    coordinatewise median, with the analytic Jacobian and an Armijo
    backtracking line search on the convex objective, falling back to a
    Weiszfeld fixed-point step whenever the Newton step stalls or the
    Jacobian is singular or undefined (on an atom).  One second-order rank
    pass per trial point gives its objective, rank and Jacobian.  Where a
    Newton step is rejected, and before giving up, the atom nearest the
    iterate is returned when it passes the subgradient test of
    ``_atom_minimizer``: there the minimizer is an atom, and no point
    solves the rank equation.  When
    ``trace`` is a list, the objective value of every accepted iterate is
    appended to it; a NonConvergenceError carries the same values as
    ``history``.
    """
    if tol is not None and not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if ev.profile is not None:
        if q.alpha == 0.0:
            return np.zeros(ev.d)
        return invert_g(ev.profile, q.alpha) * q.u
    if tol is None:
        tol = 1e-8 if ev.sampled else 1e-10

    if ev.atoms_collinear:
        raise DegenerateSupportError(
            "atoms lie on a single line; the quantile is not unique")
    atoms, weights = ev.atoms()
    alpha_u = q.alpha * q.u
    history = [] if trace is None else trace
    start = len(history)
    x = ev.coordinatewise_median.copy()
    fx, rank, J = _newton_pass(ev, q, x)
    history.append(fx)
    for _ in range(_MAX_ITERS):
        F = rank - alpha_u
        res = float(np.linalg.norm(F))
        if res <= tol:
            return x
        step = None
        dx = _newton_direction(J, F)
        slope = float(np.dot(F, dx)) if dx is not None else np.nan
        if np.isfinite(slope) and slope < 0:
            t = 1.0
            for _ in range(40):
                cand = x + t * dx
                fc, rc, jc = _newton_pass(ev, q, cand)
                if fc <= fx + _ARMIJO * t * slope:
                    step, fx, rank, J = cand, fc, rc, jc
                    break
                t *= 0.5
        if step is None:
            z = _atom_minimizer(ev, alpha_u, x)
            if z is not None:
                return z
            cand = _weiszfeld_step(atoms, weights, alpha_u, x)
            fc, rc, jc = _newton_pass(ev, q, cand)
            if fc > fx + 1e-15 and np.linalg.norm(cand - x) > 1e-15:
                # Weiszfeld never increases the objective unless it landed on
                # an atom; nudge off and continue
                cand = cand + 1e-9 * (np.random.default_rng(0)
                                      .standard_normal(ev.d))
                fc, rc, jc = _newton_pass(ev, q, cand)
            step, fx, rank, J = cand, fc, rc, jc
        x = step
        history.append(fx)
    res = float(np.linalg.norm(rank - alpha_u))
    if res <= tol:
        return x
    z = _atom_minimizer(ev, alpha_u, x)
    if z is not None:
        return z
    raise NonConvergenceError(
        f"quantile solver stopped after {_MAX_ITERS} iterations with "
        f"residual {res:.3e}", residual=res, history=history[start:])


def rank_of_quantile_roundtrip(ev: RankEvaluator, q: QuantileQuery,
                               tol: float = None) -> float:
    """|R(Q(alpha u)) - alpha u| for the solved quantile; must be <= tol."""
    x = solve_quantile(ev, q, tol)
    return float(np.linalg.norm(ev.rank(x) - q.alpha * q.u))
