"""Geometric quantiles: minimizers of the convex objective
O(x) = E[|x-Z| - |Z|] - alpha (u, x), located by damped Newton on the rank
equation R(x) = alpha u with a Weiszfeld-type fallback, or by 1-D root
finding on the radial profile when the measure is spherically symmetric.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSupportError, NonConvergenceError
from .measures import invert_g
from .rankfield import RankEvaluator, _pair_blocks

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
    """O(x) = sum_i w_i (|x - z_i| - |z_i|) - alpha (u, x).

    Exact for empirical measures; analytic measures use the evaluator's
    fixed Monte-Carlo cloud (common random numbers).
    """
    x = np.asarray(x, dtype=float)
    atoms, weights = ev.atoms()
    g = sum(float((dist[0] - ev.atom_norms[cols]) @ weights[cols])
            for _, cols, _, dist in _pair_blocks(x[None, :], atoms))
    return g - q.alpha * float(np.dot(q.u, x))


def _atoms_collinear(atoms: np.ndarray) -> bool:
    centered = atoms - atoms.mean(axis=0)
    if centered.shape[0] < 3:
        return True
    s = np.linalg.svd(centered, compute_uv=False)
    return s[1] <= 1e-12 * max(s[0], 1.0)


def _weiszfeld_step(atoms, weights, alpha_u, x):
    num, den = alpha_u.copy(), 0.0
    for _, cols, _, dist in _pair_blocks(x[None, :], atoms):
        w = np.divide(weights[cols], dist[0], out=np.zeros(dist.shape[1]),
                      where=dist[0] > 1e-14)
        num += w @ atoms[cols]
        den += w.sum()
    return num / den


def solve_quantile(ev: RankEvaluator, q: QuantileQuery,
                   tol: float = None, trace: list = None) -> np.ndarray:
    """Point x with |R(x) - alpha u| <= tol.

    Radial closed forms invert the monotone profile g by bracketed root
    finding.  Otherwise: damped Newton on F(x) = R(x) - alpha u with the
    analytic Jacobian and an Armijo backtracking line search on the convex
    objective, falling back to a Weiszfeld fixed-point step whenever the
    Newton step stalls or the Jacobian is singular.  When ``trace`` is a
    list, the objective value of every accepted iterate is appended to it.
    """
    if tol is None:
        tol = 1e-10 if ev.mode == "exact" else 1e-8
    if ev.mode == "radial":
        if q.alpha == 0.0:
            return np.zeros(ev.d)
        return invert_g(ev.profile, q.alpha) * q.u

    atoms, weights = ev.atoms()
    if _atoms_collinear(atoms):
        raise DegenerateSupportError(
            "atoms lie on a single line; the quantile is not unique")
    alpha_u = q.alpha * q.u
    x = np.median(atoms, axis=0).astype(float)
    fx = objective(ev, q, x)
    if trace is not None:
        trace.append(fx)
    for _ in range(_MAX_ITERS):
        F = ev.rank(x) - alpha_u
        res = float(np.linalg.norm(F))
        if res <= tol:
            return x
        step = None
        try:
            J = ev.jacobian(x)
            dx = np.linalg.solve(J, -F)
            slope = float(np.dot(F, dx))
            if np.isfinite(slope) and slope < 0:
                t = 1.0
                for _ in range(40):
                    cand = x + t * dx
                    fc = objective(ev, q, cand)
                    if fc <= fx + _ARMIJO * t * slope:
                        step = cand
                        fx = fc
                        break
                    t *= 0.5
        except np.linalg.LinAlgError:
            pass
        if step is None:
            cand = _weiszfeld_step(atoms, weights, alpha_u, x)
            fc = objective(ev, q, cand)
            if fc > fx + 1e-15 and np.linalg.norm(cand - x) > 1e-15:
                # Weiszfeld never increases the objective unless it landed on
                # an atom; nudge off and continue
                cand = cand + 1e-9 * (np.random.default_rng(0)
                                      .standard_normal(ev.d))
                fc = objective(ev, q, cand)
            step = cand
            fx = fc
        x = step
        if trace is not None:
            trace.append(fx)
    res = float(np.linalg.norm(ev.rank(x) - alpha_u))
    if res <= tol:
        return x
    raise NonConvergenceError(
        f"quantile solver stopped after {_MAX_ITERS} iterations with "
        f"residual {res:.3e}", residual=res)


def rank_of_quantile_roundtrip(ev: RankEvaluator, q: QuantileQuery,
                               tol: float = None) -> float:
    """|R(Q(alpha u)) - alpha u| for the solved quantile; must be <= tol."""
    x = solve_quantile(ev, q, tol)
    return float(np.linalg.norm(ev.rank(x) - q.alpha * q.u))
