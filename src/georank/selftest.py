"""Built-in consistency suite: constant identities, closed-form profile
identities, reconstruction spot checks, and quantile roundtrips.  Each check
is cheap (the whole suite runs in a few seconds) and returns a name, a
pass/fail flag, and the measured discrepancy.
"""

import numpy as np

from . import specfun
from .measures import RadialClosedForm, radial_profile
from .quantile import QuantileQuery, rank_of_quantile_roundtrip
from .rankfield import RankEvaluator
from .reconstruct import ReconstructionConfig, reconstruct_odd_local
from .depth import probability_content_surface, radial_content_oracle

# bound at module level so tests can monkeypatch a corrupted constant
gamma_d = specfun.gamma_d
gamma_fn = specfun.gamma_fn
c_ds = specfun.c_ds
lambda_dl = specfun.lambda_dl


def _check(name, err, tol):
    return {"name": name, "passed": bool(err <= tol), "error": float(err),
            "tolerance": float(tol)}


def run_selftest():
    """Run every check; returns (all_passed, results, notes)."""
    results = []

    # constant identities
    results.append(_check("gamma_d identity",
                          max(abs(gamma_d(d) * (2.0 ** d
                                                * np.pi ** ((d - 1) / 2.0)
                                                * gamma_fn((d + 1) / 2.0))
                                  - 1.0) for d in range(1, 11)), 1e-12))
    results.append(_check("gamma_d values (d=1,2,3)",
                          max(abs(gamma_d(1) - 0.5),
                              abs(gamma_d(2) - 1.0 / (2.0 * np.pi)),
                              abs(gamma_d(3) - 1.0 / (8.0 * np.pi))), 1e-12))
    results.append(_check("poisson kernel normalization (d=1..8)",
                          max(abs(2.0 * gamma_d(d + 1) * gamma_fn(d + 1.0)
                                  * np.pi ** ((d + 1) / 2.0)
                                  / gamma_fn((d + 1) / 2.0) - 1.0)
                              for d in range(1, 9)), 1e-12))
    results.append(_check("half-laplacian constant c_{2,1/2}",
                          abs(c_ds(2, 0.5) - 1.0 / (2.0 * np.pi)), 1e-12))
    results.append(_check("iterated-laplacian constants (even-d closure)",
                          max(abs(lambda_dl(d, (d - 2) // 2)
                                  - (gamma_fn(d - 1.0)
                                     / (2.0 ** ((d - 2) / 2.0)
                                        * gamma_fn(d / 2.0))) ** 2)
                              / lambda_dl(d, (d - 2) // 2)
                              for d in (4, 6, 8)), 1e-10))
    results.append(_check("gamma recurrence x*Gamma(x)=Gamma(x+1)",
                          max(abs(x * gamma_fn(x) / gamma_fn(x + 1.0) - 1.0)
                              for x in np.linspace(0.5, 19.0, 40)), 1e-11))

    # profile identities: h = g' + (d-1) g / r
    r = np.linspace(0.05, 20.0, 60)
    for fam in ("gaussian", "cauchy"):
        for d in (2, 3):
            p = radial_profile(RadialClosedForm(fam, d))
            err = np.max(np.abs(p.h(r) - (p.g_prime(r)
                                          + (d - 1) * p.g(r) / r)))
            results.append(_check(f"divergence profile identity "
                                  f"({fam}, d={d})", float(err), 1e-10))

    # odd-d analytic reconstruction
    rr = np.linspace(0.05, 5.0, 120)
    for fam in ("gaussian", "cauchy"):
        ev = RankEvaluator(RadialClosedForm(fam, 3))
        rep = reconstruct_odd_local(ev, ReconstructionConfig(
            method="odd-local", radii=rr))
        results.append(_check(f"local reconstruction, {fam} d=3",
                              rep.diagnostics["sup_rel_error"], 1e-10))

    # quantile inversion spot checks
    ev = RankEvaluator(RadialClosedForm("gaussian", 3))
    alpha = ev.profile.g(1.0)
    res = rank_of_quantile_roundtrip(
        ev, QuantileQuery(alpha, np.array([1.0, 0.0, 0.0])), tol=1e-8)
    results.append(_check("quantile roundtrip, gaussian d=3", res, 1e-8))
    ev = RankEvaluator(RadialClosedForm("cauchy", 2))
    res = rank_of_quantile_roundtrip(
        ev, QuantileQuery(np.sqrt(2.0) - 1.0, np.array([0.0, 1.0])),
        tol=1e-8)
    results.append(_check("quantile roundtrip, cauchy d=2", res, 1e-8))

    # probability content via the surface integral
    m = RadialClosedForm("gaussian", 3)
    got = probability_content_surface(RankEvaluator(m), 1.0)
    want = radial_content_oracle(m, 1.0)
    results.append(_check("ball content, gaussian d=3, R=1",
                          abs(got - want), 1e-6))

    # density convention note for the trivariate Cauchy family
    p3 = radial_profile(RadialClosedForm("cauchy", 3))
    squared = p3.f(1.0)
    unsquared = 1.0 / (np.pi ** 2 * 2.0)
    notes = [
        "trivariate cauchy density convention: using "
        f"(1/pi^2)(1+r^2)^-2 (value {squared:.7f} at r=1); the unsquared "
        f"variant (1/pi^2)(1+r^2)^-1 (value {unsquared:.7f} at r=1) is not "
        "integrable on R^3 and is rejected; reconstructing from "
        "h(r) = 4*arctan(r)/(pi*r) reproduces the squared form.",
    ]
    passed = all(c["passed"] for c in results)
    return passed, results, notes
