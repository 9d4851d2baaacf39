#!/usr/bin/env python3
"""Recovering a density from its rank field in odd dimension (d = 3).

In odd dimensions the recovery operator gamma_d (-Delta)^{(d-1)/2} div is
purely local.  For a radial measure it collapses to one scalar equation,
f(r) = -gamma_3 (h''(r) + 2 h'(r)/r) with h the divergence profile, which we
evaluate analytically; the same operator applied with finite differences to
a sampled rank grid converges at the order of the stencils.
"""

import numpy as np

import georank as gr

print("=== analytic radial pipeline ===")
radii = np.linspace(0.0, 4.0, 9)
for fam in ("gaussian", "cauchy"):
    ev = gr.RankEvaluator(gr.RadialClosedForm(fam, 3))
    rep = gr.reconstruct_odd_local(ev, gr.ReconstructionConfig(radii=radii))
    print(f"  {fam} d=3:  r, f_hat(r), f(r):")
    for r, fh, fr in zip(radii, rep.f_hat, rep.f_reference):
        print(f"    {r:4.1f}  {fh:.8f}  {fr:.8f}")
    print(f"  sup relative error {rep.diagnostics['sup_rel_error']:.2e}, "
          f"negativity mass {rep.diagnostics['negativity_mass']:.1e}")
    rep.save_curve_csv(f"odd_local_{fam}_d3.csv")
    print(f"  curve written to odd_local_{fam}_d3.csv")
    print()

print("=== grid pipeline: finite differences on a sampled rank field ===")
ev = gr.RankEvaluator(gr.RadialClosedForm("gaussian", 3))
prof = ev.profile
for nodes in (31, 61):
    rep = gr.reconstruct_odd_local(ev, gr.ReconstructionConfig(
        grid_box=(-3.0, 3.0), grid_nodes=nodes, force_grid=True,
        coarse_check=False))
    pts = rep.grid.nodes()
    inner = np.all(np.abs(pts) <= 2.0, axis=1)
    err = np.abs(rep.grid.values.ravel()[inner]
                 - prof.f(np.linalg.norm(pts[inner], axis=1)))
    h = rep.grid.spacing
    print(f"  {nodes:3d} nodes per axis (h = {h:.3f}): "
          f"sup err / f(0) = {np.max(err) / prof.f(0.0):.3e}")
print("  the error drops by ~4x when h halves: second-order stencils")

print()
print("=== an empirical cloud: the identity in the weak form ===")
rng = np.random.default_rng(1)
cloud = gr.Empirical(rng.standard_normal((40, 3)))
ev = gr.RankEvaluator(cloud)
try:
    gr.reconstruct_odd_local(ev, gr.ReconstructionConfig(force_grid=True))
except gr.ConfigError as exc:
    print(f"  grid route refused: {exc}")
psi = gr.PolynomialBump([0.0, 0.0, 0.0], 1.5)
mass = float(np.dot(psi.value(cloud.atoms), cloud.weights))
res = gr.verify_identity_on_test_function(psi, ev)
print(f"  <P, psi> over 40 atoms:           {mass:.10f}")
print(f"  |<P, psi> - <R, L^dagger psi>|:  {res:.2e}")
print("  a sum of point masses has no density to evaluate, but the operator")
print("  still recovers P paired with every smooth compactly supported psi")
