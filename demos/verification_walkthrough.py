"""Every verification layer run by hand on one mixed solution.

Spec: one oscillatory pole pair plus one bound state, eta = 1. Checks,
in order: pointwise PDE residual, h-refinement of that residual, the
Marchenko integral equation at random (x, y, t), the Fourier quadrature
cross-check of the kernel generator, and a determinant positivity scan.
Each outcome is then printed as a PASS/FAIL line against its threshold.
"""
import numpy as np

from kdvexact import BoundState, ComplexPolePair, ScatteringSpec
from kdvexact import build_triplet, make_evaluator
from kdvexact.verification import (marchenko_residual, omega_quadrature_check,
                                   pde_residual, pde_residual_refinement,
                                   positivity_scan)

spec = ScatteringSpec(
    complex_poles=(ComplexPolePair(alpha=np.sqrt(3.0) / 2, beta=0.5,
                                   coefficients=((0.4, 0.25),)),),
    bound_states=(BoundState(kappa=1.5, c=2.0),),
    eta=1.0)
ev = make_evaluator(build_triplet(spec))
print(f"triplet size P = {ev.P}, eta = {ev.eta}")

scan = pde_residual(ev, x_window=(1.5, 4.0), t_window=(0.0, 0.05),
                    n_x=9, n_t=4, h_x=1e-3)
print(f"pde residual: max {scan.max_abs:.3e} on a {scan.residual.shape} grid "
      f"(h_x={scan.h_x:g}, auto h_t={scan.h_t:.3e})")

ref = pde_residual_refinement(ev, x_window=(1.5, 4.0), t_window=(0.0, 0.1))
print("refinement ladder:")
for h, m in zip(ref.levels, ref.max_residuals):
    print(f"  h_x={h:<8g} max residual {m:.3e}")
print(f"  ratios {tuple(round(r, 2) for r in ref.ratios)}, "
      f"fourth_order={ref.fourth_order}")

# the residual is absolute; the kappa=1.5 block grows like e^{30 t}, so
# keep t where K and Omega are O(1) or the identity drowns in rounding
# one call takes every sample: they share the quadrature's nodes
rng = np.random.default_rng(5)
samples = []
for _ in range(8):
    x, y = np.sort(rng.uniform(0.0, 2.5, size=2))
    samples.append((x, y, rng.uniform(0.0, 0.25)))
x, y, t = np.array(samples).T
worst = float(np.max(np.abs(marchenko_residual(ev, x, y, t))))
print(f"marchenko residual over 8 random (x, y, t): worst {worst:.3e}")

omega_checks = omega_quadrature_check(spec, ys=(0.5, 1.0, 2.0))
for c in omega_checks:
    print(f"omega quadrature y={c.y}: quad {c.quadrature:+.10f} "
          f"closed form {c.reference:+.10f} error {c.error:.3e}")

pos = positivity_scan(ev, x_horizon=15.0, t_horizon=10.0)
print(f"positivity: certified={pos.certified} up to t={pos.tau_lower}")

# (name, passed, measured, threshold, detail)
checks = (
    ("pdeResidual", scan.max_abs <= 1e-5, scan.max_abs, 1e-5, ""),
    ("pdeRefinement", ref.fourth_order, min(ref.orders), 3.0, "observed order, want >= 3"),
    ("marchenkoResidual", worst <= 1e-8, worst, 1e-8, ""),
    ("omegaQuadrature", max(c.error for c in omega_checks) <= 1e-6,
     max(c.error for c in omega_checks), 1e-6, ""),
    ("positivityScan", pos.certified, pos.tau_lower, 10.0, "tau lower bound, want horizon"),
)
print()
for name, passed, measured, threshold, detail in checks:
    extra = f" ({detail})" if detail else ""
    print(f"{'PASS' if passed else 'FAIL'} {name}: {measured:.6e} vs {threshold:.1e}{extra}")
print(f"overall: {'PASS' if all(c[1] for c in checks) else 'FAIL'}")
