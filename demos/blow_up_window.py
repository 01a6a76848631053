"""Determinant zero crossings: immediate failure, bisected onset, safe windows.

Large residue coefficients push det(Gamma) through zero. The positivity
scan reports the first failing grid point when the window starts bad, or
bisects the onset time when positivity holds at t=0 and is lost later.
"""
import numpy as np

from kdvexact import ComplexPolePair, ScatteringSpec, Triplet
from kdvexact import build_triplet, make_evaluator
from kdvexact.errors import SpecValidationError
from kdvexact.verification import pde_residual, positivity_scan

S3 = np.sqrt(3.0)

# eps=3, gamma=0 makes det(0, 0) = 1 - 27/4 + 3/2 = -4.25: bad from the start
hot = ScatteringSpec(
    complex_poles=(ComplexPolePair(alpha=S3 / 2, beta=0.5,
                                   coefficients=((3.0, 0.0),)),),
    eta=0.0)
ev_hot = make_evaluator(build_triplet(hot))
scan = positivity_scan(ev_hot, x_horizon=10.0, t_horizon=1.0)
print(f"hot coefficients: certified={scan.certified} tau_lower={scan.tau_lower}")
print(f"  first failure at (x, t) = {scan.first_failure[:2]}, "
      f"det = {scan.first_failure[2]:.6f}  (exact value -4.25)")

# scalar sign-flip triplet: det = 1 - e^{8t - 2x}/2 crosses zero at
# x=0 when t = ln(2)/8
flip = Triplet(A=np.array([[1.0]]), B=np.array([[1.0]]), C=np.array([[-1.0]]))
ev_flip = make_evaluator(flip)
scan = positivity_scan(ev_flip, x_horizon=6.0, t_horizon=1.0)
t_star = np.log(2.0) / 8.0
print(f"sign-flip triplet: bisected onset tau = {scan.tau_lower:.10f}")
print(f"  exact ln(2)/8      = {t_star:.10f}   gap = {abs(scan.tau_lower - t_star):.2e}")

# residual checks still work on a window that stays clear of the zero set
grid = pde_residual(ev_flip, x_window=(1.5, 4.0), t_window=(0.0, 0.05),
                    n_x=7, n_t=3, h_x=1e-3)
print(f"pde residual on the safe window [1.5, 4] x [0, 0.05]: "
      f"max {grid.max_abs:.3e}")

# a stencil node landing on the zero set is rejected rather than silently wrong
x0 = 1.0
t_on_zero = (np.log(2.0) + 2.0 * x0) / 8.0
try:
    pde_residual(ev_flip, x_window=(x0 - 0.5, x0 + 0.5),
                 t_window=(t_on_zero - 0.01, t_on_zero + 0.01),
                 n_x=3, n_t=3, h_x=1e-3)
except SpecValidationError as exc:
    print(f"window touching the zero set is refused: {exc}")
