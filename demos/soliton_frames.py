"""Two-soliton run: peak tracking, frame export, Hirota tau check.

Bound states (kappa, c) = (0.5, 1.0) and (1.0, 2.0). The triplet route's
det Gamma must reproduce Hirota's two-soliton tau-function
1 + T_1 + T_2 + T_12; the deeper soliton travels at 4 kappa^2 + eta and
overtakes the shallower one.
"""
import os
import tempfile

import numpy as np

from kdvexact import BoundState, ScatteringSpec
from kdvexact import build_triplet, make_evaluator, sample_grid
from kdvexact.documents import write_frame_csv
from kdvexact.verification import soliton_equivalence

states = (BoundState(kappa=0.5, c=1.0), BoundState(kappa=1.0, c=2.0))
eta = 0.0
spec = ScatteringSpec(bound_states=states, eta=eta)
ev = make_evaluator(build_triplet(spec))

eq = soliton_equivalence(ev, (0.0, 8.0), (0.0, 1.5), n_x=33, n_t=13)
print(f"triplet determinant vs Hirota tau: max deviation {eq.max_deviation:.3e} "
      f"at (x, t) = {eq.worst_point}")

xs = np.linspace(0.0, 12.0, 241)
print("deep-soliton peak position over time (speed 4 kappa^2 = 4)")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    us = np.array([ev.u(x, t) for x in xs])
    i = int(np.argmin(us))
    print(f"  t={t:4.2f}: min u = {us[i]:+.4f} at x = {xs[i]:.2f}")

# frame export, one x,u file per time slice
ts = np.linspace(0.0, 1.0, 5)
grid = sample_grid(ev, xs, ts)
with tempfile.TemporaryDirectory(prefix="kdv_frames_") as outdir:
    for i in range(ts.size):
        path = os.path.join(outdir, f"frame_{i:04d}.csv")
        with open(path, "w", newline="") as fh:
            write_frame_csv(fh, grid.x, grid.u[i])
    print(f"wrote {len(os.listdir(outdir))} frames to a temporary directory")

# the depth of an isolated soliton is -2 kappa^2 regardless of c
lone = make_evaluator(build_triplet(
    ScatteringSpec(bound_states=(BoundState(kappa=1.0, c=2.0),))))
x_star = np.log(2.0 / (2 * 1.0)) / (2 * 1.0)   # peak sits where c e^{-2 kappa x} = 2 kappa
print(f"single kappa=1 soliton: u at analytic peak = {lone.u(max(x_star, 0.0), 0.0):+.12f}"
      f" (expected -2)")
