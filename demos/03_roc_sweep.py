"""Detection operating curve: one solve per trial, re-thresholded over xi.

Sweeping the decision threshold trades missed detections against false
alarms; re-thresholding cached energies makes the curve exactly monotone.
"""

import numpy as np

from csra import desk_profile
from csra.harness import SweepSpec, sweep_roc

cfg = desk_profile(alpha=0.7)
grid = np.logspace(-4, 0.5, 16)
rows = sweep_roc(cfg, SweepSpec(tuple(grid), trials=60),
                 out_path="roc_demo.csv")

print(f"alpha = {cfg.alpha}, {60} trials, {cfg.k2} of {cfg.u_max} active")
print(f"{'xi':>10} {'p_md':>8} {'p_fa':>8}")
for xi, p_md, p_fa, *_ in rows:
    marker = "  <- inside the P_md<=0.1, P_fa<=0.01 box" \
        if p_md <= 0.1 and p_fa <= 0.01 else ""
    print(f"{xi:>10.4g} {p_md:>8.4f} {p_fa:>8.4f}{marker}")
print("\nwrote roc_demo.csv")
