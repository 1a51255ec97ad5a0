"""Small SER-vs-alpha sweep at desk scale, written to CSV.

The full 11-point, 200-trial sweep is the `csra link-sim` CLI default; this
demo runs a 5-point, 40-trial version in about a minute. Expect the
U shape: bad at alpha=0.01 (the ell1 estimate starves), flat through the
middle, 0.5 at alpha=1 (no data power).
"""

from csra import desk_profile
from csra.harness import SweepSpec, sweep_alpha

cfg = desk_profile()
spec = SweepSpec((0.01, 0.11, 0.31, 0.71, 1.0), trials=40)
rows = sweep_alpha(cfg, spec, out_path="alpha_sweep_demo.csv")

print(f"{'alpha':>6} {'ser':>10} {'p_md':>8} {'p_fa':>8} {'discarded':>9}")
for alpha, ser, p_md, p_fa, trials, discarded, *_ in rows:
    print(f"{alpha:>6} {ser:>10.5f} {p_md:>8.4f} {p_fa:>8.4f} {discarded:>9}")
print("\nwrote alpha_sweep_demo.csv")
