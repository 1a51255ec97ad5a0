"""Closed-form evaluators: detection bounds, rate bounds, throughput, and a
Monte-Carlo ergodic-rate estimate bracketed by the bounds.

Uses the 24-column scenario whose RIP constant is small enough to
enumerate exactly, so nothing here depends on an assumed delta.
"""

import numpy as np

from csra.bounds import (FadingModel, BoundInputs, bpdn_stability_constant,
                         detection_error_bounds, rate_lower_bound,
                         rate_upper_bound, aloha_throughput,
                         simulated_ergodic_rate, ser_rayleigh_bpsk)
from csra.config import SystemConfig
from csra.sensing import build_operator, rip_constant_exact


def enumerable_cfg(**kw):
    base = dict(n=4096, m=192, window_mode="random", t_cp=8, u_max=3, k1=1,
                k2=2, b_slots=3, alpha=0.5, snr_db=16.0, modulation="bpsk",
                bits_per_user=16, seed=901, trials=10, solver="cosamp",
                xi_thr=0.09)
    base.update(kw)
    return SystemConfig(**base)


cfg = enumerable_cfg()
report = rip_constant_exact(build_operator(cfg).materialize(), k=4)
print(f"exact RIP of the 192x24 operator: delta_4 = {report.delta_k:.4f} "
      f"(argmax support {report.support})")
c1 = bpdn_stability_constant(report.delta_k)
print(f"recovery stability constant c1(delta_4) = {c1:.2f}")

fading = FadingModel.from_taps(cfg.k1)
inputs = BoundInputs(delta_2k=report.delta_k, m=cfg.m, n=cfg.n,
                     alpha=cfg.alpha, sigma2=1e-6, k2=cfg.k2, xi=0.3)
det = detection_error_bounds(inputs, fading, cutoff_delta=0.1)
print(f"\ndetection bounds at 60 dB, norm threshold 0.3: "
      f"P_md <= {det.pmd:.3f}, P_fa <= {det.pfa:.3f} "
      f"(tail cutoff 0.1; the strict tail integral diverges: "
      f"{detection_error_bounds(inputs, fading).divergent})")

print(f"\nrate bracket over alpha (1000 trials each, certificate budget):")
for alpha in (0.3, 0.5, 0.7):
    cfg_a = enumerable_cfg(alpha=alpha)
    inp = BoundInputs(delta_2k=report.delta_k, m=cfg.m, n=cfg.n, alpha=alpha,
                      sigma2=cfg_a.sigma2, k2=cfg.k2, xi=0.3)
    est = simulated_ergodic_rate(cfg_a, trials=1000, delta_2k=report.delta_k)
    lower = rate_lower_bound(inp, fading, pmd=est.p_md_hat)
    upper = rate_upper_bound(inp, fading)
    print(f"  alpha={alpha}: {lower.value:.3f} <= {est.value:.3f} "
          f"(+-{est.stderr:.3f}) <= {upper:.3f} nats/subcarrier")

print("\nslotted-ALOHA throughput peaks at load = slot count:")
for b in (4, 16):
    grid = np.linspace(0, 5 * b, 401)
    vals = [aloha_throughput(x, b, 1.0, 1.0) for x in grid]
    print(f"  B={b:>2}: argmax lambda = {grid[int(np.argmax(vals))]:.2f}")

print("\nreference Rayleigh BPSK curve at a few mean SNRs:")
for g in (1.0, 10.0, 100.0):
    print(f"  gamma_bar={g:>6}: SER = {ser_rayleigh_bpsk(g):.5f}")
