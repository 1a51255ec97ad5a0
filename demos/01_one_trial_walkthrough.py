"""Walk one Monte-Carlo trial through the full chain, stage by stage.

Run with:  python demos/01_one_trial_walkthrough.py
"""

import numpy as np

from csra import desk_profile
from csra.config import slot_plan, trial_rng
from csra.bounds import noise_ball_radius
from csra.detection import detect_active, equalize_demodulate, tally
from csra.model import (build_pilot_book, draw_activity, draw_channels,
                        draw_data, transmit_receive)
from csra.recovery import bpdn
from csra.sensing import build_operator

cfg = desk_profile()
print(f"scenario: n={cfg.n}, window m={cfg.m} ({cfg.window_mode}), "
      f"{cfg.u_max} users, {cfg.k2} active, k1={cfg.k1} taps, "
      f"SNR {cfg.snr_db:.0f} dB, alpha={cfg.alpha}")

rng = trial_rng(cfg, trial_index=0)
pilots = build_pilot_book(cfg)
plan = slot_plan(cfg)    # row u: user u's payload subcarriers, (u_max, symbols_per_user)
op = build_operator(cfg, pilots=pilots)

active = draw_activity(cfg, rng)          # sorted user indices, (k2,)
taps = draw_channels(cfg, active, rng)    # one row of taps per user, (u_max, t_cp)
print(f"\nactive users: {active.tolist()}")
print("true channel energies:",
      np.round(np.sum(np.abs(taps[active]) ** 2, axis=1), 3).tolist())

bits = draw_data(cfg, active, rng)        # payload bits, (u_max, bits_per_user)
print(f"user {active[0]} sends its {cfg.bits_per_user} bits on subcarriers "
      f"{plan[active[0]].min()}-{plan[active[0]].max()}")
frame = transmit_receive(cfg, pilots, bits, taps, rng, plan=plan)
print(f"\nreceived frame: ||y_window|| = {np.linalg.norm(frame.y_window):.2f}, "
      f"window noise norm = {frame.noise_window_norm:.3f}")

eps = noise_ball_radius(cfg)
rec = bpdn(op, frame.y_window, eps)
print(f"\nbasis pursuit denoising: eps = {eps:.3f}, "
      f"{rec.iterations} iterations, residual = {rec.residual_norm:.3f}, "
      f"converged = {rec.converged}")
print("estimated energies (active):",
      np.round(rec.user_energies[active], 3).tolist())
inactive = np.setdiff1d(np.arange(cfg.u_max), active)
print(f"largest inactive energy: {rec.user_energies[inactive].max():.2e}")

detected = detect_active(rec.user_energies, cfg.xi_thr)
rx_bits, n_erased = equalize_demodulate(frame.y_freq, rec.h_hat, plan,
                                        detected, cfg.modulation)
metrics = tally(active, detected, bits, rx_bits, cfg.modulation,
                n_erased=n_erased)
print(f"\ndetection at xi_thr={cfg.xi_thr}: {len(detected)} users, "
      f"missed={metrics.n_md}, false alarms={metrics.n_fa}")
print(f"symbol error rate over the {cfg.k2 * cfg.symbols_per_user} "
      f"payload symbols: {metrics.ser:.4f}")
