"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scenario constants below were verified once against their stated sources
(closed forms recomputed with independent oracles, Monte-Carlo scans of the
seeded scenarios) and then frozen; every run re-executes the full chain.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1

from csra import cli
from csra.config import SystemConfig, desk_profile
from csra.bounds import (FadingModel, BoundInputs, bpdn_stability_constant,
                         detection_error_bounds, rate_lower_bound,
                         rate_upper_bound, pilot_split_rate_gap,
                         aloha_throughput, simulated_ergodic_rate)
from csra.detection import roc_sweep
from csra.harness import run_trials, aggregate, sweep_alpha, validate
from csra.model import build_pilot_book, draw_activity, draw_channels
from csra.recovery import bpdn, cosamp, debias
from csra.sensing import DenseOperator, build_operator, rip_constant_exact


@pytest.fixture
def announce(capsys):
    def _announce(criterion, ok, detail):
        with capsys.disabled():
            print(f"[acceptance] criterion {criterion}: "
                  f"{'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"criterion {criterion}: {detail}"
    return _announce


def enumerable_cfg(**kw):
    """3 users x 8 taps: small enough for exact RIP enumeration at 2k = 4."""
    base = dict(n=4096, m=192, window_mode="random", t_cp=8, u_max=3, k1=1,
                k2=2, b_slots=3, alpha=0.5, snr_db=16.0, modulation="bpsk",
                bits_per_user=16, seed=901, trials=10, sensing_mode="plain",
                solver="cosamp", xi_thr=0.09)
    base.update(kw)
    return SystemConfig(**base)


def test_criterion_01_alpha_one_endpoint(announce):
    """Full pilot power: BPSK decisions are coin flips, SER = 0.50 +- 0.02.

    The endpoint is estimator-independent (zero data amplitude), so the
    desk profile runs with the fast greedy solver to hold the time budget.
    """
    cfg = desk_profile(alpha=1.0).with_(solver="cosamp")
    trials = 72                       # 72 * 10 * 14 = 10080 symbols
    agg = aggregate(run_trials(cfg, trials))
    ok = 0.48 <= agg["ser"] <= 0.52
    announce(1, ok, f"SER(alpha=1) = {agg['ser']:.4f} over "
                    f"{trials * cfg.k2 * cfg.symbols_per_user} symbols")


def test_criterion_02_ser_u_shape(announce):
    """SER vs alpha reproduces the one-shot curve's shape: starving the
    pilot starves the ell1 estimate, starving the data starves the slicer."""
    cfg = desk_profile()     # 200 trials per alpha
    rows, _ = sweep_alpha(cfg, (0.01, 0.31, 1.0))
    ser = {row[0]: row[1] for row in rows}
    ok = ser[0.31] < ser[0.01] / 3 and ser[0.31] < ser[1.0] / 50
    announce(2, ok, f"SER = {ser[0.01]:.5f} -> {ser[0.31]:.5f} -> {ser[1.0]:.5f}")


def test_criterion_03_roc_monotone_and_reachable(announce):
    """ROC re-thresholding is exactly monotone and reaches the target box
    P_md <= 1e-1, P_fa <= 1e-2 at desk scale."""
    cfg = desk_profile(alpha=0.7)
    records = run_trials(cfg, 200)
    grid = np.logspace(-4, 1, 26)
    points = roc_sweep(records, grid)
    p_md = np.array([p for _, p, _ in points])
    p_fa = np.array([p for _, _, p in points])
    monotone = (np.all(np.diff(p_md) >= -1e-15)
                and np.all(np.diff(p_fa) <= 1e-15))
    in_box = bool(np.any((p_md <= 1e-1) & (p_fa <= 1e-2)))
    best = int(np.argmax((p_md <= 1e-1) & (p_fa <= 1e-2)))
    announce(3, monotone and in_box,
             f"monotone={monotone}, box point xi={grid[best]:.4g} "
             f"(p_md={p_md[best]:.3f}, p_fa={p_fa[best]:.4f})")


def test_criterion_04_noiseless_exact_recovery(announce):
    """Noiseless toy: exact support recovery in >= 95/100 trials for both
    CoSaMP and BPDN+debias, in both window modes.

    n = 128 keeps the contiguous window at half the band, where the worst
    neighboring-delay column coherence is 0.64; at m/n = 1/4 and below the
    greedy prune limit-cycles on coherent clusters while ell1 still
    recovers (a property of the algorithms, not the operator).
    """
    results = {}
    for mode in ("contiguous", "random"):
        cfg = SystemConfig(n=128, m=64, window_mode=mode, t_cp=32, u_max=8,
                           k1=1, k2=5, b_slots=8, alpha=0.5, snr_db=np.inf,
                           modulation="bpsk", bits_per_user=8, seed=4040,
                           trials=100, sensing_mode="plain")
        op = build_operator(cfg)
        hits = {"cosamp": 0, "bpdn": 0}
        for t in range(100):
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(1, t)))
            act = draw_activity(cfg, rng)
            h = draw_channels(cfg, act, rng).compound
            y = op.apply(h)
            truth = set(np.flatnonzero(h))
            rec = cosamp(op, y, k=5)
            hits["cosamp"] += set(np.flatnonzero(rec.h_hat)) == truth
            refit = debias(op, y, bpdn(op, y, eps=0.0), k=5)
            hits["bpdn"] += set(np.flatnonzero(refit.h_hat)) == truth
        results[mode] = hits
    ok = all(v >= 95 for hits in results.values() for v in hits.values())
    announce(4, ok, f"hits/100: {results}")


def test_criterion_05_bpdn_error_certificate(announce):
    """100/100 tiny dense instances with enumerated delta_2k < sqrt(2)-1 and
    ||e|| <= eps satisfy ||h_hat - h|| <= c1(delta_2k) * eps."""
    rng = np.random.default_rng(50505)
    eps = 0.05
    rows = 200          # tall enough that every draw lands under sqrt(2)-1
    passed = 0
    produced = 0
    attempts = 0
    while produced < 100 and attempts < 200:
        attempts += 1
        mat = rng.standard_normal((rows, 20)) + 1j * rng.standard_normal((rows, 20))
        mat /= np.linalg.norm(mat, axis=0, keepdims=True)
        delta = rip_constant_exact(mat, 4).delta_k       # 2k with k = 2
        if delta >= math.sqrt(2) - 1:
            continue
        produced += 1
        h = np.zeros(20, dtype=complex)
        h[rng.choice(20, 2, replace=False)] = (rng.standard_normal(2)
                                               + 1j * rng.standard_normal(2))
        e = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        e *= eps / np.linalg.norm(e)
        rec = bpdn(DenseOperator(mat), mat @ h + e, eps, h_true=h)
        passed += rec.d_norm <= bpdn_stability_constant(delta) * eps
    ok = produced == 100 and passed == 100
    announce(5, ok, f"{passed}/{produced} instances within c1*eps "
                    f"({attempts} draws)")


def test_criterion_06_c1_anchor(announce):
    value = bpdn_stability_constant(0.2)
    ok = 8.4 <= value <= 8.5
    announce(6, ok, f"c1(0.2) = {value:.4f}")


def test_criterion_07_detection_bound_dominance(announce):
    """Empirical missed-detection/false-alarm rates never exceed the
    closed-form bounds where those are informative (< 1)."""
    cfg = enumerable_cfg(snr_db=60.0)
    delta = rip_constant_exact(build_operator(cfg).materialize(), 4).delta_k
    fading = FadingModel.from_taps(cfg.k1)
    xi_norm = 0.3
    inputs = BoundInputs(delta_2k=delta, m=cfg.m, n=cfg.n, alpha=cfg.alpha,
                         sigma2=cfg.sigma2, k2=cfg.k2, xi=xi_norm)
    det = detection_error_bounds(inputs, fading, cutoff_delta=0.1)
    records = run_trials(cfg, 1000)
    _, pmd_hat, pfa_hat = roc_sweep(records, [xi_norm ** 2])[0]
    informative = det.pmd < 1.0 and det.pfa < 1.0
    ok = informative and pmd_hat <= det.pmd and pfa_hat <= det.pfa
    announce(7, ok, f"pmd {pmd_hat:.4f} <= {det.pmd:.4f}, "
                    f"pfa {pfa_hat:.5f} <= {det.pfa:.4f} (delta={delta:.3f})")


def test_criterion_08_rate_bracket(announce):
    """Simulated ergodic rate sits between the closed-form bounds within
    three standard errors at alpha in {0.3, 0.5, 0.7}."""
    delta = rip_constant_exact(build_operator(enumerable_cfg()).materialize(),
                               4).delta_k
    fading = FadingModel.from_taps(1)
    details = []
    ok = True
    for alpha in (0.3, 0.5, 0.7):
        cfg = enumerable_cfg(alpha=alpha)
        inputs = BoundInputs(delta_2k=delta, m=cfg.m, n=cfg.n, alpha=alpha,
                             sigma2=cfg.sigma2, k2=cfg.k2, xi=0.3)
        est = simulated_ergodic_rate(cfg, trials=1000, delta_2k=delta)
        lower = rate_lower_bound(inputs, fading, pmd=est.p_md_hat)
        upper = rate_upper_bound(inputs, fading)
        ok &= (lower.value - 3 * est.stderr <= est.value
               <= upper + 3 * est.stderr)
        details.append(f"a={alpha}: {lower.value:.3f} <= {est.value:.3f}"
                       f"(+-{est.stderr:.3f}) <= {upper:.3f}")
    announce(8, ok, "; ".join(details))


def test_criterion_09_corollary_inequality(announce):
    """lhs <= rhs over the alpha grid for Exp(1) fading, with the alpha=0.5
    exponential-integral anchors matched to 1e-3."""
    fading = FadingModel.from_taps(1)
    holds = all(pilot_split_rate_gap(float(a), fading)[0]
                <= pilot_split_rate_gap(float(a), fading)[1] + 1e-6
                for a in np.linspace(0.0, 1.0, 11))
    lhs, rhs = pilot_split_rate_gap(0.5, fading)
    lhs_oracle = math.e * exp1(1.0)
    rhs_oracle = math.log(3) + math.exp(3) * exp1(3.0) - math.log(2)
    anchored = (abs(lhs - lhs_oracle) <= 1e-3 and abs(rhs - rhs_oracle) <= 1e-3)
    announce(9, holds and anchored,
             f"lhs={lhs:.4f} (oracle {lhs_oracle:.4f}), "
             f"rhs={rhs:.4f} (oracle {rhs_oracle:.4f})")


def test_criterion_10_throughput_peak(announce):
    anchor = abs(aloha_throughput(1.0, 1, 1.0, 1.0) - math.exp(-1.0)) <= 1e-12
    peaks_ok = True
    for b in (1, 4, 8):
        grid = np.linspace(0.0, 5.0 * b, 801)
        vals = [aloha_throughput(float(x), b, 1.0, 1.0) for x in grid]
        peaks_ok &= abs(grid[int(np.argmax(vals))] - b) <= (grid[1] - grid[0]) / 2 + 1e-12
    announce(10, anchor and peaks_ok,
             f"T(1,1,1,1)-1/e = {aloha_throughput(1.0, 1, 1.0, 1.0) - math.exp(-1.0):.2e}, "
             f"grid argmax at lambda = b_slots")


def test_criterion_11_oracle_equivalence(announce):
    checks = validate()
    by_name = {c.name: c for c in checks}
    required = ("fft_vs_direct_convolution", "matrix_free_vs_dense",
                "adjoint_identity")
    ok = all(c.passed for c in checks) and all(by_name[r].passed for r in required)
    exit_code = cli.main(["validate"])
    announce(11, ok and exit_code == 0,
             f"{sum(c.passed for c in checks)}/{len(checks)} checks pass, "
             f"validate exit {exit_code}")
