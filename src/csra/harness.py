"""Experiment orchestration: seeded Monte-Carlo loops, sweeps, CSV emission,
and the oracle-equivalence validation suite.

Every CSV row carries the master seed and a config hash that reproduce it;
output bytes are independent of the parallelism degree (records are keyed
by trial index, and timing never reaches the CSVs).
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import (ConfigError, SystemConfig, SlotPlan, WINDOW_MODES,
                     config_hash, slot_plan, trial_rng)
from .model import (build_pilot_book, channel_gains, delay_block,
                    draw_activity, draw_channels, draw_data, transmit_receive)
from .sensing import (SensingOperator, DenseOperator, build_operator,
                      rip_constant_exact)
from .recovery import cosamp, bpdn
from .detection import detect_active, equalize_demodulate, tally, roc_sweep, TrialMetrics
from .bounds import (FadingModel, BoundInputs, detection_error_bounds,
                     rate_lower_bound, rate_upper_bound, aloha_throughput,
                     bpdn_stability_constant, margin_tail_integral,
                     pilot_split_rate_gap, noise_ball_radius, RATE_UNITS,
                     DELTA_MAX, PFA_BOUND_VARIANT)


# ---------------------------------------------------------------------------
# Trial records
# ---------------------------------------------------------------------------

# The stages of one trial that TrialRecord.stage_seconds times, in order:
# the random draws, the frame (transmit/receive), the recovery solve, and
# activity detection with demodulation and the tally.
STAGES = ("draws", "frame", "solve", "detect/demod/tally")


@dataclass(slots=True)
class TrialRecord:
    """One trial's metrics plus cached energies (for ROC re-thresholding).

    Sweeps and the benchmark hold every record of a run, so a record is
    kept small: slots, and the stage times as one float array."""

    trial_index: int
    metrics: TrialMetrics
    user_energies: np.ndarray
    active: np.ndarray
    solver_iterations: int
    solver_converged: bool
    history: list = field(default_factory=list)
    stage_seconds: np.ndarray = field(      # seconds per entry of STAGES
        default_factory=lambda: np.zeros(len(STAGES)))

    @property
    def elapsed(self) -> float:
        """Wall time of the trial, the sum of its stage times."""
        return float(self.stage_seconds.sum())


@dataclass(frozen=True)
class Scenario:
    """Scenario-level state shared by all trials of one config."""

    plan: SlotPlan
    op: SensingOperator       # holds the window and pilots
    eps: float


def make_scenario(cfg: SystemConfig) -> Scenario:
    pilots = build_pilot_book(cfg)
    op = build_operator(cfg, pilots)
    return Scenario(plan=slot_plan(cfg, pilots.window), op=op,
                    eps=noise_ball_radius(cfg))


def run_trial(cfg: SystemConfig, trial_index: int,
              scenario: Scenario | None = None) -> TrialRecord:
    """Full chain for one trial: activity -> channels -> data -> frame ->
    recovery -> detection -> demodulation -> tally. Deterministic per
    (cfg.seed, trial_index); solver non-convergence is recorded, never
    dropped."""
    if scenario is None:
        scenario = make_scenario(cfg)
    marks = [time.perf_counter()]
    rng = trial_rng(cfg, trial_index)
    activity = draw_activity(cfg, rng)
    channels = draw_channels(cfg, activity, rng)
    data = draw_data(cfg, activity, rng)
    marks.append(time.perf_counter())
    op = scenario.op
    frame = transmit_receive(cfg, op.pilots, data, channels, rng,
                             plan=scenario.plan)
    marks.append(time.perf_counter())
    discarded = False
    if cfg.solver == "cosamp":
        rec = cosamp(op, frame.y_window, k=max(cfg.k1 * cfg.k2, 1))
    else:
        rec = bpdn(op, frame.y_window, scenario.eps)
        discarded = frame.noise_window_norm > scenario.eps
    marks.append(time.perf_counter())
    detected = detect_active(rec.user_energies, cfg.xi_thr)
    rx_bits, n_erased = equalize_demodulate(frame.y_freq, rec.h_hat,
                                            scenario.plan, detected,
                                            cfg.modulation)
    metrics = tally(activity.active, detected, data.bits, rx_bits,
                    cfg.modulation, n_erased=n_erased, discarded=discarded)
    marks.append(time.perf_counter())
    return TrialRecord(trial_index=trial_index, metrics=metrics,
                       user_energies=rec.user_energies, active=activity.active,
                       solver_iterations=rec.iterations,
                       solver_converged=rec.converged, history=rec.history,
                       stage_seconds=np.diff(marks))


def _run_chunk(args):
    cfg, indices = args
    scenario = make_scenario(cfg)
    return [run_trial(cfg, i, scenario) for i in indices]


def run_trials(cfg: SystemConfig, n_trials: int, threads: int = 1) -> list[TrialRecord]:
    """Trial-parallel chunked map; results are identical for any degree of
    parallelism (pure per-trial streams, records sorted by index)."""
    indices = list(range(n_trials))
    if threads <= 1 or n_trials <= 1:
        return _run_chunk((cfg, indices))
    from concurrent.futures import ProcessPoolExecutor   # off the import path
    chunks = [c.tolist() for c in np.array_split(indices, min(threads, n_trials))]
    # a fork pool starts all its workers up front: one per chunk
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(_run_chunk, [(cfg, c) for c in chunks]))
    records = [r for part in parts for r in part]
    records.sort(key=lambda r: r.trial_index)
    return records


def aggregate(records: list[TrialRecord]) -> dict:
    """Batch averages; discarded trials are excluded from the averages and
    reported as a count. The solver figures (non-converged solves, iteration
    mean and max), the summed trial time and its split over STAGES cover
    every trial."""
    kept = [r for r in records if not r.metrics.discarded]
    sers = [r.metrics.ser for r in kept if not math.isnan(r.metrics.ser)]
    sers_det = [r.metrics.ser_detected_only for r in kept
                if not math.isnan(r.metrics.ser_detected_only)]
    p_md = [r.metrics.n_md / r.metrics.n_active_true
            for r in kept if r.metrics.n_active_true > 0]
    u_max = len(records[0].user_energies) if records else 0
    p_fa = [r.metrics.n_fa / (u_max - r.metrics.n_active_true)
            for r in kept if u_max - r.metrics.n_active_true > 0]
    iterations = [r.solver_iterations for r in records]
    stage_total = sum((r.stage_seconds for r in records), np.zeros(len(STAGES)))
    mean = lambda xs: float(np.mean(xs)) if xs else float("nan")
    return {"ser": mean(sers), "ser_detected_only": mean(sers_det),
            "p_md": mean(p_md), "p_fa": mean(p_fa),
            "discarded": len(records) - len(kept), "trials": len(records),
            "nonconverged": sum(not r.solver_converged for r in records),
            "iterations_mean": mean(iterations),
            "iterations_max": max(iterations, default=0),
            "elapsed": sum(r.elapsed for r in records),
            "stage_seconds": dict(zip(STAGES, stage_total.tolist()))}


# ---------------------------------------------------------------------------
# CSV emission (repr-of-float cells: shortest round-trip, byte-stable)
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


LINK_HEADER = ["alpha", "ser", "p_md", "p_fa", "trials", "discarded", "seed",
               "ser_detected_only", "cfg_hash"]
ROC_HEADER = ["xi", "p_md", "p_fa", "trials", "alpha", "seed", "cfg_hash"]
BOUNDS_HEADER = ["alpha", "delta2k", "m", "n", "sigma2", "xi", "pmd_bound",
                 "pfa_bound_variant", "pfa_bound", "rate_lower_raw",
                 "rate_lower", "rate_upper", "units", "cfg_hash"]
THROUGHPUT_HEADER = ["lam", "b_slots", "pr_rate", "rate", "throughput"]


def _check_grid(grid) -> tuple[float, ...]:
    """A sweep grid as floats: non-empty, strictly increasing and from 0 up
    (a NaN fails every comparison, so it fails the check)."""
    g = tuple(float(v) for v in grid)
    if not (g and g[0] >= 0.0 and all(b > a for a, b in zip(g, g[1:]))):
        raise ConfigError("sweep grid must be non-empty, strictly increasing "
                          f"and >= 0, got {list(g)}")
    return g


def sweep_alpha(cfg: SystemConfig, alphas, out_path=None,
                threads: int = 1) -> tuple[list[list], list[list[TrialRecord]]]:
    """Link-simulation sweep over the pilot power fraction, cfg.trials
    trials per point. Every point's config is built before any trial runs.
    Returns the rows and, per grid point, its records."""
    cfgs = [cfg.with_(alpha=alpha) for alpha in _check_grid(alphas)]
    rows, batches = [], []
    for cfg_a in cfgs:
        records = run_trials(cfg_a, cfg.trials, threads)
        agg = aggregate(records)
        rows.append([cfg_a.alpha, agg["ser"], agg["p_md"], agg["p_fa"],
                     cfg.trials, agg["discarded"], cfg.seed,
                     agg["ser_detected_only"], config_hash(cfg_a)])
        batches.append(records)
    if out_path is not None:
        write_csv(out_path, LINK_HEADER, rows)
    return rows, batches


def sweep_roc(cfg: SystemConfig, xis, out_path=None,
              threads: int = 1) -> tuple[list[list], list[TrialRecord]]:
    """cfg.trials trials, one solve each, then re-threshold the cached
    energies over the xi grid. Returns the rows and the records."""
    grid = _check_grid(xis)
    records = run_trials(cfg, cfg.trials, threads)
    h = config_hash(cfg)
    rows = [[xi, p_md, p_fa, cfg.trials, cfg.alpha, cfg.seed, h]
            for xi, p_md, p_fa in roc_sweep(records, grid)]
    if out_path is not None:
        write_csv(out_path, ROC_HEADER, rows)
    return rows, records


def emit_bounds(cfg: SystemConfig, alpha_grid, xi: float, delta_2k: float,
                cutoff_delta: float = 0.0, out_path=None) -> list[list]:
    """Closed-form bound rows over an alpha grid, under the fading law of
    cfg.k1 taps. xi is on the channel-norm scale; rate_lower consumes the
    (clamped) pmd bound of the same row."""
    fading = FadingModel.from_taps(cfg.k1)
    h = config_hash(cfg)
    rows = []
    for alpha in alpha_grid:
        inputs = BoundInputs(delta_2k=delta_2k, m=cfg.m, n=cfg.n,
                             alpha=float(alpha), sigma2=cfg.sigma2, k2=cfg.k2,
                             xi=xi)
        det = detection_error_bounds(inputs, fading, cutoff_delta)
        lower = rate_lower_bound(inputs, fading, pmd=det.pmd)
        upper = rate_upper_bound(inputs, fading)
        rows.append([float(alpha), delta_2k, cfg.m, cfg.n, cfg.sigma2, xi,
                     det.pmd, PFA_BOUND_VARIANT, det.pfa, lower.raw,
                     lower.value, upper, RATE_UNITS, h])
    if out_path is not None:
        write_csv(out_path, BOUNDS_HEADER, rows)
    return rows


def emit_throughput(lambda_grid, b_slots: int, pr_rate: float, rate: float,
                    out_path=None) -> list[list]:
    rows = [[float(lam), b_slots, pr_rate, rate,
             aloha_throughput(float(lam), b_slots, pr_rate, rate)]
            for lam in lambda_grid]
    if out_path is not None:
        write_csv(out_path, THROUGHPUT_HEADER, rows)
    return rows


def dump_recovery_diagnostics(record: TrialRecord, path) -> None:
    """Per-trial solver trace: iteration, residual_norm, sparsity."""
    write_csv(path, ["iteration", "residual_norm", "sparsity"],
              [[it, res, nnz] for it, res, nnz in record.history])


# ---------------------------------------------------------------------------
# Validation suite (oracle equivalences) -- `csra validate`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def adjoint_mismatch(op, rng: np.random.Generator) -> float:
    """max over 100 random (x, y) of |<Ax,y> - <x,A*y>| / max(1, |<Ax,y>|)."""
    worst = 0.0
    m, n_cols = op.shape
    for _ in range(100):
        x = rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols)
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        lhs = np.vdot(y, op.apply(x))
        rhs = np.vdot(op.adjoint(y), x)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


def _toy_config(**overrides) -> SystemConfig:
    base = dict(n=256, m=64, window_mode="random", t_cp=32, u_max=8, k1=1,
                k2=5, b_slots=8, alpha=0.5, snr_db=20.0, modulation="bpsk",
                bits_per_user=16, seed=777, trials=10)
    base.update(overrides)
    return SystemConfig(**base)


def _check_fft_convolution() -> CheckResult:
    """The chain's channel gains against a direct cyclic convolution: for
    y = circ(h) s, fft(y)[f] = g(f) fft(s)[f] at every subcarrier f, with g
    from channel_gains both computed and read from a delay_block."""
    rng = np.random.default_rng(101)
    n, t_cp = 16, 6
    worst = 0.0
    for _ in range(20):
        taps = np.zeros(t_cp, dtype=complex)
        nz = rng.choice(t_cp, rng.integers(1, t_cp + 1), replace=False)
        taps[nz] = rng.standard_normal(len(nz)) + 1j * rng.standard_normal(len(nz))
        padded = np.concatenate([taps, np.zeros(n - t_cp)])
        circ = padded[(np.arange(n)[:, None] - np.arange(n)) % n]
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        subs = np.sort(rng.choice(n, 5, replace=False))
        y_hat = np.fft.fft(circ @ s)[subs]
        s_hat = np.fft.fft(s)[subs]
        for g in (channel_gains(taps, subs, n),
                  channel_gains(taps, subs, n, block=delay_block(subs, t_cp, n))):
            worst = max(worst, float(np.max(np.abs(g * s_hat - y_hat))))
    return CheckResult("fft_vs_direct_convolution", worst <= 1e-9,
                       f"max deviation {worst:.3e}")


def dense_reference(op: SensingOperator) -> np.ndarray:
    """The operator's matrix from its definition through full-band FFTs,
    independent of its own blocks: column (u, t) is
    window_values[u] * fft(e_t, n)[window]."""
    delay_spectra = np.fft.fft(np.eye(op.t_cp), op.n, axis=1)[:, op.window]
    columns = op.pilots.window_values[:, None, :] * delay_spectra
    return columns.reshape(op.u_max * op.t_cp, op.m).T


def _check_operator_dense() -> CheckResult:
    rng = np.random.default_rng(102)
    worst = 0.0
    for mode in WINDOW_MODES:
        op = build_operator(_toy_config(window_mode=mode))
        dense = dense_reference(op)
        for _ in range(10):
            h = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
            delta = np.abs(op.apply(h) - dense @ h)
            worst = max(worst, float(np.max(delta) / max(1.0, np.max(np.abs(dense @ h)))))
    return CheckResult("matrix_free_vs_dense", worst <= 1e-10,
                       f"max relative deviation {worst:.3e}")


def _check_adjoint() -> CheckResult:
    rng = np.random.default_rng(103)
    worst = max(adjoint_mismatch(build_operator(_toy_config(window_mode=m)), rng)
                for m in WINDOW_MODES)
    return CheckResult("adjoint_identity", worst <= 1e-10,
                       f"max mismatch {worst:.3e}")


def _check_rip_monotone() -> CheckResult:
    rng = np.random.default_rng(104)
    mat = rng.standard_normal((12, 16)) + 1j * rng.standard_normal((12, 16))
    deltas = [rip_constant_exact(mat, k).delta_k for k in (1, 2, 3)]
    ok = all(deltas[i] <= deltas[i + 1] + 1e-12 for i in range(2))
    return CheckResult("rip_monotone", ok, f"deltas {deltas}")


# Five seeded Gaussian draws, tall enough that delta_4 < sqrt(2) - 1 and the
# certificate applies: 192 x 16 draws give delta_4 0.28-0.34, where 16 x 20
# draws gave 1.11-1.32 and certified nothing.
_CERTIFICATE_SHAPE = (192, 16)


def _check_bpdn_certificate() -> CheckResult:
    rng = np.random.default_rng(105)
    rows, cols = _CERTIFICATE_SHAPE
    ok = True
    certified = 0
    detail = []
    for _ in range(5):
        mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        mat /= np.linalg.norm(mat, axis=0, keepdims=True)
        delta = rip_constant_exact(mat, 4).delta_k
        if delta >= DELTA_MAX:
            detail.append(f"delta_4 {delta:.2f} uncertified")
            continue
        c1 = bpdn_stability_constant(delta)
        h = np.zeros(cols, dtype=complex)
        h[rng.choice(cols, 2, replace=False)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        noise = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        noise *= 1e-3 / np.linalg.norm(noise)
        eps = 1e-3
        rec = bpdn(DenseOperator(mat), mat @ h + noise, eps)
        d_norm = float(np.linalg.norm(rec.h_hat - h))
        ok &= d_norm <= c1 * eps
        certified += 1
        detail.append(f"{d_norm:.2e}<={c1 * eps:.2e}")
    # a check that certifies no draw has tested nothing
    return CheckResult("bpdn_error_certificate", ok and certified > 0,
                       "; ".join(detail))


def _check_throughput_peak() -> CheckResult:
    b = 4
    grid = np.linspace(0.0, 5 * b, 401)
    vals = [aloha_throughput(x, b, 1.0, 1.0) for x in grid]
    peak = grid[int(np.argmax(vals))]
    anchor = abs(aloha_throughput(1.0, 1, 1.0, 1.0) - math.exp(-1.0)) <= 1e-12
    ok = abs(peak - b) <= (grid[1] - grid[0]) / 2 + 1e-12 and anchor
    return CheckResult("throughput_peak", ok, f"argmax {peak} vs slots {b}")


def _check_corollary() -> CheckResult:
    ok = True
    worst = -math.inf
    for fading in (FadingModel.from_taps(1), FadingModel.from_taps(4)):
        for alpha in np.linspace(0.0, 1.0, 6):
            lhs, rhs = pilot_split_rate_gap(float(alpha), fading)
            worst = max(worst, lhs - rhs)
            ok &= lhs <= rhs + 1e-6
    return CheckResult("corollary_inequality", ok, f"max lhs-rhs {worst:.3e}")


def _check_cr_divergence() -> CheckResult:
    val = margin_tail_integral(0.5, FadingModel.from_taps(2), cutoff_delta=0.0)
    return CheckResult("tail_integral_divergence_flag", math.isinf(val),
                       f"cutoff->0 value {val}")


def validate() -> list[CheckResult]:
    """Oracle-equivalence suite; all checks must pass on a fresh checkout."""
    return [
        _check_fft_convolution(),
        _check_operator_dense(),
        _check_adjoint(),
        _check_rip_monotone(),
        _check_bpdn_certificate(),
        _check_throughput_peak(),
        _check_corollary(),
        _check_cr_divergence(),
    ]
