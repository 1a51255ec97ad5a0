"""The three benchmark workloads and their correctness gate.

Each workload is a closed loop of rounds run from one process through the
harness's serial path (`run_trial` over one scenario, as `run_trials` does
with threads=1). The workload seed only chooses which trials run; the
program receives nothing but the generated configs. Every round also
evaluates one closed-form bound row, so that row timings spread over the
run like trial timings do.

The gate compares every output against references frozen at the seed
commit (`references.json`, written by `freeze.py`).
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from csra import bounds, config, detection, harness
from csra.cli import DEFAULT_ALPHAS, DEFAULT_XIS

XI_GRID = tuple(float(x) for x in DEFAULT_XIS.split(","))   # `csra roc` default
BOUNDS_ALPHAS = tuple(float(a) for a in DEFAULT_ALPHAS.split(","))
BOUNDS_XI_NORM = 0.3          # `csra bounds` defaults
BOUNDS_DELTA2K = 0.2
BOUNDS_CUTOFF = 0.0

# A change that only alters round-off can flip a decision whose statistic
# sits at its threshold to within round-off. Such near-ties are rare:
# perturbing every estimated tap by 1e-3 (relative) flipped no decision in
# 12 desk and LTE trials, and by 1e-2 it flipped no detection and 0.05-0.18 %
# of symbol decisions. A broken chain flips a large share. Monte-Carlo
# outputs are therefore compared in flipped decisions: 2 plus 0.2 % of the
# detection decisions, or 0.05 % of the symbol decisions, the run made.
FLIP_FLOOR = 2
DETECTION_FLIP_SHARE = 0.002
SYMBOL_FLIP_SHARE = 0.0005
# A rate estimate averages k2 * trials users; one flipped detection moves it
# by about one user's rate / (k2 * trials), far below half a standard error
# for the few flips allowed above.
RATE_STDERR_SHARE = 0.5
RATE_STDERR_RTOL = 0.1
# Closed forms are deterministic quadratures: only round-off may differ.
BOUND_RTOL = 1e-9
BOUND_ATOL = 1e-12


def flip_allowance(decisions: int,
                   share: float = DETECTION_FLIP_SHARE) -> int:
    return FLIP_FLOOR + math.ceil(share * decisions)


def trial_summary(rec) -> list:
    """Per-trial outputs the gate compares: ser, n_md, n_fa, discarded."""
    m = rec.metrics
    return [float(m.ser), int(m.n_md), int(m.n_fa), int(m.discarded)]


def enumerable_cfg(**kw) -> config.SystemConfig:
    """The criteria 7-8 scenario: 3 users x 8 taps, exact RIP enumerable."""
    base = dict(n=4096, m=192, window_mode="random", t_cp=8, u_max=3, k1=1,
                k2=2, b_slots=3, alpha=0.5, snr_db=16.0, modulation="bpsk",
                bits_per_user=16, seed=901, trials=10, sensing_mode="plain",
                solver="cosamp", xi_thr=0.09)
    base.update(kw)
    return config.SystemConfig(**base)


@dataclass
class Outcome:
    """What one run measured and produced."""

    trial_s: list = field(default_factory=list)      # per link trial
    iterations: list = field(default_factory=list)   # per link trial
    records: dict = field(default_factory=dict)      # scenario -> [(idx, record)]
    rate_trials: int = 0
    rate_s: float = 0.0
    rates: list = field(default_factory=list)        # (cfg seed, alpha, estimate)
    roc: list = field(default_factory=list)          # (key, points)
    bound_rows: list = field(default_factory=list)
    row_s: list = field(default_factory=list)        # per bound row
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.trial_s) + self.rate_trials

    @property
    def trial_time_s(self) -> float:
        return sum(self.trial_s) + self.rate_s


# ---------------------------------------------------------------------------
# Operations: each is timed, counted as attempted, and never fatal
# ---------------------------------------------------------------------------

def run_link_trial(out: Outcome, key, cfg, idx: int, scenario) -> None:
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        rec = harness.run_trial(cfg, idx, scenario)
    except Exception as exc:
        out.failed += 1
        out.problems.append(f"{key} trial {idx} raised {exc!r}")
        return
    out.trial_s.append(time.perf_counter() - t0)
    out.iterations.append(rec.solver_iterations)
    out.records.setdefault(key, []).append((idx, rec))
    if not rec.solver_converged:
        out.failed += 1


def run_rate(out: Outcome, cfg, trials: int) -> None:
    out.attempted += trials
    t0 = time.perf_counter()
    try:
        est = bounds.simulated_ergodic_rate(cfg, trials, BOUNDS_DELTA2K)
    except Exception as exc:
        out.failed += trials
        out.problems.append(f"rate seed={cfg.seed} alpha={cfg.alpha} "
                            f"raised {exc!r}")
        return
    out.rate_s += time.perf_counter() - t0
    out.rate_trials += trials
    out.rates.append((cfg.seed, cfg.alpha, est))


def run_roc(out: Outcome, key, grid) -> None:
    out.attempted += 1
    try:
        points = detection.roc_sweep([r for _, r in out.records[key]], grid)
    except Exception as exc:
        out.failed += 1
        out.problems.append(f"roc {key} raised {exc!r}")
        return
    out.roc.append((key, points))


def run_bound_row(out: Outcome, cfg, alpha: float) -> None:
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        rows = harness.emit_bounds(cfg, (alpha,), xi=BOUNDS_XI_NORM,
                                   delta_2k=BOUNDS_DELTA2K,
                                   cutoff_delta=BOUNDS_CUTOFF)
    except Exception as exc:
        out.failed += 1
        out.problems.append(f"bound row alpha={alpha} raised {exc!r}")
        return
    out.row_s.append(time.perf_counter() - t0)
    out.bound_rows.extend(rows)


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------

def check_trials(key: str, cfg, records, refs: dict, problems: list) -> None:
    """Per-trial outputs against the frozen references of the same trials,
    summed over the run in flipped decisions."""
    flips = symbols = 0
    symbol_dev = 0.0
    per_trial_symbols = cfg.k2 * cfg.symbols_per_user
    for idx, rec in records:
        ref = refs.get(str(idx))
        if ref is None:
            problems.append(f"{key}: no reference for trial {idx}")
            return
        ser, n_md, n_fa, disc = trial_summary(rec)
        if disc != ref[3]:
            problems.append(f"{key} trial {idx}: discarded {disc} != {ref[3]}")
        flips += abs(n_md - ref[1]) + abs(n_fa - ref[2])
        symbols += per_trial_symbols
        symbol_dev += abs(ser - ref[0]) * per_trial_symbols
    allowed = flip_allowance(cfg.u_max * len(records))
    if flips > allowed:
        problems.append(f"{key}: {flips} flipped detections > {allowed} allowed")
    # a flipped detection moves up to symbols_per_user symbol decisions
    allowed_sym = (flip_allowance(symbols, SYMBOL_FLIP_SHARE)
                   + flips * cfg.symbols_per_user)
    if symbol_dev > allowed_sym + 1e-9:
        problems.append(f"{key}: symbol errors moved by {symbol_dev:.1f} "
                        f"> {allowed_sym} allowed")


def reference_roc(energies, actives, grid):
    """(md, fa) counts summed over trials at each threshold, recomputed from
    frozen energies independently of `roc_sweep`."""
    e = np.asarray(energies, dtype=float)
    truth = np.zeros(e.shape, dtype=bool)
    for i, act in enumerate(actives):
        truth[i, act] = True
    return [(int(np.sum(truth & ~(e > xi))), int(np.sum(~truth & (e > xi))))
            for xi in grid]


def check_roc(key: str, cfg, points, expected_counts, n_trials: int,
              problems: list) -> None:
    """ROC points (means of per-trial rates) against reference counts."""
    allowed = flip_allowance(cfg.u_max * n_trials)
    for (xi, p_md, p_fa), (md, fa) in zip(points, expected_counts):
        got_md = p_md * n_trials * cfg.k2
        got_fa = p_fa * n_trials * (cfg.u_max - cfg.k2)
        dev = abs(got_md - md) + abs(got_fa - fa)
        if dev > allowed + 1e-6:
            problems.append(f"{key} roc xi={xi:.4g}: {dev:.1f} flipped "
                            f"decisions > {allowed} allowed")
            return
    if len(points) != len(expected_counts):
        problems.append(f"{key} roc: {len(points)} points, "
                        f"expected {len(expected_counts)}")


def check_bounds(rows, ref_rows, problems: list) -> None:
    by_alpha = {ref[0]: ref for ref in ref_rows}
    for row in rows:
        ref = by_alpha.get(row[0])
        if ref is None or len(row) != len(ref):
            problems.append(f"bounds row alpha={row[0]}: no matching reference")
            return
        for got, want in zip(row, ref):
            if isinstance(want, str) or isinstance(got, str):
                ok = got == want
            else:
                ok = math.isclose(float(got), float(want), rel_tol=BOUND_RTOL,
                                  abs_tol=BOUND_ATOL)
            if not ok:
                problems.append(f"bounds row alpha={ref[0]}: {got!r} != {want!r}")
                return


def check_rate(seed, alpha, est, ref, cfg, problems: list) -> None:
    value, stderr, p_md_hat = ref
    tag = f"rate seed={seed} alpha={alpha}"
    flips = abs(est.p_md_hat - p_md_hat) * cfg.k2 * est.trials
    allowed = flip_allowance(cfg.k2 * est.trials)
    if flips > allowed + 1e-6:
        problems.append(f"{tag}: {flips:.0f} flipped detections > {allowed}")
    if abs(est.value - value) > RATE_STDERR_SHARE * stderr:
        problems.append(f"{tag}: value {est.value} vs {value} "
                        f"(> {RATE_STDERR_SHARE} stderr)")
    if not math.isclose(est.stderr, stderr, rel_tol=RATE_STDERR_RTOL):
        problems.append(f"{tag}: stderr {est.stderr} vs {stderr}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """A closed loop of rounds, plus operations run once after it.

    `trace_rounds(seconds)` sizes the traced run, which runs each of that
    many rounds once untraced and once traced, so its counts repeat exactly
    for a given seed and length. `round_cost_s` is a round's cost at the
    seed commit on a 2-core box.
    """

    name = ""
    round_cost_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def trace_rounds(self, seconds: float) -> int:
        return max(1, int(seconds / (2.0 * self.round_cost_s)))

    def scenario_cfgs(self) -> list:
        """Configs of the scenarios set up before the loop (for setup_s)."""
        raise NotImplementedError

    def start(self) -> None:
        """Build the scenarios; not part of any trial's time."""

    def run_round(self, r: int, out: Outcome) -> None:
        raise NotImplementedError

    def finish(self, out: Outcome) -> None:
        """Operations run once after the loop."""

    def check(self, out: Outcome, refs: dict) -> list:
        raise NotImplementedError


class DeskBpdn(Workload):
    name = "desk-bpdn"
    alphas = (0.01, 0.31, 0.7, 1.0)
    roc_alpha = 0.7
    pool = 40                     # frozen trial indices per alpha
    round_cost_s = 6.4            # one trial at each alpha and a bound row

    def __init__(self, seed: int):
        super().__init__(seed)
        self.order = np.random.default_rng([seed, 1]).permutation(self.pool)
        self.cfgs = {f"a={a}": config.desk_profile(alpha=a) for a in self.alphas}

    def scenario_cfgs(self):
        return list(self.cfgs.values())

    def start(self):
        self.scenarios = {k: harness.make_scenario(c) for k, c in self.cfgs.items()}

    def run_round(self, r, out):
        idx = int(self.order[r % self.pool])
        for key, cfg in self.cfgs.items():
            run_link_trial(out, key, cfg, idx, self.scenarios[key])
        run_bound_row(out, config.desk_profile(), self.alphas[r % len(self.alphas)])

    def finish(self, out):
        key = f"a={self.roc_alpha}"
        if key in out.records:
            run_roc(out, key, XI_GRID)

    def check(self, out, refs):
        problems = []
        for key, cfg in self.cfgs.items():
            check_trials(key, cfg, out.records.get(key, []),
                         refs["trials"][key], problems)
        for key, points in out.roc:
            idxs = [str(i) for i, _ in out.records[key]]
            expected = reference_roc([refs["energies"][i] for i in idxs],
                                     [refs["actives"][i] for i in idxs], XI_GRID)
            check_roc(key, self.cfgs[key], points, expected, len(idxs), problems)
        check_bounds(out.bound_rows, refs["bounds"], problems)
        return problems


class LteCosamp(Workload):
    name = "lte-cosamp"
    alpha = 0.5
    pool = 128
    per_round = 4
    round_cost_s = 3.2            # four trials and a bound row

    def __init__(self, seed: int):
        super().__init__(seed)
        self.order = np.random.default_rng([seed, 2]).permutation(self.pool)
        self.key = f"a={self.alpha}"
        self.cfg = config.lte_profile(alpha=self.alpha)

    def scenario_cfgs(self):
        return [self.cfg]

    def start(self):
        self.scenario = harness.make_scenario(self.cfg)

    def run_round(self, r, out):
        for j in range(self.per_round):
            idx = int(self.order[(r * self.per_round + j) % self.pool])
            run_link_trial(out, self.key, self.cfg, idx, self.scenario)
        run_bound_row(out, self.cfg, self.alpha)

    def check(self, out, refs):
        problems = []
        check_trials(self.key, self.cfg, out.records.get(self.key, []),
                     refs["trials"][self.key], problems)
        check_bounds(out.bound_rows, refs["bounds"], problems)
        return problems


class ToyRateBounds(Workload):
    name = "toy-rate-bounds"
    cfg_seeds = tuple(range(901, 917))   # frozen scenario seeds
    link_trials = 200                    # run_trials(cfg, 200) per round
    rate_alphas = (0.3, 0.5, 0.7)
    rate_trials = 200
    round_cost_s = 3.2                   # trials and one bound row

    def __init__(self, seed: int):
        super().__init__(seed)
        self.offset = int(np.random.default_rng([seed, 3]).integers(
            len(self.cfg_seeds)))

    def cfg_seed(self, r: int) -> int:
        return self.cfg_seeds[(self.offset + r) % len(self.cfg_seeds)]

    def scenario_cfgs(self):
        base = enumerable_cfg(seed=self.cfg_seed(0))
        return [base.with_(alpha=a) for a in self.rate_alphas]

    def run_round(self, r, out):
        cfg = enumerable_cfg(seed=self.cfg_seed(r))
        key = (cfg.seed, r)
        scenario = harness.make_scenario(cfg)
        for idx in range(self.link_trials):
            run_link_trial(out, key, cfg, idx, scenario)
        run_roc(out, key, (cfg.xi_thr,))
        for a in self.rate_alphas:
            run_rate(out, cfg.with_(alpha=a), self.rate_trials)
        alpha = BOUNDS_ALPHAS[(self.offset + r) % len(BOUNDS_ALPHAS)]
        run_bound_row(out, config.desk_profile(), alpha)

    def check(self, out, refs):
        problems = []
        for (seed, r), records in out.records.items():
            check_trials(f"seed={seed} round {r}", enumerable_cfg(seed=seed),
                         records, refs["trials"][str(seed)], problems)
        for (seed, r), points in out.roc:
            ref_trials = refs["trials"][str(seed)]
            idxs = [str(i) for i, _ in out.records[(seed, r)]]
            expected = [(sum(ref_trials[i][1] for i in idxs),
                         sum(ref_trials[i][2] for i in idxs))]
            check_roc(f"seed={seed} round {r}", enumerable_cfg(seed=seed),
                      points, expected, len(idxs), problems)
        for seed, alpha, est in out.rates:
            check_rate(seed, alpha, est, refs["rates"][str(seed)][str(alpha)],
                       enumerable_cfg(seed=seed), problems)
        check_bounds(out.bound_rows, refs["bounds"], problems)
        return problems


WORKLOADS = {w.name: w for w in (DeskBpdn, LteCosamp, ToyRateBounds)}
