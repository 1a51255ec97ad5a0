"""Tracing from outside the program, and the statistics the report uses.

`instrument` wraps the public functions each layer calls, as bound in the
caller's namespace (for example `csra.harness.bpdn`, not `csra.recovery.bpdn`),
plus the `SensingOperator` and `FadingModel` methods. Each wrapper records a
span (name, start, end, parent) in memory; nothing under src/ changes and
an untraced run executes no wrapper at all.
"""

import functools
import math
import time
from contextlib import contextmanager

import numpy as np

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
TAIL_BLOCK = 200


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def percentile(samples, level: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    return float(np.percentile(np.asarray(samples, dtype=float), level))


def tail(samples, ladder=TAIL_LADDER, min_beyond: int = TAIL_MIN_BEYOND):
    """(level, value, beyond): the highest ladder percentile with at least
    `min_beyond` samples strictly above it. With too few samples for any
    level, the lowest level is reported and `beyond` shows the shortfall."""
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("no samples")
    best = None
    for level in ladder:
        value = percentile(xs, level)
        beyond = int(np.sum(xs > value))
        if best is None or beyond >= min_beyond:
            best = (level, value, beyond)
    return best


def block_tail(samples, block: int = TAIL_BLOCK):
    """(level, value, beyond, blocks): `tail` within consecutive blocks of
    `block` samples (the remainder joins the last block; fewer than two
    blocks' worth is one block), and the median over blocks. A burst of
    machine noise then moves one block's tail, not the run's."""
    xs = list(samples)
    n_blocks = max(1, len(xs) // block)
    cuts = [i * block for i in range(n_blocks)] + [len(xs)]
    tails = [tail(xs[a:b]) for a, b in zip(cuts, cuts[1:])]
    mid = sorted(tails, key=lambda t: t[1])[(len(tails) - 1) // 2]
    return mid + (len(tails),)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder for one single-threaded run.

    Each span is [name, start, end, parent_index, info]; `info` carries what
    a wrapper learned from the call (a solver's iterations, say).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        entry = [name, self.clock(), math.nan, parent, None]
        self.spans.append(entry)
        self._stack.append(len(self.spans) - 1)
        try:
            yield entry
        finally:
            self._stack.pop()
            entry[2] = self.clock()


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its direct
    children cover (children may overlap each other; the union counts)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def _wrap(tracer: Tracer, fn, name: str, info=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as entry:
            result = fn(*args, **kwargs)
            if info is not None:
                entry[4] = info(args, result)
            return result
    return traced


def _solver_info(args, result):
    return (id(args[0]), result.iterations, result.converged)


def _rate_info(args, result):
    return result.trials


def instrument(tracer: Tracer):
    """Install the wrappers; returns a callable that removes them."""
    from csra import bounds, detection, harness, recovery, sensing

    chain = {                      # the trial chain, as harness and bounds bind it
        "trial_rng": "config.trial_rng",
        "build_pilot_book": "model.pilot_book",
        "draw_activity": "model.draw",
        "draw_channels": "model.draw",
        "draw_data": "model.draw",
        "transmit_receive": "model.transmit_receive",
        "build_operator": "sensing.build_operator",
        "cosamp": "recovery.solve",
        "bpdn": "recovery.solve",
        "detect_active": "detection.detect",
    }
    targets = [(harness, attr, name) for attr, name in chain.items()]
    targets += [(bounds, attr, name) for attr, name in chain.items()]
    targets += [
        (harness, "make_scenario", "harness.make_scenario"),
        (harness, "run_trial", "harness.run_trial"),
        (harness, "equalize_demodulate", "detection.demod"),
        (harness, "tally", "detection.tally"),
        (harness, "detection_error_bounds", "bounds.detection_bounds"),
        (harness, "rate_lower_bound", "bounds.rate_bounds"),
        (harness, "rate_upper_bound", "bounds.rate_bounds"),
        (harness, "emit_bounds", "harness.emit_bounds"),
        (recovery, "restricted_lstsq", "sensing.lstsq"),
        (detection, "roc_sweep", "detection.roc"),
        (bounds, "simulated_ergodic_rate", "bounds.rate_mc"),
        (sensing.SensingOperator, "apply", "sensing.apply"),
        (sensing.SensingOperator, "adjoint", "sensing.adjoint"),
        (sensing.SensingOperator, "columns", "sensing.columns"),
        (bounds.FadingModel, "norm_pdf", "bounds.pdf"),
    ]
    infos = {"recovery.solve": _solver_info, "bounds.rate_mc": _rate_info}
    saved = []
    for owner, attr, name in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, infos.get(name)))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return undo


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

TRIAL_ROOTS = ("harness.run_trial", "bounds.rate_mc")
SENSING_BUSY = ("sensing.apply", "sensing.adjoint", "sensing.columns",
                "sensing.lstsq")

# name -> unit of every metric the traced run reports; run.py adds
# cli.import_s and trace.overhead_frac to what layer_metrics computes
LAYER_UNITS = {
    "cli.import_s": "s",
    "config.trial_rng_us": "us",
    "harness.make_scenario_ms": "ms",
    "harness.trial_self_ms": "ms",
    "model.pilot_book_ms": "ms",
    "model.draw_ms": "ms",
    "model.transmit_receive_ms": "ms",
    "sensing.apply_calls": "count",
    "sensing.adjoint_calls": "count",
    "sensing.columns_calls": "count",
    "sensing.apply_ms": "ms",
    "sensing.adjoint_ms": "ms",
    "sensing.columns_ms": "ms",
    "sensing.lstsq_ms": "ms",
    "sensing.busy_frac": "ratio",
    "sensing.build_operator_ms": "ms",
    "recovery.iterations_mean": "count",
    "recovery.iterations_max": "count",
    "recovery.us_per_iter": "us",
    "recovery.solve_ms": "ms",
    "recovery.self_ms": "ms",
    "recovery.first_solve_extra_ms": "ms",
    "recovery.nonconverged": "count",
    "detection.detect_us": "us",
    "detection.demod_ms": "ms",
    "detection.tally_ms": "ms",
    "detection.roc_ms": "ms",
    "bounds.detection_bounds_ms": "ms",
    "bounds.rate_bounds_ms": "ms",
    "bounds.pdf_evals": "count",
    "bounds.pdf_eval_us": "us",
    "bounds.rate_mc_trial_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 where the workload has no such operation."""
    return num / den if den else 0.0


def first_solve_extra(solves) -> float:
    """Mean over operators of: the first solve's time minus its iterations
    times the median per-iteration time of all later solves. That isolates
    work done once per operator, such as the lazily cached power-iteration
    norm. `solves` holds (operator id, seconds, iterations) in call order."""
    firsts, later = {}, []
    for op_id, dur, iters in solves:
        if op_id not in firsts:
            firsts[op_id] = (dur, iters)
        elif iters > 0:
            later.append(dur / iters)
    if not later:
        return 0.0
    per_iter = float(np.median(later))
    return float(np.mean([d - i * per_iter for d, i in firsts.values()]))


def layer_metrics(spans) -> dict:
    """Per-layer values from one traced run's spans, in the units of
    LAYER_UNITS (cli.import_s and trace.overhead_frac excluded)."""
    selfs = self_times(spans)
    count, total, own = {}, {}, {}
    for s, st in zip(spans, selfs):
        count[s[0]] = count.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        own[s[0]] = own.get(s[0], 0.0) + st
    n = lambda k: count.get(k, 0)
    t = lambda k: total.get(k, 0.0)
    mean = lambda k: _ratio(t(k), n(k))

    rate_trials = sum(s[4] for s in spans if s[0] == "bounds.rate_mc")
    trials = n("harness.run_trial") + rate_trials
    root_time = sum(t(k) for k in TRIAL_ROOTS)
    root_self = sum(own.get(k, 0.0) for k in TRIAL_ROOTS)
    solves = [(s[4][0], s[2] - s[1], s[4][1]) for s in spans
              if s[0] == "recovery.solve"]
    iters = [it for _, _, it in solves]
    rows = n("bounds.detection_bounds")
    return {
        "config.trial_rng_us": 1e6 * mean("config.trial_rng"),
        "harness.make_scenario_ms": 1e3 * mean("harness.make_scenario"),
        "harness.trial_self_ms": 1e3 * _ratio(own.get("harness.run_trial", 0.0),
                                              n("harness.run_trial")),
        "model.pilot_book_ms": 1e3 * mean("model.pilot_book"),
        "model.draw_ms": 1e3 * _ratio(t("model.draw"), trials),
        "model.transmit_receive_ms": 1e3 * mean("model.transmit_receive"),
        "sensing.apply_calls": _ratio(n("sensing.apply"), trials),
        "sensing.adjoint_calls": _ratio(n("sensing.adjoint"), trials),
        "sensing.columns_calls": _ratio(n("sensing.columns"), trials),
        "sensing.apply_ms": 1e3 * mean("sensing.apply"),
        "sensing.adjoint_ms": 1e3 * mean("sensing.adjoint"),
        "sensing.columns_ms": 1e3 * mean("sensing.columns"),
        "sensing.lstsq_ms": 1e3 * mean("sensing.lstsq"),
        "sensing.busy_frac": _ratio(sum(own.get(k, 0.0) for k in SENSING_BUSY),
                                    root_time),
        "sensing.build_operator_ms": 1e3 * mean("sensing.build_operator"),
        "recovery.iterations_mean": float(np.mean(iters)) if iters else 0.0,
        "recovery.iterations_max": float(max(iters)) if iters else 0.0,
        "recovery.us_per_iter": 1e6 * _ratio(t("recovery.solve"), sum(iters)),
        "recovery.solve_ms": 1e3 * mean("recovery.solve"),
        "recovery.self_ms": 1e3 * _ratio(own.get("recovery.solve", 0.0),
                                         n("recovery.solve")),
        "recovery.first_solve_extra_ms": 1e3 * first_solve_extra(solves),
        "recovery.nonconverged": float(sum(1 for s in spans if s[0] ==
                                           "recovery.solve" and not s[4][2])),
        "detection.detect_us": 1e6 * mean("detection.detect"),
        "detection.demod_ms": 1e3 * mean("detection.demod"),
        "detection.tally_ms": 1e3 * mean("detection.tally"),
        "detection.roc_ms": 1e3 * mean("detection.roc"),
        "bounds.detection_bounds_ms": 1e3 * mean("bounds.detection_bounds"),
        "bounds.rate_bounds_ms": 1e3 * _ratio(t("bounds.rate_bounds"), rows),
        "bounds.pdf_evals": _ratio(n("bounds.pdf"), rows),
        "bounds.pdf_eval_us": 1e6 * mean("bounds.pdf"),
        "bounds.rate_mc_trial_ms": 1e3 * _ratio(t("bounds.rate_mc"), rate_trials),
        "trace.coverage": _ratio(root_time - root_self, root_time),
    }


def exact_counts(spans) -> dict:
    """Counts that must repeat exactly for a given seed and run length."""
    return {
        "recovery.iterations": sum(s[4][1] for s in spans
                                   if s[0] == "recovery.solve"),
        "sensing.apply_calls": sum(1 for s in spans if s[0] == "sensing.apply"),
        "sensing.adjoint_calls": sum(1 for s in spans if s[0] == "sensing.adjoint"),
        "sensing.columns_calls": sum(1 for s in spans if s[0] == "sensing.columns"),
        "bounds.pdf_evals": sum(1 for s in spans if s[0] == "bounds.pdf"),
    }
