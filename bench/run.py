"""csra benchmark: one workload per fresh process, every metric by name.

    python3 bench/run.py --workload desk-bpdn --seed 1 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs a number of
rounds sized from --seconds, each once untraced and once traced, and
reports the per-layer metrics. Human-readable lines go first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed, metrics.
See README.md in this directory.
"""

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checkout

SETUP_RUNS = 3          # fresh processes timed for setup_s; median reported
SETUP_TIMEOUT_S = 120
WORKLOAD_NAMES = ("desk-bpdn", "lte-cosamp", "toy-rate-bounds")

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "setup_s": "s",
    "bounds_rows_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
# failed_frac is printed with the others; the result carries it as
# failed / attempted, because a bounded metric must never read 0


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh processes
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> dict:
    """Runs in a fresh process: time `import csra`, then make_scenario for
    each scenario the workload sets up."""
    t0 = time.perf_counter()
    checkout.use_src()
    import csra
    import_s = time.perf_counter() - t0
    checkout.check_imported(csra)
    import workloads
    scenario_s = []
    for cfg in workloads.WORKLOADS[workload](seed).scenario_cfgs():
        t1 = time.perf_counter()
        csra.harness.make_scenario(cfg)
        scenario_s.append(time.perf_counter() - t1)
    return {"import_s": import_s, "scenario_s": scenario_s}


def measure_setup(workload: str, seed: int) -> list:
    """SETUP_RUNS fresh processes, one at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise checkout.CheckoutError(
                f"set-up probe failed: {done.stderr.strip()}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def machine_record() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version"),
                "config": " ".join(str(deps.get("openblas configuration", "")).split())}
    except (TypeError, KeyError):
        pass
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k in ("OMP_DYNAMIC", "OPENBLAS_CORETYPE")}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas": blas, "thread_env": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": checkout.git_commit()}


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------

def run_rounds(work, out, seconds: float) -> None:
    """Closed loop: rounds while the next round is expected to end before
    `seconds` have passed; at least one round always runs."""
    start = time.perf_counter()
    r = 0
    while True:
        work.run_round(r, out)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r > seconds:
            return


def end_to_end(out, probes, spans) -> tuple:
    """Latencies are medians (over trials, tail blocks, bound rows and
    set-up processes), so a burst of machine noise moves one sample."""
    ms = [1e3 * s for s in out.trial_s]
    level, tail_value, beyond, blocks = spans.block_tail(ms)
    setup = [p["import_s"] + sum(p["scenario_s"]) for p in probes]
    values = {
        "trials_per_s": out.trials / out.trial_time_s,
        "trial_p50_ms": spans.percentile(ms, 50),
        "trial_tail_ms": tail_value,
        "setup_s": statistics.median(setup),
        "bounds_rows_per_s": 1.0 / statistics.median(out.row_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"trials_per_s": f"{out.trials} trials in "
                             f"{out.trial_time_s:.3f} s of trial time",
             "trial_tail_ms": f"p{level:g}, {beyond} beyond, median of "
                              f"{blocks} blocks of {len(ms)} link trials",
             "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup),
             "bounds_rows_per_s": f"median of {len(out.row_s)} rows"}
    return values, notes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    probes = measure_setup(workload, seed)
    import csra
    checkout.check_imported(csra)
    import spans
    import workloads

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "references.json")) as f:
        refs = json.load(f)[workload]
    work = workloads.WORKLOADS[workload](seed)
    out = workloads.Outcome()
    if not trace:
        work.start()
        run_rounds(work, out, seconds)
        work.finish(out)
        problems = out.problems + work.check(out, refs)
        metrics, notes = end_to_end(out, probes, spans)
        units = END_TO_END_UNITS
    else:
        # the same rounds untraced and traced, alternating so that drift in
        # the machine's speed falls on both; each side has its own scenarios
        plain_work = workloads.WORKLOADS[workload](seed)
        plain = workloads.Outcome()
        tracer = spans.Tracer()
        plain_work.start()
        undo = spans.instrument(tracer)
        try:
            work.start()
            for r in range(work.trace_rounds(seconds)):
                undo()
                plain_work.run_round(r, plain)
                undo = spans.instrument(tracer)
                work.run_round(r, out)
            work.finish(out)
        finally:
            undo()
        problems = (plain.problems + out.problems + plain_work.check(plain, refs)
                    + work.check(out, refs))
        if plain.iterations != out.iterations:
            problems.append("solver iterations differ between the untraced "
                            "and traced passes over the same trials")
        metrics = spans.layer_metrics(tracer.spans)
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["trace.overhead_frac"] = 1.0 - (
            plain.trial_time_s / out.trial_time_s)      # same trials on both sides
        notes = {"exact_counts": json.dumps(spans.exact_counts(tracer.spans))}
        out.attempted += plain.attempted
        out.failed += plain.failed
        units = spans.LAYER_UNITS
    correct = not problems
    failed = out.failed if correct else out.attempted
    return {"correct": correct, "attempted": out.attempted, "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u}
                        for k, u in units.items()},
            "notes": notes, "problems": problems}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not (args.probe_setup or (args.seconds or 0) > 0):
        p.error("need --seed >= 0 and --seconds > 0")
    try:
        checkout.use_src()
        if args.probe_setup:
            print(json.dumps(probe_setup(args.workload, args.seed)))
            return 0
        compileall.compile_dir(str(checkout.SRC), quiet=1)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except checkout.CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_record()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}"
              + (f"   ({note})" if note else ""))
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"  {'failed_frac':32s} {frac:14.6g} ratio   "
          f"({result['failed']} of {result['attempted']} operations)")
    if "exact_counts" in result["notes"]:
        print(f"  exact counts {result['notes']['exact_counts']}")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")
    print(f"correct {str(result['correct']).lower()}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
