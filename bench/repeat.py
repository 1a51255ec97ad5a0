"""Run the benchmark several times per workload, each with another seed, and
report every metric's median and quartile spread (q3 - q1) / median.

    python3 bench/repeat.py --runs 10 --first-seed 1 --out results.json
    python3 bench/repeat.py --runs 5 --workload desk-bpdn --trace 1

Runs are sequential, one process at a time. With --out the summary, the
machine record and every run's values are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench_run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=BENCH.parent)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = [l.split("exact counts ", 1)[1] for l in lines if "exact counts " in l]
    machine = [json.loads(l[len("machine "):]) for l in lines
               if l.startswith("machine ")]
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "result": result,
            "exact_counts": json.loads(counts[0]) if counts else None,
            "machine": machine[0] if machine else None}


def spread(values) -> dict:
    """Median, quartiles and (q3 - q1) / median (None for a zero median,
    as a per-layer metric reads where its operation does not occur)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=bench_run.WORKLOAD_NAMES)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("need --runs >= 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workload or bench_run.WORKLOAD_NAMES:
        runs = [one_run(workload, args.first_seed + i, args.seconds, args.trace)
                for i in range(args.runs)]
        summary.setdefault("machine", runs[0]["machine"])
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = spread(values) | {"values": values}
        correct = all(r["result"]["correct"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs], "correct": correct,
            "wall_s": [r["wall_s"] for r in runs],
            "failed": failed,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "exact_counts": [r["exact_counts"] for r in runs],
            "metrics": metrics}
        print(f"{workload}: correct={correct} failed={failed} wall "
              f"{min(r['wall_s'] for r in runs):.1f}-"
              f"{max(r['wall_s'] for r in runs):.1f} s per run")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            checked = bound is not None and name != "setup_s"
            if checked and m["spread"] is not None:
                flag = "ok" if m["spread"] < bound / 3 else (
                    "within bound" if m["spread"] <= bound else "TOO WIDE")
                ok &= m["spread"] <= bound
            shown = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:32s} median {m['median']:12.6g}  "
                  f"spread {shown:>7s}  {flag}")
        ok &= correct
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
