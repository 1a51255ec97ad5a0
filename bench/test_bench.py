"""Tests of the benchmark's own helpers, plus a minimum-length smoke run of
every workload."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checkout
import run
import spans

checkout.use_src()
import workloads  # noqa: E402  (needs src/ on the path)

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("g"):
                pass
        with tracer.span("b"):
            pass
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["root", "a", "g", "b"]
    assert parents == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [3, 2, 1, 4]


def test_self_time_counts_overlapping_children_once():
    synthetic = [["p", 0.0, 10.0, -1, None], ["c1", 2.0, 6.0, 0, None],
                 ["c2", 4.0, 8.0, 0, None], ["c3", 9.0, 12.0, 0, None]]
    assert spans.self_times(synthetic) == [10.0 - 6.0 - 1.0, 4.0, 4.0, 3.0]


@pytest.mark.parametrize("n, level, beyond", [
    (20, 50.0, 10), (30, 50.0, 15), (40, 75.0, 10), (100, 90.0, 10),
    (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10), (5, 50.0, 2)])
def test_tail_takes_highest_level_with_ten_beyond(n, level, beyond):
    got_level, value, got_beyond = spans.tail(np.arange(n, dtype=float))
    assert (got_level, got_beyond) == (level, beyond)
    assert value == pytest.approx(np.percentile(np.arange(n), level))


def test_block_tail_is_the_median_over_blocks():
    # 600 samples: three blocks of 200, one of them with a slow burst
    xs = np.concatenate([np.arange(200.0), np.arange(200.0) + 1000.0,
                         np.arange(200.0)])
    level, value, beyond, blocks = spans.block_tail(xs)
    assert (level, beyond, blocks) == (95.0, 10, 3)
    assert value == pytest.approx(np.percentile(np.arange(200.0), 95))
    # under two blocks' worth the run is one block
    assert spans.block_tail(np.arange(399.0))[3] == 1
    assert spans.block_tail(np.arange(20.0))[:3] == spans.tail(np.arange(20.0))


def test_first_solve_extra_isolates_one_off_work():
    # later solves cost 1 ms per iteration; the first solves on operators
    # 1 and 2 carry 50 ms and 70 ms of one-off work
    solves = [(1, 0.150, 100), (2, 0.270, 200), (1, 0.200, 200),
              (2, 0.100, 100)]
    assert spans.first_solve_extra(solves) == pytest.approx(0.060)


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == spans.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_gate_counts_flipped_decisions():
    cfg = workloads.enumerable_cfg()
    def record(ser, n_md, n_fa):
        return SimpleNamespace(metrics=SimpleNamespace(
            ser=ser, n_md=n_md, n_fa=n_fa, discarded=False))
    refs = {str(i): [0.0, 0, 0, 0] for i in range(10)}
    ok, bad = [], []
    workloads.check_trials("k", cfg, [(i, record(0.0, 0, 0)) for i in range(10)],
                           refs, ok)
    workloads.check_trials("k", cfg, [(i, record(0.5, 1, 0)) for i in range(10)],
                           refs, bad)
    assert ok == [] and bad


def _bench(tmp_cwd, *args, timeout=300):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          cwd=tmp_cwd)
    return done


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_traced_run(workload):
    done = _bench(BENCH.parent, "--workload", workload, "--seed", "3",
                  "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(spans.LAYER_UNITS)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_smoke_untraced_run_and_exact_counts_repeat():
    done = _bench(BENCH.parent, "--workload", "lte-cosamp", "--seed", "4",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    def counts():
        out = _bench(BENCH.parent, "--workload", "toy-rate-bounds", "--seed",
                     "5", "--seconds", "1", "--trace", "1").stdout
        return [l for l in out.splitlines() if "exact counts" in l]
    first = counts()
    assert first and first == counts()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", "toy-rate-bounds", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
