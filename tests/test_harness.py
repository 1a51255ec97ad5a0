"""Config I/O, trial loop determinism, CSV emission, validation suite, CLI."""

import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from csra.config import (SystemConfig, ConfigError, control_window, slot_plan,
                         read_config, write_config, config_hash, desk_profile,
                         lte_profile, MODULATIONS, WINDOW_MODES, SOLVERS)
from csra import cli, harness
from csra.harness import (run_trial, run_trials, aggregate,
                          sweep_alpha, sweep_roc, emit_bounds, emit_throughput,
                          make_scenario, validate, adjoint_mismatch,
                          dense_reference, LINK_HEADER, ROC_HEADER,
                          BOUNDS_HEADER)
from csra.sensing import build_operator


def toy_cfg(**kw):
    base = dict(n=512, m=64, window_mode="random", t_cp=16, u_max=6, k1=2,
                k2=3, b_slots=6, alpha=0.5, snr_db=20.0, modulation="bpsk",
                bits_per_user=16, seed=2718, trials=5, solver="cosamp")
    base.update(kw)
    return SystemConfig(**base)


def numpy_on_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


def count_fft_calls(monkeypatch) -> list:
    """Wrap every numpy.fft transform the package uses; returns the list
    each call appends its name to."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    return calls


class TestConfig:
    def test_invariants_rejected(self):
        for kw in (dict(m=4096), dict(t_cp=4096), dict(k1=100),
                   dict(k2=99), dict(alpha=1.5), dict(b_slots=0),
                   dict(modulation="qam64"), dict(sensing_mode="x"),
                   dict(sensing_mode="randomized"),
                   dict(bits_per_user=10 ** 6), dict(window_mode="blocky"),
                   dict(trials=0)):
            with pytest.raises(ConfigError):
                toy_cfg(**kw)

    def test_nan_snr_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="snr_db"):
            toy_cfg(snr_db=float("nan"))
        path = tmp_path / "nan.cfg"
        write_config(toy_cfg(), path)
        path.write_text(path.read_text().replace("snr_db = 20.0", "snr_db = nan"))
        with pytest.raises(ConfigError, match="snr_db"):
            read_config(path)
        assert toy_cfg(snr_db=math.inf).sigma2 == 0.0

    def test_qpsk_needs_even_bits(self):
        with pytest.raises(ConfigError):
            toy_cfg(modulation="qpsk", bits_per_user=15)
        toy_cfg(modulation="qpsk", bits_per_user=16)

    def test_file_roundtrip(self, tmp_path):
        cfg = toy_cfg()
        path = tmp_path / "scenario.cfg"
        write_config(cfg, path)
        assert read_config(path) == cfg

    @pytest.mark.parametrize("profile", [desk_profile, lte_profile])
    def test_profile_file_roundtrip(self, tmp_path, profile):
        cfg = profile()
        path = tmp_path / "scenario.cfg"
        write_config(cfg, path)
        back = read_config(path)
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_file_roundtrip_property(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 64))
        t_cp = data.draw(st.integers(1, n))
        u_max = data.draw(st.integers(1, 6))
        kw = dict(
            n=n, m=data.draw(st.integers(1, n)), t_cp=t_cp, u_max=u_max,
            k1=data.draw(st.integers(1, t_cp)), k2=data.draw(st.integers(0, u_max)),
            b_slots=data.draw(st.integers(1, 8)),
            alpha=data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
            snr_db=data.draw(st.floats()),
            modulation=data.draw(st.sampled_from(tuple(MODULATIONS))),
            bits_per_user=data.draw(st.integers(1, 16)),
            seed=data.draw(st.integers(0, 2 ** 63)),
            trials=data.draw(st.integers(1, 10 ** 6)),
            window_mode=data.draw(st.sampled_from(WINDOW_MODES)),
            solver=data.draw(st.sampled_from(SOLVERS)),
            xi_thr=data.draw(st.floats(min_value=0.0, allow_nan=False)),
        )
        try:
            cfg = SystemConfig(**kw)
        except ConfigError:
            assume(False)
        path = tmp_path_factory.getbasetemp() / "roundtrip.cfg"
        write_config(cfg, path)
        back = read_config(path)
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 64\nwat = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            read_config(path)

    def test_duplicate_and_malformed(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("n = 64\nn = 128\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_config(path)
        path.write_text("n 64\n")
        with pytest.raises(ConfigError):
            read_config(path)
        path.write_text("n = sixtyfour\n")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_windows(self):
        cfg = toy_cfg(window_mode="contiguous")
        win = control_window(cfg)
        assert win[0] == (cfg.n - cfg.m) // 2 and len(win) == cfg.m
        rnd = control_window(toy_cfg(window_mode="random"))
        assert len(np.unique(rnd)) == cfg.m
        assert np.array_equal(rnd, control_window(toy_cfg(window_mode="random")))

    def test_slots_disjoint_from_window(self):
        cfg = toy_cfg()
        win = set(control_window(cfg).tolist())
        plan = slot_plan(cfg)
        for u in range(cfg.u_max):
            subs = plan.user_subcarriers(u)
            assert len(subs) == cfg.symbols_per_user
            assert not win & set(subs.tolist())

    @pytest.mark.parametrize("make, digest", [
        (desk_profile, "411aeaa81fc9"), (lte_profile, "674b5fb76940"),
        (harness._toy_config, "2743b33d5fba")])
    def test_hash_pinned_and_file_keys_are_the_fields(self, tmp_path, make,
                                                      digest):
        # published cfg_hash cells and the frozen benchmark references
        # carry these digests
        cfg = make()
        assert config_hash(cfg) == digest
        path = tmp_path / "scenario.cfg"
        write_config(cfg, path)
        keys = [line.split(" = ")[0] for line in path.read_text().splitlines()]
        assert keys == [f.name for f in fields(SystemConfig)]
        assert read_config(path) == cfg

    def test_hash_sensitivity(self):
        assert config_hash(toy_cfg()) != config_hash(toy_cfg(seed=1))
        assert config_hash(toy_cfg()) == config_hash(toy_cfg())

    @pytest.mark.parametrize("left, right", [
        (dict(alpha=1), dict(alpha=1.0)),
        (dict(alpha=-0.0), dict(alpha=0.0)),
        (dict(m=np.int64(256)), dict(m=256)),
        (dict(snr_db=np.float64(20.0), seed=np.uint32(12345)), {})])
    def test_equal_configs_hash_equal(self, left, right):
        a, b = desk_profile(**left), desk_profile(**right)
        assert a == b and config_hash(a) == config_hash(b)
        assert [type(getattr(a, f.name)) for f in fields(SystemConfig)] == \
            [f.type for f in fields(SystemConfig)]
        assert math.copysign(1.0, a.alpha) == 1.0
        assert config_hash(desk_profile()) == "411aeaa81fc9"

    @pytest.mark.parametrize("bad", [dict(m=256.0), dict(seed=1.5),
                                     dict(trials="200"), dict(alpha=None),
                                     dict(snr_db="loud")])
    def test_wrong_number_type_rejected(self, bad):
        with pytest.raises(ConfigError):
            desk_profile(**bad)

    def test_profiles_valid(self):
        desk_profile()
        lte_profile()
        assert lte_profile().n == 24576 and lte_profile().m == 839


class TestTrials:
    def test_deterministic_record(self):
        cfg = toy_cfg()
        a = run_trial(cfg, 2)
        b = run_trial(cfg, 2)
        assert a.metrics == b.metrics
        assert np.array_equal(a.user_energies, b.user_energies)

    def test_no_active_users(self):
        rec = run_trial(toy_cfg(k2=0), 0)
        assert math.isnan(rec.metrics.ser)
        assert rec.metrics.n_md == 0

    def test_noiseless_chain_recovers(self):
        # xi_thr tiny: at sigma = 0 the only honest misses would be users
        # whose true channel energy is below threshold
        cfg = toy_cfg(snr_db=np.inf, k1=1, k2=5, u_max=8, b_slots=8,
                      xi_thr=1e-6)
        good = 0
        scenario = make_scenario(cfg)
        for t in range(20):
            m = run_trial(cfg, t, scenario).metrics
            good += (m.n_md == 0 and m.n_fa == 0 and m.ser == 0.0)
        assert good >= 19

    def test_parallelism_invariance(self):
        cfg = toy_cfg()
        serial = run_trials(cfg, 6, threads=1)
        parallel = run_trials(cfg, 6, threads=2)
        for a, b in zip(serial, parallel):
            assert a.metrics == b.metrics
            assert np.array_equal(a.user_energies, b.user_energies)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_trials=st.integers(2, 5),
           solver=st.sampled_from(SOLVERS),
           window_mode=st.sampled_from(WINDOW_MODES),
           k2=st.integers(0, 3))
    def test_parallelism_invariance_property(self, seed, n_trials, solver,
                                             window_mode, k2):
        cfg = toy_cfg(seed=seed, solver=solver, window_mode=window_mode,
                      k2=k2)
        serial = run_trials(cfg, n_trials, threads=1)
        parallel = run_trials(cfg, n_trials, threads=2)
        assert len(serial) == len(parallel) == n_trials
        # everything but the wall time; assert_equal takes NaN == NaN
        same = lambda r: [r.trial_index, asdict(r.metrics), r.user_energies,
                          r.active, r.residual_norm, r.solver_iterations,
                          r.solver_converged, r.history]
        for a, b in zip(serial, parallel):
            np.testing.assert_equal(same(a), same(b))

    def test_pool_has_one_worker_per_chunk(self, monkeypatch):
        # a fake executor: no process starts
        import concurrent.futures
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        records = run_trials(toy_cfg(), 2, threads=64)
        assert sizes == [2]
        assert [r.trial_index for r in records] == [0, 1]
        run_trials(toy_cfg(), 5, threads=3)
        assert sizes == [2, 3]

    def test_stage_seconds_split_the_trial_time(self):
        records = run_trials(toy_cfg(solver="bpdn"), 3)
        for r in records:
            assert r.stage_seconds.shape == (len(harness.STAGES),)
            assert np.all(r.stage_seconds >= 0.0)
            assert r.elapsed == r.stage_seconds.sum() > 0.0
        agg = aggregate(records)
        assert tuple(agg["stage_seconds"]) == harness.STAGES
        for j, stage in enumerate(harness.STAGES):
            assert agg["stage_seconds"][stage] == pytest.approx(
                sum(r.stage_seconds[j] for r in records))
        assert aggregate([])["stage_seconds"] == dict.fromkeys(harness.STAGES, 0.0)

    @pytest.mark.parametrize("cfg", [
        toy_cfg(), toy_cfg(solver="bpdn"), toy_cfg(k1=1, k2=0),
        lte_profile(alpha=0.5)], ids=["toy-cosamp", "toy-bpdn", "toy-silent", "lte"])
    def test_plain_trial_makes_no_fft(self, monkeypatch, cfg):
        calls = count_fft_calls(monkeypatch)
        run_trial(cfg, 1)
        assert calls == []

    def test_plain_rate_estimate_makes_no_fft(self, monkeypatch):
        from csra.bounds import simulated_ergodic_rate
        calls = count_fft_calls(monkeypatch)
        simulated_ergodic_rate(toy_cfg(), trials=3, delta_2k=0.2)
        assert calls == []
        # the counter sees the full-band FFTs of the dense oracle
        dense_reference(build_operator(toy_cfg()))
        assert calls

    def test_bpdn_discard_flag_counts(self):
        cfg = toy_cfg(solver="bpdn", snr_db=5.0)
        recs = run_trials(cfg, 8)
        agg = aggregate(recs)
        assert agg["trials"] == 8
        assert 0 <= agg["discarded"] <= 8


class TestCsvEmission:
    def test_link_csv_byte_identical(self, tmp_path):
        cfg = toy_cfg(trials=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep_alpha(cfg, (0.2, 0.8), out_path=p1)
        sweep_alpha(cfg, (0.2, 0.8), out_path=p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0].split(",")
        assert header == LINK_HEADER
        assert header[:7] == ["alpha", "ser", "p_md", "p_fa", "trials",
                              "discarded", "seed"]

    # SHA-256 of small link-sim/roc tables from the shipped profiles. Their
    # cells are means of decision counts, so the bytes move only when a
    # detection or symbol decision flips, not with BLAS round-off.
    RUN_DIGESTS = {
        "desk-bpdn": (["link-sim", "--profile", "desk", "--alphas", "0.31,0.7",
                       "--trials", "4"],
                      "2b1fee97da6e105095e2a6f8fc1b95bd726e4f5d3636ec1ffc47d1290c2755f0"),
        "desk-roc": (["roc", "--profile", "desk", "--trials", "4"],
                     "e0842412eec06fbce5045cb598884b7a2235a9b2ea77e314956d1f09b366c379"),
        "desk-cosamp": (["link-sim", "--profile", "desk", "--solver", "cosamp",
                         "--alphas", "0.31,0.7", "--trials", "20"],
                        "cabcdbef6916573f278526ec7d92da8f0fcb97fb536214100f5c1d3b1bf166a9"),
        "lte-cosamp": (["link-sim", "--profile", "lte", "--alphas", "0.5",
                        "--trials", "4"],
                       "23d0bc0af7eed3f5b8a7134c67de92798b782cae601652ef548ad652e11d50ed"),
    }

    @pytest.mark.parametrize("run", sorted(RUN_DIGESTS))
    def test_run_csv_bytes_pinned(self, tmp_path, capsys, run):
        argv, digest = self.RUN_DIGESTS[run]
        out = tmp_path / "run.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_link_csv_independent_of_blas_threads(self, tmp_path):
        if not numpy_on_openblas():
            pytest.skip("numpy is not built on OpenBLAS")
        cfg_path = tmp_path / "scenario.cfg"
        write_config(toy_cfg(trials=3, solver="bpdn"), cfg_path)
        tables, traces = [], []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.csv"
            diag = tmp_path / f"diag{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "csra.cli", "link-sim", "--config",
                 str(cfg_path), "--alphas", "0.3,0.8", "--out", str(out),
                 "--diagnostics", str(diag)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            tables.append(out.read_bytes())
            # each solve's checks, single-precision phase included
            traces.append({p.name: p.read_bytes() for p in diag.iterdir()})
        assert tables[0] == tables[1]
        assert len(traces[0]) == 6 and traces[0] == traces[1]

    def test_link_csv_nan_sentinel(self, tmp_path):
        cfg = toy_cfg(k2=0, trials=2)
        path = tmp_path / "nan.csv"
        sweep_alpha(cfg, (0.5,), out_path=path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[1] == "nan"

    def test_roc_csv(self, tmp_path):
        cfg = toy_cfg(trials=4)
        path = tmp_path / "roc.csv"
        rows, records = sweep_roc(cfg, (0.01, 0.1, 1.0), out_path=path)
        assert [r.trial_index for r in records] == [0, 1, 2, 3]
        header = path.read_text().splitlines()[0].split(",")
        assert header == ROC_HEADER
        p_md = [r[1] for r in rows]
        p_fa = [r[2] for r in rows]
        assert all(p_md[i] <= p_md[i + 1] + 1e-15 for i in range(2))
        assert all(p_fa[i] >= p_fa[i + 1] - 1e-15 for i in range(2))

    def test_bounds_csv(self, tmp_path):
        cfg = toy_cfg()
        path = tmp_path / "bounds.csv"
        rows = emit_bounds(cfg, (0.3, 0.7), xi=0.3, delta_2k=0.2,
                           cutoff_delta=0.1, out_path=path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == BOUNDS_HEADER
        assert rows[0][-2] == "nats"

    # SHA-256 of the `csra bounds` table per (profile, --xi-norm, --cutoff).
    # The rows are scalar closed forms and one QUADPACK integral, with no
    # BLAS call, so their bytes are the same on every machine. At desk and
    # LTE noise every pmd_bound clamps to 1, so the cutoff leaves the bytes
    # as they are.
    BOUNDS_DIGESTS = {
        ("desk", "0", "0"): "a6fc7475ca587227745e7f4ee41bf489cb31e4390f7811b94eb6462cb2f3fc81",
        ("desk", "0", "0.1"): "a6fc7475ca587227745e7f4ee41bf489cb31e4390f7811b94eb6462cb2f3fc81",
        ("desk", "0.3", "0"): "71ac4487f5772fc8ee0b41723dc9e3a4799c10f8a7baaea22b8ec153a95687f3",
        ("desk", "0.3", "0.1"): "71ac4487f5772fc8ee0b41723dc9e3a4799c10f8a7baaea22b8ec153a95687f3",
        ("lte", "0", "0"): "d33c4190afde137edd32fd7f554b257a042c2f3864896d516087618f3860b9a8",
        ("lte", "0", "0.1"): "d33c4190afde137edd32fd7f554b257a042c2f3864896d516087618f3860b9a8",
        ("lte", "0.3", "0"): "4e9ce3d90cc5e39724b318fb9cff0c515ba089f4f79c1a70a8a0e52588d54007",
        ("lte", "0.3", "0.1"): "4e9ce3d90cc5e39724b318fb9cff0c515ba089f4f79c1a70a8a0e52588d54007",
    }
    THROUGHPUT_DIGEST = "e46465a8011f55d514348187fd77842cfb9e5a907ead7adc5d19084a87311c0b"

    @pytest.mark.parametrize("profile, xi_norm, cutoff", sorted(BOUNDS_DIGESTS))
    def test_bounds_csv_bytes_pinned(self, tmp_path, capsys, profile, xi_norm,
                                     cutoff):
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--profile", profile, "--xi-norm", xi_norm,
                         "--cutoff", cutoff, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.BOUNDS_DIGESTS[profile, xi_norm, cutoff]

    def test_throughput_csv_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "throughput.csv"
        assert cli.main(["throughput", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.THROUGHPUT_DIGEST

    def test_throughput_csv(self, tmp_path):
        path = tmp_path / "tp.csv"
        rows = emit_throughput(np.linspace(0, 8, 17), 4, 1.0, 1.0, out_path=path)
        vals = [r[-1] for r in rows]
        assert np.argmax(vals) == 8    # lambda = b_slots = 4 at half-step 8

    @pytest.mark.parametrize("sweep", [sweep_alpha, sweep_roc])
    @pytest.mark.parametrize("grid", [(), (0.5, 0.2), (-1.0, 0.5),
                                      (0.1, math.nan), (math.nan,)])
    def test_sweep_grid_validation(self, monkeypatch, tmp_path, sweep, grid):
        monkeypatch.setattr(harness, "run_trials", None)   # nothing may run
        with pytest.raises(ValueError, match="sweep grid"):
            sweep(toy_cfg(), grid, out_path=tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_sweep_row_reproduces_from_its_hash(self, tmp_path):
        cfg = toy_cfg(trials=3)              # the toy default is 5
        assert cfg.trials != toy_cfg().trials
        trials, alpha, h = (LINK_HEADER.index(c)
                            for c in ("trials", "alpha", "cfg_hash"))
        link = tmp_path / "link.csv"
        rows, batches = sweep_alpha(cfg, (0.2, 0.8), out_path=link)
        assert [len(b) for b in batches] == [3, 3]
        lines = link.read_text().splitlines()[1:]
        for row, line in zip(rows, lines):
            point = cfg.with_(alpha=row[alpha])
            assert row[trials] == 3
            assert row[h] == config_hash(point)
            # the config the hash names, read back from a file, rewrites the row
            path = tmp_path / "point.cfg"
            write_config(point, path)
            again = tmp_path / "again.csv"
            sweep_alpha(read_config(path), (row[alpha],), out_path=again)
            assert again.read_text().splitlines()[1] == line
        trials, h = (ROC_HEADER.index(c) for c in ("trials", "cfg_hash"))
        roc = tmp_path / "roc.csv"
        rows, records = sweep_roc(cfg, (0.01, 0.1, 1.0), out_path=roc)
        assert len(records) == 3
        assert all(row[trials] == 3 and row[h] == config_hash(cfg) for row in rows)
        path = tmp_path / "roc.cfg"
        write_config(cfg, path)
        again = tmp_path / "roc_again.csv"
        sweep_roc(read_config(path), (0.01, 0.1, 1.0), out_path=again)
        assert again.read_bytes() == roc.read_bytes()


class SignFlippedOp:
    """Fault-injection wrapper: breaks the adjoint pairing on purpose."""

    def __init__(self, op):
        self._op = op
        self.shape = op.shape

    def apply(self, h):
        return self._op.apply(h)

    def adjoint(self, y):
        out = self._op.adjoint(y)
        out[0] = -out[0]
        return out


class TestValidation:
    def test_fresh_checkout_passes(self):
        checks = validate()
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_certificate_check_certifies_every_draw(self):
        check = harness._check_bpdn_certificate()
        entries = check.detail.split("; ")
        assert check.passed and len(entries) == 5
        assert all("<=" in e for e in entries), entries

    def test_certificate_check_fails_when_no_draw_certifies(self, monkeypatch):
        # 16 x 20 draws all have delta_4 above sqrt(2) - 1
        monkeypatch.setattr(harness, "_CERTIFICATE_SHAPE", (16, 20))
        check = harness._check_bpdn_certificate()
        assert not check.passed
        assert check.detail.count("uncertified") == 5, check.detail

    @pytest.mark.parametrize("name", ["channel_gains", "delay_block"])
    def test_convolution_check_catches_conjugated_gains(self, monkeypatch, name):
        # conjugated gains, computed or read from a conjugated block, are the
        # response of the time-reversed channel
        assert harness._check_fft_convolution().passed
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *args, **kw: np.conj(original(*args, **kw)))
        check = harness._check_fft_convolution()
        assert check.name == "fft_vs_direct_convolution" and not check.passed

    def test_adjoint_check_catches_sign_flip(self):
        op = build_operator(toy_cfg())
        rng = np.random.default_rng(31)
        assert adjoint_mismatch(op, rng, pairs=20) <= 1e-10
        corrupted = SignFlippedOp(build_operator(toy_cfg()))
        assert adjoint_mismatch(corrupted, np.random.default_rng(31), pairs=20) > 1e-6


class TestCli:
    def test_validate_exit_zero(self, capsys):
        assert cli.main(["validate"]) == 0

    def test_validate_exit_two_on_failure(self, monkeypatch):
        from csra.harness import CheckResult
        monkeypatch.setattr(cli.harness, "validate",
                            lambda verbose=False: [CheckResult("x", False, "boom")])
        assert cli.main(["validate"]) == 2

    def test_config_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        for text in ("nonsense_key = 7\n", "sensing_mode = randomized\n"):
            bad.write_text(text)
            code = cli.main(["link-sim", "--config", str(bad)])
            assert code == 1
            assert "config error: " in capsys.readouterr().err
        # NaN flags fail the evaluators' domain checks, which name the flag
        out = tmp_path / "out.csv"
        for argv, message in (
                (["bounds", "--alphas", "nan"], "alpha must be in (0, 1]"),
                (["bounds", "--xi-norm", "nan"], "xi and sigma2 must be >= 0"),
                (["bounds", "--cutoff", "nan"], "cutoff_delta must be >= 0"),
                (["throughput", "--pr-rate", "nan"], "pr_rate in [0,1]"),
                (["throughput", "--lambdas", "nan"], "finite load >= 0"),
                (["throughput", "--rate", "inf"], "finite rate >= 0"),
                (["throughput", "--b-slots", "0"], "b_slots >= 1")):
            assert cli.main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and message in err, err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["link-sim", "roc"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_one(self, tmp_path, capsys, monkeypatch,
                                        command, threads):
        monkeypatch.setattr(harness, "run_trials", None)   # nothing may run
        cfg_path = tmp_path / "scenario.cfg"
        write_config(toy_cfg(trials=2), cfg_path)
        code = cli.main([command, "--config", str(cfg_path), "--threads", threads,
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert "config error: --threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, grid", [
        ("link-sim", "--alphas=0.5,0.2"), ("roc", "--xi-grid=0.5,0.2"),
        ("roc", "--xi-grid=-1,0.5"), ("link-sim", "--alphas=0.5,1.5")])
    def test_bad_grid_exit_one_before_any_trial(self, tmp_path, capsys,
                                                monkeypatch, command, grid):
        monkeypatch.setattr(harness, "run_trials", None)   # nothing may run
        cfg_path = tmp_path / "scenario.cfg"
        write_config(toy_cfg(trials=2), cfg_path)
        code = cli.main([command, "--config", str(cfg_path), grid,
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out.csv").exists()

    def test_io_error_exit_three(self, tmp_path, capsys):
        cfg = toy_cfg(trials=1)
        path = tmp_path / "scenario.cfg"
        write_config(cfg, path)
        code = cli.main(["throughput", "--out", str(tmp_path / "no" / "dir.csv")])
        assert code == 3

    def test_link_sim_runs(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        write_config(toy_cfg(trials=2), cfg_path)
        out = tmp_path / "link.csv"
        code = cli.main(["link-sim", "--config", str(cfg_path),
                         "--alphas", "0.4,0.9", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_roc_with_diagnostics(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        write_config(toy_cfg(trials=2), cfg_path)
        out = tmp_path / "roc.csv"
        diag = tmp_path / "diag"
        code = cli.main(["roc", "--config", str(cfg_path),
                         "--xi-grid", "0.01,0.5", "--out", str(out),
                         "--diagnostics", str(diag)])
        assert code == 0
        traces = sorted(diag.glob("trial*.csv"))
        assert len(traces) == 2
        assert traces[0].read_text().splitlines()[0] == "iteration,residual_norm,sparsity"

    @pytest.mark.parametrize("command, grid", [("link-sim", ["--alphas", "0.4,0.9"]),
                                               ("roc", ["--xi-grid", "0.01,0.5"])])
    def test_diagnostics_solve_each_trial_once(self, tmp_path, monkeypatch,
                                               command, grid):
        cfg_path = tmp_path / "scenario.cfg"
        write_config(toy_cfg(trials=2), cfg_path)
        calls = []

        def counting_run_trial(*args, **kwargs):
            calls.append(args[1])
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", counting_run_trial)
        plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
        base = [command, "--config", str(cfg_path), *grid]
        assert cli.main(base + ["--out", str(plain)]) == 0
        solves = len(calls)
        assert cli.main(base + ["--out", str(traced),
                                "--diagnostics", str(tmp_path / "diag")]) == 0
        assert len(calls) == 2 * solves
        assert solves == 2 * (2 if command == "link-sim" else 1)
        assert traced.read_bytes() == plain.read_bytes()
        prefixes = ["alpha0.4_", "alpha0.9_"] if command == "link-sim" else [""]
        assert sorted(p.name for p in (tmp_path / "diag").iterdir()) == [
            f"{prefix}trial0000{i}.csv" for prefix in prefixes for i in (0, 1)]

    @pytest.mark.parametrize("command, grid, alphas", [
        ("link-sim", ["--alphas", "0.4,0.9"], (0.4, 0.9)),
        ("roc", ["--xi-grid", "0.01,0.5"], (0.5,))])
    def test_run_reports_its_solves_on_stderr(self, tmp_path, capsys, command,
                                              grid, alphas):
        cfg = toy_cfg(trials=3)
        cfg_path = tmp_path / "scenario.cfg"
        write_config(cfg, cfg_path)
        out = tmp_path / "run.csv"
        assert cli.main([command, "--config", str(cfg_path), *grid,
                         "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        records = [r for a in alphas for r in run_trials(cfg.with_(alpha=a), 3)]
        agg = aggregate(records)
        assert agg["trials"] == 3 * len(alphas)
        assert agg["iterations_max"] == max(r.solver_iterations for r in records)
        assert err[0].startswith(
            f"{command}: {agg['trials']} trials, {agg['nonconverged']} "
            f"non-converged solves, iterations mean {agg['iterations_mean']:.1f} "
            f"max {agg['iterations_max']}, ")
        assert err[0].endswith(" s in trials")
        # the CSV is byte for byte what the library writes without the report
        ref = tmp_path / "ref.csv"
        sweep = sweep_alpha if command == "link-sim" else sweep_roc
        sweep(cfg, [float(g) for g in grid[1].split(",")], out_path=ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_run_splits_its_trial_time_by_stage(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        write_config(toy_cfg(trials=3, solver="bpdn"), cfg_path)
        out = tmp_path / "link.csv"
        assert cli.main(["link-sim", "--config", str(cfg_path),
                         "--alphas", "0.4,0.9", "--out", str(out)]) == 0
        err = capsys.readouterr().err.strip()
        stages = r" \+ ".join(rf"{re.escape(s)} (\d+\.\d\d)"
                             for s in harness.STAGES)
        match = re.search(rf", {stages} = (\d+\.\d\d) s in trials$", err)
        assert match, err
        *parts, total = (float(g) for g in match.groups())
        assert abs(sum(parts) - total) <= 0.005 * (len(parts) + 1)
        ref = tmp_path / "ref.csv"
        sweep_alpha(toy_cfg(trials=3, solver="bpdn"), (0.4, 0.9), out_path=ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_bounds_command(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        write_config(toy_cfg(), cfg_path)
        out = tmp_path / "bounds.csv"
        code = cli.main(["bounds", "--config", str(cfg_path),
                         "--alphas", "0.5,0.7", "--delta2k", "0.2",
                         "--cutoff", "0.1", "--out", str(out)])
        assert code == 0 and out.exists()

    def test_bounds_reports_divergent_tail(self, tmp_path, capsys):
        # the note reads the table: it prints when every pmd_bound clamps
        # to 1, whether the tail diverges (xi_norm 0.3) or the noise term
        # swamps a finite one (xi_norm 0 at desk noise)
        out = tmp_path / "bounds.csv"
        for xi_norm in ("0.3", "0"):
            assert cli.main(["bounds", "--alphas", "0.5", "--xi-norm", xi_norm,
                             "--out", str(out)]) == 0
            err = capsys.readouterr().err
            assert err.count("\n") == 1, err
            assert f"xi_norm = {float(xi_norm)}, cutoff = 0.0" in err
            assert "every pmd_bound is vacuous" in err
        # at 60 dB the bound informs (pmd about 0.005): no note
        cfg_path = tmp_path / "quiet.cfg"
        write_config(desk_profile(snr_db=60.0), cfg_path)
        assert cli.main(["bounds", "--config", str(cfg_path), "--alphas", "0.5",
                         "--xi-norm", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert 0.0 < float(out.read_text().splitlines()[1].split(",")[6]) < 0.01

    def test_bounds_table_integrates_its_tail_once(self, tmp_path, capsys,
                                                   monkeypatch):
        from scipy import integrate
        from csra.bounds import margin_tail_integral
        margin_tail_integral.cache_clear()
        calls = []
        original = integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)
        monkeypatch.setattr(integrate, "quad", counting_quad)
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--profile", "lte", "--xi-norm", "0.3",
                         "--cutoff", "0.1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 12     # 11 rows
        assert len(calls) == 1, calls

    @pytest.mark.parametrize("flag, value", [("--cutoff", "-1"),
                                             ("--xi-norm", "-0.5"),
                                             ("--delta2k", "0.5")])
    def test_bounds_out_of_domain_is_config_error(self, tmp_path, capsys,
                                                  flag, value):
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--alphas", "0.5", flag, value,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_cli_import_skips_scipy_stats(self):
        # `import csra.cli` needs numpy only: scipy.special alone costs about
        # 0.4 s and 17 MiB, and maps scipy's own OpenBLAS and thread pool
        code = ("import sys, csra.cli; "
                "sys.exit(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')) or 0)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/maps")
    def test_import_maps_one_openblas(self):
        if not numpy_on_openblas():
            pytest.skip("numpy is not built on OpenBLAS")
        code = ("import csra\n"
                "with open('/proc/self/maps') as f:\n"
                "    libs = {line.split()[-1] for line in f if 'openblas' in line}\n"
                "print(*sorted(libs), sep='\\n')")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.split()) == 1, proc.stdout

    def test_entry_point_installed(self, tmp_path):
        out = tmp_path / "throughput.csv"
        proc = subprocess.run([sys.executable, "-m", "csra.cli", "throughput",
                               "--lambdas", "0.5,1.0,2.0", "--b-slots", "1",
                               "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and out.is_file()
