"""Energy thresholding, equalization/demodulation, metric tallying, ROC."""

import numpy as np
import pytest

from csra.config import SystemConfig, slot_plan, trial_rng
from csra.detection import (detect_active, equalize_demodulate, hard_decisions,
                            tally, roc_sweep, ERASED)
from csra.model import (build_pilot_book, draw_activity, draw_channels,
                        draw_data, transmit_receive)
from csra.harness import run_trials, aggregate


def toy_cfg(**kw):
    base = dict(n=1024, m=128, window_mode="random", t_cp=32, u_max=8, k1=2,
                k2=5, b_slots=8, alpha=0.5, snr_db=20.0, modulation="bpsk",
                bits_per_user=100, seed=555, trials=4, sensing_mode="plain",
                solver="cosamp")
    base.update(kw)
    return SystemConfig(**base)


class TestDetect:
    def test_all_zero(self):
        assert detect_active(np.zeros(5), 0.0).size == 0

    def test_strict_inequality(self):
        assert detect_active(np.array([0.5]), 0.5).size == 0

    def test_basic(self):
        found = detect_active(np.array([1.0, 0.001, 0.3]), 0.01)
        assert found.tolist() == [0, 2]

    def test_nested_in_threshold(self):
        rng = np.random.default_rng(0)
        energies = rng.exponential(1.0, 40)
        grid = np.sort(rng.uniform(0, 3, 10))
        sets = [set(detect_active(energies, xi).tolist()) for xi in grid]
        assert all(sets[i] >= sets[i + 1] for i in range(len(sets) - 1))


class TestEqualizeDemodulate:
    def chain(self, cfg, trial=0):
        rng = trial_rng(cfg, trial)
        act = draw_activity(cfg, rng)
        ch = draw_channels(cfg, act, rng)
        data = draw_data(cfg, act, rng)
        pilots = build_pilot_book(cfg)
        plan = slot_plan(cfg)
        frame = transmit_receive(cfg, pilots, data, ch, rng, plan=plan)
        return act, ch, data, frame, plan

    def test_perfect_csi_noiseless_is_error_free(self):
        cfg = toy_cfg(snr_db=np.inf)
        act, ch, data, frame, plan = self.chain(cfg)
        bits, n_erased = equalize_demodulate(frame.y_freq, ch.compound, plan,
                                             act.active, cfg.modulation)
        metrics = tally(act.active, act.active, data.bits, bits, cfg.modulation)
        assert metrics.ser == 0.0 and n_erased == 0

    def test_qpsk_perfect_csi(self):
        cfg = toy_cfg(snr_db=np.inf, modulation="qpsk")
        act, ch, data, frame, plan = self.chain(cfg)
        bits, _ = equalize_demodulate(frame.y_freq, ch.compound, plan,
                                      act.active, "qpsk")
        metrics = tally(act.active, act.active, data.bits, bits, "qpsk")
        assert metrics.ser == 0.0

    def test_zero_estimate_erases_everything(self):
        cfg = toy_cfg()
        act, ch, data, frame, plan = self.chain(cfg)
        bits, n_erased = equalize_demodulate(frame.y_freq,
                                             np.zeros_like(ch.compound), plan,
                                             act.active, cfg.modulation)
        metrics = tally(act.active, act.active, data.bits, bits,
                        cfg.modulation, n_erased=n_erased)
        assert metrics.ser == 0.5           # pure guessing, by accounting
        assert n_erased == cfg.k2 * cfg.symbols_per_user

    def test_full_pilot_power_gives_half_ser(self):
        # alpha = 1: the data amplitude is zero, so decisions are coin flips
        cfg = toy_cfg(alpha=1.0, k2=5, bits_per_user=100, trials=25)
        recs = run_trials(cfg, 25)    # 25 * 5 * 100 = 12500 symbols
        ser = aggregate(recs)["ser"]
        assert 0.48 <= ser <= 0.52


class TestTally:
    def setup_method(self):
        self.tx = np.zeros((6, 4), dtype=np.int8)
        self.tx[1] = [1, 0, 1, 0]
        self.rx = np.full((6, 4), ERASED, dtype=np.int8)

    def test_perfect(self):
        self.rx[1] = self.tx[1]
        m = tally([1], [1], self.tx, self.rx, "bpsk")
        assert (m.ser, m.n_md, m.n_fa) == (0.0, 0, 0)

    def test_all_missed(self):
        m = tally([0, 1, 2], [], self.tx, self.rx, "bpsk")
        assert m.n_md == 3 and m.ser == 0.5

    def test_all_detected(self):
        m = tally([0, 1, 2], list(range(6)), self.tx, self.rx, "bpsk")
        assert m.n_fa == 3

    def test_k2_zero_gives_nan(self):
        m = tally([], [], self.tx, self.rx, "bpsk")
        assert np.isnan(m.ser)

    def test_invariant_ranges(self):
        m = tally([0, 1], [0, 3], self.tx, self.rx, "bpsk")
        assert 0 <= m.ser <= 1 and m.n_md <= m.n_active_true


class FakeRecord:
    def __init__(self, energies, active):
        self.user_energies = np.asarray(energies, dtype=float)
        self.active = np.asarray(active, dtype=int)


class TestRocSweep:
    def batch(self):
        rng = np.random.default_rng(9)
        records = []
        for _ in range(50):
            active = rng.choice(10, 3, replace=False)
            energies = rng.uniform(0, 0.2, 10)
            energies[active] += rng.exponential(1.0, 3)
            records.append(FakeRecord(energies, active))
        return records

    def test_threshold_limits(self):
        batch = self.batch()
        points = roc_sweep(batch, [0.0, 1e9])
        _, p_md_lo, p_fa_lo = points[0]
        _, p_md_hi, p_fa_hi = points[1]
        assert p_fa_lo == 1.0 and p_md_lo <= p_md_hi
        assert p_md_hi == 1.0 and p_fa_hi == 0.0

    def test_monotone_along_grid(self):
        batch = self.batch()
        grid = np.linspace(0, 3, 25)
        points = roc_sweep(batch, grid)
        p_md = [p for _, p, _ in points]
        p_fa = [p for _, _, p in points]
        assert all(p_md[i] <= p_md[i + 1] + 1e-15 for i in range(len(grid) - 1))
        assert all(p_fa[i] >= p_fa[i + 1] - 1e-15 for i in range(len(grid) - 1))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            roc_sweep(self.batch(), [])


def test_hard_decisions_qpsk_gray():
    syms = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    assert hard_decisions(syms, "qpsk").tolist() == [0, 0, 0, 1, 1, 0, 1, 1]
