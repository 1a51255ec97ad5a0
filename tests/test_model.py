"""Transmit-side model: pilots, activity, channels, cyclic convolution."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csra.config import (SystemConfig, control_window, lte_profile, slot_plan,
                         trial_rng)
from csra.model import (build_pilot_book, channel_gains, delay_block,
                        draw_activity, draw_channels, draw_data,
                        circular_convolve, transmit_receive, unitary_fft,
                        unitary_ifft)
from csra.sensing import randomized_multiplier


def toy_cfg(**kw):
    base = dict(n=256, m=64, window_mode="contiguous", t_cp=32, u_max=8, k1=2,
                k2=5, b_slots=8, alpha=0.5, snr_db=20.0, modulation="bpsk",
                bits_per_user=16, seed=321, trials=4, sensing_mode="plain")
    base.update(kw)
    return SystemConfig(**base)


def pilot_spectrum(pilots, u):
    """User u's n-point pilot spectrum: the window values, zero elsewhere."""
    freq = np.zeros(pilots.n, dtype=complex)
    freq[pilots.window] = pilots.window_values[u]
    return freq


def dense_circulant(v):
    n = len(v)
    return np.array([[v[(i - j) % n] for j in range(n)] for i in range(n)])


class TestPilots:
    def test_power_and_support(self):
        cfg = toy_cfg()
        book = build_pilot_book(cfg)
        assert np.array_equal(book.window, control_window(cfg))
        assert book.n == cfg.n and book.window_values.shape == (cfg.u_max, cfg.m)
        # (1/n)||p_u||^2 = alpha exactly (Parseval: time and freq norms agree)
        for u in range(cfg.u_max):
            assert np.linalg.norm(book.window_values[u]) ** 2 / cfg.n == pytest.approx(cfg.alpha, abs=1e-12)
        mags = np.abs(book.window_values)
        assert np.allclose(mags, mags[0, 0])

    def test_zero_alpha_warns_and_zeroes(self):
        with pytest.warns(UserWarning):
            book = build_pilot_book(toy_cfg(alpha=0.0))
        assert np.all(book.window_values == 0)

    def test_pairwise_distinct_and_deterministic(self):
        cfg = toy_cfg()
        a = build_pilot_book(cfg)
        b = build_pilot_book(cfg)
        assert np.array_equal(a.window_values, b.window_values)
        for u in range(cfg.u_max):
            for v in range(u + 1, cfg.u_max):
                assert not np.allclose(a.window_values[u], a.window_values[v])


class TestActivity:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        assert draw_activity(toy_cfg(k2=0), rng).active.size == 0
        act = draw_activity(toy_cfg(k2=8), rng)
        assert np.array_equal(act.active, np.arange(8))

    def test_uniform_frequency(self):
        # law of large numbers: each user active with frequency k2/U
        cfg = toy_cfg(u_max=100, k2=10, b_slots=4, bits_per_user=16)
        rng = np.random.default_rng(7)
        counts = np.zeros(100)
        n_draws = 10 ** 4
        for _ in range(n_draws):
            counts[draw_activity(cfg, rng).active] += 1
        freq = counts / n_draws
        assert np.all(np.abs(freq - 0.1) <= 0.01)


class TestChannels:
    def test_inactive_zero_and_support(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(1)
        empty = draw_channels(cfg, draw_activity(toy_cfg(k2=0), rng), rng)
        assert np.all(empty.compound == 0)
        act = draw_activity(cfg, rng)
        ch = draw_channels(cfg, act, rng)
        assert np.count_nonzero(ch.compound) == cfg.k1 * cfg.k2
        for u in act.active:
            delays = np.flatnonzero(ch.per_user(u))
            assert len(delays) == cfg.k1
            assert delays.max() < cfg.t_cp

    def test_paper_scale_delay_bound(self):
        # 6 paths under a 300-sample delay spread
        cfg = SystemConfig(n=1024, m=128, t_cp=300, u_max=2, k1=6, k2=2,
                           b_slots=2, bits_per_user=16, seed=5)
        rng = np.random.default_rng(2)
        ch = draw_channels(cfg, draw_activity(cfg, rng), rng)
        for u in range(2):
            delays = np.flatnonzero(ch.per_user(u))
            assert delays.max() < 300

    def test_mean_energy(self):
        # Monte-Carlo mean of a Gamma(k1, 1/k1) energy is 1
        cfg = toy_cfg(u_max=1, k2=1, k1=4, b_slots=1)
        rng = np.random.default_rng(3)
        act = draw_activity(cfg, rng)
        total = 0.0
        n_draws = 10 ** 4
        for _ in range(n_draws):
            total += draw_channels(cfg, act, rng).user_energies()[0]
        assert total / n_draws == pytest.approx(1.0, abs=0.03)


class TestConvolution:
    def test_impulses(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        h0 = np.zeros(16, dtype=complex)
        h0[0] = 1.0
        assert np.allclose(circular_convolve(h0, s), s, atol=1e-12)
        h1 = np.zeros(16, dtype=complex)
        h1[1] = 1.0
        assert np.allclose(circular_convolve(h1, s), np.roll(s, 1), atol=1e-12)

    def test_matches_dense_circulant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert np.max(np.abs(circular_convolve(h, s) - dense_circulant(h) @ s)) <= 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circular_convolve(np.zeros(4), np.zeros(5))


class TestChannelGains:
    @pytest.mark.parametrize("cfg", [toy_cfg(), toy_cfg(window_mode="random"),
                                     lte_profile()], ids=["toy", "toy-random", "lte"])
    def test_block_is_the_partial_dft_transposed_bitwise(self, cfg):
        # the m x t_cp partial-DFT formula the sensing operator used to build
        window = control_window(cfg)
        ft = np.outer(np.asarray(window, dtype=np.int64), np.arange(cfg.t_cp)) % cfg.n
        partial_dft = np.exp(-2j * np.pi * ft / cfg.n)
        block = build_pilot_book(cfg).block
        assert block.flags.c_contiguous and block.shape == (cfg.t_cp, cfg.m)
        assert np.array_equal(block, partial_dft.T)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_fft(self, data):
        n = data.draw(st.integers(1, 24576), label="n")
        t_cp = data.draw(st.integers(1, min(n, 300)), label="t_cp")
        nnz = data.draw(st.integers(0, min(t_cp, 8)), label="nonzero taps")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        taps = np.zeros(t_cp, dtype=complex)
        taps[rng.choice(t_cp, nnz, replace=False)] = (rng.standard_normal(nnz)
                                                      + 1j * rng.standard_normal(nnz))
        subs = np.unique(np.concatenate(
            ([0, n - 1], rng.choice(n, data.draw(st.integers(0, 64))))))
        expected = np.fft.fft(taps, n)[subs]
        direct = channel_gains(taps, subs, n)
        windowed = channel_gains(taps, subs, n, delay_block(subs, t_cp, n))
        tol = 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(direct - expected)) <= tol
        # the window path reads the same exponentials from the block's rows
        assert np.array_equal(windowed, direct)

    def test_gains_do_not_depend_on_the_other_subcarriers(self):
        rng = np.random.default_rng(8)
        n = 24576
        taps = np.zeros(300, dtype=complex)
        taps[rng.choice(300, 6, replace=False)] = rng.standard_normal(6) + 1j
        full = channel_gains(taps, np.arange(n), n)
        for size in (1, 7, 200, 839):
            subs = np.sort(rng.choice(n, size, replace=False))
            assert np.array_equal(channel_gains(taps, subs, n), full[subs])


class TestTransmitReceive:
    def test_silent_frame(self):
        cfg = toy_cfg(k2=0, snr_db=np.inf)
        rng = trial_rng(cfg, 0)
        act = draw_activity(cfg, rng)
        ch = draw_channels(cfg, act, rng)
        data = draw_data(cfg, act, rng)
        frame = transmit_receive(cfg, build_pilot_book(cfg), data, ch, rng)
        assert np.all(frame.y_freq == 0)

    def test_unit_tap_identity_channel(self):
        cfg = toy_cfg(k2=1, snr_db=np.inf)
        rng = trial_rng(cfg, 0)
        act = draw_activity(cfg, rng)
        u = act.active[0]
        ch = draw_channels(cfg, act, rng)
        h = np.zeros_like(ch.compound)
        h[u * cfg.t_cp] = 1.0          # single tap, delay 0, gain 1
        ch = type(ch)(compound=h, u_max=cfg.u_max, t_cp=cfg.t_cp)
        data = draw_data(cfg, act, rng)
        pilots = build_pilot_book(cfg)
        plan = slot_plan(cfg)
        frame = transmit_receive(cfg, pilots, data, ch, rng, plan=plan)
        x_freq = np.zeros(cfg.n, dtype=complex)
        x_freq[plan.user_subcarriers(u)] = frame.tx_symbols[u]
        assert np.allclose(frame.y_freq, pilot_spectrum(pilots, u) + x_freq, atol=1e-12)

    def test_matches_time_domain_oracle(self):
        # oracle: per-user dense circulant convolution in time, then unitary FFT
        cfg = toy_cfg(snr_db=np.inf)
        rng = trial_rng(cfg, 1)
        act = draw_activity(cfg, rng)
        ch = draw_channels(cfg, act, rng)
        data = draw_data(cfg, act, rng)
        pilots = build_pilot_book(cfg)
        plan = slot_plan(cfg)
        frame = transmit_receive(cfg, pilots, data, ch, rng, plan=plan)

        y_time = np.zeros(cfg.n, dtype=complex)
        for u in act.active:
            h_pad = np.zeros(cfg.n, dtype=complex)
            h_pad[:cfg.t_cp] = ch.per_user(u)
            x_freq = np.zeros(cfg.n, dtype=complex)
            x_freq[plan.user_subcarriers(u)] = frame.tx_symbols[u]
            tx_time = unitary_ifft(pilot_spectrum(pilots, u) + x_freq)
            y_time += dense_circulant(h_pad) @ tx_time
        oracle = unitary_fft(y_time)
        assert np.max(np.abs(oracle - frame.y_freq)) <= 1e-9

    def test_power_accounting(self):
        # unit-tap channel, sigma^2 = 0: control power alpha per symbol,
        # slot-subcarrier power (1 - alpha)
        cfg = toy_cfg(k2=1, alpha=0.3, snr_db=np.inf, bits_per_user=16)
        win = control_window(cfg)
        plan = slot_plan(cfg)
        pilots = build_pilot_book(cfg)
        slot_power = []
        for t in range(64):
            rng = trial_rng(cfg, t)
            act = draw_activity(cfg, rng)
            u = act.active[0]
            h = np.zeros(cfg.u_max * cfg.t_cp, dtype=complex)
            h[u * cfg.t_cp] = 1.0
            from csra.model import ChannelProfile
            ch = ChannelProfile(compound=h, u_max=cfg.u_max, t_cp=cfg.t_cp)
            data = draw_data(cfg, act, rng)
            frame = transmit_receive(cfg, pilots, data, ch, rng, plan=plan)
            assert np.sum(np.abs(frame.y_freq[win]) ** 2) / cfg.n == pytest.approx(0.3, abs=1e-12)
            slot_power.extend(np.abs(frame.y_freq[plan.user_subcarriers(u)]) ** 2)
        assert np.mean(slot_power) == pytest.approx(0.7, rel=0.02)

    @pytest.mark.parametrize("overrides", [
        dict(window_mode="contiguous"),
        dict(window_mode="random"),
        dict(window_mode="random", sensing_mode="randomized"),
        dict(window_mode="contiguous", b_slots=3),   # shared slots
    ])
    def test_matches_full_band_formula_bitwise(self, overrides):
        # each user's channel applied to its full n-point pilot + payload
        # spectrum, as the window-scatter form must reproduce bit for bit;
        # the full-band gains come from the same kernel on all n subcarriers
        cfg = toy_cfg(**overrides)
        pilots = build_pilot_book(cfg)
        plan = slot_plan(cfg)
        xi = randomized_multiplier(cfg)
        for t in range(4):
            rng = trial_rng(cfg, t)
            act = draw_activity(cfg, rng)
            ch = draw_channels(cfg, act, rng)
            data = draw_data(cfg, act, rng)
            noise_rng = copy.deepcopy(rng)
            frame = transmit_receive(cfg, pilots, data, ch, rng, plan=plan, xi=xi)
            y_clean = np.zeros(cfg.n, dtype=complex)
            for u in act.active:
                x_freq = np.zeros(cfg.n, dtype=complex)
                x_freq[plan.user_subcarriers(u)] = np.sqrt(1.0 - cfg.alpha) * data.symbols[u]
                gains = channel_gains(ch.per_user(u), np.arange(cfg.n), cfg.n)
                y_clean += gains * (pilot_spectrum(pilots, u) + x_freq)
            noise = np.sqrt(cfg.sigma2 / 2.0) * (noise_rng.standard_normal(cfg.n)
                                                 + 1j * noise_rng.standard_normal(cfg.n))
            y_freq = y_clean + noise
            assert np.array_equal(frame.y_freq, y_freq)
            if xi is None:
                y_window = y_freq[pilots.window]
            else:
                y_window = unitary_fft(xi * unitary_ifft(y_freq))[pilots.window]
            assert np.array_equal(frame.y_window, y_window)

    def test_deterministic(self):
        cfg = toy_cfg()
        def frame():
            rng = trial_rng(cfg, 3)
            act = draw_activity(cfg, rng)
            ch = draw_channels(cfg, act, rng)
            data = draw_data(cfg, act, rng)
            return transmit_receive(cfg, build_pilot_book(cfg), data, ch, rng)
        a, b = frame(), frame()
        assert np.array_equal(a.y_freq, b.y_freq)
        assert np.array_equal(a.y_window, b.y_window)
        assert np.array_equal(a.tx_bits, b.tx_bits)


def test_parseval():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert abs(np.linalg.norm(unitary_fft(x)) - np.linalg.norm(x)) <= 1e-10
