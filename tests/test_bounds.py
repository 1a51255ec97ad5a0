"""Closed-form bound evaluators, fading models, throughput, MC rate."""

import math

import numpy as np
import pytest
from scipy.special import exp1

from csra.config import (SystemConfig, desk_profile, lte_profile,
                         slot_plan, trial_rng)
from csra.model import channel_gains, draw_activity, draw_channels
from csra.bounds import (FadingModel, BoundInputs, bpdn_stability_constant,
                         margin_tail_integral, detection_error_bounds,
                         rate_lower_bound, rate_upper_bound,
                         pilot_split_rate_gap, aloha_throughput,
                         ser_rayleigh_bpsk, simulated_ergodic_rate,
                         noise_ball_radius, DELTA_MAX, _EXP1_SERIES_FROM,
                         _erlang_cdf, _exp1)


def explog1p_exponential(c):
    """Closed form E[log(1+cP)], P ~ Exp(1): e^{1/c} E1(1/c)."""
    return math.exp(1.0 / c) * exp1(1.0 / c)


class TestStabilityConstant:
    def test_anchors(self):
        assert bpdn_stability_constant(0.0) == pytest.approx(4.0, abs=1e-12)
        # paper rounds 8.47 up to 8.5
        assert 8.4 <= bpdn_stability_constant(0.2) <= 8.5
        assert bpdn_stability_constant(0.2) == pytest.approx(8.472819712177566, abs=1e-10)
        # direct arithmetic: 4 sqrt(1.4) / (1 - (1+sqrt2) 0.4)
        assert bpdn_stability_constant(0.4) == pytest.approx(137.9257595199215, abs=1e-9)

    def test_strictly_increasing_and_diverging(self):
        grid = np.linspace(0.0, DELTA_MAX - 1e-6, 50)
        vals = [bpdn_stability_constant(d) for d in grid]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
        assert vals[-1] > 1e6

    def test_domain(self):
        for bad in (-0.1, DELTA_MAX, 0.9):
            with pytest.raises(ValueError):
                bpdn_stability_constant(bad)


class TestFadingModel:
    @pytest.mark.parametrize("k1", [1, 4])
    def test_norm_density_integrates_to_one(self, k1):
        from scipy.integrate import quad
        fading = FadingModel.from_taps(k1)
        total, _ = quad(fading.norm_pdf, 0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k1", [1, 2, 5, 6])
    def test_closed_forms_match_scipy_gamma(self, k1):
        from scipy import stats
        fading = FadingModel.from_taps(k1)
        law = stats.gamma(a=k1, scale=1.0 / k1)
        for x in np.concatenate([np.linspace(1e-3, 4.0, 200), [1e-6, 6.0]]):
            assert fading.norm_pdf(x) == pytest.approx(2 * x * law.pdf(x * x),
                                                       rel=1e-12, abs=0)
            assert fading.norm_cdf(x) == pytest.approx(law.cdf(x * x),
                                                       rel=1e-12, abs=0)
        assert fading.norm_pdf(0.0) == 0.0 and fading.norm_cdf(-1.0) == 0.0

    def test_expect_log1p_closed_form(self):
        # against quadrature, also where e^(1/c) overflows (c = 1e-6, 1e-3)
        from scipy.integrate import quad
        fading = FadingModel.from_taps(3)   # per-subcarrier law is Exp(1)
        for c in (1e-6, 1e-3, 0.055, 0.5, 9.0, 99.0, 1e4):
            ref, _ = quad(lambda p: math.log1p(c * p) * math.exp(-p), 0, np.inf,
                          epsabs=0, epsrel=1e-13, limit=200)
            assert fading.expect_log1p(c) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k1", [2.5, 4.0, "4", None])
    def test_from_taps_rejects_non_integer_k1(self, k1):
        with pytest.raises(ValueError):
            FadingModel.from_taps(k1)

    def test_from_taps_accepts_numpy_integers(self):
        assert FadingModel.from_taps(np.int64(3)) == FadingModel.from_taps(3)


class TestSpecialFunctions:
    """The numpy-only E1 and Erlang CDF against their scipy.special oracles."""

    def test_exp1_is_scipy_bit_for_bit(self):
        # a dense log grid, plus both sides of the series/continued-fraction
        # switch at x = 1 and of _EXP1_SERIES_FROM, where expect_log1p
        # leaves E1 for its asymptotic series
        edge = _EXP1_SERIES_FROM
        xs = np.concatenate([
            np.geomspace(1e-10, edge, 60001)[:-1],
            np.linspace(0.9, 1.1, 2001),
            [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)],
            np.linspace(edge - 1.0, edge + 1.0, 201),
            [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1e3)],
        ])
        got = np.array([_exp1(float(x)) for x in xs])
        assert np.array_equal(got, exp1(xs))

    def test_expect_log1p_is_exp_times_exp1_below_the_switch(self):
        fading = FadingModel.from_taps(1)
        for c in (1e9, 3.0, 1.0, 0.7, 0.013, 1.0 / 499.9):
            x = 1.0 / c
            assert fading.expect_log1p(c) == math.exp(x) * exp1(x)

    @pytest.mark.parametrize("k1", range(1, 13))
    def test_erlang_cdf_matches_scipy_gammainc(self, k1):
        from scipy.special import gammainc
        near = k1 + np.array([-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0 - 1e-12, 1.0,
                              1.0 + 1e-12, 1.5, 2.0])
        xs = np.concatenate([[0.0, 1e-300, 1e-10, 700.0], near,
                             np.geomspace(1e-6, k1 + 1.0, 200),
                             np.linspace(k1 + 1.0, 60.0, 200)])
        for x in xs:
            assert _erlang_cdf(k1, float(x)) == pytest.approx(
                gammainc(k1, x), rel=1e-13, abs=0), x

    def test_erlang_cdf_against_exact_arithmetic(self):
        # the Poisson tail e^-x sum_{j>=k} x^j/j! in 60-digit decimals at the
        # exact binary x: the CDF keeps a few ulps on both sides of x = k + 1,
        # where a branch point moved down to (k + 1)/2 costs 1e-14
        from decimal import Decimal, localcontext

        def exact(k, x):
            with localcontext() as ctx:
                ctx.prec = 60
                big_x = Decimal(x)
                term = Decimal(1)
                for j in range(1, k + 1):
                    term = term * big_x / j
                total, j = Decimal(0), k
                while term > total * Decimal("1e-45"):
                    total += term
                    j += 1
                    term = term * big_x / j
                return float((-big_x).exp() * total)

        for k1 in range(1, 13):
            for x in np.concatenate([np.geomspace(1e-3, 3.0 * k1 + 3.0, 120),
                                     k1 + 1.0 + np.linspace(-2.0, 2.0, 21)]):
                assert _erlang_cdf(k1, float(x)) == pytest.approx(
                    exact(k1, float(x)), rel=3e-15, abs=0), (k1, x)

    def test_erlang_cdf_edges(self):
        assert _erlang_cdf(3, -1.0) == 0.0 and _erlang_cdf(3, math.inf) == 1.0
        assert math.isnan(_erlang_cdf(3, math.nan))
        # far past e^-x underflow both sums still start from a finite term
        assert _erlang_cdf(2000, 2000.0) == pytest.approx(0.5, abs=0.01)
        assert _erlang_cdf(5, 1e6) == 1.0


class TestMarginTailIntegral:
    def test_divergent_for_continuous_density(self):
        assert math.isinf(margin_tail_integral(0.5, FadingModel.from_taps(2)))

    @pytest.mark.parametrize("k1, xi", [(1, 0.0), (5, 0.3)])
    def test_divergent_at_zero_threshold_or_single_tap(self, k1, xi):
        # density positive at xi > 0; at xi = 0 the integrand ~ x^(2 k1 - 3)
        assert math.isinf(margin_tail_integral(xi, FadingModel.from_taps(k1)))

    @pytest.mark.parametrize("k1", [5, 6])
    def test_zero_threshold_is_inverse_norm_moment(self, k1):
        # oracle: 1e6-draw mean of 1/||h||^2 (finite variance needs k1 > 2)
        fading = FadingModel.from_taps(k1)
        value = margin_tail_integral(0.0, fading)
        assert value == k1 / (k1 - 1)
        norm = np.sqrt(np.random.default_rng(k1).gamma(k1, 1 / k1, 10 ** 6))
        inv = 1.0 / norm ** 2
        assert abs(value - inv.mean()) <= 3.0 * inv.std(ddof=1) / 1e3

    def test_fixed_cutoff_matches_monte_carlo(self):
        # oracle: 1e6-draw mean of 1{x > xi + 0.1} / (x - xi)^2
        fading = FadingModel.from_taps(2)
        xi = 0.5
        value = margin_tail_integral(xi, fading, cutoff_delta=0.1)
        x = np.sqrt(np.random.default_rng(2024).gamma(2, 1 / 2, 10 ** 6))
        mc = np.where(x > xi + 0.1, 1.0 / (x - xi) ** 2, 0.0).mean()
        assert value == pytest.approx(mc, rel=0.02)


def lte_inputs(**kw):
    base = dict(delta_2k=0.2, m=839, n=24576, alpha=0.5, sigma2=0.01, k2=10,
                xi=0.3)
    base.update(kw)
    return BoundInputs(**base)


class TestDetectionBounds:
    def test_noise_free_limit(self):
        fading = FadingModel.from_taps(2)
        det = detection_error_bounds(lte_inputs(sigma2=0.0), fading)
        assert det.pmd == pytest.approx(fading.norm_cdf(0.3), abs=1e-12)
        assert det.pfa == 0.0 and not det.divergent

    def test_point_mass_plug_in(self):
        # the plug-in by hand on the Erlang law at xi = 0: F(0) = 0 and the
        # tail is exactly E[1/||h||^2] = k1/(k1 - 1), so
        # pmd = k1/(k1 - 1) c1^2 m s2/(a k2)
        c1 = bpdn_stability_constant(0.2)
        coef = c1 ** 2 * 839 * 0.01 / (0.5 * 10)
        det = detection_error_bounds(lte_inputs(xi=0.0), FadingModel.from_taps(4))
        assert det.pmd_raw == pytest.approx(4.0 / 3.0 * coef, rel=1e-12)
        assert not det.divergent and det.pfa_raw == math.inf and det.pfa == 1.0
        det = detection_error_bounds(lte_inputs(xi=0.5), FadingModel.from_taps(4))
        assert det.pfa_raw == pytest.approx(c1 ** 2 * 839 * 0.01 / (0.5 * 0.5), rel=1e-12)

    def test_printed_variant_blows_up_as_noise_vanishes(self):
        # the paper's printed false-alarm bound c1^2 m/(a xi s2) would blow
        # up as the noise vanishes, which is why it is not evaluated; the
        # derivation-consistent bound, with s2 in the numerator, shrinks
        fading = FadingModel.from_taps(2)
        small = detection_error_bounds(lte_inputs(sigma2=1e-6), fading)
        large = detection_error_bounds(lte_inputs(sigma2=1e-2), fading)
        assert small.pfa_raw == pytest.approx(large.pfa_raw * 1e-4, rel=1e-9)

    def test_divergent_tail_makes_pmd_vacuous(self):
        det = detection_error_bounds(lte_inputs(), FadingModel.from_taps(2))
        assert det.divergent and det.pmd == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lte_inputs(delta_2k=0.5)
        with pytest.raises(ValueError):
            lte_inputs(alpha=0.0)
        for field in ("delta_2k", "alpha", "xi", "sigma2"):
            with pytest.raises(ValueError):
                lte_inputs(**{field: math.nan})


class TestRateBounds:
    def test_lower_at_full_pilot_power(self):
        lower = rate_lower_bound(lte_inputs(alpha=1.0), FadingModel.from_taps(1), pmd=0.0)
        assert lower.value == 0.0 and lower.raw == 0.0

    def test_lower_pmd_one_clamps(self):
        inputs = lte_inputs()
        lower = rate_lower_bound(inputs, FadingModel.from_taps(1), pmd=1.0)
        c1 = bpdn_stability_constant(0.2)
        penalty = math.log1p(0.5 * c1 ** 2 * 839 / (0.5 * 24576))
        assert lower.value == 0.0
        assert lower.raw == pytest.approx(-penalty, rel=1e-12)

    def test_lte_point_values_against_exp1_oracle(self):
        # alpha=0.5, delta=0.2, m=839, n=24576, sigma2=0.01, Exp(1), xi=0
        inputs = lte_inputs(xi=0.0)
        fading = FadingModel.from_taps(1)
        c1 = bpdn_stability_constant(0.2)
        penalty = math.log1p(0.5 * c1 ** 2 * 839 / (0.5 * 24576))
        assert penalty == pytest.approx(1.238604161265597, abs=1e-12)
        lower = rate_lower_bound(inputs, fading, pmd=0.0)
        first = explog1p_exponential(0.5 / 0.01)
        assert lower.raw == pytest.approx(first - penalty, abs=1e-6)
        upper = rate_upper_bound(inputs, fading)
        denom = 1.0 + c1 ** 2 * 839 / (24576 * 0.5)
        assert upper == pytest.approx(explog1p_exponential(50.0 / denom), abs=1e-6)
        # 20 dB / alpha=0.5 sits past the high-SNR crossing of the two
        # theorems (the lower bound's penalty carries a (1-alpha) factor the
        # upper bound's interference term lacks), so no ordering assert here.

    def test_upper_reduces_to_perfect_csi(self):
        inputs = lte_inputs(delta_2k=0.0, m=1, n=10 ** 9, alpha=0.5)
        upper = rate_upper_bound(inputs, FadingModel.from_taps(1))
        assert upper == pytest.approx(explog1p_exponential(50.0), rel=1e-6)

    def test_upper_not_below_clamped_lower_on_grid(self):
        # grid restricted to the moderate-SNR region where the two theorems
        # are ordered; they cross at high SNR with large alpha
        fading = FadingModel.from_taps(1)
        grid = ([(a, 1.0) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
                + [(a, 0.1) for a in (0.1, 0.3, 0.5, 0.7)]
                + [(a, 0.01) for a in (0.1, 0.3, 0.5)])
        for alpha, sigma2 in grid:
            inputs = lte_inputs(alpha=alpha, sigma2=sigma2)
            lower = rate_lower_bound(inputs, fading, pmd=0.1)
            assert rate_upper_bound(inputs, fading) >= lower.value


class TestCorollaryGap:
    def test_alpha_zero_is_equality(self):
        lhs, rhs = pilot_split_rate_gap(0.0, FadingModel.from_taps(1))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_exponential_closed_forms(self):
        lhs, rhs = pilot_split_rate_gap(0.5, FadingModel.from_taps(1))
        assert lhs == pytest.approx(math.e * exp1(1.0), abs=1e-6)
        expected_rhs = math.log(3) + math.exp(3) * exp1(3.0) - math.log(2)
        assert rhs == pytest.approx(expected_rhs, abs=1e-6)
        assert lhs <= rhs

    def test_inequality_on_grid(self):
        # the split inequality presumes unit-mean per-subcarrier power
        # (the alpha/(1-alpha) decomposition partitions E|h|^2 = 1)
        for fading in (FadingModel.from_taps(1), FadingModel.from_taps(4)):
            for alpha in np.linspace(0.0, 1.0, 11):
                lhs, rhs = pilot_split_rate_gap(float(alpha), fading)
                assert lhs <= rhs + 1e-6

    @pytest.mark.parametrize("k1", [1, 4])
    def test_monte_carlo_cross_check(self, k1):
        # both sides against 10^4 seeded draws of the power law, within 3
        # standard errors
        fading = FadingModel.from_taps(k1)
        p = np.random.default_rng(123456789).exponential(1.0, 10 ** 4)
        for alpha in np.linspace(0.0, 1.0, 11):
            lhs, rhs = pilot_split_rate_gap(float(alpha), fading)
            for value, mc in ((lhs, np.log1p(p)),
                              (rhs, np.log1p((1.0 - alpha) * p + alpha))):
                se = float(np.std(mc, ddof=1) / math.sqrt(p.size))
                assert abs(value - float(np.mean(mc))) <= 3.0 * se + 1e-12


class TestThroughput:
    def test_zero_load(self):
        assert aloha_throughput(0.0, 4, 1.0, 1.0) == 0.0

    def test_unit_anchor(self):
        assert aloha_throughput(1.0, 1, 1.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-15)

    def test_peak_at_slot_count(self):
        for b in (1, 4, 16):
            grid = np.linspace(0.0, 5.0 * b, 501)
            vals = np.array([aloha_throughput(x, b, 0.9, 2.0) for x in grid])
            peak = grid[np.argmax(vals)]
            assert abs(peak - b) <= (grid[1] - grid[0]) / 2 + 1e-12
            # unimodal: increasing then decreasing
            d = np.diff(vals)
            top = int(np.argmax(vals))
            assert np.all(d[:top] >= 0) and np.all(d[top:] <= 0)

    def test_domain(self):
        for args in ((-1.0, 1, 1.0, 1.0), (math.nan, 1, 1.0, 1.0),
                     (math.inf, 1, 1.0, 1.0), (1.0, 0, 1.0, 1.0),
                     (1.0, 1, math.nan, 1.0), (1.0, 1, 1.0, math.nan),
                     (0.0, 1, 1.0, math.inf)):
            with pytest.raises(ValueError):
                aloha_throughput(*args)


class TestSerRayleigh:
    def test_limits(self):
        assert ser_rayleigh_bpsk(0.0) == 0.5
        assert ser_rayleigh_bpsk(math.inf) == 0.0

    def test_value(self):
        assert ser_rayleigh_bpsk(10.0) == pytest.approx(0.023268705377203824, abs=1e-12)


def rate_toy(**kw):
    base = dict(n=512, m=64, window_mode="random", t_cp=8, u_max=4, k1=1,
                k2=2, b_slots=4, alpha=0.5, snr_db=0.0, modulation="bpsk",
                bits_per_user=16, seed=777, trials=10, sensing_mode="plain",
                solver="cosamp", xi_thr=0.09)
    base.update(kw)
    return SystemConfig(**base)


class TestSimulatedRate:
    def test_full_pilot_power_is_zero(self):
        est = simulated_ergodic_rate(rate_toy(alpha=1.0), trials=20, delta_2k=0.2)
        assert est.value == 0.0

    def test_perfect_csi_matches_quadrature(self):
        # a genie receiver on the estimator's own draws (true gains, every
        # active user detected, no estimation error) at alpha = 0 and
        # sigma2 = 1: the per-subcarrier rate is E log(1 + |g|^2) = e E1(1)
        cfg = rate_toy(alpha=0.0)
        plan = slot_plan(cfg)
        per_trial = np.empty(500)
        for t in range(per_trial.size):
            rng = trial_rng(cfg, t)
            activity = draw_activity(cfg, rng)
            channels = draw_channels(cfg, activity, rng)
            per_trial[t] = np.mean([
                np.mean(np.log1p(np.abs(channel_gains(
                    channels.per_user(u), plan.user_subcarriers(u), cfg.n)) ** 2))
                for u in activity.active])
        anchor = FadingModel.from_taps(cfg.k1).expect_log1p(1.0)
        assert anchor == math.e * exp1(1.0)
        stderr = np.std(per_trial, ddof=1) / math.sqrt(per_trial.size)
        assert abs(np.mean(per_trial) - anchor) <= 3.0 * stderr


def test_noise_ball_radius_formula():
    cfg = rate_toy(snr_db=20.0)
    sigma = math.sqrt(cfg.sigma2)
    expected = sigma * math.sqrt(64 + 2 * math.sqrt(64 * math.log(10.0)))
    assert noise_ball_radius(cfg) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("profile, m, miss", [
    (desk_profile, 256, 1.974057480290e-3), (lte_profile, 839, 1.607928960795e-3)])
def test_noise_ball_radius_miss_probability(profile, m, miss):
    """The exact probability that the window noise norm exceeds the radius:
    P(Gamma(m, 1) > r^2 / sigma^2), with r^2 / sigma^2 = m + 2 sqrt(m ln 10)."""
    cfg = profile()
    assert cfg.m == m
    x = noise_ball_radius(cfg) ** 2 / cfg.sigma2
    assert 1.0 - _erlang_cdf(m, x) == pytest.approx(miss, rel=1e-6)
