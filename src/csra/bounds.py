"""Closed-form evaluators for the detection and rate bounds, plus a
Monte-Carlo ergodic-rate estimator driven by the simulated chain.

All rates are in nats per subcarrier. Thresholds here live on the
channel-NORM scale (x = ||h||); the link simulator thresholds energies, so
xi_energy = xi_norm**2 when comparing the two.
"""

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import SystemConfig, slot_plan, trial_rng
from .detection import detect_active
from .model import (build_pilot_book, channel_gains, draw_activity,
                    draw_channels, draw_data, transmit_receive)
from .recovery import bpdn, cosamp
from .sensing import build_operator

RATE_UNITS = "nats"
# adaptive quadrature of the positive-cutoff margin tail integral
_QUAD_ABS_TOL = 1e-8
_QUAD_LIMIT = 200
# e^x overflows, and E1(x) runs into subnormals, near x = 700
_EXP1_SERIES_FROM = 500.0
# Euler's constant, the double nearest to it; the double below it (written
# 0.5772156649015328) breaks bit-equality with scipy.special.exp1 below x = 1
_EULER_GAMMA = 0.5772156649015329
# (k, (k + 1.0)**2) for E1XB's 25 series terms; the squares are exact
_E1XB_SERIES = tuple((k, (k + 1.0) ** 2) for k in range(1, 26))
DELTA_MAX = math.sqrt(2.0) - 1.0
# the false-alarm bound's form, as the bounds table's pfa_bound_variant cell
# names it (see detection_error_bounds)
PFA_BOUND_VARIANT = "derivation_consistent"


# ---------------------------------------------------------------------------
# Fading models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FadingModel:
    """Laws of the per-user channel norm x = ||h_u|| and of the
    per-subcarrier power P = |h(f)|^2 under the simulator's tap statistics
    (k1 taps, per-tap variance 1/k1): the squared norm is Erlang,
    Gamma(k1, 1/k1), and P is Exp(1) ("Rayleigh"). Build it through
    from_taps, which checks k1.
    """

    k1: int

    @classmethod
    def from_taps(cls, k1: int) -> "FadingModel":
        try:
            k1 = operator.index(k1)     # the norm law is Erlang: integer k1 only
        except TypeError:
            raise ValueError(f"k1 must be an integer; got {k1!r}") from None
        if k1 < 1:
            raise ValueError("k1 must be >= 1")
        return cls(k1=k1)

    # ---- channel-norm law -------------------------------------------------

    def norm_cdf(self, x: float) -> float:
        return _erlang_cdf(self.k1, self.k1 * max(x, 0.0) ** 2)

    def norm_pdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        k = self.k1
        return 2.0 * x * k * math.exp((k - 1) * math.log(k * x * x) - k * x * x
                                      - math.lgamma(k))

    # ---- per-subcarrier power law ------------------------------------------

    def expect_log1p(self, c: float) -> float:
        """E[log(1 + c P)] = e^x E1(x), x = 1/c, under the Exp(1) law."""
        if c == 0.0:
            return 0.0
        if math.isinf(c):
            return math.inf
        if c < 0:
            raise ValueError("c must be >= 0")
        x = 1.0 / c
        if x < _EXP1_SERIES_FROM:
            return math.exp(x) * _exp1(x)
        # asymptotic series sum_k (-1)^k k! / x^(k+1): past x = 500 its
        # terms fall below 1e-17 of the sum within 7 terms, long before
        # they would start to grow (at k ~ x)
        total, term, k = 0.0, 1.0 / x, 0
        while abs(term) > 1e-17 * total:
            total += term
            k += 1
            term *= -k / x
        return total


def _exp1(x: float) -> float:
    """E1(x) for x > 0, ported line for line from E1XB (Zhang & Jin,
    Computation of Special Functions, 1996), the routine behind
    scipy.special.exp1, whose values it reproduces bit for bit."""
    if x <= 1.0:
        e1 = r = 1.0
        for k, square in _E1XB_SERIES:
            r = -r * k * x / square
            e1 += r
            if abs(r) <= abs(e1) * 1e-15:
                break
        return -_EULER_GAMMA - math.log(x) + x * e1
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


def _poisson_pmf(j: int, x: float) -> float:
    """e^-x x^j / j!: a running product while e^-x is a normal float (each
    partial product is itself a Poisson probability, so none overflows),
    through logarithms past that."""
    if x < 700.0:
        p = math.exp(-x)
        for i in range(1, j + 1):
            p *= x / i
        return p
    return math.exp(j * math.log(x) - x - math.lgamma(j + 1.0))


@lru_cache(maxsize=256)     # a bound row reads F(xi) twice, a table one xi
def _erlang_cdf(k: int, x: float) -> float:
    """P(k, x), the regularized lower incomplete gamma function at integer
    k (scipy.special.gammainc(k, x)): the Poisson tail e^-x sum_{j>=k} x^j/j!
    below x = k + 1, else 1 - e^-x sum_{j<k} x^j/j!. Each sum starts from its
    largest term, and the side summed is never close to 1, so neither the
    sums nor the subtraction cancel."""
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < k + 1:
        term = total = _poisson_pmf(k, x)
        j = k
        while term > total * 1e-17:
            j += 1
            term *= x / j
            total += term
        return total
    term = total = _poisson_pmf(k - 1, x)
    for j in range(k - 1, 0, -1):
        term *= j / x
        total += term
    return 1.0 - total


# ---------------------------------------------------------------------------
# Bound ingredients
# ---------------------------------------------------------------------------

def bpdn_stability_constant(delta: float) -> float:
    """Noise amplification of the ell1 recovery guarantee,
    4 sqrt(1+delta) / (1 - (1+sqrt 2) delta); defined for delta < sqrt(2)-1."""
    if not 0.0 <= delta < DELTA_MAX:
        raise ValueError(f"delta must be in [0, sqrt(2)-1); got {delta}")
    return 4.0 * math.sqrt(1.0 + delta) / (1.0 - (1.0 + math.sqrt(2.0)) * delta)


@lru_cache(maxsize=256)     # a bound table reads one (xi, k1, cutoff)
def margin_tail_integral(xi: float, fading: FadingModel,
                         cutoff_delta: float = 0.0) -> float:
    """Integral of dF(x) / (x - xi)^2 over x > xi + cutoff_delta, where F is
    the channel-norm distribution.

    With cutoff_delta = 0 it has a closed form: it is math.inf when xi > 0
    (the density is positive at xi) or k1 == 1 (near 0 the integrand behaves
    like x^(2 k1 - 3)), and E[1/||h||^2] = k1/(k1 - 1) otherwise. A
    positive cutoff is integrated by adaptive quadrature.
    """
    if not xi >= 0:         # NaN fails both tests
        raise ValueError("xi must be >= 0")
    if not cutoff_delta >= 0:
        raise ValueError("cutoff_delta must be >= 0")
    if cutoff_delta == 0.0:
        if xi > 0.0 or fading.k1 == 1:
            return math.inf
        return fading.k1 / (fading.k1 - 1)
    from scipy import integrate         # kept off the import path (memory, start-up)
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(
                lambda x: fading.norm_pdf(x) / (x - xi) ** 2,
                xi + cutoff_delta, np.inf,
                epsabs=_QUAD_ABS_TOL, limit=_QUAD_LIMIT)
        except integrate.IntegrationWarning as exc:
            raise RuntimeError(f"tail quadrature did not converge: {exc}") from exc
    return float(val)


# ---------------------------------------------------------------------------
# Detection bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInputs:
    delta_2k: float
    m: int
    n: int
    alpha: float
    sigma2: float
    k2: int
    xi: float                                   # channel-norm threshold
    # the stability constant all three bounds of a row use, computed once
    c1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.delta_2k < DELTA_MAX:
            raise ValueError("delta_2k out of the guarantee domain [0, sqrt(2)-1)")
        # each test is written so that NaN fails it
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not self.k2 >= 1:
            raise ValueError("k2 must be >= 1")
        if not (self.xi >= 0.0 and self.sigma2 >= 0.0):
            raise ValueError("xi and sigma2 must be >= 0")
        object.__setattr__(self, "c1", bpdn_stability_constant(self.delta_2k))


@dataclass(frozen=True)
class DetectionBounds:
    pmd: float          # clamped to [0, 1]
    pfa: float          # clamped to [0, 1]
    pmd_raw: float
    pfa_raw: float
    divergent: bool     # margin tail integral diverged -> pmd is vacuous


def detection_error_bounds(inputs: BoundInputs, fading: FadingModel,
                           cutoff_delta: float = 0.0) -> DetectionBounds:
    """Missed-detection / false-alarm probability bounds.

    pmd <= F(xi) + c_tail(xi) * c1^2 m sigma^2 / (alpha k2), with c_tail the
    margin tail integral and F the channel-norm law of `fading`.
    pfa <= c1^2 m sigma^2 / (alpha xi), the derivation-consistent form
    (PFA_BOUND_VARIANT). The paper prints c1^2 m / (alpha xi sigma^2),
    which grows without limit as sigma^2 -> 0, so a noise-free receiver
    would get the worst false-alarm bound; the derivation puts sigma^2 in
    the numerator, and that form is the one evaluated.
    Values are clamped to [0, 1] with the raw values retained.
    """
    c1 = inputs.c1
    coef = c1 ** 2 * inputs.m * inputs.sigma2 / (inputs.alpha * inputs.k2)
    divergent = False
    if coef == 0.0:
        pmd_raw = fading.norm_cdf(inputs.xi)
    else:
        tail = margin_tail_integral(inputs.xi, fading, cutoff_delta)
        divergent = math.isinf(tail)
        pmd_raw = fading.norm_cdf(inputs.xi) + tail * coef

    pfa_raw = (math.inf if inputs.xi == 0.0
               else c1 ** 2 * inputs.m * inputs.sigma2 / (inputs.alpha * inputs.xi))

    clamp = lambda v: float(min(max(v, 0.0), 1.0))
    return DetectionBounds(pmd=clamp(pmd_raw), pfa=clamp(pfa_raw),
                           pmd_raw=float(pmd_raw), pfa_raw=float(pfa_raw),
                           divergent=divergent)


# ---------------------------------------------------------------------------
# Rate bounds
# ---------------------------------------------------------------------------

class ClampedRate(NamedTuple):
    value: float    # clamped below at 0
    raw: float


def rate_lower_bound(inputs: BoundInputs, fading: FadingModel,
                     pmd: float) -> ClampedRate:
    """Achievable-rate lower bound per subcarrier:
    E_{||h||>xi}[log(1+(1-a)P/s2)] (1-pmd) - log(1+(1-a) c1^2 m/(a n)).

    The conditioning on the norm event and the per-subcarrier power law are
    treated as independent (they factor under the Gamma/Exp model), so the
    conditional expectation collapses to the unconditional one whenever the
    event ||h|| > xi has positive probability, and to 0 otherwise.
    """
    if not 0.0 <= pmd <= 1.0:
        raise ValueError("pmd must be in [0, 1]")
    c1 = inputs.c1
    if fading.norm_cdf(inputs.xi) < 1.0:
        c = (math.inf if inputs.sigma2 == 0.0 and inputs.alpha < 1.0
             else (1.0 - inputs.alpha) / inputs.sigma2 if inputs.sigma2 > 0 else 0.0)
        first = fading.expect_log1p(c)
    else:
        first = 0.0
    penalty = math.log1p((1.0 - inputs.alpha) * c1 ** 2 * inputs.m
                         / (inputs.alpha * inputs.n))
    raw = first * (1.0 - pmd) - penalty
    return ClampedRate(value=max(raw, 0.0), raw=raw)


def rate_upper_bound(inputs: BoundInputs, fading: FadingModel) -> float:
    """Achievable-rate upper bound per subcarrier:
    E[log(1 + (1-a) P / s2 / (1 + c1^2 m/(n a)))]."""
    c1 = inputs.c1
    denom = 1.0 + c1 ** 2 * inputs.m / (inputs.n * inputs.alpha)
    if inputs.alpha == 1.0:
        return 0.0
    c = (math.inf if inputs.sigma2 == 0.0
         else (1.0 - inputs.alpha) / inputs.sigma2 / denom)
    return fading.expect_log1p(c)


# ---------------------------------------------------------------------------
# Corollary gap, throughput, reference SER
# ---------------------------------------------------------------------------

def pilot_split_rate_gap(alpha: float, fading: FadingModel):
    """(lhs, rhs) of the estimator-split inequality
    E log(1+P) <= E log(1+(1-alpha) P + alpha), in closed form: the
    right side factors as log(1+alpha) + E log(1 + (1-alpha)/(1+alpha) P),
    so both sides are expect_log1p values."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    lhs = fading.expect_log1p(1.0)
    rhs = math.log1p(alpha) + fading.expect_log1p((1.0 - alpha) / (1.0 + alpha))
    return lhs, rhs


def aloha_throughput(load: float, b_slots: int, pr_rate: float, rate: float) -> float:
    """Average throughput lambda exp(-lambda/B) Pr(R > target) * target."""
    if not (0.0 <= load < math.inf and b_slots >= 1 and 0.0 <= pr_rate <= 1.0
            and 0.0 <= rate < math.inf):     # NaN fails every test
        raise ValueError("need finite load >= 0, b_slots >= 1, pr_rate in [0,1], "
                         "finite rate >= 0")
    return load * math.exp(-load / b_slots) * pr_rate * rate


def ser_rayleigh_bpsk(gamma_bar: float) -> float:
    """Reference BPSK symbol error rate over Rayleigh fading at mean SNR
    gamma_bar: (1 - sqrt(gamma/(1+gamma))) / 2."""
    if gamma_bar < 0:
        raise ValueError("gamma_bar must be >= 0")
    if math.isinf(gamma_bar):
        return 0.0
    return 0.5 * (1.0 - math.sqrt(gamma_bar / (1.0 + gamma_bar)))


# ---------------------------------------------------------------------------
# Monte-Carlo ergodic rate from the simulated chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateEstimate:
    value: float
    stderr: float
    p_md_hat: float
    trials: int


def simulated_ergodic_rate(cfg: SystemConfig, trials: int,
                           delta_2k: float) -> RateEstimate:
    """Per-subcarrier rate of the parallel-channel decomposition, averaged
    over simulated activity/fading/estimation/detection.

    For each detected active user, SINR(f) = (1-a)|g(f)|^2 / (s2 + q) on its
    slot subcarriers, with g the true gain and q = s2 c1^2 m/(n a) the
    estimation-error power that the recovery certificate, and so the
    closed-form bounds, budget. Estimation enters through the detection
    outcome and this budgeted interference, which makes the estimate
    comparable against rate_lower_bound/rate_upper_bound (the realized
    solver error sits far below its certificate). Missed active users
    contribute zero rate.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if cfg.k2 < 1:
        raise ValueError("the rate estimator needs k2 >= 1")

    pilots = build_pilot_book(cfg)
    op = build_operator(cfg, pilots)
    plan = slot_plan(cfg, pilots.window)
    c1 = bpdn_stability_constant(delta_2k)
    q_cert = cfg.sigma2 * c1 ** 2 * cfg.m / (cfg.n * cfg.alpha) if cfg.alpha > 0 else math.inf

    per_trial = np.empty(trials)
    missed = 0
    total_active = 0
    for t in range(trials):
        rng = trial_rng(cfg, t)
        active = draw_activity(cfg, rng)
        taps = draw_channels(cfg, active, rng)
        bits = draw_data(cfg, active, rng)
        frame = transmit_receive(cfg, pilots, bits, taps, rng, plan=plan)
        if cfg.solver == "cosamp":
            rec = cosamp(op, frame.y_window, k=max(cfg.k1 * cfg.k2, 1))
        else:
            rec = bpdn(op, frame.y_window, noise_ball_radius(cfg))
        detected = detect_active(rec.user_energies, cfg.xi_thr)

        rates = []
        for u in active:
            total_active += 1
            if u not in detected:
                missed += 1
                rates.append(0.0)
                continue
            g = channel_gains(taps[u], plan[u], cfg.n)
            sinr = (1.0 - cfg.alpha) * np.abs(g) ** 2 / (cfg.sigma2 + q_cert)
            rates.append(float(np.mean(np.log1p(sinr))))
        per_trial[t] = float(np.mean(rates))

    value = float(np.mean(per_trial))
    stderr = float(np.std(per_trial, ddof=1) / math.sqrt(trials))
    return RateEstimate(value=value, stderr=stderr,
                        p_md_hat=missed / max(total_active, 1), trials=trials)


def noise_ball_radius(cfg: SystemConfig) -> float:
    """Default BPDN residual budget: sigma*sqrt(m + 2 sqrt(m log 10)). The
    window noise energy is sigma^2 Gamma(m, 1), so the norm exceeds the
    radius with probability P(Gamma(m, 1) > m + 2 sqrt(m ln 10)): 1.97e-3
    at m = 256 (desk) and 1.61e-3 at m = 839 (LTE), a coverage above 99.8%.
    Trials whose realized noise exceeds it are the 'discarded' cases,
    counted separately."""
    sigma = math.sqrt(cfg.sigma2)
    return sigma * math.sqrt(cfg.m + 2.0 * math.sqrt(cfg.m * math.log(10.0)))
