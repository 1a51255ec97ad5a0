"""Transmit-side world and exact cyclic channel model.

Everything uses the unitary FFT convention W[k,l] = n^{-1/2} exp(-2i*pi*k*l/n),
so ||Wx|| = ||x|| and the received frequency-domain signal is

    y_hat(f) = sum_u sqrt(n) * h_hat_u(f) * (p_hat_u(f) + x_hat_u(f)) + e_hat(f)

with h_hat_u the unitary FFT of the zero-padded impulse response. Note
sqrt(n) * h_hat_u = numpy's unnormalized fft of the padded taps; the trial
chain evaluates it only at the subcarriers it reads (`channel_gains`), as a
sum over the nonzero taps, and never forms the n-point spectrum.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, control_window, scenario_rng, PILOT_STREAM


# ---------------------------------------------------------------------------
# Partial DFTs: the delay-major block and per-subcarrier channel gains
# ---------------------------------------------------------------------------

def _phase(k: np.ndarray, n: int) -> np.ndarray:
    """exp(-2i*pi*k/n) for integers 0 <= k < n, entry by entry (the same
    bits wherever k sits in the array)."""
    return np.exp(-2j * np.pi * k / n)


def _phase_index(delays: np.ndarray, subcarriers: np.ndarray, n: int) -> np.ndarray:
    """Exponents k = t*f mod n of exp(-2i*pi*k/n), one row per delay t, one
    column per subcarrier f. The product is reduced mod n in integers, so
    the phase argument stays below 2*pi in magnitude and keeps full
    precision at LTE size."""
    return np.outer(delays, np.asarray(subcarriers, dtype=np.int64)) % n


def delay_block(window: np.ndarray, t_cp: int, n: int) -> np.ndarray:
    """C-contiguous t_cp x m block D[t, j] = exp(-2i*pi*(window[j]*t mod n)/n),
    one row per delay t < t_cp, gathered from the n phases exp(-2i*pi*k/n):
    the same bits as evaluating each entry, for n exponentials instead of
    t_cp * m."""
    return _phase(np.arange(n), n)[_phase_index(np.arange(t_cp), window, n)]


def channel_gains(taps: np.ndarray, subcarriers: np.ndarray, n: int,
                  block: np.ndarray | None = None) -> np.ndarray:
    """sqrt(n) * h_hat(f) = sum_t taps[t] exp(-2i*pi*(f*t mod n)/n) at the
    given subcarriers only: numpy's fft(taps, n)[subcarriers] up to
    round-off. `block`, when given, holds these exponentials for every
    delay t < len(taps) (D[t, j] at subcarriers[j], the pilot book's block
    on the window) and they are read from its rows instead of computed.

    The sum runs over the nonzero taps in delay order, one elementwise
    multiply-add each, so a subcarrier's gain has the same bits whichever
    other subcarriers are evaluated with it (a GEMV does not promise that).
    """
    taps = np.asarray(taps)
    delays = np.flatnonzero(taps)
    rows = (_phase(_phase_index(delays, subcarriers, n), n) if block is None
            else block[delays])
    gains = np.zeros(len(subcarriers), dtype=complex)
    for tap, row in zip(taps[delays], rows):
        gains += tap * row
    return gains


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PilotBook:
    """Per-user frequency-domain pilots p_hat_u, supported on the control
    window and stored only there: p_hat_u(window[j]) = window_values[u, j],
    zero elsewhere in the n-point band.

    Window entries are unit-modulus random phases scaled by a common factor
    so that (1/n)*||p_u||^2 = alpha exactly. The book also owns the one
    delay-major partial-DFT block over the window (`delay_block`), which the
    channel gains on the window and the sensing operator both read.
    """

    n: int
    window: np.ndarray        # (m,)
    window_values: np.ndarray  # (u_max, m)
    block: np.ndarray         # (t_cp, m), delay_block(window, t_cp, n)

    @property
    def u_max(self) -> int:
        return self.window_values.shape[0]


@dataclass(frozen=True)
class FrameSignals:
    """One received frame in the frequency domain."""

    y_freq: np.ndarray          # (n,) received y_hat
    y_window: np.ndarray        # (m,) control-window observation
    noise_window_norm: float    # l2 norm of the noise part of y_window


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def build_pilot_book(cfg: SystemConfig) -> PilotBook:
    """Random-phase pilots on the control window, deterministic per seed."""
    rng = scenario_rng(cfg, PILOT_STREAM)
    if cfg.alpha == 0.0 and cfg.k2 > 0:
        warnings.warn("alpha = 0 with active users: pilots are zero, so "
                      "activity detection is impossible", stacklevel=2)
    amp = np.sqrt(cfg.n * cfg.alpha / cfg.m)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.u_max, cfg.m))
    window = control_window(cfg)
    return PilotBook(n=cfg.n, window=window,
                     window_values=amp * np.exp(1j * phases),
                     block=delay_block(window, cfg.t_cp, cfg.n))


def draw_activity(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """The sorted indices of the active users, shape (k2,): a uniformly
    random k2-subset of the u_max users."""
    return np.sort(rng.choice(cfg.u_max, size=cfg.k2, replace=False))


def draw_channels(cfg: SystemConfig, active: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """The u_max x t_cp taps, row u user u's, so taps.reshape(-1) is the
    compound h the operator acts on: k1 distinct uniform delays in [0, t_cp)
    per active user, i.i.d. circular-symmetric Gaussian gains with per-tap
    variance 1/k1, so E||h_u||^2 = 1; inactive users' rows are zero."""
    taps = np.zeros((cfg.u_max, cfg.t_cp), dtype=complex)
    scale = np.sqrt(1.0 / (2.0 * cfg.k1))
    for u in active:
        delays = rng.choice(cfg.t_cp, size=cfg.k1, replace=False)
        gains = scale * (rng.standard_normal(cfg.k1) + 1j * rng.standard_normal(cfg.k1))
        taps[u, delays] = gains
    return taps


def bits_to_symbols(bits: np.ndarray, modulation: str) -> np.ndarray:
    """Map bits to unit-power constellation points (BPSK or Gray QPSK)."""
    bits = np.asarray(bits)
    if modulation == "bpsk":
        return (1.0 - 2.0 * bits).astype(complex)
    if modulation == "qpsk":
        re = 1.0 - 2.0 * bits[..., 0::2]
        im = 1.0 - 2.0 * bits[..., 1::2]
        return (re + 1j * im) / np.sqrt(2.0)
    raise ValueError(f"unknown modulation {modulation!r}")


def draw_data(cfg: SystemConfig, active: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """The u_max x bits_per_user int8 payload bits; inactive users' rows
    are zero."""
    bits = np.zeros((cfg.u_max, cfg.bits_per_user), dtype=np.int8)
    for u in active:
        bits[u] = rng.integers(0, 2, size=cfg.bits_per_user)
    return bits


def transmit_receive(cfg: SystemConfig, pilots: PilotBook, bits: np.ndarray,
                     taps: np.ndarray, rng: np.random.Generator,
                     plan: np.ndarray) -> FrameSignals:
    """Superimpose all active users through their cyclic channels, add noise,
    and restrict y_hat to the control window, the observation P_B W y. The
    users with nonzero tap energy transmit, each its bits' symbols on its
    row of the slot table `plan`. Each user's pilot (on the window) and
    payload (on its slot) occupy disjoint subcarriers, so each part is added
    where it lives."""
    window = pilots.window
    active = np.flatnonzero(np.sum(np.abs(taps) ** 2, axis=1) > 0)
    data_amp = np.sqrt(1.0 - cfg.alpha)

    y_clean = np.zeros(cfg.n, dtype=complex)
    for u in active:
        subs = plan[u]
        scaled = data_amp * bits_to_symbols(bits[u], cfg.modulation)
        y_clean[window] += (channel_gains(taps[u], window, cfg.n, pilots.block)
                            * pilots.window_values[u])
        y_clean[subs] += channel_gains(taps[u], subs, cfg.n) * scaled

    noise = np.sqrt(cfg.sigma2 / 2.0) * (rng.standard_normal(cfg.n)
                                         + 1j * rng.standard_normal(cfg.n))
    y_freq = y_clean + noise
    return FrameSignals(y_freq=y_freq, y_window=y_freq[window],
                        noise_window_norm=float(np.linalg.norm(noise[window])))
