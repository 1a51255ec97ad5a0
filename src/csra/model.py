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

from .config import (SystemConfig, SlotPlan, control_window, slot_plan,
                     scenario_rng, PILOT_STREAM)


def unitary_fft(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(x, norm="ortho")


def unitary_ifft(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft(x, norm="ortho")


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
    alpha: float
    block: np.ndarray         # (t_cp, m), delay_block(window, t_cp, n)

    @property
    def u_max(self) -> int:
        return self.window_values.shape[0]


@dataclass(frozen=True)
class ActivityPattern:
    """Set of active user indices (0-based, sorted)."""

    active: np.ndarray
    u_max: int

    @property
    def k2(self) -> int:
        return len(self.active)


@dataclass(frozen=True)
class ChannelProfile:
    """Compound sparse channel h = [h_1^T ... h_U^T]^T, h_u in C^{t_cp}."""

    compound: np.ndarray      # (u_max * t_cp,)
    u_max: int
    t_cp: int

    def per_user(self, u: int) -> np.ndarray:
        return self.compound[u * self.t_cp:(u + 1) * self.t_cp]

    def user_energies(self) -> np.ndarray:
        h = self.compound.reshape(self.u_max, self.t_cp)
        return np.sum(np.abs(h) ** 2, axis=1)


@dataclass(frozen=True)
class UserData:
    """Payload bits and unit-power constellation symbols per user.

    Inactive users carry all-zero rows; symbols here are unscaled (the
    (1-alpha) power split is applied when embedding into the frame).
    """

    bits: np.ndarray          # (u_max, bits_per_user) int8
    symbols: np.ndarray       # (u_max, symbols_per_user) complex


@dataclass(frozen=True)
class FrameSignals:
    """One transmitted/received frame in the frequency domain."""

    y_freq: np.ndarray          # (n,) received y_hat
    y_window: np.ndarray        # (m,) control-window observation
    tx_bits: np.ndarray         # (u_max, bits_per_user)
    tx_symbols: np.ndarray      # (u_max, symbols_per_user), amplitude-scaled
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
                     window_values=amp * np.exp(1j * phases), alpha=cfg.alpha,
                     block=delay_block(window, cfg.t_cp, cfg.n))


def draw_activity(cfg: SystemConfig, rng: np.random.Generator) -> ActivityPattern:
    """Uniformly random k2-subset of the u_max users."""
    active = np.sort(rng.choice(cfg.u_max, size=cfg.k2, replace=False))
    return ActivityPattern(active=active, u_max=cfg.u_max)


def draw_channels(cfg: SystemConfig, activity: ActivityPattern,
                  rng: np.random.Generator) -> ChannelProfile:
    """k1 distinct uniform delays in [0, t_cp) per active user, i.i.d.
    circular-symmetric Gaussian gains with per-tap variance 1/k1, so
    E||h_u||^2 = 1 for active users. Inactive users are all-zero."""
    compound = np.zeros(cfg.u_max * cfg.t_cp, dtype=complex)
    scale = np.sqrt(1.0 / (2.0 * cfg.k1))
    for u in activity.active:
        delays = rng.choice(cfg.t_cp, size=cfg.k1, replace=False)
        gains = scale * (rng.standard_normal(cfg.k1) + 1j * rng.standard_normal(cfg.k1))
        compound[u * cfg.t_cp + delays] = gains
    return ChannelProfile(compound=compound, u_max=cfg.u_max, t_cp=cfg.t_cp)


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


def draw_data(cfg: SystemConfig, activity: ActivityPattern,
              rng: np.random.Generator) -> UserData:
    bits = np.zeros((cfg.u_max, cfg.bits_per_user), dtype=np.int8)
    symbols = np.zeros((cfg.u_max, cfg.symbols_per_user), dtype=complex)
    for u in activity.active:
        b = rng.integers(0, 2, size=cfg.bits_per_user).astype(np.int8)
        bits[u] = b
        symbols[u] = bits_to_symbols(b, cfg.modulation)
    return UserData(bits=bits, symbols=symbols)


def circular_convolve(h_padded: np.ndarray, s: np.ndarray) -> np.ndarray:
    """circ(h_padded) @ s via the FFT identity circ(v) s = sqrt(n) W*(v_hat . s_hat)."""
    h_padded = np.asarray(h_padded)
    s = np.asarray(s)
    if h_padded.shape != s.shape or h_padded.ndim != 1:
        raise ValueError("circular_convolve expects two vectors of equal length")
    return np.fft.ifft(np.fft.fft(h_padded) * np.fft.fft(s))


def extract_window(y_freq: np.ndarray, window: np.ndarray,
                   xi: np.ndarray | None = None) -> np.ndarray:
    """Control-window observation.

    Plain mode (xi None): restriction of y_hat to the window, P_B W y.
    Randomized mode: the receiver multiplies the time-domain signal
    pointwise by xi before the FFT, P_B W M_xi y.
    """
    if xi is None:
        return y_freq[window]
    y_time = unitary_ifft(y_freq)
    return unitary_fft(xi * y_time)[window]


def transmit_receive(cfg: SystemConfig, pilots: PilotBook, data: UserData,
                     channels: ChannelProfile, rng: np.random.Generator,
                     plan: SlotPlan | None = None,
                     xi: np.ndarray | None = None) -> FrameSignals:
    """Superimpose all active users through their cyclic channels, add noise,
    and extract the control-window observation. Each user's pilot (on the
    window) and payload (on its slot) occupy disjoint subcarriers, so each
    part is added where it lives."""
    window = pilots.window
    if plan is None:
        plan = slot_plan(cfg, window)

    active = np.flatnonzero(channels.user_energies() > 0)
    data_amp = np.sqrt(1.0 - cfg.alpha)
    tx_symbols = np.zeros_like(data.symbols)

    y_clean = np.zeros(cfg.n, dtype=complex)
    for u in active:
        taps = channels.per_user(u)
        subs = plan.user_subcarriers(u)
        scaled = data_amp * data.symbols[u]
        tx_symbols[u] = scaled
        y_clean[window] += (channel_gains(taps, window, cfg.n, pilots.block)
                            * pilots.window_values[u])
        y_clean[subs] += channel_gains(taps, subs, cfg.n) * scaled

    noise = np.sqrt(cfg.sigma2 / 2.0) * (rng.standard_normal(cfg.n)
                                         + 1j * rng.standard_normal(cfg.n))
    y_freq = y_clean + noise
    y_window = extract_window(y_freq, window, xi)
    noise_window = extract_window(noise, window, xi)
    return FrameSignals(y_freq=y_freq, y_window=y_window, tx_bits=data.bits,
                        tx_symbols=tx_symbols,
                        noise_window_norm=float(np.linalg.norm(noise_window)))
