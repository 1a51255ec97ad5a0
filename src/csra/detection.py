"""Activity decisions, per-subcarrier equalization, demodulation, metrics."""

from dataclasses import dataclass

import numpy as np

from .config import MODULATIONS
from .model import channel_gains

ERASED = -1   # sentinel bit value for symbols with no usable decision


@dataclass(frozen=True)
class TrialMetrics:
    """Detection and demodulation outcome of one Monte-Carlo trial."""

    ser: float                 # over true-active payloads, missed users as erasures
    ser_detected_only: float   # over correctly detected users only
    n_md: int
    n_fa: int
    n_active_true: int
    n_erased: int              # erased symbols among detected users (|g| ~ 0)
    discarded: bool            # realized noise exceeded the solver's eps budget


def detect_active(user_energies: np.ndarray, xi_thr: float) -> np.ndarray:
    """Users whose estimated channel energy strictly exceeds the threshold."""
    if xi_thr < 0:
        raise ValueError("xi_thr must be >= 0")
    return np.flatnonzero(np.asarray(user_energies) > xi_thr)


def hard_decisions(symbols: np.ndarray, modulation: str) -> np.ndarray:
    """Scale-invariant nearest-point slicing (sign decisions)."""
    symbols = np.asarray(symbols)
    if modulation == "bpsk":
        return (symbols.real < 0).astype(np.int8)
    if modulation == "qpsk":
        bits = np.empty(symbols.shape + (2,), dtype=np.int8)
        bits[..., 0] = symbols.real < 0
        bits[..., 1] = symbols.imag < 0
        return bits.reshape(*symbols.shape[:-1], -1)
    raise ValueError(f"unknown modulation {modulation!r}")


def equalize_demodulate(y_freq: np.ndarray, h_hat: np.ndarray, plan: np.ndarray,
                        detected: np.ndarray, modulation: str):
    """Single-tap matched-filter equalization on each detected user's slot.

    plan is the u_max x symbols_per_user slot table (`config.slot_plan`)
    and h_hat the compound channel estimate of u_max * t_cp taps; n is
    len(y_freq). Per subcarrier the symbol estimate is y(f) conj(g) / |g|^2
    with g = sqrt(n) h_hat_u(f) from the estimated taps; estimation error is
    left as residual interference. Subcarriers with |g| below 1e-12 produce
    erased symbols (all bits ERASED). Returns (bits, n_erased); rows of
    non-detected users stay ERASED throughout.
    """
    bps = MODULATIONS[modulation]
    u_max, n_sym = plan.shape
    taps = h_hat.reshape(u_max, -1)
    bits = np.full((u_max, n_sym * bps), ERASED, dtype=np.int8)
    n_erased = 0
    for u in np.asarray(detected, dtype=int):
        subs = plan[u]
        g = channel_gains(taps[u], subs, len(y_freq))
        usable = np.abs(g) >= 1e-12
        n_erased += int(np.sum(~usable))
        est = np.zeros(n_sym, dtype=complex)
        est[usable] = y_freq[subs][usable] * np.conj(g[usable]) / np.abs(g[usable]) ** 2
        decided = hard_decisions(est, modulation).reshape(n_sym, bps)
        decided[~usable] = ERASED
        bits[u] = decided.reshape(-1)
    return bits, n_erased


def tally(truth_active: np.ndarray, detected: np.ndarray, tx_bits: np.ndarray,
          rx_bits: np.ndarray, modulation: str, n_erased: int = 0,
          discarded: bool = False) -> TrialMetrics:
    """Count detection errors and symbol errors for one trial.

    Symbol errors are counted over the true-active users' payloads. Missed
    users' payloads (and erased symbols) count as errors at the guessing
    rate 1 - 1/|constellation|. False-alarm users carry no true bits and
    only affect n_fa.
    """
    truth = np.asarray(truth_active, dtype=int)
    det = np.asarray(detected, dtype=int)
    n_md = len(np.setdiff1d(truth, det))
    n_fa = len(np.setdiff1d(det, truth))

    bps = MODULATIONS[modulation]
    erasure_rate = 1.0 - 1.0 / 2 ** bps
    n_sym = tx_bits.shape[1] // bps

    errors = 0.0
    symbols = 0
    errors_det = 0.0
    symbols_det = 0
    for u in truth:
        tx = tx_bits[u].reshape(n_sym, bps)
        if u in det:
            rx = rx_bits[u].reshape(n_sym, bps)
            erased = np.any(rx == ERASED, axis=1)
            wrong = np.any(rx != tx, axis=1) & ~erased
            e = float(np.sum(wrong)) + erasure_rate * float(np.sum(erased))
            errors += e
            symbols += n_sym
            errors_det += e
            symbols_det += n_sym
        else:
            errors += erasure_rate * n_sym
            symbols += n_sym
    ser = errors / symbols if symbols else float("nan")
    ser_det = errors_det / symbols_det if symbols_det else float("nan")
    return TrialMetrics(ser=ser, ser_detected_only=ser_det, n_md=n_md,
                        n_fa=n_fa, n_active_true=len(truth),
                        n_erased=n_erased, discarded=discarded)


def roc_sweep(trial_batch, xi_grid) -> list[tuple[float, float, float]]:
    """Re-threshold cached per-trial energies over a xi grid (no re-solving).

    Each batch entry needs .user_energies (length u_max) and .active (true
    active indices). Returns (xi, P_md_hat, P_fa_hat) per grid point, with
    P_md_hat = mean(n_md / k2) and P_fa_hat = mean(n_fa / (u_max - k2)).
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    if xi_grid.size == 0:
        raise ValueError("empty xi grid")
    energies = np.stack([np.asarray(t.user_energies) for t in trial_batch])
    u_max = energies.shape[1]
    truth = np.zeros_like(energies, dtype=bool)
    for i, t in enumerate(trial_batch):
        truth[i, np.asarray(t.active, dtype=int)] = True
    k2 = truth.sum(axis=1)
    out = []
    for xi in xi_grid:
        det = energies > xi
        md = np.sum(truth & ~det, axis=1)
        fa = np.sum(~truth & det, axis=1)
        with np.errstate(invalid="ignore"):
            p_md = float(np.nanmean(np.where(k2 > 0, md / np.maximum(k2, 1), np.nan)))
            p_fa = float(np.nanmean(np.where(u_max - k2 > 0,
                                             fa / np.maximum(u_max - k2, 1), np.nan)))
        out.append((float(xi), p_md, p_fa))
    return out
