"""Sparse recovery of the compound channel from window observations.

Two solvers share one result type: CoSaMP (greedy, needs the sparsity k) and
basis pursuit denoising min ||h||_1 s.t. ||A h - y|| <= eps (Douglas-Rachford
splitting with an exact projection onto the residual ball; the algorithm is
an implementation detail, the feasibility/objective contract is what tests
pin down). Both accept any operator exposing apply/adjoint/columns/shape;
BPDN also needs `gram_eigh`, the eigendecomposition of A A^H, and
`complex64()`, a single-precision twin of the operator.

BPDN iterates in two precisions: first in complex64, which halves the cost
of both operator GEMMs and of the N-length vector work, until its objective
settles, then in complex128 from the state that phase reached, until the
full stopping rule holds in double. The single phase reads only y/||y|| and
eps/||y||, each rounded once to single precision, so it computes the same
bits for (y, eps) and (c y, c eps) and the solver stays positively
homogeneous. converged and residual_norm come from double arithmetic only.
"""

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .sensing import gram_solve, restricted_lstsq


@dataclass
class RecoveryResult:
    h_hat: np.ndarray
    user_energies: np.ndarray        # ||h_hat_u||^2 per user
    residual_norm: float             # ||A h_hat - y||
    iterations: int
    converged: bool
    d_norm: float | None = None      # ||h_hat - h_true|| when truth supplied
    rank_deficient: bool = False
    history: list = field(default_factory=list)  # (iteration, residual, nnz)


def _energies(h: np.ndarray, u_max: int, t_cp: int) -> np.ndarray:
    return np.sum(np.abs(h.reshape(u_max, t_cp)) ** 2, axis=1)


def _top(magnitudes: np.ndarray, count: int) -> np.ndarray:
    """Sorted indices of the `count` largest magnitudes; ties break to the
    lowest index so reruns are deterministic. O(len) by partition."""
    size = len(magnitudes)
    if count >= size:
        return np.arange(size)
    cut = np.partition(magnitudes, size - count)[size - count]
    above = np.flatnonzero(magnitudes > cut)
    ties = np.flatnonzero(magnitudes == cut)[:count - above.size]
    return np.sort(np.concatenate((above, ties)))


def _result(op, h, y, iterations, converged, h_true=None, history=None,
            rank_deficient=False, residual=None) -> RecoveryResult:
    """The result for iterate h; `residual`, when the solver already holds
    ||A h - y||, saves the closing apply."""
    if residual is None:
        residual = float(np.linalg.norm(op.apply(h) - y))
    d = None if h_true is None else float(np.linalg.norm(h - h_true))
    return RecoveryResult(h_hat=h, user_energies=_energies(h, op.u_max, op.t_cp),
                          residual_norm=residual, iterations=iterations,
                          converged=converged, d_norm=d,
                          rank_deficient=rank_deficient,
                          history=history or [])


# ---------------------------------------------------------------------------
# CoSaMP
# ---------------------------------------------------------------------------

def _merged_fit(op, y: np.ndarray, merged: np.ndarray, k: int):
    """One CoSaMP estimate/prune/refit on the merged support, from one
    gather B = op.columns(merged) and its Gram B^H B: the pruned refit
    reads the Gram's k x k block. A Gram whose Cholesky does not certify
    its conditioning goes to restricted_lstsq. Returns (pruned support,
    its coefficients, rank_deficient, residual); the gather is released
    on return, before the next iteration's."""
    cols = op.columns(merged)
    cols_h = np.conj(cols.T)
    gram, rhs = cols_h @ cols, cols_h @ y
    del cols_h
    z = gram_solve(gram, rhs)
    if z is None:
        z = restricted_lstsq(op, y, merged)[0][merged]
    keep = _top(np.abs(z), k)
    support = merged[keep]
    coef, flagged = gram_solve(gram[np.ix_(keep, keep)], rhs[keep]), False
    if coef is None:
        full, flagged = restricted_lstsq(op, y, support)
        coef = full[support]
    return support, coef, flagged, y - cols[:, keep] @ coef


COSAMP_MAX_ITER = 50


def cosamp(op, y: np.ndarray, k: int,
           h_true: np.ndarray | None = None) -> RecoveryResult:
    """Standard CoSaMP: proxy top-2k merge, restricted least squares, prune
    to the k largest merged coefficients, refit on the pruned support. Both
    fits solve the normal equations of one gather per iteration by a
    certified Cholesky (`sensing.gram_solve`), with `restricted_lstsq`
    (SVD, minimum norm) as the fallback; rank_deficient reports the final
    refit. Stops on residual <= 1e-12 ||y||, stagnation (relative change
    < 1e-6), or COSAMP_MAX_ITER iterations; the first test ends a
    noiseless recovery at its first exact iterate, past which the stopping
    tests would compare round-off. A step that would increase the residual
    is rolled back, so the logged residuals are non-increasing; the
    reported residual_norm is the final fit's, with no closing apply.
    Output is at most k-sparse. The merged support holds up to min(3k, N)
    columns, which must fit the m measurements."""
    y = np.asarray(y, dtype=complex)
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    m, n_cols = op.shape
    if k < 1 or min(3 * k, n_cols) > m:
        raise ValueError(f"need k >= 1 and min(3k, N) <= m (the merged "
                         f"support); got k = {k}, N = {n_cols}, m = {m}")

    h = np.zeros(n_cols, dtype=complex)
    support = np.array([], dtype=int)
    flagged = False
    residual = y
    res_norm = float(np.linalg.norm(residual))
    history = [(0, res_norm, 0)]
    stop = 1e-12 * res_norm
    converged = res_norm <= stop
    it = 0
    while not converged and it < COSAMP_MAX_ITER:
        it += 1
        proxy = op.adjoint(residual)
        merged = np.union1d(_top(np.abs(proxy), 2 * k), support)
        new_support, coef, new_flag, res_new = _merged_fit(op, y, merged, k)
        rn = float(np.linalg.norm(res_new))
        if rn > res_norm * (1.0 + 1e-9):
            converged = True          # stagnated: keep the better iterate
            break
        rel_change = abs(res_norm - rn) / max(res_norm, 1e-300)
        h = np.zeros(n_cols, dtype=complex)
        h[new_support] = coef
        support, flagged, residual, res_norm = new_support, new_flag, res_new, rn
        history.append((it, res_norm, int(np.count_nonzero(h))))
        if res_norm <= stop or rel_change < 1e-6:
            converged = True
    return _result(op, h, y, it, converged, h_true, history, flagged,
                   residual=res_norm)


# ---------------------------------------------------------------------------
# Basis pursuit denoising
# ---------------------------------------------------------------------------

def _soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    """z shrunk by t > 0 in magnitude; entries with |z| <= t map to 0. The
    guard max(|z|, t) holds in any precision, where a fixed floor such as
    1e-300 underflows to 0 in float32."""
    mag = np.abs(z)
    return z * np.maximum(1.0 - t / np.maximum(mag, t), 0.0)


# Douglas-Rachford constants: the l1 prox step in units of 1/||A|| (the
# iterates live on the y/||y|| scale) and the over-relaxation in (0, 2).
DR_STEP = 0.03
DR_RELAX = 1.8
# Stopping rule, tested every DR_CHECK_EVERY iterations up to DR_MAX_ITER:
# the residual is within (1 + DR_FEAS_TOL) eps, or within DR_FEAS_FLOOR
# ||y|| (which governs how tightly eps = 0 is honored), and the l1
# objective moved by at most DR_OBJ_TOL relative since the last test.
DR_MAX_ITER = 20000
DR_CHECK_EVERY = 25
DR_FEAS_TOL = 1e-3
DR_FEAS_FLOOR = 1e-6
DR_OBJ_TOL = 1e-5
_NEWTON_MAX = 50
_ROUNDOFF = np.finfo(float).eps


def _ball_weights(lam: np.ndarray, s: np.ndarray, eps: float,
                  mu: float) -> tuple[np.ndarray, float]:
    """Weights c with P(v) = v - A^H V c, the projection onto
    {||A h - y|| <= eps} (r = A v - y, A A^H = V diag(lam) V^H, s = V^H r),
    and the multiplier mu >= 0 that produced them (warm start for the next
    call; inf marks the pseudo-inverse limit).

    c = s mu / (1 + mu lam), with mu the root of
    sum |s|^2 / (1 + mu lam)^2 = eps^2, found by Newton on 1/||.|| - 1/eps
    (concave and increasing in mu, so the iterates never pass the root
    once below it) on the scale ||s|| = 1. When eps is 0 or below the
    round-off of ||r||, or the part of r outside the range of A already
    exceeds eps, the limit c = s / lam is taken (0 where lam = 0).
    """
    power = s.real ** 2 + s.imag ** 2
    total = float(power.sum())
    if total <= eps * eps:
        return np.zeros_like(s), 0.0
    ranged = lam > 0.0
    if eps * eps <= _ROUNDOFF ** 2 * total or power[~ranged].sum() >= eps * eps:
        return np.where(ranged, s / np.where(ranged, lam, 1.0), 0.0), math.inf
    power /= total
    eps /= math.sqrt(total)
    if not math.isfinite(mu):
        mu = 0.0
    weighted = power * lam
    for _ in range(_NEWTON_MAX):
        shrink = 1.0 / (1.0 + mu * lam)
        sq = shrink * shrink
        norm = math.sqrt(power @ sq)
        if abs(norm - eps) <= 1e-12 * eps:
            break
        slope = (weighted @ (sq * shrink)) / norm ** 3
        mu = max(mu - (1.0 / norm - 1.0 / eps) / slope, 0.0)
    return s * (mu / (1.0 + mu * lam)), mu


def _dr_iterates(op, yn, epsn, z, az, lam, vecs, gamma, mu):
    """Relaxed Douglas-Rachford iterations for min ||h||_1 subject to
    ||A h - yn|| <= epsn, from z with az = A z, in the precision of op, yn,
    z and az; the m-length projection (V^H r, its weights and V c) runs in
    float64 either way. Updates z in place and yields each iteration's
    x = soft(z, gamma), A x and the projection's multiplier mu."""
    while True:
        # x = prox(z); v = 2x - z; p = P(v); z += relax (p - x), written as
        # increments p - x = (x - z) - A^H V c and A p - A x likewise
        x = _soft_threshold(z, gamma)
        ax = op.apply(x)
        dz = x - z
        daz = ax - az
        s = np.conj(np.conj(daz + ax - yn) @ vecs)  # V^H r, no copy of V^H
        c, mu = _ball_weights(lam, s, epsn, mu)
        if mu != 0.0:
            dz -= op.adjoint(vecs @ c)
            daz -= vecs @ (lam * c)
        z += DR_RELAX * dz
        az += DR_RELAX * daz
        yield x, ax, mu


def _dr_check(x, ax, yn, obj_prev, it, y_norm, history):
    """One stopping test at iteration `it`: logs (it, ||A h - y||, nnz) to
    history and returns the residual ||A x - yn||, the l1 objective and
    whether it moved by at most DR_OBJ_TOL relative from obj_prev."""
    feas = float(np.linalg.norm(ax - yn))
    obj = float(np.sum(np.abs(x)))
    history.append((it, feas * y_norm, int(np.count_nonzero(x))))
    return feas, obj, abs(obj - obj_prev) <= DR_OBJ_TOL * max(obj, 1e-15)


def bpdn(op, y: np.ndarray, eps: float,
         h_true: np.ndarray | None = None) -> RecoveryResult:
    """min ||h||_1 subject to ||A h - y|| <= eps.

    Relaxed Douglas-Rachford splitting of ||h||_1 and the indicator of the
    residual ball: x = soft(z, g), p = P(2x - z), z += DR_RELAX (p - x),
    with the exact projection P through the eigendecomposition of A A^H
    (`op.gram_eigh`) and g = DR_STEP / ||A||, ||A|| = sqrt(lambda_max)
    exact. A z is carried along by recursion, so each iteration costs one
    apply and at most one adjoint. The problem is solved on y/||y||.

    The iterations run in two precisions and share DR_MAX_ITER, the
    iteration count and the history. The single phase iterates in complex64
    on `op.complex64()` and on y/||y|| and eps/||y|| each rounded once to
    single precision, until the first check at which the objective test
    passes, feasible or not (float32 may not reach DR_FEAS_FLOOR). The
    double phase promotes z, recomputes A z in double and continues on the
    double inputs until the full rule holds; when the single answer was
    feasible its first test comes at once, against the single phase's last
    objective, so an answer that already meets the rule in double costs one
    iteration more. The single phase depends only on the two rounded
    inputs, which are the same for (y, eps) and (c y, c eps), so the
    routine stays positively homogeneous in (y, eps). converged and
    residual_norm come from double arithmetic only. Non-convergence is
    reported via converged=False, never silently.
    """
    y = np.asarray(y, dtype=complex)
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    m, n_cols = op.shape

    y_norm = float(np.linalg.norm(y))
    if eps >= y_norm:   # zero is feasible, hence l1-minimal
        return _result(op, np.zeros(n_cols, dtype=complex), y, 0, True, h_true)

    lam, vecs = op.gram_eigh
    lam_max = float(lam[-1])
    if lam_max <= 0.0:
        return _result(op, np.zeros(n_cols, dtype=complex), y, 0, False, h_true)
    # eigenvalues at round-off level count as the null space of A^H
    lam = np.where(lam > lam_max * len(lam) * _ROUNDOFF, lam, 0.0)
    gamma = DR_STEP / math.sqrt(lam_max)

    yn = y / y_norm
    epsn = eps / y_norm
    feas_target = max(epsn * (1.0 + DR_FEAS_TOL), DR_FEAS_FLOOR)
    history = []
    it, obj_prev, converged = 0, np.inf, False

    # single phase: its two inputs rounded once
    yn32 = yn.astype(np.complex64)
    eps32 = float(np.float32(epsn))
    z = np.zeros(n_cols, dtype=np.complex64)
    x, mu, feasible = z, 0.0, False
    steps = _dr_iterates(op.complex64(), yn32, eps32, z,
                         np.zeros(m, dtype=np.complex64), lam, vecs, gamma, mu)
    for x, ax, mu in islice(steps, DR_MAX_ITER):
        it += 1
        if it % DR_CHECK_EVERY == 0 or it == DR_MAX_ITER:
            feas, obj_prev, stable = _dr_check(x, ax, yn32, obj_prev, it,
                                               y_norm, history)
            if stable:
                feasible = feas <= max(eps32 * (1.0 + DR_FEAS_TOL),
                                       DR_FEAS_FLOOR)
                break

    # double phase, from the state the single phase reached
    check = it + (1 if feasible else DR_CHECK_EVERY)
    z = z.astype(complex)
    steps = _dr_iterates(op, yn, epsn, z, op.apply(z), lam, vecs,
                         gamma, mu)
    for x, ax, mu in islice(steps, DR_MAX_ITER - it):
        it += 1
        if it == check or it == DR_MAX_ITER:
            check += DR_CHECK_EVERY
            feas, obj_prev, stable = _dr_check(x, ax, yn, obj_prev, it,
                                               y_norm, history)
            if feas <= feas_target and stable:
                converged = True
                break
    h_raw = np.asarray(x, dtype=complex) * y_norm
    result = _result(op, h_raw, y, it, converged, h_true, history)
    if not converged:
        result.converged = result.residual_norm <= feas_target * y_norm
    return result


def debias(op, y: np.ndarray, result: RecoveryResult, k: int) -> RecoveryResult:
    """Least-squares refit on the top-k nonzero entries of result.h_hat;
    energies and residual recomputed."""
    mags = np.abs(result.h_hat)
    nonzero = np.flatnonzero(mags)
    if nonzero.size == 0:
        return _result(op, np.zeros_like(result.h_hat), y, result.iterations,
                       result.converged, history=list(result.history))
    keep = nonzero[_top(mags[nonzero], k)]
    refit, flagged = restricted_lstsq(op, y, keep)
    return _result(op, refit, y, result.iterations, result.converged,
                   history=list(result.history), rank_deficient=flagged)
