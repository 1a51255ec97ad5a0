"""Sparse recovery: CoSaMP, basis pursuit denoising, debiasing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csra.config import SystemConfig, WINDOW_MODES, trial_rng
from csra.model import draw_activity, draw_channels
from csra import recovery
from csra.recovery import _top, cosamp, bpdn, debias
from csra.sensing import DenseOperator, build_operator


def toy_cfg(**kw):
    base = dict(n=256, m=64, window_mode="random", t_cp=32, u_max=8, k1=1,
                k2=5, b_slots=8, alpha=0.5, snr_db=np.inf, modulation="bpsk",
                bits_per_user=16, seed=424, trials=4)
    base.update(kw)
    return SystemConfig(**base)


def toy_instance(cfg, trial):
    rng = trial_rng(cfg, trial)
    h = draw_channels(cfg, draw_activity(cfg, rng), rng).reshape(-1)
    op = build_operator(cfg)
    return op, h, op.apply(h)


def bpdn_reference_instance():
    """The small dense instance whose optimum was computed once with a
    generic interior-point solver (cvxpy/CLARABEL) and frozen below."""
    rng = np.random.default_rng(42)
    mat = rng.standard_normal((16, 40)) + 1j * rng.standard_normal((16, 40))
    mat /= np.linalg.norm(mat, axis=0, keepdims=True)
    h = np.zeros(40, dtype=complex)
    sup = rng.choice(40, 3, replace=False)
    h[sup] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    e = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    e *= 0.05 / np.linalg.norm(e)
    return mat, h, mat @ h + e, 0.05

BPDN_REFERENCE_OBJECTIVE = 3.565192348941619


class TestCosamp:
    def test_zero_observation(self):
        op, _, _ = toy_instance(toy_cfg(), 0)
        rec = cosamp(op, np.zeros(op.shape[0]), k=5)
        assert np.all(rec.h_hat == 0) and rec.residual_norm == 0

    def test_identity_full_support(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rec = cosamp(DenseOperator(np.eye(12)), y, k=12)
        assert np.allclose(rec.h_hat, y, atol=1e-10)

    def test_rejects_merged_support_beyond_m(self):
        # the merged support holds up to min(3k, N) columns
        rng = np.random.default_rng(2)
        op = DenseOperator(rng.standard_normal((12, 40)))
        y = rng.standard_normal(12) + 0j
        for k in (0, 5, 12):
            with pytest.raises(ValueError, match=r"min\(3k, N\) <= m"):
                cosamp(op, y, k=k)
        assert cosamp(op, y, k=4).iterations >= 1

    def test_noiseless_exact_support(self):
        cfg = toy_cfg()
        hits = 0
        for trial in range(20):
            op, h_true, y = toy_instance(cfg, trial)
            rec = cosamp(op, y, k=5)
            if set(np.flatnonzero(rec.h_hat)) == set(np.flatnonzero(h_true)) \
                    and np.linalg.norm(rec.h_hat - h_true) <= 1e-6:
                hits += 1
        assert hits >= 19

    def test_output_k_sparse_and_monotone(self):
        cfg = toy_cfg(snr_db=10.0)
        for trial in range(5):
            op, _, _ = toy_instance(cfg, trial)
            rng = trial_rng(cfg, trial)
            y = op.apply(np.random.default_rng(trial).standard_normal(op.shape[1]) + 0j)
            y += 0.1 * (rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0]))
            rec = cosamp(op, y, k=5)
            assert np.count_nonzero(rec.h_hat) <= 5
            residuals = [r for _, r, _ in rec.history]
            assert all(residuals[i + 1] <= residuals[i] * (1 + 1e-9)
                       for i in range(len(residuals) - 1))

    def test_rejects_nonfinite(self):
        op, _, _ = toy_instance(toy_cfg(), 0)
        bad = np.zeros(op.shape[0], dtype=complex)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            cosamp(op, bad, k=2)


def lexsort_top(magnitudes, count):
    """The full-sort top-k: largest first, ties to the lowest index."""
    if count >= len(magnitudes):
        return np.arange(len(magnitudes))
    order = np.lexsort((np.arange(len(magnitudes)), -magnitudes))
    return np.sort(order[:count])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0),
                min_size=1, max_size=40),
       st.integers(1, 45))
def test_top_matches_lexsort(values, count):
    mags = np.array(values)
    got = _top(mags, count)
    assert np.array_equal(got, lexsort_top(mags, count))
    assert np.array_equal(_top(np.zeros_like(mags), count),
                          np.arange(min(count, len(mags))))


def svd_lstsq(op, y, support):
    full = np.zeros(op.shape[1], dtype=complex)
    full[support] = np.linalg.lstsq(op.columns(support), y, rcond=None)[0]
    return full


def cosamp_reference(op, y, k, max_iter=50):
    """CoSaMP with two SVD solves per iteration and a prune over the full
    coefficient vector: the loop the Gram-solve version must reproduce."""
    y = np.asarray(y, dtype=complex)
    h = np.zeros(op.shape[1], dtype=complex)
    support = np.array([], dtype=int)
    residual = y.copy()
    res_norm = float(np.linalg.norm(residual))
    stop = 1e-12 * res_norm
    converged = res_norm <= stop
    it = 0
    while not converged and it < max_iter:
        it += 1
        merged = np.union1d(lexsort_top(np.abs(op.adjoint(residual)), 2 * k),
                            support)
        z = svd_lstsq(op, y, merged)
        new_support = lexsort_top(np.abs(z), k)
        h_new = svd_lstsq(op, y, new_support)
        res_new = y - op.columns(new_support) @ h_new[new_support]
        rn = float(np.linalg.norm(res_new))
        if rn > res_norm * (1.0 + 1e-9):
            converged = True
            break
        rel_change = abs(res_norm - rn) / max(res_norm, 1e-300)
        h, support, residual, res_norm = h_new, new_support, res_new, rn
        if res_norm <= stop or rel_change < 1e-6:
            converged = True
    return h, it, converged


@st.composite
def cosamp_problems(draw):
    """Gaussian DenseOperators with 3k <= 3m/4 (merged gathers stay well
    conditioned), or the toy SensingOperator on either window; y is a k-sparse
    signal plus noise of a drawn level."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        m = draw(st.integers(8, 30))
        shape = (m, draw(st.integers(m, 60)))
        op = DenseOperator(rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
        k = draw(st.integers(1, m // 4))
    else:
        op = build_operator(toy_cfg(window_mode=draw(st.sampled_from(WINDOW_MODES))))
        k = draw(st.integers(1, 8))
    h = np.zeros(op.shape[1], dtype=complex)
    h[rng.choice(op.shape[1], k, replace=False)] = (rng.standard_normal(k)
                                                    + 1j * rng.standard_normal(k))
    noise = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
    y = op.apply(h) + noise * (rng.standard_normal(op.shape[0])
                               + 1j * rng.standard_normal(op.shape[0]))
    return op, y, k


@settings(max_examples=120, deadline=None)
@given(cosamp_problems())
def test_cosamp_matches_two_solve_reference(problem):
    op, y, k = problem
    rec = cosamp(op, y, k)
    h_ref, it_ref, conv_ref = cosamp_reference(op, y, k)
    assert np.array_equal(np.flatnonzero(rec.h_hat), np.flatnonzero(h_ref))
    assert (rec.iterations, rec.converged) == (it_ref, conv_ref)
    assert np.linalg.norm(rec.h_hat - h_ref) <= 1e-10 * max(np.linalg.norm(h_ref), 1e-300)


@settings(max_examples=60, deadline=None)
@given(cosamp_problems())
def test_cosamp_fallback_fits_match_two_solve_reference(problem):
    """With every Cholesky refused, both fits take the SVD fallback on the
    gather cosamp already holds, and still follow the reference loop."""
    op, y, k = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "gram_solve", lambda gram, rhs: None)
        rec = cosamp(op, y, k)
    h_ref, it_ref, conv_ref = cosamp_reference(op, y, k)
    assert np.array_equal(np.flatnonzero(rec.h_hat), np.flatnonzero(h_ref))
    assert (rec.iterations, rec.converged) == (it_ref, conv_ref)
    energies = np.sum(np.abs(h_ref.reshape(op.u_max, op.t_cp)) ** 2, axis=1)
    assert (np.linalg.norm(rec.user_energies - energies)
            <= 1e-10 * max(np.linalg.norm(energies), 1e-300))


@settings(max_examples=80, deadline=None)
@given(cosamp_problems())
def test_cosamp_residual_is_the_final_fits(problem):
    """The residual norm handed over from the last fit is ||A h_hat - y||
    without the closing apply, and cosamp makes no apply call at all."""
    op, y, k = problem
    applies, apply = [], op.apply
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(op, "apply", lambda h: applies.append(h) or apply(h))
        rec = cosamp(op, y, k)
    assert not applies
    direct = np.linalg.norm(op.apply(rec.h_hat) - y)
    assert abs(rec.residual_norm - direct) <= 1e-12 * np.linalg.norm(y)
    assert rec.residual_norm == rec.history[-1][1]


def test_cosamp_rank_deficient_refit_takes_minimum_norm():
    """Twin columns both survive the prune; the final refit on them is
    rank deficient and takes the minimum-norm split."""
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    mat[:, 4] = mat[:, 1]
    y = mat[:, 1] * 2.0
    rec = cosamp(DenseOperator(mat), y, k=2)
    assert np.allclose(rec.h_hat[[1, 4]], [1.0, 1.0], atol=1e-10)
    assert rec.residual_norm <= 1e-10


class TestBpdn:
    def test_large_eps_gives_zero(self):
        op, _, y = toy_instance(toy_cfg(), 0)
        rec = bpdn(op, y, eps=np.linalg.norm(y) * 1.01)
        assert np.all(rec.h_hat == 0) and rec.converged

    def test_identity_zero_eps(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rec = bpdn(DenseOperator(np.eye(10)), y, eps=0.0)
        assert rec.converged
        assert np.linalg.norm(rec.h_hat - y) <= 1e-5 * np.linalg.norm(y)

    def test_objective_matches_convex_reference(self):
        mat, _, y, eps = bpdn_reference_instance()
        rec = bpdn(DenseOperator(mat), y, eps)
        assert rec.converged
        assert rec.residual_norm <= eps * (1 + 1e-3)
        obj = float(np.sum(np.abs(rec.h_hat)))
        assert obj <= BPDN_REFERENCE_OBJECTIVE * (1 + 1e-3)
        # and it cannot beat the optimum by more than the feasibility slack
        assert obj >= BPDN_REFERENCE_OBJECTIVE * (1 - 5e-3)

    def test_scaling_equivariance(self):
        mat, _, y, eps = bpdn_reference_instance()
        op = DenseOperator(mat)
        base = bpdn(op, y, eps)
        for c in (0.25, 7.0):
            scaled = bpdn(op, c * y, c * eps)
            assert np.allclose(scaled.h_hat, c * base.h_hat, rtol=1e-12, atol=1e-12)

    def test_nonconvergence_is_reported(self, monkeypatch):
        """The cap is shared by both phases: 3 stops the single phase before
        its first check, 30 after its second."""
        mat, _, y, eps = bpdn_reference_instance()
        for cap in (3, 30):
            monkeypatch.setattr(recovery, "DR_MAX_ITER", cap)
            rec = bpdn(DenseOperator(mat), y, eps)
            assert not rec.converged and rec.iterations == cap
            assert rec.h_hat.dtype == np.complex128

    def test_zero_eps_feasible_in_double(self):
        """eps = 0 asks for the DR_FEAS_FLOOR residual, which single
        precision may not reach: the double phase certifies it."""
        mat, _, y, _ = bpdn_reference_instance()
        rec = bpdn(DenseOperator(mat), y, 0.0)
        assert rec.converged and rec.h_hat.dtype == np.complex128
        residual = np.linalg.norm(mat @ rec.h_hat - y)
        assert residual <= recovery.DR_FEAS_FLOOR * np.linalg.norm(y)
        assert rec.residual_norm == pytest.approx(residual, rel=1e-9)

    def test_rejects_negative_eps(self):
        op, _, y = toy_instance(toy_cfg(), 0)
        with pytest.raises(ValueError):
            bpdn(op, y, eps=-1.0)

    def test_zero_operator_gives_zero_unconverged(self):
        y = np.random.default_rng(3).standard_normal(6) + 0j
        rec = bpdn(DenseOperator(np.zeros((6, 12))), y, eps=0.1)
        assert np.all(rec.h_hat == 0) and not rec.converged
        assert rec.iterations == 0


@st.composite
def bpdn_problems(draw):
    """Small dense problems (m <= 12 rows, m <= N <= 30 columns, so every
    eps >= 0 is feasible), eps with 0, ||y|| or more, and a share of ||y||
    far below round-off drawn explicitly, and a positive scale for y and
    eps."""
    m = draw(st.integers(1, 12))
    n_cols = draw(st.integers(m, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mat = rng.standard_normal((m, n_cols)) + 1j * rng.standard_normal((m, n_cols))
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    share = draw(st.sampled_from([0.0, 1e-120, 1.0, 1.5]) | st.floats(0.0, 1.0))
    scale = draw(st.floats(1e-3, 1e3))
    return DenseOperator(mat), y, share * float(np.linalg.norm(y)), scale


@settings(max_examples=100, deadline=None)
@given(bpdn_problems())
def test_bpdn_feasible_and_homogeneous(problem):
    op, y, eps, c = problem
    rec = bpdn(op, y, eps)
    if rec.converged:
        target = max(eps * (1 + recovery.DR_FEAS_TOL),
                     recovery.DR_FEAS_FLOOR * np.linalg.norm(y))
        assert rec.residual_norm <= target * (1 + 1e-9)
    scaled = bpdn(op, c * y, c * eps)
    assert scaled.converged == rec.converged
    assert np.allclose(scaled.h_hat, c * rec.h_hat, rtol=1e-12,
                       atol=1e-12 * c * float(np.max(np.abs(rec.h_hat), initial=0.0)))


class TestDebias:
    def test_zero_in_zero_out(self):
        op, _, y = toy_instance(toy_cfg(), 0)
        rec = bpdn(op, y, eps=np.linalg.norm(y) * 2)
        out = debias(op, y, rec, k=5)
        assert np.all(out.h_hat == 0)

    def test_exact_estimate_unchanged(self):
        op, h_true, y = toy_instance(toy_cfg(), 1)
        rec = cosamp(op, y, k=5)
        out = debias(op, y, rec, k=5)
        assert np.linalg.norm(out.h_hat - rec.h_hat) <= 1e-8

    def test_never_increases_residual_on_bpdn_output(self):
        cfg = toy_cfg(snr_db=30.0)
        for trial in range(10):
            op, h_true, _ = toy_instance(cfg, trial)
            rng = trial_rng(cfg, trial)
            noise = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
            noise *= 0.05 / np.linalg.norm(noise)
            y = op.apply(h_true) + noise
            rec = bpdn(op, y, eps=0.05)
            out = debias(op, y, rec, k=5)
            assert out.residual_norm <= rec.residual_norm + 1e-9

    def test_energies_recomputed(self):
        op, h_true, y = toy_instance(toy_cfg(), 2)
        rec = bpdn(op, y, eps=0.0)
        out = debias(op, y, rec, k=5)
        expected = np.sum(np.abs(out.h_hat.reshape(op.u_max, op.t_cp)) ** 2, axis=1)
        assert np.allclose(out.user_energies, expected, atol=0)
