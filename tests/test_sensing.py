"""Measurement operator: matrix-free vs dense, adjointness, RIP evaluation."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csra import sensing
from csra.config import SystemConfig, control_window
from csra.harness import dense_reference
from csra.model import PilotBook, build_pilot_book, delay_block
from csra.sensing import (SensingOperator, DenseOperator, build_operator,
                          gram_solve, restricted_lstsq, rip_constant_exact,
                          rip_sample_complexity, export_dense_csv)


def toy_cfg(**kw):
    base = dict(n=256, m=64, window_mode="random", t_cp=32, u_max=8, k1=2,
                k2=5, b_slots=8, alpha=0.5, snr_db=20.0, modulation="bpsk",
                bits_per_user=16, seed=99, trials=4)
    base.update(kw)
    return SystemConfig(**base)


def random_vec(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@pytest.fixture(params=["plain", "contiguous"])
def toy_op(request):
    """The toy operator on its random window, and on a contiguous one."""
    if request.param == "contiguous":
        return build_operator(toy_cfg(window_mode="contiguous"))
    return build_operator(toy_cfg())


class TestApplyAdjoint:
    def test_zero_maps_to_zero(self, toy_op):
        assert np.all(toy_op.apply(np.zeros(toy_op.shape[1])) == 0)
        assert np.all(toy_op.adjoint(np.zeros(toy_op.shape[0])) == 0)

    def test_single_tap_column_formula(self):
        # unit tap at delay 0 reads the pilot window values
        cfg = toy_cfg()
        op = build_operator(cfg)
        h = np.zeros(op.shape[1], dtype=complex)
        h[3 * cfg.t_cp] = 1.0
        assert np.allclose(op.apply(h), op.pilots.window_values[3], atol=1e-12)

    def test_matrix_free_matches_dense(self, toy_op):
        rng = np.random.default_rng(11)
        # the reference comes from the definition through full-band FFTs,
        # not from the operator's own partial-DFT block
        dense = dense_reference(toy_op)
        for _ in range(10):
            h = random_vec(rng, toy_op.shape[1])
            ref = dense @ h
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(toy_op.apply(h) - ref)) / scale <= 1e-10

    def test_adjoint_identity(self, toy_op):
        # the operator and its complex64 twin, each to the same 4.5e5 units
        # of round-off of its precision
        for op, dtype, tol in ((toy_op, np.complex128, 1e-10),
                               (toy_op.complex64(), np.complex64, 5e-2)):
            rng = np.random.default_rng(12)
            for _ in range(100):
                x = random_vec(rng, op.shape[1]).astype(dtype)
                y = random_vec(rng, op.shape[0]).astype(dtype)
                lhs = np.vdot(y, op.apply(x))
                rhs = np.vdot(op.adjoint(y), x)
                assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= tol

    def test_complex64_twin_matches_double(self, toy_op):
        """Both operator classes' twins compute in complex64 and agree with
        the double operator on the same complex64 inputs to single-precision
        round-off; the double operator keeps complex128."""
        rng = np.random.default_rng(13)
        x = random_vec(rng, toy_op.shape[1]).astype(np.complex64)
        y = random_vec(rng, toy_op.shape[0]).astype(np.complex64)
        for op in (toy_op, DenseOperator(toy_op.materialize())):
            twin = op.complex64()
            for got, ref in ((twin.apply(x), op.apply(x)),
                             (twin.adjoint(y), op.adjoint(y))):
                assert got.dtype == np.complex64 and ref.dtype == np.complex128
                assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_single_row_adjoint_is_conjugate_column(self):
        cfg = toy_cfg()
        op = build_operator(cfg)
        f = 7
        y = np.zeros(op.shape[0], dtype=complex)
        y[f] = 1.0
        out = op.adjoint(y)
        win = op.window
        u, t = 2, 5
        expected = np.conj(op.pilots.window_values[u, f]) * np.exp(
            2j * np.pi * win[f] * t / cfg.n)
        assert out[u * cfg.t_cp + t] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self, toy_op):
        with pytest.raises(ValueError):
            toy_op.apply(np.zeros(3))
        with pytest.raises(ValueError):
            toy_op.adjoint(np.zeros(3))


@st.composite
def operators(draw):
    """Small operators: contiguous or random windows, any t_cp in [1, n],
    alpha in [0, 1] with 0 and 1 drawn explicitly."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - m))
        window = np.arange(start, start + m)
    else:
        window = np.sort(draw(st.permutations(range(n)))[:m])
    t_cp = draw(st.integers(1, n))
    u_max = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.sqrt(n * alpha / m) * np.exp(
        2j * np.pi * rng.uniform(size=(u_max, m)))
    op = SensingOperator(PilotBook(n=n, window=window, window_values=values,
                                   alpha=alpha,
                                   block=delay_block(window, t_cp, n)),
                         t_cp)
    return op, rng


def assert_close(got, ref):
    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    assert np.max(np.abs(got - ref), initial=0.0) / scale <= 1e-10


@settings(max_examples=150, deadline=None)
@given(operators())
def test_operator_matches_fft_formulas(case):
    op, rng = case
    n, t_cp, win = op.n, op.t_cp, op.window
    freq = np.zeros((op.u_max, n), dtype=complex)
    freq[:, win] = op.pilots.window_values
    h = random_vec(rng, op.shape[1])
    y = random_vec(rng, op.shape[0])
    # the length-n FFT formulas (P_B W on the pilot spectra) that the
    # partial-DFT GEMMs replace
    spectra = np.fft.fft(h.reshape(op.u_max, t_cp), n=n, axis=1)
    assert_close(op.apply(h), np.sum(spectra * freq, axis=0)[win])
    w = np.zeros(n, dtype=complex)
    w[win] = y
    adj = n * np.fft.ifft(np.conj(freq) * w, axis=1)[:, :t_cp]
    assert_close(op.adjoint(y), adj.reshape(-1))
    support = rng.choice(op.shape[1], size=min(op.shape[1], 5), replace=False)
    users, delays = np.divmod(support, t_cp)
    pilot_time = np.fft.ifft(freq, norm="ortho")
    shifted = np.array([np.roll(pilot_time[u], t) for u, t in zip(users, delays)])
    cols = np.fft.fft(shifted, axis=1)[:, win] / np.sqrt(n)
    assert_close(op.columns(support), cols.T)
    lhs = np.vdot(y, op.apply(h))
    rhs = np.vdot(op.adjoint(y), h)
    assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-10
    lam, vecs = op.gram_eigh
    dense = dense_reference(op)
    assert_close((vecs * lam) @ np.conj(vecs.T), dense @ np.conj(dense.T))


class TestMaterialize:
    def test_column_cap(self, monkeypatch):
        cfg = toy_cfg()
        op = SensingOperator(build_pilot_book(cfg), cfg.t_cp)
        monkeypatch.setattr(sensing, "MATERIALIZE_COL_CAP", 16)
        with pytest.raises(ValueError):
            op.materialize()

    def test_zero_pilots_zero_matrix(self):
        with pytest.warns(UserWarning):
            op = build_operator(toy_cfg(alpha=0.0))
        assert np.all(op.materialize() == 0)

    def test_plain_column_norms(self):
        # every column has norm sqrt(m) * pilot magnitude = sqrt(n * alpha)
        cfg = toy_cfg()
        dense = build_operator(cfg).materialize()
        norms = np.linalg.norm(dense, axis=0)
        assert np.allclose(norms, math.sqrt(cfg.n * cfg.alpha), atol=1e-10)

    def test_csv_export_roundtrip(self, tmp_path):
        cfg = toy_cfg()
        dense = build_operator(cfg).materialize()[:4, :6]
        path = tmp_path / "op.csv"
        export_dense_csv(dense, path)
        raw = np.loadtxt(path, delimiter=",")
        assert np.allclose(raw[:, 0::2] + 1j * raw[:, 1::2], dense, atol=1e-12)


class TestRestrictedLstsq:
    def test_empty_support(self, toy_op):
        z, flagged = restricted_lstsq(toy_op, np.zeros(toy_op.shape[0]), [])
        assert np.all(z == 0) and not flagged

    def test_consistent_system_recovers(self, toy_op):
        rng = np.random.default_rng(14)
        support = np.sort(rng.choice(toy_op.shape[1], 6, replace=False))
        h = np.zeros(toy_op.shape[1], dtype=complex)
        h[support] = random_vec(rng, 6)
        z, flagged = restricted_lstsq(toy_op, toy_op.apply(h), support)
        assert not flagged
        assert np.linalg.norm(z - h) <= 1e-8

    def test_residual_orthogonal_to_columns(self, toy_op):
        rng = np.random.default_rng(15)
        support = np.sort(rng.choice(toy_op.shape[1], 10, replace=False))
        y = random_vec(rng, toy_op.shape[0])
        z, _ = restricted_lstsq(toy_op, y, support)
        residual = y - toy_op.columns(support) @ z[support]
        inner = toy_op.columns(support).conj().T @ residual
        assert np.max(np.abs(inner)) <= 1e-8

    def test_rank_deficient_flagged(self):
        col = np.array([[1.0], [2.0]])
        op = DenseOperator(np.hstack([col, col]))
        z, flagged = restricted_lstsq(op, np.array([1.0, 2.0]), [0, 1])
        assert flagged
        # minimum-norm solution splits the coefficient across the twin columns
        assert np.allclose(z, [0.5, 0.5], atol=1e-12)

    def test_support_too_large(self, toy_op):
        with pytest.raises(ValueError):
            restricted_lstsq(toy_op, np.zeros(toy_op.shape[0]),
                             np.arange(toy_op.shape[0] + 1))


def certified_or_lstsq(op, y, support):
    """The fit cosamp makes on a gather: the certified Gram solve, or
    restricted_lstsq where the certificate fails. Returns (solution,
    rank_deficient, certified)."""
    sub = op.columns(support)
    z = gram_solve(sub.conj().T @ sub, sub.conj().T @ y)
    if z is None:
        full, flagged = restricted_lstsq(op, y, support)
        return full[support], flagged, False
    return z, False, True


def assert_matches_lstsq(op, y, support):
    """The fit above equals numpy's SVD lstsq within 1e-10 relative and
    sets the rank flag as lstsq's rank test does; returns `certified`."""
    got, flagged, certified = certified_or_lstsq(op, y, support)
    ref, _, rank, _ = np.linalg.lstsq(op.columns(support), y.astype(complex),
                                      rcond=None)
    assert flagged == bool(rank < len(support))
    assert np.linalg.norm(got - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-300)
    return certified


@st.composite
def tall_gathers(draw):
    """Gaussian operators with at least twice as many rows as the support,
    which keeps the gathered Gram well conditioned."""
    cols = draw(st.integers(1, 12))
    rows = draw(st.integers(2 * cols, 40))
    extra = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    op = DenseOperator(random_vec(rng, (rows, cols + extra)))
    support = np.sort(rng.choice(cols + extra, cols, replace=False))
    return op, random_vec(rng, rows), support


@settings(max_examples=150, deadline=None)
@given(tall_gathers())
def test_gram_solve_matches_svd_solve(case):
    assert assert_matches_lstsq(*case)


@settings(max_examples=50, deadline=None)
@given(tall_gathers(), st.sampled_from([1.0, 1.0 + 1e-9]))
def test_twin_columns_take_the_svd_fallback(case, scale):
    """A duplicated column, or one scaled by 1 + 1e-9, fails the Cholesky
    certificate; the SVD solve then sets the flag exactly as lstsq does."""
    op, y, support = case
    twin = DenseOperator(np.hstack([op.mat, scale * op.mat[:, support[:1]]]))
    assert not assert_matches_lstsq(twin, y,
                                    np.append(support, twin.shape[1] - 1))


@settings(max_examples=150, deadline=None)
@given(tall_gathers(), st.floats(-4.0, -2.0), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_near_twin_columns_match_svd_solve(case, log_gap, consistent, seed):
    """A column b + d * ||b|| * e (e a unit vector, d = 1e-4 .. 1e-2) puts
    cond(B^H B) near 4 / d^2 = 4e4 .. 4e8, across the certificate's cutoff:
    certified or not, the fit agrees with lstsq within 1e-10."""
    op, y, support = case
    rng = np.random.default_rng(seed)
    base = op.mat[:, support[0]]
    e = random_vec(rng, op.shape[0])
    near = base + 10.0 ** log_gap * np.linalg.norm(base) * e / np.linalg.norm(e)
    twin = DenseOperator(np.hstack([op.mat, near[:, None]]))
    wide = np.append(support, twin.shape[1] - 1)
    if consistent:      # small residual: y close to the span of the gather
        y = twin.columns(wide) @ random_vec(rng, wide.size) + 1e-3 * y
    assert_matches_lstsq(twin, y, wide)


@pytest.mark.parametrize("size", [1, 31, 32, 33, 65, 97, 180, 300])
def test_blocked_lower_inverse_matches_inv(size):
    rng = np.random.default_rng(size)
    gather = random_vec(rng, (2 * size, size))
    low = np.linalg.cholesky(np.conj(gather.T) @ gather)
    inv = sensing._lower_inverse(low)
    ref = np.linalg.inv(low)
    assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(tall_gathers(), st.floats(-4.0, -2.0), st.integers(0, 2 ** 32 - 1))
def test_gram_solve_properties_hold_with_the_blocked_inverse(case, log_gap,
                                                              seed):
    """The gathers above are at most 13 columns, below INV_BLOCK: with
    diagonal blocks of 2 the recursion runs at every size, and the plain,
    twin and near-twin properties still hold."""
    op, y, support = case
    rng = np.random.default_rng(seed)
    base = op.mat[:, support[0]]
    e = random_vec(rng, op.shape[0])
    near = base + 10.0 ** log_gap * np.linalg.norm(base) * e / np.linalg.norm(e)
    twin = DenseOperator(np.hstack([op.mat, op.mat[:, support[:1]]]))
    near_twin = DenseOperator(np.hstack([op.mat, near[:, None]]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensing, "INV_BLOCK", 2)
        assert assert_matches_lstsq(op, y, support)
        assert not assert_matches_lstsq(
            twin, y, np.append(support, twin.shape[1] - 1))
        assert_matches_lstsq(near_twin, y,
                             np.append(support, near_twin.shape[1] - 1))


def test_zero_operator_flags_rank_deficient():
    with pytest.warns(UserWarning):
        op = build_operator(toy_cfg(alpha=0.0))
    y = random_vec(np.random.default_rng(3), op.shape[0])
    support = np.arange(0, op.shape[1], 7)
    z, flagged = restricted_lstsq(op, y, support)
    assert flagged and np.all(z == 0)
    assert not assert_matches_lstsq(op, y, support)


def test_columns_match_the_product_formula_bitwise(toy_op):
    support = np.random.default_rng(5).choice(toy_op.shape[1], 40, replace=False)
    users, delays = np.divmod(support, toy_op.t_cp)
    expected = (toy_op.pilots.window_values[users] * toy_op.pilots.block[delays]).T
    assert np.array_equal(toy_op.columns(support), expected)


class TestRip:
    def brute_delta(self, mat, k):
        # independent enumeration oracle: scale, then exhaust eigenvalues
        mat = mat / np.mean(np.linalg.norm(mat, axis=0))
        worst = -np.inf
        for sup in combinations(range(mat.shape[1]), k):
            sub = mat[:, list(sup)]
            eig = np.linalg.eigvalsh(sub.conj().T @ sub)
            worst = max(worst, eig[-1] - 1.0, 1.0 - eig[0])
        return worst

    def test_unitary_has_zero_delta(self):
        mat = np.fft.fft(np.eye(8), norm="ortho")
        for k in (1, 2, 3):
            assert rip_constant_exact(mat, k).delta_k <= 1e-10

    def test_duplicate_columns_delta_two_is_one(self):
        rng = np.random.default_rng(16)
        mat = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        mat /= np.linalg.norm(mat, axis=0, keepdims=True)
        mat[:, 3] = mat[:, 0]
        report = rip_constant_exact(mat, 2)
        assert report.delta_k == pytest.approx(1.0, abs=1e-10)
        assert set(report.support) == {0, 3}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        rows = np.sort(rng.choice(32, 12, replace=False))
        dft = np.fft.fft(np.eye(32))[rows][:, :20]   # partial-Fourier style
        assert rip_constant_exact(dft, 2).delta_k == pytest.approx(
            self.brute_delta(dft, 2), abs=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(18)
        mat = rng.standard_normal((12, 16)) + 1j * rng.standard_normal((12, 16))
        deltas = [rip_constant_exact(mat, k).delta_k for k in (1, 2, 3, 4)]
        assert all(deltas[i] <= deltas[i + 1] + 1e-12 for i in range(3))

    def test_size_caps(self):
        with pytest.raises(ValueError):
            rip_constant_exact(np.eye(30), 2)
        with pytest.raises(ValueError):
            rip_constant_exact(np.eye(10), 5)


class TestSampleComplexity:
    def test_log_one_point(self):
        assert rip_sample_complexity(math.e, 1, 1.0, 1.0, 1.0) == 1

    def test_linear_in_k(self):
        assert rip_sample_complexity(math.e, 2, 1.0, 1.0, 1.0) == 2

    def test_lte_scale_value(self):
        # 150 * log^5(24576), evaluated independently and frozen
        assert rip_sample_complexity(24576, 6, 0.2, 1.0, 1.0) == 15839635

    def test_domain(self):
        with pytest.raises(ValueError):
            rip_sample_complexity(100, 1, 0.0, 1.0, 1.0)
