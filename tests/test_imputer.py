"""Tests for kernel ridge regression and the blockwise imputation pipeline."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from channel_cntk import imputer
from channel_cntk import (
    CntkConfig,
    CoordinateKernel,
    PriorWeights,
    SparseChannelEstimate,
    auto_ridge,
    estimate_channel_cntk,
    estimation_smoother,
    kernel_regress,
    preset_pattern,
    spectral_smoother,
)

from estimator_caches import clear_estimator_caches


def _random_pilots(rng, mask):
    return np.where(mask, rng.standard_normal(mask.shape)
                    + 1j * rng.standard_normal(mask.shape), 0)


def _bands(sparse):
    """The slot's 12-row bands as separate estimates, in order."""
    return [SparseChannelEstimate(sparse.values[r:r + 12], sparse.mask[r:r + 12])
            for r in range(0, sparse.shape[0], 12)]


def _alternating_mask(rows):
    """Dense pilot mask whose odd 12-row bands carry the sparse pattern instead."""
    mask = preset_pattern("dense", rows, 14).mask.copy()
    mask.reshape(-1, 12, 14)[1::2] = preset_pattern("sparse", 12, 14).mask
    return mask


def _regress(K, obs, y, ridge):
    """(estimate, lam, condition) of targets y at `obs` through a fresh smoother."""
    W, lam, cond = spectral_smoother(K, obs).matrix(ridge)
    return kernel_regress(W, y), lam, cond


def _random_psd_kernel(rng, M, N, rank=None):
    P = M * N
    B = rng.standard_normal((P, rank or P + 2))
    return CoordinateKernel(B @ B.T + 1e-6 * np.eye(P), (M, N))


class TestKernelRegress:
    def test_all_observed_identity(self):
        rng = np.random.default_rng(0)
        K = _random_psd_kernel(rng, 3, 3)
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        out, _, _ = _regress(K, np.arange(9), y, 0.0)
        assert np.abs(out - y).max() < 1e-8

    def test_single_observation_scalar_ratio(self):
        rng = np.random.default_rng(1)
        K = _random_psd_kernel(rng, 2, 3)
        o = 4
        v = 2.0 - 1.5j
        out, _, _ = _regress(K, np.array([o]), np.array([v]), 0.0)
        expect = v * K.gram[:, o] / K.gram[o, o]
        assert np.abs(out - expect).max() < 1e-12

    def test_matches_naive_inverse_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            K = _random_psd_kernel(rng, 5, 5)
            obs = np.sort(rng.choice(25, size=3, replace=False)).astype(np.int64)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = 1e-3
            out, _, _ = _regress(K, obs, y, lam)
            k_oo = K.gram[np.ix_(obs, obs)]
            naive = K.gram[:, obs] @ np.linalg.inv(k_oo + lam * np.eye(3)) @ y
            denom = np.abs(naive).max()
            assert np.abs(out - naive).max() <= 1e-8 * denom

    def test_linearity_same_kernel(self):
        rng = np.random.default_rng(3)
        K = _random_psd_kernel(rng, 4, 4)
        obs = np.array([1, 5, 9, 12], dtype=np.int64)
        y1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam = 1e-6
        a, _, _ = _regress(K, obs, y1, lam)
        b, _, _ = _regress(K, obs, y2, lam)
        ab, _, _ = _regress(K, obs, y1 + y2, lam)
        assert np.abs(ab - (a + b)).max() <= 1e-9 * np.abs(ab).max()

    def test_ridge_shrinkage(self):
        rng = np.random.default_rng(4)
        K = _random_psd_kernel(rng, 4, 4)
        obs = np.array([0, 3, 7], dtype=np.int64)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out, _, _ = _regress(K, obs, y, 1e12)
        assert np.abs(out).max() <= 1e-6 * np.abs(y).max()

    def test_singular_block_floored(self):
        # rank-1 gram with two observations is singular at ridge 0: the ridge
        # is raised to lift the smallest eigenvalue of K_oo to the floor
        v = np.arange(1.0, 5.0)
        K = CoordinateKernel(np.outer(v, v), (2, 2))
        obs = np.array([0, 1], dtype=np.int64)
        y = np.array([1.0 + 0j, 2.0 + 0j])
        out, lam, cond = _regress(K, obs, y, 0.0)
        k_oo = K.gram[np.ix_(obs, obs)]
        floor = imputer.EIG_FLOOR_REL * np.trace(k_oo) / obs.size
        assert np.all(np.isfinite(out))
        assert lam == floor - np.linalg.eigh(k_oo)[0][0] > 0
        assert np.isfinite(cond)

    def test_zero_block_gives_zero_estimate(self):
        # an all-zero K_oo has trace 0, so the floor, and with it the ridge,
        # is the smallest normal float, and the estimate is zero, not NaN
        K = CoordinateKernel(np.zeros((4, 4)), (2, 2))
        obs = np.array([1, 3], dtype=np.int64)
        out, lam, cond = _regress(K, obs, np.array([1 + 2j, -3j]), 0.0)
        assert np.array_equal(out, np.zeros(4, np.complex128))
        assert lam >= np.finfo(np.float64).tiny
        assert cond == 1.0

    def test_indefinite_block_lifted_to_floor(self):
        # K_oo = [[1, 2], [2, 1]] has eigenvalues -1 and 3: the ridge lifts
        # -1 to the floor and the condition number is (3 + lam) / floor
        gram = np.array([[1.0, 2.0, 0.5, 0.0],
                         [2.0, 1.0, 0.0, 0.5],
                         [0.5, 0.0, 1.0, 0.0],
                         [0.0, 0.5, 0.0, 1.0]])
        K = CoordinateKernel(gram, (2, 2))
        obs = np.array([0, 1], dtype=np.int64)
        out, lam, cond = _regress(K, obs, np.array([1 + 1j, 2 - 1j]), 1e-3)
        floor = imputer.EIG_FLOOR_REL * 2.0 / 2
        assert np.all(np.isfinite(out))
        assert abs((lam - 1.0) - floor) <= 1e-4 * floor
        assert abs(cond - (3.0 + lam) / floor) <= 1e-4 * cond

    def test_columns_match_single_column_solves(self):
        # an (n, B) problem solves every column with one eigendecomposition
        # and gives the same bits as B separate (n,) problems
        rng = np.random.default_rng(15)
        K = _random_psd_kernel(rng, 4, 5)
        obs = np.array([0, 3, 7, 11, 18], dtype=np.int64)
        Y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        W = spectral_smoother(K, obs).matrix(1e-3)[0]
        out = kernel_regress(W, Y)
        assert out.shape == (20, 3)
        for b in range(3):
            col = kernel_regress(W, Y[:, b])
            assert np.array_equal(out[:, b], col)
        with pytest.raises(ValueError):
            kernel_regress(W, np.vstack([Y, Y[:1]]))

    def test_problem_validation(self):
        # the observed set is checked when the smoother is built, the ridge
        # when its matrix is formed, the values when the matrix is applied
        rng = np.random.default_rng(5)
        K = _random_psd_kernel(rng, 2, 2)
        with pytest.raises(ValueError):
            spectral_smoother(K, np.array([2, 1]))
        with pytest.raises(ValueError):
            spectral_smoother(K, np.array([0, 9]))
        with pytest.raises(ValueError):
            spectral_smoother(K, np.array([-1, 0]))
        with pytest.raises(ValueError):
            spectral_smoother(K, np.array([], dtype=np.int64))
        sm = spectral_smoother(K, np.array([0, 1]))
        for ridge in (-1.0, np.nan, None, "auto", math.inf):
            with pytest.raises(ValueError, match="ridge must be a non-negative number"):
                sm.matrix(ridge)
        W = sm.matrix(0.0)[0]
        with pytest.raises(ValueError, match="finite"):
            kernel_regress(W, np.array([np.nan, 2j]))
        with pytest.raises(ValueError):
            kernel_regress(W, np.ones((2, 1, 1)))

    def test_smoother_is_read_only(self):
        # cached smoothers are shared by every caller in the process
        rng = np.random.default_rng(6)
        sm = spectral_smoother(_random_psd_kernel(rng, 2, 3), np.array([1, 4]))
        for arr in (sm.obs, sm.e, sm.U, sm.B, sm.kernel.gram):
            assert not arr.flags.writeable


class TestEstimateChannel:
    def test_constant_channel_recovery(self):
        # constant target, any pattern: recovered within 1e-3 relative
        for preset in ("dense", "medium", "sparse"):
            pat = preset_pattern(preset, 12, 14)
            const = np.full((12, 14), 2.0 + 1.0j)
            sp = SparseChannelEstimate(np.where(pat.mask, const, 0), pat.mask)
            imp = estimate_channel_cntk(sp)
            err = np.abs(imp.h_hat - const).max() / np.abs(const).max()
            assert err <= 1e-3

    def test_full_mask_strict_interpolation_exact(self):
        rng = np.random.default_rng(7)
        full = np.ones((12, 14), bool)
        vals = rng.standard_normal((12, 14)) + 1j * rng.standard_normal((12, 14))
        sp = SparseChannelEstimate(vals, full)
        imp = estimate_channel_cntk(sp, ridge=0.0)
        assert np.array_equal(imp.h_hat, vals)

    def test_pilot_cells_kept_at_zero_ridge(self):
        rng = np.random.default_rng(8)
        pat = preset_pattern("dense", 12, 14)
        vals = np.where(pat.mask, rng.standard_normal((12, 14))
                        + 1j * rng.standard_normal((12, 14)), 0)
        sp = SparseChannelEstimate(vals, pat.mask)
        imp = estimate_channel_cntk(sp, ridge=0.0)
        assert np.array_equal(imp.h_hat[pat.mask], vals[pat.mask])

    def test_jitter_default_near_interpolates(self):
        # the strict 1e-6 contract applies at ridge=0; the jitter default
        # only needs to stay close to interpolating
        rng = np.random.default_rng(9)
        pat = preset_pattern("dense", 12, 14)
        vals = np.where(pat.mask, rng.standard_normal((12, 14))
                        + 1j * rng.standard_normal((12, 14)), 0)
        sp = SparseChannelEstimate(vals, pat.mask)
        imp = estimate_channel_cntk(sp)  # ridge=DEFAULT_RIDGE_REL, the jitter
        resid = np.abs(imp.h_hat[pat.mask] - vals[pat.mask]).max()
        assert resid <= 1e-4 * np.abs(vals[pat.mask]).max()

    def test_nan_ridge_rejected(self):
        # NaN fails every comparison, so it once passed `ridge < 0` and gave
        # all-NaN estimates
        pat = preset_pattern("dense", 24, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 1 + 0j, 0), pat.mask)
        with pytest.raises(ValueError, match="ridge must be a non-negative number"):
            estimate_channel_cntk(sp, ridge=float("nan"))

    def test_infinite_ridge_rejected(self):
        # an infinite ridge once passed as `ridge >= 0` and reported a NaN
        # condition number; the noiseless auto ridge is still the jitter
        pat = preset_pattern("dense", 24, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 1 + 0j, 0), pat.mask)
        for ridge in (math.inf, np.float64(np.inf)):
            with pytest.raises(ValueError, match="ridge must be a non-negative number"):
                estimate_channel_cntk(sp, ridge=ridge)
        assert auto_ridge(math.inf) == imputer.DEFAULT_RIDGE_REL
        assert math.isfinite(estimate_channel_cntk(sp, ridge=auto_ridge(math.inf))
                             .diagnostics[0].condition)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        pat = preset_pattern("dense", 24, 14)
        vals = np.where(pat.mask, rng.standard_normal((24, 14))
                        + 1j * rng.standard_normal((24, 14)), 0)
        sp = SparseChannelEstimate(vals, pat.mask)
        a = estimate_channel_cntk(sp, ridge=1e-3)
        b = estimate_channel_cntk(sp, ridge=1e-3)
        assert np.array_equal(a.h_hat, b.h_hat)

    def test_block_independence(self):
        # processing blocks separately and stacking them matches the pipeline,
        # also when bands that are not adjacent share a mask and one factorization
        rng = np.random.default_rng(11)
        for mask in (preset_pattern("dense", 36, 14).mask, _alternating_mask(360)):
            sp = SparseChannelEstimate(_random_pilots(rng, mask), mask)
            whole = estimate_channel_cntk(sp, ridge=1e-3).h_hat
            parts = [estimate_channel_cntk(b, ridge=1e-3).h_hat for b in _bands(sp)]
            # reversed processing order, same stacking positions
            parts_rev = [estimate_channel_cntk(b, ridge=1e-3).h_hat
                         for b in reversed(_bands(sp))][::-1]
            assert np.array_equal(whole, np.concatenate(parts))
            assert np.array_equal(whole, np.concatenate(parts_rev))

    def test_empty_block_error_names_block(self):
        mask = np.zeros((24, 14), bool)
        mask[:12:2, ::4] = True  # pilots only in the first block
        mask[0, 1] = True
        sp = SparseChannelEstimate(np.where(mask, 1 + 0j, 0), mask)
        with pytest.raises(ValueError, match="block 1"):
            estimate_channel_cntk(sp)

    def test_row_count_not_multiple_of_12_error(self):
        mask = np.zeros((30, 14), bool)
        mask[::2, ::4] = True
        sp = SparseChannelEstimate(np.where(mask, 1 + 0j, 0), mask)
        with pytest.raises(ValueError, match="divisible"):
            estimate_channel_cntk(sp)

    def test_diagnostics_present(self):
        pat = preset_pattern("dense", 24, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 1 + 1j, 0), pat.mask)
        imp = estimate_channel_cntk(sp)
        assert len(imp.diagnostics) == 2
        for d in imp.diagnostics:
            assert d.condition >= 1.0
            assert d.solve_s >= 0.0
        # one entry per band in band order; bands that share a mask share
        # its ridge, condition and solve time
        mask = _alternating_mask(48)
        imp = estimate_channel_cntk(SparseChannelEstimate(np.where(mask, 1 + 1j, 0), mask))
        diags = imp.diagnostics
        assert [d.block_index for d in diags] == [0, 1, 2, 3]
        for a, b in ((0, 2), (1, 3)):
            assert (diags[a].ridge, diags[a].condition, diags[a].solve_s) \
                == (diags[b].ridge, diags[b].condition, diags[b].solve_s)
        assert diags[0].condition != diags[1].condition


class TestEstimationKernel:
    def test_band_out_of_range(self):
        pat = preset_pattern("dense", 24, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 1 + 0j, 0), pat.mask)
        for band in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                estimation_smoother(sp, band).kernel

    def test_band_of_slot_equals_band_alone(self):
        # cutting the slot into bands changes nothing: a band's kernel is the
        # kernel of that band given as a slot of its own, built cold both times
        rng = np.random.default_rng(17)
        mask = _alternating_mask(48)
        sp = SparseChannelEstimate(_random_pilots(rng, mask), mask)
        for b, band in enumerate(_bands(sp)):
            clear_estimator_caches()
            in_slot = estimation_smoother(sp, b).kernel.gram
            clear_estimator_caches()
            assert np.array_equal(in_slot, estimation_smoother(band, 0).kernel.gram)


def test_estimator_is_additive_in_pilots():
    # the kernel depends only on the mask, so at a fixed mask and ridge the
    # estimate is a linear map of the pilot values
    rng = np.random.default_rng(13)
    pat = preset_pattern("dense", 24, 14)
    y1, y2 = _random_pilots(rng, pat.mask), _random_pilots(rng, pat.mask)
    for ridge in (imputer.DEFAULT_RIDGE_REL, 1e-2):
        est1, est2, est12 = (estimate_channel_cntk(SparseChannelEstimate(y, pat.mask),
                                                   ridge=ridge).h_hat
                             for y in (y1, y2, y1 + y2))
        assert np.abs(est12 - (est1 + est2)).max() <= 1e-10 * np.abs(est12).max()


@pytest.mark.parametrize("ridge", [imputer.DEFAULT_RIDGE_REL, 0.0, 1e-2])
@pytest.mark.parametrize("mask", [preset_pattern("dense", 24, 14).mask, _alternating_mask(24)],
                         ids=["dense", "alternating"])
def test_estimator_is_homogeneous_and_shift_equivariant(mask, ridge):
    # estimate(alpha*y + c*mask) == alpha*estimate(y) + c for complex alpha, c:
    # the smoother is complex-linear and reproduces constants
    rng = np.random.default_rng(15)
    y = _random_pilots(rng, mask)
    alpha, c = 0.7 - 1.9j, -2.3 + 0.4j
    est, est_mapped = (estimate_channel_cntk(SparseChannelEstimate(v, mask), ridge=ridge).h_hat
                       for v in (y, alpha * y + c * mask))
    expected = alpha * est + c
    assert np.abs(est_mapped - expected).max() <= 1e-10 * np.abs(expected).max()


def _count_calls(monkeypatch, sparse, clear=True, **kwargs):
    """(kernel builds, K_oo eigendecompositions, kernel_regress calls) of one
    estimate at ridge 1e-2 unless kwargs say otherwise, from an empty
    smoother cache unless clear=False."""
    if clear:
        clear_estimator_caches()
    counts = {(imputer, "compute_cntk"): 0, (np.linalg, "eigh"): 0,
              (imputer, "kernel_regress"): 0}
    for key in counts:
        def counting(*args, _key=key, _original=getattr(*key)):
            counts[_key] += 1
            return _original(*args)
        monkeypatch.setattr(*key, counting)
    estimate_channel_cntk(sparse, **{"ridge": 1e-2, **kwargs})
    monkeypatch.undo()
    return tuple(counts.values())


def test_kernel_built_once_per_distinct_band_mask(monkeypatch):
    rng = np.random.default_rng(14)
    pat = preset_pattern("dense", 360, 14)
    dense = SparseChannelEstimate(_random_pilots(rng, pat.mask), pat.mask)
    assert _count_calls(monkeypatch, dense) == (1, 1, 1)
    # the smoother outlives the call: the next slot with the same mask builds
    # no kernel and eigendecomposes nothing
    again = SparseChannelEstimate(_random_pilots(rng, pat.mask), pat.mask)
    assert _count_calls(monkeypatch, again, clear=False) == (0, 0, 1)
    # bands alternate between two masks: one build and one solve per mask
    mask = _alternating_mask(360)
    alternating = SparseChannelEstimate(_random_pilots(rng, mask), mask)
    assert _count_calls(monkeypatch, alternating) == (2, 2, 2)


def test_ridge_change_reuses_eigenpairs(monkeypatch):
    # the ridge only filters the cached eigenvalues; a CntkConfig change
    # is a new kernel, so one eigendecomposition per distinct mask
    rng = np.random.default_rng(19)
    mask = _alternating_mask(360)
    sparse = SparseChannelEstimate(_random_pilots(rng, mask), mask)
    assert _count_calls(monkeypatch, sparse) == (2, 2, 2)
    for ridge in (imputer.DEFAULT_RIDGE_REL, 0.0, auto_ridge(30.0)):
        assert _count_calls(monkeypatch, sparse, clear=False, ridge=ridge) == (0, 0, 2)
    assert _count_calls(monkeypatch, sparse, clear=False, cfg=CntkConfig(depth=4)) == (2, 2, 2)


def test_kernel_time_is_shared_within_a_mask_group():
    # kernel_s times getting the group's smoother: a kernel build, K_oo's
    # eigendecomposition and K_ao U on the first call, a cache lookup on the
    # next; the bands of one mask share it
    rng = np.random.default_rng(17)
    mask = _alternating_mask(48)
    sparse = SparseChannelEstimate(_random_pilots(rng, mask), mask)
    clear_estimator_caches()
    for _ in range(2):
        diags = estimate_channel_cntk(sparse).diagnostics
        assert all(d.kernel_s >= 0 for d in diags)
        for group in (diags[0::2], diags[1::2]):
            assert len({d.kernel_s for d in group}) == 1


def _fresh_eigh_estimate(sparse, ridge):
    """Reference estimate that eigendecomposes each band's K_oo afresh and
    applies K_ao (U diag(1/(e + lam)) U^T) to the centered pilots, with the
    floor, lam and condition number as the estimator defines them.
    Returns (h_hat, ridges, conditions)."""
    h_hat = np.empty(sparse.shape, np.complex128)
    ridges, conds = [], []
    for band in range(sparse.shape[0] // 12):
        rows = slice(12 * band, 12 * band + 12)
        gram = estimation_smoother(sparse, band).kernel.gram
        obs = np.flatnonzero(sparse.mask[rows])
        y = sparse.values[rows].reshape(-1)[obs]
        k_oo = gram[np.ix_(obs, obs)]
        e, U = np.linalg.eigh(k_oo)
        trace = float(np.trace(k_oo))
        floor = max(imputer.EIG_FLOOR_REL * trace / obs.size, np.finfo(np.float64).tiny)
        lam = float(max(ridge, floor - e[0]))
        est = gram[:, obs] @ ((U / (e + lam)) @ U.T) @ (y - y.mean()) + y.mean()
        if ridge == 0:
            est[obs] = y
        h_hat[rows] = est.reshape(12, 14)
        ridges.append(lam)
        conds.append(float((e[-1] + lam) / (e[0] + lam)))
    return h_hat, ridges, conds


def test_cached_smoother_matches_fresh_eigh():
    # the eigenpairs cached per mask give the estimate of a fresh
    # eigendecomposition per call, with the same ridge and condition
    rng = np.random.default_rng(20)
    masks = [preset_pattern(p, 12, 14).mask for p in ("dense", "medium", "sparse")]
    masks += [_erased_mask(rng, 12) for _ in range(20)]
    for mask in masks:
        sp = SparseChannelEstimate(_random_pilots(rng, mask), mask)
        for ridge in (imputer.DEFAULT_RIDGE_REL, 0.0, 1e-3, auto_ridge(10.0), auto_ridge(30.0)):
            ref, ridges, conds = _fresh_eigh_estimate(sp, ridge)
            imp = estimate_channel_cntk(sp, ridge=ridge)
            assert np.abs(imp.h_hat - ref).max() <= 1e-12 * np.abs(ref).max()
            assert [d.ridge for d in imp.diagnostics] == ridges
            assert [d.condition for d in imp.diagnostics] == conds


class TestSmootherMatrix:
    """The estimate is the linear map W = K_ao (K_oo + lam*I)^-1 it reports."""

    RIDGES = (imputer.DEFAULT_RIDGE_REL, 0.0, 1e-3, auto_ridge(10.0), auto_ridge(30.0))

    @staticmethod
    def _masks():
        rng = np.random.default_rng(21)
        masks = [preset_pattern(p, 12, 14).mask for p in ("dense", "medium", "sparse")]
        return masks + [_erased_mask(rng, 12) for _ in range(20)]

    def test_matrix_equals_fresh_solve(self):
        # W from the cached eigenpairs against a fresh LU solve, with lam and
        # the condition number as a fresh eigendecomposition gives them
        for mask in self._masks():
            sm = estimation_smoother(SparseChannelEstimate(np.where(mask, 1 + 0j, 0), mask), 0)
            gram, obs = sm.kernel.gram, sm.obs
            k_oo = gram[np.ix_(obs, obs)]
            e = np.linalg.eigh(k_oo)[0]
            floor = max(imputer.EIG_FLOOR_REL * float(np.trace(k_oo)) / obs.size,
                        np.finfo(np.float64).tiny)
            for ridge in self.RIDGES:
                W, lam, cond = sm.matrix(ridge)
                assert (lam, cond) == sm.regularize(ridge)
                assert lam == float(max(ridge, floor - e[0]))
                assert cond == float((e[-1] + lam) / (e[0] + lam))
                ref = np.linalg.solve(k_oo + lam * np.eye(obs.size), gram[obs]).T
                assert W.shape == (gram.shape[0], obs.size)
                assert np.abs(W - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_estimate_applies_reported_matrix(self):
        # each band's estimate is W (y_b - mean y_b) + mean y_b, pilots kept at ridge 0
        rng = np.random.default_rng(22)
        for mask in self._masks():
            slot_mask = np.vstack([mask, mask])
            sp = SparseChannelEstimate(_random_pilots(rng, slot_mask), slot_mask)
            sm = estimation_smoother(sp, 0)
            for ridge in self.RIDGES:
                W, lam, cond = sm.matrix(ridge)
                imp = estimate_channel_cntk(sp, ridge=ridge)
                assert [(d.ridge, d.condition) for d in imp.diagnostics] == [(lam, cond)] * 2
                for band in range(2):
                    y = sp.values[12 * band:12 * band + 12].reshape(-1)[sm.obs]
                    ref = W @ (y - y.mean()) + y.mean()
                    if ridge == 0:
                        ref[sm.obs] = y
                    got = imp.h_hat[12 * band:12 * band + 12].reshape(-1)
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @staticmethod
    def _centred_map(mask, ridge):
        """(W_c, obs, lam, condition) of a 12 x 14 band mask from the estimator's map cache."""
        return imputer._mask_map(mask.shape, mask.tobytes(), CntkConfig(), PriorWeights(), ridge)

    def test_centred_map_equals_fresh_solve(self):
        # the cached map is W (I - 11^T/n) + 11^T/n, with W from a fresh LU
        # solve; each of its rows sums to 1 and it is read-only
        for mask in self._masks():
            sm = estimation_smoother(SparseChannelEstimate(np.where(mask, 1 + 0j, 0), mask), 0)
            gram, obs = sm.kernel.gram, sm.obs
            n = obs.size
            k_oo = gram[np.ix_(obs, obs)]
            for ridge in self.RIDGES:
                W_c, map_obs, lam, cond = self._centred_map(mask, ridge)
                assert np.array_equal(map_obs, obs)
                assert (lam, cond) == sm.regularize(ridge)
                W = np.linalg.solve(k_oo + lam * np.eye(n), gram[obs]).T
                ref = W @ (np.eye(n) - 1.0 / n) + 1.0 / n
                assert W_c.shape == (gram.shape[0], n)
                assert np.abs(W_c - ref).max() <= 1e-12 * np.abs(ref).max()
                assert np.abs(W_c.sum(axis=1) - 1.0).max() <= 1e-12
                assert not W_c.flags.writeable

    def test_estimate_is_centred_map_times_pilots(self):
        # each band's estimate is W_c y_b of its own mask's centred map, on a
        # slot whose bands share one mask and on one with two masks; the
        # pilots are kept at ridge 0
        rng = np.random.default_rng(25)
        dense = preset_pattern("dense", 12, 14).mask
        for mask in self._masks():
            for slot_mask in (np.vstack([mask, mask]), np.vstack([mask, dense, mask])):
                sp = SparseChannelEstimate(_random_pilots(rng, slot_mask), slot_mask)
                for ridge in self.RIDGES:
                    imp = estimate_channel_cntk(sp, ridge=ridge)
                    for band, rows in enumerate(range(0, slot_mask.shape[0], 12)):
                        W_c, obs, lam, cond = self._centred_map(slot_mask[rows:rows + 12], ridge)
                        assert (imp.diagnostics[band].ridge, imp.diagnostics[band].condition) \
                            == (lam, cond)
                        y = sp.values[rows:rows + 12].reshape(-1)[obs]
                        ref = W_c @ y
                        if ridge == 0:
                            ref[obs] = y
                        got = imp.h_hat[rows:rows + 12].reshape(-1)
                        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_matrix_is_read_only(self):
        pat = preset_pattern("dense", 12, 14)
        sm = estimation_smoother(SparseChannelEstimate(np.where(pat.mask, 1 + 0j, 0), pat.mask), 0)
        W = sm.matrix(1e-3)[0]
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 1.0

    def test_map_cache_per_mask_and_ridge(self):
        # a fixed layout at 4 ridges forms 4 maps, then only looks them up
        rng = np.random.default_rng(23)
        pat = preset_pattern("dense", 360, 14)
        sparse = SparseChannelEstimate(_random_pilots(rng, pat.mask), pat.mask)
        ridges = [auto_ridge(snr) for snr in (0.0, 10.0, 20.0, 30.0)]
        clear_estimator_caches()
        for ridge in ridges:
            estimate_channel_cntk(sparse, ridge=ridge)
        info = imputer._mask_map.cache_info()
        assert (info.misses, info.hits) == (4, 0)
        for ridge in ridges:
            estimate_channel_cntk(sparse, ridge=ridge)
        info = imputer._mask_map.cache_info()
        assert (info.misses, info.hits) == (4, 4)
        assert info.currsize == 4 <= imputer.MAP_CACHE_SIZE

    def test_map_cache_bounded_under_churn(self):
        # 30 distinct band masks form 30 maps, and at most MAP_CACHE_SIZE stay
        rng = np.random.default_rng(24)
        mask = _erased_mask(rng, 360)
        assert len({b.tobytes() for b in mask.reshape(-1, 12, 14)}) == 30
        clear_estimator_caches()
        estimate_channel_cntk(SparseChannelEstimate(_random_pilots(rng, mask), mask), ridge=1e-2)
        info = imputer._mask_map.cache_info()
        assert (info.misses, info.hits) == (30, 0)
        assert info.currsize == imputer.MAP_CACHE_SIZE


def test_kernel_cache_hit_equals_cold_call():
    # a warm cache never changes an estimate: after a default call, a changed
    # config, prior weights or ridge gives the bits of a call made on an empty
    # cache, and a changed config or weights builds its own kernels
    rng = np.random.default_rng(16)
    mask = _alternating_mask(48)
    sparse = SparseChannelEstimate(_random_pilots(rng, mask), mask)
    cache = imputer._mask_smoother
    for kwargs, builds in ((dict(cfg=CntkConfig(depth=4)), 2),
                           (dict(weights=PriorWeights(mask=0.3)), 2),
                           (dict(ridge=auto_ridge(10.0)), 0)):
        clear_estimator_caches()
        cold = estimate_channel_cntk(sparse, **kwargs)
        clear_estimator_caches()
        estimate_channel_cntk(sparse)
        misses = cache.cache_info().misses
        warm = estimate_channel_cntk(sparse, **kwargs)
        assert cache.cache_info().misses - misses == builds
        assert np.array_equal(warm.h_hat, cold.h_hat)
        assert [(d.ridge, d.condition) for d in warm.diagnostics] \
            == [(d.ridge, d.condition) for d in cold.diagnostics]


def test_auto_ridge_policy():
    assert auto_ridge(float("inf")) == 1e-8
    assert abs(auto_ridge(0.0) - 1.0) < 1e-15
    assert abs(auto_ridge(30.0) - 1e-3) < 1e-18
    assert auto_ridge(200.0) == 1e-8  # floored


def test_escalation_ladder_recovers_singular_block():
    # duplicated pilot rows make K_oo numerically singular at tiny ridge;
    # the eigenvalue floor must raise the ridge instead of failing
    rng = np.random.default_rng(12)
    v = rng.standard_normal(16)
    gram = np.outer(v, v)  # rank 1
    K = CoordinateKernel(gram, (4, 4))
    obs = np.array([0, 1, 2], dtype=np.int64)
    y = np.array([1 + 1j, 2 + 0j, 0.5j])
    out, lam, _ = _regress(K, obs, y, 0.0)
    assert np.all(np.isfinite(out))
    assert lam > 0


def _erased_mask(rng, rows):
    """Dense pilot mask with about half its pilots dropped, at least one kept per band."""
    mask = preset_pattern("dense", rows, 14).mask.copy()
    for band in mask.reshape(-1, 12, 14):
        idx = np.flatnonzero(band)
        band.reshape(-1)[rng.choice(idx, size=idx.size // 2, replace=False)] = False
    return mask


@pytest.mark.parametrize("ridge", [imputer.DEFAULT_RIDGE_REL, 0.0, 1e-2])
def test_condition_matches_svd_oracle(ridge):
    # the condition number read from the eigenvalues equals the SVD's
    rng = np.random.default_rng(18)
    masks = (preset_pattern("dense", 24, 14).mask, preset_pattern("sparse", 24, 14).mask,
             _erased_mask(rng, 24))
    for mask in masks:
        sp = SparseChannelEstimate(_random_pilots(rng, mask), mask)
        imp = estimate_channel_cntk(sp, ridge=ridge)
        for band, d in enumerate(imp.diagnostics):
            obs = np.flatnonzero(mask.reshape(-1, 12 * 14)[band])
            k_oo = estimation_smoother(sp, band).kernel.gram[np.ix_(obs, obs)]
            oracle = np.linalg.cond(k_oo + d.ridge * np.eye(obs.size))
            assert abs(d.condition - oracle) <= 1e-10 * oracle


_THREAD_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from channel_cntk import SparseChannelEstimate, auto_ridge, estimate_channel_cntk, preset_pattern
rng = np.random.default_rng(26)
dense = preset_pattern("dense", 360, 14).mask
erased = dense.copy()
for band in erased.reshape(-1, 12, 14):
    idx = np.flatnonzero(band)
    band.reshape(-1)[rng.choice(idx, size=idx.size // 2, replace=False)] = False
assert len({b.tobytes() for b in erased.reshape(-1, 12, 14)}) == 30
digest = hashlib.sha256()
for mask in (dense, erased):
    values = np.where(mask, rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape), 0)
    sp = SparseChannelEstimate(values, mask)
    for snr in (0.0, 10.0, 20.0, 30.0):
        imp = estimate_channel_cntk(sp, ridge=auto_ridge(snr))
        digest.update(imp.h_hat.tobytes())
        digest.update(repr([(d.ridge, d.condition) for d in imp.diagnostics]).encode())
print(digest.hexdigest())
"""


def test_estimates_identical_across_blas_threads():
    # a dense 360 x 14 slot and one whose 30 bands all have their own erased
    # mask, at the 4 auto ridges: the same SHA-256 of every estimate, ridge
    # and condition at 1 and at 2 OpenBLAS threads
    src = str(Path(imputer.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        res = subprocess.run([sys.executable, "-c", _THREAD_DIGEST_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        digests.append(res.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_package_import_loads_no_scipy():
    # NumPy is the only runtime dependency
    code = "import sys, channel_cntk; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(imputer.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert res.stdout.strip() == "[]"
