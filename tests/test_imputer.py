"""Tests for kernel ridge regression and the blockwise imputation pipeline."""

import numpy as np
import pytest

from channel_cntk import imputer
from channel_cntk import (
    CntkConfig,
    CoordinateKernel,
    PriorWeights,
    RegressionProblem,
    SingularKernelError,
    SparseChannelEstimate,
    auto_ridge,
    estimate_channel_cntk,
    kernel_regress,
    preset_pattern,
    split_blocks,
)


def _random_pilots(rng, mask):
    return np.where(mask, rng.standard_normal(mask.shape)
                    + 1j * rng.standard_normal(mask.shape), 0)


def _alternating_mask(rows):
    """Dense pilot mask whose odd 12-row bands carry the sparse pattern instead."""
    mask = preset_pattern("dense", rows, 14).mask.copy()
    mask.reshape(-1, 12, 14)[1::2] = preset_pattern("sparse", 12, 14).mask
    return mask


def _random_psd_kernel(rng, M, N, rank=None):
    P = M * N
    B = rng.standard_normal((P, rank or P + 2))
    return CoordinateKernel(B @ B.T + 1e-6 * np.eye(P), (M, N))


class TestKernelRegress:
    def test_all_observed_identity(self):
        rng = np.random.default_rng(0)
        K = _random_psd_kernel(rng, 3, 3)
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        out = kernel_regress(RegressionProblem(K, np.arange(9), y, 0.0))
        assert np.abs(out - y).max() < 1e-8

    def test_single_observation_scalar_ratio(self):
        rng = np.random.default_rng(1)
        K = _random_psd_kernel(rng, 2, 3)
        o = 4
        v = 2.0 - 1.5j
        out = kernel_regress(RegressionProblem(K, np.array([o]), np.array([v]), 0.0))
        expect = v * K.gram[:, o] / K.gram[o, o]
        assert np.abs(out - expect).max() < 1e-12

    def test_matches_naive_inverse_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            K = _random_psd_kernel(rng, 5, 5)
            obs = np.sort(rng.choice(25, size=3, replace=False)).astype(np.int64)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = 1e-3
            out = kernel_regress(RegressionProblem(K, obs, y, lam))
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
        a = kernel_regress(RegressionProblem(K, obs, y1, lam))
        b = kernel_regress(RegressionProblem(K, obs, y2, lam))
        ab = kernel_regress(RegressionProblem(K, obs, y1 + y2, lam))
        assert np.abs(ab - (a + b)).max() <= 1e-9 * np.abs(ab).max()

    def test_ridge_shrinkage(self):
        rng = np.random.default_rng(4)
        K = _random_psd_kernel(rng, 4, 4)
        obs = np.array([0, 3, 7], dtype=np.int64)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = kernel_regress(RegressionProblem(K, obs, y, 1e12))
        assert np.abs(out).max() <= 1e-6 * np.abs(y).max()

    def test_singular_kernel_error(self):
        # rank-1 gram with two observations is singular at ridge 0
        v = np.arange(1.0, 5.0)
        K = CoordinateKernel(np.outer(v, v), (2, 2))
        obs = np.array([0, 1], dtype=np.int64)
        y = np.array([1.0 + 0j, 2.0 + 0j])
        with pytest.raises(SingularKernelError):
            kernel_regress(RegressionProblem(K, obs, y, 0.0))

    def test_columns_match_single_column_solves(self):
        # an (n, B) problem solves every column with one factorization and
        # gives the same bits as B separate (n,) problems
        rng = np.random.default_rng(15)
        K = _random_psd_kernel(rng, 4, 5)
        obs = np.array([0, 3, 7, 11, 18], dtype=np.int64)
        Y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out = kernel_regress(RegressionProblem(K, obs, Y, 1e-3))
        assert out.shape == (20, 3)
        for b in range(3):
            col = kernel_regress(RegressionProblem(K, obs, Y[:, b], 1e-3))
            assert np.array_equal(out[:, b], col)
        with pytest.raises(ValueError):
            RegressionProblem(K, obs, np.vstack([Y, Y[:1]]), 1e-3)

    def test_problem_validation(self):
        rng = np.random.default_rng(5)
        K = _random_psd_kernel(rng, 2, 2)
        with pytest.raises(ValueError):
            RegressionProblem(K, np.array([2, 1]), np.array([1j, 2j]), 0.0)
        with pytest.raises(ValueError):
            RegressionProblem(K, np.array([0, 9]), np.array([1j, 2j]), 0.0)
        with pytest.raises(ValueError):
            RegressionProblem(K, np.array([0, 1]), np.array([1j, 2j]), -1.0)
        with pytest.raises(ValueError):
            RegressionProblem(K, np.array([], dtype=np.int64), np.array([]), 0.0)
        with pytest.raises(ValueError, match="finite"):
            RegressionProblem(K, np.array([0, 1]), np.array([np.nan, 2j]), 0.0)


class TestSplitBlocks:
    def test_thirty_blocks(self):
        pat = preset_pattern("dense", 360, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 1 + 1j, 0), pat.mask)
        blocks = split_blocks(sp)
        assert len(blocks) == 30
        assert all(b.shape == (12, 14) for b in blocks)

    def test_single_block_identity(self):
        pat = preset_pattern("dense", 12, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 2j, 0), pat.mask)
        blocks = split_blocks(sp)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0].values, sp.values)

    def test_split_then_stitch_bit_identical(self):
        rng = np.random.default_rng(6)
        pat = preset_pattern("medium", 72, 14)
        vals = np.where(pat.mask, rng.standard_normal((72, 14))
                        + 1j * rng.standard_normal((72, 14)), 0)
        sp = SparseChannelEstimate(vals, pat.mask)
        back = np.concatenate([b.values for b in split_blocks(sp)])
        assert np.array_equal(back, vals)

    def test_divisibility_error(self):
        pat = preset_pattern("dense", 24, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 1 + 0j, 0), pat.mask)
        with pytest.raises(ValueError, match="divisible"):
            split_blocks(sp, block_rows=7)


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
        imp = estimate_channel_cntk(sp)  # ridge=None -> relative jitter
        resid = np.abs(imp.h_hat[pat.mask] - vals[pat.mask]).max()
        assert resid <= 1e-4 * np.abs(vals[pat.mask]).max()

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
            parts = [estimate_channel_cntk(b, ridge=1e-3).h_hat
                     for b in split_blocks(sp)]
            # reversed processing order, same stacking positions
            parts_rev = [estimate_channel_cntk(b, ridge=1e-3).h_hat
                         for b in reversed(split_blocks(sp))][::-1]
            assert np.array_equal(whole, np.concatenate(parts))
            assert np.array_equal(whole, np.concatenate(parts_rev))

    def test_empty_block_error_names_block(self):
        mask = np.zeros((24, 14), bool)
        mask[:12:2, ::4] = True  # pilots only in the first block
        mask[0, 1] = True
        sp = SparseChannelEstimate(np.where(mask, 1 + 0j, 0), mask)
        with pytest.raises(ValueError, match="block 1"):
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


def test_estimator_is_additive_in_pilots():
    # the kernel depends only on the mask, so at a fixed mask and ridge the
    # estimate is a linear map of the pilot values
    rng = np.random.default_rng(13)
    pat = preset_pattern("dense", 24, 14)
    y1, y2 = _random_pilots(rng, pat.mask), _random_pilots(rng, pat.mask)
    for ridge in (None, 1e-2):
        est1, est2, est12 = (estimate_channel_cntk(SparseChannelEstimate(y, pat.mask),
                                                   ridge=ridge).h_hat
                             for y in (y1, y2, y1 + y2))
        assert np.abs(est12 - (est1 + est2)).max() <= 1e-10 * np.abs(est12).max()


def _count_calls(monkeypatch, sparse, clear=True):
    """(kernel builds, kernel_regress calls) of one estimate, from an empty
    kernel cache unless clear=False."""
    if clear:
        imputer._mask_kernel.cache_clear()
    counts = {"compute_cntk": 0, "kernel_regress": 0}
    for name in counts:
        def counting(*args, _name=name, _original=getattr(imputer, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(imputer, name, counting)
    estimate_channel_cntk(sparse, ridge=1e-2)
    monkeypatch.undo()
    return counts["compute_cntk"], counts["kernel_regress"]


def test_kernel_built_once_per_distinct_band_mask(monkeypatch):
    rng = np.random.default_rng(14)
    pat = preset_pattern("dense", 360, 14)
    dense = SparseChannelEstimate(_random_pilots(rng, pat.mask), pat.mask)
    assert _count_calls(monkeypatch, dense) == (1, 1)
    # the kernel outlives the call: the next slot with the same mask builds none
    again = SparseChannelEstimate(_random_pilots(rng, pat.mask), pat.mask)
    assert _count_calls(monkeypatch, again, clear=False) == (0, 1)
    # bands alternate between two masks: one build and one solve per mask
    mask = _alternating_mask(360)
    alternating = SparseChannelEstimate(_random_pilots(rng, mask), mask)
    assert _count_calls(monkeypatch, alternating) == (2, 2)


def test_kernel_cache_hit_equals_cold_call():
    # a warm cache never changes an estimate: after a default call, a changed
    # config, prior weights or ridge gives the bits of a call made on an empty
    # cache, and a changed config or weights builds its own kernels
    rng = np.random.default_rng(16)
    mask = _alternating_mask(48)
    sparse = SparseChannelEstimate(_random_pilots(rng, mask), mask)
    cache = imputer._mask_kernel
    for kwargs, builds in ((dict(cfg=CntkConfig(depth=4)), 2),
                           (dict(weights=PriorWeights(mask=0.3)), 2),
                           (dict(ridge=auto_ridge(10.0)), 0)):
        cache.cache_clear()
        cold = estimate_channel_cntk(sparse, **kwargs)
        cache.cache_clear()
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
    # the ladder must escalate instead of failing
    rng = np.random.default_rng(12)
    v = rng.standard_normal(16)
    gram = np.outer(v, v)  # rank 1
    K = CoordinateKernel(gram, (4, 4))
    from channel_cntk.imputer import _regress_with_escalation
    obs = np.array([0, 1, 2], dtype=np.int64)
    y = np.array([1 + 1j, 2 + 0j, 0.5j])
    out, lam = _regress_with_escalation(K, obs, y, 0.0)
    assert np.all(np.isfinite(out))
    assert lam > 0
