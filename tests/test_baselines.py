"""Tests for the classical interpolators against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from channel_cntk import (
    SparseChannelEstimate,
    baselines,
    knn_interpolate,
    linear_interpolate,
    nearest_interpolate,
    preset_pattern,
    run_sweep,
)
from channel_cntk.baselines import IDW_EPS


def _random_sparse(rng, M=9, N=8, density=0.25):
    mask = rng.random((M, N)) < density
    mask[0, 0] = True
    vals = np.where(mask, rng.standard_normal((M, N))
                    + 1j * rng.standard_normal((M, N)), 0)
    return SparseChannelEstimate(vals, mask)


def _lattice_inputs(rng):
    """Dense- and sparse-preset 24x14 slots: lattices, where distance ties are common."""
    for preset in ("dense", "sparse"):
        pat = preset_pattern(preset, 24, 14)
        vals = np.where(pat.mask, rng.standard_normal((24, 14))
                        + 1j * rng.standard_normal((24, 14)), 0)
        yield SparseChannelEstimate(vals, pat.mask)


def _naive_nearest(sp):
    M, N = sp.shape
    pm, pn = np.nonzero(sp.mask)
    out = np.zeros((M, N), complex)
    for m in range(M):
        for n in range(N):
            best = None
            for k in range(pm.size):
                d2 = (m - pm[k]) ** 2 + (n - pn[k]) ** 2
                flat = pm[k] * N + pn[k]
                key = (d2, flat)
                if best is None or key < best[0]:
                    best = (key, sp.values[pm[k], pn[k]])
            out[m, n] = best[1]
    return out


def _naive_knn(sp, k):
    M, N = sp.shape
    pm, pn = np.nonzero(sp.mask)
    out = np.zeros((M, N), complex)
    for m in range(M):
        for n in range(N):
            if sp.mask[m, n]:
                out[m, n] = sp.values[m, n]
                continue
            order = sorted(range(pm.size),
                           key=lambda i: ((m - pm[i]) ** 2 + (n - pn[i]) ** 2,
                                          pm[i] * N + pn[i]))[:k]
            w = np.array([1.0 / (np.hypot(m - pm[i], n - pn[i]) + IDW_EPS)
                          for i in order])
            v = np.array([sp.values[pm[i], pn[i]] for i in order])
            out[m, n] = (w * v).sum() / w.sum()
    return out


def _full_table_knn(sp, k):
    """KNN ranked on the all-cells x all-pilots table of keys d2 * n + j.

    The same integer key, partition, sort and weight arithmetic as
    knn_interpolate, without its per-column candidate search, so the two
    must agree bit for bit.
    """
    M, N = sp.shape
    pm, pn = np.nonzero(sp.mask)
    pv = sp.values[pm, pn]
    n = pv.size
    dm = np.arange(M)[:, None] - pm
    dn = np.arange(N)[:, None] - pn
    key = ((dm * dm)[:, None, :] + (dn * dn)[None, :, :]).reshape(M * N, n)
    key = key * n + np.arange(n)
    key.partition(k - 1, axis=1)
    key = np.sort(key[:, :k], axis=1)
    d = np.sqrt((key // n).astype(np.float64))
    w = 1.0 / (d + IDW_EPS)
    w /= w.sum(axis=1, keepdims=True)
    est = (w * pv[key % n]).sum(axis=1).reshape(M, N)
    est[sp.mask] = sp.values[sp.mask]
    return est


def _erased_lattices(rng, M):
    """Dense, medium and sparse M x 14 lattices with 40% of their pilots erased."""
    for preset in ("dense", "medium", "sparse"):
        pat = preset_pattern(preset, M, 14)
        mask = pat.mask & (rng.random((M, 14)) >= 0.4)
        vals = np.where(mask, rng.standard_normal((M, 14))
                        + 1j * rng.standard_normal((M, 14)), 0)
        yield SparseChannelEstimate(vals, mask)


class TestNearest:
    def test_pilot_cell_keeps_own_value(self):
        rng = np.random.default_rng(0)
        sp = _random_sparse(rng)
        out = nearest_interpolate(sp)
        assert np.array_equal(out[sp.mask], sp.values[sp.mask])

    def test_single_pilot_floods_grid(self):
        mask = np.zeros((4, 5), bool)
        mask[2, 3] = True
        sp = SparseChannelEstimate(np.where(mask, 3 - 2j, 0), mask)
        out = nearest_interpolate(sp)
        assert np.all(out == 3 - 2j)

    def test_tie_breaks_to_smaller_flat_index(self):
        # pilots in one row at columns 0 and 4; column 2 ties -> column 0 wins
        mask = np.zeros((1, 5), bool)
        mask[0, 0] = mask[0, 4] = True
        vals = np.zeros((1, 5), complex)
        vals[0, 0] = 10.0
        vals[0, 4] = 20.0
        sp = SparseChannelEstimate(vals, mask)
        out = nearest_interpolate(sp)
        assert out[0, 2] == 10.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(4):
            sp = _random_sparse(rng)
            assert np.array_equal(nearest_interpolate(sp), _naive_nearest(sp))
        for sp in _lattice_inputs(rng):
            assert np.array_equal(nearest_interpolate(sp), _naive_nearest(sp))


class TestKnn:
    def test_k1_equals_nearest_bit_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            sp = _random_sparse(rng)
            assert np.array_equal(knn_interpolate(sp, 1), nearest_interpolate(sp))

    def test_equidistant_pilots_give_mean(self):
        # four pilots at the corners of a symmetric square around the center
        mask = np.zeros((3, 3), bool)
        for m, n in ((0, 0), (0, 2), (2, 0), (2, 2)):
            mask[m, n] = True
        vals = np.zeros((3, 3), complex)
        vals[0, 0], vals[0, 2], vals[2, 0], vals[2, 2] = 1, 2, 3, 4
        sp = SparseChannelEstimate(vals, mask)
        out = knn_interpolate(sp, 4)
        assert abs(out[1, 1] - 2.5) < 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            sp = _random_sparse(rng)
            fast = knn_interpolate(sp, 3)
            slow = _naive_knn(sp, 3)
            assert np.abs(fast - slow).max() < 1e-12
        for sp in _lattice_inputs(rng):
            for k in range(1, 6):
                fast = knn_interpolate(sp, k)
                assert np.abs(fast - _naive_knn(sp, k)).max() < 1e-12, k

    def test_bit_identical_to_full_table_ranking(self):
        rng = np.random.default_rng(7)
        cases = []
        # random masks, one-row and one-column grids among them
        for M, N in ((1, 1), (1, 9), (9, 1), (2, 11), (7, 5), (9, 8), (11, 11)):
            for density in (0.2, 0.6):
                cases.append(_random_sparse(rng, M, N, density))
        # a single pilot column
        mask = np.zeros((24, 14), bool)
        mask[::3, 5] = True
        cases.append(SparseChannelEstimate(np.where(mask, 1 + 2j, 0), mask))
        # every column holds fewer pilots than k = 8, the mask holds 12
        mask = np.zeros((24, 14), bool)
        mask[[0, 3, 9, 17, 23], [0, 4, 4, 8, 13]] = True
        mask[[5, 12, 20], 2] = mask[[1, 7, 15, 22], 11] = True
        cases.append(SparseChannelEstimate(
            np.where(mask, rng.standard_normal((24, 14)) + 0j, 0), mask))
        for sp in cases:
            for k in sorted({*range(1, min(8, sp.n_pilots) + 1), sp.n_pilots}):
                assert np.array_equal(knn_interpolate(sp, k),
                                      _full_table_knn(sp, k)), (sp.shape, k)
        for M in (24, 360):
            for sp in _erased_lattices(rng, M):
                for k in range(1, 9):
                    assert np.array_equal(knn_interpolate(sp, k),
                                          _full_table_knn(sp, k)), (M, k)

    def test_dense_slot_peak_memory(self):
        # the search keeps O(cells x pilot columns x k) keys, never the
        # cells x pilots table (about 29 MB of int64 on this slot)
        pat = preset_pattern("dense", 360, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 1 - 1j, 0), pat.mask)
        # bound the search itself, not a lookup of a plan cached earlier
        baselines._knn_plan.cache_clear()
        tracemalloc.start()
        try:
            knn_interpolate(sp, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_invalid_k(self):
        rng = np.random.default_rng(4)
        sp = _random_sparse(rng)
        with pytest.raises(ValueError, match="k must"):
            knn_interpolate(sp, 0)
        with pytest.raises(ValueError, match="k must"):
            knn_interpolate(sp, sp.n_pilots + 1)


class TestKnnPlanCache:
    def test_fresh_values_on_cached_plans(self):
        # each call gathers its own pilot values through the cached plan,
        # including a warm hit on a mask after another mask was searched
        rng = np.random.default_rng(8)
        dense, sparse = (preset_pattern(p, 24, 14).mask for p in ("dense", "sparse"))
        baselines._knn_plan.cache_clear()
        for mask in (dense, dense, dense, sparse, dense, sparse, dense):
            vals = np.where(mask, rng.standard_normal(mask.shape)
                            + 1j * rng.standard_normal(mask.shape), 0)
            sp = SparseChannelEstimate(vals, mask)
            for k in (1, 4):
                assert knn_interpolate(sp, k).tobytes() == _full_table_knn(sp, k).tobytes()
        info = baselines._knn_plan.cache_info()
        assert (info.misses, info.hits) == (4, 10)

    def test_plan_key_holds_shape_and_k(self):
        # one 12-byte mask read as three shapes, at k = 1 and k = 4, is six plans
        flat = np.zeros(12, bool)
        flat[[0, 3, 5, 6, 10]] = True
        rng = np.random.default_rng(9)
        baselines._knn_plan.cache_clear()
        for shape in ((2, 6), (3, 4), (4, 3)):
            mask = flat.reshape(shape)
            sp = SparseChannelEstimate(np.where(mask, rng.standard_normal(shape) + 0j, 0), mask)
            for k in (1, 4):
                assert knn_interpolate(sp, k).tobytes() == _full_table_knn(sp, k).tobytes()
        assert baselines._knn_plan.cache_info().misses == 6

    def test_plan_is_read_only(self):
        mask = preset_pattern("sparse", 12, 14).mask
        src, w = baselines._knn_plan(mask.shape, mask.tobytes(), 4)
        assert not src.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 0.0

    def test_sweep_searches_once_per_mask_and_k(self):
        # nearest and knn on two presets: four (mask, k) plans, however many
        # SNRs and realizations reuse them
        baselines._knn_plan.cache_clear()
        run_sweep(["nearest", "knn"], [0.0, 10.0, 20.0, 30.0], ["dense", "sparse"], 2, 5,
                  rows=24, cols=14, measure_time=False)
        info = baselines._knn_plan.cache_info()
        assert info.misses == 4
        assert info.hits == 2 * 4 * 2 * 2 - 4


def _loop_linear(sp):
    """Separable linear interpolation with one np.interp call per column and per row;
    the exact oracle for linear_interpolate."""
    M, N = sp.shape
    pilot_cols = np.unique(np.nonzero(sp.mask)[1])
    col_fill = np.empty((M, pilot_cols.size), dtype=np.complex128)
    rows = np.arange(M)
    for ci, n in enumerate(pilot_cols):
        rsel = np.nonzero(sp.mask[:, n])[0]
        vals = sp.values[rsel, n]
        if rsel.size == 1:
            col_fill[:, ci] = vals[0]
        else:
            col_fill[:, ci] = (np.interp(rows, rsel, vals.real)
                               + 1j * np.interp(rows, rsel, vals.imag))
    out = np.empty((M, N), dtype=np.complex128)
    cols = np.arange(N)
    if pilot_cols.size == 1:
        out[:] = col_fill[:, [0]]
    else:
        for m in range(M):
            out[m] = (np.interp(cols, pilot_cols, col_fill[m].real)
                      + 1j * np.interp(cols, pilot_cols, col_fill[m].imag))
    out[sp.mask] = sp.values[sp.mask]
    return out


class TestLinear:
    def test_recovers_linear_field_inside_span(self):
        # H = alpha*m + beta*n + gamma is reproduced on the pilot lattice span
        M, N = 12, 14
        pat = preset_pattern("dense", M, N)
        alpha, beta, gamma = 0.3 - 0.2j, -0.1 + 0.5j, 1.0 + 1.0j
        mm, nn = np.meshgrid(np.arange(M), np.arange(N), indexing="ij")
        h = alpha * mm + beta * nn + gamma
        sp = SparseChannelEstimate(np.where(pat.mask, h, 0), pat.mask)
        out = linear_interpolate(sp)
        # span: rows 0..10 x cols 0..12 for the dense (2, 4) lattice
        span = (slice(0, 11), slice(0, 13))
        assert np.abs(out[span] - h[span]).max() < 1e-12

    def test_midpoint_between_column_pilots(self):
        mask = np.zeros((5, 3), bool)
        mask[0, 1] = mask[4, 1] = True
        vals = np.zeros((5, 3), complex)
        vals[4, 1] = 1.0
        sp = SparseChannelEstimate(vals, mask)
        out = linear_interpolate(sp)
        assert abs(out[2, 1] - 0.5) < 1e-12

    def test_constant_pilots_constant_output(self):
        pat = preset_pattern("sparse", 12, 14)
        sp = SparseChannelEstimate(np.where(pat.mask, 5 - 5j, 0), pat.mask)
        out = linear_interpolate(sp)
        assert np.abs(out - (5 - 5j)).max() < 1e-12

    def test_boundary_clamp(self):
        # outside the pilot span the estimate clamps to the border value
        mask = np.zeros((5, 5), bool)
        mask[1, 1] = mask[3, 1] = mask[1, 3] = mask[3, 3] = True
        vals = np.zeros((5, 5), complex)
        vals[1, 1], vals[3, 1], vals[1, 3], vals[3, 3] = 1, 2, 3, 4
        sp = SparseChannelEstimate(vals, mask)
        out = linear_interpolate(sp)
        assert out[0, 0] == out[1, 1]
        assert out[4, 4] == out[3, 3]

    def test_bit_identical_to_per_row_interp(self):
        # the vectorized time pass reproduces np.interp's arithmetic, hits and
        # clamps exactly, on random layouts at scales from 1e-30 to 1e30, with
        # exact and negative zeros, and on the presets
        rng = np.random.default_rng(21)
        inputs = list(_lattice_inputs(rng))
        for t in range(200):
            M, N = int(rng.integers(1, 30)), int(rng.integers(1, 16))
            sp = _random_sparse(rng, M, N, float(rng.uniform(0.05, 0.6)))
            vals = sp.values * 10.0 ** float(rng.integers(-30, 31))
            if t % 4 == 0:
                vals = np.where(rng.random(vals.shape) < 0.3, 0, vals)
            if t % 4 == 1:
                vals = np.where(rng.random(vals.shape) < 0.3, complex(-0.0, -0.0), vals)
            inputs.append(SparseChannelEstimate(vals, sp.mask))
        for sp in inputs:
            assert linear_interpolate(sp).tobytes() == _loop_linear(sp).tobytes()

    def test_single_pilot_matches_nearest(self):
        mask = np.zeros((4, 4), bool)
        mask[1, 2] = True
        sp = SparseChannelEstimate(np.where(mask, 7j, 0), mask)
        assert np.array_equal(linear_interpolate(sp), nearest_interpolate(sp))


def test_all_methods_reproduce_pilots_exactly():
    rng = np.random.default_rng(5)
    sp = _random_sparse(rng, 10, 9, 0.3)
    for est in (nearest_interpolate(sp), knn_interpolate(sp, 4),
                linear_interpolate(sp)):
        assert np.array_equal(est[sp.mask], sp.values[sp.mask])


def test_all_methods_constant_shift_equivariant():
    rng = np.random.default_rng(6)
    sp = _random_sparse(rng, 10, 9, 0.3)
    c = 2.5 - 1.5j
    shifted = SparseChannelEstimate(np.where(sp.mask, sp.values + c, 0), sp.mask)
    for fn in (nearest_interpolate,
               lambda s: knn_interpolate(s, 4),
               linear_interpolate):
        base = fn(sp)
        moved = fn(shifted)
        assert np.abs(moved - (base + c)).max() < 1e-12
