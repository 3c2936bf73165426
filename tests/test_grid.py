"""Tests for the resource-grid model, pilot patterns, and LS extraction."""

import numpy as np
import pytest

from channel_cntk import (
    PATTERN_PRESETS,
    ResourceGrid,
    SparseChannelEstimate,
    ls_estimate,
    make_pilot_pattern,
    preset_pattern,
)


def test_pattern_every_4th_subcarrier_every_2nd_symbol():
    # ceil(12/4) * ceil(14/2) = 3 * 7 pilot positions
    pat = make_pilot_pattern(12, 14, 4, 2)
    assert pat.n_pilots == int(np.ceil(12 / 4) * np.ceil(14 / 2)) == 21
    assert pat.pilots_per_rb == 21


def test_pattern_full_mask():
    pat = make_pilot_pattern(12, 14, 1, 1)
    assert pat.n_pilots == 168
    assert pat.mask.all()


def test_pattern_mask_definition_with_offsets():
    pat = make_pilot_pattern(10, 9, 3, 2, sc_offset=1, sym_offset=1)
    for m in range(10):
        for n in range(9):
            expect = ((m - 1) % 3 == 0) and ((n - 1) % 2 == 0)
            assert pat.mask[m, n] == expect


def test_pattern_density_matches_ceil_formula():
    rng = np.random.default_rng(0)
    for _ in range(25):
        M = int(rng.integers(2, 40))
        N = int(rng.integers(2, 20))
        sc = int(rng.integers(1, 6))
        sym = int(rng.integers(1, 6))
        expected = np.ceil(M / sc) * np.ceil(N / sym)
        if expected < 2:
            continue
        pat = make_pilot_pattern(M, N, sc, sym)
        assert pat.n_pilots == expected


def test_pattern_validation_errors():
    with pytest.raises(ValueError):
        make_pilot_pattern(12, 14, 0, 2)
    with pytest.raises(ValueError):
        make_pilot_pattern(12, 14, 4, 2, sc_offset=4)
    with pytest.raises(ValueError):
        make_pilot_pattern(0, 14, 4, 2)
    with pytest.raises(ValueError):
        make_pilot_pattern(1, 1, 1, 1)  # only one pilot


def test_presets_hit_their_target_counts():
    targets = {"dense": 24, "medium": 16, "sparse": 12}
    for name, want in targets.items():
        pat = preset_pattern(name, 360, 14)
        assert pat.pilots_per_rb == want
        assert pat.n_pilots == want * 30
    assert set(PATTERN_PRESETS) == set(targets)


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="preset"):
        preset_pattern("bogus", 360, 14)


def test_preset_count_mismatch_is_error():
    # dense targets 24 per RB on 14 symbols; 7 symbols halve the count
    with pytest.raises(ValueError, match="pilots per resource block"):
        preset_pattern("dense", 12, 7)


def test_resource_grid_validation():
    with pytest.raises(ValueError):
        ResourceGrid(np.ones((0, 4)))
    with pytest.raises(ValueError):
        ResourceGrid(np.array([[np.nan + 0j]]))
    with pytest.raises(ValueError):
        ResourceGrid(np.ones((2, 2)), subcarrier_spacing_hz=0.0)
    grid = ResourceGrid(np.ones((2, 3)))
    assert grid.shape == (2, 3)
    with pytest.raises(ValueError):
        grid.data[0, 0] = 5.0  # locked


def test_sparse_estimate_zero_outside_mask():
    mask = np.zeros((2, 2), bool)
    mask[0, 0] = True
    with pytest.raises(ValueError):
        SparseChannelEstimate(np.ones((2, 2)), mask)
    ok = SparseChannelEstimate(np.where(mask, 1 + 1j, 0), mask)
    assert ok.n_pilots == 1


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)])
def test_sparse_estimate_rejects_non_finite_pilots(bad):
    mask = np.zeros((2, 3), bool)
    mask[0, 0] = mask[1, 2] = True
    vals = np.where(mask, 1 + 1j, 0)
    vals[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        SparseChannelEstimate(vals, mask)


class TestLsEstimate:
    def test_division_by_one(self):
        pat = make_pilot_pattern(2, 2, 1, 1)
        y = ResourceGrid(np.full((2, 2), 0.5 + 0.5j))
        x = ResourceGrid(np.ones((2, 2)))
        est = ls_estimate(y, x, pat)
        assert np.all(est.values == 0.5 + 0.5j)

    def test_noiseless_all_pilot_inverts_channel(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        x = ResourceGrid(np.ones((6, 5)))
        y = ResourceGrid(x.data * h)
        pat = make_pilot_pattern(6, 5, 1, 1)
        est = ls_estimate(y, x, pat)
        assert np.abs(est.values - h).max() < 1e-12

    def test_unit_modulus_pilot(self):
        # X = i, Y = i*h -> value h, checked by complex arithmetic
        rng = np.random.default_rng(4)
        h = complex(rng.standard_normal(), rng.standard_normal())
        y = ResourceGrid(np.full((2, 2), 1j * h))
        x = ResourceGrid(np.full((2, 2), 1j))
        est = ls_estimate(y, x, make_pilot_pattern(2, 2, 1, 1))
        assert abs(est.values[0, 0] - h) < 1e-14

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        M, N = 8, 6
        pat = make_pilot_pattern(M, N, 2, 2)
        y = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        x = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        x += 4.0  # keep away from zero
        c = 0.7 - 2.3j
        est1 = ls_estimate(ResourceGrid(y), ResourceGrid(x), pat)
        est2 = ls_estimate(ResourceGrid(c * y), ResourceGrid(c * x), pat)
        assert np.abs(est1.values - est2.values).max() < 1e-12

    def test_zero_pilot_symbol_error(self):
        pat = make_pilot_pattern(2, 2, 1, 1)
        x = np.ones((2, 2), complex)
        x[0, 0] = 1e-15
        with pytest.raises(ValueError, match="magnitude"):
            ls_estimate(ResourceGrid(np.ones((2, 2))), ResourceGrid(x), pat)

    def test_dimension_mismatch(self):
        pat = make_pilot_pattern(2, 2, 1, 1)
        with pytest.raises(ValueError, match="dimensions"):
            ls_estimate(ResourceGrid(np.ones((2, 3))), ResourceGrid(np.ones((2, 2))), pat)
