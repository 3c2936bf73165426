"""Tests for the TDL channel simulator and observation synthesis."""

import math

import numpy as np
import pytest

from channel_cntk import (
    NoiseSpec,
    TdlProfile,
    default_profile,
    derive_seed,
    generate_channel,
    make_qpsk_grid,
    transmit,
)
from channel_cntk.chansim import tdl_response


def test_profile_power_normalization():
    prof = TdlProfile(((0.0, 3.0), (1e-7, -1.0)), 0.0, seed=1)
    linear = prof.powers_linear
    assert abs(linear.sum() - 1.0) < 1e-12


def test_profile_validation():
    with pytest.raises(ValueError):
        TdlProfile((), 0.0, seed=1)
    with pytest.raises(ValueError):
        TdlProfile(((-1e-9, 0.0),), 0.0, seed=1)
    with pytest.raises(ValueError):
        TdlProfile(((0.0, 0.0),), -1.0, seed=1)


def test_profile_sorts_taps():
    prof = TdlProfile(((1e-7, 0.0), (0.0, -3.0)), 0.0, seed=1)
    assert [d for d, _ in prof.taps] == [0.0, 1e-7]


def test_single_tap_zero_delay_unit_gain_is_flat():
    h = tdl_response(np.array([1.0 + 0j]), np.array([0.0]), np.array([0.0]),
                     6, 7, 15e3, 1 / 14000)
    assert np.abs(h - 1.0).max() < 1e-14


def test_single_tap_phase_ramp():
    # tau = 1/(M*df): |h| constant, phase advances 2*pi/M per subcarrier row
    M, N, df, tsym = 8, 5, 15e3, 1 / 14000
    tau = 1.0 / (M * df)
    h = tdl_response(np.array([1.0 + 0j]), np.array([tau]), np.array([0.0]),
                     M, N, df, tsym)
    expect = np.exp(-2j * np.pi * np.arange(M) / M)[:, None] * np.ones((1, N))
    assert np.abs(np.abs(h) - 1.0).max() < 1e-12
    assert np.abs(h - expect).max() < 1e-12


def test_two_taps_no_doppler_time_flat_frequency_selective():
    gains = np.array([np.sqrt(0.5) + 0j, np.sqrt(0.5) + 0j])
    delays = np.array([0.0, 200e-9])
    h = tdl_response(gains, delays, np.array([0.0, 0.0]), 24, 10, 15e3, 1 / 14000)
    col_var = np.var(h, axis=1)  # variation across time per subcarrier
    row_var = np.var(h, axis=0)  # variation across frequency per symbol
    assert col_var.max() < 1e-20
    assert row_var.min() > 0


def test_generate_channel_deterministic_and_seed_sensitive():
    prof = default_profile(seed=42)
    a = generate_channel(prof, 12, 14)
    b = generate_channel(prof, 12, 14)
    c = generate_channel(default_profile(seed=43), 12, 14)
    assert np.array_equal(a.h, b.h)
    assert not np.array_equal(a.h, c.h)


def test_generate_channel_mean_power_reasonable():
    # normalized profile: E|h|^2 = 1. A single realization's grid-average
    # power is itself random (weighted sum of exponentials), so the [0.5, 2]
    # band is checked on fixed in-band seeds plus the ensemble average.
    for seed in (2, 4, 5, 7, 11):
        ch = generate_channel(default_profile(seed=seed), 360, 14)
        power = float(np.mean(np.abs(ch.h) ** 2))
        assert 0.5 <= power <= 2.0
    ensemble = np.mean([np.mean(np.abs(generate_channel(
        default_profile(seed=s), 60, 14).h) ** 2) for s in range(40)])
    assert 0.7 <= ensemble <= 1.4


def test_transmit_noiseless_exact():
    prof = default_profile(seed=5)
    ch = generate_channel(prof, 6, 7)
    x = make_qpsk_grid(6, 7, seed=6)
    y = transmit(ch, x, NoiseSpec(math.inf, seed=7))
    assert np.array_equal(y.data, x.data * ch.h)


def test_transmit_noise_power_at_0db():
    # X = H = 1: noise variance should be 1; sample variance over 1e4 cells
    from channel_cntk import ResourceGrid
    from channel_cntk.chansim import ChannelRealization
    prof = TdlProfile(((0.0, 0.0),), 0.0, seed=1)
    flat = ChannelRealization(np.ones((100, 100), complex), prof, 15e3, 1 / 14000)
    x = ResourceGrid(np.ones((100, 100)))
    y = transmit(flat, x, NoiseSpec(0.0, seed=8))
    z = y.data - 1.0
    emp = float(np.mean(np.abs(z) ** 2))
    assert 0.9 <= emp <= 1.1


def test_transmit_deterministic():
    prof = default_profile(seed=5)
    ch = generate_channel(prof, 12, 14)
    x = make_qpsk_grid(12, 14, seed=6)
    y1 = transmit(ch, x, NoiseSpec(10.0, seed=7))
    y2 = transmit(ch, x, NoiseSpec(10.0, seed=7))
    assert np.array_equal(y1.data, y2.data)


def test_snr_calibration_within_02db():
    # requested vs realized SNR over a full 360x14 slot (5040 cells)
    for snr in (0.0, 10.0, 20.0):
        for seed in (3, 4):
            ch = generate_channel(default_profile(seed=seed), 360, 14)
            x = make_qpsk_grid(360, 14, seed=seed + 50)
            y = transmit(ch, x, NoiseSpec(snr, seed=seed + 100))
            signal = x.data * ch.h
            z = y.data - signal
            realized = 10 * np.log10(np.mean(np.abs(signal) ** 2)
                                     / np.mean(np.abs(z) ** 2))
            assert abs(realized - snr) <= 0.2


def test_qpsk_constellation():
    x = make_qpsk_grid(100, 100, seed=1)
    assert np.abs(np.abs(x.data) - 1.0).max() < 1e-12
    assert np.abs(x.data.mean()) < 0.05  # law of large numbers over 1e4 cells
    again = make_qpsk_grid(100, 100, seed=1)
    assert np.array_equal(x.data, again.data)
    c = 1 / np.sqrt(2)
    points = {(round(v.real, 12), round(v.imag, 12)) for v in x.data.ravel()}
    assert points == {(round(sr * c, 12), round(si * c, 12))
                      for sr in (1, -1) for si in (1, -1)}


def test_frequency_stationarity_single_tap():
    # autocorrelation along subcarriers depends only on the lag
    prof = TdlProfile(((150e-9, 0.0),), 0.0, seed=9)
    ch = generate_channel(prof, 64, 4)
    h = ch.h
    for lag in range(4):
        r_front = np.mean(h[:24] * np.conj(h[lag:24 + lag]))
        r_back = np.mean(h[30:54] * np.conj(h[30 + lag:54 + lag]))
        assert abs(r_front - r_back) <= 0.05 * abs(r_front)


def test_tap_order_permutation_invariance():
    # sorted storage makes permuted tap lists produce identical realizations
    taps = ((0.0, 0.0), (200e-9, -3.0), (500e-9, -6.0))
    permuted = (taps[2], taps[0], taps[1])
    for seed in (0, 1, 2):
        a = generate_channel(TdlProfile(taps, 100.0, seed=seed), 4, 4)
        b = generate_channel(TdlProfile(permuted, 100.0, seed=seed), 4, 4)
        assert np.array_equal(a.h, b.h)
    # and the ensemble moments stay sane across 100 seeds
    m1 = 0j
    m2 = 0.0
    for seed in range(100):
        ch = generate_channel(TdlProfile(taps, 100.0, seed=seed), 4, 4)
        m1 += ch.h[0, 0]
        m2 += abs(ch.h[0, 0]) ** 2
    assert abs(m1 / 100) < 0.3
    assert abs(m2 / 100 - 1.0) < 0.45


def test_derive_seed_properties():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 2)
    assert 0 <= derive_seed(2**63, 2**62) < 2**64
    # a fold: deriving in two steps equals deriving in one, which the
    # simulate command relies on to match the sweep's seed layout
    for seed in (0, 7, -1, -(2**70) + 3, 2**64, 2**64 + 5, 2**80 + 11):
        for r in (0, 1, 2**64 + 1, -3):
            for k in (0, 1, 2):
                assert derive_seed(derive_seed(seed, r), k) == derive_seed(seed, r, k)
