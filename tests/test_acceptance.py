"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each test prints one PASS line when its criterion holds. The benchmark
criteria (method ordering, pilot-density and SNR monotonicity) share one
sweep over the default fading profile so all methods see identical
channels, transmit grids, and noise.
"""

import math
import time

import numpy as np
import pytest

from channel_cntk import (
    CntkConfig,
    CoordinateKernel,
    NoiseSpec,
    ResourceGrid,
    SparseChannelEstimate,
    compute_cntk,
    default_profile,
    estimate_channel_cntk,
    estimation_smoother,
    generate_channel,
    kernel_regress,
    knn_interpolate,
    linear_interpolate,
    ls_estimate,
    make_pilot_pattern,
    nearest_interpolate,
    nmse_db,
    preset_pattern,
    run_sweep,
    spectral_smoother,
    transmit,
)
from channel_cntk import cli
from channel_cntk.cntk import leaky_relu_duals

from dual_oracle import mc_dual_oracle
from ntk_finite_width import cosine_similarity, empirical_ntk
from value_prior import value_prior

SNRS = [0.0, 10.0, 20.0, 30.0]
REALIZATIONS = 20


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_dual_activation_oracle():
    """Closed-form duals agree with Monte Carlo within 3 standard errors."""
    t0 = time.perf_counter()
    rhos = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.1), 10)
    pairs = [(1.0, 1.0), (4.0, 1.0), (0.25, 9.0)]
    checked = 0
    for lam11, lam22 in pairs:
        for k, rho in enumerate(rhos):
            lam12 = float(rho * np.sqrt(lam11 * lam22))
            s, sd = leaky_relu_duals(lam11, lam22, lam12, 0.05)
            s_mc, sd_mc, se_s, se_sd = mc_dual_oracle(
                lam11, lam22, lam12, 0.05, 1.0, 1_000_000,
                seed=1000 + 100 * int(lam11 * 4) + k)
            assert abs(s - s_mc) <= max(3 * se_s, 1e-9), (lam11, lam22, rho)
            assert abs(sd - sd_mc) <= max(3 * se_sd, 1e-9), (lam11, lam22, rho)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(1, f"{checked} dual points within 3 SE of Monte Carlo "
               f"({elapsed:.1f} s)")


def test_criterion_2_kernel_validity():
    """50 random-prior kernels are symmetric and PSD at stated tolerances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    cfg = CntkConfig(depth=8, filter_size=3, neg_slope=0.05)
    M, N = 12, 14
    P = M * N
    for trial in range(50):
        mask = rng.random((M, N)) < rng.uniform(0.1, 0.9)
        mask[rng.integers(M), rng.integers(N)] = True
        vals = np.where(mask, rng.standard_normal((M, N))
                        + 1j * rng.standard_normal((M, N)), 0)
        K = compute_cntk(value_prior(SparseChannelEstimate(vals, mask)), cfg).gram
        assert np.abs(K - K.T).max() <= 1e-10 * np.abs(K).max(), trial
        min_eig = np.linalg.eigvalsh(K)[0]
        assert min_eig >= -1e-8 * np.trace(K) / P, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, f"50 kernels symmetric and PSD ({elapsed:.1f} s)")


def test_criterion_3_finite_width_agreement():
    """Analytic kernel matches the exact-gradient empirical NTK at width 512."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    M = N = 4
    mask = np.zeros((M, N), bool)
    mask[[0, 1, 2, 3, 0, 2], [0, 2, 1, 3, 3, 3]] = True
    vals = np.where(mask, rng.standard_normal((M, N))
                    + 1j * rng.standard_normal((M, N)), 0)
    prior = value_prior(SparseChannelEstimate(vals, mask))
    cfg = CntkConfig(depth=2, filter_size=3, neg_slope=0.05)
    analytic = compute_cntk(prior, cfg).gram
    empirical = empirical_ntk(prior.planes, q=3, width=512, n_init=20, seed=0,
                              neg_slope=0.05, pos_slope=1.0)
    cos = cosine_similarity(analytic, empirical)
    elapsed = time.perf_counter() - t0
    assert cos >= 0.9
    assert elapsed < 600.0
    _report(3, f"cosine similarity {cos:.4f} >= 0.9 at width 512, "
               f"20 inits ({elapsed:.0f} s)")


def test_criterion_4_interpolation_exactness():
    """Zero-ridge regression interpolates; solver matches the naive inverse."""
    # (a) pilot-cell match at ridge 0 on a well-conditioned fixture
    rng = np.random.default_rng(4)
    pat = preset_pattern("dense", 12, 14)
    vals = np.where(pat.mask, rng.standard_normal((12, 14))
                    + 1j * rng.standard_normal((12, 14)), 0)
    sp = SparseChannelEstimate(vals, pat.mask)
    imp = estimate_channel_cntk(sp, ridge=0.0)
    resid = np.abs(imp.h_hat[pat.mask] - vals[pat.mask]).max()
    assert resid <= 1e-6 * np.abs(vals[pat.mask]).max()
    # the regression itself (before the observed-cell passthrough) also
    # reproduces the observations on the estimator's own kernel
    kernel = estimation_smoother(sp, 0).kernel
    obs = np.flatnonzero(pat.mask.reshape(-1))
    y = vals.reshape(-1)[obs]
    reg_out = kernel_regress(spectral_smoother(kernel, obs).matrix(0.0)[0], y)
    assert np.abs(reg_out[obs] - y).max() <= 1e-6 * np.abs(y).max()
    # (b) naive-inverse oracle on random 5x5-pixel instances
    for trial in range(5):
        B = rng.standard_normal((25, 27))
        K = CoordinateKernel(B @ B.T + 1e-6 * np.eye(25), (5, 5))
        obs = np.sort(rng.choice(25, size=3, replace=False)).astype(np.int64)
        yy = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = 1e-4
        fast = kernel_regress(spectral_smoother(K, obs).matrix(lam)[0], yy)
        k_oo = K.gram[np.ix_(obs, obs)]
        naive = K.gram[:, obs] @ np.linalg.inv(k_oo + lam * np.eye(3)) @ yy
        assert np.abs(fast - naive).max() <= 1e-8 * np.abs(naive).max()
    _report(4, "ridge-0 interpolation exact at pilots; solver matches "
               "naive inverse to 1e-8")


@pytest.fixture(scope="module")
def benchmark_sweep():
    """Shared sweep: all methods x SNRs x {24, 12}/RB, 20 realizations."""
    t0 = time.perf_counter()
    result = run_sweep(["cntk", "linear", "knn", "nearest"], SNRS,
                       ["dense", "sparse"], REALIZATIONS, seed=20240709,
                       rows=360, cols=14, measure_time=False, n_threads=1)
    elapsed = time.perf_counter() - t0
    table = {(r.method, r.snr_db, r.pilots_per_rb): r.nmse_db
             for r in result.rows}
    return table, elapsed


def test_criterion_5_method_ordering(benchmark_sweep):
    """CNTK beats linear and KNN by >= 1 dB at every SNR, 24 pilots/RB."""
    table, elapsed = benchmark_sweep
    margins = []
    for snr in SNRS:
        cntk = table[("cntk", snr, 24)]
        lin = table[("linear", snr, 24)]
        knn = table[("knn", snr, 24)]
        margin = min(lin - cntk, knn - cntk)
        margins.append(margin)
        assert cntk <= lin - 1.0, f"snr {snr}: cntk {cntk:.2f} vs linear {lin:.2f}"
        assert cntk <= knn - 1.0, f"snr {snr}: cntk {cntk:.2f} vs knn {knn:.2f}"
    assert elapsed < 900.0
    _report(5, "CNTK margins over best baseline per SNR: "
               + ", ".join(f"{snr:.0f} dB: +{m:.2f}" for snr, m in zip(SNRS, margins))
               + f" (sweep {elapsed:.0f} s)")


def test_criterion_6_pilot_density_monotonicity(benchmark_sweep):
    """CNTK at 24 pilots/RB is at least as good as 12/RB (0.5 dB slack)."""
    table, _ = benchmark_sweep
    for snr in SNRS:
        dense = table[("cntk", snr, 24)]
        sparse = table[("cntk", snr, 12)]
        assert dense <= sparse + 0.5, f"snr {snr}: 24/RB {dense:.2f} vs 12/RB {sparse:.2f}"
    _report(6, "CNTK NMSE(24/RB) <= NMSE(12/RB) + 0.5 dB at every SNR")


def test_criterion_7_snr_monotonicity(benchmark_sweep):
    """Every method's NMSE is non-increasing in SNR (0.5 dB slack)."""
    table, _ = benchmark_sweep
    for method in ("cntk", "linear", "knn", "nearest"):
        for density in (24, 12):
            curve = [table[(method, snr, density)] for snr in SNRS]
            for lo, hi in zip(curve, curve[1:]):
                assert hi <= lo + 0.5, (method, density, curve)
    _report(7, "NMSE non-increasing in SNR for all 4 methods at both densities")


def test_criterion_8_determinism(tmp_path):
    """simulate and sweep are byte-identical across runs and thread counts."""
    import json
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "seed": 77, "rows": 48, "cols": 14, "realizations": 2,
        "snr_db": 15.0, "pattern": "medium"}), encoding="utf-8")
    d1, d2 = tmp_path / "d1.bin", tmp_path / "d2.bin"
    assert cli.main(["simulate", "--config", str(sim_cfg), "--out", str(d1)]) == 0
    assert cli.main(["simulate", "--config", str(sim_cfg), "--out", str(d2)]) == 0
    assert d1.read_bytes() == d2.read_bytes()

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "seed": 78, "rows": 48, "cols": 14, "realizations": 2,
        "methods": ["cntk", "nearest"], "snr_dbs": [10.0, 30.0],
        "patterns": ["dense"], "measure_time": False}), encoding="utf-8")
    outs = []
    for name, threads in (("s1.csv", "1"), ("s2.csv", "1"), ("s3.csv", "4")):
        path = tmp_path / name
        assert cli.main(["sweep", "--config", str(sweep_cfg), "--out", str(path),
                         "--threads", threads]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    _report(8, "byte-identical dataset and sweep CSV across reruns and "
               "thread counts 1/4")


def test_criterion_9_performance_budget():
    """Full 360x14 image < 5 s end to end; per-block solve < 10 ms."""
    prof = default_profile(seed=31)
    ch = generate_channel(prof, 360, 14)
    from channel_cntk import make_qpsk_grid
    x = make_qpsk_grid(360, 14, seed=32)
    y = transmit(ch, x, NoiseSpec(20.0, seed=33))
    pat = preset_pattern("dense", 360, 14)
    sp = ls_estimate(y, x, pat)
    estimate_channel_cntk(sp, ridge=1e-2)  # warm-up
    t0 = time.perf_counter()
    imp = estimate_channel_cntk(sp, ridge=1e-2)
    elapsed = time.perf_counter() - t0
    max_solve = max(d.solve_s for d in imp.diagnostics)
    # the warm call finds its smoother cached, so solve_s no longer holds
    # the eigendecomposition; bound that cold step on its own
    band = SparseChannelEstimate(sp.values[:12], sp.mask[:12])
    kernel = estimation_smoother(band, 0).kernel
    obs = np.flatnonzero(band.mask)
    t0 = time.perf_counter()
    spectral_smoother(kernel, obs)
    factor_s = time.perf_counter() - t0
    assert elapsed < 5.0
    assert max_solve < 0.010
    assert factor_s < 0.010
    _report(9, f"full image {elapsed:.2f} s < 5 s; max block solve "
               f"{max_solve * 1e3:.2f} ms < 10 ms; cold smoother build "
               f"{factor_s * 1e3:.2f} ms < 10 ms")


def test_criterion_10_noiseless_sanity():
    """Full-pilot mask at infinite SNR gives the -inf sentinel everywhere.

    The transmit grid is all-ones so the least-squares division inverts the
    noiseless observation bit-exactly (unit-modulus QPSK symbols with
    irrational components do not round-trip complex multiply/divide in
    floating point).
    """
    prof = default_profile(seed=41)
    ch = generate_channel(prof, 24, 14)
    x = ResourceGrid(np.ones((24, 14)))
    y = transmit(ch, x, NoiseSpec(math.inf, seed=42))
    pat = make_pilot_pattern(24, 14, 1, 1)
    sp = ls_estimate(y, x, pat)
    assert np.array_equal(sp.values, ch.h)
    estimates = {
        "cntk": estimate_channel_cntk(sp, ridge=0.0).h_hat,
        "nearest": nearest_interpolate(sp),
        "knn": knn_interpolate(sp, 4),
        "linear": linear_interpolate(sp),
    }
    for method, h_hat in estimates.items():
        val = nmse_db(ch.h, h_hat)
        assert val == -math.inf, method
    # the sentinel serializes as the string "-inf"
    from channel_cntk import SweepResult, SweepRow
    row = SweepRow("cntk", math.inf, 168, -math.inf, 0.0, 1, 41)
    assert ",-inf," in SweepResult((row,)).to_csv()
    _report(10, "all methods hit NMSE = -inf on the noiseless full-pilot fixture")
