"""Tests for the NMSE metric and the sweep harness."""

import math
import sys

import numpy as np
import pytest

from channel_cntk import baselines, evaluate
from channel_cntk import (
    SparseChannelEstimate,
    make_method,
    nmse_db,
    preset_pattern,
    run_sweep,
)

from estimator_caches import clear_estimator_caches


class TestNmse:
    def test_exact_estimate_is_minus_inf(self):
        h = np.ones((3, 3), complex)
        assert nmse_db(h, h.copy()) == -math.inf

    def test_zero_estimate_is_zero_db(self):
        h = np.full((3, 3), 1 + 1j)
        assert abs(nmse_db(h, np.zeros((3, 3)))) < 1e-12

    def test_double_estimate_is_zero_db(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        assert abs(nmse_db(h, 2 * h)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        hh = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = 0.3 - 2.0j
        assert abs(nmse_db(h, hh) - nmse_db(c * h, c * hh)) < 1e-9

    def test_errors(self):
        with pytest.raises(ValueError, match="dimensions"):
            nmse_db(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="zero norm"):
            nmse_db(np.zeros((2, 2)), np.ones((2, 2)))


def test_make_method_unknown_tag():
    with pytest.raises(ValueError, match="nearest"):
        make_method("bogus")


def test_make_method_runs_each_tag():
    pat = preset_pattern("dense", 12, 14)
    rng = np.random.default_rng(2)
    vals = np.where(pat.mask, rng.standard_normal((12, 14))
                    + 1j * rng.standard_normal((12, 14)), 0)
    sp = SparseChannelEstimate(vals, pat.mask)
    for tag in ("cntk", "nearest", "knn", "linear"):
        out = make_method(tag)(sp)
        assert out.shape == (12, 14)
        assert np.all(np.isfinite(out.real))


class TestRunSweep:
    def test_single_cell_single_row(self):
        res = run_sweep(["nearest"], [20.0], ["dense"], 1, seed=1,
                        rows=24, cols=14)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.method == "nearest"
        assert row.pilots_per_rb == 24
        assert row.realizations == 1
        assert math.isfinite(row.nmse_db)

    def test_deterministic_csv(self):
        kw = dict(rows=24, cols=14, measure_time=False)
        a = run_sweep(["nearest", "linear"], [10.0, 20.0], ["sparse"], 2, 7, **kw)
        b = run_sweep(["nearest", "linear"], [10.0, 20.0], ["sparse"], 2, 7, **kw)
        assert a.to_csv() == b.to_csv()

    def test_thread_count_invariance(self):
        # the threads share the process-wide smoother, map and KNN plan caches:
        # start them on empty ones and switch threads often, so they race to
        # fill them
        kw = dict(rows=24, cols=14, measure_time=False)
        methods = ["nearest", "knn", "cntk"]
        a = run_sweep(methods, [0.0, 20.0], ["dense", "sparse"], 2, 3, n_threads=1, **kw)
        clear_estimator_caches()
        baselines._knn_plan.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            b = run_sweep(methods, [0.0, 20.0], ["dense", "sparse"], 2, 3, n_threads=3, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert a.to_csv() == b.to_csv()

    def test_methods_share_realizations(self):
        # data depends on (seed, snr, pattern, realization), not the method,
        # so a method's row is unchanged by which other methods run
        kw = dict(rows=24, cols=14, measure_time=False)
        solo = run_sweep(["linear"], [15.0], ["dense"], 3, 9, **kw)
        joint = run_sweep(["nearest", "linear"], [15.0], ["dense"], 3, 9, **kw)
        lin_joint = [r for r in joint.rows if r.method == "linear"][0]
        assert solo.rows[0].nmse_db == lin_joint.nmse_db

    def test_each_data_cell_simulated_once(self, monkeypatch):
        # every method runs on one simulated slot per data cell, so the
        # simulator's call counts do not grow with the number of methods
        calls = {"generate_channel": 0, "transmit": 0}
        for name in calls:
            original = getattr(evaluate, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(evaluate, name, counting)
        snrs, patterns, realizations = [0.0, 20.0], ["dense", "sparse"], 3
        res = run_sweep(["cntk", "nearest", "knn", "linear"], snrs, patterns, realizations,
                        seed=2, rows=24, cols=14, measure_time=False)
        assert len(res.rows) == 4 * len(snrs) * len(patterns)
        cells = len(snrs) * len(patterns) * realizations
        assert calls == {"generate_channel": cells, "transmit": cells}

    def test_validation(self):
        with pytest.raises(ValueError, match="realizations"):
            run_sweep(["nearest"], [10.0], ["dense"], 0, seed=1)
        with pytest.raises(ValueError, match="method"):
            run_sweep([], [10.0], ["dense"], 1, seed=1)

    @pytest.mark.parametrize("methods", [["linear"], ["linear", "cntk"]])
    @pytest.mark.parametrize("ridge", ["Auto", None, float("nan"), -1.0, math.inf])
    def test_bad_cntk_ridge_rejected_before_simulating(self, monkeypatch, methods, ridge):
        # the ridge is checked on entry, whether or not cntk runs, so a typo
        # fails at once and not after the sweep's simulations
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking cntk_ridge")

        monkeypatch.setattr(evaluate, "simulate_cell", no_simulation)
        with pytest.raises(ValueError, match="cntk_ridge"):
            run_sweep(methods, [10.0], ["dense"], 1, 1, rows=24, cntk_ridge=ridge)

    def test_cntk_ridge_accepts_auto_and_numbers(self):
        kw = dict(rows=24, cols=14, measure_time=False)
        for ridge in ("auto", 0, 0.0, 1e-3):
            res = run_sweep(["cntk"], [10.0], ["dense"], 1, 1, cntk_ridge=ridge, **kw)
            assert math.isfinite(res.rows[0].nmse_db)

    def test_empty_sweep_lists_rejected(self):
        with pytest.raises(ValueError, match="at least one SNR required"):
            run_sweep(["nearest"], [], ["dense"], 1, seed=1)
        with pytest.raises(ValueError, match="at least one pattern required"):
            run_sweep(["nearest"], [10.0], [], 1, seed=1)

    def test_csv_format(self):
        res = run_sweep(["nearest"], [12.5], ["dense"], 1, seed=4,
                        rows=24, cols=14, measure_time=False)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == ("method,snr_db,pilots_per_rb,nmse_db,"
                            "mean_solve_s,realizations,seed")
        fields = lines[1].split(",")
        assert fields[0] == "nearest"
        assert float(fields[1]) == 12.5
        assert fields[4] == "0.0"  # timing pinned

    def test_plot_series(self):
        res = run_sweep(["nearest"], [10.0, 20.0], ["dense"], 1, seed=5,
                        rows=24, cols=14, measure_time=False)
        text = res.plot_series()
        assert "# series method=nearest pilots_per_rb=24" in text
        assert len([ln for ln in text.splitlines()
                    if ln and not ln.startswith("#")]) == 2


def test_flat_channel_trivially_interpolable():
    # single tap at zero delay, no Doppler: the channel is constant, so at
    # 30 dB both classical interpolators are noise-limited, well under -20 dB
    res = run_sweep(["nearest", "linear"], [30.0], ["dense"], 2, seed=6,
                    rows=24, cols=14, taps=((0.0, 0.0),), doppler_hz=0.0,
                    measure_time=False)
    for row in res.rows:
        assert row.nmse_db <= -20.0, row

