"""End-to-end tests for the command-line interface."""

import hashlib
import json
import re

import numpy as np
import pytest

from channel_cntk import CntkConfig, cli, imputer
from channel_cntk.container import load_dataset, load_estimates

from estimator_caches import clear_estimator_caches


def _write_config(path, **kv):
    path.write_text(json.dumps(kv), encoding="utf-8")
    return str(path)


def _sim_config(tmp_path, **extra):
    cfg = {"seed": 11, "rows": 24, "cols": 14, "realizations": 2,
           "snr_db": 20.0, "pattern": "dense"}
    cfg.update(extra)
    return _write_config(tmp_path / "sim.json", **cfg)


class TestSimulate:
    def test_minimal_config_defaults(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "min.json", seed=3, rows=24)
        out = tmp_path / "data.bin"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest, records = load_dataset(out)
        assert manifest["realizations"] == 1
        assert manifest["snr_db"] == 20.0
        assert manifest["pattern"]["preset"] == "dense"
        assert len(records) == 1
        assert "seed 3" in capsys.readouterr().out

    def test_missing_seed_names_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "bad.json", rows=24)
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "x.bin")]) == 1
        assert "seed" in capsys.readouterr().err

    def test_config_parse_error_has_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": 1,\n  broken\n}', encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "x.bin")]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_byte_identical_rerun(self, tmp_path):
        cfg = _sim_config(tmp_path)
        out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dataset_bytes_pinned(self, tmp_path):
        # the dataset layout and seed streams are a file format: a change that
        # moves any byte of this small dataset has to say so
        cfg = _write_config(tmp_path / "pin.json", seed=7, realizations=2, rows=24,
                            cols=14, snr_db=10.0, pattern="dense")
        out = tmp_path / "pin.bin"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9e2bf84771be642ebdf76de09b43e34f58f5cbe38e230aa7557f03437ad2d20a")

    def test_custom_pattern_object(self, tmp_path):
        cfg = _write_config(tmp_path / "pat.json", seed=5, rows=24,
                            pattern={"sc_spacing": 4, "sym_spacing": 2})
        out = tmp_path / "d.bin"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest, _ = load_dataset(out)
        assert manifest["pattern"]["sc_spacing"] == 4

    def test_pattern_object_missing_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "pat.json", seed=5, rows=24,
                            pattern={"sc_spacing": 4})
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "d.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sym_spacing" in err

    @pytest.mark.parametrize("extra, field", [
        ({"pattern": {"sc_spacing": [4], "sym_spacing": 2}}, "sc_spacing"),
        ({"rows": [24]}, "rows"),
        # int() would truncate 24.5 and read true as 1
        ({"rows": 24.5}, "rows"),
        ({"realizations": True}, "realizations"),
        ({"snr_db": True}, "snr_db"),
        # an unknown key is an error, not a silent default ("snr" ran at 20 dB)
        ({"snr": 0}, "'snr'"),
        ({"pattern": {"sc_spacing": 4, "sym_spacing": 2, "sc_ofset": 1}}, "sc_ofset"),
        ({"out": 5}, "out"),
    ], ids=["sc_spacing", "rows", "rows_fraction", "realizations_bool", "snr_db_bool",
            "unknown_key", "pattern_unknown_key", "out_number"])
    def test_wrong_json_type_names_field(self, tmp_path, capsys, extra, field):
        cfg = _sim_config(tmp_path, **extra)
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "d.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_integral_float_accepted(self, tmp_path):
        cfg = _sim_config(tmp_path, rows=24.0)
        out = tmp_path / "d.bin"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert load_dataset(out)[0]["rows"] == 24

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHANNEL_CNTK_OUTDIR", str(tmp_path / "outs"))
        cfg = _sim_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg, "--out", "rel.bin"]) == 0
        assert (tmp_path / "outs" / "rel.bin").exists()


@pytest.fixture()
def dataset(tmp_path):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "data.bin"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestEstimate:
    def test_cntk_smoke(self, dataset, tmp_path, capsys):
        est = tmp_path / "est.bin"
        code = cli.main(["estimate", "--dataset", str(dataset),
                         "--method", "cntk", "--out", str(est)])
        assert code == 0
        text = capsys.readouterr().out
        assert "aggregate nmse" in text
        manifest, estimates = load_estimates(est)
        assert manifest["method"] == "cntk"
        assert len(estimates) == 2
        assert estimates[0].shape == (24, 14)

    def test_cntk_solver_summary(self, dataset, tmp_path, capsys):
        # both records share one band mask and ridge: the first forms the
        # band's smoother matrix W, the second finds it in the map cache
        clear_estimator_caches()
        assert cli.main(["estimate", "--dataset", str(dataset), "--method", "cntk",
                         "--out", str(tmp_path / "est.bin")]) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("cntk solver:")]
        assert len(line) == 1
        m = re.fullmatch(r"cntk solver: (\d+) bands, (\d+) ridge\(s\) lifted by the "
                         r"eigenvalue floor, worst condition (\S+), map cache "
                         r"(\d+) hit\(s\), (\d+) miss\(es\)", line[0])
        assert m is not None, line[0]
        assert (int(m[1]), int(m[2]), int(m[4]), int(m[5])) == (4, 0, 1, 1)
        assert 1.0 <= float(m[3]) < 1e12

    def test_unknown_method_lists_tags(self, dataset, tmp_path, capsys):
        code = cli.main(["estimate", "--dataset", str(dataset),
                         "--method", "bogus", "--out", str(tmp_path / "e.bin")])
        assert code == 1
        err = capsys.readouterr().err
        for tag in ("cntk", "nearest", "knn", "linear"):
            assert tag in err

    def test_full_mask_zero_lambda_residual(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "full.json", seed=6, rows=24,
                            snr_db="inf",
                            pattern={"sc_spacing": 1, "sym_spacing": 1})
        data = tmp_path / "full.bin"
        assert cli.main(["simulate", "--config", cfg, "--out", str(data)]) == 0
        code = cli.main(["estimate", "--dataset", str(data), "--method", "cntk",
                         "--lambda", "0", "--out", str(tmp_path / "e.bin")])
        assert code == 0
        out = capsys.readouterr().out
        resid_line = [ln for ln in out.splitlines() if "pilot residual" in ln][0]
        assert float(resid_line.split(":")[1]) < 1e-6

    def test_nan_lambda_rejected(self, dataset, tmp_path, capsys):
        est = tmp_path / "est.bin"
        assert cli.main(["estimate", "--dataset", str(dataset), "--method", "cntk",
                         "--lambda", "nan", "--out", str(est)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ridge must be a non-negative number" in err
        assert not est.exists()

    def test_infinite_lambda_rejected(self, dataset, tmp_path, capsys):
        # an infinite ridge once exited 0 and printed `worst condition nan`
        est = tmp_path / "est.bin"
        assert cli.main(["estimate", "--dataset", str(dataset), "--method", "cntk",
                         "--lambda", "inf", "--out", str(est)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ridge must be a non-negative number" in err
        assert not est.exists()

    def test_baseline_methods(self, dataset, tmp_path, capsys):
        for method in ("nearest", "knn", "linear"):
            code = cli.main(["estimate", "--dataset", str(dataset),
                             "--method", method,
                             "--out", str(tmp_path / f"{method}.bin")])
            assert code == 0
            assert "cntk solver" not in capsys.readouterr().out


class TestSweep:
    def _cfg(self, tmp_path, **extra):
        cfg = {"seed": 9, "rows": 24, "cols": 14, "realizations": 2,
               "methods": ["nearest", "linear"], "snr_dbs": [10.0, 20.0],
               "patterns": ["dense"], "measure_time": False}
        cfg.update(extra)
        return _write_config(tmp_path / "sweep.json", **cfg)

    def test_rows_and_determinism(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2  # header + methods x snrs

    def test_thread_invariance(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1),
                         "--threads", "1"]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(out2),
                         "--threads", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_env_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHANNEL_CNTK_THREADS", "1")
        cfg = self._cfg(tmp_path)
        out = tmp_path / "cap.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         "--threads", "8"]) == 0

    def test_zero_realizations_rejected(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path)
        code = cli.main(["sweep", "--config", cfg, "--out",
                         str(tmp_path / "x.csv"), "--realizations", "0"])
        assert code == 1
        assert "realizations" in capsys.readouterr().err

    def test_config_field_errors(self, tmp_path, capsys):
        for extra, field in (({"patterns": [{"sym_spacing": 2}]}, "sc_spacing"),
                             ({"cntk": 3}, "cntk"),
                             ({"cntk": {"depth": [4]}}, "depth"),
                             ({"cntk": {"ridge": [1]}}, "ridge"),
                             ({"cntk": {"dept": 2, "filter_sise": 5}}, "dept"),
                             ({"cntk": {"depth": 2.5}}, "depth"),
                             ({"cntk": {"filter_size": True}}, "filter_size"),
                             ({"realizations": True}, "realizations"),
                             ({"measure_time": "false"}, "measure_time"),
                             ({"out": 5}, "out"),
                             # unknown keys ("snr_db" ran the 4 default SNRs)
                             ({"snr_db": [5.0]}, "'snr_db'"),
                             ({"patterns": [{"sc_spacing": 4, "sym_spacing": 2,
                                             "sc_ofset": 1}]}, "sc_ofset"),
                             ({"cntk": {"ridge": None}}, "ridge"),
                             # a string or number where a list belongs
                             ({"snr_dbs": "10"}, "snr_dbs"),
                             ({"patterns": "dense"}, "patterns"),
                             ({"methods": 3}, "methods"),
                             # an empty sweep axis
                             ({"snr_dbs": []}, "SNR"),
                             ({"patterns": []}, "pattern"),
                             # knobs of the kernel that no longer exist
                             ({"cntk": {"padding": "extrapolate"}}, "padding"),
                             ({"cntk": {"pos_slope": 1.0}}, "pos_slope")):
            cfg = self._cfg(tmp_path, **extra)
            assert cli.main(["sweep", "--config", cfg,
                             "--out", str(tmp_path / "x.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and field in err

    def test_output_path_checked_before_running(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_sweep ran before the output path was checked")
        monkeypatch.setattr(cli, "run_sweep", never)
        for extra, argv in (({}, []), ({"out": 5}, ["--out", str(tmp_path / "x.csv")])):
            cfg = self._cfg(tmp_path, **extra)
            assert cli.main(["sweep", "--config", cfg] + argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "out" in err

    def test_flag_overrides(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         "--methods", "nearest", "--snrs", "5",
                         "--patterns", "sparse"]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("nearest,5.0,12,")

    def test_plot_series_output(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out = tmp_path / "s.csv"
        series = tmp_path / "s.txt"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         "--plot-series", str(series)]) == 0
        assert "# series method=nearest" in series.read_text()

    def test_golden_regression(self, tmp_path):
        # frozen output of the bundled regression config
        from pathlib import Path
        here = Path(__file__).parent
        cfg = here / "data" / "golden_sweep_config.json"
        golden = here / "data" / "golden_sweep.csv"
        out = tmp_path / "golden_run.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == golden.read_bytes()


class TestKernelDump:
    def test_dump_dimensions_and_determinism(self, dataset, tmp_path, capsys):
        out1, out2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
        assert cli.main(["kernel-dump", "--dataset", str(dataset),
                         "--block", "0", "--out", str(out1),
                         "--check-symmetric"]) == 0
        assert "OK" in capsys.readouterr().out
        assert cli.main(["kernel-dump", "--dataset", str(dataset),
                         "--block", "0", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().split("\n")
        assert len(rows) == 168
        assert len(rows[0].split(",")) == 168

    def test_block_out_of_range(self, dataset, tmp_path, capsys):
        code = cli.main(["kernel-dump", "--dataset", str(dataset),
                         "--block", "5", "--out", str(tmp_path / "k.csv")])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_row_count_not_multiple_of_12(self, tmp_path, capsys):
        data = tmp_path / "d30.bin"
        assert cli.main(["simulate", "--config", _sim_config(tmp_path, rows=30),
                         "--out", str(data)]) == 0
        code = cli.main(["kernel-dump", "--dataset", str(data),
                         "--block", "0", "--out", str(tmp_path / "k.csv")])
        assert code == 1
        assert "divisible" in capsys.readouterr().err

    def test_dump_matches_library_kernel(self, dataset, tmp_path):
        out = tmp_path / "k.csv"
        assert cli.main(["kernel-dump", "--dataset", str(dataset),
                         "--block", "1", "--out", str(out)]) == 0
        from channel_cntk import estimation_smoother
        from channel_cntk.cli import _sparse_from_record
        manifest, records = load_dataset(dataset)
        sparse = _sparse_from_record(records[0], manifest)
        expect = estimation_smoother(sparse, 1).kernel.gram
        got = np.loadtxt(out, delimiter=",")
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()

    def test_dump_reports_spectrum(self, dataset, tmp_path, capsys):
        # the minimum eigenvalue of K_oo and its condition number at the
        # estimator's default ridge, read from the cached eigenpairs
        out = tmp_path / "k.csv"
        assert cli.main(["kernel-dump", "--dataset", str(dataset),
                         "--block", "1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        match = re.search(r"K_oo over (\d+) pilots: min eigenvalue (\S+), "
                          r"condition (\S+) at the default ridge (\S+)", text)
        assert match, text
        from channel_cntk import imputer
        from channel_cntk.cli import _sparse_from_record
        manifest, records = load_dataset(dataset)
        sparse = _sparse_from_record(records[0], manifest)
        obs = np.flatnonzero(sparse.mask[12:24])
        gram = np.loadtxt(out, delimiter=",")
        k_oo = gram[np.ix_(obs, obs)]
        lam = imputer.DEFAULT_RIDGE_REL
        e_min = np.linalg.eigvalsh(k_oo)[0]
        cond = np.linalg.cond(k_oo + lam * np.eye(obs.size))
        n, got_e, got_cond, got_lam = match.groups()
        assert int(n) == obs.size
        assert abs(float(got_e) - e_min) <= 1e-10 * abs(e_min)
        assert abs(float(got_cond) - cond) <= 1e-10 * cond
        assert abs(float(got_lam) - lam) <= 1e-10 * lam


@pytest.mark.parametrize("argv", [
    ["estimate", "--dataset", "d", "--method", "cntk", "--out", "o", "--padding", "zero"],
    ["kernel-dump", "--dataset", "d", "--block", "0", "--out", "o", "--pos-slope", "1"],
], ids=["padding", "pos_slope"])
def test_removed_kernel_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cntk_defaults_come_from_cntk_config():
    # the flags of `estimate` and `kernel-dump` and an empty sweep `cntk`
    # block all give CntkConfig's own defaults
    parser = cli.build_parser()
    for argv in (["estimate", "--dataset", "d", "--method", "cntk", "--out", "o"],
                 ["kernel-dump", "--dataset", "d", "--block", "0", "--out", "o"]):
        assert cli._cntk_cfg_from(vars(parser.parse_args(argv))) == CntkConfig()
        args = parser.parse_args(argv + ["--depth", "4", "--neg-slope", "0.1"])
        assert cli._cntk_cfg_from(vars(args)) == CntkConfig(depth=4, neg_slope=0.1)
    assert cli._cntk_cfg_from({}) == CntkConfig()
