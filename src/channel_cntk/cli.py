"""Command-line entry point: simulate | estimate | sweep | kernel-dump.

Configuration files are JSON key-value documents (schemas in the README);
command-line flags override config values. Environment variables honored:
CHANNEL_CNTK_OUTDIR prefixes relative output paths, CHANNEL_CNTK_THREADS
caps the sweep worker count. Every command is deterministic given its
config; exit code 0 iff no error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import container, imputer
from .chansim import DEFAULT_DOPPLER_HZ, DEFAULT_TAPS, TdlProfile, derive_seed
from .cntk import CntkConfig
from .evaluate import METHOD_TAGS, error_ratio, make_method, ratio_db, run_sweep, simulate_cell
from .grid import (
    DEFAULT_SUBCARRIER_SPACING_HZ,
    DEFAULT_SYMBOL_DURATION_S,
    PATTERN_PRESETS,
    PilotPattern,
    SparseChannelEstimate,
    ls_estimate,
    make_pilot_pattern,
    preset_pattern,
)
from .imputer import DEFAULT_RIDGE_REL, auto_ridge, estimate_channel_cntk, estimation_smoother


class CliError(Exception):
    """User-facing command error; message printed to stderr, exit code 1."""


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config parse error in {path} at line {exc.lineno}, "
                       f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must be a JSON object")
    return cfg


_KIND_NAMES = {int: "an integer", float: "a number", list: "a list", bool: "true or false",
               str: "a string"}
_EXACT_TYPES = {list: (list, tuple), str: str}


def _checked(value, kind, field: str):
    """`kind(value)` for a config value, else a CliError naming `field`: true/false
    fits only bool, a fraction never int, list only a list or tuple and str only
    a string; float() also reads "inf" and numeric strings."""
    try:
        if isinstance(value, bool) != (kind is bool) or (
                kind in _EXACT_TYPES and not isinstance(value, _EXACT_TYPES[kind])):
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"config field {field!r} must be {_KIND_NAMES[kind]}, "
                       f"got {value!r}") from None


def _taps(value) -> list[tuple[float, float]]:
    """The `taps` field: a list of [delay_s, power_db] pairs."""
    pairs = [_checked(t, list, "taps") for t in _checked(value, list, "taps")]
    if any(len(t) != 2 for t in pairs):
        raise CliError(f"config field 'taps' must hold [delay_s, power_db] pairs, "
                       f"got {value!r}")
    return [(_checked(d, float, "taps"), _checked(p, float, "taps")) for d, p in pairs]


def _check_fields(block: dict, known, where: str, required=()) -> None:
    """Raise a CliError naming the keys of a config object outside `known`, or
    the first `required` key it lacks; `where` names the object in the message."""
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise CliError(f"unknown {where} field(s) {', '.join(map(repr, unknown))}; "
                       f"valid fields: {', '.join(sorted(known))}")
    for name in required:
        if name not in block:
            raise CliError(f"missing required {where} field {name!r}")


_GRID_FIELDS = ("rows", "cols", "subcarrier_spacing_hz", "symbol_duration_s", "taps",
                "doppler_hz")
_PATTERN_FIELDS = ("sc_spacing", "sym_spacing", "sc_offset", "sym_offset")


def _grid_and_channel(cfg: dict) -> tuple:
    """(rows, cols, subcarrier spacing, symbol duration, taps, doppler) of a config."""
    return (_checked(cfg.get("rows", 360), int, "rows"),
            _checked(cfg.get("cols", 14), int, "cols"),
            _checked(cfg.get("subcarrier_spacing_hz", DEFAULT_SUBCARRIER_SPACING_HZ),
                     float, "subcarrier_spacing_hz"),
            _checked(cfg.get("symbol_duration_s", DEFAULT_SYMBOL_DURATION_S),
                     float, "symbol_duration_s"),
            _taps(cfg.get("taps", DEFAULT_TAPS)),
            _checked(cfg.get("doppler_hz", DEFAULT_DOPPLER_HZ), float, "doppler_hz"))


def _config_out(args, cfg: dict) -> Path:
    """The output path, resolved: --out, else the config's `out`, which must be a string."""
    configured = _checked(cfg.get("out", ""), str, "out")
    if not (args.out or configured):
        raise CliError("missing output path: give --out or config field 'out'")
    return _resolve_out(args.out or configured)


def _resolve_out(path: str) -> Path:
    out = Path(path)
    outdir = os.environ.get("CHANNEL_CNTK_OUTDIR")
    if outdir and not out.is_absolute():
        out = Path(outdir) / out
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _thread_cap(requested: int) -> int:
    cap = os.environ.get("CHANNEL_CNTK_THREADS")
    if cap:
        try:
            return max(1, min(requested, int(cap)))
        except ValueError:
            raise CliError(f"CHANNEL_CNTK_THREADS must be an integer, got {cap!r}") from None
    return max(1, requested)


def _pattern_from_config(spec, rows: int, cols: int) -> tuple[PilotPattern, dict]:
    """Resolve a preset name or a spacing object into a pattern + manifest entry."""
    if isinstance(spec, str):
        pattern = preset_pattern(spec, rows, cols)
        desc = {"preset": spec}
    elif isinstance(spec, dict):
        _check_fields(spec, _PATTERN_FIELDS, "pattern", required=_PATTERN_FIELDS[:2])
        pattern = make_pilot_pattern(rows, cols, *(
            _checked(spec.get(name, 0), int, f"pattern.{name}") for name in _PATTERN_FIELDS))
        desc = {}
    else:
        raise CliError(f"pattern must be a preset name or spacing object, got {spec!r}")
    desc.update({name: getattr(pattern, name) for name in _PATTERN_FIELDS})
    return pattern, desc


def _cntk_cfg_from(values: dict) -> CntkConfig:
    """CntkConfig from a sweep's `cntk` block or `vars(args)`; absent fields keep its defaults."""
    return CntkConfig(**{
        field.name: _checked(values.get(field.name, field.default), type(field.default),
                             f"cntk.{field.name}")
        for field in dataclasses.fields(CntkConfig)})


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _check_fields(cfg, ("seed", "realizations", "snr_db", "pattern", "out") + _GRID_FIELDS,
                  "config", required=["seed"])
    seed = _checked(cfg["seed"], int, "seed")
    realizations = _checked(cfg.get("realizations", 1), int, "realizations")
    if realizations < 1:
        raise CliError("realizations must be >= 1")
    snr_db = _checked(cfg.get("snr_db", 20.0), float, "snr_db")
    rows, cols, scs, tsym, taps, doppler = _grid_and_channel(cfg)
    pattern, pattern_desc = _pattern_from_config(cfg.get("pattern", "dense"), rows, cols)
    out_path = _config_out(args, cfg)

    records = []
    for r in range(realizations):
        channel, x, y = simulate_cell(derive_seed(seed, r), snr_db, rows, cols,
                                      subcarrier_spacing_hz=scs, symbol_duration_s=tsym,
                                      taps=taps, doppler_hz=doppler)
        records.append(container.DatasetRecord(channel.h, x.data, y.data,
                                               pattern.mask))
    manifest = {
        "seed": seed, "realizations": realizations, "snr_db": snr_db,
        "rows": rows, "cols": cols,
        "subcarrier_spacing_hz": scs, "symbol_duration_s": tsym,
        "taps": [[d, p] for d, p in TdlProfile(taps, doppler, 0).taps],
        "doppler_hz": doppler, "pattern": pattern_desc,
    }
    container.save_dataset(out_path, manifest, records)
    print(f"wrote {out_path}: {realizations} realization(s), {rows}x{cols} grids, "
          f"snr {snr_db} dB, pattern {pattern_desc}, "
          f"{pattern.n_pilots} pilots/grid, seed {seed}")
    return 0


def _sparse_from_record(rec: container.DatasetRecord,
                        manifest: dict) -> SparseChannelEstimate:
    pd = manifest["pattern"]
    pattern = PilotPattern(pd["sc_spacing"], pd["sym_spacing"],
                           pd["sc_offset"], pd["sym_offset"], rec.mask)
    from .grid import ResourceGrid
    scs = manifest["subcarrier_spacing_hz"]
    tsym = manifest["symbol_duration_s"]
    return ls_estimate(ResourceGrid(rec.rx, scs, tsym),
                       ResourceGrid(rec.tx, scs, tsym), pattern)


def cmd_estimate(args) -> int:
    manifest, records = container.load_dataset(args.dataset)
    if args.method not in METHOD_TAGS:
        raise CliError(f"unknown method {args.method!r}; "
                       f"valid methods: {', '.join(METHOD_TAGS)}")
    cntk_cfg = _cntk_cfg_from(vars(args))
    ridge = args.lam
    if args.lam is None and args.method == "cntk":
        # noise-matched default against the dataset's recorded SNR
        ridge = auto_ridge(_checked(manifest.get("snr_db", math.inf), float, "snr_db"))
        print(f"ridge: auto (snr {manifest.get('snr_db')} dB -> {ridge:g})")
    diags = []  # the cntk bands' solver diagnostics, for the summary line
    if args.method == "cntk":
        cache_before = imputer._mask_map.cache_info()

        def fn(sparse):
            imputed = estimate_channel_cntk(sparse, cntk_cfg, ridge)
            diags.extend(imputed.diagnostics)
            return imputed.h_hat
    else:
        fn = make_method(args.method, knn_k=args.knn_k)
    estimates = []
    ratio_sum = 0.0
    max_pilot_residual = 0.0
    for i, rec in enumerate(records):
        sparse = _sparse_from_record(rec, manifest)
        h_hat = fn(sparse)
        estimates.append(h_hat)
        ratio = error_ratio(rec.h_true, h_hat)
        ratio_sum += ratio
        resid = np.abs(h_hat[sparse.mask] - sparse.values[sparse.mask])
        scale = max(float(np.abs(sparse.values[sparse.mask]).max()), 1e-300)
        max_pilot_residual = max(max_pilot_residual, float(resid.max()) / scale)
        print(f"record {i}: nmse {ratio_db(ratio):.3f} dB")
    print(f"aggregate nmse ({len(records)} records): "
          f"{ratio_db(ratio_sum / len(records)):.3f} dB")
    print(f"max pilot residual (relative): {max_pilot_residual:.3e}")
    if diags:
        cache = imputer._mask_map.cache_info()
        print(f"cntk solver: {len(diags)} bands, "
              f"{sum(d.ridge > ridge for d in diags)} ridge(s) lifted by the eigenvalue floor, "
              f"worst condition {max(d.condition for d in diags):.3e}, map cache "
              f"{cache.hits - cache_before.hits} hit(s), "
              f"{cache.misses - cache_before.misses} miss(es)")
    out_path = _resolve_out(args.out)
    est_manifest = {
        "method": args.method, "source": Path(args.dataset).name,
        "ridge": ridge, "cntk_cfg": cntk_cfg.fingerprint(), "knn_k": args.knn_k,
    }
    container.save_estimates(out_path, est_manifest, estimates)
    print(f"wrote {out_path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _check_fields(cfg, ("seed", "realizations", "methods", "snr_dbs", "patterns", "knn_k",
                        "cntk", "measure_time", "out") + _GRID_FIELDS,
                  "config", required=["seed"])
    methods = (args.methods.split(",") if args.methods
               else _checked(cfg.get("methods", ["cntk"]), list, "methods"))
    for m in methods:
        if m not in METHOD_TAGS:
            raise CliError(f"unknown method {m!r}; valid methods: {', '.join(METHOD_TAGS)}")
    snrs = [_checked(s, float, "snr_dbs") for s in
            (args.snrs.split(",") if args.snrs
             else _checked(cfg.get("snr_dbs", [0.0, 10.0, 20.0, 30.0]), list, "snr_dbs"))]
    pattern_specs = (args.patterns.split(",") if args.patterns
                     else _checked(cfg.get("patterns", ["dense"]), list, "patterns"))
    realizations = args.realizations if args.realizations is not None \
        else _checked(cfg.get("realizations", 1), int, "realizations")
    seed = args.seed if args.seed is not None else _checked(cfg["seed"], int, "seed")
    rows, cols, scs, tsym, taps, doppler = _grid_and_channel(cfg)
    measure_time = (_checked(cfg.get("measure_time", True), bool, "measure_time")
                    and not args.no_timing)
    cntk_block = cfg.get("cntk", {})
    if not isinstance(cntk_block, dict):
        raise CliError(f"config field 'cntk' must be a JSON object, got {cntk_block!r}")
    _check_fields(cntk_block, [field.name for field in dataclasses.fields(CntkConfig)]
                  + ["ridge"], "cntk")
    ridge = cntk_block.get("ridge", "auto")
    patterns = [_pattern_from_config(p, rows, cols)[0] for p in pattern_specs]
    threads = _thread_cap(args.threads)
    out_path = _config_out(args, cfg)
    series_path = _resolve_out(args.plot_series) if args.plot_series else None
    result = run_sweep(
        methods, snrs, patterns, realizations, seed,
        rows=rows, cols=cols, subcarrier_spacing_hz=scs, symbol_duration_s=tsym,
        taps=taps, doppler_hz=doppler,
        cntk_cfg=_cntk_cfg_from(cntk_block),
        cntk_ridge="auto" if ridge == "auto" else _checked(ridge, float, "cntk.ridge"),
        knn_k=_checked(cfg.get("knn_k", 4), int, "knn_k"),
        measure_time=measure_time, n_threads=threads)
    result.write_csv(out_path)
    print(f"wrote {out_path}: {len(result.rows)} rows "
          f"({len(methods)} methods x {len(snrs)} SNRs x {len(patterns)} patterns)")
    if series_path:
        series_path.write_text(result.plot_series(), encoding="utf-8")
        print(f"wrote {series_path}")
    return 0


def cmd_kernel_dump(args) -> int:
    manifest, records = container.load_dataset(args.dataset)
    if not (0 <= args.record < len(records)):
        raise CliError(f"record index {args.record} out of range "
                       f"[0, {len(records)})")
    sparse = _sparse_from_record(records[args.record], manifest)
    smoother = estimation_smoother(sparse, args.block, _cntk_cfg_from(vars(args)))
    kernel = smoother.kernel
    out_path = _resolve_out(args.out)
    np.savetxt(out_path, kernel.gram, fmt="%.17g", delimiter=",")
    P = kernel.gram.shape[0]
    print(f"wrote {out_path}: {P}x{P} gram matrix (block {args.block})")
    lam, cond = smoother.regularize(DEFAULT_RIDGE_REL)
    print(f"K_oo over {smoother.obs.size} pilots: min eigenvalue {float(smoother.e[0])!r}, "
          f"condition {cond!r} at the default ridge {lam!r}")
    if args.check_symmetric:
        asym = float(np.abs(kernel.gram - kernel.gram.T).max())
        scale = float(np.abs(kernel.gram).max())
        ok = asym <= 1e-10 * max(scale, 1e-300)
        print(f"symmetry check: max |G - G^T| = {asym:.3e} "
              f"({'OK' if ok else 'FAILED'})")
        if not ok:
            return 1
    return 0


def _add_cntk_flags(p: argparse.ArgumentParser) -> None:
    d = CntkConfig()
    p.add_argument("--depth", type=int, default=d.depth, help="kernel recursion depth")
    p.add_argument("--filter-size", type=int, default=d.filter_size,
                   help="conv filter size (odd)")
    p.add_argument("--neg-slope", type=float, default=d.neg_slope,
                   help="leaky-ReLU negative slope (the positive slope is 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channel-cntk",
        description="OFDM channel estimation via a closed-form convolutional "
                    "neural tangent kernel, with classical baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset file")
    p_sim.add_argument("--config", required=True, help="JSON config path")
    p_sim.add_argument("--out", help="dataset output path (overrides config)")
    p_sim.set_defaults(fn=cmd_simulate)

    p_est = sub.add_parser("estimate", help="run one estimator over a dataset")
    p_est.add_argument("--dataset", required=True)
    p_est.add_argument("--method", required=True,
                       help="one of: " + ", ".join(METHOD_TAGS))
    p_est.add_argument("--out", required=True, help="estimates output path")
    p_est.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="ridge; 0 = strict interpolation "
                            "(default: noise-matched to the dataset SNR)")
    p_est.add_argument("--knn-k", type=int, default=4)
    _add_cntk_flags(p_est)
    p_est.set_defaults(fn=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="NMSE sweep over methods/SNRs/densities")
    p_sweep.add_argument("--config", required=True, help="JSON config path")
    p_sweep.add_argument("--out", help="CSV output path (overrides config)")
    p_sweep.add_argument("--methods", help="comma list, overrides config")
    p_sweep.add_argument("--snrs", help="comma list of SNR dB, overrides config")
    p_sweep.add_argument("--patterns",
                         help="comma list of presets (%s), overrides config"
                              % "/".join(sorted(PATTERN_PRESETS)))
    p_sweep.add_argument("--realizations", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="sweep worker threads (results identical for any count)")
    p_sweep.add_argument("--no-timing", action="store_true",
                         help="pin the timing column to 0.0 for byte-reproducible CSVs")
    p_sweep.add_argument("--plot-series", help="also write x/y series text file")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_dump = sub.add_parser("kernel-dump",
                            help="export, as CSV, the unit-diagonal kernel the "
                                 "estimator solves one 12-row resource block with")
    p_dump.add_argument("--dataset", required=True)
    p_dump.add_argument("--record", type=int, default=0)
    p_dump.add_argument("--block", type=int, required=True,
                        help="resource block (12-row band) index, from 0")
    p_dump.add_argument("--out", required=True)
    p_dump.add_argument("--check-symmetric", action="store_true")
    _add_cntk_flags(p_dump)
    p_dump.set_defaults(fn=cmd_kernel_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
