"""NMSE metric and the SNR/pilot-density sweep harness.

Sweep-level NMSE puts the expectation inside the log: the linear error
ratio is averaged across realizations first, then converted to dB. A ratio
of exactly zero is recorded as the -inf sentinel (serialized as "-inf").

Determinism: every (snr, pattern, realization) data cell derives its RNG
streams from the sweep seed by a fixed 64-bit hash, so all methods see
identical channels and noise, and results are independent of scheduling
and thread count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chansim import (
    DEFAULT_DOPPLER_HZ,
    DEFAULT_TAPS,
    NoiseSpec,
    TdlProfile,
    derive_seed,
    generate_channel,
    make_qpsk_grid,
    transmit,
)
from .cntk import CntkConfig
from .grid import (
    DEFAULT_SUBCARRIER_SPACING_HZ,
    DEFAULT_SYMBOL_DURATION_S,
    PilotPattern,
    SparseChannelEstimate,
    ls_estimate,
    preset_pattern,
)
from .imputer import auto_ridge, estimate_channel_cntk
from .baselines import knn_interpolate, linear_interpolate, nearest_interpolate

METHOD_TAGS = ("cntk", "nearest", "knn", "linear")

CSV_HEADER = "method,snr_db,pilots_per_rb,nmse_db,mean_solve_s,realizations,seed"


def nmse_db(h_true: np.ndarray, h_hat: np.ndarray) -> float:
    """10*log10(||H - Hhat||_F^2 / ||H||_F^2) for one realization.

    Returns -inf when the estimate is exact. Raises ValueError on dimension
    mismatch or an all-zero reference.
    """
    h_true = np.asarray(h_true)
    h_hat = np.asarray(h_hat)
    if h_true.shape != h_hat.shape:
        raise ValueError("matrix dimensions must match")
    ref = float(np.sum(np.abs(h_true) ** 2))
    if ref == 0.0:
        raise ValueError("reference channel has zero norm")
    err = float(np.sum(np.abs(h_true - h_hat) ** 2))
    if err == 0.0:
        return -math.inf
    return 10.0 * math.log10(err / ref)


def make_method(tag: str, *, cntk_cfg: CntkConfig = CntkConfig(),
                cntk_ridge: float | None = None,
                knn_k: int = 4) -> Callable[[SparseChannelEstimate], np.ndarray]:
    """Resolve a method tag to an estimator sparse -> full complex matrix."""
    if tag == "cntk":
        return lambda sp: estimate_channel_cntk(sp, cntk_cfg, cntk_ridge).h_hat
    if tag == "nearest":
        return nearest_interpolate
    if tag == "knn":
        return lambda sp: knn_interpolate(sp, knn_k)
    if tag == "linear":
        return linear_interpolate
    raise ValueError(f"unknown method {tag!r}; valid methods: {', '.join(METHOD_TAGS)}")


@dataclass(frozen=True)
class SweepRow:
    method: str
    snr_db: float
    pilots_per_rb: int
    nmse_db: float
    mean_solve_s: float
    realizations: int
    seed: int


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows in (method, snr, pattern) input order, plus CSV serialization."""

    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            nmse = "-inf" if r.nmse_db == -math.inf else repr(r.nmse_db)
            lines.append(f"{r.method},{r.snr_db!r},{r.pilots_per_rb},{nmse},"
                         f"{r.mean_solve_s!r},{r.realizations},{r.seed}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    def plot_series(self) -> str:
        """x/y series per (method, density) for external plotting tools."""
        lines = []
        groups: dict[tuple[str, int], list[SweepRow]] = {}
        for r in self.rows:
            groups.setdefault((r.method, r.pilots_per_rb), []).append(r)
        for (method, density), rows in groups.items():
            lines.append(f"# series method={method} pilots_per_rb={density}")
            lines.append("# snr_db nmse_db")
            for r in sorted(rows, key=lambda r: r.snr_db):
                nmse = "-inf" if r.nmse_db == -math.inf else repr(r.nmse_db)
                lines.append(f"{r.snr_db!r} {nmse}")
            lines.append("")
        return "\n".join(lines)


def _resolve_pattern(pattern, rows: int, cols: int) -> PilotPattern:
    if isinstance(pattern, PilotPattern):
        return pattern
    return preset_pattern(pattern, rows, cols)


def run_sweep(methods: Sequence[str], snr_list: Sequence[float],
              patterns: Sequence, realizations: int, seed: int, *,
              rows: int = 360, cols: int = 14,
              subcarrier_spacing_hz: float = DEFAULT_SUBCARRIER_SPACING_HZ,
              symbol_duration_s: float = DEFAULT_SYMBOL_DURATION_S,
              taps=DEFAULT_TAPS, doppler_hz: float = DEFAULT_DOPPLER_HZ,
              cntk_cfg: CntkConfig = CntkConfig(),
              cntk_ridge: float | str | None = "auto", knn_k: int = 4,
              measure_time: bool = True, n_threads: int = 1) -> SweepResult:
    """Run every (method, snr, pattern) cell over shared channel realizations.

    The channel, transmit grid, and noise of realization r depend only on
    (seed, snr index, pattern index, r), never on the method, so methods are
    compared on identical data. cntk_ridge "auto" (or None) matches the
    ridge to the cell's operating SNR (see imputer.auto_ridge); a number
    pins it across all cells. With measure_time=False the timing column is
    pinned to 0.0 and the CSV is byte-reproducible across runs.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    if not methods:
        raise ValueError("at least one method required")
    if len(snr_list) == 0:
        raise ValueError("at least one SNR required")
    if len(patterns) == 0:
        raise ValueError("at least one pattern required")
    resolved = [_resolve_pattern(p, rows, cols) for p in patterns]

    def method_fn(tag: str, snr: float):
        ridge = cntk_ridge
        if tag == "cntk" and (ridge == "auto" or ridge is None):
            ridge = auto_ridge(snr)
        return make_method(tag, cntk_cfg=cntk_cfg, cntk_ridge=ridge, knn_k=knn_k)

    def run_cell(cell):
        method, (si, snr), (pi, pattern) = cell
        fn = method_fn(method, snr)
        ratio_sum = 0.0
        time_sum = 0.0
        for r in range(realizations):
            data_seed = derive_seed(seed, si, pi, r)
            profile = TdlProfile(taps, doppler_hz, derive_seed(data_seed, 0))
            channel = generate_channel(profile, rows, cols,
                                       subcarrier_spacing_hz, symbol_duration_s)
            x = make_qpsk_grid(rows, cols, derive_seed(data_seed, 1),
                               subcarrier_spacing_hz, symbol_duration_s)
            y = transmit(channel, x, NoiseSpec(snr, derive_seed(data_seed, 2)))
            sparse = ls_estimate(y, x, pattern)
            t0 = time.perf_counter()
            h_hat = fn(sparse)
            if measure_time:
                time_sum += time.perf_counter() - t0
            err = float(np.sum(np.abs(channel.h - h_hat) ** 2))
            ref = float(np.sum(np.abs(channel.h) ** 2))
            ratio_sum += err / ref
        mean_ratio = ratio_sum / realizations
        nmse = -math.inf if mean_ratio == 0.0 else 10.0 * math.log10(mean_ratio)
        return SweepRow(method, float(snr), pattern.pilots_per_rb, nmse,
                        time_sum / realizations, realizations, seed)

    cells = [(m, (si, snr), (pi, pat))
             for m in methods
             for si, snr in enumerate(snr_list)
             for pi, pat in enumerate(resolved)]
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            out = list(pool.map(run_cell, cells))
    else:
        out = [run_cell(c) for c in cells]
    return SweepResult(tuple(out))

