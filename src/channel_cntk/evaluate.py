"""NMSE metric and the SNR/pilot-density sweep harness.

Sweep-level NMSE puts the expectation inside the log: the linear error
ratio is averaged across realizations first, then converted to dB. A ratio
of exactly zero is recorded as the -inf sentinel (serialized as "-inf").

Determinism: `run_sweep` simulates every (snr, pattern, realization) data
cell once, with `simulate_cell`, from streams derived from the sweep seed by
a fixed 64-bit hash, and runs every method on that slot; so all methods see
identical channels and noise, and results do not depend on scheduling.
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
from .imputer import DEFAULT_RIDGE_REL, _is_ridge, auto_ridge, estimate_channel_cntk
from .baselines import knn_interpolate, linear_interpolate, nearest_interpolate

METHOD_TAGS = ("cntk", "nearest", "knn", "linear")

CSV_HEADER = "method,snr_db,pilots_per_rb,nmse_db,mean_solve_s,realizations,seed"


def error_ratio(h_true: np.ndarray, h_hat: np.ndarray) -> float:
    """||H - Hhat||_F^2 / ||H||_F^2 for one realization.

    Raises ValueError on dimension mismatch or an all-zero reference.
    """
    h_true = np.asarray(h_true)
    h_hat = np.asarray(h_hat)
    if h_true.shape != h_hat.shape:
        raise ValueError("matrix dimensions must match")
    ref = float(np.sum(np.abs(h_true) ** 2))
    if ref == 0.0:
        raise ValueError("reference channel has zero norm")
    return float(np.sum(np.abs(h_true - h_hat) ** 2)) / ref


def ratio_db(ratio: float) -> float:
    """10*log10(ratio), or -inf when the ratio is zero (an exact estimate)."""
    return -math.inf if ratio == 0.0 else 10.0 * math.log10(ratio)


def nmse_db(h_true: np.ndarray, h_hat: np.ndarray) -> float:
    """NMSE in dB of one realization (-inf when exact); see `error_ratio`."""
    return ratio_db(error_ratio(h_true, h_hat))


def make_method(tag: str, *, cntk_cfg: CntkConfig = CntkConfig(),
                cntk_ridge: float = DEFAULT_RIDGE_REL,
                knn_k: int = 4) -> Callable[[SparseChannelEstimate], np.ndarray]:
    """Resolve a method tag to an estimator sparse -> full complex matrix; `cntk`
    solves at the number `cntk_ridge`, by default the jitter DEFAULT_RIDGE_REL."""
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
            lines.append(f"{r.method},{r.snr_db!r},{r.pilots_per_rb},{r.nmse_db!r},"
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
                lines.append(f"{r.snr_db!r} {r.nmse_db!r}")
            lines.append("")
        return "\n".join(lines)


def _resolve_pattern(pattern, rows: int, cols: int) -> PilotPattern:
    if isinstance(pattern, PilotPattern):
        return pattern
    return preset_pattern(pattern, rows, cols)


def simulate_cell(data_seed: int, snr_db: float, rows: int, cols: int, *,
                  subcarrier_spacing_hz: float, symbol_duration_s: float,
                  taps, doppler_hz: float):
    """(channel, transmit grid, received grid) of one data cell: streams 0, 1
    and 2 of `data_seed` seed the channel profile, the QPSK grid and the noise."""
    profile = TdlProfile(taps, doppler_hz, derive_seed(data_seed, 0))
    channel = generate_channel(profile, rows, cols, subcarrier_spacing_hz, symbol_duration_s)
    x = make_qpsk_grid(rows, cols, derive_seed(data_seed, 1),
                       subcarrier_spacing_hz, symbol_duration_s)
    y = transmit(channel, x, NoiseSpec(snr_db, derive_seed(data_seed, 2)))
    return channel, x, y


def run_sweep(methods: Sequence[str], snr_list: Sequence[float],
              patterns: Sequence, realizations: int, seed: int, *,
              rows: int = 360, cols: int = 14,
              subcarrier_spacing_hz: float = DEFAULT_SUBCARRIER_SPACING_HZ,
              symbol_duration_s: float = DEFAULT_SYMBOL_DURATION_S,
              taps=DEFAULT_TAPS, doppler_hz: float = DEFAULT_DOPPLER_HZ,
              cntk_cfg: CntkConfig = CntkConfig(),
              cntk_ridge: float | str = "auto", knn_k: int = 4,
              measure_time: bool = True, n_threads: int = 1) -> SweepResult:
    """Run every (method, snr, pattern) cell over shared channel realizations.

    Realization r of an (snr, pattern) cell is simulated once, from data
    seed derive_seed(seed, snr index, pattern index, r), and every method
    estimates that slot, so a method's row does not depend on the others.
    cntk_ridge "auto" matches the ridge to the cell's operating SNR (see
    imputer.auto_ridge); a non-negative number pins it across all cells.
    Anything else raises ValueError before any simulation, whether or not
    "cntk" is among the methods. With measure_time=False the timing column
    is pinned to 0.0 and the CSV is byte-reproducible across runs.
    """
    if not (cntk_ridge == "auto" or _is_ridge(cntk_ridge)):
        raise ValueError(f"cntk_ridge must be 'auto' or a non-negative number, got {cntk_ridge!r}")
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    if not methods:
        raise ValueError("at least one method required")
    if len(snr_list) == 0:
        raise ValueError("at least one SNR required")
    if len(patterns) == 0:
        raise ValueError("at least one pattern required")
    resolved = [_resolve_pattern(p, rows, cols) for p in patterns]

    def run_cell(cell):
        (si, snr), (pi, pattern) = cell
        ridge = auto_ridge(snr) if cntk_ridge == "auto" else cntk_ridge
        fns = [make_method(m, cntk_cfg=cntk_cfg, cntk_ridge=ridge, knn_k=knn_k)
               for m in methods]
        ratio_sums = [0.0] * len(fns)
        time_sums = [0.0] * len(fns)
        for r in range(realizations):
            channel, x, y = simulate_cell(
                derive_seed(seed, si, pi, r), snr, rows, cols,
                subcarrier_spacing_hz=subcarrier_spacing_hz,
                symbol_duration_s=symbol_duration_s, taps=taps, doppler_hz=doppler_hz)
            sparse = ls_estimate(y, x, pattern)
            for k, fn in enumerate(fns):
                t0 = time.perf_counter()
                h_hat = fn(sparse)
                if measure_time:
                    time_sums[k] += time.perf_counter() - t0
                ratio_sums[k] += error_ratio(channel.h, h_hat)
        return [SweepRow(m, float(snr), pattern.pilots_per_rb,
                         ratio_db(ratio_sums[k] / realizations),
                         time_sums[k] / realizations, realizations, seed)
                for k, m in enumerate(methods)]

    cells = [((si, snr), (pi, pat))
             for si, snr in enumerate(snr_list)
             for pi, pat in enumerate(resolved)]
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            out = list(pool.map(run_cell, cells))
    else:
        out = [run_cell(c) for c in cells]
    return SweepResult(tuple(rows_of_cell[k] for k in range(len(methods))
                             for rows_of_cell in out))
