"""Reductions the benchmark reports: the tail-percentile rule and NMSE pooling.

Pure functions over plain Python numbers, so the self-tests can check them
without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence

#: The tail is the highest percentile that still has this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int]:
    """Return (value, percentile, sample count) of the tail sample.

    With n samples sorted ascending, the tail is the k-th smallest where
    k = n - TAIL_BEYOND, so exactly TAIL_BEYOND samples lie beyond it; its
    percentile is 100 * k / n. Fewer than TAIL_BEYOND + 1 samples have no
    such percentile and raise ValueError.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND
    return sorted(samples)[k - 1], 100.0 * k / n, n


def level_db(ratios_by_level: Mapping[float, Sequence[float]]) -> dict[float, float]:
    """Per level, 10*log10 of the mean linear error ratio (expectation inside the log)."""
    out = {}
    for level, ratios in ratios_by_level.items():
        if not ratios:
            raise ValueError(f"level {level!r} has no samples")
        out[level] = 10.0 * math.log10(statistics.fmean(ratios))
    return out


def mean_db(per_level_db: Mapping[float, float]) -> float:
    """Equal-weight mean over levels of per-level dB values."""
    return statistics.fmean(per_level_db.values())


def nmse_summary(est: Mapping[float, Sequence[float]],
                 ref: Mapping[float, Sequence[float]]) -> dict:
    """NMSE of an estimator and its gain over a reference, pooled per level.

    est and ref map each SNR level to the linear error ratios
    ||H - Hhat||^2 / ||H||^2 of the same realizations. Gains are
    reference dB minus estimator dB, so a positive gain means the estimator
    is better. Returns the dB figures and the linear form of the gain.
    """
    if set(est) != set(ref):
        raise ValueError("estimator and reference cover different levels")
    est_db = level_db(est)
    ref_db = level_db(ref)
    gains = {lvl: ref_db[lvl] - est_db[lvl] for lvl in est_db}
    nmse = mean_db(est_db)
    gain = mean_db(gains)
    worst = min(gains.values())
    return {
        "nmse_db": nmse,
        "ref_nmse_db": mean_db(ref_db),
        "gain_db": gain,
        "gain_worst_db": worst,
        "per_level_db": {str(lvl): est_db[lvl] for lvl in sorted(est_db)},
        "per_level_gain_db": {str(lvl): gains[lvl] for lvl in sorted(gains)},
        "gain": 10.0 ** (gain / 10.0),
    }
