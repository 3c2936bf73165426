"""Workloads, the measurement loop and the metrics of the channel-cntk benchmark.

Every workload is a closed loop with one caller over 360 x 14 slots. Inputs
derive from the workload seed and the operation index only, and are made
between timed calls. One operation is one `estimate_channel_cntk` call on the
slot workloads and one `run_sweep` call on `sweep-classical`; a "slot" is one
360 x 14 estimate, so a sweep operation counts as many slots as it makes
estimates.

Accuracy is scored on the first ACCURACY_SLOTS (or ACCURACY_SWEEPS)
operations whatever the speed, so it is a pure function of the seed;
operations the timed window did not reach are run after it, untimed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from channel_cntk import baselines, chansim, cntk, evaluate, grid, imputer

import spans
import summary

ROOT = Path(__file__).resolve().parent.parent

ROWS = 360
COLS = 14
SNR_LEVELS = (0.0, 10.0, 20.0, 30.0)

#: derive_seed stream ids: timed operations and the untimed warm-up.
OP_STREAM = 0
WARMUP_STREAM = 1

#: Keep measuring past --seconds until this many operations succeeded (the tail rule's floor) ...
MIN_OPS = summary.TAIL_BEYOND + 1
#: ... but never past this many seconds.
HARD_CAP_S = 120.0

#: Slot workloads score NMSE on this many slots: per SNR level, each of the
#: 12 (layout, erasure share) pairs of slot-mask-churn once.
ACCURACY_SLOTS = 48
#: sweep-classical scores NMSE on this many run_sweep calls.
ACCURACY_SWEEPS = 12

SWEEP_METHODS = ("nearest", "knn", "linear")
SWEEP_PATTERNS = ("dense", "sparse")
SWEEP_REALIZATIONS = 1

#: slot-mask-churn lattices as (subcarrier, symbol) spacings: 5 and 7 do not
#: divide 12; (4, 4), (6, 2) and (7, 2) are 12/RB-like; (2, 4) is the dense preset.
CHURN_LAYOUTS = ((2, 4), (3, 4), (4, 4), (5, 3), (6, 2), (7, 2))
#: Share of lattice pilots erased in a slot.
CHURN_ERASE = (0.15, 0.25, 0.35, 0.45)
CHURN_MIN_PILOTS = 2
#: Tries at a fresh erasure of one band before the slot redraws its offsets.
CHURN_BAND_TRIES = 100

#: Layers whose calls per slot must repeat exactly from one traced slot to the next.
COUNTED_LAYERS = ("cntk.compute_cntk", "cntk.patch_aggregate",
                  "cntk.leaky_relu_duals", "imputer.kernel_regress")


class CheckFailed(Exception):
    """An operation returned, but its output is malformed."""


@dataclass(frozen=True)
class Slot:
    sparse: grid.SparseChannelEstimate
    h: np.ndarray
    snr_db: float


def _simulate(data_seed: int, rows: int, snr_db: float):
    """Channel, transmit grid and received grid of one slot."""
    profile = chansim.default_profile(chansim.derive_seed(data_seed, 0))
    channel = chansim.generate_channel(profile, rows, COLS)
    x = chansim.make_qpsk_grid(rows, COLS, chansim.derive_seed(data_seed, 1))
    y = chansim.transmit(channel, x, chansim.NoiseSpec(snr_db, chansim.derive_seed(data_seed, 2)))
    return channel, x, y


def _error_ratio(h: np.ndarray, h_hat: np.ndarray) -> float:
    return float(np.sum(np.abs(h - h_hat) ** 2) / np.sum(np.abs(h) ** 2))


class SlotWorkload:
    """LS extraction then `estimate_channel_cntk` with `auto_ridge`, one slot per operation.

    SNR cycles through SNR_LEVELS and every slot has a fresh channel and
    noise. With churn=False every band of every slot has the dense 24/RB
    mask; with churn=True every slot draws its own lattice and erasures and
    no band mask repeats within a run.
    """

    top_span = "imputer.estimate_channel_cntk"
    slots_per_op = 1
    accuracy_ops = ACCURACY_SLOTS
    scores_per_op = 1
    estimator = "cntk"

    def __init__(self, seed: int, churn: bool, rows: int = ROWS):
        self.seed = seed
        self.rows = rows
        self.churn = churn
        self.pattern = grid.preset_pattern("dense", rows, COLS)
        self._used: set[bytes] = set()
        self.band_keys: list[bytes] = []  # band masks fed to the estimator (churn only)
        self.escalations = 0
        self.cond_max = 0.0

    def make_input(self, stream: int, i: int) -> Slot:
        data_seed = chansim.derive_seed(self.seed, stream, i)
        snr = SNR_LEVELS[i % len(SNR_LEVELS)]
        channel, x, y = _simulate(data_seed, self.rows, snr)
        if not self.churn:
            return Slot(grid.ls_estimate(y, x, self.pattern), channel.h, snr)
        rng = np.random.default_rng(chansim.derive_seed(data_seed, 3))
        pattern, keep = self._churn_layout(rng, i // len(SNR_LEVELS))
        lattice = grid.ls_estimate(y, x, pattern)
        sparse = grid.SparseChannelEstimate(np.where(keep, lattice.values, 0), keep)
        self.band_keys.extend(b.tobytes() for b in
                              sparse.mask.reshape(-1, grid.SUBCARRIERS_PER_RB, COLS))
        return Slot(sparse, channel.h, snr)

    def _churn_layout(self, rng: np.random.Generator, j: int):
        """Lattice j's layout and erasure share, random offsets and erasures; all band masks new.

        Layout and share cycle with j = slot // len(SNR_LEVELS), so every SNR
        level sees the same sequence of (layout, share) pairs.
        """
        sc, sym = CHURN_LAYOUTS[j % len(CHURN_LAYOUTS)]
        erase = CHURN_ERASE[j % len(CHURN_ERASE)]
        rb = grid.SUBCARRIERS_PER_RB
        while True:
            pattern = grid.make_pilot_pattern(self.rows, COLS, sc, sym,
                                              int(rng.integers(sc)), int(rng.integers(sym)))
            keep = np.zeros_like(pattern.mask)
            keys = set()
            for start in range(0, self.rows, rb):
                band = pattern.mask[start:start + rb]
                for _ in range(CHURN_BAND_TRIES):
                    kept = band & (rng.random(band.shape) >= erase)
                    key = kept.tobytes()
                    if (kept.sum() >= CHURN_MIN_PILOTS and key not in keys
                            and key not in self._used):
                        break
                else:
                    break
                keys.add(key)
                keep[start:start + rb] = kept
            else:
                self._used.update(keys)
                return pattern, keep

    def run(self, slot: Slot) -> imputer.ImputedChannel:
        return imputer.estimate_channel_cntk(slot.sparse, ridge=imputer.auto_ridge(slot.snr_db))

    def accept(self, slot: Slot, out) -> None:
        """Raise CheckFailed on a malformed estimate; else record its solver health."""
        h_hat = out.h_hat
        if h_hat.shape != slot.h.shape:
            raise CheckFailed(f"h_hat shape {h_hat.shape}, expected {slot.h.shape}")
        if not np.all(np.isfinite(h_hat)):
            raise CheckFailed("h_hat has non-finite entries")
        requested = imputer.auto_ridge(slot.snr_db)
        self.escalations += sum(d.ridge != requested for d in out.diagnostics)
        self.cond_max = max(self.cond_max, max(d.condition for d in out.diagnostics))

    def score(self, slot: Slot, out, est: dict, ref: dict) -> None:
        est.setdefault(slot.snr_db, []).append(_error_ratio(slot.h, out.h_hat))
        ref.setdefault(slot.snr_db, []).append(
            _error_ratio(slot.h, baselines.linear_interpolate(slot.sparse)))

    def output_bytes(self, out) -> bytes:
        return out.h_hat.tobytes()

    def masks_distinct(self) -> bool:
        return len(set(self.band_keys)) == len(self.band_keys)


class SweepWorkload:
    """One `run_sweep` of the classical methods per operation, each with its own seed."""

    top_span = "evaluate.run_sweep"
    slots_per_op = (len(SWEEP_METHODS) * len(SNR_LEVELS) * len(SWEEP_PATTERNS)
                    * SWEEP_REALIZATIONS)
    accuracy_ops = ACCURACY_SWEEPS
    scores_per_op = len(SNR_LEVELS) * len(SWEEP_PATTERNS)
    estimator = "knn"

    def __init__(self, seed: int, rows: int = ROWS):
        self.seed = seed
        self.rows = rows
        self.escalations = 0
        self.cond_max = 0.0

    def make_input(self, stream: int, i: int) -> int:
        return chansim.derive_seed(self.seed, stream, i)

    def run(self, sweep_seed: int) -> evaluate.SweepResult:
        return evaluate.run_sweep(list(SWEEP_METHODS), list(SNR_LEVELS), list(SWEEP_PATTERNS),
                                  SWEEP_REALIZATIONS, sweep_seed, rows=self.rows,
                                  measure_time=False, n_threads=1)

    def accept(self, sweep_seed: int, out) -> None:
        """Raise CheckFailed on a malformed sweep result."""
        if len(out.rows) != len(SWEEP_METHODS) * len(SNR_LEVELS) * len(SWEEP_PATTERNS):
            raise CheckFailed(f"sweep returned {len(out.rows)} rows")
        if not all(np.isfinite(r.nmse_db) for r in out.rows):
            raise CheckFailed("sweep NMSE is not finite")

    def score(self, sweep_seed: int, out, est: dict, ref: dict) -> None:
        # each row's NMSE is the dB of its mean ratio over SWEEP_REALIZATIONS
        # realizations, so averaging the linear ratios keeps equal weights
        for r in out.rows:
            if r.method in ("knn", "linear"):
                side = est if r.method == "knn" else ref
                side.setdefault(r.snr_db, []).append(10.0 ** (r.nmse_db / 10.0))

    def output_bytes(self, out) -> bytes:
        return out.to_csv().encode()

    def masks_distinct(self) -> bool:
        return True


WORKLOADS = {
    "slot-fixed": lambda seed, rows: SlotWorkload(seed, churn=False, rows=rows),
    "slot-mask-churn": lambda seed, rows: SlotWorkload(seed, churn=True, rows=rows),
    "sweep-classical": lambda seed, rows: SweepWorkload(seed, rows=rows),
}


def make_workload(name: str, seed: int, rows: int = ROWS):
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; valid: {sorted(WORKLOADS)}") from None
    return factory(seed, rows)


def warm_up(name: str, seed: int, rows: int = ROWS):
    """Make the warm-up input and run the first operation, untimed; returns the workload."""
    wl = make_workload(name, seed, rows)
    wl.run(wl.make_input(WARMUP_STREAM, 0))
    return wl


# --- tracing -----------------------------------------------------------------

def _on_prior(tracer, args, kwargs):
    sparse = args[0]
    weights = args[1] if len(args) > 1 else kwargs.get("weights", cntk.PriorWeights())
    tracer.state["prior_key"] = (sparse.shape, sparse.mask.tobytes(), weights)


def _on_kernel(tracer, args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", cntk.CntkConfig())
    tracer.sets["mask_keys"].add((tracer.state.get("prior_key"), cfg))


def _on_aggregate(tracer, args, kwargs):
    # bytes moved, computed from shapes: read the field, write the padded
    # copy, then per filter offset read one shifted view and update `out`
    M, N = args[1]
    q = args[2]
    r = q // 2
    P2 = (M * N) ** 2
    padded = ((M + 2 * r) * (N + 2 * r)) ** 2
    tracer.counters["patch_aggregate_bytes"] += 8 * (P2 + padded + 3 * q * q * P2 + 2 * P2)


def _on_channel(tracer, args, kwargs):
    tracer.sets["data_cells"].add((tracer.op, args[0].seed))


def trace_targets() -> list[spans.Target]:
    """Where the wrappers go: each name a caller resolves at call time."""
    targets = [
        (imputer, "build_estimation_prior", "cntk.build_estimation_prior", _on_prior),
        (imputer, "compute_cntk", "cntk.compute_cntk", _on_kernel),
        (imputer, "normalize_kernel", "cntk.normalize_kernel", None),
        (imputer, "kernel_regress", "imputer.kernel_regress", None),
        (cntk, "patch_aggregate", "cntk.patch_aggregate", _on_aggregate),
        (cntk, "leaky_relu_duals", "cntk.leaky_relu_duals", None),
    ]
    for fn in ("nearest_interpolate", "knn_interpolate", "linear_interpolate"):
        targets.append((evaluate, fn, f"baselines.{fn}", None))
    targets.append((baselines, "linear_interpolate", "baselines.linear_interpolate", None))
    for module in (evaluate, chansim):
        targets.append((module, "generate_channel", "chansim.generate_channel", _on_channel))
        targets.append((module, "make_qpsk_grid", "chansim.make_qpsk_grid", None))
        targets.append((module, "transmit", "chansim.transmit", None))
    for module in (evaluate, grid):
        targets.append((module, "ls_estimate", "grid.ls_estimate", None))
    return targets


def _per_op_counts(trace: spans.Tracer) -> dict[int, tuple[int, ...]]:
    counts: dict[int, list[int]] = {}
    for s in trace.spans:
        row = counts.setdefault(s.op, [0] * len(COUNTED_LAYERS))
        if s.name in COUNTED_LAYERS:
            row[COUNTED_LAYERS.index(s.name)] += 1
    return {op: tuple(row) for op, row in counts.items()}


def layer_metrics(trace: spans.Tracer, wl, traced_ops: int,
                  timed: dict[bool, list[float]]) -> tuple[dict, dict]:
    """Per-layer metrics and their bases from the spans of the traced operations."""
    t = spans.totals(trace.spans)
    slots = traced_ops * wl.slots_per_op

    def ms(name):
        c = t.get(name)
        return c.total_ns / c.count / 1e6 if c and c.count else 0.0

    def self_ms(name):
        c = t.get(name)
        return c.self_ns / c.count / 1e6 if c and c.count else 0.0

    def per_slot(name):
        c = t.get(name)
        return c.count / slots if c else 0.0

    def count(name):
        c = t.get(name)
        return c.count if c else 0

    def total_ms(name):
        c = t.get(name)
        return c.total_ns / 1e6 if c else 0.0

    sim_ms = sum(total_ms(f"chansim.{fn}")
                 for fn in ("generate_channel", "make_qpsk_grid", "transmit"))
    n_sim = count("chansim.generate_channel")
    slot_total_ms = total_ms(SlotWorkload.top_span)
    regress = t.get("imputer.kernel_regress")
    retries = regress.errors.get("SingularKernelError", 0) if regress else 0
    n_agg = count("cntk.patch_aggregate")
    n_keys = len(trace.sets["mask_keys"])
    untraced, traced = timed[False], timed[True]
    ratio = ((len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
             if traced and untraced else 1.0)
    metrics = {
        "cntk.compute_cntk_ms": (ms("cntk.compute_cntk"), "ms"),
        "cntk.compute_cntk_self_ms": (self_ms("cntk.compute_cntk"), "ms"),
        "cntk.compute_cntk_calls_per_slot": (per_slot("cntk.compute_cntk"), "count"),
        "cntk.compute_cntk_slot_share": (
            total_ms("cntk.compute_cntk") / slot_total_ms if slot_total_ms else 0.0, "ratio"),
        "cntk.patch_aggregate_ms": (ms("cntk.patch_aggregate"), "ms"),
        "cntk.patch_aggregate_calls_per_slot": (per_slot("cntk.patch_aggregate"), "count"),
        "cntk.patch_aggregate_mb_computed": (
            trace.counters["patch_aggregate_bytes"] / n_agg / 1e6 if n_agg else 0.0, "MB"),
        "cntk.leaky_relu_duals_ms": (ms("cntk.leaky_relu_duals"), "ms"),
        "cntk.leaky_relu_duals_calls_per_slot": (per_slot("cntk.leaky_relu_duals"), "count"),
        "cntk.build_estimation_prior_ms": (ms("cntk.build_estimation_prior"), "ms"),
        "cntk.normalize_kernel_ms": (ms("cntk.normalize_kernel"), "ms"),
        "cntk.builds_per_mask_key": (count("cntk.compute_cntk") / n_keys if n_keys else 0.0,
                                     "count"),
        "imputer.estimate_self_ms": (self_ms(SlotWorkload.top_span), "ms"),
        "imputer.kernel_regress_ms": (ms("imputer.kernel_regress"), "ms"),
        "imputer.kernel_regress_calls_per_slot": (per_slot("imputer.kernel_regress"), "count"),
        "imputer.regress_retries": (retries, "count"),
        "imputer.ridge_escalations": (wl.escalations, "count"),
        "imputer.cond_max": (wl.cond_max, "ratio"),
        "baselines.knn_ms": (ms("baselines.knn_interpolate"), "ms"),
        "baselines.nearest_ms": (ms("baselines.nearest_interpolate"), "ms"),
        "baselines.linear_ms": (ms("baselines.linear_interpolate"), "ms"),
        "chansim.simulate_ms": (sim_ms / n_sim if n_sim else 0.0, "ms"),
        "grid.ls_estimate_ms": (ms("grid.ls_estimate"), "ms"),
        "evaluate.run_sweep_self_ms": (self_ms(SweepWorkload.top_span), "ms"),
        "evaluate.simulations_per_data_cell": (
            n_sim / len(trace.sets["data_cells"]) if trace.sets["data_cells"] else 0.0, "count"),
        "trace.throughput_ratio": (ratio, "ratio"),
    }
    bases = {
        "traced_ops": traced_ops,
        "traced_slots": slots,
        "slot_span_total_ms": slot_total_ms,
        "compute_cntk_total_ms": total_ms("cntk.compute_cntk"),
        "distinct_mask_keys": n_keys,
        "data_cells": len(trace.sets["data_cells"]),
        "timed_ops_traced": len(traced),
        "timed_ops_untraced": len(untraced),
        "spans": len(trace.spans),
    }
    return metrics, bases


# --- the run -----------------------------------------------------------------

@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    details: dict = field(default_factory=dict)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 rows: int = ROWS, accuracy_ops: int | None = None,
                 spans_path: Path | None = None) -> RunResult:
    """Warm up, measure for `seconds`, score accuracy and check the outputs.

    With trace=True every other operation runs with the wrappers installed;
    the per-layer metrics come from those, and the untraced ones give the
    throughput that the tracing overhead is measured against.
    """
    wl = warm_up(name, seed, rows)
    n_acc = wl.accuracy_ops if accuracy_ops is None else accuracy_ops
    tracer = spans.Tracer() if trace else None
    targets = trace_targets() if trace else []
    timed: dict[bool, list[float]] = {False: [], True: []}
    est: dict[float, list[float]] = {}
    ref: dict[float, list[float]] = {}
    attempted = failed = traced_ops = 0
    first = None
    failures: list[str] = []
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        in_window = elapsed < HARD_CAP_S and (
            elapsed < seconds or len(timed[False]) + len(timed[True]) < MIN_OPS)
        if not in_window and i >= n_acc:
            break
        traced = tracer is not None and i % 2 == 0
        ctx = tracer.recording(targets, i) if traced else contextlib.nullcontext()
        with ctx:
            inp = wl.make_input(OP_STREAM, i)
            attempted += 1
            try:
                # the untimed branch keeps nothing but the call inside the timer
                if traced:
                    t0 = time.perf_counter()
                    with tracer.span(wl.top_span):
                        out = wl.run(inp)
                    dt = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    out = wl.run(inp)
                    dt = time.perf_counter() - t0
                wl.accept(inp, out)
            except Exception as exc:  # a failed operation is counted, and the run goes on
                failed += 1
                failures.append(f"op {i}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            else:
                if in_window:
                    timed[traced].append(dt)
                if i < n_acc:
                    wl.score(inp, out, est, ref)
                if i == 0:
                    first = (inp, wl.output_bytes(out))
        traced_ops += traced
        i += 1

    repeat_ok = first is not None and wl.output_bytes(wl.run(first[0])) == first[1]
    masks_ok = wl.masks_distinct()
    acc = summary.nmse_summary(est, ref) if est else None
    checks = {
        "first_op_repeat_identical": repeat_ok,
        "band_masks_distinct": masks_ok,
        "accuracy_scores": sum(len(v) for v in est.values()),
        "estimator_beats_zero": acc is not None and acc["nmse_db"] < 0.0,
    }
    correct = (failed == 0 and repeat_ok and masks_ok and checks["estimator_beats_zero"]
               and checks["accuracy_scores"] == n_acc * wl.scores_per_op)
    details: dict = {"workload": name, "seed": seed, "ops": i, "checks": checks,
                     "failures": failures[:5]}
    if acc is not None:
        details["accuracy"] = {
            f"nmse_{wl.estimator}_db": acc["nmse_db"],
            "nmse_linear_db": acc["ref_nmse_db"],
            "nmse_gain_vs_linear_db": acc["gain_db"],
            "nmse_gain_vs_linear_worst_db": acc["gain_worst_db"],
            "per_level_nmse_db": acc["per_level_db"],
            "per_level_gain_db": acc["per_level_gain_db"],
        }

    if tracer is None:
        samples = timed[False]
        per_slot_ms = [1000.0 * t / wl.slots_per_op for t in samples]
        tail, pct, n = summary.tail_percentile(per_slot_ms)
        metrics = {
            "slot_p50_ms": (statistics.median(per_slot_ms), "ms"),
            "slot_tail_ms": (tail, "ms"),
            "slots_per_s": (wl.slots_per_op * len(samples) / sum(samples), "1/s"),
            "neg_nmse_db": (-acc["nmse_db"] if acc else float("nan"), "dB"),
            "gain_vs_linear": (acc["gain"] if acc else float("nan"), "x"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        details["latency"] = {"tail_percentile": pct, "samples": n,
                              "failed_frac": failed / attempted}
        return RunResult(correct, attempted, failed, metrics, details)

    counts = _per_op_counts(tracer)
    steady = [c for op, c in sorted(counts.items()) if op >= 0][1:]
    counts_ok = len(set(steady)) <= 1
    checks["layer_calls_repeat_per_slot"] = counts_ok
    metrics, bases = layer_metrics(tracer, wl, traced_ops, timed)
    details["trace_bases"] = bases
    details["span_names"] = sorted({s.name for s in tracer.spans})
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    return RunResult(correct and counts_ok, attempted, failed, metrics, details)


# --- environment -------------------------------------------------------------

def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {"name": info.get("name"), "version": info.get("version")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "channel_cntk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    """What a result depends on besides the code: versions, BLAS, cores, CPU, seed."""
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }
