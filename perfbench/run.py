#!/usr/bin/env python3
"""Run one channel-cntk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload slot-fixed --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. The line before it holds the environment and the details behind the
metrics (tail percentile and sample count, NMSE in dB per SNR level, check
results, trace bases). The program is imported from ./src of the checkout
this file sits in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up (import through the first warm-up operation) is measured in this
#: many fresh processes and reported as their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150

#: One BLAS thread: the closed loop has one caller, its hot paths are
#: elementwise NumPy and small factorizations, and idle BLAS workers only
#: contend with it for the machine's cores.
BLAS_THREADS = "1"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Put ./src first on sys.path and import the benchmark (which imports the program)."""
    sys.path.insert(0, str(SRC))
    import bench
    import channel_cntk
    if not Path(channel_cntk.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"channel_cntk came from {channel_cntk.__file__}, not {SRC}")
    return bench


def _setup_probe(args) -> int:
    t0 = time.perf_counter()
    bench = _import_program()
    bench.warm_up(args.workload, args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


def _setup_seconds(args) -> list[float]:
    """Import plus first warm-up operation, each in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "channel_cntk" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'channel_cntk'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.setup_probe:
        return _setup_probe(args)

    setup = [] if args.trace else _setup_seconds(args)
    bench = _import_program()
    spans_path = (HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
                  if args.trace else None)
    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                spans_path=spans_path)
    metrics = dict(result.metrics)
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        result.details["setup_s_samples"] = setup
    print(json.dumps({"env": bench.environment(args.seed), "details": result.details}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
