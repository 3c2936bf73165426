"""Self-tests of the benchmark: its reductions, its tracer and a tiny run of each workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import summary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestTailPercentile:
    def test_exactly_ten_samples_beyond(self):
        xs = list(range(60, 0, -1))
        value, pct, n = summary.tail_percentile(xs)
        assert (value, n) == (50, 60)
        assert pct == pytest.approx(100 * 50 / 60)
        assert sum(x > value for x in xs) == summary.TAIL_BEYOND

    def test_eleven_samples_is_the_floor(self):
        value, pct, n = summary.tail_percentile([5.0] * 10 + [1.0])
        assert (value, n) == (1.0, 11)
        assert pct == pytest.approx(100 / 11)

    def test_ten_samples_have_no_tail(self):
        with pytest.raises(ValueError, match="more than 10"):
            summary.tail_percentile([1.0] * 10)


class TestNmseAggregation:
    def test_expectation_inside_the_log(self):
        s = summary.nmse_summary({0.0: [0.1, 0.001]}, {0.0: [0.2, 0.002]})
        # the mean of the logs would be -20 dB
        assert s["nmse_db"] == pytest.approx(10 * math.log10(0.0505))
        assert s["gain_db"] == pytest.approx(10 * math.log10(2.0))

    def test_levels_weigh_equally_in_db(self):
        est = {0.0: [0.1] * 9, 30.0: [0.001]}
        ref = {0.0: [0.1] * 9, 30.0: [0.01]}
        s = summary.nmse_summary(est, ref)
        assert s["nmse_db"] == pytest.approx(-20.0)
        assert s["gain_db"] == pytest.approx(5.0)
        assert s["gain_worst_db"] == pytest.approx(0.0)
        assert s["gain"] == pytest.approx(10 ** 0.5)

    def test_levels_must_match(self):
        with pytest.raises(ValueError, match="different levels"):
            summary.nmse_summary({0.0: [0.1]}, {10.0: [0.1]})


class TestSpans:
    def test_self_time_on_a_synthetic_tree(self):
        S = spans.Span
        tree = [
            S("root", 0, 100, -1, 0),
            S("a", 10, 30, 0, 0),
            S("b", 20, 50, 0, 0),  # overlaps a: the union counts once
            S("a.child", 12, 28, 1, 0),  # grandchild: not root's direct child
            S("c", 90, 120, 0, 0),  # runs past its parent: clipped
        ]
        assert spans.self_times(tree) == [100 - 40 - 10, 20 - 16, 30, 16, 30]
        t = spans.totals(tree)
        assert t["root"].self_ns == 50 and t["a"].total_ns == 20

    def test_wrappers_record_parents_ops_and_errors_then_restore(self):
        mod = types.SimpleNamespace()

        def inner(x):
            if x < 0:
                raise ValueError("negative")
            return 2 * x

        def outer(x):
            return mod.inner(x) + 1

        mod.inner, mod.outer = inner, outer
        seen = []
        tracer = spans.Tracer()
        targets = [(mod, "outer", "outer", None),
                   (mod, "inner", "inner", lambda tr, args, kw: seen.append(args[0]))]
        with tracer.recording(targets, op=7):
            assert mod.outer(3) == 7
            with pytest.raises(ValueError):
                mod.outer(-1)
        assert mod.inner is inner and mod.outer is outer
        names = [(s.name, s.parent, s.op, s.error) for s in tracer.spans]
        assert names == [("outer", -1, 7, None), ("inner", 0, 7, None),
                         ("outer", -1, 7, "ValueError"), ("inner", 2, 7, "ValueError")]
        assert seen == [3, -1]

    def test_one_wrapper_per_function_under_two_names(self):
        a, b = types.SimpleNamespace(), types.SimpleNamespace()
        a.f = b.f = lambda: 1
        tracer = spans.Tracer()
        with tracer.recording([(a, "f", "f", None), (b, "f", "f", None)], op=0):
            assert a.f is b.f
            a.f()
        assert len(tracer.spans) == 1


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run(name, trace):
    import bench
    rows = 24
    r = bench.run_workload(name, seed=3, seconds=0.0, trace=trace, rows=rows, accuracy_ops=4)
    assert r.correct, r.details
    assert r.failed == 0 and r.attempted >= bench.MIN_OPS
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec if m["name"] != "setup_s"}
    assert {k: u for k, (_, u) in r.metrics.items()} == expected
    assert all(math.isfinite(v) for v, _ in r.metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in r.metrics.values())
        return
    m = {k: v for k, (v, _) in r.metrics.items()}
    bands = rows // 12
    if name == "sweep-classical":
        assert m["cntk.compute_cntk_calls_per_slot"] == 0
        assert m["imputer.kernel_regress_calls_per_slot"] == 0
        assert m["evaluate.simulations_per_data_cell"] == 3.0
        assert not any(s.startswith(("cntk.", "imputer.")) for s in r.details["span_names"])
    else:
        assert m["cntk.compute_cntk_calls_per_slot"] == bands
        assert m["cntk.patch_aggregate_calls_per_slot"] == 16 * bands
        assert m["cntk.leaky_relu_duals_calls_per_slot"] == 8 * bands
        assert m["evaluate.simulations_per_data_cell"] == 1.0
        per_key = m["cntk.builds_per_mask_key"]
        assert per_key == 1.0 if name == "slot-mask-churn" else per_key > bands


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
