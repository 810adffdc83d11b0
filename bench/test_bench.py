"""Self-tests of the benchmark: the tail-percentile rule, self time of
nested spans, seed determinism of the inputs, and a smoke run of every
workload in both modes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def test_tail_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(ValueError):
        measure.tail_percentile(list(range(1, 100)), 90)  # 9 beyond
    assert measure.tail_percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        measure.tail_percentile(list(range(999)), 99)
    assert measure.tail_percentile(list(range(1000)), 99) == 989
    assert measure.samples_beyond(1000, 99) == 10


def test_self_time_of_nested_spans():
    spans = [Span("a", 0.0, 10.0, -1, 0),
             Span("b", 1.0, 4.0, 0, 0),
             Span("c", 5.0, 9.0, 0, 0),
             Span("d", 6.0, 7.0, 2, 0)]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    totals = tracing.aggregate(spans)
    selfs, unattributed, ok = tracing.attribution(totals, 12.0)
    assert ok and unattributed == 2.0
    assert selfs == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}


def test_union_of_overlapping_children_is_counted_once():
    assert tracing.union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0


def test_nested_span_of_the_same_name_is_not_counted_twice():
    spans = [Span("x", 0.0, 4.0, -1, 0, {"rows": 5}),
             Span("x", 1.0, 2.0, 0, 0, {"rows": 5})]
    totals = tracing.aggregate(spans)
    assert totals.calls["x"] == 1
    assert totals.seconds["x"] == 4.0
    assert totals.self_seconds["x"] == 4.0
    assert totals.counts["x"]["rows"] == 5


def test_tracer_records_parents_and_restores_originals():
    mod = types.SimpleNamespace()
    mod.inner = lambda v: v + 1
    mod.outer = lambda v: mod.inner(v) * 2
    originals = (mod.inner, mod.outer)
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    assert t.patch(mod, "inner", "inner", lambda a, k, r: {"value": r})
    assert t.patch(mod, "outer", lambda a, k: f"outer.{a[0]}")
    assert not t.patch(mod, "gone", "gone")
    t.op = 7
    assert mod.outer(1) == 4
    t.unpatch()
    assert (mod.inner, mod.outer) == originals
    assert t.spans == [Span("outer.1", 0.0, 3.0, -1, 7), Span("inner", 1.0, 2.0, 0, 7, {"value": 2})]


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    import workloads

    for name in ("fit-binary-n20k", "fit-gauss2-n2k"):
        wl = workloads.WORKLOADS[name]
        files = {}
        for label, seed in (("a", 5), ("b", 5), ("c", 6)):
            work = tmp_path / name / label
            work.mkdir(parents=True)
            out = workloads.Outcome()
            argv = wl._write_inputs(seed, work, out)
            assert not out.problems
            files[label] = Path(argv[argv.index("--data") + 1]).read_bytes()
        assert files["a"] == files["b"]
        assert files["a"] != files["c"]
    kernel = workloads.WORKLOADS["kernel-scalar"]
    a, b = kernel._inputs(5)[1][:50], kernel._inputs(5)[1][:50]
    assert all(repr(u) == repr(v) for u, v in zip(a, b))


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernel-scalar",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert run.returncode != 0
    assert run.stdout == ""


def test_smoke_every_workload_reports_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload["name"], "--seed", "5",
                 "--seconds", "0.5", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            result = json.loads(run.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], run.stderr
            assert result["attempted"] >= 1 and result["failed"] == 0
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in spec[key]}
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values())
