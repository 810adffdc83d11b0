"""Smoke tests of the helper scripts under scripts/."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(REPO / "scripts" / name), *args], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return out.stdout.strip().splitlines()


def test_time_replication_counts_one_weight_per_system_call():
    """scripts/time_replication.py runs on a small sample and ends with its
    JSON line; each scenario's JSON line reports, for every DR estimator,
    one kernel weight evaluation per Newton `system` call (one exp per
    trial point, none extra for the Jacobian)."""
    lines = _run_script("time_replication.py", "--n", "300", "--reps", "2")
    json.loads(lines[-1])
    reports = [json.loads(line) for line in lines if line.startswith("{")]
    assert [r["scenario"] for r in reports] == ["S1-binary", "S2-gaussian"]
    for report in reports:
        newton = report["newton"]
        assert sorted(newton) == ["dr_identity", "dr_optimal", "dr_simple"]
        for counts in newton.values():
            assert counts["system_calls_per_solve"] >= 1
            assert counts["weight_evaluations_per_solve"] == counts["system_calls_per_solve"]


def test_time_kernels_reports_every_kernel_and_variant():
    """scripts/time_kernels.py ends with a JSON line holding a positive
    median per (case, kernel, variant)."""
    lines = _run_script("time_kernels.py", "--inputs", "20")
    report = json.loads(lines[-1])
    assert report["inputs"] == 20
    us = report["us_per_call"]
    assert sorted(us) == ["p1-bernoulli", "p2-gaussian"]
    for kernels in us.values():
        assert sorted(kernels) == ["ee_dr", "ee_instrument"]
        for per_variant in kernels.values():
            assert sorted(per_variant) == ["identity", "optimal", "simple"]
            assert all(v > 0 for v in per_variant.values())
