"""Smoke tests of the helper scripts under scripts/."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_time_replication_counts_one_weight_per_system_call():
    """scripts/time_replication.py runs on a small sample and ends with its
    JSON line; each scenario's JSON line reports, for every DR estimator,
    one kernel weight evaluation per Newton `system` call (one exp per
    trial point, none extra for the Jacobian)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "time_replication.py"), "--n", "300",
         "--reps", "2"], env=env, capture_output=True, text=True, check=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    json.loads(lines[-1])
    reports = [json.loads(line) for line in lines if line.startswith("{")]
    assert [r["scenario"] for r in reports] == ["S1-binary", "S2-gaussian"]
    for report in reports:
        newton = report["newton"]
        assert sorted(newton) == ["dr_identity", "dr_optimal", "dr_simple"]
        for counts in newton.values():
            assert counts["system_calls_per_solve"] >= 1
            assert counts["weight_evaluations_per_solve"] == counts["system_calls_per_solve"]
