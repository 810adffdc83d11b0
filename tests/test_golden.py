"""Golden outputs: `drlogit fit` on the bundled example with every known
estimator and the `run_scenario` summaries of two catalog scenarios, against
values recorded before the beta solve was moved onto a shared
estimating-equation class (the summaries: before the estimator menu shared
one per-dataset context).

Floats must agree to 1e-12 * max(1, |want|); integer counts, flags and
strings exactly.  To record the file again from the current code:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from drlogit.cli import main
from drlogit.simulate import (KNOWN_ESTIMATORS, run_scenario, scenario_catalog, summary_rows,
                              with_size)

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
EXAMPLE_CSV = REPO / "data" / "example_binary_beta0.csv"


def _fit_example_menu() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({
            "basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0}],
            "z_families": ["bernoulli"], "estimators": list(KNOWN_ESTIMATORS)}))
        rc = main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(cfg),
                   "--out", tmp])
        assert rc == 0
        return json.loads((Path(tmp) / "estimates.json").read_text())


def _simulate_summaries() -> list:
    """Summary rows of S1-binary and S2-gaussian at n=600, R=20 with every
    known estimator (closed_form on the binary edition only)."""
    rows = []
    for name in ("S1-binary", "S2-gaussian"):
        sc = with_size(next(s for s in scenario_catalog() if s.name == name),
                       n=600, replications=20)
        menu = [e for e in KNOWN_ESTIMATORS
                if e != "closed_form" or sc.z_families[0] == "bernoulli"]
        rows += summary_rows(run_scenario(sc, menu))
    return rows


def _observed() -> dict:
    return {"fit_example_menu": _fit_example_menu(),
            "simulate": _simulate_summaries()}


def _assert_close(got, want, path: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (path, got, want)
    else:  # int, bool, str
        assert type(got) is type(want) and got == want, (path, got, want)


def test_outputs_match_golden():
    _assert_close(_observed(), json.loads(GOLDEN.read_text()), "golden")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(_observed(), indent=1, sort_keys=True) + "\n")
