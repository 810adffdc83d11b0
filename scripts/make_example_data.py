#!/usr/bin/env python3
"""Regenerate the bundled example dataset and fit config.

The dataset is drawn from the catalog's S1b0-binary law (true beta = 0,
both working models correct), n=600, seed recorded below, so every
estimator should report |beta_hat| within sampling noise of zero.
"""

import json
from pathlib import Path

from drlogit.simulate import sample_dataset, scenario_catalog, write_dataset_csv

SEED = 20240817
N = 600

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def main() -> None:
    DATA.mkdir(exist_ok=True)
    sc = next(s for s in scenario_catalog() if s.name == "S1b0-binary")
    ds = sample_dataset(sc.law, N, SEED)
    write_dataset_csv(DATA / "example_binary_beta0.csv", ds)
    config = {
        "basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0}],
        "z_families": ["bernoulli"],
        "estimators": ["mle", "dr_identity", "dr_simple", "dr_optimal", "closed_form"],
        "level": 0.95,
    }
    with open(DATA / "example_fit_config.json", "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DATA / 'example_binary_beta0.csv'} (n={N}, seed={SEED})")
    print(f"wrote {DATA / 'example_fit_config.json'}")


if __name__ == "__main__":
    main()
