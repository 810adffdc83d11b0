#!/usr/bin/env python3
"""Per-phase timing of Monte Carlo replications.

For each scenario, draws replications as `drlogit simulate --seed SEED`
does (the i-th listed scenario takes seed SEED + 1009 i, replication r the
stream SeedSequence(seed, spawn_key=(r,))) and times each phase of one
replication in this process: the sampler, the collapse of the sample onto
its distinct (y, z, x) rows, b(x), the outcome fit, the covariate fit and,
per estimator, the kernel build, the Newton solve and the sandwich.  It
prints the median ms per replication of every phase, the median and range
of the distinct rows per replication, then the median number of Newton
equation evaluations (`system` calls) and of residual weights
(`_LevelPieces.weight`, one exp over the Y=1 rows each) per beta solve, the
mean number of `np.linalg.solve` and `np.linalg.inv` calls per replication, and
one JSON line with the same numbers.

    PYTHONPATH=src python3 scripts/time_replication.py \
        --scenario S1-binary --n 2000 --reps 50 --seed 7

The counts come from a second, untimed pass, so counting adds nothing to the
times.  The script calls drlogit's private estimator pieces (`_distinct`,
`_fit_outcome_mle`, `Estimation._of_rows`, `_solve`, `_assemble`); a checkout
whose pieces have other signatures is timed with its own copy of the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import drlogit.estimators as estimators
from drlogit.estimators import Estimation, _assemble, _solve
from drlogit.model import EstimationError, InstrumentSpec
from drlogit.nuisance import _distinct, _fit_outcome_mle
from drlogit.simulate import sample_dataset, scenario_catalog, with_size

# the mc-catalog benchmark menu
MENU = ("mle", "dr_identity", "dr_simple", "dr_optimal", "closed_form")


class _Clock:
    """Accumulates wall time per phase name for one replication."""

    def __init__(self):
        self.ms = defaultdict(float)

    def __call__(self, phase, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.ms[phase] += (time.perf_counter() - t0) * 1e3
        return out


def _replication(sc, rep: int, clock) -> int:
    """One replication, each phase run through clock(phase, fn, *args); an
    estimator that fails (as closed_form does on Gaussian Z) is skipped.
    Returns the number of distinct rows of the sample."""
    seed = np.random.SeedSequence(sc.seed, spawn_key=(rep,))
    data = clock("sample", sample_dataset, sc.law, sc.n, seed)
    rows = clock("collapse", _distinct, data)
    basis = sc.working_basis
    bmat = clock("design", basis.design, rows.data.x)
    outcome = clock("outcome_fit", _fit_outcome_mle, rows, bmat)
    ctx = Estimation._of_rows(rows, basis, sc.z_families, outcome=outcome, bmat=bmat)
    clock("covariate_fit", ctx.covar, 0)
    for name in MENU:
        if name == "mle":
            continue
        try:
            if name == "closed_form":
                kernel = ctx.kernel(InstrumentSpec("simple"))
                beta = np.array([clock("closed_form.solve", ctx.closed_form)])
                clock("closed_form.sandwich", _assemble, kernel, beta)
                continue
            kernel = clock(f"{name}.kernel", ctx.kernel, InstrumentSpec(name.removeprefix("dr_")))
            res = clock(f"{name}.newton", _solve, kernel, ctx.outcome.params.beta)
            clock(f"{name}.sandwich", _assemble, kernel, res.params)
        except (EstimationError, ValueError, np.linalg.LinAlgError):
            continue
    return rows.data.n


def _counts(sc, reps: int) -> tuple[dict, dict]:
    """Median `system` calls and weight evaluations per beta solve, per
    estimator, and mean `np.linalg.solve`/`np.linalg.inv` calls per
    replication, from an untimed pass with counting wrappers installed."""
    real_newton, real_weight = estimators.damped_newton, estimators._LevelPieces.weight
    real_linalg = {"solve": np.linalg.solve, "inv": np.linalg.inv}
    counts = {"system": 0, "weight": 0}
    linalg_calls = dict.fromkeys(real_linalg, 0)
    per_solve = defaultdict(lambda: defaultdict(list))

    def counting_linalg(name):
        def counted(*args, **kwargs):
            linalg_calls[name] += 1
            return real_linalg[name](*args, **kwargs)
        return counted

    def counting_newton(system, *rest):
        # the first callable is the one evaluated at every trial point
        def counted(theta):
            counts["system"] += 1
            return system(theta)
        return real_newton(counted, *rest)

    def counting_weight(self, beta):
        counts["weight"] += 1
        return real_weight(self, beta)

    def solve_clock(phase, fn, *args):
        if not phase.endswith(".newton"):
            return fn(*args)
        before = dict(counts)
        out = fn(*args)
        for key in counts:
            per_solve[phase.removesuffix(".newton")][key].append(counts[key] - before[key])
        return out

    estimators.damped_newton, estimators._LevelPieces.weight = counting_newton, counting_weight
    np.linalg.solve, np.linalg.inv = counting_linalg("solve"), counting_linalg("inv")
    try:
        for rep in range(reps):
            _replication(sc, rep, solve_clock)
    finally:
        estimators.damped_newton, estimators._LevelPieces.weight = real_newton, real_weight
        np.linalg.solve, np.linalg.inv = real_linalg["solve"], real_linalg["inv"]
    newton = {name: {"system_calls_per_solve": statistics.median(c["system"]),
                     "weight_evaluations_per_solve": statistics.median(c["weight"])}
              for name, c in per_solve.items()}
    return newton, {name: calls / reps for name, calls in linalg_calls.items()}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scenario", action="append", help="catalog scenario name; repeat "
                    "for several (default: S1-binary and S2-gaussian)")
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.n < 1 or args.reps < 1:
        ap.error("--n and --reps must be positive")
    catalog = {s.name: s for s in scenario_catalog()}
    names = args.scenario or ["S1-binary", "S2-gaussian"]
    for name in names:
        if name not in catalog:
            ap.error(f"unknown scenario {name!r}; known: {sorted(catalog)}")

    for i, name in enumerate(names):
        sc = with_size(catalog[name], n=args.n, replications=args.reps,
                       seed=args.seed + 1009 * i)
        for rep in range(2):  # warm-up: imports
            _replication(sc, rep, lambda phase, fn, *a: fn(*a))
        per_rep, distinct = [], []
        for rep in range(args.reps):
            clock = _Clock()
            distinct.append(_replication(sc, rep, clock))
            per_rep.append(clock.ms)
        phases = list(dict.fromkeys(p for ms in per_rep for p in ms))
        per_phase = {p: round(statistics.median(ms.get(p, 0.0) for ms in per_rep), 4)
                     for p in phases}
        total = round(statistics.median(sum(ms.values()) for ms in per_rep), 4)
        counts, linalg_calls = _counts(sc, args.reps)

        print(f"{name}  n={sc.n}  reps={args.reps}  seed={sc.seed}")
        for phase, ms in per_phase.items():
            print(f"  {phase:<24}{ms:>10.4f} ms")
        print(f"  {'replication (median)':<24}{total:>10.4f} ms")
        print(f"  {'distinct rows':<24}{statistics.median(distinct):>10g}  "
              f"({min(distinct)}-{max(distinct)})")
        for est, c in counts.items():
            print(f"  {est:<24}{c['system_calls_per_solve']:>6g} system calls, "
                  f"{c['weight_evaluations_per_solve']:g} weight evaluations per solve")
        print(f"  {'np.linalg calls':<24}{linalg_calls['solve']:>6g} solve, "
              f"{linalg_calls['inv']:g} inv per replication")
        print(json.dumps({"scenario": name, "n": sc.n, "reps": args.reps, "seed": sc.seed,
                          "per_phase_ms": per_phase, "replication_ms": total,
                          "distinct_rows": {"median": statistics.median(distinct),
                                            "min": min(distinct), "max": max(distinct)},
                          "newton": counts, "linalg_calls_per_replication": linalg_calls},
                         sort_keys=True))


if __name__ == "__main__":
    main()
