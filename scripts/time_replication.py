#!/usr/bin/env python3
"""Per-phase timing of Monte Carlo replications.

For each scenario, draws replications as `drlogit simulate --seed SEED`
does (the i-th listed scenario takes seed SEED + 1009 i, replication r the
stream SeedSequence(seed, spawn_key=(r,))) and times each phase of one
replication in this process: the sampler, b(x), the outcome fit, the
covariate fit and, per estimator, the kernel build, the Newton solve and the
sandwich.  It prints the median ms per replication of every phase, then the
median number of Newton equation evaluations (`system` calls) and of
kernel weights (`_Kernel.weight`, one exp over the Y=1 rows each) per beta
solve, and one JSON line with the same numbers.

    PYTHONPATH=src python3 scripts/time_replication.py \
        --scenario S1-binary --n 2000 --reps 50 --seed 7

The counts come from a second, untimed pass, so counting adds nothing to the
times.  The script calls drlogit's private estimator pieces (`_Context`,
`_solve`, `_assemble`); point PYTHONPATH at another checkout's src/ to time
that checkout with the same script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import drlogit.estimators as estimators
from drlogit.estimators import _assemble, _Context, _solve
from drlogit.model import EstimationError, InstrumentSpec
from drlogit.nuisance import _fit_outcome_mle
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


def _replication(sc, rep: int, clock) -> None:
    """One replication, each phase run through clock(phase, fn, *args); an
    estimator that fails (as closed_form does on Gaussian Z) is skipped."""
    seed = np.random.SeedSequence(sc.seed, spawn_key=(rep,))
    data = clock("sample", sample_dataset, sc.law, sc.n, seed)
    basis = sc.working_basis
    bmat = clock("design", basis.design, data.x)
    outcome = clock("outcome_fit", _fit_outcome_mle, data, basis, bmat)
    ctx = _Context(data, basis, sc.z_families, outcome=outcome, bmat=bmat)
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


def _newton_counts(sc, reps: int) -> dict:
    """Median `system` calls and weight evaluations per beta solve, per
    estimator, from an untimed pass with counting wrappers installed."""
    real_newton, real_weight = estimators.damped_newton, estimators._Kernel.weight
    counts = {"system": 0, "weight": 0}
    per_solve = defaultdict(lambda: defaultdict(list))

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

    estimators.damped_newton, estimators._Kernel.weight = counting_newton, counting_weight
    try:
        for rep in range(reps):
            _replication(sc, rep, solve_clock)
    finally:
        estimators.damped_newton, estimators._Kernel.weight = real_newton, real_weight
    return {name: {"system_calls_per_solve": statistics.median(c["system"]),
                   "weight_evaluations_per_solve": statistics.median(c["weight"])}
            for name, c in per_solve.items()}


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
        for rep in range(2):  # warm-up: imports, quadrature nodes
            _replication(sc, rep, lambda phase, fn, *a: fn(*a))
        per_rep = []
        for rep in range(args.reps):
            clock = _Clock()
            _replication(sc, rep, clock)
            per_rep.append(clock.ms)
        phases = list(dict.fromkeys(p for ms in per_rep for p in ms))
        per_phase = {p: round(statistics.median(ms.get(p, 0.0) for ms in per_rep), 4)
                     for p in phases}
        total = round(statistics.median(sum(ms.values()) for ms in per_rep), 4)
        counts = _newton_counts(sc, args.reps)

        print(f"{name}  n={sc.n}  reps={args.reps}  seed={sc.seed}")
        for phase, ms in per_phase.items():
            print(f"  {phase:<24}{ms:>10.4f} ms")
        print(f"  {'replication (median)':<24}{total:>10.4f} ms")
        for est, c in counts.items():
            print(f"  {est:<24}{c['system_calls_per_solve']:>6g} system calls, "
                  f"{c['weight_evaluations_per_solve']:g} weight evaluations per solve")
        print(json.dumps({"scenario": name, "n": sc.n, "reps": args.reps, "seed": sc.seed,
                          "per_phase_ms": per_phase, "replication_ms": total,
                          "newton": counts}, sort_keys=True))


if __name__ == "__main__":
    main()
