#!/usr/bin/env python3
"""Per-variant timing of the scalar estimating-function kernels.

Times every call of `ee_dr` and of `ee_instrument` with the linear
instrument phi(x) z, for each instrument variant (identity, simple,
optimal), on two kinds of random input: scalar Bernoulli Z (p=1, the
inputs of the `kernel-scalar` benchmark workload) and two Gaussian Z
components (p=2).  Every (case, kernel, variant) is timed in each of
PASSES passes, and the passes interleave them.  Each pass's median
microseconds per call is scaled by the benchmark's host-speed calibration
(bench/measure.py), timed just before and just after it, to read as on a
host where the calibration loop takes CAL_REF_S: a shared host's speed
drifts by tens of percent over seconds, and the scaling divides most of
that out.  It prints the median over the passes of these scaled medians,
with their min-max over the passes beside it, then one JSON line with the
same numbers: `us_per_call` holds the medians and `us_spread` the
[min, max] pairs, so that a difference between two runs can be read
against each run's own spread.

    PYTHONPATH=src python3 scripts/time_kernels.py --inputs 2000 --seed 7

The benchmark's `model.ee_dr.us` averages over its 7:2:1 mix of simple,
identity and optimal calls; this script separates the variants.  Point
PYTHONPATH at another checkout's src/ to time that checkout with the same
script.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from drlogit.model import (Basis, CovariateModelParams, InstrumentSpec, LinearInstrument,
                           ee_dr, ee_instrument)

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from measure import CAL_REF_S, Calibration  # noqa: E402

VARIANTS = ("identity", "simple", "optimal")
PASSES = 5


def _bernoulli_p1(rng: np.random.Generator, count: int):
    """The kernel-scalar inputs: binary z, one uniform x, a Bernoulli
    covariate model drawn per input."""
    draws = []
    for _ in range(count):
        covar = CovariateModelParams(rng.uniform(-1.2, 1.2, (1, 2)), ("bernoulli",),
                                     np.array([math.nan]))
        draws.append((int(rng.integers(0, 2)), np.array([float(rng.integers(0, 2))]),
                      rng.uniform(-1.5, 1.5, 1), rng.uniform(-1.5, 1.5, 1),
                      rng.uniform(-1.5, 1.5, 2), covar))
    return Basis.linear_in(1), draws


def _gaussian_p2(rng: np.random.Generator, count: int):
    """Two Gaussian Z components on a linear basis in two coordinates."""
    draws = []
    for _ in range(count):
        covar = CovariateModelParams(rng.uniform(-1.0, 1.0, (2, 3)), ("gaussian", "gaussian"),
                                     rng.uniform(0.5, 1.5, 2))
        draws.append((int(rng.integers(0, 2)), rng.normal(size=2), rng.uniform(-1.5, 1.5, 2),
                      rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 3), covar))
    return Basis.linear_in(2), draws


CASES = {"p1-bernoulli": _bernoulli_p1, "p2-gaussian": _gaussian_p2}


def _median_ns(kernel, instrument, basis, draws) -> float:
    clock = time.perf_counter_ns
    times = []
    for y, z, x, beta, alpha, covar in draws:
        t0 = clock()
        kernel(y, z, x, beta, alpha, covar, instrument, basis)
        times.append(clock() - t0)
    return statistics.median(times)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--inputs", type=int, default=2000, help="random inputs per case")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.inputs < 1:
        ap.error("--inputs must be positive")

    inputs = {case: make(np.random.default_rng(args.seed), args.inputs)
              for case, make in CASES.items()}
    cal = Calibration()
    cal_before = cal.seconds()
    timings: dict = {}
    for pass_ in range(PASSES):
        for case, (basis, draws) in inputs.items():
            for variant in VARIANTS:
                spec = InstrumentSpec(variant)
                for kernel, instrument in ((ee_dr, spec),
                                           (ee_instrument, LinearInstrument(spec))):
                    if pass_ == 0:
                        _median_ns(kernel, instrument, basis, draws[:50])  # warm-up
                    ns = _median_ns(kernel, instrument, basis, draws)
                    cal_after = cal.seconds()
                    timings.setdefault((case, kernel.__name__, variant), []).append(
                        ns * 2.0 * CAL_REF_S / (cal_before + cal_after))
                    cal_before = cal_after
    us: dict = {}
    spread: dict = {}
    for (case, name, variant), medians in timings.items():
        us.setdefault(case, {}).setdefault(name, {})[variant] = round(
            statistics.median(medians) / 1e3, 3)
        spread.setdefault(case, {}).setdefault(name, {})[variant] = [
            round(min(medians) / 1e3, 3), round(max(medians) / 1e3, 3)]

    print(f"median us per call at the reference host speed, {args.inputs} inputs per case, "
          f"seed {args.seed}, median (min-max) of {PASSES} passes")
    print(f"  {'case':<14}{'kernel':<15}" + "".join(f"{v:>24}" for v in VARIANTS))
    for case, kernels in us.items():
        for name, per_variant in kernels.items():
            ranges = spread[case][name]
            cells = [f"{per_variant[v]:.2f} ({ranges[v][0]:.2f}-{ranges[v][1]:.2f})"
                     for v in VARIANTS]
            print(f"  {case:<14}{name:<15}" + "".join(f"{c:>24}" for c in cells))
    print(json.dumps({"inputs": args.inputs, "seed": args.seed, "passes": PASSES,
                      "us_per_call": us, "us_spread": spread}, sort_keys=True))


if __name__ == "__main__":
    main()
