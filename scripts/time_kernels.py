#!/usr/bin/env python3
"""Per-variant timing of the scalar estimating-function kernels.

Times every call of `ee_dr` and of `ee_instrument` with the linear
instrument phi(x) z, for each instrument variant (identity, simple,
optimal), on two kinds of random input: scalar Bernoulli Z (p=1, the
inputs of the `kernel-scalar` benchmark workload) and two Gaussian Z
components (p=2).  It prints the median microseconds per call of each
(case, kernel, variant), then one JSON line with the same numbers.

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
import time

import numpy as np

from drlogit.model import (Basis, CovariateModelParams, InstrumentSpec, LinearInstrument,
                           ee_dr, ee_instrument)

VARIANTS = ("identity", "simple", "optimal")


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


def _median_us(kernel, instrument, basis, draws) -> float:
    clock = time.perf_counter_ns
    times = []
    for y, z, x, beta, alpha, covar in draws:
        t0 = clock()
        kernel(y, z, x, beta, alpha, covar, instrument, basis)
        times.append(clock() - t0)
    return round(statistics.median(times) / 1e3, 3)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--inputs", type=int, default=2000, help="random inputs per case")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.inputs < 1:
        ap.error("--inputs must be positive")

    us: dict = {}
    for case, make in CASES.items():
        basis, draws = make(np.random.default_rng(args.seed), args.inputs)
        us[case] = {"ee_dr": {}, "ee_instrument": {}}
        for variant in VARIANTS:
            spec = InstrumentSpec(variant)
            for kernel, instrument in ((ee_dr, spec), (ee_instrument, LinearInstrument(spec))):
                _median_us(kernel, instrument, basis, draws[:50])  # warm-up
                us[case][kernel.__name__][variant] = _median_us(kernel, instrument, basis, draws)

    print(f"median us per call, {args.inputs} inputs per case, seed {args.seed}")
    print(f"  {'case':<14}{'kernel':<15}" + "".join(f"{v:>10}" for v in VARIANTS))
    for case, kernels in us.items():
        for name, per_variant in kernels.items():
            print(f"  {case:<14}{name:<15}"
                  + "".join(f"{per_variant[v]:>10.2f}" for v in VARIANTS))
    print(json.dumps({"inputs": args.inputs, "seed": args.seed, "us_per_call": us},
                     sort_keys=True))


if __name__ == "__main__":
    main()
