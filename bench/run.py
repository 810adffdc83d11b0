#!/usr/bin/env python3
"""Layered benchmark of drlogit.

    python3 bench/run.py --workload fit-binary-n20k --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 20 --trace 1
    python3 bench/run.py --write-reference

Run from the root of a checkout: the package is imported from the
checkout's src/ directory, never from an installed copy.  With --trace 0
a run measures the end-to-end metrics with tracing off; with --trace 1 it
makes the traced pass and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Generated inputs and outputs go to .bench_work/.
See NOTES.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from measure import BLAS_THREAD_VARS, CAL_REF_S, Calibration, host_record, median, setup_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
NAMES = ("fit-binary-n20k", "fit-gauss2-n2k", "mc-catalog", "kernel-scalar")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default-seed betas and SEs in reference.json")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print("\nsummary:")
    for name, res in results.items():
        if res is None:
            print(f"  {name}: no result")
            continue
        metrics = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"  {name}: correct={res['correct']} failed={res['failed']}/{res['attempted']}"
              f" {metrics}")
    ok = all(r is not None and r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "drlogit" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'drlogit'}; run the benchmark from "
              "the root of a drlogit checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # one BLAS thread per process: with the 2-worker pool that keeps the
    # compute threads at the core count; set before numpy is loaded
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import drlogit
    import workloads

    if Path(drlogit.__file__).resolve().parent != (SRC / "drlogit").resolve():
        print(f"error: imported drlogit from {drlogit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    if args.write_reference:
        ref = {"default_seed": workloads.DEFAULT_SEED, "workloads": {}}
        for name in NAMES:
            work = _fresh(WORK / name / "reference")
            ref["workloads"][name] = workloads.WORKLOADS[name].reference(work)
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}")
        return 0

    print("host: " + json.dumps(host_record(), sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    out = workloads.Outcome()
    cal = Calibration()
    if not args.trace:
        setup = setup_seconds(SRC, cal)
        out.metrics["setup_s"] = median([s * f for s, f in setup])
        out.report.append(f"setup_s = {median([s for s, _ in setup]):.6g} s  (median of "
                          f"{len(setup)} fresh interpreters importing drlogit.cli; "
                          f"{out.metrics['setup_s']:.6g} s at reference speed)")

    wl = workloads.WORKLOADS[args.workload]
    want = json.loads(REFERENCE.read_text())["workloads"].get(args.workload) \
        if REFERENCE.is_file() else None
    got = wl.reference(_fresh(WORK / args.workload / "reference"))
    diffs = ["reference.json has no entry"] if want is None else workloads.agree(got, want)
    out.check(not diffs, f"default-seed outputs disagree with reference.json: {diffs[:3]}")

    # numpy seeds must be non-negative; any integer --seed maps to one
    wl.run(args.seed % 2**32, args.seconds, bool(args.trace),
           _fresh(WORK / args.workload / "run"), out, cal)
    if not args.trace:
        out.report.append(f"metrics below: times scaled to the reference host speed, where "
                          f"the calibration loop takes {CAL_REF_S * 1e3:g} ms")

    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = sorted(set(names) - set(out.metrics))
    out.check(not missing, f"metrics not measured: {missing}")
    for line in out.report:
        print(line)
    for name, unit in names.items():
        print(f"{name} = {out.metrics.get(name, 0.0):.6g} {unit}")
    print(f"fail_frac = {out.failed / max(out.attempted, 1):.6g}  "
          f"({out.failed} of {out.attempted} operations)")
    for problem in out.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not out.problems and out.failed == 0 and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": out.metrics.get(k, 0.0), "unit": u} for k, u in names.items()},
    }))
    return 0


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


if __name__ == "__main__":
    raise SystemExit(main())
