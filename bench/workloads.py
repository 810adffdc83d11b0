"""The four workloads: input generation, timed loops, output checks and
the traced pass.  See NOTES.md for why each workload exists and which
layer it puts in front.

Every workload is a closed loop with one caller: the next call into the
program starts when the previous one has returned.  Inputs come from the
workload seed only and are generated before any timing starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from drlogit import cli, estimators, model, nuisance, simulate
from drlogit.model import Basis, BasisTerm, CovariateModelParams, InstrumentSpec, LinearInstrument

import tracing
from measure import (MIN_BEYOND, Calibration, cpu_seconds, median, peak_rss_mb, samples_beyond,
                     tail_percentile)

# The seed whose outputs are recorded in reference.json; every run also
# recomputes them and checks agreement to REF_TOL.
DEFAULT_SEED = 1
REF_TOL = 1e-12

END_TO_END = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "work_per_s": "1/s",
    "cpu_ms_per_unit": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.read_dataset_csv.ms": "ms",
    "cli.main.self_ms": "ms",
    "nuisance.fit_outcome_mle.ms": "ms",
    "nuisance.fit_outcome_mle.iterations": "count",
    "nuisance.fit_covariate.ms": "ms",
    "nuisance.fit_covariate_y1.ms": "ms",
    "model.instrument_matrices.identity.ms": "ms",
    "model.instrument_matrices.simple.ms": "ms",
    "model.instrument_matrices.optimal.ms": "ms",
    "model.instrument_matrices.optimal.nodes": "count",
    "model.Basis.design.calls_per_op": "count",
    "model.Basis.design.rows_per_op": "count",
    "model.ee_dr.us": "us",
    "model.ee_instrument.us": "us",
    "estimators.solve_dr.ms": "ms",
    "estimators.solve_dr.self_ms": "ms",
    "estimators.solve_dr_y1.ms": "ms",
    "estimators.solve_dr_y1.self_ms": "ms",
    "estimators.solve_dr.iterations": "count",
    "estimators.solve_dr.step_halvings": "count",
    "estimators.assemble_influence.ms": "ms",
    "estimators.closed_form_binary.ms": "ms",
    "simulate.sample_dataset.ms": "ms",
    "simulate.replication.ms": "ms",
    "simulate.parallel_eff": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.wall_ms": "ms",
    "trace.unattributed_ms": "ms",
}


@dataclass
class Outcome:
    """What one workload run hands back: operations attempted and failed,
    checks that failed, metrics (name -> value) and report lines."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    report: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


def agree(got, want, tol: float = REF_TOL, path: str = "") -> list[str]:
    """Differences between two JSON-like values; floats agree when they
    differ by at most tol * max(1, |want|)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for k in want for d in agree(got[k], want[k], tol, f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in agree(g, w, tol, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _quiet_main(argv: list[str]):
    """cli.main with its table output swallowed; returns (exit code or
    exception, wall seconds, CPU seconds incl. reaped children)."""
    with contextlib.redirect_stdout(io.StringIO()):
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # the benchmark counts it and keeps going
            rc = exc
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
    return rc, wall, cpu


@dataclass
class Recorder:
    """Timed chunks of calls.  Each chunk is scaled to the reference host
    speed by the calibration factor measured just before it; the gated
    metrics are medians over calls or chunks, so one chunk slowed by a
    neighbour on the host moves none of them.  Per-call times are kept in
    an 8-byte array, so a faster program's extra samples barely move the
    benchmark's own memory."""

    calls: array = field(default_factory=lambda: array("d"))  # raw wall s per call
    chunks: list = field(default_factory=list)  # (factor, units, calls, raw wall s, CPU s)

    def add(self, factor: float, units: int, walls, cpu: float) -> None:
        if walls:
            self.calls.extend(walls)
            self.chunks.append((factor, units, len(walls), math.fsum(walls), cpu))

    def metrics(self) -> dict:
        factor, units, calls, wall, cpu = (np.array(c, dtype=float) for c in zip(*self.chunks))
        scaled = np.array(self.calls) * np.repeat(factor, calls.astype(int))
        return {"call_p50_ms": float(np.median(scaled)) * 1e3,
                "work_per_s": float(np.median(units / (wall * factor))),
                "cpu_ms_per_unit": float(np.median(cpu * factor / units)) * 1e3}

    def report(self, label: str, scale: float, unit: str, q: float) -> list[str]:
        """Per-workload p50 and tail lines (`fit_p50_ms`, ...), as measured,
        not scaled."""
        factors = [c[0] for c in self.chunks]
        return [f"{label}_p50_{unit} = {median(self.calls) * scale:.6g} {unit}  "
                f"(n={len(self.calls)})",
                _tail_line(f"{label}_p{q:g}_{unit}", scale, unit, self.calls, q),
                f"host speed factor = {median(factors):.4f}  (median of {len(factors)} "
                f"chunks; range {min(factors):.4f} to {max(factors):.4f})"]


def _tail_line(label: str, unit_scale: float, unit: str, walls: list[float], q: float) -> str:
    n = len(walls)
    try:
        v = tail_percentile(walls, q) * unit_scale
        return f"{label} = {v:.6g} {unit}  (n={n}, {samples_beyond(n, q)} beyond)"
    except ValueError:
        return f"{label} = n/a  (n={n}; needs {MIN_BEYOND} samples beyond p{q:g})"


# ---------------------------------------------------------------------------
# Traced pass: where the wrappers go
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _instrument_label(args, kwargs):
    return f"model.instrument_matrices.{_arg(args, kwargs, 0, 'spec').variant}"


def _quadrature_nodes(args, kwargs, result):
    """Rows times quadrature nodes per row, computed from the arguments:
    gh_order nodes per Gaussian component, 2 per Bernoulli one."""
    spec = _arg(args, kwargs, 0, "spec")
    if spec.variant != "optimal":
        return {}
    rows = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "x"))).shape[0]
    covar = _arg(args, kwargs, 3, "covar")
    return {"nodes": rows * math.prod(spec.gh_order if f == "gaussian" else 2
                                      for f in covar.families)}


def _design_rows(args, kwargs, result):
    return {"rows": np.shape(result)[0]}


def _outcome_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _solve_diagnostics(args, kwargs, result):
    return {"iterations": result.diagnostics.iterations,
            "step_halvings": result.diagnostics.step_halvings}


def install_layer_spans(t: tracing.Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    t.patch(cli, "main", "cli.main")
    t.patch(cli, "read_dataset_csv", "cli.read_dataset_csv")
    for mod in (cli, simulate, nuisance):
        t.patch(mod, "fit_outcome_mle", "nuisance.fit_outcome_mle", _outcome_iterations)
        t.patch(mod, "fit_covariate", "nuisance.fit_covariate")
        t.patch(mod, "fit_covariate_y1", "nuisance.fit_covariate_y1")
    for mod in (estimators, model):
        t.patch(mod, "instrument_matrices", _instrument_label, _quadrature_nodes)
    # the scalar kernels reach phi through the single-point entry
    t.patch(model, "instrument_matrix", _instrument_label, _quadrature_nodes)
    t.patch(Basis, "design", "model.Basis.design", _design_rows)
    for mod in (cli, simulate):
        t.patch(mod, "solve_dr", "estimators.solve_dr", _solve_diagnostics)
        t.patch(mod, "solve_dr_y1", "estimators.solve_dr_y1", _solve_diagnostics)
        t.patch(mod, "assemble_influence", "estimators.assemble_influence")
        t.patch(mod, "closed_form_binary", "estimators.closed_form_binary")
    t.patch(simulate, "sample_dataset", "simulate.sample_dataset")
    t.patch(model, "ee_dr", "model.ee_dr")
    t.patch(model, "ee_instrument", "model.ee_instrument")


def layer_metrics(totals: tracing.LayerTotals, units: int) -> dict:
    """Per-layer metrics from traced spans; times are per unit of work
    (fit, replication or kernel call) unless the name says otherwise."""
    def ms(name):
        return totals.seconds.get(name, 0.0) * 1e3 / units

    def self_ms(name):
        return totals.self_seconds.get(name, 0.0) * 1e3 / units

    def per_call(name, key):
        calls = totals.calls.get(name, 0)
        return totals.counts[name].get(key, 0.0) / calls if calls else 0.0

    def us_per_call(name):
        calls = totals.calls.get(name, 0)
        return totals.seconds.get(name, 0.0) * 1e6 / calls if calls else 0.0

    inst = "model.instrument_matrices"
    return {
        "cli.read_dataset_csv.ms": ms("cli.read_dataset_csv"),
        "cli.main.self_ms": self_ms("cli.main"),
        "nuisance.fit_outcome_mle.ms": ms("nuisance.fit_outcome_mle"),
        "nuisance.fit_outcome_mle.iterations": per_call("nuisance.fit_outcome_mle", "iterations"),
        "nuisance.fit_covariate.ms": ms("nuisance.fit_covariate"),
        "nuisance.fit_covariate_y1.ms": ms("nuisance.fit_covariate_y1"),
        f"{inst}.identity.ms": ms(f"{inst}.identity"),
        f"{inst}.simple.ms": ms(f"{inst}.simple"),
        f"{inst}.optimal.ms": ms(f"{inst}.optimal"),
        f"{inst}.optimal.nodes": totals.counts[f"{inst}.optimal"].get("nodes", 0.0) / units,
        "model.Basis.design.calls_per_op": totals.calls.get("model.Basis.design", 0) / units,
        "model.Basis.design.rows_per_op":
            totals.counts["model.Basis.design"].get("rows", 0.0) / units,
        "model.ee_dr.us": us_per_call("model.ee_dr"),
        "model.ee_instrument.us": us_per_call("model.ee_instrument"),
        "estimators.solve_dr.ms": ms("estimators.solve_dr"),
        "estimators.solve_dr.self_ms": self_ms("estimators.solve_dr"),
        "estimators.solve_dr_y1.ms": ms("estimators.solve_dr_y1"),
        "estimators.solve_dr_y1.self_ms": self_ms("estimators.solve_dr_y1"),
        "estimators.solve_dr.iterations": per_call("estimators.solve_dr", "iterations"),
        "estimators.solve_dr.step_halvings": per_call("estimators.solve_dr", "step_halvings"),
        "estimators.assemble_influence.ms": ms("estimators.assemble_influence"),
        "estimators.closed_form_binary.ms": ms("estimators.closed_form_binary"),
        "simulate.sample_dataset.ms": ms("simulate.sample_dataset"),
    }


def traced_pass(out: Outcome, work: Path, body) -> tuple[float, int]:
    """Run `body(tracer)` under layer spans.  The body makes the calls,
    sets tracer.op per operation and returns (wall seconds measured around
    its calls, units of work).  Fills the per-layer metrics and prints the
    self-time table."""
    t = tracing.Tracer()
    install_layer_spans(t)
    try:
        wall, units = body(t)
    finally:
        t.unpatch()
    t.write_jsonl(work / "spans.jsonl")
    # a wrapper that could not read a changed signature loses its label or
    # counts; the program's outputs are unaffected, so the run stays correct
    for w in t.warnings[:5]:
        out.report.append(f"trace warning: {w}")
    totals = tracing.aggregate(t.spans)
    out.metrics.update(layer_metrics(totals, units))
    selfs, unattributed, ok = tracing.attribution(totals, wall)
    out.check(ok, "per-layer self times and the remainder do not add up to the traced wall time")
    out.metrics["trace.wall_ms"] = wall * 1e3 / units
    out.metrics["trace.unattributed_ms"] = unattributed * 1e3 / units
    out.report.append(f"self time per unit of work ({units} units, {len(t.spans)} spans):")
    for name, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        out.report.append(f"  {name:<42}{s * 1e3 / units:12.6f} ms  ({totals.calls[name]} calls)")
    out.report.append(f"  {'(unattributed)':<42}{unattributed * 1e3 / units:12.6f} ms")
    out.report.append(f"  {'= traced wall':<42}{wall * 1e3 / units:12.6f} ms")
    return wall, units


# ---------------------------------------------------------------------------
# fit workloads
# ---------------------------------------------------------------------------


def _gauss2_law() -> simulate.TrueLaw:
    lin2 = Basis.linear_in(2)
    return simulate.TrueLaw(
        beta_star=(0.5, -0.3),
        x_law=simulate.XLawUniform(low=(-1.5, -1.5), high=(1.5, 1.5)),
        g_basis=lin2.plus(BasisTerm("square", 0), BasisTerm("interaction", 0, 1)),
        g_coef=(0.2, 0.5, -0.4, 0.3, 0.2),
        components=(simulate.GaussianComponent(lin2, (0.1, 0.6, -0.2), 0.8),
                    simulate.GaussianComponent(lin2, (-0.1, 0.3, 0.4), 1.0)),
    )


def _catalog_law(name: str) -> simulate.TrueLaw:
    return next(sc.law for sc in simulate.scenario_catalog() if sc.name == name)


class FitWorkload:
    """In-process `drlogit fit` on one generated CSV, repeated."""

    def __init__(self, n, law, config, closed_form_check):
        self.n, self.law, self.config = n, law, config
        self.closed_form_check = closed_form_check

    def _write_inputs(self, seed: int, work: Path, out: Outcome) -> list[str]:
        data = work / f"data-{seed}.csv"
        again = work / f"data-{seed}-again.csv"
        for path in (data, again):
            simulate.write_dataset_csv(path, simulate.sample_dataset(self.law, self.n, seed))
        out.check(data.read_bytes() == again.read_bytes(),
                  f"seed {seed} gave two different CSVs")
        again.unlink()
        config = work / "config.json"
        config.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        return ["fit", "--data", str(data), "--config", str(config), "--out", str(work / "out")]

    def _check(self, rc, work: Path) -> list[str]:
        if rc != 0:
            return [f"drlogit fit ended with {rc!r}"]
        est = json.loads((work / "out" / "estimates.json").read_text())["estimators"]
        beta_star = np.asarray(self.law.beta_star)
        problems = []
        for name in self.config["estimators"]:
            if name not in est:
                problems.append(f"{name}: missing from estimates.json")
                continue
            beta, se = np.asarray(est[name]["beta"]), np.asarray(est[name]["se"])
            if not (np.isfinite(beta).all() and np.isfinite(se).all() and (se > 0).all()):
                problems.append(f"{name}: beta {beta} or se {se} not finite and positive")
            elif np.any(np.abs(beta - beta_star) > 5.0 * se):
                problems.append(f"{name}: beta {beta} more than 5 SE from {beta_star}")
            if name.startswith("dr_") and not est[name]["diagnostics"]["final_eq_norm"] <= 1e-10:
                problems.append(f"{name}: final_eq_norm "
                                f"{est[name]['diagnostics']['final_eq_norm']!r} > 1e-10")
        if self.closed_form_check:
            gap = abs(est["closed_form"]["beta"][0] - est["dr_simple"]["beta"][0])
            if not gap <= 1e-8:
                problems.append(f"closed_form differs from dr_simple by {gap:.3g}")
        return problems

    def _fit(self, argv, work: Path, out: Outcome):
        rc, wall, cpu = _quiet_main(argv)
        problems = self._check(rc, work)
        out.attempted += 1
        if problems:
            out.failed += 1
            out.check(False, "; ".join(problems))
        return wall, cpu

    def reference(self, work: Path) -> dict:
        argv = self._write_inputs(DEFAULT_SEED, work, Outcome())
        rc, _, _ = _quiet_main(argv)
        if rc != 0:
            return {"error": repr(rc)}
        est = json.loads((work / "out" / "estimates.json").read_text())["estimators"]
        return {name: {"beta": r["beta"], "se": r["se"]} for name, r in sorted(est.items())}

    def run(self, seed: int, seconds: float, trace: bool, work: Path, out: Outcome,
            cal: Calibration) -> None:
        argv = self._write_inputs(seed, work, out)
        if not trace:
            rec = Recorder()
            t0 = time.perf_counter()
            while not rec.calls or time.perf_counter() - t0 < seconds:
                factor = cal.factor()
                wall, cpu = self._fit(argv, work, out)
                rec.add(factor, 1, [wall], cpu)
            out.metrics["peak_rss_mb"] = peak_rss_mb()
            out.metrics.update(rec.metrics())
            out.report += rec.report("fit", 1e3, "ms", 90)
            return
        untraced = self._loop(argv, work, out, seconds / 2)
        traced_walls: list[float] = []

        def body(t):
            traced_walls.extend(self._loop(argv, work, out, seconds / 2, t))
            return sum(traced_walls), len(traced_walls)

        traced_pass(out, work, body)
        out.metrics["trace.overhead_frac"] = median(traced_walls) / median(untraced) - 1.0
        out.metrics["simulate.replication.ms"] = 0.0
        out.metrics["simulate.parallel_eff"] = 0.0

    def _loop(self, argv, work, out, seconds, tracer=None) -> list[float]:
        """Fits for `seconds`; returns their wall times."""
        walls: list[float] = []
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 < seconds:
            if tracer is not None:
                tracer.op = len(walls)
            walls.append(self._fit(argv, work, out)[0])
        return walls


# ---------------------------------------------------------------------------
# mc-catalog
# ---------------------------------------------------------------------------


class CatalogWorkload:
    """In-process `drlogit simulate` over two catalog scenarios with a
    pool of 2 workers, repeated with the same seed."""

    scenarios = "S1-binary,S2-gaussian"
    workers = 2
    menu = ("mle", "dr_identity", "dr_simple", "dr_optimal", "closed_form")

    def __init__(self, replications: int, reference_replications: int):
        self.replications = replications
        self.reference_replications = reference_replications

    def _inputs(self, seed: int, replications: int, work: Path) -> tuple[Path, list[str]]:
        config = work / f"config-{replications}.json"
        config.write_text(json.dumps({
            "n": 2000, "replications": replications, "level": 0.95,
            "estimators": list(self.menu),
        }, indent=2, sort_keys=True) + "\n")
        return config, ["simulate", "--config", str(config), "--scenarios", self.scenarios,
                        "--seed", str(seed)]

    def _call(self, argv, workers: int, out_dir: Path, out: Outcome | None):
        """One simulate call; returns (summary bytes or None, wall, cpu).
        With `out`, counts its (replication, estimator) pairs and failures."""
        rc, wall, cpu = _quiet_main(argv + ["--workers", str(workers), "--out", str(out_dir)])
        summary = (out_dir / "summary.json").read_bytes() if rc == 0 else None
        if out is not None:
            if summary is None:
                # closed_form drops out on the Gaussian edition
                pairs = self.replications * (2 * len(self.menu) - 1)
                out.attempted += pairs
                out.failed += pairs
                out.check(False, f"drlogit simulate ended with {rc!r}")
            else:
                rows = json.loads(summary)["results"]
                out.attempted += self.replications * len(rows)
                out.failed += sum(r["n_fail"] for r in rows)
        return summary, wall, cpu

    def _check_summary(self, summary: bytes | None, out: Outcome) -> None:
        if summary is None:
            return
        rows = {(r["scenario"], r["estimator"]): r for r in json.loads(summary)["results"]}
        gap = abs(rows[("S1-binary", "closed_form")]["bias"]
                  - rows[("S1-binary", "dr_simple")]["bias"])
        out.check(gap <= 1e-8, f"closed_form bias differs from dr_simple bias by {gap:.3g}")

    def reference(self, work: Path) -> dict:
        _, argv = self._inputs(DEFAULT_SEED, self.reference_replications, work)
        summary, _, _ = self._call(argv, 1, work / "ref", None)
        return {"error": "simulate failed"} if summary is None else json.loads(summary)

    def run(self, seed: int, seconds: float, trace: bool, work: Path, out: Outcome,
            cal: Calibration) -> None:
        _, argv = self._inputs(seed, self.replications, work)
        reps = 2 * self.replications
        if not trace:
            rec = Recorder()
            t0 = time.perf_counter()
            while not rec.calls or time.perf_counter() - t0 < seconds:
                factor = cal.factor()
                summary, wall, cpu = self._call(argv, self.workers, work / "w2", out)
                rec.add(factor, reps, [wall], cpu)
                self._check_summary(summary, out)
                if len(rec.calls) == 1:
                    first = summary
                out.check(summary == first, "workers=2 summaries differ between calls")
            # the single-process pass the summaries must match byte for byte
            serial, _, _ = self._call(argv, 1, work / "w1", out)
            out.check(serial is not None and serial == first,
                      "workers=2 summary differs from the workers=1 summary")
            out.metrics["peak_rss_mb"] = peak_rss_mb(self.workers)
            out.metrics.update(rec.metrics())
            out.report += [
                f"mc_reps_per_s = {median([reps / w for w in rec.calls]):.6g} 1/s  (median of "
                f"{len(rec.calls)} calls of {reps} replications, workers={self.workers})",
                f"mc_cpu_ms_per_rep = {median([c[4] / reps for c in rec.chunks]) * 1e3:.6g} ms",
            ] + rec.report("mc_call", 1e3, "ms", 90)
            return
        serial, serial_wall, _ = self._call(argv, 1, work / "w1", out)
        self._check_summary(serial, out)
        traced_summary: list = []

        def body(t):
            summary, wall, _ = self._call(argv, 1, work / "traced", out)
            traced_summary.append(summary)
            return wall, reps

        traced_wall, _ = traced_pass(out, work, body)
        parallel, parallel_wall, _ = self._call(argv, self.workers, work / "w2", out)
        out.check(serial is not None and traced_summary[0] == serial == parallel,
                  "traced, workers=1 and workers=2 summaries are not byte-identical")
        out.metrics["simulate.replication.ms"] = serial_wall * 1e3 / reps
        out.metrics["simulate.parallel_eff"] = serial_wall / (self.workers * parallel_wall)
        out.metrics["trace.overhead_frac"] = traced_wall / serial_wall - 1.0
        out.report.append(f"workers=1: {serial_wall:.3f} s, workers={self.workers}: "
                          f"{parallel_wall:.3f} s for {reps} replications")


# ---------------------------------------------------------------------------
# kernel-scalar
# ---------------------------------------------------------------------------

# the per-input variant cycle of acceptance criterion 3
VARIANT_CYCLE = ("simple", "identity", "simple", "simple", "simple",
                 "identity", "simple", "simple", "optimal", "simple")


class KernelWorkload:
    """Scalar `ee_dr` and `ee_instrument(LinearInstrument)` calls at 10^4
    random inputs, the instrument variant cycled as in criterion 3."""

    inputs = 10_000
    chunk = 1000  # inputs between two calibrations, about 0.2 s

    def _inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        basis = Basis.linear_in(1)
        draws = []
        for _ in range(self.inputs):
            y = int(rng.integers(0, 2))
            z = np.array([float(rng.integers(0, 2))])
            x = rng.uniform(-1.5, 1.5, 1)
            beta = rng.uniform(-1.5, 1.5, 1)
            alpha = rng.uniform(-1.5, 1.5, 2)
            gamma = rng.uniform(-1.2, 1.2, 2)
            covar = CovariateModelParams(gamma[None, :], ("bernoulli",), np.array([math.nan]))
            draws.append((y, z, x, beta, alpha, covar))
        specs = [InstrumentSpec(v) for v in VARIANT_CYCLE]
        return basis, draws, specs, [LinearInstrument(s) for s in specs]

    def _pass(self, inputs, out: Outcome, times: list[int], tracer=None) -> list[float]:
        """All inputs once: ee_dr, then ee_instrument; per-call ns go to
        `times`, and an ee_instrument that disagrees with ee_dr fails."""
        basis, draws, specs, lins = inputs
        ee_dr, ee_instrument = model.ee_dr, model.ee_instrument
        clock = time.perf_counter_ns
        values = []
        for i, (y, z, x, beta, alpha, covar) in enumerate(draws):
            if tracer is not None:
                tracer.op = i
            try:
                t0 = clock()
                r = ee_dr(y, z, x, beta, alpha, covar, specs[i % 10], basis)[0]
                t1 = clock()
                tau = ee_instrument(y, z, x, beta, alpha, covar, lins[i % 10], basis)[0]
                t2 = clock()
            except Exception as exc:  # counted, the pass goes on
                out.attempted += 2
                out.failed += 2
                out.check(False, f"input {i}: {exc!r}")
                continue
            times += (t1 - t0, t2 - t1)
            values.append(float(r))
            out.attempted += 2
            if not (math.isfinite(r) and abs(tau - r) <= 1e-12 * abs(r)):
                out.failed += 1
                out.check(False, f"input {i}: ee_instrument {tau!r} != ee_dr {r!r}")
        return values

    def reference(self, work: Path) -> dict:
        inputs = self._inputs(DEFAULT_SEED)
        inputs = (inputs[0], inputs[1][:200], inputs[2], inputs[3])
        return {"ee_dr": self._pass(inputs, Outcome(), [])}

    def run(self, seed: int, seconds: float, trace: bool, work: Path, out: Outcome,
            cal: Calibration) -> None:
        inputs = self._inputs(seed)
        basis, draws, specs, lins = inputs
        chunks = [(basis, draws[lo:lo + self.chunk], specs, lins)
                  for lo in range(0, len(draws), self.chunk)]
        self._pass(chunks[0], Outcome(), [])  # warm-up
        if not trace:
            rec = Recorder()
            t0 = time.perf_counter()
            while not rec.calls or time.perf_counter() - t0 < seconds:
                for chunk in chunks:
                    factor, times, c0 = cal.factor(), [], cpu_seconds()
                    self._pass(chunk, out, times)
                    rec.add(factor, len(times), [t / 1e9 for t in times], cpu_seconds() - c0)
            out.metrics["peak_rss_mb"] = peak_rss_mb()
            out.metrics.update(rec.metrics())
            out.report += rec.report("kernel", 1e6, "us", 99)
            return
        untraced: list[int] = []
        t0 = time.perf_counter()
        self._pass(inputs, out, untraced)
        untraced_wall = time.perf_counter() - t0

        def body(t):
            t0 = time.perf_counter()
            self._pass(inputs, out, [], t)
            return time.perf_counter() - t0, 2 * len(inputs[1])

        traced_wall, _ = traced_pass(out, work, body)
        out.metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        out.metrics["simulate.replication.ms"] = 0.0
        out.metrics["simulate.parallel_eff"] = 0.0


WORKLOADS = {
    "fit-binary-n20k": FitWorkload(
        20_000, _catalog_law("S1b0-binary"),
        {"basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0}],
         "z_families": ["bernoulli"], "level": 0.95,
         "estimators": ["mle", "dr_identity", "dr_simple", "dr_optimal", "closed_form"]},
        closed_form_check=True),
    "fit-gauss2-n2k": FitWorkload(
        2_000, _gauss2_law(),
        {"basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0},
                   {"kind": "linear", "j": 1}, {"kind": "square", "j": 0},
                   {"kind": "interaction", "j": 0, "k": 1}],
         "z_families": ["gaussian", "gaussian"], "level": 0.95,
         "estimators": ["mle", "dr_identity", "dr_simple", "dr_optimal",
                        "dr_y1_identity", "dr_y1_simple", "dr_y1_optimal"]},
        closed_form_check=False),
    "mc-catalog": CatalogWorkload(replications=100, reference_replications=10),
    "kernel-scalar": KernelWorkload(),
}
