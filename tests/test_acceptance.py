"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured margin (run with -s or -v to see them live).

Monte Carlo criteria share module-scoped study fixtures; everything is
seeded, so the whole suite is deterministic on a fixed platform.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

from drlogit.estimators import assemble_influence, closed_form_binary, solve_dr
from drlogit.model import (
    Basis,
    BasisTerm,
    CovariateModelParams,
    InstrumentSpec,
    LinearInstrument,
    OutcomeModelParams,
    _component_moments,
    covariate_means,
    ee_dr,
    ee_instrument,
    expit,
    instrument_matrices,
    instrument_matrix,
)
from drlogit.nuisance import fit_covariate, fit_outcome_mle
from drlogit.simulate import (
    run_scenario,
    sample_binary,
    scenario_catalog,
    with_size,
    write_summary_json,
)

from conftest import mean_r_frozen_phi
from oracles import FiniteLaw, logistic_finite_law, ortho_complement_identity_gap

_WORKERS = 2


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _catalog():
    return {s.name: s for s in scenario_catalog()}


# ---------------------------------------------------------------------------
# Shared Monte Carlo studies
# ---------------------------------------------------------------------------

_DR_MENU = ("dr_identity", "dr_simple", "dr_optimal")


@pytest.fixture(scope="module")
def bias_study():
    """S1-S4, both editions, catalog sizes (n=2000, R=500)."""
    cat = _catalog()
    t0 = time.time()
    out = {}
    for fam in ("S1", "S2", "S3", "S4"):
        for ed in ("binary", "gaussian"):
            name = f"{fam}-{ed}"
            out[name] = run_scenario(cat[name], ("mle",) + _DR_MENU, workers=_WORKERS)
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def coverage_study():
    """S1-S3, both editions, R=1000 for the coverage criterion."""
    cat = _catalog()
    out = {}
    for fam in ("S1", "S2", "S3"):
        for ed in ("binary", "gaussian"):
            name = f"{fam}-{ed}"
            sc = with_size(cat[name], replications=1000)
            out[name] = run_scenario(sc, _DR_MENU, workers=_WORKERS)
    return out


@pytest.fixture(scope="module")
def efficiency_study():
    cat = _catalog()
    out = {}
    for name in ("S1b0-gaussian", "S1b1-gaussian"):
        out[name] = run_scenario(cat[name], _DR_MENU, workers=_WORKERS)
    return out


# ---------------------------------------------------------------------------
# Criterion 1: exact unbiasedness by enumeration
# ---------------------------------------------------------------------------


def test_c01_exact_unbiasedness():
    rng = np.random.default_rng(101)
    gc = np.array([0.3, -0.5])
    fc = np.array([-0.2, 0.8])
    beta_star = 0.7
    xs = np.array([[-1.0], [0.0], [1.0]])
    pz1 = expit(fc[0] + fc[1] * xs[:, 0])
    law = logistic_finite_law(
        beta=np.array([beta_star]),
        g_of_x=lambda x: gc[0] + gc[1] * x[0],
        x_points=xs, x_probs=np.array([0.25, 0.4, 0.35]),
        z_support=np.array([[0.0], [1.0]]),
        pz_given_y0=np.column_stack([1 - pz1, pz1]),
    )
    basis = Basis.linear_in(1)
    t0 = time.time()
    worst = 0.0
    for variant in ("identity", "simple", "optimal"):
        spec = InstrumentSpec(variant)
        for _ in range(5):
            gamma_wrong = rng.uniform(-1.5, 1.5, 2)
            covar = CovariateModelParams(gamma_wrong[None, :], ("bernoulli",),
                                         np.array([math.nan]))
            val = law.expectation(lambda y, z, x: ee_dr(
                y, z, x, np.array([beta_star]), gc, covar, spec, basis))
            worst = max(worst, float(np.max(np.abs(val))))
        covar_right = CovariateModelParams(fc[None, :], ("bernoulli",),
                                           np.array([math.nan]))
        for _ in range(5):
            alpha_wrong = rng.uniform(-1.5, 1.5, 2)
            val = law.expectation(lambda y, z, x: ee_dr(
                y, z, x, np.array([beta_star]), alpha_wrong, covar_right, spec, basis))
            worst = max(worst, float(np.max(np.abs(val))))
    elapsed = time.time() - t0
    _report(1, "exact unbiasedness under single-model correctness",
            worst <= 1e-12 and elapsed < 1.0,
            f"max |E[r]| = {worst:.2e}, elapsed {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: conditioning identity
# ---------------------------------------------------------------------------


def test_c02_conditioning_identity():
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        probs = rng.dirichlet(np.ones(12) * 3.0)
        y = np.tile([0, 1], 6)
        z = np.repeat(np.tile([0.0, 1.0], 3), 2)[:, None]
        x = np.repeat([-1.0, 0.0, 1.0], 4)[:, None]
        law = FiniteLaw(y, z, x, probs)
        coefs = rng.uniform(-1, 1, 3)
        gap = ortho_complement_identity_gap(
            lambda zz, xx: coefs[0] + coefs[1] * zz[0] + coefs[2] * xx[0], law)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    _report(2, "orthogonal-complement conditioning identity",
            worst <= 1e-12 and elapsed < 1.0,
            f"max gap = {worst:.2e} over 100 laws, elapsed {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 3: algebraic equivalences on random inputs
# ---------------------------------------------------------------------------


_VARIANT_CYCLE = ("simple", "identity", "simple", "simple", "simple",
                  "identity", "simple", "simple", "optimal", "simple")


@pytest.fixture(scope="module")
def kernel_sweep():
    """10^4 random inputs with the implementation's kernel values, both
    for the simple instrument and for the per-input cycled variant."""
    rng = np.random.default_rng(303)
    n = 10_000
    basis = Basis.linear_in(1)
    draws = []
    for i in range(n):
        y = int(rng.integers(0, 2))
        z = np.array([float(rng.integers(0, 2))])
        x = rng.uniform(-1.5, 1.5, 1)
        beta = rng.uniform(-1.5, 1.5, 1)
        alpha = rng.uniform(-1.5, 1.5, 2)
        gamma = rng.uniform(-1.2, 1.2, 2)
        covar = CovariateModelParams(gamma[None, :], ("bernoulli",), np.array([math.nan]))
        draws.append((y, z, x, beta, alpha, covar))
    t0 = time.time()
    r_simple = np.array([
        ee_dr(y, z, x, b, a, c, InstrumentSpec("simple"), basis)[0]
        for (y, z, x, b, a, c) in draws])
    elapsed = time.time() - t0
    r_cycled = np.array([
        r_simple[i] if _VARIANT_CYCLE[i % 10] == "simple"
        else ee_dr(y, z, x, b, a, c, InstrumentSpec(_VARIANT_CYCLE[i % 10]), basis)[0]
        for i, (y, z, x, b, a, c) in enumerate(draws)])
    return {"draws": draws, "basis": basis, "r_simple": r_simple,
            "r_cycled": r_cycled, "r_elapsed": elapsed}


def test_c03a_simple_form_triple_equivalence(kernel_sweep):
    draws = kernel_sweep["draws"]
    r = kernel_sweep["r_simple"]
    t0 = time.time()
    form_a = np.empty_like(r)
    form_b = np.empty_like(r)
    for i, (y, z, x, beta, alpha, covar) in enumerate(draws):
        g = alpha[0] + alpha[1] * x[0]
        f = expit(covar.gamma[0, 0] + covar.gamma[0, 1] * x[0])
        form_a[i] = ((y * math.exp(-beta[0] * z[0]) - (1 - y) * math.exp(g))
                     / (1.0 + math.exp(g)) * (z[0] - f))
        form_b[i] = math.exp(-beta[0] * z[0] * y) * (y - expit(g)) * (z[0] - f)
    elapsed = kernel_sweep["r_elapsed"] + time.time() - t0
    scale = np.maximum(np.abs(r), 1e-300)
    rel = max(np.max(np.abs(form_a - r) / scale), np.max(np.abs(form_b - r) / scale))
    _report(3, "simple-instrument triple-form equivalence (10^4 inputs)",
            rel <= 1e-12 and elapsed < 1.0,
            f"max rel err = {rel:.2e}, elapsed {elapsed:.2f}s")


def test_c03b_instrument_kernel_equivalence(kernel_sweep):
    """u = phi(x) z reproduces the doubly robust kernel; variant cycled
    over identity/simple/optimal."""
    draws = kernel_sweep["draws"]
    basis = kernel_sweep["basis"]
    r_cycled = kernel_sweep["r_cycled"]
    t0 = time.time()
    worst = 0.0
    for i, (y, z, x, beta, alpha, covar) in enumerate(draws):
        spec = InstrumentSpec(_VARIANT_CYCLE[i % 10])
        tau = ee_instrument(y, z, x, beta, alpha, covar,
                            LinearInstrument(spec), basis)[0]
        r = r_cycled[i]
        if tau == r:
            continue
        worst = max(worst, abs(tau - r) / max(abs(r), 1e-300))
    elapsed = time.time() - t0
    _report(3, "general-instrument / kernel equivalence (10^4 inputs)",
            worst <= 1e-12 and elapsed < 1.0,
            f"max rel err = {worst:.2e}, elapsed {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 4: optimal instrument at beta* = 0
# ---------------------------------------------------------------------------


def test_c04_optimal_instrument_degenerate_value():
    rng = np.random.default_rng(404)
    basis = Basis.linear_in(1)
    worst_bern = 0.0
    worst_gauss = 0.0
    for _ in range(30):
        alpha = rng.uniform(-1.5, 1.5, 2)
        x = rng.uniform(-1.5, 1.5, 1)
        out = OutcomeModelParams(np.zeros(1), alpha)
        want = expit(alpha[0] + alpha[1] * x[0])
        covb = CovariateModelParams(rng.uniform(-1, 1, (1, 2)), ("bernoulli",),
                                    np.array([math.nan]))
        got = instrument_matrix(InstrumentSpec("optimal"), x, out, covb, basis)[0, 0]
        worst_bern = max(worst_bern, abs(got - want) / want)
        covg = CovariateModelParams(rng.uniform(-1, 1, (1, 2)), ("gaussian",),
                                    np.array([rng.uniform(0.3, 2.0)]))
        got = instrument_matrix(InstrumentSpec("optimal"), x, out, covg, basis)[0, 0]
        worst_gauss = max(worst_gauss, abs(got - want) / want)
    _report(4, "optimal instrument collapses to expit(g) at beta=0",
            worst_bern <= 1e-12 and worst_gauss <= 1e-12,
            f"bernoulli rel err = {worst_bern:.2e}, gaussian rel err = {worst_gauss:.2e}")


# ---------------------------------------------------------------------------
# Criterion 5: closed-form Gaussian moments against adaptive quadrature
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_c05_quadrature_gaussian_tilt():
    """The optimal instrument's Gaussian moment triples E[r^k] and
    E[exp(-beta r) r^k], k = 0, 1, 2, with r = Z - m and Z ~ N(m, s^2),
    against adaptive quadrature of the N(m, s^2) density over z."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        beta = rng.uniform(-1.5, 1.5)
        m = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.3, 1.3)
        plain, tilted = _component_moments("gaussian", np.array([m]), s * s, -beta)

        def dens(z, tilt, k):
            r = z - m
            return (math.exp(tilt * r - r * r / (2.0 * s * s)) * r**k
                    / (s * math.sqrt(2.0 * math.pi)))

        for tilt, triple in ((0.0, plain), (-beta, tilted)):
            for k, got in enumerate(triple):
                want = integrate.quad(dens, m - 40.0 * s, m + 40.0 * s, args=(tilt, k),
                                      epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                worst = max(worst, abs(got[0] - want) / max(1.0, abs(want)))
    _report(5, "closed-form Gaussian moments match adaptive quadrature",
            worst <= 1e-10, f"max err / max(1, |v|) = {worst:.2e} over 100 draws")


# ---------------------------------------------------------------------------
# Criterion 6: analytic derivatives vs finite differences
# ---------------------------------------------------------------------------


def test_c06_derivative_matrices_match_finite_differences():
    cat = _catalog()
    worst = 0.0
    configs = 0
    h = 1e-5
    for seed in range(10):
        for law_name, fam in (("S1-binary", "bernoulli"), ("S1-gaussian", "gaussian")):
            sc = cat[law_name]
            from drlogit.simulate import sample_dataset
            ds = sample_dataset(sc.law, 150, 60_000 + seed)
            basis = sc.working_basis
            outcome = fit_outcome_mle(ds, basis)
            covar = fit_covariate(ds, basis, (fam,))
            variant = ("identity", "simple", "optimal")[seed % 3]
            spec = InstrumentSpec(variant)
            beta_hat = outcome.params.beta + 0.05
            pieces = assemble_influence(ds, beta_hat, outcome, covar, spec)
            phi = instrument_matrices(spec, ds.x, outcome.params, covar.params, basis)
            alpha = outcome.params.alpha
            gamma = covar.params.gamma

            def rel_gap(analytic, fd):
                scale = np.maximum(np.abs(analytic), 1e-8)
                return float(np.max(np.abs(analytic - fd) / scale))

            fd = np.empty_like(pieces.h_matrix)
            for k in range(beta_hat.size):
                d = np.zeros_like(beta_hat); d[k] = h
                fd[:, k] = (mean_r_frozen_phi(ds, basis, beta_hat + d, alpha, covar.params, phi)
                            - mean_r_frozen_phi(ds, basis, beta_hat - d, alpha, covar.params, phi)) / (2 * h)
            worst = max(worst, rel_gap(pieces.h_matrix, fd))

            fd = np.empty_like(pieces.b1)
            for k in range(alpha.size):
                d = np.zeros_like(alpha); d[k] = h
                fd[:, k] = (mean_r_frozen_phi(ds, basis, beta_hat, alpha + d, covar.params, phi)
                            - mean_r_frozen_phi(ds, basis, beta_hat, alpha - d, covar.params, phi)) / (2 * h)
            worst = max(worst, rel_gap(pieces.b1, fd))

            p, m = gamma.shape
            fd = np.empty((beta_hat.size, p * m))
            for j in range(p):
                for k in range(m):
                    gp, gm = gamma.copy(), gamma.copy()
                    gp[j, k] += h; gm[j, k] -= h
                    cp = CovariateModelParams(gp, covar.params.families, covar.params.resid_var)
                    cm = CovariateModelParams(gm, covar.params.families, covar.params.resid_var)
                    fd[:, j * m + k] = (mean_r_frozen_phi(ds, basis, beta_hat, alpha, cp, phi)
                                        - mean_r_frozen_phi(ds, basis, beta_hat, alpha, cm, phi)) / (2 * h)
            worst = max(worst, rel_gap(pieces.b2, fd))
            configs += 1
    _report(6, "analytic H, B1, B2 vs central finite differences",
            worst <= 1e-6 and configs == 20,
            f"max rel err = {worst:.2e} over {configs} fitted configurations")


# ---------------------------------------------------------------------------
# Criterion 7: double robustness at sampling scale
# ---------------------------------------------------------------------------


def test_c07_double_robustness_bias_table(bias_study):
    lines = []
    ok = True
    for fam in ("S1", "S2", "S3"):
        for ed in ("binary", "gaussian"):
            s = bias_study[f"{fam}-{ed}"]
            for est in _DR_MENU:
                e = s.by_name(est)
                bound = max(0.02, 3 * e.mcse)
                ok &= abs(e.bias) <= bound
                lines.append(f"{fam}-{ed}/{est}: |bias|={abs(e.bias):.4f} <= {bound:.4f}")
    for ed in ("binary", "gaussian"):
        mle = bias_study[f"S2-{ed}"].by_name("mle")
        ok &= abs(mle.bias) >= 5 * mle.mcse
        lines.append(f"S2-{ed}/mle: |bias|={abs(mle.bias):.4f} >= {5 * mle.mcse:.4f}")
        for est in _DR_MENU:
            e = bias_study[f"S4-{ed}"].by_name(est)
            ok &= abs(e.bias) >= 5 * e.mcse
        e = bias_study[f"S4-{ed}"].by_name("dr_simple")
        lines.append(f"S4-{ed}/dr_simple: |bias|={abs(e.bias):.4f} >= {5 * e.mcse:.4f}")
    elapsed = bias_study["elapsed"]
    ok &= elapsed < 600
    _report(7, "double robustness and its failure modes at n=2000",
            ok, f"elapsed {elapsed:.0f}s; " + "; ".join(lines[:4]) + " ...")


# ---------------------------------------------------------------------------
# Criterion 8: sandwich coverage
# ---------------------------------------------------------------------------


def test_c08_wald_coverage(coverage_study):
    ok = True
    worst_lo, worst_hi = 1.0, 0.0
    details = []
    for name, s in coverage_study.items():
        for est in _DR_MENU:
            c = s.by_name(est).coverage
            ok &= 0.925 <= c <= 0.975
            worst_lo, worst_hi = min(worst_lo, c), max(worst_hi, c)
            details.append(f"{name}/{est}={c:.3f}")
    _report(8, "95% Wald coverage within [0.925, 0.975] (R=1000)",
            ok, f"range [{worst_lo:.3f}, {worst_hi:.3f}]")


# ---------------------------------------------------------------------------
# Criterion 9: efficiency ordering
# ---------------------------------------------------------------------------


def test_c09_efficiency_ordering(efficiency_study):
    s0 = efficiency_study["S1b0-gaussian"]
    v0 = {e.estimator: e.sd**2 for e in s0.estimators}
    ratio = v0["dr_simple"] / v0["dr_optimal"]
    ok = 0.95 <= ratio <= 1.05

    s1 = efficiency_study["S1b1-gaussian"]
    v1 = {e.estimator: e.sd**2 for e in s1.estimators}
    ok &= v1["dr_optimal"] <= 1.05 * v1["dr_simple"]
    ok &= v1["dr_simple"] <= 1.05 * v1["dr_identity"]
    _report(9, "efficiency: simple ~ optimal at beta*=0; ordering at beta*=1",
            ok,
            f"beta*=0 ratio simple/optimal = {ratio:.3f}; beta*=1 variances "
            f"opt={v1['dr_optimal']:.5f} <= simple={v1['dr_simple']:.5f} "
            f"<= identity={v1['dr_identity']:.5f} (5% slack)")


# ---------------------------------------------------------------------------
# Criterion 10: closed-form agreement
# ---------------------------------------------------------------------------


def test_c10_closed_form_agreement():
    cat = _catalog()
    sc = cat["S1-binary"]
    worst = 0.0
    for seed in range(50):
        ds = sample_binary(sc.law, 300, 90_000 + seed)
        outcome = fit_outcome_mle(ds, sc.working_basis)
        covar = fit_covariate(ds, sc.working_basis, ("bernoulli",))
        cf = closed_form_binary(ds, outcome, covar)
        rep = solve_dr(ds, outcome, covar, InstrumentSpec("simple"))
        worst = max(worst, abs(cf - rep.beta_hat[0]))
    _report(10, "closed-form binary estimator equals the Newton root",
            worst <= 1e-8, f"max |difference| = {worst:.2e} over 50 datasets")


# ---------------------------------------------------------------------------
# Criterion 11: sampler exactness
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_c11_sampler_exactness():
    cat = _catalog()
    law = cat["S1-binary"].law
    n = 1_000_000
    ds = sample_binary(law, n, 777_001)
    ok = True
    worst_sigma = 0.0
    comp = law.components[0]
    pts = np.asarray(law.x_law.points, dtype=float)
    probs = np.asarray(law.x_law.probs, dtype=float)
    tilt = math.exp(law.beta_star[0])
    for k, (xk, pxk) in enumerate(zip(pts, probs)):
        f0 = float(comp.prob(xk[None, :])[0])
        e0 = float(expit(law.g_star(xk[None, :]))[0])
        cells = np.array([(1 - f0) * (1 - e0), f0 * (1 - e0),
                          (1 - f0) * e0, f0 * e0 * tilt])
        cells = pxk * cells / cells.sum()
        for idx, (yv, zv) in enumerate([(0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)]):
            freq = float(np.mean((ds.y == yv) & (ds.z[:, 0] == zv)
                                 & (ds.x[:, 0] == xk[0])))
            se = math.sqrt(cells[idx] * (1 - cells[idx]) / n)
            sig = abs(freq - cells[idx]) / se
            worst_sigma = max(worst_sigma, sig)
            ok &= sig <= 4.0

    # tilt normalizer against adaptive quadrature
    rng = np.random.default_rng(1111)
    worst_c = 0.0
    for _ in range(100):
        beta = rng.uniform(-1.2, 1.2)
        m = rng.uniform(-1.5, 1.5)
        s2 = rng.uniform(0.3, 2.0)
        g = rng.uniform(-1.5, 1.5)
        e0 = expit(g)
        c_closed = (1 - e0) + e0 * math.exp(beta * m + 0.5 * beta**2 * s2)

        def dens(z, y):
            phi = math.exp(-(z - m) ** 2 / (2 * s2)) / math.sqrt(2 * math.pi * s2)
            return math.exp(beta * z * y) * phi * (e0 if y == 1 else 1 - e0)

        c_num = sum(integrate.quad(dens, -40, 40, args=(y,), limit=200)[0]
                    for y in (0, 1))
        worst_c = max(worst_c, abs(c_num - c_closed) / c_closed)
    ok &= worst_c <= 1e-8
    _report(11, "exact samplers: cell frequencies and tilt normalizer",
            ok, f"worst cell deviation = {worst_sigma:.2f} SE (<=4); "
                f"normalizer rel err = {worst_c:.2e}")


# ---------------------------------------------------------------------------
# Criterion 12: determinism
# ---------------------------------------------------------------------------


def test_c12_deterministic_reports(tmp_path):
    cat = _catalog()
    sc = with_size(cat["S1-gaussian"], n=400, replications=24)
    blobs = []
    for run, workers in ((0, 1), (1, 2), (2, 1)):
        s = run_scenario(sc, ("mle", "dr_simple", "dr_optimal"), workers=workers)
        path = tmp_path / f"run{run}.json"
        write_summary_json([s], path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(12, "byte-identical JSON reports across runs and worker counts",
            ok, f"{len(blobs)} runs compared")
