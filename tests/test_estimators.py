import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from drlogit._newton import _newton_step, damped_newton
from drlogit.estimators import (
    KNOWN_ESTIMATORS,
    Estimation,
    _assemble,
    _inverse,
    _solve,
    wald_interval,
)
from drlogit.model import (
    Basis,
    BasisTerm,
    BinaryInstrument,
    ConvergenceError,
    CovariateModelParams,
    Dataset,
    EstimationError,
    InstrumentSpec,
    LinearInstrument,
    OutcomeModelParams,
    SingularMatrixError,
    covariate_means,
    ee_dr,
    ee_instrument,
    expit,
    instrument_matrices,
)
from drlogit.nuisance import CovariateFit, OutcomeFit, _distinct, _Rows
from drlogit.simulate import sample_binary, sample_dataset, scenario_catalog

from conftest import bisect_root, exact_counts_dataset
from oracles import logistic_finite_law


def _dyadic_beta0_law():
    """Single X point, binary Z, beta*=0, e0=1/2, f0=1/4: all cell
    probabilities are eighths, so an exactly representative dataset exists."""
    return logistic_finite_law(
        beta=np.array([0.0]),
        g_of_x=lambda x: 0.0,
        x_points=np.array([[0.0]]),
        x_probs=np.array([1.0]),
        z_support=np.array([[0.0], [1.0]]),
        pz_given_y0=np.array([[0.75, 0.25]]),
    )


def _binary_fixture(rng, n=400):
    """An S1-binary sample and its estimation on the working basis."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    ds = sample_binary(sc.law, n, rng)
    return ds, Estimation(ds, sc.working_basis, ("bernoulli",))


# ---------------------------------------------------------------------------
# Exact saturated root
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["identity", "simple", "optimal"])
def test_saturated_beta0_exact_root(variant):
    """On an exactly representative dataset with both fits saturated,
    the sample equation vanishes at beta = 0."""
    law = _dyadic_beta0_law()
    ds = exact_counts_dataset(law, multiple=2)
    est = Estimation(ds, Basis((BasisTerm("intercept"),)), ("bernoulli",))
    assert abs(est.solve(InstrumentSpec(variant)).beta_hat[0]) <= 1e-8
    assert abs(est.estimate(f"dr_y1_{variant}")[0][0]) <= 1e-8


# ---------------------------------------------------------------------------
# Plug-back and report invariants
# ---------------------------------------------------------------------------


def test_plug_back_equation_norm(rng):
    ds, est = _binary_fixture(rng)
    basis, outcome, covar = est.basis, est.outcome, est.covar(0)
    for variant in ("identity", "simple", "optimal"):
        rep = est.solve(InstrumentSpec(variant))
        # re-evaluate the mean estimating function independently
        phi = instrument_matrices(InstrumentSpec(variant), ds.x, outcome.params,
                                  covar.params, basis)
        f = covariate_means(covar.params, ds.x, basis)
        g = basis.design(ds.x) @ outcome.params.alpha
        eta = ds.z @ rep.beta_hat + g
        zeta = np.where(ds.y == 1, np.exp(-eta), -1.0)
        mean_r = np.einsum("n,nij,nj->i", zeta, phi, ds.z - f) / ds.n
        assert np.max(np.abs(mean_r)) <= 1e-10
        assert rep.diagnostics.final_eq_norm <= 1e-10


def test_report_covariance_psd_and_cis(rng):
    _, est = _binary_fixture(rng)
    rep = est.solve(InstrumentSpec("simple"))
    np.testing.assert_allclose(rep.covariance, rep.covariance.T)
    assert np.linalg.eigvalsh(rep.covariance).min() >= -1e-15
    np.testing.assert_allclose(rep.std_errors, np.sqrt(np.diag(rep.covariance)))
    from statistics import NormalDist
    zq = NormalDist().inv_cdf(0.95)
    np.testing.assert_allclose(wald_interval(rep.beta_hat, rep.std_errors, 0.9)[:, 1]
                               - rep.beta_hat, zq * rep.std_errors)
    # influence rows average to ~0 at the solution
    influence = _assemble(est.kernel(InstrumentSpec("simple")), rep.beta_hat).influence
    assert np.max(np.abs(est.rows.weigh(influence).sum(axis=0) / est.rows.total)) <= 1e-8


def test_jacobian_condition_equals_svd_condition(rng):
    """The reported condition number is np.linalg.cond of the Jacobian at
    beta_hat, for p=1 (where no SVD is run) and p=2 alike."""
    _, est1 = _binary_fixture(rng)
    n = 800
    x = rng.uniform(-1.0, 1.0, (n, 1))
    z = rng.standard_normal((n, 2)) + 0.3 * x
    y = (rng.random(n) < expit(0.2 + z @ np.array([0.5, -0.4]) + 0.5 * x[:, 0])).astype(int)
    est2 = Estimation(Dataset(y, z, x), Basis.linear_in(1), ("gaussian", "gaussian"))
    # the Y=1 solve is the mirror's: the relabeled Y=0 kernel's at -beta_hat
    for est in (est1, est1.mirror, est2):
        for variant in ("identity", "simple", "optimal"):
            spec = InstrumentSpec(variant)
            rep, kernel = est.solve(spec), est.kernel(spec)
            jac = kernel.jacobian(kernel.level.weight(rep.beta_hat))
            assert jac.shape == (est.data.p, est.data.p)
            assert rep.diagnostics.jacobian_condition == float(np.linalg.cond(jac))


def test_kernel_holds_only_what_its_instrument_determines(rng):
    """A kernel holds phi, u, cu1 and c0 and refers to its estimation and its
    level pieces, which every kernel of the estimation shares and which hold
    the residual's factor: the weight on the Y=1 rows and the residual."""
    _, est = _binary_fixture(rng)
    kernels = [est.kernel(InstrumentSpec(v)) for v in ("identity", "simple", "optimal")]
    for kernel in kernels:
        assert sorted(vars(kernel)) == ["c0", "cu1", "est", "level", "phi", "u"]
        assert kernel.est is est and kernel.level is kernels[0].level
    level, beta = est._level, np.array([0.3])
    resid = level.residual(level.weight(beta))
    y1 = est.data.y == 1
    assert (resid[~y1] == -1.0).all()
    assert resid[y1].tobytes() == np.exp(-(est.data.z[y1].dot(beta) + est.g[y1])).tobytes()


def test_estimation_is_freed_without_the_cyclic_collector(rng):
    """Once every estimator has run, dropping the last reference to an
    estimation and to its kernels frees it at once: nothing it caches refers
    back to it, so no cycle holds its arrays until the cyclic collector runs."""
    _, est = _binary_fixture(rng)
    for name in KNOWN_ESTIMATORS:
        est.estimate(name)
    kernel, ref = est.kernel(InstrumentSpec("optimal")), weakref.ref(est)
    gc.disable()
    try:
        del est
        assert ref() is not None  # the kernel holds it
        del kernel
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("start, singular", [(40.0, False), (800.0, True)])
def test_solve_restarts_from_zero(start, singular):
    """A failed first attempt restarts Newton from zero: from 40 every step
    length fails after one iteration (51 halvings), from 800 the Jacobian
    is singular.  The solve returns the zero-start root bit for bit and
    counts the iterations and halvings of both runs."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    ds = sample_dataset(sc.law, 500, 11)
    kernel = Estimation(ds, sc.working_basis, sc.z_families).kernel(InstrumentSpec("simple"))
    first = damped_newton(kernel.system, np.array([start]))
    assert not first.converged and first.singular == singular
    if not singular:
        assert (first.iterations, first.step_halvings) == (1, 51)
    zero = damped_newton(kernel.system, np.zeros(1))
    assert zero.converged
    res = _solve(kernel, np.array([start]))
    assert res.params.tobytes() == zero.params.tobytes()
    assert res.converged and not res.singular and res.final_norm == zero.final_norm
    assert res.iterations == first.iterations + zero.iterations
    assert res.step_halvings == first.step_halvings + zero.step_halvings


def _counting(system, counts, evaluations):
    """system(theta) wrapped to count its calls and its Jacobian thunks'
    calls, and the exp/expit evaluations (the running total in
    evaluations[0]) that each makes."""
    def counted(theta):
        before = evaluations[0]
        eq, jacobian = system(theta)
        counts["system"] += 1
        counts["system_evaluations"] += evaluations[0] - before

        def counted_jacobian():
            before = evaluations[0]
            jac = jacobian()
            counts["jacobian"] += 1
            counts["jacobian_evaluations"] += evaluations[0] - before
            return jac
        return eq, counted_jacobian
    return counted


def _new_counts():
    return dict.fromkeys(("system", "system_evaluations", "jacobian", "jacobian_evaluations"), 0)


def _counted_kernel(kernel):
    """Route the kernel's system, and the weight of its level pieces that it
    takes its exp from, through counters; returns the counts."""
    counts, evaluations = _new_counts(), [0]
    weight = kernel.level.weight

    def counted_weight(theta):
        evaluations[0] += 1
        return weight(theta)
    kernel.level.weight = counted_weight
    kernel.system = _counting(kernel.system, counts, evaluations)
    return counts


def _assert_one_evaluation_per_trial_point(counts, res, extra=0):
    """A solve of k iterations and h halvings evaluates the equation at the
    start and at each trial point, 1 + k + h times, and builds the Jacobian
    of each of its k accepted iterates from that evaluation.  `extra` counts
    an attempt stopped at a singular Jacobian: one more evaluation and one
    more Jacobian, with no iteration counted."""
    assert counts["system"] == 1 + res.iterations + res.step_halvings + extra
    assert counts["jacobian"] == res.iterations + extra
    assert counts["system_evaluations"] == counts["system"]
    assert counts["jacobian_evaluations"] == 0


@pytest.mark.parametrize("scenario", ["S1-binary", "S2-gaussian"])
def test_newton_evaluates_once_per_trial_point(scenario, monkeypatch):
    """The logistic fits and the beta solves evaluate expit/exp once per
    trial point and never again for the Jacobian of an accepted iterate."""
    import drlogit.nuisance as nuisance

    sc = next(s for s in scenario_catalog() if s.name == scenario)
    ds = sample_dataset(sc.law, 500, 5)
    evaluations, fits = [0], []
    expit_ = nuisance.expit

    def counted_expit(c):
        evaluations[0] += 1
        return expit_(c)

    def counted_newton(system, start):
        counts = _new_counts()
        res = damped_newton(_counting(system, counts, evaluations), start)
        fits.append((counts, res))
        return res
    monkeypatch.setattr(nuisance, "expit", counted_expit)
    monkeypatch.setattr(nuisance, "damped_newton", counted_newton)
    ctx = Estimation(ds, sc.working_basis, sc.z_families)
    ctx.outcome, ctx.covar(0)  # both nuisance fits, each built on first use
    # the outcome MLE, plus one fit per Bernoulli covariate component
    assert len(fits) == 1 + sc.z_families.count("bernoulli")
    for counts, res in fits:
        assert res.converged and res.iterations > 0
        _assert_one_evaluation_per_trial_point(counts, res)

    for variant in ("identity", "simple", "optimal"):
        kernel = ctx.kernel(InstrumentSpec(variant))
        counts = _counted_kernel(kernel)
        res = _solve(kernel, ctx.outcome.params.beta)
        assert res.iterations > 0
        _assert_one_evaluation_per_trial_point(counts, res)


@pytest.mark.parametrize("start, singular", [(40.0, False), (800.0, True)])
def test_restart_counts_evaluations_of_both_attempts(start, singular):
    """The restart case of test_solve_restarts_from_zero: the evaluations of
    both attempts add up as one solve's, the singular first attempt with
    its one evaluation and one Jacobian beyond its zero iterations."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    ds = sample_dataset(sc.law, 500, 11)
    kernel = Estimation(ds, sc.working_basis, sc.z_families).kernel(InstrumentSpec("simple"))
    counts = _counted_kernel(kernel)
    res = _solve(kernel, np.array([start]))
    assert res.converged
    _assert_one_evaluation_per_trial_point(counts, res, extra=int(singular))


# ---------------------------------------------------------------------------
# 1x1 systems without LAPACK
# ---------------------------------------------------------------------------


def _wide_magnitudes(rng, size):
    """Signed floats whose binary exponents span -1074 (subnormal) to 1023."""
    return np.ldexp(rng.choice([-1.0, 1.0], size) * rng.uniform(0.5, 1.0, size),
                    rng.integers(-1074, 1024, size))


_EDGE_PIVOTS = (math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 1e308, -1e308)


def _lapack_step(jac, eq):
    """The step as damped_newton took it from LAPACK for every shape."""
    try:
        step = np.linalg.solve(jac, -eq)
    except np.linalg.LinAlgError:
        return None
    return step if np.isfinite(step).all() else None


def test_newton_step_1x1_equals_lapack_solve(rng):
    """The 1x1 Newton step is LAPACK's solve bit for bit, on random pairs from
    subnormal to huge magnitudes and on NaN, inf and subnormal pivots; a
    quotient that overflows, like LAPACK's inf, is no step (singular), and
    no RuntimeWarning is raised."""
    pivots = np.concatenate([_wide_magnitudes(rng, 20_000), _EDGE_PIVOTS])
    eqs = np.concatenate([_wide_magnitudes(rng, 20_000), np.ones(len(_EDGE_PIVOTS))])
    overflowed = 0
    for pivot, eq in zip(pivots, eqs):
        jac, rhs = np.array([[pivot]]), np.array([eq])
        want = _lapack_step(jac, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _newton_step(jac, rhs)
        if want is None:
            overflowed += 1
            assert got is None, (pivot, eq)
        else:
            assert got is not None and got.shape == (1,), (pivot, eq)
            assert got.tobytes() == want.tobytes(), (pivot, eq)
    assert overflowed > 1000  # both the finite and the overflowing case were exercised


@pytest.mark.parametrize("pivot", [0.0, -0.0])
def test_zero_pivot_is_singular_as_in_lapack(pivot):
    """A zero 1x1 Jacobian ends Newton as singular and a zero H refuses the
    sandwich, where LAPACK raises LinAlgError."""
    jac = np.array([[pivot]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac, np.ones(1))
    assert _newton_step(jac, np.ones(1)) is None
    res = damped_newton(lambda th: (np.array([1.0]), lambda: jac), np.zeros(1))
    assert res.singular and not res.converged and res.iterations == 0
    with pytest.raises(SingularMatrixError, match="singular"):
        _inverse(jac)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_1x1_step_ends_singular():
    """A Newton step of -1e300 / 1e-300 overflows: singular, as LAPACK's inf
    step was, and without an overflow warning."""
    res = damped_newton(lambda th: (np.array([1e300]), lambda: np.array([[1e-300]])),
                        np.zeros(1))
    assert res.singular and not res.converged and res.iterations == 0


def test_inverse_1x1_equals_lapack_inv(rng):
    """The 1x1 inverse is LAPACK's inv bit for bit, the inf of a subnormal
    pivot and the NaN or zero of a NaN or inf pivot included; a larger H
    still goes to LAPACK."""
    pivots = np.concatenate([_wide_magnitudes(rng, 20_000), _EDGE_PIVOTS])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pivot in pivots:
            h = np.array([[pivot]])
            assert _inverse(h).tobytes() == np.linalg.inv(h).tobytes(), pivot
    h = rng.normal(size=(2, 2))
    assert _inverse(h).tobytes() == np.linalg.inv(h).tobytes()


@pytest.mark.parametrize("scenario", ["S1-binary", "S2-gaussian"])
def test_scalar_solve_and_sandwich_equal_their_lapack_forms(scenario, monkeypatch):
    """On catalog datasets, every estimator's Newton result and sandwich
    influence rows are the same bits when the 1x1 step and inverse are
    taken by LAPACK's solve and inv."""
    import drlogit._newton as newton
    import drlogit.estimators as estimators
    sc = next(s for s in scenario_catalog() if s.name == scenario)

    def run():
        out = []
        for seed in range(4):
            ctx = Estimation(sample_dataset(sc.law, 500, 300 + seed), sc.working_basis,
                             sc.z_families)
            for variant in ("identity", "simple", "optimal"):
                kernel = ctx.kernel(InstrumentSpec(variant))
                res = _solve(kernel, ctx.outcome.params.beta)
                out += [res.params.tobytes(), res.iterations, res.step_halvings,
                        _assemble(kernel, res.params).influence.tobytes()]
        return out

    fast = run()
    monkeypatch.setattr(newton, "_newton_step", _lapack_step)
    monkeypatch.setattr(estimators, "_inverse", np.linalg.inv)
    assert run() == fast


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------


def test_closed_form_balanced_stratum():
    """Equal counts in every (y, z) cell with e = f = 1/2 make the two
    factor sums equal, so beta_hat = 0."""
    y = np.array([1, 1, 0, 0] * 5)
    z = np.array([1.0, 0.0, 1.0, 0.0] * 5)[:, None]
    est = Estimation(Dataset(y, z, np.zeros((20, 1))), Basis((BasisTerm("intercept"),)),
                     ("bernoulli",))
    assert est.closed_form() == pytest.approx(0.0, abs=1e-12)


def test_closed_form_plug_back_kernel(rng):
    ds, est = _binary_fixture(rng)
    beta = est.closed_form()
    e = expit(est.basis.design(ds.x) @ est.outcome.params.alpha)
    f = covariate_means(est.covar(0).params, ds.x, est.basis)[:, 0]
    kernel = np.exp(-beta * ds.z[:, 0] * ds.y) * (ds.y - e) * (ds.z[:, 0] - f)
    assert abs(kernel.mean()) <= 1e-12


def test_closed_form_matches_newton_on_random_datasets():
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    for seed in range(50):
        est = Estimation(sample_binary(sc.law, 300, 50_000 + seed), sc.working_basis,
                         ("bernoulli",))
        cf = est.closed_form()
        assert cf == pytest.approx(est.solve(InstrumentSpec("simple")).beta_hat[0], abs=1e-8)


def test_closed_form_no_finite_root():
    # no (y=1, z=1) rows: B = 0
    y = np.array([1, 1, 0, 0, 0, 0])
    z = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])[:, None]
    est = Estimation(Dataset(y, z, np.zeros((6, 1))), Basis((BasisTerm("intercept"),)),
                     ("bernoulli",))
    with pytest.raises(ConvergenceError, match="finite root"):
        est.closed_form()


# ---------------------------------------------------------------------------
# Influence pieces: finite-difference oracle
# ---------------------------------------------------------------------------


def _mean_r_frozen_phi(ds, basis, beta, alpha, covar_params, phi):
    """Sample mean of the estimating function with the instrument frozen:
    the independent evaluation used by the finite-difference oracle."""
    f = covariate_means(covar_params, ds.x, basis)
    g = basis.design(ds.x) @ alpha
    eta = ds.z @ beta + g
    zeta = np.where(ds.y == 1, np.exp(-eta), -1.0)
    return np.einsum("n,nij,nj->i", zeta, phi, ds.z - f) / ds.n


@pytest.mark.parametrize("variant,family", [
    ("identity", "bernoulli"), ("simple", "bernoulli"), ("optimal", "bernoulli"),
    ("simple", "gaussian"), ("optimal", "gaussian"),
])
def test_influence_pieces_match_finite_differences(variant, family, rng):
    if family == "bernoulli":
        ds, est = _binary_fixture(rng, n=150)
    else:
        n = 150
        x = rng.uniform(-1.5, 1.5, (n, 1))
        z = (0.1 + 0.7 * x[:, 0] + rng.normal(0, 0.9, n))[:, None]
        y = (rng.random(n) < expit(0.5 * z[:, 0] + 0.2 + 0.6 * x[:, 0])).astype(int)
        ds = Dataset(y, z, x)
        est = Estimation(ds, Basis.linear_in(1), ("gaussian",))
    basis, outcome, covar = est.basis, est.outcome, est.covar(0)
    beta_hat = outcome.params.beta + 0.07  # a generic point, off the root
    spec = InstrumentSpec(variant)
    pieces = _assemble(est.kernel(spec), beta_hat)

    phi = instrument_matrices(spec, ds.x, outcome.params, covar.params, basis)
    h = 1e-5
    alpha = outcome.params.alpha
    gamma = covar.params.gamma

    fd_h = np.empty_like(pieces.h_matrix)
    for k in range(beta_hat.size):
        d = np.zeros_like(beta_hat)
        d[k] = h
        hi = _mean_r_frozen_phi(ds, basis, beta_hat + d, alpha, covar.params, phi)
        lo = _mean_r_frozen_phi(ds, basis, beta_hat - d, alpha, covar.params, phi)
        fd_h[:, k] = (hi - lo) / (2 * h)
    np.testing.assert_allclose(pieces.h_matrix, fd_h, rtol=1e-6, atol=1e-10)

    fd_b1 = np.empty_like(pieces.b1)
    for k in range(alpha.size):
        d = np.zeros_like(alpha)
        d[k] = h
        hi = _mean_r_frozen_phi(ds, basis, beta_hat, alpha + d, covar.params, phi)
        lo = _mean_r_frozen_phi(ds, basis, beta_hat, alpha - d, covar.params, phi)
        fd_b1[:, k] = (hi - lo) / (2 * h)
    np.testing.assert_allclose(pieces.b1, fd_b1, rtol=1e-6, atol=1e-10)

    p, m = gamma.shape
    fd_b2 = np.empty((beta_hat.size, p * m))
    for j in range(p):
        for k in range(m):
            gp, gm = gamma.copy(), gamma.copy()
            gp[j, k] += h
            gm[j, k] -= h
            cp = CovariateModelParams(gp, covar.params.families, covar.params.resid_var)
            cm = CovariateModelParams(gm, covar.params.families, covar.params.resid_var)
            hi = _mean_r_frozen_phi(ds, basis, beta_hat, alpha, cp, phi)
            lo = _mean_r_frozen_phi(ds, basis, beta_hat, alpha, cm, phi)
            fd_b2[:, j * m + k] = (hi - lo) / (2 * h)
    np.testing.assert_allclose(pieces.b2, fd_b2, rtol=1e-6, atol=1e-10)


def test_nuisance_curvature_vanishes_when_both_correct():
    """Both working models correct on a saturated support: the mean
    derivatives in the nuisance directions shrink with n."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    law = sc.law
    # working basis saturates the 3-point grid
    basis = Basis.linear_in(1).plus(BasisTerm("square", 0))
    est = Estimation(sample_binary(law, 100_000, 88), basis, ("bernoulli",))
    rep = est.solve(InstrumentSpec("simple"))
    pieces = _assemble(est.kernel(InstrumentSpec("simple")), rep.beta_hat)
    assert np.max(np.abs(pieces.b1)) <= 0.02
    assert np.max(np.abs(pieces.b2)) <= 0.02


# ---------------------------------------------------------------------------
# Exact unbiasedness (enumeration oracle)
# ---------------------------------------------------------------------------


def _enumeration_law(beta_star=0.7):
    """Finite law whose g* and f0* are exactly representable in the
    linear basis on the 3-point grid."""
    gc = (0.3, -0.5)
    fc = (-0.2, 0.8)
    xs = np.array([[-1.0], [0.0], [1.0]])
    pz1 = expit(fc[0] + fc[1] * xs[:, 0])
    law = logistic_finite_law(
        beta=np.array([beta_star]),
        g_of_x=lambda x: gc[0] + gc[1] * x[0],
        x_points=xs,
        x_probs=np.array([0.25, 0.4, 0.35]),
        z_support=np.array([[0.0], [1.0]]),
        pz_given_y0=np.column_stack([1 - pz1, pz1]),
    )
    return law, np.array(gc), np.array(fc)


@pytest.mark.parametrize("variant", ["identity", "simple", "optimal"])
def test_exact_unbiasedness_one_model_correct(variant, rng):
    """E[r(beta*, ...)] = 0 by exact enumeration when either working
    model is correct, for every instrument variant and arbitrary values
    of the other model's parameters."""
    beta_star = 0.7
    law, gc, fc = _enumeration_law(beta_star)
    spec = InstrumentSpec(variant)
    basis = Basis.linear_in(1)
    for k in range(5):
        gamma_wrong = rng.uniform(-1.5, 1.5, 2)
        covar = CovariateModelParams(gamma_wrong[None, :], ("bernoulli",),
                                     np.array([math.nan]))
        val = law.expectation(lambda y, z, x: ee_dr(
            y, z, x, np.array([beta_star]), gc, covar, spec, basis))
        assert np.max(np.abs(val)) <= 1e-12, f"correct-g draw {k}"
    covar_right = CovariateModelParams(fc[None, :], ("bernoulli",), np.array([math.nan]))
    for k in range(5):
        alpha_wrong = rng.uniform(-1.5, 1.5, 2)
        val = law.expectation(lambda y, z, x: ee_dr(
            y, z, x, np.array([beta_star]), alpha_wrong, covar_right, spec, basis))
        assert np.max(np.abs(val)) <= 1e-12, f"correct-f draw {k}"


def test_exact_unbiasedness_tau_instrument(rng):
    """The general-instrument estimating function is exactly unbiased at
    beta* under either correct model (enumeration oracle), for a linear
    and for a tabulated binary instrument."""
    beta_star = 0.7
    law, gc, fc = _enumeration_law(beta_star)
    basis = Basis.linear_in(1)
    u_lin = LinearInstrument(InstrumentSpec("simple"))
    u_tab = BinaryInstrument(u0=lambda x: 0.3 + 0.1 * x[0], u1=lambda x: 1.0 - 0.2 * x[0])
    for u in (u_lin, u_tab):
        for k in range(3):
            gamma_wrong = rng.uniform(-1.2, 1.2, 2)
            covar = CovariateModelParams(gamma_wrong[None, :], ("bernoulli",),
                                         np.array([math.nan]))
            val = law.expectation(lambda y, z, x: ee_instrument(
                y, z, x, np.array([beta_star]), gc, covar, u, basis))
            assert np.max(np.abs(val)) <= 1e-12
        covar_right = CovariateModelParams(fc[None, :], ("bernoulli",),
                                           np.array([math.nan]))
        for k in range(3):
            alpha_wrong = rng.uniform(-1.2, 1.2, 2)
            val = law.expectation(lambda y, z, x: ee_instrument(
                y, z, x, np.array([beta_star]), alpha_wrong, covar_right, u, basis))
            assert np.max(np.abs(val)) <= 1e-12


# ---------------------------------------------------------------------------
# Root properties: scale invariance, class equivalence, symmetry
# ---------------------------------------------------------------------------


def test_root_invariant_to_instrument_rescaling(rng):
    """Multiplying phi by a positive constant cannot move the root: the
    bisection root of the scaled sample equation equals the doubly robust solve's."""
    ds, est = _binary_fixture(rng, n=250)
    basis, outcome, covar = est.basis, est.outcome, est.covar(0)
    spec = InstrumentSpec("simple")
    rep = est.solve(spec)
    phi = instrument_matrices(spec, ds.x, outcome.params, covar.params, basis)
    f = covariate_means(covar.params, ds.x, basis)
    g = basis.design(ds.x) @ outcome.params.alpha
    phi_resid = np.einsum("nij,nj->ni", phi, ds.z - f)[:, 0]

    def scaled_equation(c):
        def eq(b):
            eta = b * ds.z[:, 0] + g
            zeta = np.where(ds.y == 1, np.exp(-eta), -1.0)
            return float(np.mean(zeta * c * phi_resid))
        return eq

    for c in (0.037, 1.0, 11.0):
        root = bisect_root(scaled_equation(c), -5, 5)
        assert abs(root - rep.beta_hat[0]) <= 1e-10


def test_binary_class_equivalence_tau_vs_phi(rng):
    """For binary Z, solving the general-instrument equation with
    u(z, x) = c(x) z reproduces the doubly robust root for the matched phi."""
    ds, est = _binary_fixture(rng, n=250)
    basis, covar = est.basis, est.covar(0)
    rep = est.solve(InstrumentSpec("simple"))
    alpha = est.outcome.params.alpha

    def c_of_x(x):
        return expit(float(basis.row(x) @ alpha))

    u = BinaryInstrument(u0=lambda x: 0.0, u1=c_of_x)

    def eq(b):
        total = 0.0
        for i in range(ds.n):
            total += ee_instrument(int(ds.y[i]), ds.z[i], ds.x[i], np.array([b]),
                                   alpha, covar.params, u, basis)[0]
        return total / ds.n

    root = bisect_root(eq, -5, 5)
    assert abs(root - rep.beta_hat[0]) <= 1e-8


def test_y1_estimator_matches_relabeled_y0_estimator(rng):
    """Relabeling y -> 1-y maps the Y=1 estimator onto the Y=0 estimator
    with negated coefficients."""
    ds, est = _binary_fixture(rng, n=300)
    flipped = Estimation(Dataset(1 - ds.y, ds.z, ds.x), est.basis, ("bernoulli",))
    # the simple and the identity instrument
    for variant in ("simple", "identity"):
        beta_y1 = est.estimate(f"dr_y1_{variant}")[0][0]
        assert -flipped.solve(InstrumentSpec(variant)).beta_hat[0] == pytest.approx(beta_y1,
                                                                                   abs=1e-8)


@pytest.mark.parametrize("variant", ["identity", "simple", "optimal"])
@pytest.mark.parametrize("p", [1, 2])
def test_y1_report_matches_refit_relabeled_report(p, variant, rng):
    """Every field of the Y=1 estimate mirrors the doubly robust solve on the
    relabeled data with both nuisance models refit there: the SE, the
    covariance and the influence rows agree, the beta and the interval flip
    sign (p=1 binary, p=2 Gaussian Z)."""
    if p == 1:
        ds, est = _binary_fixture(rng, n=600)
    else:
        n = 800
        x = rng.uniform(-1.0, 1.0, (n, 1))
        z = rng.standard_normal((n, 2)) + 0.3 * x
        y = (rng.random(n) < expit(0.2 + z @ np.array([0.5, -0.4]) + 0.5 * x[:, 0]))
        ds = Dataset(y.astype(int), z, x)
        est = Estimation(ds, Basis.linear_in(1), ("gaussian", "gaussian"))
    spec = InstrumentSpec(variant)
    beta, se, _ = est.estimate(f"dr_y1_{variant}")
    mirror, flipped = est.mirror, Estimation(Dataset(1 - ds.y, ds.z, ds.x), est.basis,
                                             est.z_families)
    ref = flipped.solve(spec)
    tol = dict(rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(beta, -ref.beta_hat, **tol)
    np.testing.assert_allclose(se, ref.std_errors, **tol)
    np.testing.assert_allclose(mirror.solve(spec).covariance, ref.covariance, **tol)
    # the mirror's rows are the data's; the refit's are those of the relabeled data
    np.testing.assert_allclose(
        _in_data_order(mirror, _assemble(mirror.kernel(spec), -beta).influence),
        _in_data_order(flipped, _assemble(flipped.kernel(spec), ref.beta_hat).influence), **tol)
    ci = wald_interval(beta, se, 0.95)
    np.testing.assert_allclose(ci, -wald_interval(ref.beta_hat, ref.std_errors, 0.95)[:, ::-1],
                               **tol)
    assert (ci[:, 0] < ci[:, 1]).all()


def _in_data_order(est, a):
    """The per-distinct-row array a in the data order of the rows' first occurrences."""
    return a if est.rows.first is None else a[np.argsort(est.rows.first)]


def test_y1_estimator_centered_small_study():
    """g and the Y=1 covariate model both correct: the mirror estimator
    is centered within Monte Carlo resolution."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    betas = []
    for r in range(80):
        ds = sample_binary(sc.law, 1200, np.random.SeedSequence(777, spawn_key=(r,)))
        est = Estimation(ds, sc.working_basis, ("bernoulli",))
        betas.append(est.estimate("dr_y1_simple")[0][0])
    betas = np.array(betas)
    bias = betas.mean() - sc.law.beta_star[0]
    mcse = betas.std(ddof=1) / math.sqrt(len(betas))
    assert abs(bias) <= max(0.02, 3 * mcse)


# ---------------------------------------------------------------------------
# Efficiency comparison plumbing
# ---------------------------------------------------------------------------


def test_vector_z_end_to_end(rng):
    """p=2 Gaussian Z: the full pipeline solves, satisfies the plug-back
    contract, and lands within a loose band of the generating beta."""
    n = 3000
    beta_star = np.array([0.5, -0.4])
    x = rng.uniform(-1.5, 1.5, (n, 1))
    m = np.column_stack([0.1 + 0.6 * x[:, 0], -0.2 + 0.4 * x[:, 0]])
    s2 = np.array([0.8, 1.1])
    tilt = m @ beta_star + 0.5 * float(beta_star @ (s2 * beta_star))
    e0 = expit(0.2 + 0.5 * x[:, 0])
    p1 = e0 * np.exp(tilt) / ((1 - e0) + e0 * np.exp(tilt))
    y = (rng.random(n) < p1).astype(int)
    z = m + y[:, None] * (s2 * beta_star)[None, :] \
        + rng.standard_normal((n, 2)) * np.sqrt(s2)[None, :]
    est = Estimation(Dataset(y, z, x), Basis.linear_in(1), ("gaussian", "gaussian"))
    for variant in ("identity", "simple", "optimal"):
        rep = est.solve(InstrumentSpec(variant))
        assert rep.beta_hat.shape == (2,)
        assert rep.diagnostics.final_eq_norm <= 1e-10
        assert np.all(np.abs(rep.beta_hat - beta_star) <= 5 * rep.std_errors)
        assert np.linalg.eigvalsh(rep.covariance).min() >= -1e-15


def test_exact_unbiasedness_arbitrary_fixed_instrument(rng):
    """The unbiasedness identity is instrument-free: a fixed, arbitrary
    matrix function of x also gives E[r] = 0 under either correct model."""
    law, gc, fc = _enumeration_law(0.7)
    a, b = rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)

    def phi_arbitrary(x):
        return abs(a + b * x[0]) + 0.1

    covar_right = CovariateModelParams(fc[None, :], ("bernoulli",), np.array([math.nan]))
    basis = Basis.linear_in(1)
    for _ in range(3):
        alpha_wrong = rng.uniform(-1.5, 1.5, 2)

        def r_val(y, z, x):
            zeta = (y * math.exp(-(0.7 * z[0] + alpha_wrong[0] + alpha_wrong[1] * x[0]))
                    - (1 - y))
            f = covariate_means(covar_right, x[None, :], basis)[0, 0]
            return zeta * phi_arbitrary(x) * (z[0] - f)

        assert abs(law.expectation(r_val)[0]) <= 1e-12
    for _ in range(3):
        gamma_wrong = rng.uniform(-1.5, 1.5, 2)
        covar_wrong = CovariateModelParams(gamma_wrong[None, :], ("bernoulli",),
                                           np.array([math.nan]))

        def r_val(y, z, x):
            zeta = (y * math.exp(-(0.7 * z[0] + gc[0] + gc[1] * x[0])) - (1 - y))
            f = covariate_means(covar_wrong, x[None, :], basis)[0, 0]
            return zeta * phi_arbitrary(x) * (z[0] - f)

        assert abs(law.expectation(r_val)[0]) <= 1e-12


def test_four_se_containment_under_s1():
    """|beta_hat - beta*| <= 4 SE in at least 99% of replications when
    both models are correct: run the study with the matching Wald level."""
    from statistics import NormalDist
    from drlogit.simulate import run_scenario

    level = 2.0 * NormalDist().cdf(4.0) - 1.0
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    summary = run_scenario(sc, ("dr_identity", "dr_simple", "dr_optimal"),
                           level=level, workers=2)
    for e in summary.estimators:
        assert e.coverage >= 0.99, e.estimator


# ---------------------------------------------------------------------------
# Distinct rows weighted by their counts
# ---------------------------------------------------------------------------


def _menu(ds, sc) -> dict:
    """(beta, se) of every estimator that applies, on one context of ds."""
    ctx = Estimation(ds, sc.working_basis, sc.z_families)
    names = [e for e in KNOWN_ESTIMATORS if e != "closed_form" or sc.z_families == ("bernoulli",)]
    return {name: ctx.estimate(name)[:2] for name in names}


def _s1_binary(n=1000, seed=17):
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    return sc, sample_dataset(sc.law, n, seed)


def test_shuffled_rows_give_the_same_estimates(rng):
    """Every estimator's beta and SE on an S1-binary sample, whose rows take
    at most 12 values, do not depend on the order of the rows."""
    sc, ds = _s1_binary()
    assert _distinct(ds).data.n <= 12
    order = rng.permutation(ds.n)
    shuffled = _menu(Dataset(ds.y[order], ds.z[order], ds.x[order]), sc)
    for name, (beta, se) in _menu(ds, sc).items():
        np.testing.assert_allclose(shuffled[name][0], beta, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(shuffled[name][1], se, rtol=1e-12)


def test_stacked_sample_keeps_beta_and_shrinks_se():
    """The sample stacked three times gives every estimator the same beta and
    SE / sqrt(3): each mean is the same, and the sandwich divides by 3n."""
    sc, ds = _s1_binary()
    stacked = _menu(Dataset(np.tile(ds.y, 3), np.tile(ds.z, (3, 1)), np.tile(ds.x, (3, 1))), sc)
    for name, (beta, se) in _menu(ds, sc).items():
        np.testing.assert_allclose(stacked[name][0], beta, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(stacked[name][1], se / math.sqrt(3.0), rtol=1e-12)


@pytest.mark.parametrize("scenario", ["S2-gaussian", "S1-binary"])
def test_rows_counted_twice_weigh_as_the_rows_stacked_twice(scenario):
    """Rows given as they stand, each with a count of 2, give every estimator
    the beta and SE of the rows stacked twice: the counts weigh every sum,
    whether or not the rows came from a collapse."""
    sc = next(s for s in scenario_catalog() if s.name == scenario)
    ds = sample_dataset(sc.law, 300, 3)
    est = Estimation._of_rows(_Rows(ds, np.full(ds.n, 2.0)), sc.working_basis, sc.z_families)
    twice = Dataset(np.tile(ds.y, 2), np.tile(ds.z, (2, 1)), np.tile(ds.x, (2, 1)))
    for name, (beta, se) in _menu(twice, sc).items():
        got = est.estimate(name)
        np.testing.assert_allclose(got[0], beta, rtol=1e-12, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(got[1], se, rtol=1e-12, err_msg=name)


def test_refused_optimal_instrument_names_a_data_row():
    """On collapsed data the optimal instrument's refusal names a data row, as
    without the collapse: the first x = 1 row, where the covariate mean
    underflows (gamma'b(x) = -745), not its index among the distinct rows."""
    y = np.tile([0, 1, 0, 1, 0, 1, 0, 1], 2)
    z = np.tile([0.0, 1.0, 1.0, 0.0], 4)[:, None]
    x = np.tile(np.repeat([0.0, 1.0], 4), 2)[:, None]
    rows = _distinct(Dataset(y, z, x))
    assert rows.data.n == 8
    outcome = OutcomeFit(OutcomeModelParams(np.array([0.3]), np.array([0.1, 0.2])),
                         np.zeros((8, 3)), 0)
    covar = CovariateFit(CovariateModelParams(np.array([[0.0, -745.0]]), ("bernoulli",),
                                              np.full(1, math.nan)), np.zeros((8, 2)))
    est = Estimation._of_rows(rows, Basis.linear_in(1), ("bernoulli",), outcome=outcome,
                              covars={0: covar})
    with pytest.raises(SingularMatrixError, match="at row 4$"):
        est.solve(InstrumentSpec("optimal"))


def _all_rows(data):
    """The collapse forced off: every observation its own row, count 1."""
    return _Rows(data, np.ones(data.n))


@pytest.mark.parametrize("scenario", ["S2-gaussian", "S1-binary"])
def test_collapse_matches_the_forced_off_run(scenario, monkeypatch):
    """Against a run with the collapse forced off, every estimate, report and
    expansion piece, and per distinct row every influence row against the
    forced-off row of its first occurrence: the same bits on continuous data,
    whose rows are all distinct, and within 1e-12 on binary data, where 2000
    rows become 12."""
    import drlogit.estimators as estimators
    sc = next(s for s in scenario_catalog() if s.name == scenario)
    ds, basis = sample_dataset(sc.law, 2000, 23), sc.working_basis

    def run(rows_of):
        monkeypatch.setattr(estimators, "_distinct", rows_of)
        est = Estimation(ds, basis, sc.z_families)
        out = [est.estimate(name) for name in KNOWN_ESTIMATORS if name != "closed_form"]
        per_row = [est.outcome.s1, est.covar(0).s2, est.covar(1).s2]
        for variant in ("identity", "simple", "optimal"):
            spec = InstrumentSpec(variant)
            rep, rep1 = est.solve(spec), est.mirror.solve(spec)
            pieces, pieces1 = (_assemble(e.kernel(spec), r.beta_hat)
                               for e, r in ((est, rep), (est.mirror, rep1)))
            out += [rep.beta_hat, rep.covariance, rep1.beta_hat, rep1.covariance,
                    pieces.h_matrix, pieces.b1, pieces.b2, pieces.covariance]
            per_row += [pieces.influence, pieces1.influence]
        return est.rows, out, per_row

    rows, collapsed, collapsed_rows = run(_distinct)
    _, forced_off, forced_off_rows = run(_all_rows)
    first = slice(None) if rows.first is None else rows.first
    assert len(collapsed_rows[0]) == rows.data.n
    for got, want in zip(collapsed + collapsed_rows,
                         forced_off + [a[first] for a in forced_off_rows]):
        if isinstance(got, tuple):  # estimate's (beta, se, diagnostics)
            if scenario == "S2-gaussian":
                assert got[2] == want[2]
            got, want = np.r_[got[0], got[1]], np.r_[want[0], want[1]]
        if scenario == "S2-gaussian":
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Pieces shared across the menu
# ---------------------------------------------------------------------------


def _gauss2_dataset(n=1500, seed=29):
    """p=2 Gaussian Z on a two-column uniform X, both models correct under
    the linear basis."""
    from drlogit.simulate import GaussianComponent, TrueLaw, XLawUniform
    lin2 = Basis.linear_in(2)
    law = TrueLaw(beta_star=(0.5, -0.3), x_law=XLawUniform((-1.5, -1.5), (1.5, 1.5)),
                  g_basis=lin2, g_coef=(0.2, 0.5, -0.4),
                  components=(GaussianComponent(lin2, (0.1, 0.6, -0.2), 0.8),
                              GaussianComponent(lin2, (-0.1, 0.3, 0.4), 1.0)))
    return sample_dataset(law, n, seed), lin2, ("gaussian", "gaussian")


def _menu_in_order(data, basis, families, names):
    """estimate(name) for each name in order on one fresh estimation, as
    name -> the bytes of beta and se and the diagnostics, or the refusal."""
    est, out = Estimation(data, basis, families), {}
    for name in names:
        try:
            beta, se, diag = est.estimate(name)
            out[name] = (beta.tobytes(), se.tobytes(), diag)
        except (ValueError, EstimationError) as exc:
            out[name] = (type(exc).__name__, str(exc))
    return out


@pytest.mark.parametrize("case", ["S1-binary", "gauss2"])
def test_estimates_do_not_depend_on_the_request_order(case):
    """Every estimator's beta, se and diagnostics are the same bits whichever
    estimator an estimation runs first: the pieces its kernels share (the
    Y=1 rows, z - f, b(x) on them, the slope factor) are built once, from
    the estimation, not from the first kernel's instrument."""
    if case == "gauss2":
        data, basis, families = _gauss2_dataset()
        names = [e for e in KNOWN_ESTIMATORS if e != "closed_form"]
    else:
        sc = next(s for s in scenario_catalog() if s.name == case)
        data, basis, families = sample_dataset(sc.law, 2000, 41), sc.working_basis, sc.z_families
        names = list(KNOWN_ESTIMATORS)
    want = _menu_in_order(data, basis, families, names)
    assert any(len(v) == 3 for v in want.values())
    y1 = [e for e in names if e.startswith("dr_y1_")]
    orders = [["dr_optimal"] + [e for e in names if e != "dr_optimal"],
              y1 + [e for e in names if e not in y1],
              names[::-1]]
    if "closed_form" in names:
        orders.append(["closed_form"] + names[:-1])
    for order in orders:
        assert _menu_in_order(data, basis, families, order) == want, order[0]
