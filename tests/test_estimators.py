import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from drlogit._newton import _newton_step, damped_newton
from drlogit.estimators import (
    _assemble,
    _Context,
    _inverse,
    _solve,
    assemble_influence,
    closed_form_binary,
    solve_dr,
    solve_dr_y1,
    wald_interval,
)
from drlogit.model import (
    Basis,
    BasisTerm,
    BinaryInstrument,
    ConvergenceError,
    CovariateModelParams,
    Dataset,
    InstrumentSpec,
    LinearInstrument,
    OutcomeModelParams,
    SingularMatrixError,
    _negated,
    covariate_means,
    ee_dr,
    ee_instrument,
    expit,
    instrument_matrices,
)
from drlogit.nuisance import fit_covariate, fit_covariate_y1, fit_outcome_mle
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


def _binary_fixture(rng, n=400, beta=0.6):
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    law = sc.law
    ds = sample_binary(law, n, rng)
    basis = sc.working_basis
    outcome = fit_outcome_mle(ds, basis)
    covar = fit_covariate(ds, basis, ("bernoulli",))
    return ds, basis, outcome, covar


# ---------------------------------------------------------------------------
# Exact saturated root
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["identity", "simple", "optimal"])
def test_saturated_beta0_exact_root(variant):
    """On an exactly representative dataset with both fits saturated,
    the sample equation vanishes at beta = 0."""
    law = _dyadic_beta0_law()
    ds = exact_counts_dataset(law, multiple=2)
    basis = Basis((BasisTerm("intercept"),))
    outcome = fit_outcome_mle(ds, basis)
    covar = fit_covariate(ds, basis, ("bernoulli",))
    rep = solve_dr(ds, outcome, covar, InstrumentSpec(variant))
    assert abs(rep.beta_hat[0]) <= 1e-8
    covar1 = fit_covariate_y1(ds, basis, ("bernoulli",))
    rep1 = solve_dr_y1(ds, outcome, covar1, InstrumentSpec(variant))
    assert abs(rep1.beta_hat[0]) <= 1e-8


# ---------------------------------------------------------------------------
# Plug-back and report invariants
# ---------------------------------------------------------------------------


def test_plug_back_equation_norm(rng):
    ds, basis, outcome, covar = _binary_fixture(rng)
    for variant in ("identity", "simple", "optimal"):
        rep = solve_dr(ds, outcome, covar, InstrumentSpec(variant))
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
    ds, basis, outcome, covar = _binary_fixture(rng)
    rep = solve_dr(ds, outcome, covar, InstrumentSpec("simple"))
    np.testing.assert_allclose(rep.covariance, rep.covariance.T)
    assert np.linalg.eigvalsh(rep.covariance).min() >= -1e-15
    np.testing.assert_allclose(rep.std_errors, np.sqrt(np.diag(rep.covariance)))
    from statistics import NormalDist
    zq = NormalDist().inv_cdf(0.95)
    np.testing.assert_allclose(wald_interval(rep.beta_hat, rep.std_errors, 0.9)[:, 1]
                               - rep.beta_hat, zq * rep.std_errors)
    # influence rows average to ~0 at the solution
    assert np.max(np.abs(rep.influence.mean(axis=0))) <= 1e-8


def test_jacobian_condition_equals_svd_condition(rng):
    """The reported condition number is np.linalg.cond of the Jacobian at
    beta_hat, for p=1 (where no SVD is run) and p=2 alike."""
    ds1, basis1, outcome1, covar1 = _binary_fixture(rng)
    covar1_y1 = fit_covariate_y1(ds1, basis1, ("bernoulli",))
    n = 800
    x = rng.uniform(-1.0, 1.0, (n, 1))
    z = rng.standard_normal((n, 2)) + 0.3 * x
    y = (rng.random(n) < expit(0.2 + z @ np.array([0.5, -0.4]) + 0.5 * x[:, 0])).astype(int)
    ds2, basis2 = Dataset(y, z, x), Basis.linear_in(1)
    outcome2 = fit_outcome_mle(ds2, basis2)
    covar2 = fit_covariate(ds2, basis2, ("gaussian", "gaussian"))
    cases = [(solve_dr, ds1, basis1, outcome1, covar1, False),
             (solve_dr_y1, ds1, basis1, outcome1, covar1_y1, True),
             (solve_dr, ds2, basis2, outcome2, covar2, False)]
    for solve, ds, basis, outcome, covar, y1 in cases:
        for variant in ("identity", "simple", "optimal"):
            spec = InstrumentSpec(variant)
            rep = solve(ds, outcome, covar, spec)
            if y1:  # the Y=1 Jacobian is the relabeled Y=0 kernel's at -beta_hat
                jac = _Context(Dataset(1 - ds.y, ds.z, ds.x), basis,
                               outcome=replace(outcome, params=_negated(outcome.params)),
                               covars={0: replace(covar, response_level=0)}
                               ).kernel(spec).jacobian(-rep.beta_hat)
            else:
                jac = _Context(ds, basis, outcome=outcome, covars={0: covar}
                               ).kernel(spec).jacobian(rep.beta_hat)
            assert jac.shape == (ds.p, ds.p)
            assert rep.diagnostics.jacobian_condition == float(np.linalg.cond(jac))


@pytest.mark.parametrize("start, singular", [(40.0, False), (800.0, True)])
def test_solve_restarts_from_zero(start, singular):
    """A failed first attempt restarts Newton from zero: from 40 every step
    length fails after one iteration (51 halvings), from 800 the Jacobian
    is singular.  The solve returns the zero-start root bit for bit and
    counts the iterations and halvings of both runs."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    ds = sample_dataset(sc.law, 500, 11)
    basis = sc.working_basis
    kernel = _Context(ds, basis, outcome=fit_outcome_mle(ds, basis),
                      covars={0: fit_covariate(ds, basis, sc.z_families)}
                      ).kernel(InstrumentSpec("simple"))
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
    """Route the kernel's system, and the weight it takes its exp from,
    through counters; returns the counts."""
    counts, evaluations = _new_counts(), [0]
    weight = kernel.weight

    def counted_weight(theta):
        evaluations[0] += 1
        return weight(theta)
    kernel.weight = counted_weight
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
    ctx = _Context(ds, sc.working_basis, sc.z_families)
    ctx.covar(0)
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
    basis = sc.working_basis
    kernel = _Context(ds, basis, outcome=fit_outcome_mle(ds, basis),
                      covars={0: fit_covariate(ds, basis, sc.z_families)}
                      ).kernel(InstrumentSpec("simple"))
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
            ctx = _Context(sample_dataset(sc.law, 500, 300 + seed), sc.working_basis,
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


def test_solve_rejects_mismatched_fits(rng):
    ds, basis, outcome, covar = _binary_fixture(rng)
    covar1 = fit_covariate_y1(ds, basis, ("bernoulli",))
    with pytest.raises(ValueError, match="Y=1"):
        solve_dr(ds, outcome, covar1, InstrumentSpec("simple"))
    with pytest.raises(ValueError, match="Y=0"):
        solve_dr_y1(ds, outcome, covar, InstrumentSpec("simple"))


def test_entry_points_refuse_a_basis_not_the_fits(rng):
    """Each public entry point works on the outcome fit's basis, and a
    covariate fit made on another basis would pair its coefficients with the
    wrong features (on S1-gaussian, n=2000, seed 7, the simple solve read
    0.4771 against 0.4807 on one basis): all four refuse it."""
    ds, basis, outcome, _ = _binary_fixture(rng)
    other = Basis((BasisTerm("intercept"), BasisTerm("square", 0)))
    assert other.m == basis.m
    covar_other = fit_covariate(ds, other, ("bernoulli",))
    covar1_other = fit_covariate_y1(ds, other, ("bernoulli",))
    spec = InstrumentSpec("simple")
    for call in [lambda: solve_dr(ds, outcome, covar_other, spec),
                 lambda: solve_dr_y1(ds, outcome, covar1_other, spec),
                 lambda: assemble_influence(ds, outcome.params.beta, outcome, covar_other, spec),
                 lambda: closed_form_binary(ds, outcome, covar_other)]:
        with pytest.raises(ValueError, match="the covariate fit was made on another basis"):
            call()


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------


def test_closed_form_balanced_stratum():
    """Equal counts in every (y, z) cell with e = f = 1/2 make the two
    factor sums equal, so beta_hat = 0."""
    y = np.array([1, 1, 0, 0] * 5)
    z = np.array([1.0, 0.0, 1.0, 0.0] * 5)[:, None]
    ds = Dataset(y, z, np.zeros((20, 1)))
    basis = Basis((BasisTerm("intercept"),))
    outcome = fit_outcome_mle(ds, basis)
    covar = fit_covariate(ds, basis, ("bernoulli",))
    assert closed_form_binary(ds, outcome, covar) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_plug_back_kernel(rng):
    ds, basis, outcome, covar = _binary_fixture(rng)
    beta = closed_form_binary(ds, outcome, covar)
    e = expit(basis.design(ds.x) @ outcome.params.alpha)
    f = covariate_means(covar.params, ds.x, basis)[:, 0]
    kernel = np.exp(-beta * ds.z[:, 0] * ds.y) * (ds.y - e) * (ds.z[:, 0] - f)
    assert abs(kernel.mean()) <= 1e-12


def test_closed_form_matches_newton_on_random_datasets():
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    for seed in range(50):
        ds = sample_binary(sc.law, 300, 50_000 + seed)
        outcome = fit_outcome_mle(ds, sc.working_basis)
        covar = fit_covariate(ds, sc.working_basis, ("bernoulli",))
        cf = closed_form_binary(ds, outcome, covar)
        rep = solve_dr(ds, outcome, covar, InstrumentSpec("simple"))
        assert cf == pytest.approx(rep.beta_hat[0], abs=1e-8)


def test_closed_form_no_finite_root():
    # no (y=1, z=1) rows: B = 0
    y = np.array([1, 1, 0, 0, 0, 0])
    z = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])[:, None]
    ds = Dataset(y, z, np.zeros((6, 1)))
    basis = Basis((BasisTerm("intercept"),))
    outcome = fit_outcome_mle(ds, basis)
    covar = fit_covariate(ds, basis, ("bernoulli",))
    with pytest.raises(ConvergenceError, match="finite root"):
        closed_form_binary(ds, outcome, covar)


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
        ds, basis, outcome, covar = _binary_fixture(rng, n=150)
    else:
        n = 150
        x = rng.uniform(-1.5, 1.5, (n, 1))
        z = (0.1 + 0.7 * x[:, 0] + rng.normal(0, 0.9, n))[:, None]
        y = (rng.random(n) < expit(0.5 * z[:, 0] + 0.2 + 0.6 * x[:, 0])).astype(int)
        ds = Dataset(y, z, x)
        basis = Basis.linear_in(1)
        outcome = fit_outcome_mle(ds, basis)
        covar = fit_covariate(ds, basis, ("gaussian",))
    beta_hat = outcome.params.beta + 0.07  # a generic point, off the root
    spec = InstrumentSpec(variant)
    pieces = assemble_influence(ds, beta_hat, outcome, covar, spec)

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
    ds = sample_binary(law, 100_000, 88)
    outcome = fit_outcome_mle(ds, basis)
    covar = fit_covariate(ds, basis, ("bernoulli",))
    rep = solve_dr(ds, outcome, covar, InstrumentSpec("simple"))
    pieces = assemble_influence(ds, rep.beta_hat, outcome, covar, InstrumentSpec("simple"))
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
    bisection root of the scaled sample equation equals solve_dr's."""
    ds, basis, outcome, covar = _binary_fixture(rng, n=250)
    spec = InstrumentSpec("simple")
    rep = solve_dr(ds, outcome, covar, spec)
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
    u(z, x) = c(x) z reproduces the solve_dr root for the matched phi."""
    ds, basis, outcome, covar = _binary_fixture(rng, n=250)
    rep = solve_dr(ds, outcome, covar, InstrumentSpec("simple"))
    alpha = outcome.params.alpha

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
    ds, basis, outcome, covar = _binary_fixture(rng, n=300)
    covar1 = fit_covariate_y1(ds, basis, ("bernoulli",))
    rep_y1 = solve_dr_y1(ds, outcome, covar1, InstrumentSpec("simple"))

    flipped = Dataset(1 - ds.y, ds.z, ds.x)
    outcome_f = fit_outcome_mle(flipped, basis)
    covar_f = fit_covariate(flipped, basis, ("bernoulli",))
    rep_f = solve_dr(flipped, outcome_f, covar_f, InstrumentSpec("simple"))
    assert -rep_f.beta_hat[0] == pytest.approx(rep_y1.beta_hat[0], abs=1e-8)
    # identity-instrument version of the same symmetry
    rep_y1i = solve_dr_y1(ds, outcome, covar1, InstrumentSpec("identity"))
    rep_fi = solve_dr(flipped, outcome_f, covar_f, InstrumentSpec("identity"))
    assert -rep_fi.beta_hat[0] == pytest.approx(rep_y1i.beta_hat[0], abs=1e-8)


@pytest.mark.parametrize("variant", ["identity", "simple", "optimal"])
@pytest.mark.parametrize("p", [1, 2])
def test_y1_report_matches_refit_relabeled_report(p, variant, rng):
    """Every field of the Y=1 report mirrors solve_dr on the relabeled data
    with both nuisance models refit there: the SE and covariance agree, the
    influence rows and the interval flip sign (p=1 binary, p=2 Gaussian Z)."""
    if p == 1:
        ds, basis, outcome, covar = _binary_fixture(rng, n=600)
        families = ("bernoulli",)
    else:
        n = 800
        x = rng.uniform(-1.0, 1.0, (n, 1))
        z = rng.standard_normal((n, 2)) + 0.3 * x
        y = (rng.random(n) < expit(0.2 + z @ np.array([0.5, -0.4]) + 0.5 * x[:, 0]))
        ds, basis = Dataset(y.astype(int), z, x), Basis.linear_in(1)
        outcome = fit_outcome_mle(ds, basis)
        families = ("gaussian", "gaussian")
    spec = InstrumentSpec(variant)
    rep = solve_dr_y1(ds, outcome, fit_covariate_y1(ds, basis, families), spec)
    flipped = Dataset(1 - ds.y, ds.z, ds.x)
    ref = solve_dr(flipped, fit_outcome_mle(flipped, basis),
                   fit_covariate(flipped, basis, families), spec)
    tol = dict(rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(rep.beta_hat, -ref.beta_hat, **tol)
    np.testing.assert_allclose(rep.std_errors, ref.std_errors, **tol)
    np.testing.assert_allclose(rep.covariance, ref.covariance, **tol)
    np.testing.assert_allclose(rep.influence, -ref.influence, **tol)
    ci = wald_interval(rep.beta_hat, rep.std_errors, 0.95)
    np.testing.assert_allclose(ci, -wald_interval(ref.beta_hat, ref.std_errors, 0.95)[:, ::-1],
                               **tol)
    assert (ci[:, 0] < ci[:, 1]).all()


def test_y1_estimator_centered_small_study():
    """g and the Y=1 covariate model both correct: the mirror estimator
    is centered within Monte Carlo resolution."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    betas = []
    for r in range(80):
        ds = sample_binary(sc.law, 1200, np.random.SeedSequence(777, spawn_key=(r,)))
        outcome = fit_outcome_mle(ds, sc.working_basis)
        covar1 = fit_covariate_y1(ds, sc.working_basis, ("bernoulli",))
        rep = solve_dr_y1(ds, outcome, covar1, InstrumentSpec("simple"))
        betas.append(rep.beta_hat[0])
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
    ds = Dataset(y, z, x)
    basis = Basis.linear_in(1)
    outcome = fit_outcome_mle(ds, basis)
    covar = fit_covariate(ds, basis, ("gaussian", "gaussian"))
    for variant in ("identity", "simple", "optimal"):
        rep = solve_dr(ds, outcome, covar, InstrumentSpec(variant))
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
