import math

import numpy as np
import pytest

from drlogit.estimators import Estimation
from drlogit.model import Basis, BasisTerm, ConvergenceError, Dataset, expit
from drlogit.nuisance import _distinct
from drlogit.simulate import sample_dataset, scenario_catalog

from conftest import exact_counts_dataset, random_binary_finite_law


def _intercept_basis():
    return Basis((BasisTerm("intercept"),))


def _synthetic(rng, n=400, beta=0.7, alpha=(0.2, -0.5)):
    x = rng.uniform(-1.5, 1.5, (n, 1))
    z = rng.normal(0.3 * x[:, 0], 1.0)[:, None]
    eta = beta * z[:, 0] + alpha[0] + alpha[1] * x[:, 0]
    y = (rng.random(n) < expit(eta)).astype(int)
    return Dataset(y, z, x)


# ---------------------------------------------------------------------------
# Outcome MLE
# ---------------------------------------------------------------------------


def test_mle_intercept_only_with_zero_z_column():
    """With z identically zero its equation component vanishes for every
    beta, so the fit pins beta at 0 and the intercept matches logit(mean y)."""
    y = np.array([1, 0, 0, 0] * 10)
    ds = Dataset(y, np.zeros((40, 1)), np.zeros((40, 1)))
    fit = Estimation(ds, _intercept_basis()).outcome
    assert fit.params.beta[0] == 0.0
    assert fit.params.alpha[0] == pytest.approx(-math.log(3.0), rel=1e-10)


def test_mle_separation_raises():
    z = np.linspace(-2, 2, 30)[:, None]
    y = (z[:, 0] > 0).astype(int)
    ds = Dataset(y, z, np.zeros((30, 1)))
    with pytest.raises(ConvergenceError):
        Estimation(ds, _intercept_basis()).outcome


def test_mle_constant_response_raises():
    ds = Dataset(np.ones(10, dtype=int), np.random.default_rng(0).normal(size=(10, 1)),
                 np.zeros((10, 1)))
    with pytest.raises(ValueError, match="constant"):
        Estimation(ds, _intercept_basis()).outcome


def test_mle_rank_deficient_raises(rng):
    ds = _synthetic(rng)
    dup = Basis((BasisTerm("intercept"), BasisTerm("linear", 0), BasisTerm("linear", 0)))
    with pytest.raises(ValueError, match="rank"):
        Estimation(ds, dup).outcome


def test_mle_score_reevaluated_independently(rng, lin_basis):
    """The returned parameters drive the re-evaluated mean score below
    1e-10 in max norm; s1 column means follow, and each s1 row solves
    info s1_i = score_i with the information matrix, symmetric positive
    definite, re-evaluated at those parameters."""
    ds = _synthetic(rng, n=200)
    fit = Estimation(ds, lin_basis).outcome
    w = np.column_stack([ds.z, lin_basis.design(ds.x)])
    theta = np.concatenate([fit.params.beta, fit.params.alpha])
    pi = expit(w @ theta)
    score = w.T @ (ds.y - pi) / ds.n
    assert np.max(np.abs(score)) <= 1e-10
    assert np.max(np.abs(fit.s1.mean(axis=0))) <= 1e-8
    info = (w * (pi * (1.0 - pi))[:, None]).T @ w / ds.n
    assert np.linalg.eigvalsh(info).min() > 0
    np.testing.assert_allclose(fit.s1 @ info, w * (ds.y - pi)[:, None], rtol=1e-9, atol=1e-12)


def _logit(prob: float) -> float:
    return math.log(prob / (1.0 - prob))


def test_mle_saturated_binary_z_closed_form_root(rng):
    """Single-point X with binary Z: the model is saturated over the two z
    cells, so the MLE reproduces the empirical P(Y=1 | z) exactly:
    alpha = logit P(Y=1 | z=0) and beta = logit P(Y=1 | z=1) - alpha."""
    n = 400
    z = (rng.random(n) < 0.4).astype(float)[:, None]
    y = (rng.random(n) < np.where(z[:, 0] == 1, 0.7, 0.35)).astype(int)
    fit = Estimation(Dataset(y, z, np.zeros((n, 1))), _intercept_basis()).outcome
    alpha = _logit(y[z[:, 0] == 0].mean())
    assert abs(fit.params.alpha[0] - alpha) <= 1e-10
    assert abs(fit.params.beta[0] - (_logit(y[z[:, 0] == 1].mean()) - alpha)) <= 1e-10


def test_mle_saturated_binary_x_zero_z_closed_form_root(rng):
    """Zero Z with binary X under an intercept-and-slope basis: beta is
    pinned at zero and the model is saturated over the two x cells, so
    alpha_0 = logit P(Y=1 | x=0) and alpha_1 = logit P(Y=1 | x=1) - alpha_0."""
    n = 600
    x = (rng.random(n) < 0.5).astype(float)[:, None]
    y = (rng.random(n) < np.where(x[:, 0] == 1, 0.8, 0.3)).astype(int)
    fit = Estimation(Dataset(y, np.zeros((n, 1)), x), Basis.linear_in(1)).outcome
    alpha0 = _logit(y[x[:, 0] == 0].mean())
    assert fit.params.beta[0] == 0.0
    assert abs(fit.params.alpha[0] - alpha0) <= 1e-10
    assert abs(fit.params.alpha[1] - (_logit(y[x[:, 0] == 1].mean()) - alpha0)) <= 1e-10


# ---------------------------------------------------------------------------
# Covariate fits
# ---------------------------------------------------------------------------


def test_covariate_intercept_only_moments():
    y = np.array([0, 0, 0, 1, 1])
    z = np.array([1.0, 2.0, 3.0, 50.0, -4.0])[:, None]
    ds = Dataset(y, z, np.zeros((5, 1)))
    fit = Estimation(ds, _intercept_basis(), ["gaussian"]).covar(0)
    assert fit.params.gamma[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert fit.params.resid_var[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert not fit.s2[3:].any()  # the y=1 rows sit outside the subsample


def test_covariate_ignores_y1_rows():
    rng = np.random.default_rng(5)
    y = (rng.random(60) < 0.5).astype(int)
    z = rng.normal(size=(60, 1))
    x = rng.normal(size=(60, 1))
    ds = Dataset(y, z, x)
    basis = Basis.linear_in(1)
    fit = Estimation(ds, basis, ["gaussian"]).covar(0)
    z2 = z.copy()
    z2[y == 1] = 9999.0
    fit2 = Estimation(Dataset(y, z2, x), basis, ["gaussian"]).covar(0)
    np.testing.assert_array_equal(fit.params.gamma, fit2.params.gamma)
    np.testing.assert_array_equal(fit.params.resid_var, fit2.params.resid_var)


def test_covariate_y1_mirror():
    y = np.array([1, 1, 1, 1, 0, 0])
    z = np.array([0.0, 1.0, 1.0, 0.0, 7.0, -7.0])[:, None]
    ds = Dataset(y, z, np.zeros((6, 1)))
    fit = Estimation(ds, _intercept_basis(), ["gaussian"]).covar(1)
    assert fit.params.gamma[0, 0] == pytest.approx(0.5, rel=1e-12)
    # altering y=0 rows changes nothing
    z2 = z.copy()
    z2[y == 0] = -123.0
    fit2 = Estimation(Dataset(y, z2, np.zeros((6, 1))), _intercept_basis(), ["gaussian"]).covar(1)
    np.testing.assert_array_equal(fit.params.gamma, fit2.params.gamma)


def test_covariate_synthetic_normal_equations(rng, lin_basis):
    n = 500
    x = rng.uniform(-2, 2, (n, 1))
    z = (0.4 + 0.9 * x[:, 0] + rng.normal(0, 0.8, n))[:, None]
    y = (rng.random(n) < 0.5).astype(int)
    ds = Dataset(y, z, x)
    fit = Estimation(ds, lin_basis, ["gaussian"]).covar(0)
    sub = ds.y == 0
    b0 = lin_basis.design(ds.x[sub])
    resid = ds.z[sub, 0] - b0 @ fit.params.gamma[0]
    assert np.max(np.abs(b0.T @ resid / sub.sum())) <= 1e-10
    assert np.max(np.abs(fit.s2.mean(axis=0))) <= 1e-8
    assert np.all(fit.s2[ds.y == 1] == 0.0)


def test_covariate_bernoulli_logistic(rng, lin_basis):
    n = 600
    x = rng.uniform(-2, 2, (n, 1))
    z = (rng.random(n) < expit(0.3 + 1.1 * x[:, 0])).astype(float)[:, None]
    y = (rng.random(n) < 0.4).astype(int)
    ds = Dataset(y, z, x)
    fit = Estimation(ds, lin_basis, ["bernoulli"]).covar(0)
    sub = ds.y == 0
    b0 = lin_basis.design(ds.x[sub])
    fhat = expit(b0 @ fit.params.gamma[0])
    assert np.max(np.abs(b0.T @ (ds.z[sub, 0] - fhat) / sub.sum())) <= 1e-10
    assert math.isnan(fit.params.resid_var[0])


def test_covariate_bernoulli_rejects_nonbinary(lin_basis):
    ds = Dataset(np.array([0, 0, 0, 1]), np.array([0.0, 0.5, 1.0, 1.0])[:, None],
                 np.array([[0.0], [1.0], [2.0], [3.0]]))
    with pytest.raises(ValueError, match="non-binary"):
        Estimation(ds, lin_basis, ["bernoulli"]).covar(0)


def test_covariate_needs_enough_rows(lin_basis):
    ds = Dataset(np.array([0, 1, 1, 1]), np.ones((4, 1)), np.arange(4.0)[:, None])
    with pytest.raises(ValueError, match="at least"):
        Estimation(ds, lin_basis, ["gaussian"]).covar(0)


def test_covariate_family_count_mismatch(lin_basis, rng):
    ds = _synthetic(rng, n=50)
    with pytest.raises(ValueError, match="family"):
        Estimation(ds, lin_basis, ["gaussian", "gaussian"]).covar(0)


# ---------------------------------------------------------------------------
# Influence consistency (Monte Carlo)
# ---------------------------------------------------------------------------


def test_s1_influence_consistency_monte_carlo(lin_basis):
    """Across replications from a correct law, the variance of
    sqrt(n)(alpha_hat - alpha*) matches the average estimated influence
    variance within 15% relative, per component."""
    reps, n = 200, 2000
    alpha_star = np.array([0.2, -0.5])
    draws = []
    est_var = np.zeros(3)
    for r in range(reps):
        rng = np.random.default_rng(1000 + r)
        ds = _synthetic(rng, n=n, beta=0.7, alpha=tuple(alpha_star))
        fit = Estimation(ds, lin_basis).outcome
        draws.append(np.concatenate([fit.params.beta, fit.params.alpha]))
        est_var += np.diag(fit.s1.T @ fit.s1 / n) / reps
    draws = np.asarray(draws)
    theta_star = np.array([0.7, 0.2, -0.5])
    emp_var = n * draws.var(axis=0, ddof=1)
    # centering check: the Monte Carlo mean is close to the truth
    assert np.max(np.abs(draws.mean(axis=0) - theta_star)) < 0.05
    np.testing.assert_allclose(emp_var, est_var, rtol=0.15)


# ---------------------------------------------------------------------------
# Distinct rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q, values", [(1, 3), (9, 3), (2, 40)])
def test_distinct_rows_group_equal_rows(q, values, rng):
    """_distinct gives each distinct (y, z, x) row once, at its first
    occurrence, with the count of observations equal to it; with 9
    three-valued x columns the key's radix passes n and is re-coded on the
    way, and 40 values per column are coded by binary search.  All-distinct
    data stays as it stands with counts of 1."""
    n = 300
    pick = rng.integers(0, 200, n)  # 300 draws from 200 rows repeat some
    ds = Dataset(rng.integers(0, 2, 200)[pick], rng.integers(0, 2, (200, 1))[pick].astype(float),
                 rng.normal(size=values)[rng.integers(0, values, (200, q))][pick])
    rows = _distinct(ds)
    full = np.column_stack([ds.y, ds.z, ds.x])
    distinct = np.column_stack([rows.data.y, rows.data.z, rows.data.x])
    assert rows.data.n == np.unique(full, axis=0).shape[0] < n
    # each observation's distinct row
    inverse = np.array([np.flatnonzero((distinct == row).all(axis=1))[0] for row in full])
    assert np.array_equal(distinct[inverse], full)
    assert np.array_equal(distinct, full[rows.first])
    assert rows.counts.tolist() == np.bincount(inverse).tolist() and rows.total == n
    assert (rows.first == [np.flatnonzero(inverse == i)[0] for i in range(rows.data.n)]).all()

    continuous = _synthetic(rng, n=50)
    plain = _distinct(continuous)
    assert plain.data is continuous and plain.first is None
    assert plain.counts.tolist() == [1.0] * 50


def test_covariate_counts_observations_not_distinct_rows():
    """A Y=0 subsample of two equal rows, fewer observations than m = 3, is
    refused with the count of observations, as without the collapse; three
    equal rows are enough observations but span rank 1."""
    basis = Basis.linear_in(1).plus(BasisTerm("square", 0))
    y = np.array([0, 0, 1, 1, 1, 1])
    ds = Dataset(y, np.ones((6, 1)), np.array([0.5, 0.5, 0.0, 1.0, 2.0, 3.0])[:, None])
    with pytest.raises(ValueError, match=r"^covariate fit needs at least m=3 rows with y=0, "
                                         r"have 2$"):
        Estimation(ds, basis, ["gaussian"]).covar(0)
    ds = Dataset(np.r_[0, y], np.ones((7, 1)), np.r_[0.5, ds.x[:, 0]][:, None])
    with pytest.raises(ValueError, match="rank deficient on the y=0 subsample"):
        Estimation(ds, basis, ["gaussian"]).covar(0)


def test_stacked_rows_give_the_same_fits():
    """The outcome and covariate fits on data with repeated rows have the same
    parameters as the fits on the rows stacked twice."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    ds = sample_dataset(sc.law, 400, 3)
    twice = Dataset(np.r_[ds.y, ds.y], np.r_[ds.z, ds.z], np.r_[ds.x, ds.x])
    est, est2 = (Estimation(d, sc.working_basis, sc.z_families) for d in (ds, twice))
    assert est.rows.data.n < ds.n
    for a, b in ((est.outcome.params.beta, est2.outcome.params.beta),
                 (est.outcome.params.alpha, est2.outcome.params.alpha),
                 (est.covar(0).params.gamma, est2.covar(0).params.gamma)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
