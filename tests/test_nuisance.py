import math

import numpy as np
import pytest

from drlogit.model import Basis, BasisTerm, ConvergenceError, Dataset, expit
from drlogit.nuisance import (
    fit_covariate,
    fit_covariate_y1,
    fit_outcome_mle,
)

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
    fit = fit_outcome_mle(ds, _intercept_basis())
    assert fit.params.beta[0] == 0.0
    assert fit.params.alpha[0] == pytest.approx(-math.log(3.0), rel=1e-10)


def test_mle_separation_raises():
    z = np.linspace(-2, 2, 30)[:, None]
    y = (z[:, 0] > 0).astype(int)
    ds = Dataset(y, z, np.zeros((30, 1)))
    with pytest.raises(ConvergenceError):
        fit_outcome_mle(ds, _intercept_basis())


def test_mle_constant_response_raises():
    ds = Dataset(np.ones(10, dtype=int), np.random.default_rng(0).normal(size=(10, 1)),
                 np.zeros((10, 1)))
    with pytest.raises(ValueError, match="constant"):
        fit_outcome_mle(ds, _intercept_basis())


def test_mle_rank_deficient_raises(rng):
    ds = _synthetic(rng)
    dup = Basis((BasisTerm("intercept"), BasisTerm("linear", 0), BasisTerm("linear", 0)))
    with pytest.raises(ValueError, match="rank"):
        fit_outcome_mle(ds, dup)


def test_mle_score_reevaluated_independently(rng, lin_basis):
    """The returned parameters drive the re-evaluated mean score below
    1e-10 in max norm; s1 column means follow."""
    ds = _synthetic(rng, n=200)
    fit = fit_outcome_mle(ds, lin_basis)
    w = np.column_stack([ds.z, lin_basis.design(ds.x)])
    theta = np.concatenate([fit.params.beta, fit.params.alpha])
    score = w.T @ (ds.y - expit(w @ theta)) / ds.n
    assert np.max(np.abs(score)) <= 1e-10
    assert np.max(np.abs(fit.s1.mean(axis=0))) <= 1e-8
    # info matrix is symmetric positive definite
    np.testing.assert_allclose(fit.info_matrix, fit.info_matrix.T)
    assert np.linalg.eigvalsh(fit.info_matrix).min() > 0


def _logit(prob: float) -> float:
    return math.log(prob / (1.0 - prob))


def test_mle_saturated_binary_z_closed_form_root(rng):
    """Single-point X with binary Z: the model is saturated over the two z
    cells, so the MLE reproduces the empirical P(Y=1 | z) exactly:
    alpha = logit P(Y=1 | z=0) and beta = logit P(Y=1 | z=1) - alpha."""
    n = 400
    z = (rng.random(n) < 0.4).astype(float)[:, None]
    y = (rng.random(n) < np.where(z[:, 0] == 1, 0.7, 0.35)).astype(int)
    fit = fit_outcome_mle(Dataset(y, z, np.zeros((n, 1))), _intercept_basis())
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
    fit = fit_outcome_mle(Dataset(y, np.zeros((n, 1)), x), Basis.linear_in(1))
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
    fit = fit_covariate(ds, _intercept_basis(), ["gaussian"])
    assert fit.params.gamma[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert fit.params.resid_var[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert fit.subsample_size == 3
    assert fit.response_level == 0


def test_covariate_ignores_y1_rows():
    rng = np.random.default_rng(5)
    y = (rng.random(60) < 0.5).astype(int)
    z = rng.normal(size=(60, 1))
    x = rng.normal(size=(60, 1))
    ds = Dataset(y, z, x)
    basis = Basis.linear_in(1)
    fit = fit_covariate(ds, basis, ["gaussian"])
    z2 = z.copy()
    z2[y == 1] = 9999.0
    fit2 = fit_covariate(Dataset(y, z2, x), basis, ["gaussian"])
    np.testing.assert_array_equal(fit.params.gamma, fit2.params.gamma)
    np.testing.assert_array_equal(fit.params.resid_var, fit2.params.resid_var)


def test_covariate_y1_mirror():
    y = np.array([1, 1, 1, 1, 0, 0])
    z = np.array([0.0, 1.0, 1.0, 0.0, 7.0, -7.0])[:, None]
    ds = Dataset(y, z, np.zeros((6, 1)))
    fit = fit_covariate_y1(ds, _intercept_basis(), ["gaussian"])
    assert fit.params.gamma[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert fit.response_level == 1
    # altering y=0 rows changes nothing
    z2 = z.copy()
    z2[y == 0] = -123.0
    fit2 = fit_covariate_y1(Dataset(y, z2, np.zeros((6, 1))), _intercept_basis(), ["gaussian"])
    np.testing.assert_array_equal(fit.params.gamma, fit2.params.gamma)


def test_covariate_synthetic_normal_equations(rng, lin_basis):
    n = 500
    x = rng.uniform(-2, 2, (n, 1))
    z = (0.4 + 0.9 * x[:, 0] + rng.normal(0, 0.8, n))[:, None]
    y = (rng.random(n) < 0.5).astype(int)
    ds = Dataset(y, z, x)
    fit = fit_covariate(ds, lin_basis, ["gaussian"])
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
    fit = fit_covariate(ds, lin_basis, ["bernoulli"])
    sub = ds.y == 0
    b0 = lin_basis.design(ds.x[sub])
    fhat = expit(b0 @ fit.params.gamma[0])
    assert np.max(np.abs(b0.T @ (ds.z[sub, 0] - fhat) / sub.sum())) <= 1e-10
    assert math.isnan(fit.params.resid_var[0])


def test_covariate_bernoulli_rejects_nonbinary(lin_basis):
    ds = Dataset(np.array([0, 0, 0, 1]), np.array([0.0, 0.5, 1.0, 1.0])[:, None],
                 np.array([[0.0], [1.0], [2.0], [3.0]]))
    with pytest.raises(ValueError, match="non-binary"):
        fit_covariate(ds, lin_basis, ["bernoulli"])


def test_covariate_needs_enough_rows(lin_basis):
    ds = Dataset(np.array([0, 1, 1, 1]), np.ones((4, 1)), np.arange(4.0)[:, None])
    with pytest.raises(ValueError, match="at least"):
        fit_covariate(ds, lin_basis, ["gaussian"])


def test_covariate_family_count_mismatch(lin_basis, rng):
    ds = _synthetic(rng, n=50)
    with pytest.raises(ValueError, match="family"):
        fit_covariate(ds, lin_basis, ["gaussian", "gaussian"])


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
        fit = fit_outcome_mle(ds, lin_basis)
        draws.append(np.concatenate([fit.params.beta, fit.params.alpha]))
        est_var += np.diag(fit.s1.T @ fit.s1 / n) / reps
    draws = np.asarray(draws)
    theta_star = np.array([0.7, 0.2, -0.5])
    emp_var = n * draws.var(axis=0, ddof=1)
    # centering check: the Monte Carlo mean is close to the truth
    assert np.max(np.abs(draws.mean(axis=0) - theta_star)) < 0.05
    np.testing.assert_allclose(emp_var, est_var, rtol=0.15)
