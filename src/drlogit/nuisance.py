"""Nuisance-model fitting.

Two working models feed the doubly robust estimating equation: a
logistic outcome model in (beta, alpha) fitted on the whole sample, and
a covariate-mean model in gamma fitted on the Y=0 (or, for solve_dr_y1,
the Y=1) subsample.  The outcome MLE and the Bernoulli covariate
components share one logistic Newton fit.  Each fit returns
per-observation influence values so that downstream sandwich variances
can account for the estimated nuisances:
params_hat - params_bar = mean of the influence rows + o_p(n^{-1/2}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._newton import damped_newton
from .model import (
    Basis,
    ConvergenceError,
    CovariateModelParams,
    Dataset,
    Family,
    OutcomeModelParams,
    expit,
)

__all__ = [
    "OutcomeFit",
    "CovariateFit",
    "fit_outcome_mle",
    "fit_outcome_calibrated",
    "fit_covariate",
    "fit_covariate_y1",
]

_TOL = 1e-12
_MAX_ITER = 100


@dataclass(frozen=True)
class OutcomeFit:
    """Fitted logistic outcome model.

    `info_matrix` is the (p+m) x (p+m) curvature of the estimating
    equation in mean form; `s1` holds the per-observation influence rows
    (n, p+m), the first p columns for beta and the rest for alpha.
    """

    params: OutcomeModelParams
    fit_method: str
    info_matrix: np.ndarray
    s1: np.ndarray
    converged: bool
    iterations: int
    basis: Basis


@dataclass(frozen=True)
class CovariateFit:
    """Fitted covariate-mean model on one response level.

    `s2` holds per-observation influence rows (n, p*m) stacked
    component-major; rows outside the conditioning subsample are zero, so
    gamma_hat - gamma_bar = mean of all n rows + o_p(n^{-1/2}).
    """

    params: CovariateModelParams
    s2: np.ndarray
    subsample_size: int
    converged: bool
    basis: Basis
    response_level: int = 0


def _outcome_design(data: Dataset, basis: Basis) -> np.ndarray:
    return np.column_stack([data.z, basis.design(data.x)])


def _check_both_classes(y: np.ndarray) -> None:
    if y.min() == y.max():
        raise ValueError("response is constant: need at least one y=0 and one y=1 row")


def _active_columns(w: np.ndarray) -> np.ndarray:
    """Columns with any nonzero entry.  Identically-zero columns have an
    estimating-equation component that vanishes for every parameter value,
    so their coefficients are pinned at zero instead of failing the fit."""
    return np.flatnonzero(np.any(w != 0.0, axis=0))


def _embed(active: np.ndarray, k: int, vec: np.ndarray | None = None,
           mat: np.ndarray | None = None):
    if vec is not None:
        full = np.zeros(k)
        full[active] = vec
        return full
    full = np.eye(k)
    full[np.ix_(active, active)] = mat
    return full


def _calibrated_resid(y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """y/pi - 1 rows, evaluated stably as expit(-eta)/expit(eta) when y=1."""
    out = np.full(eta.shape, -1.0)
    pos = y == 1
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = expit(-eta[pos]) / expit(eta[pos])
    return out


def _fit_logistic_core(w: np.ndarray, y: np.ndarray, start: np.ndarray):
    """Newton-Raphson on the mean score equation w'(y - pi)/n = 0: the one
    logistic fit behind the outcome MLE and the Bernoulli covariate fits."""
    return damped_newton(lambda th: w.T @ (y - expit(w @ th)) / w.shape[0],
                         lambda th: _neg_info(w, expit(w @ th)),
                         start, tol=_TOL, max_iter=_MAX_ITER)


def fit_outcome_mle(data: Dataset, basis: Basis) -> OutcomeFit:
    """Maximum likelihood fit of expit(beta'z + alpha'b(x)) by
    Newton-Raphson on the score equation n^{-1} sum (y - pi) (z', b(x)')' = 0.

    Raises on a constant response, a rank-deficient design, or
    non-convergence (which a separated sample produces).
    """
    _check_both_classes(data.y)
    w = _outcome_design(data, basis)
    p, k = data.p, w.shape[1]
    active = _active_columns(w)
    wa = w[:, active]
    if np.linalg.matrix_rank(wa) < wa.shape[1]:
        raise ValueError("outcome design matrix [z, b(x)] is rank deficient")

    res = _fit_logistic_core(wa, data.y, np.zeros(wa.shape[1]))
    if not res.converged:
        raise ConvergenceError(
            f"logistic MLE did not converge in {res.iterations} iterations "
            f"(final score norm {res.final_norm:.3g}); the sample may be separated")

    theta = _embed(active, k, vec=res.params)
    pi = expit(w @ theta)
    # a saturated perfect classification means the score vanished only
    # because the sample is separated; there is no finite MLE there
    if pi[data.y == 1].min() > 1.0 - 1e-8 and pi[data.y == 0].max() < 1e-8:
        raise ConvergenceError("perfect separation: the likelihood has no finite maximizer")
    info_a = -_neg_info(wa, pi)
    info = _embed(active, k, mat=info_a)
    score_rows = w * (data.y - pi)[:, None]
    s1 = np.zeros((data.n, k))
    s1[:, active] = np.linalg.solve(info_a, score_rows[:, active].T).T
    return OutcomeFit(
        params=OutcomeModelParams(theta[:p], theta[p:]),
        fit_method="mle",
        info_matrix=info,
        s1=s1,
        converged=True,
        iterations=res.iterations,
        basis=basis,
    )


def _neg_info(w: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return -(w * (pi * (1.0 - pi))[:, None]).T @ w / w.shape[0]


def fit_outcome_calibrated(data: Dataset, basis: Basis) -> OutcomeFit:
    """Calibrated fit of the outcome model: Newton solution of
    n^{-1} sum (y/pi - 1) (z', b(x)')' = 0, started at the MLE.

    The calibrated equation reweights by 1/pi, so a y=1 row whose fitted
    probability collapses toward zero has a diverging weight; that is
    reported as non-convergence rather than silently tolerated.
    """
    mle = fit_outcome_mle(data, basis)
    w = _outcome_design(data, basis)
    p, k = data.p, w.shape[1]
    active = _active_columns(w)
    wa = w[:, active]
    y = data.y

    def equation(theta):
        resid = _calibrated_resid(y, wa @ theta)
        return wa.T @ resid / data.n

    def jacobian(theta):
        eta = wa @ theta
        with np.errstate(over="ignore"):
            wt = np.where(y == 1, np.exp(-eta), 0.0)
        return -(wa * wt[:, None]).T @ wa / data.n

    start = np.concatenate([mle.params.beta, mle.params.alpha])[active]
    res = damped_newton(equation, jacobian, start, tol=_TOL, max_iter=_MAX_ITER)
    if not res.converged:
        raise ConvergenceError(
            f"calibrated fit did not converge (final norm {res.final_norm:.3g}); "
            "the y/pi weights may be diverging")

    theta = _embed(active, k, vec=res.params)
    eta = w @ theta
    pi_y1 = expit(eta[y == 1])
    if pi_y1.size and pi_y1.min() < 1e-12:
        raise ConvergenceError(
            "calibrated fit drove pi below 1e-12 on a y=1 row (weight overflow)")

    info_a = -jacobian(res.params)
    psi_rows = w * _calibrated_resid(y, eta)[:, None]
    s1 = np.zeros((data.n, k))
    s1[:, active] = np.linalg.solve(info_a, psi_rows[:, active].T).T
    return OutcomeFit(
        params=OutcomeModelParams(theta[:p], theta[p:]),
        fit_method="calibrated",
        info_matrix=_embed(active, k, mat=info_a),
        s1=s1,
        converged=True,
        iterations=res.iterations,
        basis=basis,
    )


def fit_covariate(data: Dataset, basis: Basis,
                  families: Sequence[Family]) -> CovariateFit:
    """Fit the working model for E(Z | Y=0, X) on the Y=0 subsample.

    Gaussian components: ordinary least squares of z_j on b(x), with the
    residual variance taken as the mean squared residual over the
    subsample.  Bernoulli components: logistic regression of z_j on b(x).
    """
    return _fit_covariate_level(data, basis, families, level=0)


def fit_covariate_y1(data: Dataset, basis: Basis,
                     families: Sequence[Family]) -> CovariateFit:
    """Mirror of fit_covariate on the Y=1 subsample, modelling E(Z | Y=1, X)."""
    return _fit_covariate_level(data, basis, families, level=1)


def _fit_covariate_level(data: Dataset, basis: Basis,
                         families: Sequence[Family], level: int) -> CovariateFit:
    families = tuple(families)
    if len(families) != data.p:
        raise ValueError(f"need one family per Z component ({data.p}), got {len(families)}")
    sub = np.flatnonzero(data.y == level)
    m = basis.m
    if sub.size < m:
        raise ValueError(
            f"covariate fit needs at least m={m} rows with y={level}, have {sub.size}")
    b_all = basis.design(data.x)
    b0 = b_all[sub]
    if np.linalg.matrix_rank(b0) < m:
        raise ValueError(f"basis design is rank deficient on the y={level} subsample")

    n, p = data.n, data.p
    gamma = np.empty((p, m))
    resid_var = np.full(p, np.nan)
    s2 = np.zeros((n, p * m))
    converged = True
    for j, fam in enumerate(families):
        zj = data.z[sub, j]
        if fam == "gaussian":
            ne = b0.T @ b0
            gamma[j] = np.linalg.solve(ne, b0.T @ zj)
            resid = zj - b0 @ gamma[j]
            resid_var[j] = float(resid @ resid) / sub.size
        elif fam == "bernoulli":
            if not np.isin(zj, (0.0, 1.0)).all():
                raise ValueError(
                    f"Bernoulli component {j} has non-binary values on the fitting subsample")
            res = _fit_logistic_core(b0, zj.astype(np.int64), np.zeros(m))
            if not res.converged:
                raise ConvergenceError(
                    f"logistic covariate fit for component {j} did not converge")
            gamma[j] = res.params
            fj = expit(b0 @ gamma[j])
            ne = (b0 * (fj * (1.0 - fj))[:, None]).T @ b0
            resid = zj - fj
        else:
            raise ValueError(f"unknown family {fam!r}")
        rows = n * np.linalg.solve(ne, (b0 * resid[:, None]).T).T
        s2[sub, j * m:(j + 1) * m] = rows
    params = CovariateModelParams(gamma=gamma, families=families, resid_var=resid_var)
    return CovariateFit(params=params, s2=s2, subsample_size=int(sub.size),
                        converged=converged, basis=basis, response_level=level)
