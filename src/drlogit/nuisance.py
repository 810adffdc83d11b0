"""Nuisance-model fitting.

Two working models feed the doubly robust estimating equation: a
logistic outcome model in (beta, alpha) fitted on the whole sample, and
a covariate-mean model in gamma fitted on the Y=0 (or, for solve_dr_y1,
the Y=1) subsample.  The outcome MLE and the Bernoulli covariate
components share one logistic Newton fit, which hands `damped_newton` one
system(theta) whose Jacobian thunk reuses that evaluation, built only for an
accepted iterate.  Each fit returns per-observation influence values so that
downstream sandwich variances can account for the estimated nuisances:
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
    "fit_covariate",
    "fit_covariate_y1",
]


@dataclass(frozen=True)
class OutcomeFit:
    """Fitted logistic outcome model.

    `s1` holds the per-observation influence rows (n, p+m), the first p
    columns for beta and the rest for alpha.
    """

    params: OutcomeModelParams
    s1: np.ndarray
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
    basis: Basis
    response_level: int = 0


def _fit_logistic_core(w: np.ndarray, y: np.ndarray, start: np.ndarray):
    """Newton-Raphson on the mean score w'(y - pi)/n = 0, one expit per trial point, for
    the outcome MLE and the Bernoulli covariate fits; returns the result and the pi of
    the last evaluation, which for a converged result is the one at its params."""
    y = np.asarray(y, dtype=float)
    last_pi = None

    def system(th):
        nonlocal last_pi
        last_pi = pi = expit(w @ th)
        return w.T @ (y - pi) / w.shape[0], lambda: _neg_info(w, pi)
    return damped_newton(system, start), last_pi


def fit_outcome_mle(data: Dataset, basis: Basis) -> OutcomeFit:
    """Maximum likelihood fit of expit(beta'z + alpha'b(x)) by
    Newton-Raphson on the score equation n^{-1} sum (y - pi) (z', b(x)')' = 0.

    Raises on a constant response, a rank-deficient design, or
    non-convergence (which a separated sample produces).
    """
    return _fit_outcome_mle(data, basis, basis.design(data.x))


def _fit_outcome_mle(data: Dataset, basis: Basis, bmat: np.ndarray) -> OutcomeFit:
    """fit_outcome_mle given bmat = b(x) on the rows of data."""
    if data.y.min() == data.y.max():
        raise ValueError("response is constant: need at least one y=0 and one y=1 row")
    # an identically-zero column of the design [z, b(x)] has an equation component
    # that vanishes for every parameter value, so its coefficient is pinned at zero
    # w is column-major, the layout that w[:, active] takes (the fit's sums run
    # in the layout's order), so an all-active w serves as it stands, and each
    # column's any() reads contiguous memory
    k = data.p + bmat.shape[1]
    w = np.empty((data.n, k), order="F")
    w[:, :data.p], w[:, data.p:] = data.z, bmat
    active = [j for j in range(k) if w[:, j].any()]
    everywhere = len(active) == k
    wa = w if everywhere else w[:, active]
    if np.linalg.matrix_rank(wa) < wa.shape[1]:
        raise ValueError("outcome design matrix [z, b(x)] is rank deficient")

    res, pi = _fit_logistic_core(wa, data.y, np.zeros(wa.shape[1]))
    if not res.converged:
        raise ConvergenceError(
            f"logistic MLE did not converge in {res.iterations} iterations "
            f"(final score norm {res.final_norm:.3g}); the sample may be separated")

    # a saturated perfect classification means the score vanished only
    # because the sample is separated; there is no finite MLE there
    if pi[data.y == 1].min() > 1.0 - 1e-8 and pi[data.y == 0].max() < 1e-8:
        raise ConvergenceError("perfect separation: the likelihood has no finite maximizer")
    # s1 solves info_a s1_i = score_i: one inverse of the small matrix, then
    # one product over all rows
    info_a = -_neg_info(wa, pi)
    s1a = (wa * (data.y - pi)[:, None]) @ np.linalg.inv(info_a).T
    if everywhere:
        theta, s1 = res.params, s1a
    else:
        theta = np.zeros(k)
        theta[active] = res.params
        s1 = np.zeros((data.n, k))
        s1[:, active] = s1a
    return OutcomeFit(params=OutcomeModelParams(theta[:data.p], theta[data.p:]),
                      s1=s1, iterations=res.iterations, basis=basis)


def _neg_info(w: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return -(w * (pi * (1.0 - pi))[:, None]).T @ w / w.shape[0]


def fit_covariate(data: Dataset, basis: Basis,
                  families: Sequence[Family]) -> CovariateFit:
    """Fit the working model for E(Z | Y=0, X) on the Y=0 subsample.

    Gaussian components: ordinary least squares of z_j on b(x), with the
    residual variance taken as the mean squared residual over the
    subsample.  Bernoulli components: logistic regression of z_j on b(x).
    """
    return _fit_covariate_level(data, basis, basis.design(data.x), families, level=0)


def fit_covariate_y1(data: Dataset, basis: Basis,
                     families: Sequence[Family]) -> CovariateFit:
    """Mirror of fit_covariate on the Y=1 subsample, modelling E(Z | Y=1, X)."""
    return _fit_covariate_level(data, basis, basis.design(data.x), families, level=1)


def _fit_covariate_level(data: Dataset, basis: Basis, bmat: np.ndarray,
                         families: Sequence[Family], level: int) -> CovariateFit:
    """The covariate fit on the y=level subsample given bmat = b(x) on all rows."""
    families = tuple(families)
    if len(families) != data.p:
        raise ValueError(f"need one family per Z component ({data.p}), got {len(families)}")
    sub = np.flatnonzero(data.y == level)
    m = basis.m
    if sub.size < m:
        raise ValueError(
            f"covariate fit needs at least m={m} rows with y={level}, have {sub.size}")
    b0 = bmat.take(sub, axis=0)
    if np.linalg.matrix_rank(b0) < m:
        raise ValueError(f"basis design is rank deficient on the y={level} subsample")

    n, p = data.n, data.p
    gamma = np.empty((p, m))
    resid_var = np.full(p, np.nan)
    s2 = np.zeros((n, p * m))
    for j, fam in enumerate(families):
        zj = data.z[sub, j]
        if fam == "gaussian":
            ne = b0.T @ b0
            gamma[j] = np.linalg.solve(ne, b0.T @ zj)
            resid = zj - b0 @ gamma[j]
            resid_var[j] = float(resid @ resid) / sub.size
        elif fam == "bernoulli":
            if not ((zj == 0.0) | (zj == 1.0)).all():
                raise ValueError(
                    f"Bernoulli component {j} has non-binary values on the fitting subsample")
            res, fj = _fit_logistic_core(b0, zj, np.zeros(m))
            if not res.converged:
                raise ConvergenceError(
                    f"logistic covariate fit for component {j} did not converge")
            gamma[j] = res.params
            ne = (b0 * (fj * (1.0 - fj))[:, None]).T @ b0
            resid = zj - fj
        else:
            raise ValueError(f"unknown family {fam!r}")
        s2[sub, j * m:(j + 1) * m] = n * ((b0 * resid[:, None]) @ np.linalg.inv(ne).T)
    params = CovariateModelParams(gamma=gamma, families=families, resid_var=resid_var)
    return CovariateFit(params=params, s2=s2, basis=basis, response_level=level)
