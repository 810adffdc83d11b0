"""Nuisance-model fitting.

Two working models feed the doubly robust estimating equation: a
logistic outcome model in (beta, alpha) fitted on the whole sample, and
a covariate-mean model in gamma fitted on the Y=0 (or, for the Y=1
mirror, the Y=1) subsample.  The outcome MLE and the Bernoulli covariate
components share one logistic Newton fit, which hands `damped_newton` one
system(theta) whose Jacobian thunk reuses that evaluation, built only for an
accepted iterate.  Each fit returns influence rows so that downstream
sandwich variances can account for the estimated nuisances:
params_hat - params_bar = mean of the influence rows + o_p(n^{-1/2}).

Every sum a fit takes is over per-row terms in (y, z, x), so the fits run on
the distinct rows of the data, each weighted by its count, with the total
count N as the divisor (`_Rows`), and return one influence row per distinct
row, whose count-weighted mean is the mean above.  `estimators.Estimation`
makes the fits of one dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._newton import damped_newton
from .model import (
    ConvergenceError,
    CovariateModelParams,
    Dataset,
    OutcomeModelParams,
    expit,
)

__all__ = [
    "OutcomeFit",
    "CovariateFit",
]


@dataclass(frozen=True)
class OutcomeFit:
    """Fitted logistic outcome model.

    `s1` holds the influence rows (one per distinct row, p+m columns), the
    first p columns for beta and the rest for alpha.
    """

    params: OutcomeModelParams
    s1: np.ndarray
    iterations: int


@dataclass(frozen=True)
class CovariateFit:
    """Fitted covariate-mean model on one response level.

    `s2` holds the influence rows (one per distinct row, p*m columns)
    stacked component-major; rows outside the conditioning subsample are
    zero, so gamma_hat - gamma_bar = the count-weighted mean of the rows
    + o_p(n^{-1/2}).
    """

    params: CovariateModelParams
    s2: np.ndarray


class _Rows:
    """The distinct (y, z, x) rows of a dataset as `data`, with `counts` and
    their total N; `first` indexes each distinct row's first occurrence, None
    when the n rows are all distinct and kept in order with counts of 1."""

    def __init__(self, data: Dataset, counts: np.ndarray, first=None):
        self.data, self.counts, self.first = data, counts, first
        self.total = float(counts.sum())
        # decided from the counts alone: multiplying by counts of 1 would change
        # no bit, but cost about 6% of the estimator menu on 2,000 continuous
        # rows with p = 2
        self._unit = bool((counts == 1.0).all())

    def weigh(self, a: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
        """The rows of a, one per distinct row (or per entry of index), times
        their counts."""
        if self._unit:
            return a
        c = self.counts if index is None else self.counts.take(index)
        return a * (c if a.ndim == 1 else c[:, None])


def _distinct(data: Dataset, weights: np.ndarray | None = None,
              first_seen: np.ndarray | None = None) -> _Rows:
    """The distinct rows of data with their counts.  Each column is coded by
    its sorted distinct values and the codes are combined into one key in
    mixed radix, re-coded densely whenever the radix passes n so that the
    key stays below n^2; the rows are known to be distinct, and are kept as
    they stand, once a column or the key takes n values.

    Given weights, row i of data stands for weights[i] observations, the
    first of them at observation first_seen[i] (ascending in i); equal rows
    are merged, their weights summed, and none is kept as it stands, so the
    result is the one the observations give."""
    n = data.n
    key, radix = data.y, 2
    for col in (*data.z.T, *data.x.T):
        # np.unique's first call costs 1.4 MB of peak memory, a sort 0.26 MB
        values = np.sort(col)
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        if values.size == n and weights is None:
            return _Rows(data, np.ones(n))
        # up to 16 values, one comparison each beats np.searchsorted's binary
        # search (20,000 rows, 3 values: 27 against 298 us)
        code = (np.searchsorted(values, col) if values.size > 16
                else sum(col >= v for v in values[1:]))
        key, radix = key * values.size + code, radix * values.size
        if radix > n:
            keys, key = np.unique(key, return_inverse=True)
            radix = keys.size
    counts = np.bincount(key, weights, minlength=radix)
    present = counts > 0
    if present.sum() == n and weights is None:
        return _Rows(data, np.ones(n))
    first = np.empty(radix, dtype=np.intp)
    first[key[::-1]] = np.arange(n - 1, -1, -1)  # the last write, the first occurrence, wins
    first = first[present]
    rows = Dataset._trusted(data.y.take(first), data.z.take(first, axis=0),
                            data.x.take(first, axis=0))
    return _Rows(rows, counts[present].astype(float),
                 first if first_seen is None else first_seen.take(first))


def _fit_logistic_core(w: np.ndarray, cw: np.ndarray, y: np.ndarray, total: float):
    """Newton-Raphson from zero on the mean score cw'(y - pi)/N = 0, cw the rows
    of w times their counts and N their total, one expit per trial point, for the
    outcome MLE and the Bernoulli covariate fits; returns the result and the
    pi of the last evaluation, which for a converged result is the one at its
    params."""
    y = np.asarray(y, dtype=float)
    last_pi = None

    def system(th):
        nonlocal last_pi
        last_pi = pi = expit(w @ th)
        return cw.T @ (y - pi) / total, lambda: _neg_info(w, cw, pi, total)
    return damped_newton(system, np.zeros(w.shape[1])), last_pi


def _fit_outcome_mle(rows: _Rows, bmat: np.ndarray) -> OutcomeFit:
    """Maximum likelihood fit of expit(beta'z + alpha'b(x)) by
    Newton-Raphson on the score equation n^{-1} sum (y - pi) (z', b(x)')' = 0,
    over the distinct rows given bmat = b(x) on them.

    Raises on a constant response, a rank-deficient design, or
    non-convergence (which a separated sample produces).
    """
    data = rows.data
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

    cwa = rows.weigh(wa)
    res, pi = _fit_logistic_core(wa, cwa, data.y, rows.total)
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
    info_a = -_neg_info(wa, cwa, pi, rows.total)
    s1a = (wa * (data.y - pi)[:, None]) @ np.linalg.inv(info_a).T
    if everywhere:
        theta, s1 = res.params, s1a
    else:
        theta = np.zeros(k)
        theta[active] = res.params
        s1 = np.zeros((data.n, k))
        s1[:, active] = s1a
    return OutcomeFit(params=OutcomeModelParams(theta[:data.p], theta[data.p:]),
                      s1=s1, iterations=res.iterations)


def _neg_info(w: np.ndarray, cw: np.ndarray, pi: np.ndarray, total: float) -> np.ndarray:
    return -(cw * (pi * (1.0 - pi))[:, None]).T @ w / total


def _fit_covariate_level(rows: _Rows, bmat: np.ndarray, families: Sequence[str],
                         level: int) -> CovariateFit:
    """Fit the working model for E(Z | Y=level, X) on the Y=level subsample
    of the distinct rows, given bmat = b(x) on them.

    Gaussian components: ordinary least squares of z_j on b(x), with the
    residual variance taken as the mean squared residual over the
    subsample.  Bernoulli components: logistic regression of z_j on b(x).
    The subsample's size counts observations; its rank is that of its
    distinct rows.
    """
    data = rows.data
    families = tuple(families)
    if len(families) != data.p:
        raise ValueError(f"need one family per Z component ({data.p}), got {len(families)}")
    sub = np.flatnonzero(data.y == level)
    size, m = int(rows.counts.take(sub).sum()), bmat.shape[1]
    if size < m:
        raise ValueError(
            f"covariate fit needs at least m={m} rows with y={level}, have {size}")
    b0 = bmat.take(sub, axis=0)
    cb0 = rows.weigh(b0, sub)
    if np.linalg.matrix_rank(b0) < m:
        raise ValueError(f"basis design is rank deficient on the y={level} subsample")

    p = data.p
    gamma = np.empty((p, m))
    resid_var = np.full(p, np.nan)
    s2 = np.zeros((data.n, p * m))
    if "gaussian" in families:  # b0'C b0 and its inverse, the same for every Gaussian component
        ne_gauss = cb0.T @ b0
        inv_gauss = np.linalg.inv(ne_gauss)
    for j, fam in enumerate(families):
        zj = data.z[sub, j]
        if fam == "gaussian":
            gamma[j] = np.linalg.solve(ne_gauss, cb0.T @ zj)
            resid = zj - b0 @ gamma[j]
            resid_var[j] = float(rows.weigh(resid, sub) @ resid) / size
            ne_inv = inv_gauss
        elif fam == "bernoulli":
            if not ((zj == 0.0) | (zj == 1.0)).all():
                raise ValueError(
                    f"Bernoulli component {j} has non-binary values on the fitting subsample")
            res, fj = _fit_logistic_core(b0, cb0, zj, size)
            if not res.converged:
                raise ConvergenceError(
                    f"logistic covariate fit for component {j} did not converge")
            gamma[j] = res.params
            ne_inv = np.linalg.inv((cb0 * (fj * (1.0 - fj))[:, None]).T @ b0)
            resid = zj - fj
        else:
            raise ValueError(f"unknown family {fam!r}")
        s2[sub, j * m:(j + 1) * m] = rows.total * ((b0 * resid[:, None]) @ ne_inv.T)
    params = CovariateModelParams(gamma=gamma, families=families, resid_var=resid_var)
    return CovariateFit(params=params, s2=s2)
