"""Doubly robust estimation of the linear-component coefficients.

Solves the estimating equation n^{-1} sum_i r_i(beta) = 0 for beta with
the instrument matrices frozen at the plugged-in nuisance estimates, and
assembles the sandwich covariance from the first-order expansion of the
equation in (beta, alpha, gamma).  Freezing the instrument is first-order
valid: whenever either nuisance model is correct, perturbing phi
contributes no first-order term, because the calibrated residual is
conditionally mean-zero given (Z, X) under a correct outcome model and
Z - f is conditionally mean-zero given (Y=0, X) under a correct
covariate model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from ._newton import damped_newton
from .model import (
    Basis,
    ConvergenceError,
    Dataset,
    InstrumentSpec,
    SingularMatrixError,
    _negated,
    expit,
    instrument_matrices,
    covariate_means,
)
from .nuisance import CovariateFit, OutcomeFit

__all__ = [
    "SolveDiagnostics",
    "EstimateReport",
    "InfluencePieces",
    "EfficiencyComparison",
    "solve_dr",
    "solve_dr_y1",
    "closed_form_binary",
    "assemble_influence",
    "compare_efficiency",
]

_TOL = 1e-12
_MAX_ITER = 100


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    final_eq_norm: float
    jacobian_condition: float
    step_halvings: int


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with sandwich inference for one instrument choice."""

    beta_hat: np.ndarray
    covariance: np.ndarray
    std_errors: np.ndarray
    wald_ci: np.ndarray  # (p, 2) lower/upper
    influence: np.ndarray  # (n, p)
    diagnostics: SolveDiagnostics
    instrument: InstrumentSpec
    level: float


@dataclass(frozen=True)
class InfluencePieces:
    """Expansion pieces of the estimating equation: curvature in beta and
    the nuisance directions, per-observation influence values, and the
    resulting covariance of beta_hat."""

    h_matrix: np.ndarray  # (p, p) mean d r / d beta
    b1: np.ndarray        # (p, m) mean d r / d alpha
    b2: np.ndarray        # (p, p*m) mean d r / d gamma, component-major
    influence: np.ndarray  # (n, p)
    covariance: np.ndarray  # (p, p)


class _Kernel:
    """Precomputed sample quantities for one estimating equation, with the
    instrument held fixed at the plugged-in nuisance estimates."""

    def __init__(self, data: Dataset, outcome: OutcomeFit, covar: CovariateFit,
                 instrument: InstrumentSpec, basis: Basis):
        if not outcome.converged or not covar.converged:
            raise ValueError("nuisance fits must have converged")
        _check_level(covar, 0)
        if not (data.y == 1).any() or not (data.y == 0).any():
            raise ValueError("need both response classes to estimate beta")
        self.y = data.y
        self.z = data.z
        self.n = data.n
        self.bmat = basis.design(data.x)
        self.g = self.bmat @ outcome.params.alpha
        self.f = covariate_means(covar.params, data.x, basis)
        self.phi = instrument_matrices(instrument, data.x, outcome.params,
                                       covar.params, basis)
        self.phi_resid = np.einsum("nij,nj->ni", self.phi, self.z - self.f)

    # Callers silence overflow: a trial beta may overflow exp, and
    # damped_newton reads the resulting inf/NaN norm as no improvement.
    def residual(self, beta: np.ndarray) -> np.ndarray:
        eta = self.z @ beta + self.g
        return np.where(self.y == 1, np.exp(-eta), -1.0)

    def weight(self, beta: np.ndarray) -> np.ndarray:
        """Negated derivative of the residual in eta (nonnegative)."""
        eta = self.z @ beta + self.g
        return np.where(self.y == 1, np.exp(-eta), 0.0)

    def equation(self, beta: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.phi_resid.T @ self.residual(beta) / self.n

    def jacobian(self, beta: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return -(self.phi_resid * self.weight(beta)[:, None]).T @ self.z / self.n


def _check_level(covar: CovariateFit, level: int) -> None:
    if covar.response_level != level:
        raise ValueError(f"covariate fit conditions on Y={covar.response_level}, "
                         f"but this estimator needs Y={level}")


def _solve(kernel: _Kernel, start: np.ndarray):
    res = damped_newton(kernel.equation, kernel.jacobian, start,
                        tol=_TOL, max_iter=_MAX_ITER)
    if not res.converged and not np.allclose(start, 0.0):
        retry = damped_newton(kernel.equation, kernel.jacobian,
                              np.zeros_like(start), tol=_TOL, max_iter=_MAX_ITER)
        retry = retry.__class__(retry.params, retry.converged,
                                res.iterations + retry.iterations,
                                res.step_halvings + retry.step_halvings,
                                retry.final_norm, retry.singular)
        res = retry
    if not res.converged:
        if res.singular:
            raise SingularMatrixError("estimating-equation Jacobian is singular")
        raise ConvergenceError(
            f"beta solve did not converge in {res.iterations} iterations "
            f"(final equation norm {res.final_norm:.3g})")
    return res


def _report(data, kernel, outcome, covar, instrument, basis, res, level):
    pieces = _assemble(kernel, res.params, outcome, covar)
    se = np.sqrt(np.diag(pieces.covariance))
    zq = NormalDist().inv_cdf(0.5 + level / 2.0)
    ci = np.column_stack([res.params - zq * se, res.params + zq * se])
    jac = kernel.jacobian(res.params)
    if jac.shape == (1, 1) and math.isfinite(jac[0, 0]) and jac[0, 0] != 0.0:
        condition = 1.0  # what np.linalg.cond's SVD gives a finite nonzero 1x1
    else:
        condition = float(np.linalg.cond(jac))
    diagnostics = SolveDiagnostics(
        iterations=res.iterations,
        final_eq_norm=res.final_norm,
        jacobian_condition=condition,
        step_halvings=res.step_halvings,
    )
    return EstimateReport(
        beta_hat=res.params.copy(),
        covariance=pieces.covariance,
        std_errors=se,
        wald_ci=ci,
        influence=pieces.influence,
        diagnostics=diagnostics,
        instrument=instrument,
        level=level,
    )


def solve_dr(data: Dataset, outcome: OutcomeFit, covar: CovariateFit,
             instrument: InstrumentSpec, basis: Basis, *,
             level: float = 0.95) -> EstimateReport:
    """Solve the doubly robust estimating equation for beta.

    Newton iteration with the analytic Jacobian, started at the outcome
    fit's beta and restarted from zero on non-convergence.  The returned
    covariance is the sandwich built from the estimated influence values.
    """
    kernel = _Kernel(data, outcome, covar, instrument, basis)
    res = _solve(kernel, outcome.params.beta)
    return _report(data, kernel, outcome, covar, instrument, basis, res, level)


def solve_dr_y1(data: Dataset, outcome: OutcomeFit, covar1: CovariateFit,
                instrument: InstrumentSpec, basis: Basis, *,
                level: float = 0.95) -> EstimateReport:
    """Symmetric variant of solve_dr anchored at Y=1: uses the Y=1
    calibrated residual and a covariate model for E(Z | Y=1, X).

    By the odds-ratio symmetry it is solve_dr on the relabeled data
    (Y -> 1 - Y) under the negated outcome fit, with beta_hat, the influence
    rows and the Wald interval negated back; the rest carries over.
    """
    _check_level(covar1, 1)
    mirror = solve_dr(Dataset(1 - data.y, data.z, data.x),
                      replace(outcome, params=_negated(outcome.params), s1=-outcome.s1),
                      replace(covar1, response_level=0), instrument, basis, level=level)
    return replace(mirror, beta_hat=-mirror.beta_hat, influence=-mirror.influence,
                   wald_ci=-mirror.wald_ci[:, ::-1])


def closed_form_binary(data: Dataset, outcome: OutcomeFit,
                       covar: CovariateFit) -> float:
    """Closed-form root of the simple-instrument equation for scalar binary Z.

    Writing e_i = expit(alpha'b(x_i)) and f_i for the fitted
    P(Z=1 | Y=0, x_i), the sample equation factorizes so that
    exp(-beta) = A / B with
        B = sum over y=1, z=1 rows of (1-e_i)(1-f_i)
        A = sum over y=1, z=0 rows of (1-e_i) f_i
            + sum over y=0 rows of e_i (z_i - f_i).
    """
    if data.p != 1:
        raise ValueError("closed-form estimator needs scalar Z")
    if not np.isin(data.z[:, 0], (0.0, 1.0)).all():
        raise ValueError("closed-form estimator needs binary Z values")
    if covar.response_level != 0:
        raise ValueError("closed-form estimator needs the Y=0 covariate fit")
    e = expit(outcome.basis.design(data.x) @ outcome.params.alpha)
    f = covariate_means(covar.params, data.x, covar.basis)[:, 0]
    y = data.y
    z = data.z[:, 0]
    b_sum = float(np.sum((1.0 - e) * (1.0 - f) * ((y == 1) & (z == 1.0))))
    a_sum = float(np.sum((1.0 - e) * f * ((y == 1) & (z == 0.0)))
                  + np.sum(e[y == 0] * (z[y == 0] - f[y == 0])))
    if a_sum <= 0.0 or b_sum <= 0.0:
        raise ConvergenceError(
            f"closed-form equation has no finite root (A={a_sum:.3g}, B={b_sum:.3g})")
    return -math.log(a_sum / b_sum)


def assemble_influence(data: Dataset, beta_hat: np.ndarray, outcome: OutcomeFit,
                       covar: CovariateFit, instrument: InstrumentSpec,
                       basis: Basis) -> InfluencePieces:
    """Expansion pieces of the estimating equation at beta_hat.

    h_matrix, b1 and b2 are sample means of the analytic derivatives of
    the per-observation estimating function in beta, alpha and gamma,
    with the instrument held fixed.  The influence rows combine the
    estimating-function values with the nuisance influence rows so that
    beta_hat - beta_bar is their sample mean to first order; the
    covariance is their scaled Gram matrix, symmetric PSD by construction.
    """
    kernel = _Kernel(data, outcome, covar, instrument, basis)
    return _assemble(kernel, np.atleast_1d(np.asarray(beta_hat, float)), outcome, covar)


def _assemble(kernel: _Kernel, beta: np.ndarray, outcome: OutcomeFit,
              covar: CovariateFit) -> InfluencePieces:
    n = kernel.n
    p = beta.shape[0]
    m = kernel.bmat.shape[1]
    with np.errstate(over="ignore"):
        resid = kernel.residual(beta)
        wt = kernel.weight(beta)
    r_rows = resid[:, None] * kernel.phi_resid

    h_matrix = -(kernel.phi_resid * wt[:, None]).T @ kernel.z / n
    b1 = -(kernel.phi_resid * wt[:, None]).T @ kernel.bmat / n
    # d r / d gamma_{jk} = -resid * phi[:, j] * link'(f_j) * b_k
    link_slope = np.empty_like(kernel.f)
    for j, fam in enumerate(covar.params.families):
        if fam == "bernoulli":
            link_slope[:, j] = kernel.f[:, j] * (1.0 - kernel.f[:, j])
        else:
            link_slope[:, j] = 1.0
    b2 = -np.einsum("i,iaj,ij,ik->ajk", resid, kernel.phi,
                    link_slope, kernel.bmat) / n
    b2 = b2.reshape(p, p * m)

    s1_alpha = outcome.s1[:, kernel.z.shape[1]:]
    combo = r_rows + s1_alpha @ b1.T + covar.s2 @ b2.T
    try:
        influence = -np.linalg.solve(h_matrix, combo.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("mean equation Jacobian (H) is singular") from exc
    covariance = influence.T @ influence / n**2
    covariance = (covariance + covariance.T) / 2.0
    return InfluencePieces(h_matrix=h_matrix, b1=b1, b2=b2,
                           influence=influence, covariance=covariance)


@dataclass(frozen=True)
class EfficiencyComparison:
    """Estimated variances per report and their pairwise ratios."""

    labels: tuple[str, ...]
    variances: np.ndarray  # (k, p) diagonals of the covariance matrices
    ratios: np.ndarray     # (k, k, p): variances[i] / variances[j]

    def table(self) -> str:
        lines = [f"{'estimator':<12}" + "".join(f"  var[{a}]" for a in range(self.variances.shape[1]))]
        for lab, v in zip(self.labels, self.variances):
            lines.append(f"{lab:<12}" + "".join(f"  {vi:.6g}" for vi in v))
        return "\n".join(lines)


def compare_efficiency(reports: list[EstimateReport]) -> EfficiencyComparison:
    """Tabulate the sandwich variances of reports on the same data and
    their pairwise ratios (a single report compares to itself with ratio 1)."""
    if not reports:
        raise ValueError("need at least one report to compare")
    labels = tuple(r.instrument.variant for r in reports)
    variances = np.stack([np.diag(r.covariance) for r in reports])
    ratios = variances[:, None, :] / variances[None, :, :]
    return EfficiencyComparison(labels=labels, variances=variances, ratios=ratios)
