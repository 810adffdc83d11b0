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
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from statistics import NormalDist
from typing import Sequence

import numpy as np

from ._newton import damped_newton
from .model import (VARIANTS, Basis, ConvergenceError, Dataset, InstrumentSpec,
                    SingularMatrixError, _instruments, _means_from_design, _negated)
from .nuisance import CovariateFit, OutcomeFit, _fit_covariate_level, _fit_outcome_mle

__all__ = [
    "DEFAULT_ESTIMATORS",
    "KNOWN_ESTIMATORS",
    "SolveDiagnostics",
    "EstimateReport",
    "InfluencePieces",
    "solve_dr",
    "solve_dr_y1",
    "closed_form_binary",
    "assemble_influence",
    "wald_interval",
]

# the estimator menu: the outcome MLE, the doubly robust class per instrument
# variant, its Y=1 mirror, and the closed form for scalar binary Z
DEFAULT_ESTIMATORS = ("mle", *(f"dr_{v}" for v in VARIANTS))
KNOWN_ESTIMATORS = (*DEFAULT_ESTIMATORS, *(f"dr_y1_{v}" for v in VARIANTS), "closed_form")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    final_eq_norm: float
    jacobian_condition: float
    step_halvings: int


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with sandwich inference for one instrument choice; the
    standard errors derive from covariance, and wald_interval gives the
    interval at any level."""

    beta_hat: np.ndarray
    covariance: np.ndarray
    influence: np.ndarray  # (n, p)
    diagnostics: SolveDiagnostics

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def _wald_quantile(level: float) -> float:
    """The standard normal quantile z of a two-sided level interval."""
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def wald_interval(beta: np.ndarray, se: np.ndarray, level: float) -> np.ndarray:
    """The level Wald interval beta -+ z se, as (p, 2) lower/upper bounds."""
    zq = _wald_quantile(level)
    return np.column_stack([beta - zq * se, beta + zq * se])


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


class _Context:
    """What the estimator menu shares on one dataset: b(x) from one design
    call, the outcome fit, g = alpha'b(x) and, each built lazily and once,
    the covariate fit per response level, the Y=0 means f, the kernel per
    instrument and `mirror`: the Y=1 anchor as the Y=0 context of 1 - Y under
    the negated outcome fit (odds-ratio symmetry), sharing z, x and b(x)."""

    def __init__(self, data: Dataset, basis: Basis, z_families: Sequence[str] = (), *,
                 outcome: OutcomeFit | None = None, covars: dict | None = None,
                 bmat: np.ndarray | None = None):
        self.data, self.basis, self.z_families = data, basis, tuple(z_families)
        self.bmat = basis.design(data.x) if bmat is None else bmat
        self.outcome = _fit_outcome_mle(data, basis, self.bmat) if outcome is None else outcome
        self.g = self.bmat @ self.outcome.params.alpha
        self._covars, self._kernels = dict(covars or {}), {}

    def covar(self, level: int) -> CovariateFit:
        if level not in self._covars:
            self._covars[level] = _fit_covariate_level(self.data, self.basis, self.bmat,
                                                       self.z_families, level)
        return self._covars[level]

    @cached_property
    def f(self) -> np.ndarray:
        return _means_from_design(self.covar(0).params, self.bmat)

    def kernel(self, instrument: InstrumentSpec) -> "_Kernel":
        if instrument not in self._kernels:
            self._kernels[instrument] = _Kernel(self, instrument)
        return self._kernels[instrument]

    @cached_property
    def mirror(self) -> "_Context":
        d, o = self.data, self.outcome
        return _Context(Dataset._trusted(1 - d.y, d.z, d.x), self.basis, self.z_families,
                        outcome=replace(o, params=_negated(o.params), s1=-o.s1),
                        covars={0: replace(self.covar(1), response_level=0)}, bmat=self.bmat)

    def estimate(self, name: str) -> tuple[np.ndarray, np.ndarray, dict]:
        """(beta, se, diagnostics) of the KNOWN_ESTIMATORS entry `name` on this
        dataset; dr_y1_<v> is the mirror's dr_<v> with beta negated."""
        if name not in KNOWN_ESTIMATORS:
            raise KeyError(f"unknown estimator {name!r}; known: {KNOWN_ESTIMATORS}")
        if name == "mle":
            s1, n, p = self.outcome.s1, self.data.n, self.data.p
            return (self.outcome.params.beta, np.sqrt(np.diag(s1.T @ s1 / n**2)[:p]),
                    {"iterations": self.outcome.iterations})
        if name == "closed_form":
            beta = np.array([self.closed_form()])
            pieces = _assemble(self.kernel(InstrumentSpec("simple")), beta)
            return beta, np.sqrt(np.diag(pieces.covariance)), {}
        ctx = self.mirror if name.startswith("dr_y1_") else self
        rep = ctx.solve(InstrumentSpec(name.rpartition("_")[2]))
        beta = rep.beta_hat if ctx is self else -rep.beta_hat
        return beta, rep.std_errors, asdict(rep.diagnostics)

    def solve(self, instrument: InstrumentSpec) -> EstimateReport:
        """solve_dr on this context."""
        kernel = self.kernel(instrument)
        res = _solve(kernel, self.outcome.params.beta)
        pieces = _assemble(kernel, res.params)
        h = pieces.h_matrix
        # a finite nonzero 1x1 has condition 1, what np.linalg.cond's SVD gives it
        condition = (1.0 if h.shape == (1, 1) and math.isfinite(h[0, 0]) and h[0, 0] != 0.0
                     else float(np.linalg.cond(h)))
        return EstimateReport(
            beta_hat=res.params.copy(), covariance=pieces.covariance,
            influence=pieces.influence,
            diagnostics=SolveDiagnostics(iterations=res.iterations, final_eq_norm=res.final_norm,
                                         jacobian_condition=condition,
                                         step_halvings=res.step_halvings))

    def closed_form(self) -> float:
        """closed_form_binary on this context, from the simple-instrument
        kernel's arrays: e = expit(g) is its phi and f its covariate means."""
        if self.data.p != 1:
            raise ValueError("closed-form estimator needs scalar Z")
        z = self.data.z[:, 0]
        z0, z1 = z == 0.0, z == 1.0
        if not (z0 | z1).all():
            raise ValueError("closed-form estimator needs binary Z values")
        kernel = self.kernel(InstrumentSpec("simple"))  # refuses a Y=1 covariate fit
        e, f, y = kernel.phi[:, 0, 0], kernel.f[:, 0], self.data.y
        b_sum = float(np.sum((1.0 - e) * (1.0 - f) * ((y == 1) & z1)))
        a_sum = float(np.sum((1.0 - e) * f * ((y == 1) & z0))
                      + np.sum(e[y == 0] * (z[y == 0] - f[y == 0])))
        if a_sum <= 0.0 or b_sum <= 0.0:
            raise ConvergenceError(
                f"closed-form equation has no finite root (A={a_sum:.3g}, B={b_sum:.3g})")
        return -math.log(a_sum / b_sum)


class _Kernel:
    """The doubly robust estimating equation n^{-1} sum_i r_i u_i = 0 in beta,
    the one array form of the calibrated equation: residual
    r = y*exp(-eta) - (1-y) with eta = z beta + g(x), and u = phi(x)(z - f(x)),
    the instrument held fixed at the plugged-in nuisance estimates of ctx.  A
    Y=0 row has r = -1, so a beta costs one exp over the Y=1 rows plus
    c0 = sum_{Y=0} u_i; an overflowing one gives an inf/NaN norm, no
    improvement to damped_newton."""

    def __init__(self, ctx: _Context, instrument: InstrumentSpec):
        self.outcome, self.covar = ctx.outcome, ctx.covar(0)
        _check_level(self.covar, 0)
        y, z = ctx.data.y, ctx.data.z
        if not (y == 1).any() or not (y == 0).any():
            raise ValueError("need both response classes to estimate beta")
        self.bmat, self.f = ctx.bmat, ctx.f
        self.phi = _instruments(instrument, ctx.g, self.f, self.outcome.params.beta,
                                self.covar.params)[0]
        u = np.einsum("nij,nj->ni", self.phi, z - self.f)
        # row indices and take(): a boolean-mask gather of a 2-d array costs ~10x more
        self.n, self.u, self.one = y.shape[0], u, np.flatnonzero(y == 1)
        self.u1, self.z1 = u.take(self.one, axis=0), z.take(self.one, axis=0)
        self.c0 = u.take(np.flatnonzero(y != 1), axis=0).sum(axis=0)
        self.g1 = ctx.g.take(self.one)

    def weight(self, beta: np.ndarray) -> np.ndarray:
        """exp(-eta) on the Y=1 rows, the negated derivative of their residual
        in eta.  Its callers hold np.errstate(over="ignore", invalid="ignore")
        around it and what they build from it: one errstate per evaluation."""
        # dot, not @: matmul takes a non-BLAS loop for a single column
        return np.exp(-(self.z1.dot(beta) + self.g1))

    def residual(self, w1: np.ndarray) -> np.ndarray:
        r = np.full(self.n, -1.0)
        r[self.one] = w1
        return r

    def system(self, beta: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            w1 = self.weight(beta)
            return (self.u1.T @ w1 - self.c0) / self.n, lambda: self.jacobian(beta, w1)

    def jacobian(self, beta: np.ndarray, w1: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            w1 = self.weight(beta) if w1 is None else w1
            return -(self.u1 * w1[:, None]).T @ self.z1 / self.n


def _check_level(covar: CovariateFit, level: int) -> None:
    if covar.response_level != level:
        raise ValueError(f"covariate fit conditions on Y={covar.response_level}, "
                         f"but this estimator needs Y={level}")


def _fits_context(data: Dataset, outcome: OutcomeFit, covar: CovariateFit,
                  level: int) -> _Context:
    """The one-off context of a public entry point on the outcome fit's
    basis, covar conditioning on Y=level; refuses a covariate fit made on
    another basis, which would pair its coefficients with the wrong features."""
    if covar.basis != outcome.basis:
        raise ValueError("the covariate fit was made on another basis than the outcome fit's")
    return _Context(data, outcome.basis, outcome=outcome, covars={level: covar})


def _solve(kernel: _Kernel, start: np.ndarray):
    res = damped_newton(kernel.system, start)
    if not res.converged and not np.allclose(start, 0.0):
        retry = damped_newton(kernel.system, np.zeros_like(start))
        res = replace(retry, iterations=res.iterations + retry.iterations,
                      step_halvings=res.step_halvings + retry.step_halvings)
    if not res.converged:
        if res.singular:
            raise SingularMatrixError("estimating-equation Jacobian is singular")
        raise ConvergenceError(
            f"beta solve did not converge in {res.iterations} iterations "
            f"(final equation norm {res.final_norm:.3g})")
    return res


def solve_dr(data: Dataset, outcome: OutcomeFit, covar: CovariateFit,
             instrument: InstrumentSpec) -> EstimateReport:
    """Solve the doubly robust estimating equation for beta.

    Newton iteration with the analytic Jacobian, started at the outcome
    fit's beta and restarted from zero on non-convergence.  The returned
    covariance is the sandwich built from the estimated influence values.
    """
    return _fits_context(data, outcome, covar, 0).solve(instrument)


def solve_dr_y1(data: Dataset, outcome: OutcomeFit, covar1: CovariateFit,
                instrument: InstrumentSpec) -> EstimateReport:
    """Symmetric variant of solve_dr anchored at Y=1: uses the Y=1
    calibrated residual and a covariate model for E(Z | Y=1, X).

    By the odds-ratio symmetry it is solve_dr on the relabeled data
    (Y -> 1 - Y) under the negated outcome fit, with beta_hat and the
    influence rows negated back; the rest carries over.
    """
    _check_level(covar1, 1)
    rep = _fits_context(data, outcome, covar1, 1).mirror.solve(instrument)
    return replace(rep, beta_hat=-rep.beta_hat, influence=-rep.influence)


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
    return _fits_context(data, outcome, covar, 0).closed_form()


def assemble_influence(data: Dataset, beta_hat: np.ndarray, outcome: OutcomeFit,
                       covar: CovariateFit, instrument: InstrumentSpec) -> InfluencePieces:
    """Expansion pieces of the estimating equation at beta_hat.

    h_matrix, b1 and b2 are sample means of the analytic derivatives of
    the per-observation estimating function in beta, alpha and gamma,
    with the instrument held fixed.  The influence rows combine the
    estimating-function values with the nuisance influence rows so that
    beta_hat - beta_bar is their sample mean to first order; the
    covariance is their scaled Gram matrix, symmetric PSD by construction.
    """
    kernel = _fits_context(data, outcome, covar, 0).kernel(instrument)
    return _assemble(kernel, np.atleast_1d(np.asarray(beta_hat, float)))


def _assemble(kernel: _Kernel, beta: np.ndarray) -> InfluencePieces:
    n, p, m = kernel.n, beta.shape[0], kernel.bmat.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        w1 = kernel.weight(beta)  # one exp over the Y=1 rows serves resid, h_matrix and b1
    resid, h_matrix = kernel.residual(w1), kernel.jacobian(beta, w1)
    b1 = -(kernel.u1 * w1[:, None]).T @ kernel.bmat.take(kernel.one, axis=0) / n
    # d r / d gamma_{jk} = -resid * phi[:, j] * link'(f_j) * b_k: one (n, p*p)' (n, m) product
    slope = resid[:, None] * np.where([fam == "bernoulli" for fam in kernel.covar.params.families],
                                      kernel.f * (1.0 - kernel.f), 1.0)
    b2 = (-(kernel.phi.reshape(n, p * p) * np.tile(slope, p)).T @ kernel.bmat / n
          ).reshape(p, p * m)

    combo = resid[:, None] * kernel.u + kernel.outcome.s1[:, p:] @ b1.T + kernel.covar.s2 @ b2.T
    influence = -combo.dot(_inverse(h_matrix).T)  # @ is a slow loop for p = 1
    covariance = influence.T @ influence / n**2
    return InfluencePieces(h_matrix=h_matrix, b1=b1, b2=b2, influence=influence,
                           covariance=(covariance + covariance.T) / 2.0)


def _inverse(h: np.ndarray) -> np.ndarray:
    """inv(h), refusing a singular h.  A 1x1 h is inverted by one reciprocal,
    which is what LAPACK computes for it, bit for bit (a NaN or inf h
    included), without the call's overhead."""
    if h.shape == (1, 1):
        pivot = h.item()
        if pivot == 0.0:
            raise SingularMatrixError("mean equation Jacobian (H) is singular")
        # Python floats: a subnormal pivot gives inf without a warning
        return np.array([[1.0 / pivot]])
    try:
        return np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("mean equation Jacobian (H) is singular") from exc
