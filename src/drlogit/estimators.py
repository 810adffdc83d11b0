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
from functools import cached_property
from statistics import NormalDist
from typing import Sequence

import numpy as np

from ._newton import damped_newton
from .model import (VARIANTS, Basis, ConvergenceError, Dataset, InstrumentSpec,
                    SingularMatrixError, _instruments, _means_from_design, _negated)
from .nuisance import (CovariateFit, OutcomeFit, _distinct, _fit_covariate_level,
                       _fit_outcome_mle, _Rows)

__all__ = [
    "DEFAULT_ESTIMATORS",
    "KNOWN_ESTIMATORS",
    "Estimation",
    "SolveDiagnostics",
    "EstimateReport",
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
    the nuisance directions, influence values per distinct row, and the
    resulting covariance of beta_hat."""

    h_matrix: np.ndarray  # (p, p) mean d r / d beta
    b1: np.ndarray        # (p, m) mean d r / d alpha
    b2: np.ndarray        # (p, p*m) mean d r / d gamma, component-major
    influence: np.ndarray  # (distinct rows, p)
    covariance: np.ndarray  # (p, p)


class Estimation:
    """The estimators of beta on one dataset, given the working basis b(x) of
    both nuisance models and each Z component's covariate family: `estimate`
    runs any KNOWN_ESTIMATORS entry, `solve` the doubly robust equation for
    one instrument and `closed_form` its scalar binary root.  What they share
    is built on the distinct rows of the dataset, each lazily and once: the
    outcome fit, g = alpha'b(x), the covariate fit per response level, the
    Y=0 means f, the kernel per instrument and `mirror`: the Y=1 anchor as the
    Y=0 estimation of 1 - Y under the negated outcome fit (odds-ratio
    symmetry), sharing the rows, their counts and b(x) from one design call."""

    def __init__(self, data: Dataset, basis: Basis, z_families: Sequence[str] = ()):
        self._start(_distinct(data), basis, z_families)

    @classmethod
    def _of_rows(cls, rows: _Rows, basis: Basis, z_families: Sequence[str] = (), *,
                 outcome: OutcomeFit | None = None, covars: dict | None = None,
                 bmat: np.ndarray | None = None) -> Estimation:
        """The estimation on given distinct rows, with any of its outcome fit,
        covariate fits by response level and bmat = b(x) given on them."""
        est = cls.__new__(cls)
        est._start(rows, basis, z_families, bmat, covars)
        if outcome is not None:
            est.outcome = outcome  # shadows the lazy fit
        return est

    def _start(self, rows: _Rows, basis: Basis, z_families, bmat=None, covars=None):
        self.rows, self.data, self.basis = rows, rows.data, basis
        self.z_families, self._covars, self._kernels = tuple(z_families), dict(covars or {}), {}
        self.bmat = _finite_design(basis, rows) if bmat is None else bmat

    @cached_property
    def outcome(self) -> OutcomeFit:
        return _fit_outcome_mle(self.rows, self.bmat)

    @cached_property
    def g(self) -> np.ndarray:
        return self.bmat @ self.outcome.params.alpha

    def covar(self, level: int) -> CovariateFit:
        if level not in self._covars:
            self._covars[level] = _fit_covariate_level(self.rows, self.bmat, self.z_families,
                                                       level)
        return self._covars[level]

    @cached_property
    def f(self) -> np.ndarray:
        return _means_from_design(self.covar(0).params, self.bmat)

    @cached_property
    def _level(self) -> "_LevelPieces":
        return _LevelPieces(self)

    def kernel(self, instrument: InstrumentSpec) -> "_Kernel":
        if instrument not in self._kernels:
            self._kernels[instrument] = _Kernel(self, instrument)
        return self._kernels[instrument]

    @cached_property
    def mirror(self) -> Estimation:
        o, r, d = self.outcome, self.rows, self.data
        return Estimation._of_rows(_Rows(Dataset._trusted(1 - d.y, d.z, d.x), r.counts, r.first),
                                   self.basis, self.z_families,
                                   outcome=replace(o, params=_negated(o.params), s1=-o.s1),
                                   covars={0: self.covar(1)}, bmat=self.bmat)

    def estimate(self, name: str) -> tuple[np.ndarray, np.ndarray, dict]:
        """(beta, se, diagnostics) of the KNOWN_ESTIMATORS entry `name` on this
        dataset; dr_y1_<v> is the mirror's dr_<v> with beta negated."""
        if name not in KNOWN_ESTIMATORS:
            raise KeyError(f"unknown estimator {name!r}; known: {KNOWN_ESTIMATORS}")
        if name == "mle":
            s1, p = self.outcome.s1, self.data.p
            return (self.outcome.params.beta,
                    np.sqrt(np.diag(self.rows.weigh(s1).T @ s1 / self.rows.total**2)[:p]),
                    {"iterations": self.outcome.iterations})
        if name == "closed_form":
            beta = np.array([self.closed_form()])
            pieces = _assemble(self.kernel(InstrumentSpec("simple")), beta)
            return beta, np.sqrt(np.diag(pieces.covariance)), {}
        est = self.mirror if name.startswith("dr_y1_") else self
        rep = est.solve(InstrumentSpec(name.rpartition("_")[2]))
        beta = rep.beta_hat if est is self else -rep.beta_hat
        return beta, rep.std_errors, dict(vars(rep.diagnostics))

    def solve(self, instrument: InstrumentSpec) -> EstimateReport:
        """Solve the doubly robust estimating equation for beta by Newton's
        method, started at the outcome fit's beta and restarted from zero on
        non-convergence; the covariance is the sandwich of `_assemble`."""
        kernel = self.kernel(instrument)
        res = _solve(kernel, self.outcome.params.beta)
        pieces = _assemble(kernel, res.params)
        h = pieces.h_matrix
        # a finite nonzero 1x1 has condition 1, what np.linalg.cond's SVD gives it
        condition = (1.0 if h.shape == (1, 1) and math.isfinite(h[0, 0]) and h[0, 0] != 0.0
                     else float(np.linalg.cond(h)))
        return EstimateReport(
            beta_hat=res.params.copy(), covariance=pieces.covariance,
            diagnostics=SolveDiagnostics(iterations=res.iterations, final_eq_norm=res.final_norm,
                                         jacobian_condition=condition,
                                         step_halvings=res.step_halvings))

    def closed_form(self) -> float:
        """Closed-form root of the simple-instrument equation for scalar binary Z.
        With e_i = expit(alpha'b(x_i)), the simple kernel's phi, and its f_i, the
        fitted P(Z=1 | Y=0, x_i), the sample equation factorizes so that
        exp(-beta) = A / B with
            B = sum over y=1, z=1 rows of (1-e_i)(1-f_i)
            A = sum over y=1, z=0 rows of (1-e_i) f_i + sum over y=0 rows of e_i (z_i - f_i).
        """
        if self.data.p != 1:
            raise ValueError("closed-form estimator needs scalar Z")
        z = self.data.z[:, 0]
        z0, z1 = z == 0.0, z == 1.0
        if not (z0 | z1).all():
            raise ValueError("closed-form estimator needs binary Z values")
        kernel = self.kernel(InstrumentSpec("simple"))
        e, f, y, weigh = kernel.phi[:, 0, 0], kernel.f[:, 0], self.data.y, self.rows.weigh
        b_sum = float(np.sum(weigh((1.0 - e) * (1.0 - f)) * ((y == 1) & z1)))
        a_sum = float(np.sum(weigh((1.0 - e) * f) * ((y == 1) & z0))
                      + np.sum(weigh(e)[y == 0] * (z[y == 0] - f[y == 0])))
        if a_sum <= 0.0 or b_sum <= 0.0:
            raise ConvergenceError(
                f"closed-form equation has no finite root (A={a_sum:.3g}, B={b_sum:.3g})")
        return -math.log(a_sum / b_sum)


def _finite_design(basis: Basis, rows: _Rows) -> np.ndarray:
    """b(x) on the distinct rows, refusing a non-finite entry (a square or a
    product that overflows on finite x) before any fit or LAPACK call sees
    it; the refusal names the basis term and the data row of the distinct
    row's first occurrence."""
    with np.errstate(over="ignore"):
        bmat = basis.design(rows.data.x)
    if not np.isfinite(bmat).all():
        i, j = np.argwhere(~np.isfinite(bmat))[0]
        row = i if rows.first is None else rows.first[i]
        raise ValueError(f"basis term {basis.terms[j]} is non-finite ({float(bmat[i, j])!r}) "
                         f"at data row {row} (counting from 0)")
    return bmat


class _LevelPieces:
    """What every kernel of one estimation shares, whatever its instrument:
    the Y=1 and Y!=1 row indices, z - f, z, g and b(x) on the Y=1 rows, and
    the slope factor of the covariate means in their linear predictor,
    f(1-f) for a Bernoulli component and 1 for a Gaussian one."""

    def __init__(self, est: Estimation):
        y, z, f = est.data.y, est.data.z, est.f
        # row indices and take(): a boolean-mask gather of a 2-d array costs ~10x more
        self.one, self.rest = np.flatnonzero(y == 1), np.flatnonzero(y != 1)
        self.zf = z - f
        self.z1, self.g1 = z.take(self.one, axis=0), est.g.take(self.one)
        self.bmat1 = est.bmat.take(self.one, axis=0)
        bernoulli = [fam == "bernoulli" for fam in est.covar(0).params.families]
        self.slope = np.where(bernoulli, f * (1.0 - f), 1.0)


class _Kernel:
    """The doubly robust estimating equation N^{-1} sum_i c_i r_i u_i = 0 in
    beta over the distinct rows i with counts c_i, the one array form of the
    calibrated equation: residual r = y*exp(-eta) - (1-y) with
    eta = z beta + g(x), and u = phi(x)(z - f(x)), the instrument held fixed
    at the plugged-in nuisance estimates of est.  A Y=0 row has r = -1, so a
    beta costs one exp over the Y=1 rows, whose u are held times their counts
    as cu1, plus c0 = sum_{Y=0} c_i u_i; an overflowing one gives an inf/NaN
    norm, no improvement to damped_newton.  The instrument-free pieces come
    from the estimation's _LevelPieces."""

    def __init__(self, est: Estimation, instrument: InstrumentSpec):
        self.rows, self.outcome, self.covar = est.rows, est.outcome, est.covar(0)
        self.bmat, self.f, self.level = est.bmat, est.f, est._level
        # a refusal names the data row of a distinct row's first occurrence
        self.phi = _instruments(instrument, est.g, self.f, self.outcome.params.beta,
                                self.covar.params, self.rows.first)[0]
        u = np.einsum("nij,nj->ni", self.phi, self.level.zf)
        cu = self.rows.weigh(u)
        self.n, self.u, self.one = self.rows.total, u, self.level.one
        self.cu1, self.z1, self.g1 = cu.take(self.one, axis=0), self.level.z1, self.level.g1
        self.c0 = cu.take(self.level.rest, axis=0).sum(axis=0)

    def weight(self, beta: np.ndarray) -> np.ndarray:
        """exp(-eta) on the Y=1 rows, the negated derivative of their residual
        in eta.  Its callers hold np.errstate(over="ignore", invalid="ignore")
        around it and what they build from it: one errstate per evaluation."""
        # dot, not @: matmul takes a non-BLAS loop for a single column
        return np.exp(-(self.z1.dot(beta) + self.g1))

    def residual(self, w1: np.ndarray) -> np.ndarray:
        r = np.full(self.u.shape[0], -1.0)
        r[self.one] = w1
        return r

    def system(self, beta: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            w1 = self.weight(beta)
            return (self.cu1.T @ w1 - self.c0) / self.n, lambda: self.jacobian(beta, w1)

    def jacobian(self, beta: np.ndarray, w1: np.ndarray | None = None, *,
                 cw1: np.ndarray | None = None) -> np.ndarray:
        """The equation's derivative in beta; cw1 = cu1 * w1[:, None], when
        the caller has it already."""
        with np.errstate(over="ignore", invalid="ignore"):
            if cw1 is None:
                w1 = self.weight(beta) if w1 is None else w1
                cw1 = self.cu1 * w1[:, None]
            return -cw1.T @ self.z1 / self.n


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


def _assemble(kernel: _Kernel, beta: np.ndarray) -> InfluencePieces:
    """Expansion pieces of the estimating equation at beta: h_matrix, b1 and
    b2 are the mean analytic derivatives in beta, alpha and gamma with the
    instrument held fixed; the influence rows, one per distinct row, combine
    the estimating-function values with the nuisance influence rows so that
    beta_hat - beta_bar is their mean to first order; the covariance is their
    scaled Gram matrix.  Each mean is weighted by the counts."""
    rows, n, p, m = kernel.rows, kernel.n, beta.shape[0], kernel.bmat.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        w1 = kernel.weight(beta)  # one exp over the Y=1 rows serves resid, h_matrix and b1
        cw1 = kernel.cu1 * w1[:, None]  # serves h_matrix and b1
        h_matrix = kernel.jacobian(beta, cw1=cw1)
    resid = kernel.residual(w1)
    b1 = -cw1.T @ kernel.level.bmat1 / n
    # d r / d gamma_{jk} = -resid * phi[:, j] * link'(f_j) * b_k: one (n, p*p)' (n, m) product
    slope = rows.weigh(resid)[:, None] * kernel.level.slope
    b2 = (-(kernel.phi.reshape(-1, p * p) * np.tile(slope, p)).T @ kernel.bmat / n
          ).reshape(p, p * m)

    combo = resid[:, None] * kernel.u + kernel.outcome.s1[:, p:] @ b1.T + kernel.covar.s2 @ b2.T
    influence = -combo.dot(_inverse(h_matrix).T)  # @ is a slow loop for p = 1
    covariance = rows.weigh(influence).T @ influence / n**2
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
