"""Core types and estimating-function kernels.

The target model is a logistic partially linear model for a binary
response: P(Y=1 | Z, X) = expit(beta' Z + g(X)), where Z holds the
covariates of interest and g is an unrestricted function of the
remaining covariates X.  Working models are linear in a user-declared
feature basis b(X): an outcome model g(X; alpha) = alpha' b(X), and a
covariate-mean model for E(Z | Y=0, X) with per-component Gaussian or
Bernoulli families.

This module houses the value types, a numerically careful link
evaluation, the instrument matrices phi(X) entering the doubly robust
estimating function, and the estimating-function kernels themselves.  All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Literal

import numpy as np

__all__ = [
    "EstimationError",
    "ConvergenceError",
    "SingularMatrixError",
    "expit",
    "BasisTerm",
    "Basis",
    "Dataset",
    "OutcomeModelParams",
    "FAMILIES",
    "CovariateModelParams",
    "VARIANTS",
    "InstrumentSpec",
    "LinearInstrument",
    "BinaryInstrument",
    "covariate_means",
    "instrument_matrix",
    "instrument_matrices",
    "ee_dr",
    "ee_instrument",
]


class EstimationError(RuntimeError):
    """Base class for numerical-estimation failures."""


class ConvergenceError(EstimationError):
    """A solver did not reach its tolerance (possible separation or no root)."""


class SingularMatrixError(EstimationError):
    """A matrix that must be inverted is singular or too ill-conditioned."""


# Condition numbers beyond this are treated as a broken configuration,
# not a numerical detail to smooth over.
COND_LIMIT = 1e12


def expit(c):
    """Inverse logit 1 / (1 + exp(-c)), stable on both tails.

    With e = exp(-|c|), it is 1 / (1 + e) for c >= 0 and e / (1 + e)
    otherwise, so arguments of magnitude well beyond 700 neither overflow
    nor underflow to garbage; elementwise it is bit-identical to the
    sign-split form of `_scalar_expit`.  Accepts scalars or arrays;
    returns a float for scalar input.
    """
    arr = np.asarray(c, dtype=float)
    # min(c, -c) rather than -abs(c): it keeps the sign bit of a NaN input
    e = np.exp(np.minimum(arr, -arr))
    out = np.where(arr >= 0.0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def _scalar_expit(c: float) -> float:
    # hot-path scalar version of the same sign-split evaluation
    if c >= 0.0:
        return 1.0 / (1.0 + math.exp(-c))
    e = math.exp(c)
    return e / (1.0 + e)


# ---------------------------------------------------------------------------
# Feature basis
# ---------------------------------------------------------------------------

TermKind = Literal["intercept", "linear", "square", "interaction"]


@dataclass(frozen=True)
class BasisTerm:
    """One feature: intercept, coordinate j, its square, or a product j*k."""

    kind: TermKind
    j: int = 0
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("intercept", "linear", "square", "interaction"):
            raise ValueError(f"unknown basis term kind {self.kind!r}")
        if self.kind != "intercept" and self.j < 0:
            raise ValueError("basis term index must be nonnegative")
        if self.kind == "interaction" and self.k < 0:
            raise ValueError("basis term index must be nonnegative")


@dataclass(frozen=True)
class Basis:
    """Deterministic feature map x -> b(x); the first term is the intercept."""

    terms: tuple[BasisTerm, ...]

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("basis needs at least the intercept term")
        if self.terms[0].kind != "intercept":
            raise ValueError("first basis term must be the intercept")

    @property
    def m(self) -> int:
        return len(self.terms)

    @classmethod
    def linear_in(cls, q: int) -> "Basis":
        """Intercept plus all q raw coordinates."""
        return cls((BasisTerm("intercept"), *(BasisTerm("linear", j) for j in range(q))))

    def plus(self, *terms: BasisTerm) -> "Basis":
        return Basis(self.terms + tuple(terms))

    def covers(self, other: "Basis") -> bool:
        """True when every term of `other` is present here."""
        return set(other.terms) <= set(self.terms)

    def design(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the basis on rows of x; returns an (n, m) matrix."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, q = x.shape
        out = np.empty((n, self.m))
        for i, t in enumerate(self.terms):
            if t.kind == "intercept":
                out[:, i] = 1.0
                continue
            if t.j >= q or (t.kind == "interaction" and t.k >= q):
                raise ValueError(f"basis term {t} references a coordinate beyond q={q}")
            if t.kind == "linear":
                out[:, i] = x[:, t.j]
            elif t.kind == "square":
                out[:, i] = x[:, t.j] ** 2
            else:
                out[:, i] = x[:, t.j] * x[:, t.k]
        return out

    def row(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the basis at a single point; returns an (m,) vector."""
        return self.design(np.asarray(x, dtype=float)[None, :])[0]


# ---------------------------------------------------------------------------
# Data and parameter containers
# ---------------------------------------------------------------------------


def _freeze(obj, **fields) -> None:
    """Set fields of a frozen dataclass, making the array ones read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Dataset:
    """n observations of a binary response y, covariates of interest z (p
    columns) and other covariates x (q columns)."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("y must be a nonempty 1-d array")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("y values must be exactly 0 or 1")
        z = np.asarray(self.z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim != 2 or x.ndim != 2:
            raise ValueError("z and x must be 2-d arrays")
        n = y.shape[0]
        if z.shape[0] != n or x.shape[0] != n:
            raise ValueError("y, z, x must have the same number of rows")
        for name, arr in (("z", z), ("x", x)):
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"{name} has non-finite value {float(arr[i, j])!r} "
                                 f"at row {i}, column {j}")
        _freeze(self, y=np.array(y, dtype=np.int64), z=np.array(z), x=np.array(x))

    @classmethod
    def _trusted(cls, y: np.ndarray, z: np.ndarray, x: np.ndarray) -> "Dataset":
        """A Dataset over arrays already checked as __post_init__ would (int64
        y in {0, 1}, finite 2-d float z and x of equal rows): no copy, no rescan."""
        data = object.__new__(cls)
        _freeze(data, y=y, z=z, x=x)
        return data

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.z.shape[1]

    @property
    def q(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class OutcomeModelParams:
    """Coefficients of the working outcome model expit(beta'z + alpha'b(x))."""

    beta: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if not (np.isfinite(beta).all() and np.isfinite(alpha).all()):
            raise ValueError("outcome-model coefficients must be finite")
        _freeze(self, beta=np.array(beta), alpha=np.array(alpha))


def _negated(params: OutcomeModelParams) -> OutcomeModelParams:
    """Outcome model of the relabeled response 1 - Y, by the odds-ratio
    symmetry P(1-Y=1 | z, x) = expit(-beta'z - alpha'b(x))."""
    return OutcomeModelParams(-params.beta, -params.alpha)


# the working families of a covariate-model component
FAMILIES = ("gaussian", "bernoulli")


@dataclass(frozen=True)
class CovariateModelParams:
    """Per-component working model for E(Z | Y=y0, X).

    Row j of `gamma` holds the coefficients of component j on b(X); the
    component mean is gamma_j'b(x) for a Gaussian family and
    expit(gamma_j'b(x)) for a Bernoulli one.  `resid_var` holds the
    residual variance of Gaussian components (ignored, conventionally
    NaN, for Bernoulli ones).
    """

    gamma: np.ndarray
    families: tuple[str, ...]
    resid_var: np.ndarray

    def __post_init__(self):
        gamma = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        rv = np.atleast_1d(np.asarray(self.resid_var, dtype=float))
        fams = tuple(self.families)
        if gamma.shape[0] != len(fams) or rv.shape[0] != len(fams):
            raise ValueError("gamma rows, families and resid_var must align")
        for j, fam in enumerate(fams):
            if fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r} for component {j}")
            if fam == "gaussian" and not rv[j] > 0:
                raise ValueError(f"Gaussian component {j} needs resid_var > 0")
        if not np.isfinite(gamma).all():
            raise ValueError("covariate-model coefficients must be finite")
        _freeze(self, gamma=np.array(gamma), resid_var=np.array(rv), families=fams)

    @property
    def p(self) -> int:
        return len(self.families)


# the instrument variants phi of the doubly robust class, in menu order
VARIANTS = ("identity", "simple", "optimal")


@dataclass(frozen=True)
class InstrumentSpec:
    """Choice of the p x p instrument matrix phi(X).

    identity: the identity matrix.
    simple:   expit(alpha'b(x)) times the identity.
    optimal:  variance-minimizing matrix built from conditional moments of
              Z given (Y=0, X) under the declared families.  Components
              are independent, so each moment is a product of exact
              per-component one-dimensional moments: closed-form Gaussian
              moments for a Gaussian component, a two-point sum for a
              Bernoulli one.
    """

    variant: str = "simple"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown instrument variant {self.variant!r}")


@dataclass(frozen=True)
class LinearInstrument:
    """u(z, x) = phi(x) z for the general-instrument estimating function."""

    spec: InstrumentSpec


@dataclass(frozen=True)
class BinaryInstrument:
    """Tabulated u for scalar binary Z: u0(x) at z=0, u1(x) at z=1."""

    u0: Callable[[np.ndarray], np.ndarray]
    u1: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Working-model evaluations
# ---------------------------------------------------------------------------


def covariate_means(covar: CovariateModelParams, x: np.ndarray, basis: Basis) -> np.ndarray:
    """Model means of Z given the conditioning response level, per row of x.

    Returns an (n, p) array; Gaussian components are linear in b(x),
    Bernoulli ones pass through expit.
    """
    return _means_from_design(covar, basis.design(x))


def _means_from_design(covar: CovariateModelParams, bx: np.ndarray) -> np.ndarray:
    lin = bx @ covar.gamma.T
    for j, fam in enumerate(covar.families):
        if fam == "bernoulli":
            lin[:, j] = expit(lin[:, j])
    return lin


def _linear_predictor(z, x, beta: np.ndarray, alpha: np.ndarray, basis: Basis):
    """z as an array, b(x), g = alpha'b(x) and eta = beta'z + g at one point."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != beta.shape:
        raise ValueError(f"z has shape {z.shape}, beta has shape {beta.shape}")
    bx = basis.row(np.atleast_1d(np.asarray(x, dtype=float)))
    if bx.shape != alpha.shape:
        raise ValueError(f"basis gives {bx.shape[0]} features, alpha has {alpha.shape[0]}")
    g = float(alpha @ bx)
    return z, bx, g, float(beta @ z) + g


def _check_y(y) -> int:
    if y not in (0, 1):
        raise ValueError("y must be 0 or 1")
    return int(y)


# ---------------------------------------------------------------------------
# Instrument matrices phi(X)
# ---------------------------------------------------------------------------


def _optimal_instrument_batch(g: np.ndarray, f: np.ndarray, beta: np.ndarray,
                              covar: CovariateModelParams,
                              rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Variance-minimizing phi(x) per row from g = alpha'b(x) and the
    covariate means f(x), with condition numbers.

    phi(x) = A(x) B(x)^{-1} where A = E[(Z-f)(Z-f)' | Y=0, x] and
    B = E[(Z-f)(Z-f)' / pi | Y=0, x].  Components of Z are treated as
    mutually independent under their declared families, and
    1/pi = 1 + exp(-(g + beta'f)) prod_l exp(-beta_l r_l) with r = Z - f,
    so every entry of A and B is a product of one-dimensional moments
    E[r_l^k] and E[exp(-beta_l r_l) r_l^k], k = 0, 1, 2, exact in closed
    form for a Gaussian component (the same for every row) and as a
    two-point sum per row for a Bernoulli one, at O(n p^3) cost.  A tilt
    whose Gaussian moments overflow gives an inf entry of B, refused as
    ill-conditioned like any other non-finite row, and so is a row whose
    smallest eigenvalue magnitude of B is subnormal.  B is inverted in closed
    form for p <= 2 and by LAPACK, after scaling rows and columns by powers
    of two to about a unit diagonal, for p >= 3, where a row with a
    subnormal diagonal entry is refused; a row whose phi comes out
    non-finite, from a B too close to zero to invert, is refused too.  The
    refusal names the worst row, as rows[i] for entry i when rows is given.
    """
    n, p = f.shape
    if beta.shape[0] != p:
        raise ValueError("beta and covariate model disagree on dim(Z)")

    plain, tilted = zip(*(_component_moments(fam, f[:, l], covar.resid_var[l], -beta[l])
                          for l, fam in enumerate(covar.families)))
    # entry (j, k) of A and B is the product, in component order, of moment
    # order [l == j] + [l == k] of component l; an overflowed moment times a
    # zero one is NaN, and a B too close to zero overflows its inverse, both
    # refused below
    a_mat, tilt_mat = np.empty((n, p, p)), np.empty((n, p, p))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(p):
            for k in range(p):
                orders = [(l == j) + (l == k) for l in range(p)]
                a_mat[:, j, k] = reduce(mul, [m[o] for m, o in zip(plain, orders)])
                tilt_mat[:, j, k] = reduce(mul, [m[o] for m, o in zip(tilted, orders)])
        tilt_mat *= np.exp(-(g + f @ beta))[:, None, None]
        b_mat = a_mat + tilt_mat

        # the condition number is hi / lo, the extreme eigenvalue magnitudes of B
        if p == 1:
            # |b| / |b| is 1 wherever it is defined
            b = b_mat[:, 0, 0]
            finite, hi = np.isfinite(b), np.abs(b)
            lo, phi = hi, a_mat / b_mat
        else:
            finite = np.isfinite(b_mat).all(axis=(1, 2))
            if p == 2:
                hi, lo, phi = _closed_form_2x2(a_mat, b_mat)
            else:
                eig = np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], b_mat, 0.0)))
                lo, hi = eig.min(axis=1), eig.max(axis=1)
        # a subnormal lo has lost its digits: its row is refused like a zero one
        conds = np.divide(hi, lo, out=np.full(n, np.inf),
                          where=finite & (lo >= np.finfo(float).tiny))
    if not (conds > COND_LIMIT).any():
        if p > 2:
            # only now: LAPACK raises on a singular B.  LU runs on D^{-1} B D^{-1}
            # and D^{-1} A D^{-1}, D the power of two nearest sqrt(diag B), so that
            # the spread of the diagonal costs no digits; the scaling is exact.  A
            # subnormal diagonal entry has lost its digits already: its row's phi
            # is NaN, refused below like a B too close to zero to invert
            diag = np.diagonal(b_mat, axis1=1, axis2=2)
            e = np.rint(0.5 * np.log2(diag)).astype(int)
            scale = -(e[:, :, None] + e[:, None, :])
            phi = np.linalg.solve(np.ldexp(b_mat, scale), np.ldexp(a_mat, scale))
            phi = np.ldexp(phi.transpose(0, 2, 1), e[:, :, None] - e[:, None, :])
            phi[(diag < np.finfo(float).tiny).any(axis=1)] = np.nan
        # 0 <= a <= b bounds phi by 1 for p = 1; for p >= 2 a B that passes
        # the condition test can still be too close to zero to invert
        if p == 1 or np.isfinite(phi).all():
            return phi, conds
        conds[~np.isfinite(phi).all(axis=(1, 2))] = np.inf
    worst = int(np.argmax(conds))
    row = worst if rows is None else rows[worst]
    raise SingularMatrixError(
        f"optimal instrument: inner moment matrix has condition number "
        f"{conds[worst]:.3g} > {COND_LIMIT:.0e} at row {row}")


def _closed_form_2x2(a_mat: np.ndarray, b_mat: np.ndarray):
    """|big| and |small|, the larger and smaller eigenvalue magnitudes of a
    symmetric 2x2 B, and A B^{-1}, per row in vector arithmetic on b00,
    b01 and b11.

    With tr = b00 + b11, d = (b00 - b11)/2 and r = hypot(d, b01), the
    eigenvalues are tr/2 +- r.  The one of larger magnitude, big, is the
    diagonal entry on the side of tr plus e = r - |d| signed as tr, and
    small is the other diagonal entry minus that e; e is taken as
    b01^2 / (r + |d|), which does not cancel, so a diagonal B gives its
    entries exactly.
    B^{-1} = adj(B) / (big small) is divided by big and then by small, so
    that no determinant under- or overflows for a tiny or a huge B."""
    b00, b01, b11 = b_mat[:, 0, 0], b_mat[:, 0, 1], b_mat[:, 1, 1]
    tr, d = b00 + b11, 0.5 * (b00 - b11)
    r = np.hypot(d, b01)
    # the floor, the smallest positive double, only turns the 0/0 of B = cI into 0
    e = np.copysign(b01 * (b01 / np.maximum(r + np.abs(d), 5e-324)), tr)
    near = (tr >= 0) == (d >= 0)
    big, small = np.where(near, b00, b11) + e, np.where(near, b11, b00) - e
    i00, i01, i11 = (np.array([b11, -b01, b00]) / big / small)[:, :, None]
    phi = np.empty_like(a_mat)
    phi[:, :, 0] = a_mat[:, :, 0] * i00 + a_mat[:, :, 1] * i01
    phi[:, :, 1] = a_mat[:, :, 0] * i01 + a_mat[:, :, 1] * i11
    return np.abs(big), np.abs(small), phi


def _component_moments(family: str, f_j: np.ndarray, resid_var: float,
                       tilt: float) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The triples (E[r^k]) and (E[exp(tilt r) r^k]) for k = 0, 1, 2, with
    r = Z_j - f_j.  A Gaussian component, r ~ N(0, s2), gives (1,) arrays,
    the same for every row: (1, 0, s2) and m (1, tilt s2, s2 + (tilt s2)^2)
    with m = exp(tilt^2 s2 / 2), inf where that overflows.  A Bernoulli one
    takes per-row arrays from its two points r = -f_j and 1 - f_j, weighted
    1 - f_j and f_j, summed in that order."""
    if family == "gaussian":
        with np.errstate(over="ignore"):
            shift = tilt * resid_var
            m = np.exp(np.array([0.5 * tilt * shift]))
            return ((np.ones(1), np.zeros(1), np.full(1, resid_var)),
                    (m, m * shift, m * (resid_var + shift * shift)))
    # the weight of r0 = -f_j is 1 - f_j = r1, that of r1 is f_j
    r0, r1 = -f_j, 1.0 - f_j
    r0_sq, r1_sq = r0 * r0, r1 * r1
    # an overflowed exp times a zero weight is NaN, refused by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        e0, e1 = np.exp(tilt * r0), np.exp(tilt * r1)
        return tuple((v0 + v1, v0 * r0 + v1 * r1, v0 * r0_sq + v1 * r1_sq)
                     for v0, v1 in ((r1, f_j), (e0 * r1, e1 * f_j)))


def _instruments(spec: InstrumentSpec, g: np.ndarray, f: np.ndarray, beta: np.ndarray,
                 covar: CovariateModelParams, rows: np.ndarray | None = None):
    """phi at every row from g = alpha'b(x) and the covariate means f(x), as
    an (n, p, p) array, with the condition numbers (1 unless optimal); rows
    as in _optimal_instrument_batch."""
    n, p = f.shape
    if spec.variant == "optimal":
        return _optimal_instrument_batch(g, f, beta, covar, rows)
    scale = np.ones(n) if spec.variant == "identity" else expit(g)
    return scale[:, None, None] * np.eye(p), np.ones(n)


def instrument_matrices(spec: InstrumentSpec, x: np.ndarray, outcome: OutcomeModelParams,
                        covar: CovariateModelParams, basis: Basis) -> np.ndarray:
    """Evaluate phi at every row of x; returns an (n, p, p) array."""
    bx = basis.design(x)
    return _instruments(spec, bx @ outcome.alpha, _means_from_design(covar, bx),
                        outcome.beta, covar)[0]


def instrument_matrix(spec: InstrumentSpec, x: np.ndarray, outcome: OutcomeModelParams,
                      covar: CovariateModelParams, basis: Basis) -> np.ndarray:
    """phi at a single point x, the one-row case of instrument_matrices."""
    return instrument_matrices(spec, np.atleast_1d(np.asarray(x, dtype=float))[None, :],
                               outcome, covar, basis)[0]


# ---------------------------------------------------------------------------
# Estimating-function kernels
# ---------------------------------------------------------------------------


def _point_terms(z, x, beta, alpha, covar: CovariateModelParams, basis: Basis):
    """z, g = alpha'b(x), eta = beta'z + g and f(x) at one point, all from a
    single evaluation of b(x)."""
    z, bx, g, eta = _linear_predictor(
        z, x, np.atleast_1d(np.asarray(beta, dtype=float)),
        np.atleast_1d(np.asarray(alpha, dtype=float)), basis)
    lin = (covar.gamma @ bx).tolist()
    f = np.array([_scalar_expit(v) if fam == "bernoulli" else v
                  for v, fam in zip(lin, covar.families)])
    return z, g, eta, f


def _apply_phi(spec: InstrumentSpec, v: np.ndarray, g: float, f: np.ndarray, beta, alpha,
               covar: CovariateModelParams) -> np.ndarray:
    """phi(x) v at one point from the g = alpha'b(x) and f(x) of _point_terms.
    Identity and simple need only g; optimal is the one-row case of
    _optimal_instrument_batch, and refuses non-finite coefficients as
    OutcomeModelParams does (alpha enters only that check)."""
    if spec.variant == "identity":
        return v
    if spec.variant == "simple":
        return _scalar_expit(g) * v
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if not all(map(math.isfinite, beta.tolist() + np.ravel(alpha).tolist())):
        raise ValueError("outcome-model coefficients must be finite")
    phi = _optimal_instrument_batch(np.array([g]), f[None, :], beta, covar)[0][0]
    return phi @ v


def _overflowed(v: np.ndarray) -> np.ndarray:
    """inf * v: a scalar kernel's value where exp(-eta) overflows, as the
    array kernel's np.exp gives it (a zero entry gives NaN), without a warning."""
    with np.errstate(invalid="ignore"):
        return math.inf * v


def ee_dr(y, z, x, beta, alpha, covar: CovariateModelParams,
          instrument: InstrumentSpec, basis: Basis) -> np.ndarray:
    """Doubly robust estimating function
    {y*exp(-beta'z - alpha'b(x)) - (1-y)} phi(x) {z - f(x)}.

    Unbiased for the true beta whenever the outcome model or the
    covariate-mean model is correctly specified, for any phi.
    """
    y = _check_y(y)
    z, g, eta, f = _point_terms(z, x, beta, alpha, covar, basis)
    v = _apply_phi(instrument, z - f, g, f, beta, alpha, covar)
    try:
        return (math.exp(-eta) if y == 1 else -1.0) * v
    except OverflowError:
        return _overflowed(v)


def ee_instrument(y, z, x, beta, alpha, covar: CovariateModelParams,
                  u: LinearInstrument | BinaryInstrument, basis: Basis) -> np.ndarray:
    """General-instrument estimating function
    {y/pi - 1} {u(z, x) - E[u | Y=0, x]}.

    For a linear instrument u = phi(x) z the centering is exact,
    E[u | Y=0, x] = phi(x) f(x), for any Z family.  Tabulated instruments
    are supported for scalar binary Z only, where the conditional mean is
    an exact two-point sum.
    """
    y = _check_y(y)
    z, g, eta, f = _point_terms(z, x, beta, alpha, covar, basis)
    if isinstance(u, LinearInstrument):
        v = _apply_phi(u.spec, z - f, g, f, beta, alpha, covar)
    elif isinstance(u, BinaryInstrument):
        if covar.p != 1 or covar.families[0] != "bernoulli":
            raise ValueError("tabulated instruments only support scalar binary Z; "
                             "continuous Z is limited to linear-in-Z instruments")
        if z[0] not in (0.0, 1.0):
            raise ValueError("tabulated instrument evaluated at a non-binary z")
        u0 = np.atleast_1d(np.asarray(u.u0(np.asarray(x, dtype=float)), dtype=float))
        u1 = np.atleast_1d(np.asarray(u.u1(np.asarray(x, dtype=float)), dtype=float))
        uval = u1 if z[0] == 1.0 else u0
        v = uval - ((1.0 - f[0]) * u0 + f[0] * u1)
    else:
        raise TypeError(f"unsupported instrument type {type(u).__name__}")
    try:
        # y/pi - 1 evaluated in the stable factored form (1-pi)/pi for y=1;
        # a subnormal pi makes it overflow to inf without raising
        factor = _scalar_expit(-eta) / _scalar_expit(eta) if y == 1 else -1.0
    except ZeroDivisionError:  # pi underflowed to 0
        factor = math.inf
    return _overflowed(v) if factor == math.inf else factor * v
