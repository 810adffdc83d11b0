"""Exact samplers and a seeded Monte Carlo study harness.

Data are generated from the factorization
p(y, z | x) proportional to exp(beta' z y) p(z | Y=0, x) p(y | Z=0, x),
so the conditional law of Z given (Y=0, X) is exactly the declared one
(clean "covariate model correct" scenarios) and P(Y=1 | Z, X) is exactly
expit(beta'z + g(x)).  For Gaussian Z the factorization is sampled in
closed form by exponential tilting, with no rejection step; for binary Z
the normalized 2x2 cell table is sampled directly.

Misspecification of a working model is induced by omitting a basis term
(a square) that the true function uses, which keeps the misspecification
magnitude controlled and reproducible.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .estimators import DEFAULT_ESTIMATORS, KNOWN_ESTIMATORS, _Context, _wald_quantile
from .model import Basis, BasisTerm, Dataset, EstimationError, expit

__all__ = [
    "XLawGrid",
    "XLawUniform",
    "GaussianComponent",
    "BernoulliComponent",
    "TrueLaw",
    "Scenario",
    "EstimatorSummary",
    "MonteCarloSummary",
    "sample_binary",
    "sample_gaussian_tilted",
    "sample_dataset",
    "run_scenario",
    "run_scenarios",
    "scenario_catalog",
    "write_dataset_csv",
    "SUMMARY_COLUMNS",
    "summary_rows",
    "write_summary_json",
    "write_summary_csv",
    "DEFAULT_ESTIMATORS",
]


# ---------------------------------------------------------------------------
# True-law building blocks
# ---------------------------------------------------------------------------

# the largest exponent whose exp is a finite float
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class XLawGrid:
    """X supported on finitely many points with given probabilities.

    Stored as nested tuples so laws and scenarios compare and hash like
    plain values.
    """

    points: tuple[tuple[float, ...], ...]  # (k, q)
    probs: tuple[float, ...]               # (k,)

    def __post_init__(self):
        pts = tuple(tuple(float(v) for v in np.atleast_1d(row))
                    for row in np.atleast_2d(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", tuple(float(v) for v in self.probs))
        if len(self.points) != len(self.probs):
            raise ValueError("points and probs must have equal length")
        if not all(map(math.isfinite, (v for row in self.points for v in row))):
            raise ValueError("points must be finite")
        # the check Generator.choice makes on every draw, made once here
        if not all(math.isfinite(v) and v >= 0.0 for v in self.probs):
            raise ValueError(f"probs must be finite and nonnegative, got {self.probs}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > math.sqrt(np.finfo(float).eps):
            raise ValueError(f"probs must sum to 1, got a sum of {total!r}")

    def draw_index(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Indices into `points` of n draws; draw(n, rng) is points[draw_index(n, rng)]."""
        return rng.choice(len(self.points), size=n, p=np.asarray(self.probs, dtype=float))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(self.points, dtype=float)[self.draw_index(n, rng)]


@dataclass(frozen=True)
class XLawUniform:
    """X uniform on a hypercube."""

    low: tuple[float, ...]
    high: tuple[float, ...]

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo = np.asarray(self.low, dtype=float)
        hi = np.asarray(self.high, dtype=float)
        return rng.uniform(lo, hi, size=(n, lo.shape[0]))


@dataclass(frozen=True)
class GaussianComponent:
    """Z_j given (Y=0, X) is Normal(mean_coef' b(x), sigma2).

    An optional log-linear variance exp(log_var_coef' b(x)) replaces the
    constant sigma2; the conditional mean stays exactly mean_coef' b(x),
    so a mean-only working model remains correctly specified while the
    variance shape is free to stress the outcome model.
    """

    mean_basis: Basis
    mean_coef: tuple[float, ...]
    sigma2: float = 1.0
    log_var_basis: Basis | None = None
    log_var_coef: tuple[float, ...] | None = None

    def mean(self, x: np.ndarray) -> np.ndarray:
        return self.mean_basis.design(x) @ np.asarray(self.mean_coef, dtype=float)

    def variance(self, x: np.ndarray) -> np.ndarray:
        if self.log_var_basis is not None:
            log_var = self.log_var_basis.design(x) @ np.asarray(self.log_var_coef, dtype=float)
            # refused before exp warns: a NaN compares False as well
            if not (log_var <= _LOG_MAX_FLOAT).all():
                raise ValueError("log-linear variance overflows (exponent beyond "
                                 f"{_LOG_MAX_FLOAT:.6g} or NaN)")
            return np.exp(log_var)
        n = np.atleast_2d(np.asarray(x, dtype=float)).shape[0]
        return np.full(n, self.sigma2)


@dataclass(frozen=True)
class BernoulliComponent:
    """Z_j given (Y=0, X) is Bernoulli with expit(logit_coef' b(x))."""

    logit_basis: Basis
    logit_coef: tuple[float, ...]

    def prob(self, x: np.ndarray) -> np.ndarray:
        return expit(self.logit_basis.design(x) @ np.asarray(self.logit_coef, dtype=float))


@dataclass(frozen=True)
class TrueLaw:
    """Generating law: beta_star, the X law, the true g (a coefficient
    vector on an explicit term basis), and the per-component law of Z
    given (Y=0, X).  P(Y=1 | Z=0, X) = expit(g(X)) by construction."""

    beta_star: tuple[float, ...]
    x_law: XLawGrid | XLawUniform
    g_basis: Basis
    g_coef: tuple[float, ...]
    components: tuple[GaussianComponent | BernoulliComponent, ...]

    def __post_init__(self):
        if len(self.beta_star) != len(self.components):
            raise ValueError("beta_star and components must have equal length")
        for c in self.components:
            if isinstance(c, GaussianComponent) and not c.sigma2 > 0:
                raise ValueError("Gaussian component needs sigma2 > 0")

    @property
    def p(self) -> int:
        return len(self.components)

    def g_star(self, x: np.ndarray) -> np.ndarray:
        return self.g_basis.design(x) @ np.asarray(self.g_coef, dtype=float)


# ---------------------------------------------------------------------------
# Exact samplers
# ---------------------------------------------------------------------------


def sample_binary(law: TrueLaw, n: int, seed) -> Dataset:
    """Draw n rows with scalar binary Z from the exact normalized
    2x2 table of (Y, Z) given X.  Deterministic given the seed.

    On a grid X law the table is built once per support point and gathered
    by the drawn point index, which gives the rows the per-row table's
    values; a support point that is never drawn is not checked."""
    if law.p != 1 or not isinstance(law.components[0], BernoulliComponent):
        raise ValueError("sample_binary needs a single Bernoulli Z component")
    rng = np.random.default_rng(seed)
    if isinstance(law.x_law, XLawGrid):
        support = np.asarray(law.x_law.points, dtype=float)
        index = law.x_law.draw_index(n, rng)
        x = support[index]
        cum = _cell_cumsum(law, support, np.bincount(index, minlength=support.shape[0]) > 0)
        cum = cum.take(index, axis=0)
    else:
        x = law.x_law.draw(n, rng)
        cum = _cell_cumsum(law, x, None)
    passed = rng.random(n)[:, None] > cum
    # the cell index counts the cumulative sums the uniform passes; four
    # column adds cost half of a sum along the short axis
    idx = passed[:, 0].astype(np.int64) + passed[:, 1] + passed[:, 2] + passed[:, 3]
    y = (idx >= 2).astype(np.int64)
    z = (idx & 1).astype(float)[:, None]
    return Dataset._trusted(y, z, x)


def _cell_cumsum(law: TrueLaw, x: np.ndarray, drawn: np.ndarray | None) -> np.ndarray:
    """Row-wise cumulative sums of the normalized (Y, Z) cell table at the
    rows of x; refuses a cell that underflows on a row in `drawn` (a boolean
    row mask; None checks every row)."""
    f0 = law.components[0].prob(x)
    e0 = expit(law.g_star(x))
    tilt = math.exp(float(law.beta_star[0]))
    cells = np.column_stack([
        (1.0 - f0) * (1.0 - e0),        # y=0, z=0
        f0 * (1.0 - e0),                # y=0, z=1
        (1.0 - f0) * e0,                # y=1, z=0
        f0 * e0 * tilt,                 # y=1, z=1
    ])
    cells /= cells.sum(axis=1, keepdims=True)
    if (cells if drawn is None else cells[drawn]).min() < 1e-300:
        raise ValueError("cell probability underflow in the binary sampler")
    return np.cumsum(cells, axis=1)


def sample_gaussian_tilted(law: TrueLaw, n: int, seed) -> Dataset:
    """Draw n rows with Gaussian Z by exponential tilting.

    With Z | Y=0, X ~ Normal(m(X), diag(sigma2)) componentwise, the
    normalizer is c(X) = (1 - e0) + e0 * exp(t(X)) with
    t(X) = beta'm(X) + beta' diag(sigma2) beta / 2 and e0 = expit(g(X)),
    P(Y=1 | X) = e0 exp(t) / c, and Z given Y=y is Normal with mean
    m(X) + y * diag(sigma2) beta.  E(Z | Y=0, X) = m(X) exactly.
    """
    if not all(isinstance(c, GaussianComponent) for c in law.components):
        raise ValueError("sample_gaussian_tilted needs all-Gaussian Z components")
    rng = np.random.default_rng(seed)
    beta = np.asarray(law.beta_star, dtype=float)
    x = law.x_law.draw(n, rng)
    m = np.column_stack([c.mean(x) for c in law.components])
    sigma2 = np.column_stack([c.variance(x) for c in law.components])
    tilt = m @ beta + 0.5 * sigma2 @ (beta * beta)
    # a NaN fails the comparison too, so a non-finite mean or variance is
    # refused here: the rows below then come out finite
    if not (np.abs(tilt) <= 700.0).all():
        raise ValueError("tilt exponent overflows (|beta'm| beyond 700) or is NaN")
    e0 = expit(law.g_star(x))
    et = np.exp(tilt)
    p1 = e0 * et / ((1.0 - e0) + e0 * et)
    y = (rng.random(n) < p1).astype(np.int64)
    z = m + y[:, None] * (sigma2 * beta[None, :]) \
        + rng.standard_normal((n, law.p)) * np.sqrt(sigma2)
    return Dataset._trusted(y, z, x)


def sample_dataset(law: TrueLaw, n: int, seed) -> Dataset:
    if law.p == 1 and isinstance(law.components[0], BernoulliComponent):
        return sample_binary(law, n, seed)
    return sample_gaussian_tilted(law, n, seed)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A generating law paired with a working basis and model families.

    The correctness flags derive from the term-subset relation between the
    true functions' bases and the working basis (laws in the catalog never
    hide a used term behind a degenerate support, so term subset =
    correctness).
    """

    name: str
    family: str
    law: TrueLaw
    working_basis: Basis
    z_families: tuple[str, ...]
    n: int
    replications: int
    seed: int

    def __post_init__(self):
        for fam, comp in zip(self.z_families, self.law.components):
            if isinstance(comp, GaussianComponent):
                if fam != "gaussian":
                    raise ValueError("Gaussian component needs the gaussian working family")
            elif fam != "bernoulli":
                raise ValueError("Bernoulli component needs the bernoulli working family")
        if not 1 <= self.n:
            raise ValueError("n must be positive")
        if not 1 <= self.replications:
            raise ValueError("replications must be positive")

    @property
    def g_correct(self) -> bool:
        """Whether the working basis spans the true g."""
        return self.working_basis.covers(self.law.g_basis)

    @property
    def f_correct(self) -> bool:
        """Whether the working basis spans every true covariate-mean function."""
        return all(self.working_basis.covers(c.mean_basis if isinstance(c, GaussianComponent)
                                             else c.logit_basis) for c in self.law.components)


@dataclass(frozen=True)
class EstimatorSummary:
    estimator: str
    n_ok: int
    n_fail: int
    bias: float
    sd: float
    mean_se: float
    rmse: float
    coverage: float
    mcse: float


@dataclass(frozen=True)
class MonteCarloSummary:
    scenario: str
    n: int
    replications: int
    beta_star: float
    level: float
    estimators: tuple[EstimatorSummary, ...]

    def by_name(self, name: str) -> EstimatorSummary:
        for e in self.estimators:
            if e.estimator == name:
                return e
        raise KeyError(name)


def _run_replication(sc: Scenario, rep: int, estimators: Sequence[str]) -> dict:
    """One replication: sample, fit nuisances, run each estimator.
    Returns estimator -> (beta, se) or None on failure."""
    seed = np.random.SeedSequence(sc.seed, spawn_key=(rep,))
    out: dict = {}
    try:
        ctx = _Context(sample_dataset(sc.law, sc.n, seed), sc.working_basis, sc.z_families)
    except (EstimationError, ValueError):
        return {name: None for name in estimators}
    for name in estimators:
        try:
            beta, se, _ = ctx.estimate(name)
            out[name] = (float(beta[0]), float(se[0]))
        except (EstimationError, ValueError):
            # data-dependent failure: counted, not propagated
            out[name] = None
    return out


def _worker(args):
    return _run_replication(*args)


def run_scenarios(jobs: Sequence[tuple[Scenario, Sequence[str]]], *, level: float = 0.95,
                  workers: int = 1) -> Iterator[MonteCarloSummary]:
    """Run the replications of every (scenario, estimators) job, through one
    process pool when workers > 1, then yield each job's summary in order.

    Replications use independent seed streams split off the scenario seed
    by replication index, so results do not depend on the worker count.
    Per-replication failures are counted, not propagated; a summary raises
    only if more than 20% of its replications fail for some estimator, and
    the summaries of the jobs before it have been yielded by then.
    """
    for sc, estimators in jobs:
        if sc.law.p != 1:
            raise ValueError("scenario summaries are defined for scalar Z (p=1)")
        for name in estimators:
            if name not in KNOWN_ESTIMATORS:
                raise ValueError(f"unknown estimator {name!r}; known: {KNOWN_ESTIMATORS}")
    args = [(sc, rep, tuple(estimators)) for sc, estimators in jobs
            for rep in range(sc.replications)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, args, chunksize=8))
    else:
        results = [_run_replication(*a) for a in args]
    start = 0
    for sc, estimators in jobs:
        yield _summarize(sc, estimators, results[start:start + sc.replications], level)
        start += sc.replications


def run_scenario(sc: Scenario, estimators: Sequence[str] = DEFAULT_ESTIMATORS,
                 *, level: float = 0.95, workers: int = 1) -> MonteCarloSummary:
    """Run all replications of one scenario and summarize each estimator
    (the one-job case of run_scenarios)."""
    return next(run_scenarios([(sc, estimators)], level=level, workers=workers))


def _summarize(sc: Scenario, estimators: Sequence[str], results: list[dict],
               level: float) -> MonteCarloSummary:
    beta_star = float(sc.law.beta_star[0])
    zq = _wald_quantile(level)
    summaries = []
    for name in estimators:
        vals = [r[name] for r in results]
        ok = [v for v in vals if v is not None]
        n_fail = len(vals) - len(ok)
        if n_fail > 0.2 * sc.replications:
            raise EstimationError(
                f"scenario {sc.name!r}: estimator {name!r} failed in "
                f"{n_fail}/{sc.replications} replications")
        betas = np.array([v[0] for v in ok])
        ses = np.array([v[1] for v in ok])
        bias = float(betas.mean() - beta_star)
        sd = float(betas.std(ddof=1)) if betas.size > 1 else 0.0
        covered = np.abs(betas - beta_star) <= zq * ses
        summaries.append(EstimatorSummary(
            estimator=name,
            n_ok=len(ok),
            n_fail=n_fail,
            bias=bias,
            sd=sd,
            mean_se=float(ses.mean()),
            rmse=math.sqrt(bias**2 + sd**2),
            coverage=float(covered.mean()),
            mcse=sd / math.sqrt(len(ok)) if ok else float("nan"),
        ))
    return MonteCarloSummary(scenario=sc.name, n=sc.n, replications=sc.replications,
                             beta_star=beta_star, level=level,
                             estimators=tuple(summaries))


# ---------------------------------------------------------------------------
# Scenario catalog
# ---------------------------------------------------------------------------

_CATALOG_SEED_BASE = 774400


def _linear_basis() -> Basis:
    return Basis.linear_in(1)


def _square_basis() -> Basis:
    return Basis.linear_in(1).plus(BasisTerm("square", 0))


def _binary_law(beta: float, g_coef, f_coef) -> TrueLaw:
    return TrueLaw(
        beta_star=(beta,),
        x_law=XLawGrid(points=np.array([[-1.0], [0.0], [1.0]]),
                       probs=np.array([0.3, 0.4, 0.3])),
        g_basis=_square_basis() if len(g_coef) == 3 else _linear_basis(),
        g_coef=tuple(g_coef),
        components=(BernoulliComponent(
            logit_basis=_square_basis() if len(f_coef) == 3 else _linear_basis(),
            logit_coef=tuple(f_coef)),),
    )


def _gaussian_law(beta: float, g_coef, f_coef, *, sigma2: float = 0.8,
                  log_var_coef=None) -> TrueLaw:
    comp = GaussianComponent(
        mean_basis=_square_basis() if len(f_coef) == 3 else _linear_basis(),
        mean_coef=tuple(f_coef),
        sigma2=sigma2,
        log_var_basis=_linear_basis() if log_var_coef is not None else None,
        log_var_coef=tuple(log_var_coef) if log_var_coef is not None else None,
    )
    return TrueLaw(
        beta_star=(beta,),
        x_law=XLawUniform(low=(-1.5,), high=(1.5,)),
        g_basis=_square_basis() if len(g_coef) == 3 else _linear_basis(),
        g_coef=tuple(g_coef),
        components=(comp,),
    )


def scenario_catalog() -> tuple[Scenario, ...]:
    """Correctness and misspecification scenarios at desk scale.

    Families S1 (both models correct), S2 (covariate model correct,
    outcome model misspecified through an omitted square), S3 (outcome
    model correct, covariate model misspecified), S4 (neither correct),
    each in a binary-Z and a Gaussian-Z edition, plus the both-correct
    efficiency scenarios S1b0 (beta*=0) and S1b1 (beta*=1).

    Law parameters are chosen so the qualitative contrasts resolve above
    Monte Carlo noise at n=2000, R=500: in S2 the quasi-MLE of beta has
    an exact asymptotic bias near +0.05 (the strongly curved g interacts
    with a Z law whose conditional spread varies in x), while the doubly
    robust estimators stay centered; in S4 nothing protects beta.
    """
    out = []

    def add(i: int, fam: str, binary_law: TrueLaw, gaussian_law: TrueLaw):
        for off, (law, zfam) in enumerate([(binary_law, "bernoulli"),
                                           (gaussian_law, "gaussian")]):
            out.append(Scenario(
                name=f"{fam}-{'binary' if off == 0 else 'gaussian'}",
                family=fam,
                law=law,
                working_basis=_linear_basis(),
                z_families=(zfam,),
                n=2000,
                replications=500,
                seed=_CATALOG_SEED_BASE + 10 * i + 5 * off,
            ))

    add(0, "S1",
        _binary_law(0.5, (0.2, 0.6), (-0.2, 0.9)),
        _gaussian_law(0.5, (0.2, 0.6), (0.1, 0.7)))
    add(1, "S2",
        _binary_law(0.5, (0.2, 0.4, 3.0), (-0.2, 2.0)),
        _gaussian_law(0.5, (0.3, 0.4, 2.5), (0.1, 1.0), log_var_coef=(0.0, 1.5)))
    add(2, "S3",
        _binary_law(0.5, (0.2, 0.6), (-0.2, 0.9, 1.2)),
        _gaussian_law(0.5, (0.2, 0.6), (0.1, 0.7, 0.9)))
    add(3, "S4",
        _binary_law(0.5, (0.2, 0.4, 3.0), (-0.2, 0.9, 1.2)),
        _gaussian_law(0.5, (0.2, 0.6, 1.1), (0.1, 0.7, 0.9)))
    add(4, "S1b0",
        _binary_law(0.0, (-0.3, 1.4), (-0.2, 0.9)),
        _gaussian_law(0.0, (-0.3, 1.4), (0.1, 0.7), sigma2=1.0))
    add(5, "S1b1",
        _binary_law(1.0, (-0.3, 1.4), (-0.2, 0.9)),
        _gaussian_law(1.0, (-0.3, 1.4), (0.1, 0.7), sigma2=1.0))
    return tuple(out)


def with_size(sc: Scenario, *, n: int | None = None,
              replications: int | None = None,
              seed: int | None = None) -> Scenario:
    """Copy of a scenario with overridden size or seed (for quick studies)."""
    return replace(sc,
                   n=sc.n if n is None else n,
                   replications=sc.replications if replications is None else replications,
                   seed=sc.seed if seed is None else seed)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def write_dataset_csv(path, data: Dataset) -> None:
    """Write a dataset with header y,z1..zp,x1..xq; floats use repr so a
    read-back reproduces the values bit for bit."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [f"z{j+1}" for j in range(data.p)]
                   + [f"x{j+1}" for j in range(data.q)])
        for i in range(data.n):
            w.writerow([int(data.y[i])] + [repr(float(v)) for v in data.z[i]]
                       + [repr(float(v)) for v in data.x[i]])


# the columns of every summary report: the scenario, then EstimatorSummary fields
SUMMARY_COLUMNS = ("scenario", "estimator", "bias", "sd", "mean_se", "rmse",
                   "coverage", "mcse", "n_fail")


def summary_rows(summary: MonteCarloSummary) -> list[dict]:
    return [{c: summary.scenario if c == "scenario" else getattr(e, c) for c in SUMMARY_COLUMNS}
            for e in summary.estimators]


def write_summary_json(summaries: Sequence[MonteCarloSummary], path) -> None:
    rows = [row for s in summaries for row in summary_rows(s)]
    with open(path, "w") as fh:
        json.dump({"results": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary_csv(summaries: Sequence[MonteCarloSummary], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        w.writeheader()
        for s in summaries:
            for row in summary_rows(s):
                w.writerow({k: repr(v) if isinstance(v, float) else v
                            for k, v in row.items()})
