"""Shared fixtures and small test-side oracles.

The root finders and enumeration helpers here are deliberately
independent of the package's solvers: they bisect sample equations or
sum over finite supports directly, so the production Newton path is
checked against something it does not share code with.
"""

from __future__ import annotations

import numpy as np
import pytest

from drlogit.model import (
    Basis,
    BasisTerm,
    CovariateModelParams,
    Dataset,
    OutcomeModelParams,
    expit,
)

from oracles import FiniteLaw, logistic_finite_law


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def lin_basis():
    return Basis.linear_in(1)


def bisect_root(fn, lo=-20.0, hi=20.0, tol=1e-13, max_iter=300):
    """Scalar root by bisection; requires a sign change on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert flo * fhi < 0, "bisection bracket does not straddle a root"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def random_binary_finite_law(rng, beta=0.5, n_x=3):
    """Random finite law with binary Y, Z and X on an n_x-point grid,
    built from the odds-ratio factorization with logit-quadratic pieces."""
    xs = np.linspace(-1.0, 1.0, n_x)[:, None]
    probs = rng.dirichlet(np.ones(n_x) * 5.0)
    gc = rng.uniform(-1.0, 1.0, 3)
    fc = rng.uniform(-1.0, 1.0, 3)
    pz1 = expit(fc[0] + fc[1] * xs[:, 0] + fc[2] * xs[:, 0] ** 2)
    pz = np.column_stack([1.0 - pz1, pz1])
    law = logistic_finite_law(
        beta=np.array([beta]),
        g_of_x=lambda x: gc[0] + gc[1] * x[0] + gc[2] * x[0] ** 2,
        x_points=xs,
        x_probs=probs,
        z_support=np.array([[0.0], [1.0]]),
        pz_given_y0=pz,
    )
    return law, gc, fc


def mean_r_frozen_phi(ds, basis, beta, alpha, covar_params, phi):
    """Sample mean of the doubly robust estimating function with the
    instrument matrices frozen: the independent evaluation behind the
    finite-difference derivative oracle."""
    from drlogit.model import covariate_means

    f = covariate_means(covar_params, ds.x, basis)
    g = basis.design(ds.x) @ alpha
    eta = ds.z @ beta + g
    zeta = np.where(ds.y == 1, np.exp(-eta), -1.0)
    return np.einsum("n,nij,nj->i", zeta, phi, ds.z - f) / ds.n


def exact_counts_dataset(law: FiniteLaw, multiple: int = 1) -> Dataset:
    """Dataset whose empirical distribution equals the law exactly.

    Requires every probability to be an integer multiple of 1/total for
    some total; the caller builds laws with dyadic cell probabilities.
    """
    total = None
    for denom in (2**k for k in range(3, 24)):
        counts = law.prob * denom * multiple
        if np.allclose(counts, np.round(counts), atol=1e-9):
            total = denom * multiple
            break
    assert total is not None, "law probabilities are not dyadic"
    counts = np.round(law.prob * total).astype(int)
    y = np.repeat(law.y, counts)
    z = np.repeat(law.z, counts, axis=0)
    x = np.repeat(law.x, counts, axis=0)
    return Dataset(y, z, x)
