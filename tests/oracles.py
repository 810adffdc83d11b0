"""Exact finite-support laws: the tests' enumeration oracles.

A finite joint law of (Y, Z, X), the law built from the odds-ratio
factorization of the logistic partially linear model, and an
exact-enumeration check of the conditioning identity behind the Y=0
covariate model.  They sum over finite supports directly and share no
code with the estimators they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from drlogit.model import _freeze, expit


@dataclass(frozen=True)
class FiniteLaw:
    """A finite joint law of (Y, Z, X): support rows with probabilities."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y)
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        pr = np.asarray(self.prob, dtype=float)
        if z.shape[0] != y.shape[0]:
            z = z.T
        if x.shape[0] != y.shape[0]:
            x = x.T
        if not np.isin(y, (0, 1)).all():
            raise ValueError("finite-law y values must be 0 or 1")
        if (pr < 0).any():
            raise ValueError("finite-law probabilities must be nonnegative")
        if not (y.shape[0] == z.shape[0] == x.shape[0] == pr.shape[0]):
            raise ValueError("finite-law arrays must have matching lengths")
        _freeze(self, y=np.array(y, dtype=np.int64), z=np.array(z), x=np.array(x),
                prob=np.array(pr))

    @property
    def size(self) -> int:
        return self.y.shape[0]

    def check_normalized(self, tol: float = 1e-10) -> None:
        s = float(self.prob.sum())
        if abs(s - 1.0) > tol:
            raise ValueError(f"law not normalized: probabilities sum to {s!r}")

    def expectation(self, fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        """Exact E[fn(Y, Z, X)] by enumeration over the support."""
        total = None
        for i in range(self.size):
            v = np.atleast_1d(np.asarray(
                fn(int(self.y[i]), self.z[i], self.x[i]), dtype=float))
            total = v * self.prob[i] if total is None else total + v * self.prob[i]
        return total


def logistic_finite_law(
    beta: np.ndarray,
    g_of_x: Callable[[np.ndarray], float],
    x_points: np.ndarray,
    x_probs: np.ndarray,
    z_support: np.ndarray,
    pz_given_y0: np.ndarray,
) -> FiniteLaw:
    """Finite law from the odds-ratio factorization
    p(y, z | x) proportional to exp(beta'z * y) p(z | Y=0, x) p(y | Z=0, x),
    with P(Y=1 | Z=0, x) = expit(g(x)).

    By construction the law satisfies P(Y=1 | Z=z, X=x) =
    expit(beta'z + g(x)) exactly, and p(z | Y=0, x) is exactly the
    declared table, which makes correct/incorrect working-model scenarios
    unambiguous.  `pz_given_y0[k, l]` is P(Z = z_support[l] | Y=0, x_k).
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    if x_points.shape[0] != np.asarray(x_probs).shape[0]:
        x_points = x_points.T
    x_probs = np.asarray(x_probs, dtype=float)
    z_support = np.atleast_2d(np.asarray(z_support, dtype=float))
    if z_support.shape[1] != beta.shape[0]:
        z_support = z_support.T
    pz = np.atleast_2d(np.asarray(pz_given_y0, dtype=float))

    ys, zs, xs, ps = [], [], [], []
    for k in range(x_points.shape[0]):
        xk = x_points[k]
        e0 = expit(float(g_of_x(xk)))
        w = []
        for l in range(z_support.shape[0]):
            zl = z_support[l]
            w.append((0, zl, (1.0 - e0) * pz[k, l]))
            w.append((1, zl, e0 * pz[k, l] * math.exp(float(beta @ zl))))
        c = sum(t[2] for t in w)
        for yv, zl, wv in w:
            ys.append(yv)
            zs.append(zl)
            xs.append(xk)
            ps.append(x_probs[k] * wv / c)
    return FiniteLaw(np.array(ys), np.array(zs), np.array(xs), np.array(ps))


def ortho_complement_identity_gap(
    h: Callable[[np.ndarray, np.ndarray], np.ndarray],
    law: FiniteLaw,
) -> float:
    """Exact-enumeration check of the conditioning identity
    E[h pi (1-pi) | X] = P(Y=0 | X) E[h pi | Y=0, X],
    where pi(z, x) = P(Y=1 | Z=z, X=x) is computed from the law itself.

    Returns the maximum absolute discrepancy over the X support (and over
    components of h).  Requires a normalized law with every pi strictly
    inside (0, 1) and P(Y=0 | X) > 0 for every supported x.
    """
    law.check_normalized()
    groups: dict[bytes, list[int]] = {}
    for i in range(law.size):
        groups.setdefault(law.x[i].tobytes(), []).append(i)

    worst = 0.0
    for idx in groups.values():
        idx = np.asarray(idx)
        px = float(law.prob[idx].sum())
        if px <= 0.0:
            continue
        p_y0 = float(law.prob[idx[law.y[idx] == 0]].sum())
        if p_y0 == 0.0:
            raise ValueError("P(Y=0 | X=x) is zero for a supported x; "
                             "the Y=0 conditioning is undefined")
        zgroups: dict[bytes, list[int]] = {}
        for i in idx:
            zgroups.setdefault(law.z[i].tobytes(), []).append(int(i))
        lhs = None
        rhs = None
        for zidx in zgroups.values():
            zidx = np.asarray(zidx)
            pz = float(law.prob[zidx].sum())
            p1 = float(law.prob[zidx[law.y[zidx] == 1]].sum())
            pi = p1 / pz
            if not 0.0 < pi < 1.0:
                raise ValueError("pi(z, x) must be strictly inside (0, 1) "
                                 "on the whole support")
            hval = np.atleast_1d(np.asarray(
                h(law.z[zidx[0]], law.x[zidx[0]]), dtype=float))
            term_l = (pz / px) * pi * (1.0 - pi) * hval
            term_r = ((pz - p1) / px) * pi * hval
            lhs = term_l if lhs is None else lhs + term_l
            rhs = term_r if rhs is None else rhs + term_r
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
