"""Damped Newton iteration shared by the nuisance fits and the estimating-equation
solvers, on one system(theta) -> (equation, Jacobian thunk): one evaluation per
trial point, a Jacobian only for an accepted iterate.  The constants are fixed
for every caller: tolerance 1e-12, 100 iterations, 50 halvings per iteration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_TOL = 1e-12
_MAX_ITER = 100
_MAX_HALVINGS = 50


@dataclass(frozen=True)
class NewtonResult:
    params: np.ndarray
    converged: bool
    iterations: int
    step_halvings: int
    final_norm: float
    singular: bool = False


def damped_newton(system: Callable[[np.ndarray], tuple], start: np.ndarray) -> NewtonResult:
    """Solve equation(params) = 0, system(params) giving (equation, Jacobian thunk).
    Each iteration takes the full Newton step and halves it until the equation
    max-norm strictly decreases (NaN/inf norms count as no improvement).  Never
    raises: failures are reported through the `converged` and `singular` flags."""
    params = np.array(start, dtype=float)
    eq, jacobian = system(params)
    norm = _max_norm(eq)
    halvings = 0
    for it in range(_MAX_ITER):
        if norm <= _TOL:
            return NewtonResult(params, True, it, halvings, norm)
        step = _newton_step(jacobian(), eq)
        if step is None:
            return NewtonResult(params, False, it, halvings, norm, singular=True)
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = params + scale * step
            cand_eq, cand_jacobian = system(cand)
            cand_norm = _max_norm(cand_eq)
            if cand_norm < norm:
                params, eq, jacobian, norm = cand, cand_eq, cand_jacobian, cand_norm
                break
            scale *= 0.5
            halvings += 1
        else:
            # no step length improved the equation norm
            return NewtonResult(params, norm <= _TOL, it + 1, halvings, norm)
    return NewtonResult(params, norm <= _TOL, _MAX_ITER, halvings, norm)


def _newton_step(jac: np.ndarray, eq: np.ndarray) -> np.ndarray | None:
    """The step solving jac @ step = -eq, or None for a singular jac or a
    non-finite step.  A 1x1 jac takes one float division, which is what
    LAPACK's solve computes for it, bit for bit, at a fraction of the call's
    cost; a NaN or inf pivot passes through it as it passes through LAPACK."""
    if jac.shape == (1, 1):
        pivot = jac.item()
        if pivot == 0.0:
            return None
        # Python floats: an overflowing quotient is inf without a warning
        step = -eq.item() / pivot
        return np.array([step]) if math.isfinite(step) else None
    try:
        step = np.linalg.solve(jac, -eq)
    except np.linalg.LinAlgError:
        return None
    return step if np.isfinite(step).all() else None


def _max_norm(v: np.ndarray) -> float:
    # a plain-Python max: numpy's dispatch outweighs the work on a few entries
    vals = v.tolist()
    return max(map(abs, vals), default=0.0) if all(map(math.isfinite, vals)) else math.inf
