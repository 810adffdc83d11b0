import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlogit.estimators import _Context
from drlogit.model import (
    COND_LIMIT,
    Basis,
    BasisTerm,
    BinaryInstrument,
    CovariateModelParams,
    Dataset,
    InstrumentSpec,
    LinearInstrument,
    OutcomeModelParams,
    VARIANTS,
    SingularMatrixError,
    _component_moments,
    _instruments,
    _optimal_instrument_batch,
    covariate_means,
    ee_dr,
    ee_instrument,
    expit,
    instrument_matrix,
    instrument_matrices,
)
from drlogit.nuisance import CovariateFit, OutcomeFit

from conftest import random_binary_finite_law
from oracles import FiniteLaw, ortho_complement_identity_gap


# ---------------------------------------------------------------------------
# expit
# ---------------------------------------------------------------------------


def test_expit_symmetry_point():
    assert expit(0.0) == 0.5


def test_expit_saturation_no_overflow():
    v = expit(800.0)
    assert v <= 1.0 and (1.0 - v) < 1e-300
    w = expit(-800.0)
    assert 0.0 <= w < 1e-300


def test_expit_log3():
    assert expit(math.log(3.0)) == pytest.approx(0.75, rel=1e-15)


def test_expit_array_matches_scalar():
    c = np.array([-5.0, 0.0, 3.0])
    out = expit(c)
    assert out.shape == (3,)
    for ci, oi in zip(c, out):
        assert expit(float(ci)) == oi


def _sign_split_expit(c: np.ndarray) -> np.ndarray:
    # reference: 1 / (1 + exp(-c)) where c >= 0, exp(c) / (1 + exp(c)) elsewhere
    out = np.empty_like(c)
    pos = c >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-c[pos]))
    e = np.exp(c[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_expit_bit_identical_to_sign_split():
    special = [0.0, -0.0, 1e-320, -1e-320, 745.0, -745.0, 800.0, -800.0,
               math.inf, -math.inf, math.nan, -math.nan]
    c = np.concatenate([special, np.random.default_rng(3).normal(0.0, 30.0, 4000)])
    want = _sign_split_expit(c)
    assert expit(c).tobytes() == want.tobytes()
    grid = c[:4000].reshape(40, 100)
    got = expit(grid)
    assert got.shape == grid.shape
    assert got.tobytes() == _sign_split_expit(grid.ravel()).tobytes()
    for v, w in zip(special, want):
        s = expit(v)
        assert type(s) is float and np.float64(s).tobytes() == w.tobytes()
        s0 = expit(np.array(v))
        assert type(s0) is float and np.float64(s0).tobytes() == w.tobytes()


@given(st.floats(min_value=-700, max_value=700))
def test_expit_complement_identity(c):
    assert expit(-c) == pytest.approx(1.0 - expit(c), abs=1e-15)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_expit_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert expit(lo) <= expit(hi)


# ---------------------------------------------------------------------------
# Basis and containers
# ---------------------------------------------------------------------------


def test_basis_requires_leading_intercept():
    with pytest.raises(ValueError):
        Basis((BasisTerm("linear", 0),))
    with pytest.raises(ValueError):
        Basis(())


def test_basis_design_terms():
    b = Basis((BasisTerm("intercept"), BasisTerm("linear", 1),
               BasisTerm("square", 0), BasisTerm("interaction", 0, 1)))
    x = np.array([[2.0, 3.0]])
    np.testing.assert_allclose(b.design(x), [[1.0, 3.0, 4.0, 6.0]])
    assert b.m == 4
    assert Basis.linear_in(2).covers(Basis.linear_in(2))
    assert not Basis.linear_in(1).covers(b)


def test_basis_rejects_out_of_range_index():
    b = Basis.linear_in(3)
    with pytest.raises(ValueError):
        b.design(np.zeros((2, 2)))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([0, 2]), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Dataset(np.array([0, 1]), np.zeros((3, 1)), np.zeros((2, 1)))
    ds = Dataset(np.array([0, 1]), np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert (ds.n, ds.p, ds.q) == (2, 1, 1)
    with pytest.raises(ValueError):
        ds.y[0] = 1  # frozen arrays


@given(st.sampled_from(["z", "x"]), st.integers(0, 4), st.integers(0, 1),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_dataset_rejects_non_finite(which, row, col, bad):
    arrays = {"z": np.zeros((5, 2)), "x": np.ones((5, 2))}
    arrays[which][row, col] = bad
    with pytest.raises(ValueError, match=f"{which} has non-finite value .* "
                                         f"at row {row}, column {col}"):
        Dataset(np.zeros(5, dtype=int), arrays["z"], arrays["x"])


def test_covariate_params_validation():
    with pytest.raises(ValueError):
        CovariateModelParams(np.zeros((1, 2)), ("gaussian",), np.array([0.0]))
    with pytest.raises(ValueError):
        CovariateModelParams(np.zeros((1, 2)), ("poisson",), np.array([1.0]))


def test_instrument_spec_validation():
    with pytest.raises(ValueError):
        InstrumentSpec("banana")


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def _params(beta, alpha):
    return OutcomeModelParams(np.atleast_1d(beta), np.atleast_1d(alpha))


def ee_dr_y1(y, z, x, beta, alpha, covar1, instrument, basis):
    """The Y=1 mirror of ee_dr: the residual anchors at Y=1 and covar1
    models E(Z | Y=1, X).  By the odds-ratio symmetry it is minus ee_dr of
    the relabeled response 1 - y with (beta, alpha) negated."""
    return -ee_dr(1 - y, z, x, -np.asarray(beta, dtype=float), -np.asarray(alpha, dtype=float),
                  covar1, instrument, basis)


@given(st.integers(0, 1), st.floats(-20, 20), st.floats(-10, 10))
@settings(max_examples=200)
def test_residual_identities_against_stable_ratio(y, zval, a0):
    """zeta0 = (y - pi)/pi and zeta1 = (y - pi)/(1 - pi), with the ratio
    oracles evaluated through the stable complement expit(-eta): the
    identity-instrument ee_dr and its Y=1 mirror at z - f = 1, so that the
    kernel returns its residual."""
    basis = Basis((BasisTerm("intercept"),))
    covar = CovariateModelParams(np.zeros((1, 1)), ("gaussian",), np.ones(1))
    eta = zval + a0
    pi, one_minus_pi = expit(eta), expit(-eta)
    want0 = (y - pi) / pi if y == 0 else one_minus_pi / pi
    want1 = (y - pi) / (1.0 - pi) if y == 1 else -pi / one_minus_pi
    spec = InstrumentSpec("identity")
    got0 = ee_dr(y, [1.0], [0.0], [zval], [a0], covar, spec, basis)
    got1 = ee_dr_y1(y, [1.0], [0.0], [zval], [a0], covar, spec, basis)
    assert got0.shape == got1.shape == (1,)
    assert got0[0] == pytest.approx(want0, rel=1e-12)
    assert got1[0] == pytest.approx(want1, rel=1e-12)


@st.composite
def _calibrated_cases(draw):
    """(y, z, x, alpha, gamma, beta) for the identity-instrument kernel under
    the basis (1, x), so u = z - gamma(1, x)' and the offset is
    g = alpha'(1, x): every eta = z beta + g either within 3 of zero or beyond
    9,997 in magnitude.  z is in {-1, 0, 1}, |g| <= 1, and each beta
    component is in [-1, 1] or is +-1e4, so exp overflows on exactly the rows
    whose large terms do not cancel, and the finite sums stay far from
    overflow.  Both response classes are present."""
    n, p = draw(st.integers(2, 10)), draw(st.integers(1, 2))
    def arr(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                      .filter(lambda v: 0 < sum(v) < len(v))), dtype=np.int64)
    z = arr(st.integers(-1, 1), n * p).reshape(n, p)
    x = arr(st.floats(-1.0, 1.0), n)[:, None]
    alpha = arr(st.floats(-0.5, 0.5), 2)
    gamma = arr(st.floats(-0.5, 0.5), p * 2).reshape(p, 2)
    beta = arr(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1e4, 1e4])), p)
    return y, z, x, alpha, gamma, beta


@given(_calibrated_cases())
@settings(max_examples=300, deadline=None)
def test_calibrated_equation_on_y1_rows_matches_full_rows(case):
    """The DR kernel's Y=1-row evaluation (one exp over the Y=1 rows and the
    constant Y=0 sum) against the full-row form u'(where(y == 1, exp(-eta), 0) - (1 - y))/n
    and its Jacobian, with u = z - f and eta = z beta + g: non-finite in the
    same entries, elsewhere within 1e-13 max(1, |reference|); an overflowing
    beta is included."""
    y, z, x, alpha, gamma, beta = case
    n, p = z.shape
    basis = Basis.linear_in(1)
    outcome = OutcomeFit(params=OutcomeModelParams(np.zeros(p), alpha),
                         s1=np.zeros((n, p + 2)), iterations=0, basis=basis)
    covar = CovariateFit(params=CovariateModelParams(gamma, ("gaussian",) * p, np.ones(p)),
                         s2=np.zeros((n, 2 * p)), basis=basis)
    kernel = _Context(Dataset(y, z, x), basis, outcome=outcome,
                      covars={0: covar}).kernel(InstrumentSpec("identity"))
    bx = np.column_stack([np.ones(n), x[:, 0]])
    u, g = z - bx @ gamma.T, bx @ alpha
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.where(y == 1, np.exp(-(z @ beta + g)), 0.0)
        ref_eq = u.T @ (w - (1 - y)) / n
        ref_jac = -(u * w[:, None]).T @ z / n
    got_eq, jacobian = kernel.system(beta)
    got_jac = jacobian()
    assert got_jac.tobytes() == kernel.jacobian(beta).tobytes()
    for got, ref in ((got_eq, ref_eq), (got_jac, ref_jac)):
        assert got.shape == ref.shape
        finite = np.isfinite(ref)
        assert (np.isfinite(got) == finite).all()
        gap = np.abs(got[finite] - ref[finite])
        assert (gap <= 1e-13 * np.maximum(1.0, np.abs(ref[finite]))).all()


# ---------------------------------------------------------------------------
# Instrument matrices
# ---------------------------------------------------------------------------


def _covar_bern(coef):
    return CovariateModelParams(np.atleast_2d(coef), ("bernoulli",),
                                np.array([math.nan]))


def _covar_gauss(coef, s2):
    return CovariateModelParams(np.atleast_2d(coef), ("gaussian",), np.array([s2]))


def test_instrument_simple_at_zero_logit(lin_basis):
    out = _params([0.7], [0.0, 0.0])
    phi = instrument_matrix(InstrumentSpec("simple"), [0.3], out,
                            _covar_gauss([0.0, 0.0], 1.0), lin_basis)
    np.testing.assert_allclose(phi, 0.5 * np.eye(1))


def test_instrument_identity(lin_basis):
    phi = instrument_matrix(InstrumentSpec("identity"), [0.3],
                            _params([0.7], [0.2, 0.1]),
                            _covar_gauss([0.0, 0.0], 1.0), lin_basis)
    np.testing.assert_allclose(phi, np.eye(1))


def test_instrument_optimal_bernoulli_two_point_oracle(lin_basis, rng):
    """Exact two-point enumeration: phi_opt = 1 / ((1-f)/pi(1,x) + f/pi(0,x))."""
    for _ in range(25):
        beta = rng.uniform(-1.5, 1.5)
        alpha = rng.uniform(-1.0, 1.0, 2)
        gcoef = rng.uniform(-1.0, 1.0, 2)
        x = rng.uniform(-1.0, 1.0, 1)
        out = _params([beta], alpha)
        covar = _covar_bern(gcoef)
        f = expit(gcoef[0] + gcoef[1] * x[0])
        g = alpha[0] + alpha[1] * x[0]
        pi1, pi0 = expit(beta + g), expit(g)
        want = 1.0 / ((1.0 - f) / pi1 + f / pi0)
        got = instrument_matrix(InstrumentSpec("optimal"), x, out, covar, lin_basis)
        assert got[0, 0] == pytest.approx(want, rel=1e-12)


def test_instrument_optimal_beta_zero_bernoulli(lin_basis, rng):
    """At beta = 0 the optimal instrument collapses to expit(g(x)) I."""
    for _ in range(10):
        alpha = rng.uniform(-1.5, 1.5, 2)
        x = rng.uniform(-1.0, 1.0, 1)
        out = _params([0.0], alpha)
        covar = _covar_bern(rng.uniform(-1.0, 1.0, 2))
        got = instrument_matrix(InstrumentSpec("optimal"), x, out, covar, lin_basis)
        want = expit(alpha[0] + alpha[1] * x[0])
        assert got[0, 0] == pytest.approx(want, rel=1e-12)


def test_instrument_optimal_beta_zero_gaussian(lin_basis, rng):
    for _ in range(10):
        alpha = rng.uniform(-1.5, 1.5, 2)
        x = rng.uniform(-1.0, 1.0, 1)
        out = _params([0.0], alpha)
        covar = _covar_gauss(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.3, 2.0))
        got = instrument_matrix(InstrumentSpec("optimal"), x, out, covar, lin_basis)
        want = expit(alpha[0] + alpha[1] * x[0])
        assert got[0, 0] == pytest.approx(want, rel=1e-12)


def test_instrument_optimal_vector_z_mixed_families(rng):
    """p=2 with one Gaussian and one Bernoulli component: the moment
    matrices from per-component moments match a brute-force two-block sum."""
    basis = Basis.linear_in(1)
    beta = np.array([0.6, -0.4])
    alpha = np.array([0.2, 0.3])
    out = OutcomeModelParams(beta, alpha)
    covar = CovariateModelParams(
        np.array([[0.1, 0.5], [-0.2, 0.7]]), ("gaussian", "bernoulli"),
        np.array([0.9, math.nan]))
    x = np.array([0.4])
    got = instrument_matrix(InstrumentSpec("optimal"), x, out, covar, basis)

    # brute force: Gauss-Hermite x {0,1} enumeration assembled by hand
    t, w = _hermite_rule(31)
    f = covariate_means(covar, x[None, :], basis)[0]
    g = float(basis.row(x) @ alpha)
    a_mat = np.zeros((2, 2))
    b_mat = np.zeros((2, 2))
    for tk, wk in zip(t, w):
        z1 = f[0] + math.sqrt(2 * 0.9) * tk
        for z2, w2 in ((0.0, 1 - f[1]), (1.0, f[1])):
            resid = np.array([z1 - f[0], z2 - f[1]])
            weight = wk * w2
            inv_pi = 1.0 + math.exp(-(beta[0] * z1 + beta[1] * z2 + g))
            a_mat += weight * np.outer(resid, resid)
            b_mat += weight * inv_pi * np.outer(resid, resid)
    want = a_mat @ np.linalg.inv(b_mat)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def _hermite_rule(order):
    """Nodes t and probability weights w, sum(w) = 1, such that E[h(Z)] for
    Z ~ N(m, s2) is approximated by sum_k w_k h(m + sqrt(2 s2) t_k): an
    oracle for the closed-form Gaussian moments, built apart from src."""
    t, w = np.polynomial.hermite.hermgauss(order)
    return t, w / math.sqrt(math.pi)


def _tensor_grid_moments(x, out, covar, basis, order, condition_on_y1):
    """A and B summed node by node over the full tensor grid: Gauss-Hermite
    nodes for Gaussian components, {0, 1} for Bernoulli ones."""
    t, w = _hermite_rule(order)
    f = covariate_means(covar, x[None, :], basis)[0]
    g = float(basis.row(x) @ out.alpha)
    axes = []
    for j, fam in enumerate(covar.families):
        if fam == "gaussian":
            s = math.sqrt(2.0 * covar.resid_var[j])
            axes.append([(f[j] + s * tk, wk) for tk, wk in zip(t, w)])
        else:
            axes.append([(0.0, 1.0 - f[j]), (1.0, f[j])])
    p = covar.p
    a_mat = np.zeros((p, p))
    b_mat = np.zeros((p, p))
    for node in itertools.product(*axes):
        z = np.array([v for v, _ in node])
        weight = math.prod(wk for _, wk in node)
        eta = float(out.beta @ z) + g
        inv_pi = 1.0 + math.exp(eta if condition_on_y1 else -eta)
        outer = np.outer(z - f, z - f)
        a_mat += weight * outer
        b_mat += weight * inv_pi * outer
    return a_mat, b_mat


def _tilted_tensor_grid_moments(x, out, covar, basis, order, condition_on_y1):
    """A and B summed over tensor grids whose Gaussian axes carry the tilt
    exp(+-beta_j z_j) as a change of measure: N(f, s2) tilted by exp(c z) is
    exp(c f + c^2 s2 / 2) N(f + c s2, s2).  Every integrand left on a grid is
    then a polynomial of degree 2 in z, so the sums are exact from order 2 on."""
    t, w = _hermite_rule(order)
    f = covariate_means(covar, x[None, :], basis)[0]
    g = float(basis.row(x) @ out.alpha)
    sign = 1.0 if condition_on_y1 else -1.0

    def grid_sum(tilted):
        axes = []
        for j, fam in enumerate(covar.families):
            c = sign * out.beta[j] if tilted else 0.0
            if fam == "gaussian":
                s2 = covar.resid_var[j]
                mass = math.exp(c * f[j] + 0.5 * c * c * s2)
                centre, s = f[j] + c * s2, math.sqrt(2.0 * s2)
                axes.append([(centre + s * tk, mass * wk) for tk, wk in zip(t, w)])
            else:
                axes.append([(0.0, 1.0 - f[j]), (1.0, f[j] * math.exp(c))])
        total = np.zeros((covar.p, covar.p))
        for node in itertools.product(*axes):
            z = np.array([v for v, _ in node])
            total += math.prod(wk for _, wk in node) * np.outer(z - f, z - f)
        return total

    a_mat = grid_sum(False)
    return a_mat, a_mat + math.exp(sign * g) * grid_sum(True)


@pytest.mark.parametrize("order", [5, 21])
@pytest.mark.parametrize("condition_on_y1", [False, True])
def test_instrument_optimal_p3_matches_tensor_grid(order, condition_on_y1, rng):
    """p=3 (two Gaussian components, one Bernoulli): the product of exact
    one-dimensional moments equals the tensor-grid sum over all nodes of an
    order-21 rule, and the change-of-measure grid sum, exact at every order
    from 2 on, at the given order."""
    basis = Basis.linear_in(2)
    covar = CovariateModelParams(
        rng.uniform(-1.0, 1.0, (3, 3)), ("gaussian", "bernoulli", "gaussian"),
        np.array([0.7, math.nan, 1.6]))
    for _ in range(4):
        out = OutcomeModelParams(rng.uniform(-1.2, 1.2, 3), rng.uniform(-1.0, 1.0, 3))
        x = rng.uniform(-1.5, 1.5, 2)
        # the Y=1 mirror is phi under the negated outcome model
        mirror = OutcomeModelParams(-out.beta, -out.alpha) if condition_on_y1 else out
        got = instrument_matrix(InstrumentSpec("optimal"), x, mirror, covar, basis)
        for moments, grid_order in [(_tensor_grid_moments, 21),
                                    (_tilted_tensor_grid_moments, order)]:
            a_mat, b_mat = moments(x, out, covar, basis, grid_order, condition_on_y1)
            want = a_mat @ np.linalg.inv(b_mat)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("g, condition_on_y1", [(-750.0, False), (750.0, True)])
def test_instrument_optimal_overflowing_row_refused(g, condition_on_y1):
    """|g| near 750 overflows the inverse-probability weight of that row."""
    basis = Basis.linear_in(1)
    covar = CovariateModelParams(np.array([[0.1, 0.5], [-0.2, 0.7]]),
                                 ("gaussian", "bernoulli"), np.array([0.9, math.nan]))
    out = OutcomeModelParams(np.array([0.6, -0.4]), np.array([g, 0.0]))
    xs = np.array([[0.3], [0.0]])
    ok = OutcomeModelParams(out.beta, np.zeros(2))
    if condition_on_y1:
        # the Y=1 mirror is phi under the negated outcome model
        out, ok = (OutcomeModelParams(-o.beta, -o.alpha) for o in (out, ok))
    assert np.isfinite(instrument_matrices(InstrumentSpec("optimal"), xs, ok, covar,
                                           basis)).all()
    with pytest.raises(SingularMatrixError, match="condition number"):
        instrument_matrices(InstrumentSpec("optimal"), xs, out, covar, basis)


@pytest.mark.parametrize("beta0", [20.0, -20.0])
@pytest.mark.parametrize("families", [("gaussian",), ("gaussian", "gaussian"),
                                      ("gaussian", "bernoulli")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_instrument_optimal_overflowing_gaussian_tilt_refused(beta0, families):
    """|beta| sigma = 40 overflows exp(beta^2 sigma^2 / 2), the factor of a
    Gaussian component's tilted moments: the batch and the scalar optimal
    kernels refuse the row as ill-conditioned, with no OverflowError and no
    warning; a second component at beta = 0 multiplies a zero moment into
    the inf."""
    p = len(families)
    basis = Basis.linear_in(1)
    covar = CovariateModelParams(np.zeros((p, 2)), families,
                                 np.array([4.0 if fam == "gaussian" else math.nan
                                           for fam in families]))
    beta, alpha = np.zeros(p), np.array([0.3, -0.2])
    beta[0] = beta0
    spec = InstrumentSpec("optimal")
    with pytest.raises(SingularMatrixError, match="condition number"):
        instrument_matrices(spec, np.array([[0.2], [-0.4]]), OutcomeModelParams(beta, alpha),
                            covar, basis)
    z = [0.1] + [0.0] * (p - 1)
    for y in (0, 1):
        with pytest.raises(SingularMatrixError, match="condition number"):
            ee_dr(y, z, [0.2], beta, alpha, covar, spec, basis)
        with pytest.raises(SingularMatrixError, match="condition number"):
            ee_instrument(y, z, [0.2], beta, alpha, covar, LinearInstrument(spec), basis)


@pytest.mark.parametrize("beta0", [1000.0, -1000.0])
def test_instrument_optimal_overflowing_bernoulli_tilt_refused(beta0):
    """f = expit(40) is 1.0 exactly, so one point of the Bernoulli component
    has weight 0, and |beta| = 1000 overflows a tilt factor: an inf times
    that zero weight is NaN, and the scalar optimal kernel refuses the row
    as ill-conditioned with no warning, for either sign of beta."""
    basis = Basis.linear_in(1)
    covar = CovariateModelParams(np.array([[40.0, 0.0]]), ("bernoulli",),
                                 np.array([math.nan]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="condition number"):
            ee_dr(0, [1.0], [0.2], [beta0], [0.3, -0.2], covar, InstrumentSpec("optimal"),
                  basis)


@given(st.floats(0.1, 4.0), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_gaussian_component_moments_match_hermite_rule(resid_var, tilt):
    """The closed-form Gaussian triples E[r^k] and E[exp(tilt r) r^k],
    k = 0, 1, 2, with r ~ N(0, resid_var), against an order-41
    Gauss-Hermite rule, within 1e-13 max(1, |rule|)."""
    t, w = _hermite_rule(41)
    r = math.sqrt(2.0 * resid_var) * t
    w_tilt = w * np.exp(tilt * r)
    want = [v @ r**k for v in (w, w_tilt) for k in range(3)]
    plain, tilted = _component_moments("gaussian", np.zeros(3), resid_var, tilt)
    for got, ref in zip(plain + tilted, want):
        assert got.shape == (1,)
        assert abs(got[0] - ref) <= 1e-13 * max(1.0, abs(ref))


def test_instrument_condition_number_p2_matches_svd():
    basis = Basis.linear_in(1)
    covar = CovariateModelParams(np.array([[0.1, 0.5], [-0.3, 0.2]]),
                                 ("gaussian", "gaussian"), np.array([0.4, 2.5]))
    out = OutcomeModelParams(np.array([0.9, -0.6]), np.array([0.3, -0.5]))
    x = np.array([0.7])
    g = np.array([basis.row(x) @ out.alpha])
    _, (cond,) = _optimal_instrument_batch(g, covariate_means(covar, x[None, :], basis),
                                           out.beta, covar)
    _, b_mat = _tensor_grid_moments(x, out, covar, basis, 21, False)
    assert cond > 2.0
    assert cond == pytest.approx(np.linalg.cond(b_mat), rel=1e-10)


@pytest.mark.parametrize("condition_on_y1", [False, True])
def test_instrument_optimal_p4_gaussian_matches_tensor_grid(condition_on_y1, rng):
    """Four Gaussian components are served, not refused: the product of
    exact one-dimensional moments equals the 11^4-node tensor-grid sum."""
    basis = Basis.linear_in(1)
    covar = CovariateModelParams(rng.uniform(-1.0, 1.0, (4, 2)), ("gaussian",) * 4,
                                 rng.uniform(0.5, 1.5, 4))
    for _ in range(3):
        out = OutcomeModelParams(rng.uniform(-0.8, 0.8, 4), rng.uniform(-1.0, 1.0, 2))
        x = rng.uniform(-1.5, 1.5, 1)
        mirror = OutcomeModelParams(-out.beta, -out.alpha) if condition_on_y1 else out
        got = instrument_matrix(InstrumentSpec("optimal"), x, mirror, covar, basis)
        a_mat, b_mat = _tensor_grid_moments(x, out, covar, basis, 11, condition_on_y1)
        want = a_mat @ np.linalg.inv(b_mat)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_instrument_optimal_singular_inner_matrix():
    basis = Basis.linear_in(1)
    covar = CovariateModelParams(np.zeros((2, 2)), ("gaussian", "gaussian"),
                                 np.array([1.0, 1e-30]))
    out = OutcomeModelParams(np.zeros(2), np.zeros(2))
    with pytest.raises(SingularMatrixError, match="condition number"):
        instrument_matrix(InstrumentSpec("optimal"), [0.0], out, covar, basis)


def test_instrument_condition_number_reported(lin_basis):
    out = _params([0.5], [0.1, 0.2])
    covar = _covar_gauss([0.0, 0.3], 1.0)
    g = lin_basis.design([0.2]) @ out.alpha
    f = covariate_means(covar, [0.2], lin_basis)
    phi, (cond,) = _optimal_instrument_batch(g, f, out.beta, covar)
    assert phi.shape == (1, 1, 1) and cond == 1.0  # 1x1 inner matrix
    _, (cond_simple,) = _instruments(InstrumentSpec("simple"), g, f, out.beta, covar)
    assert cond_simple == 1.0


def test_instrument_batch_matches_single(lin_basis, rng):
    out = _params([0.5], [0.1, -0.4])
    covar = _covar_gauss([0.2, 0.6], 0.7)
    xs = rng.uniform(-1, 1, (7, 1))
    batch = instrument_matrices(InstrumentSpec("optimal"), xs, out, covar, lin_basis)
    for i in range(7):
        single = instrument_matrix(InstrumentSpec("optimal"), xs[i], out, covar, lin_basis)
        np.testing.assert_allclose(batch[i], single, rtol=1e-12)


def _gathered_component_moments(family, f_j, resid_var, tilt):
    """Reference moments: E[r^k] and E[exp(tilt r) r^k], k = 0, 1, 2, as
    (rows, 3) arrays: the closed-form Gaussian triples in one row, the two
    Bernoulli points stacked as columns and reduced with sum/einsum."""
    if family == "gaussian":
        with np.errstate(over="ignore"):
            shift = tilt * resid_var
            m = np.exp(np.array([0.5 * tilt * shift]))
            return (np.column_stack([np.ones(1), np.zeros(1), np.full(1, resid_var)]),
                    np.column_stack([m, m * shift, m * (resid_var + shift * shift)]))
    r = np.column_stack([-f_j, 1.0 - f_j])
    w = np.column_stack([1.0 - f_j, f_j])
    with np.errstate(over="ignore"):
        w_tilt = np.exp(tilt * r)
    w_tilt *= w
    r2 = r * r
    return tuple(np.column_stack([v.sum(axis=1), np.einsum("ik,ik->i", v, r),
                                  np.einsum("ik,ik->i", v, r2)]) for v in (w, w_tilt))


def _gathered_moment_matrices(g, f, beta, covar):
    """Reference A and B: both start as ones and each component multiplies
    in its moments through a fancy-index gather."""
    n, p = f.shape
    comp = np.arange(p)
    order_jkl = (comp[:, None, None] == comp).astype(int) + (comp[None, :, None] == comp)
    a_mat, tilt_mat = np.ones((n, p, p)), np.ones((n, p, p))
    for j, fam in enumerate(covar.families):
        plain, tilted = _gathered_component_moments(fam, f[:, j], covar.resid_var[j],
                                                    -beta[j])
        a_mat *= plain[:, order_jkl[:, :, j]]
        tilt_mat *= tilted[:, order_jkl[:, :, j]]
    with np.errstate(over="ignore", invalid="ignore"):
        tilt_mat *= np.exp(-(g + f @ beta))[:, None, None]
    return a_mat, a_mat + tilt_mat


def _gathered_optimal_instrument(g, f, beta, covar):
    """Reference optimal instrument: the gathered A and B, condition numbers
    from eigvalsh and phi from LAPACK's solve, for p >= 3 of the system
    equilibrated by powers of two; `_optimal_instrument_batch`
    must reproduce it byte for byte for p = 1 and p >= 3.  A row whose
    smallest eigenvalue magnitude is subnormal fails the condition test;
    when every row passes it, a row whose phi is not finite is refused as
    well."""
    n, p = f.shape
    if beta.shape[0] != p:
        raise ValueError("beta and covariate model disagree on dim(Z)")
    a_mat, b_mat = _gathered_moment_matrices(g, f, beta, covar)
    finite = np.isfinite(b_mat).all(axis=(1, 2))
    if p == 1:
        eig = np.abs(b_mat[:, 0])
    else:
        eig = np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], b_mat, 0.0)))
    lo, hi = eig.min(axis=1), eig.max(axis=1)
    with np.errstate(over="ignore"):
        # a subnormal lo is refused like a zero one
        conds = np.divide(hi, lo, out=np.full(n, np.inf),
                          where=finite & (lo >= np.finfo(float).tiny))
    if np.all(conds <= COND_LIMIT):
        if p == 1:
            phi = a_mat / b_mat
        elif p == 2:
            phi = np.linalg.solve(b_mat, a_mat).transpose(0, 2, 1)
        else:
            # B and A scaled by D^{-1} on both sides, D the power of two nearest
            # sqrt(diag B), phi = D (A' B'^{-1}) D^{-1}; a row with a subnormal
            # diagonal entry is NaN
            diag = np.einsum("nii->ni", b_mat)
            exps = np.rint(0.5 * np.log2(diag)).astype(int)
            scale = np.ldexp(1.0, exps[:, :, None] + exps[:, None, :])
            phi = np.linalg.solve(b_mat / scale, a_mat / scale).transpose(0, 2, 1)
            phi *= np.ldexp(1.0, exps[:, :, None] - exps[:, None, :])
            phi[(diag < np.finfo(float).tiny).any(axis=1)] = np.nan
        conds[~np.isfinite(phi).all(axis=(1, 2))] = np.inf
    if np.any(conds > COND_LIMIT):
        worst = int(np.argmax(conds))
        raise SingularMatrixError(
            f"optimal instrument: inner moment matrix has condition number "
            f"{conds[worst]:.3g} > {COND_LIMIT:.0e} at row {worst}")
    return phi, conds


def _exact_phi_2x2(a, b):
    """A B^{-1} for one 2x2 pair in exact rational arithmetic on the stored
    doubles, rounded once at the end."""
    (a00, a01), (a10, a11) = [[Fraction(v) for v in row] for row in a.tolist()]
    (b00, b01), (b10, b11) = [[Fraction(v) for v in row] for row in b.tolist()]
    det = b00 * b11 - b01 * b10
    return np.array([[float((a00 * b11 - a01 * b10) / det), float((a01 * b00 - a00 * b01) / det)],
                     [float((a10 * b11 - a11 * b10) / det), float((a11 * b00 - a10 * b01) / det)]])


def _exact_phi(a, b):
    """A B^{-1} for one p x p pair in exact rational arithmetic on the stored
    doubles, by Gauss-Jordan elimination on [B | A] (B^{-1} A is phi'
    for symmetric A and B), rounded once at the end."""
    p = len(b)
    rows = [[Fraction(v) for v in brow + arow] for brow, arow in zip(b.tolist(), a.tolist())]
    for c in range(p):
        pivot = next(r for r in range(c, p) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(p):
            if r != c and rows[r][c] != 0:
                ratio = rows[r][c] / rows[c][c]
                rows[r] = [u - ratio * w for u, w in zip(rows[r], rows[c])]
    return np.array([[float(rows[k][p + j] / rows[k][k]) for k in range(p)] for j in range(p)])


def test_optimal_instrument_p3_solve_is_exact_across_scales():
    """Three Gaussian components with variances s2 in 10^-11..1 and tilts
    with beta_j sqrt(s2_j) in [-1.5, 1.5]: B = D C D with C well conditioned
    and D spanning 10^-5.5..1.  A = diag(s2) and
    B = A + exp(-(g + f'beta)) M (diag(s2) + v v'), with v = -beta s2 and
    M = exp(beta' diag(s2) beta / 2), are rebuilt here from that closed
    form, and every entry of phi is within 1e-14 max(1, |phi|) of A B^{-1}
    in exact rational arithmetic.  On these rows LU on the raw B is off by
    up to 8.0e-12, the equilibrated solve by 9.5e-16."""
    rng = np.random.default_rng(3)
    for _ in range(4):
        s2 = 10.0 ** rng.uniform(-11.0, 0.0, 3)
        beta = rng.uniform(-1.5, 1.5, 3) / np.sqrt(s2)
        covar = CovariateModelParams(np.zeros((3, 1)), ("gaussian",) * 3, s2)
        g = rng.uniform(-1.0, 1.0, 100)
        f = rng.normal(size=(100, 3)) * np.sqrt(s2)
        phi, _ = _optimal_instrument_batch(g, f, beta, covar)
        v = -beta * s2
        tilted = math.exp(0.5 * float(beta * s2 @ beta)) * (np.diag(s2) + np.outer(v, v))
        for i in range(g.size):
            b_mat = np.diag(s2) + math.exp(-(g[i] + f[i] @ beta)) * tilted
            exact = _exact_phi(np.diag(s2), b_mat)
            assert np.all(np.abs(phi[i] - exact) <= 1e-14 * np.maximum(1.0, np.abs(exact))), i


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _batch_cases(draw, dims=st.integers(1, 3)):
    p = draw(dims)
    n = draw(st.integers(1, 40))
    families = tuple(draw(st.sampled_from(["gaussian", "bernoulli"])) for _ in range(p))
    beta = np.array(draw(st.lists(st.floats(-3.0, 3.0, **_finite), min_size=p, max_size=p)))
    resid_var = np.array([draw(st.floats(0.05, 4.0)) if fam == "gaussian" else math.nan
                          for fam in families])
    columns = []
    for fam in families:
        if fam == "gaussian":
            cell = st.floats(-3.0, 3.0, **_finite)
        else:
            # means on the boundary make a component degenerate
            cell = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5]))
        columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    f = np.array(columns).T.copy()
    g = np.array(draw(st.lists(st.one_of(st.floats(-6.0, 6.0, **_finite),
                                         st.sampled_from([-750.0, 750.0])),
                               min_size=n, max_size=n)))
    covar = CovariateModelParams(np.zeros((p, 1)), families, resid_var)
    return g, f, beta, covar


def _outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def _assert_p2_matches_reference(case):
    """The closed-form p = 2 instrument against the LAPACK reference: the
    same refusal, or condition numbers within 1e-12 relative of eigvalsh's
    and phi within 1e-12 * max(1, |exact|) of A B^{-1} in exact arithmetic
    on the reference's A and B; never a RuntimeWarning."""
    got = _outcome_or_error(_optimal_instrument_batch, *case)
    assert not (isinstance(got[0], type) and issubclass(got[0], RuntimeWarning)), got
    want = _outcome_or_error(_gathered_optimal_instrument, *case)
    if isinstance(want[0], type):
        assert got == want
        return want
    assert not isinstance(got[0], type), got
    (phi, conds), (_, ref_conds) = got, want
    assert np.all(np.abs(conds - ref_conds) <= 1e-12 * ref_conds)
    exact = np.array([_exact_phi_2x2(a, b) for a, b in zip(*_gathered_moment_matrices(*case))])
    assert np.all(np.abs(phi - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))
    return want


@given(_batch_cases())
@settings(max_examples=400, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimal_instrument_batch_matches_gathered_reference(case):
    """p <= 3 with mixed families, 1 to 40 rows, rows with |g| = 750 and
    Bernoulli means at 0 or 1: for p = 1 and p = 3, phi and the condition
    numbers equal the reference byte for byte, or both raise the same
    error (a RuntimeWarning counts as one); p = 2 inverts B in closed form
    and is held to `_assert_p2_matches_reference`."""
    if case[1].shape[1] == 2:
        _assert_p2_matches_reference(case)
        return
    want = _outcome_or_error(_gathered_optimal_instrument, *case)
    got = _outcome_or_error(_optimal_instrument_batch, *case)
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), got
    for mine, ref in zip(got, want):
        assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes()


@st.composite
def _ill_conditioned_p2_cases(draw):
    """p = 2 rows whose B has condition number between 1e6 and 1e11: two
    Gaussian components with variances 1 and s in 10^-9.9..10^-7 (B is
    their covariance scaled by 1 + e^{...} plus a rank-one tilt, so that
    its condition number lies within 1/s..10/s), or a Gaussian one of
    variance 1 beside a Bernoulli mean within 1e-9..1e-8 of 0 or 1 under
    a milder tilt."""
    n = draw(st.integers(1, 20))
    mixed = draw(st.booleans())
    small = 10.0 ** draw(st.floats(-9.0, -8.0) if mixed else st.floats(-9.9, -7.0))
    if mixed:
        families, resid_var = ("bernoulli", "gaussian"), np.array([math.nan, 1.0])
        f0 = draw(st.lists(st.sampled_from([small, 1.0 - small]), min_size=n, max_size=n))
        width = 2.0
    else:
        families, resid_var = ("gaussian", "gaussian"), np.array([1.0, small])
        f0 = draw(st.lists(st.floats(-3.0, 3.0, **_finite), min_size=n, max_size=n))
        width = 6.0
    f1 = draw(st.lists(st.floats(-3.0, 3.0, **_finite), min_size=n, max_size=n))
    order = [1, 0] if draw(st.booleans()) else [0, 1]
    f = np.column_stack([f0, f1])[:, order]
    beta = np.array(draw(st.lists(st.floats(-width / 2, width / 2, **_finite),
                                  min_size=2, max_size=2)))[order]
    g = np.array(draw(st.lists(st.floats(-width, width, **_finite), min_size=n, max_size=n)))
    covar = CovariateModelParams(np.zeros((2, 1)), tuple(families[i] for i in order),
                                 resid_var[order])
    return g, f, beta, covar


@given(_ill_conditioned_p2_cases())
@settings(max_examples=100, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimal_instrument_p2_ill_conditioned_matches_reference(case):
    """Every row has a condition number between 1e6 and 1e11, where LAPACK's
    LU loses up to about cond * 1e-16 of phi: the closed form still holds
    to `_assert_p2_matches_reference`."""
    _, ref_conds = _assert_p2_matches_reference(case)
    assert np.all((ref_conds >= 1e6) & (ref_conds <= 1e11)), ref_conds


@given(_batch_cases(st.just(2)))
@settings(max_examples=100, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimal_instrument_p2_diagonal_condition_is_exact(case):
    """beta = 0 makes B diagonal: its condition number is max / min of the
    diagonal exactly, as eigvalsh gives it, or both refuse alike."""
    g, f, _, covar = case
    beta = np.zeros(2)
    _, b_mat = _gathered_moment_matrices(g, f, beta, covar)
    got = _outcome_or_error(_optimal_instrument_batch, g, f, beta, covar)
    want = _outcome_or_error(_gathered_optimal_instrument, g, f, beta, covar)
    if isinstance(want[0], type):
        assert got == want
        return
    assert (b_mat[:, 0, 1] == 0.0).all()
    diag = np.abs(b_mat[:, [0, 1], [0, 1]])
    assert got[1].tobytes() == (diag.max(axis=1) / diag.min(axis=1)).tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimal_instrument_refuses_non_finite_phi(p):
    """Bernoulli means that underflow to 5e-324 (gamma'b(x) = -745) give a
    subnormal B whose condition number is 1: for p >= 2 its inverse
    overflows, so phi is inf or NaN, and for p = 1 a / b reads 0.5 where A
    B^{-1} on the exact moments is expit(0.16) = 0.54.  The row is refused
    as ill-conditioned instead."""
    covar = CovariateModelParams(np.tile([[-745.0, 0.0]], (p, 1)), ("bernoulli",) * p,
                                 np.full(p, math.nan))
    with pytest.raises(SingularMatrixError, match="condition number inf > 1e\\+12 at row 0"):
        ee_dr(0, np.zeros(p), [0.3], np.zeros(p), [0.1, 0.2], covar,
              InstrumentSpec("optimal"), Basis.linear_in(1))
    f = np.full((1, p), 5e-324)
    a_mat, b_mat = _gathered_moment_matrices(np.array([0.1 + 0.2 * 0.3]), f, np.zeros(p), covar)
    assert np.isfinite(b_mat).all() and np.linalg.cond(b_mat[0]) == 1.0


# ---------------------------------------------------------------------------
# Estimating-function kernels
# ---------------------------------------------------------------------------


def test_ee_dr_trivial_identity_instrument(lin_basis):
    covar = _covar_gauss([0.5, 0.0], 1.0)  # f = 0.5 everywhere
    got = ee_dr(1, [1.0], [0.0], np.array([0.0]), np.array([0.0, 0.0]), covar,
                InstrumentSpec("identity"), lin_basis)
    assert got[0] == pytest.approx(0.5, rel=1e-14)
    got0 = ee_dr(0, [1.0], [0.0], np.array([0.0]), np.array([0.0, 0.0]), covar,
                 InstrumentSpec("identity"), lin_basis)
    assert got0[0] == pytest.approx(-0.5, rel=1e-14)


def test_ee_dr_dimension_mismatch():
    """z must match beta, and the basis must give as many features as alpha
    has coefficients."""
    basis = Basis((BasisTerm("intercept"),))
    covar = CovariateModelParams(np.zeros((1, 1)), ("gaussian",), np.ones(1))
    spec = InstrumentSpec("identity")
    with pytest.raises(ValueError, match="z has shape"):
        ee_dr(1, [1.0, 2.0], [0.0], [1.0], [0.0], covar, spec, basis)
    with pytest.raises(ValueError, match="basis gives 1 features, alpha has 2"):
        ee_dr(1, [1.0], [0.0], [1.0], [0.0, 1.0], covar, spec, basis)


def test_ee_dr_simple_factor_oracle(lin_basis):
    """y=1, beta=log 2, z=1, g=0, f=0.3: direct product oracle
    0.5 * 0.5 * 0.7 = 0.175, cross-checked against both algebraic forms."""
    beta = np.array([math.log(2.0)])
    alpha = np.zeros(2)
    gamma = [logit03 := math.log(0.3 / 0.7), 0.0]
    covar = _covar_bern(gamma)
    got = ee_dr(1, [1.0], [0.0], beta, alpha, covar, InstrumentSpec("simple"), lin_basis)
    assert got[0] == pytest.approx(0.175, rel=1e-12)
    # form A: {y e^{-b'z} - (1-y) e^{g}} / (1 + e^{g}) * (z - f)
    form_a = (math.exp(-math.log(2.0)) - 0.0) / 2.0 * 0.7
    # form B: e^{-b'z y} (y - expit(g)) (z - f)
    form_b = math.exp(-math.log(2.0)) * (1 - 0.5) * 0.7
    assert got[0] == pytest.approx(form_a, rel=1e-12)
    assert got[0] == pytest.approx(form_b, rel=1e-12)


def test_ee_dr_y1_examples(lin_basis):
    covar1 = _covar_gauss([0.5, 0.0], 1.0)  # f1 = 0.5
    got = ee_dr_y1(1, [1.0], [0.0], np.zeros(1), np.zeros(2), covar1,
                   InstrumentSpec("identity"), lin_basis)
    assert got[0] == pytest.approx(0.5, rel=1e-14)
    got = ee_dr_y1(0, [1.0], [0.0], np.zeros(1), np.zeros(2), covar1,
                   InstrumentSpec("identity"), lin_basis)
    assert got[0] == pytest.approx(-0.5, rel=1e-14)
    # y=0, beta'z+g = log 2 at z=0 via alpha, f1=0.4: (-2)*(0-0.4) = 0.8
    covar1 = _covar_gauss([0.4, 0.0], 1.0)
    got = ee_dr_y1(0, [0.0], [0.0], np.array([1.0]), np.array([math.log(2.0), 0.0]),
                   covar1, InstrumentSpec("identity"), lin_basis)
    assert got[0] == pytest.approx(0.8, rel=1e-12)


def test_simple_form_triple_equivalence(lin_basis, rng):
    """The implementation agrees with both rewritings of the simple-phi
    estimating function on random inputs."""
    for _ in range(300):
        y = int(rng.integers(0, 2))
        z = rng.uniform(-2, 2, 1)
        x = rng.uniform(-2, 2, 1)
        beta = rng.uniform(-1.5, 1.5, 1)
        alpha = rng.uniform(-1.5, 1.5, 2)
        gamma = rng.uniform(-1.0, 1.0, 2)
        covar = _covar_gauss(gamma, 1.0)
        f = gamma[0] + gamma[1] * x[0]
        g = alpha[0] + alpha[1] * x[0]
        got = ee_dr(y, z, x, beta, alpha, covar, InstrumentSpec("simple"), lin_basis)[0]
        form_a = ((y * math.exp(-beta[0] * z[0]) - (1 - y) * math.exp(g))
                  / (1.0 + math.exp(g)) * (z[0] - f))
        form_b = math.exp(-beta[0] * z[0] * y) * (y - expit(g)) * (z[0] - f)
        assert got == pytest.approx(form_a, rel=1e-12, abs=1e-13)
        assert got == pytest.approx(form_b, rel=1e-12, abs=1e-13)


def test_ee_instrument_linear_matches_ee_dr(lin_basis, rng):
    """u(z,x) = phi(x) z reproduces the doubly robust kernel for every
    instrument variant (the calibrated-residual identity y/pi - 1)."""
    variants = ["identity", "simple", "optimal"]
    for k in range(150):
        y = int(rng.integers(0, 2))
        z = rng.uniform(0, 1, 1) < 0.5
        z = z.astype(float)
        x = rng.uniform(-1.5, 1.5, 1)
        beta = rng.uniform(-1.5, 1.5, 1)
        alpha = rng.uniform(-1.5, 1.5, 2)
        covar = _covar_bern(rng.uniform(-1.0, 1.0, 2))
        spec = InstrumentSpec(variants[k % 3])
        r = ee_dr(y, z, x, beta, alpha, covar, spec, lin_basis)
        tau = ee_instrument(y, z, x, beta, alpha, covar, LinearInstrument(spec), lin_basis)
        np.testing.assert_allclose(tau, r, rtol=1e-12, atol=1e-14)


_MIXED_FAMILIES = {1: [("bernoulli",), ("gaussian",)], 2: [("gaussian", "bernoulli")],
                   3: [("bernoulli", "gaussian", "bernoulli"),
                       ("gaussian", "gaussian", "bernoulli")]}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_scalar_optimal_kernels_match_public_instrument(p, rng):
    """ee_dr, ee_dr_y1 and ee_instrument with the optimal linear instrument
    equal the residual times instrument_matrix(...) @ (z - f), with phi and
    f evaluated through the public array entry points."""
    basis = Basis.linear_in(2)
    spec = InstrumentSpec("optimal")
    for i in range(60):
        families = _MIXED_FAMILIES[p][i % len(_MIXED_FAMILIES[p])]
        covar = CovariateModelParams(rng.uniform(-1.0, 1.0, (p, 3)), families,
                                     np.array([rng.uniform(0.3, 2.0) if fam == "gaussian"
                                               else math.nan for fam in families]))
        y = int(rng.integers(0, 2))
        z = np.array([float(rng.integers(0, 2)) if fam == "bernoulli" else rng.normal()
                      for fam in families])
        x = rng.uniform(-1.5, 1.5, 2)
        beta = rng.uniform(-1.2, 1.2, p)
        alpha = rng.uniform(-1.0, 1.0, 3)
        eta = float(beta @ z + basis.row(x) @ alpha)
        for kernel, sign, y1 in ((ee_dr, 1.0, False), (ee_dr_y1, -1.0, True),
                                 (ee_instrument, 1.0, False)):
            # ee_dr_y1 is minus the Y=0 form of 1 - y under (-beta, -alpha)
            yy, e = (1 - y, -eta) if y1 else (y, eta)
            resid = math.exp(-e) if yy == 1 else -1.0
            sign_ba = -1.0 if y1 else 1.0
            phi = instrument_matrix(spec, x, OutcomeModelParams(sign_ba * beta, sign_ba * alpha),
                                    covar, basis)
            ref = sign * resid * (phi @ (z - covariate_means(covar, x[None, :], basis)[0]))
            u = LinearInstrument(spec) if kernel is ee_instrument else spec
            got = kernel(y, z, x, beta, alpha, covar, u, basis)
            assert got.shape == (p,)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))), \
                (kernel.__name__, got, ref)


@pytest.mark.parametrize("kernel", [ee_dr, ee_dr_y1, ee_instrument])
@pytest.mark.parametrize("beta, alpha", [([math.nan], [0.2, 0.1]), ([math.inf], [0.2, 0.1]),
                                         ([0.5], [math.inf, 0.0])])
def test_optimal_kernels_refuse_non_finite_coefficients(kernel, beta, alpha, lin_basis):
    """The optimal variant refuses a NaN or inf in beta or alpha with the
    outcome model's own message."""
    spec = InstrumentSpec("optimal")
    u = LinearInstrument(spec) if kernel is ee_instrument else spec
    with pytest.raises(ValueError, match="outcome-model coefficients must be finite"):
        kernel(1, [1.0], [0.3], np.array(beta), np.array(alpha), _covar_bern([0.1, 0.4]), u,
               lin_basis)


@pytest.mark.parametrize("family, z, beta, gamma0, want, optimal_refused", [
    ("bernoulli", 1.0, -800.0, 0.3, math.inf, True),
    ("gaussian", 800.0, -1.0, 0.3, math.inf, False),
    ("gaussian", 800.0, -1.0, 800.0, math.nan, True),  # z - f = 0: inf * 0 is NaN
])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scalar_kernels_give_inf_where_exp_overflows(family, z, beta, gamma0, want,
                                                     optimal_refused, variant, lin_basis):
    """At y=1 with eta = beta'z + g = -800, exp(-eta) overflows: both scalar
    kernels give inf * phi(z - f), what the array kernel's np.exp gives, with
    no Python exception and no warning.  Where the optimal instrument's own
    moments overflow (beta'f = -800), it is refused as ill-conditioned."""
    covar = _covar_bern([gamma0, 0.2]) if family == "bernoulli" else _covar_gauss([gamma0, 0.0],
                                                                                1.0)
    spec = InstrumentSpec(variant)
    for kernel, u in ((ee_dr, spec), (ee_instrument, LinearInstrument(spec))):
        args = (1, [z], [0.0], np.array([beta]), np.zeros(2), covar, u, lin_basis)
        if variant == "optimal" and optimal_refused:
            with pytest.raises(SingularMatrixError):
                kernel(*args)
        else:
            np.testing.assert_array_equal(kernel(*args), [want])


def test_ee_instrument_y0_value(lin_basis):
    covar = _covar_gauss([0.5, 0.0], 1.0)
    got = ee_instrument(0, [1.0], [0.0], np.zeros(1), np.zeros(2), covar,
                        LinearInstrument(InstrumentSpec("identity")), lin_basis)
    assert got[0] == pytest.approx(-0.5, rel=1e-14)


def test_ee_instrument_binary_square_idempotent(lin_basis, rng):
    """On binary z, the tabulated instrument u = z^2 equals u = z exactly."""
    covar = _covar_bern([0.1, 0.4])
    u_z = BinaryInstrument(u0=lambda x: 0.0, u1=lambda x: 1.0)
    u_z2 = BinaryInstrument(u0=lambda x: 0.0**2, u1=lambda x: 1.0**2)
    for _ in range(50):
        y = int(rng.integers(0, 2))
        z = np.array([float(rng.integers(0, 2))])
        x = rng.uniform(-1, 1, 1)
        beta = rng.uniform(-1, 1, 1)
        alpha = rng.uniform(-1, 1, 2)
        a = ee_instrument(y, z, x, beta, alpha, covar, u_z, lin_basis)
        b = ee_instrument(y, z, x, beta, alpha, covar, u_z2, lin_basis)
        np.testing.assert_array_equal(a, b)


def test_ee_instrument_table_rejects_continuous_z(lin_basis):
    covar = _covar_gauss([0.0, 0.0], 1.0)
    u = BinaryInstrument(u0=lambda x: 0.0, u1=lambda x: 1.0)
    with pytest.raises(ValueError, match="linear-in-Z"):
        ee_instrument(1, [0.3], [0.0], np.zeros(1), np.zeros(2), covar, u, lin_basis)


# ---------------------------------------------------------------------------
# Finite laws and the conditioning identity
# ---------------------------------------------------------------------------


def test_logistic_finite_law_has_exact_conditionals(rng):
    law, gc, fc = random_binary_finite_law(rng, beta=0.8)
    law.check_normalized(1e-12)
    # P(Y=1 | Z=z, X=x) == expit(beta z + g(x)) exactly, cell by cell
    for xv in np.unique(law.x[:, 0]):
        for zv in (0.0, 1.0):
            sel = (law.x[:, 0] == xv) & (law.z[:, 0] == zv)
            p1 = law.prob[sel & (law.y == 1)].sum() / law.prob[sel].sum()
            g = gc[0] + gc[1] * xv + gc[2] * xv**2
            assert p1 == pytest.approx(expit(0.8 * zv + g), rel=1e-12)
        # p(z=1 | Y=0, x) equals the declared table
        sel0 = (law.x[:, 0] == xv) & (law.y == 0)
        pz1 = (law.prob[sel0 & (law.z[:, 0] == 1.0)].sum()
               / law.prob[sel0].sum())
        assert pz1 == pytest.approx(expit(fc[0] + fc[1] * xv + fc[2] * xv**2), rel=1e-12)


def test_zeta0_conditional_mean_zero_by_enumeration(rng):
    """E[zeta0 | Z=z, X=x] = 0 exactly under the law's own (beta, g)."""
    law, gc, _ = random_binary_finite_law(rng, beta=0.6)
    for xv in np.unique(law.x[:, 0]):
        for zv in (0.0, 1.0):
            sel = (law.x[:, 0] == xv) & (law.z[:, 0] == zv)
            probs = law.prob[sel]
            g = gc[0] + gc[1] * xv + gc[2] * xv**2
            vals = np.array([
                yv * math.exp(-(0.6 * zv + g)) - (1 - yv) for yv in law.y[sel]])
            cond = float(vals @ probs / probs.sum())
            assert abs(cond) <= 1e-12


def test_ortho_identity_constant_case():
    # pi = 0.5 everywhere: single x, z in {0,1}, y flips fairly
    law = FiniteLaw(
        y=np.array([0, 1, 0, 1]),
        z=np.array([[0.0], [0.0], [1.0], [1.0]]),
        x=np.array([[0.0]] * 4),
        prob=np.array([0.25, 0.25, 0.25, 0.25]),
    )
    gap = ortho_complement_identity_gap(lambda z, x: 1.0, law)
    assert gap <= 1e-15


def test_ortho_identity_random_laws(rng):
    for _ in range(100):
        probs = rng.dirichlet(np.ones(12) * 3.0)
        y = np.tile([0, 1], 6)
        z = np.repeat(np.tile([0.0, 1.0], 3), 2)[:, None]
        x = np.repeat([-1.0, 0.0, 1.0], 4)[:, None]
        law = FiniteLaw(y, z, x, probs)
        coefs = rng.uniform(-1, 1, 3)
        gap = ortho_complement_identity_gap(
            lambda zz, xx: coefs[0] + coefs[1] * zz[0] + coefs[2] * xx[0], law)
        assert gap <= 1e-12


@given(
    st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12),
    st.lists(st.floats(-2, 2), min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_ortho_identity_holds_on_generated_laws(raw_probs, coefs):
    probs = np.asarray(raw_probs)
    probs = probs / probs.sum()
    y = np.tile([0, 1], 6)
    z = np.repeat(np.tile([0.0, 1.0], 3), 2)[:, None]
    x = np.repeat([-1.0, 0.0, 1.0], 4)[:, None]
    law = FiniteLaw(y, z, x, probs)
    gap = ortho_complement_identity_gap(
        lambda zz, xx: coefs[0] + coefs[1] * zz[0] + coefs[2] * xx[0], law)
    assert gap <= 1e-12


def test_ortho_identity_rejects_degenerate_conditioning():
    # one x value has no y=0 mass at all
    law = FiniteLaw(
        y=np.array([0, 1, 1, 1]),
        z=np.array([[0.0], [0.0], [0.0], [1.0]]),
        x=np.array([[0.0], [0.0], [1.0], [1.0]]),
        prob=np.array([0.3, 0.3, 0.2, 0.2]),
    )
    with pytest.raises(ValueError, match="Y=0"):
        ortho_complement_identity_gap(lambda z, x: 1.0, law)


def test_ortho_identity_rejects_unnormalized():
    law = FiniteLaw(
        y=np.array([0, 1]), z=np.array([[0.0], [0.0]]), x=np.array([[0.0], [0.0]]),
        prob=np.array([0.6, 0.6]),
    )
    with pytest.raises(ValueError, match="normalized"):
        ortho_complement_identity_gap(lambda z, x: 1.0, law)


def test_ortho_identity_rejects_degenerate_pi():
    law = FiniteLaw(
        y=np.array([0, 1, 1]),
        z=np.array([[0.0], [0.0], [1.0]]),
        x=np.array([[0.0]] * 3),
        prob=np.array([0.4, 0.3, 0.3]),
    )
    with pytest.raises(ValueError, match="pi"):
        ortho_complement_identity_gap(lambda z, x: 1.0, law)


def test_finite_law_expectation():
    law = FiniteLaw(
        y=np.array([0, 1]), z=np.array([[1.0], [2.0]]), x=np.array([[0.0], [0.0]]),
        prob=np.array([0.25, 0.75]),
    )
    got = law.expectation(lambda y, z, x: y * z)
    assert got[0] == pytest.approx(0.75 * 2.0)
