import hashlib
import json
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from drlogit.model import Basis, BasisTerm, Dataset, EstimationError, expit
from drlogit.nuisance import fit_outcome_mle
from drlogit.simulate import (
    BernoulliComponent,
    GaussianComponent,
    TrueLaw,
    XLawGrid,
    XLawUniform,
    _gaussian_law,
    _run_replication,
    run_scenario,
    sample_binary,
    sample_dataset,
    sample_gaussian_tilted,
    scenario_catalog,
    summary_rows,
    with_size,
    write_dataset_csv,
    write_summary_json,
)

SAMPLER_SHA256 = Path(__file__).resolve().parent / "sampler_sha256.json"
README = Path(__file__).resolve().parent.parent / "README.md"


def _lin():
    return Basis.linear_in(1)


def _single_point_binary_law(beta, e0_logit, f_logit):
    return TrueLaw(
        beta_star=(beta,),
        x_law=XLawGrid(points=((0.0,),), probs=(1.0,)),
        g_basis=Basis((BasisTerm("intercept"),)),
        g_coef=(e0_logit,),
        components=(BernoulliComponent(Basis((BasisTerm("intercept"),)), (f_logit,)),),
    )


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def test_binary_sampler_deterministic():
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    a = sample_binary(sc.law, 500, 123)
    b = sample_binary(sc.law, 500, 123)
    assert a.y.tobytes() == b.y.tobytes()
    assert a.z.tobytes() == b.z.tobytes()
    assert a.x.tobytes() == b.x.tobytes()
    c = sample_binary(sc.law, 500, 124)
    assert a.y.tobytes() != c.y.tobytes() or a.z.tobytes() != c.z.tobytes()


def test_binary_sampler_exact_cells():
    """beta* = log 2, e0 = f0 = 1/2: cells proportional to (1,1,1,2), so
    P(Y=1, Z=1) = 0.4."""
    law = _single_point_binary_law(math.log(2.0), 0.0, 0.0)
    n = 200_000
    ds = sample_binary(law, n, 7)
    freq = float(np.mean((ds.y == 1) & (ds.z[:, 0] == 1.0)))
    se = math.sqrt(0.4 * 0.6 / n)
    assert abs(freq - 0.4) <= 3 * se


def test_binary_sampler_independence_at_beta_zero():
    law = _single_point_binary_law(0.0, 0.4, -0.3)
    ds = sample_binary(law, 1_000_000, 99)
    y, z = ds.y, ds.z[:, 0]
    n11 = np.sum((y == 1) & (z == 1)) ; n10 = np.sum((y == 1) & (z == 0))
    n01 = np.sum((y == 0) & (z == 1)) ; n00 = np.sum((y == 0) & (z == 0))
    odds_ratio = (n11 * n00) / (n10 * n01)
    assert 0.98 <= odds_ratio <= 1.02


def test_gaussian_sampler_tilt_probability():
    """m=0, s2=1, beta*=1, g*=0: P(Y=1) = e^{1/2} / (1 + e^{1/2})."""
    law = TrueLaw(
        beta_star=(1.0,),
        x_law=XLawGrid(points=((0.0,),), probs=(1.0,)),
        g_basis=Basis((BasisTerm("intercept"),)),
        g_coef=(0.0,),
        components=(GaussianComponent(Basis((BasisTerm("intercept"),)), (0.0,), 1.0),),
    )
    n = 1_000_000
    ds = sample_gaussian_tilted(law, n, 5)
    want = math.exp(0.5) / (1.0 + math.exp(0.5))
    se = math.sqrt(want * (1 - want) / n)
    assert abs(ds.y.mean() - want) <= 3 * se
    # conditional moments: Z | Y=0 ~ N(0, 1), Z | Y=1 ~ N(1, 1)
    z0, z1 = ds.z[ds.y == 0, 0], ds.z[ds.y == 1, 0]
    assert abs(z0.mean()) <= 4 / math.sqrt(z0.size)
    assert abs(z1.mean() - 1.0) <= 4 / math.sqrt(z1.size)
    assert abs(z0.var() - 1.0) <= 4 * math.sqrt(2.0 / z0.size)


def test_gaussian_sampler_beta_zero_moments():
    sc = next(s for s in scenario_catalog() if s.name == "S1b0-gaussian")
    ds = sample_gaussian_tilted(sc.law, 1_000_000, 11)
    comp = sc.law.components[0]
    m = comp.mean(ds.x)
    resid = ds.z[:, 0] - m
    assert abs(resid.mean()) <= 3 / math.sqrt(ds.n)
    assert abs(resid.var() - comp.sigma2) <= 4 * comp.sigma2 * math.sqrt(2.0 / ds.n)
    # P(Y=1 | X) = expit(g*(X)): compare within bins of x
    p1 = expit(sc.law.g_star(ds.x))
    assert abs(ds.y.mean() - p1.mean()) <= 3 * math.sqrt(0.25 / ds.n)


def test_gaussian_sampler_recovers_logistic_model():
    """Fitting the partially linear logistic MLE on a saturated-in-X
    basis recovers beta* on a large draw: the factorization really does
    generate P(Y=1|Z,X) = expit(beta* z + g(X))."""
    law = TrueLaw(
        beta_star=(0.8,),
        x_law=XLawGrid(points=((-1.0,), (0.0,), (1.0,)), probs=(0.3, 0.4, 0.3)),
        g_basis=Basis.linear_in(1),
        g_coef=(0.2, 0.5),
        components=(GaussianComponent(_lin(), (0.1, 0.6), 0.9),),
    )
    ds = sample_gaussian_tilted(law, 1_000_000, 31)
    saturated = Basis.linear_in(1).plus(BasisTerm("square", 0))
    fit = fit_outcome_mle(ds, saturated)
    cov = fit.s1.T @ fit.s1 / ds.n**2
    se = math.sqrt(cov[0, 0])
    assert abs(fit.params.beta[0] - 0.8) <= 3 * se


def test_gaussian_sampler_heteroscedastic_mean_exact():
    """With a log-linear variance the conditional mean of Z given Y=0, X
    stays exactly the declared mean function."""
    law = TrueLaw(
        beta_star=(0.5,),
        x_law=XLawGrid(points=((-1.0,), (1.0,)), probs=(0.5, 0.5)),
        g_basis=_lin(),
        g_coef=(0.3, 0.4),
        components=(GaussianComponent(_lin(), (0.1, 1.0), 1.0,
                                      log_var_basis=_lin(), log_var_coef=(0.0, 1.5)),),
    )
    ds = sample_gaussian_tilted(law, 400_000, 17)
    comp = law.components[0]
    for xv in (-1.0, 1.0):
        sel = (ds.x[:, 0] == xv) & (ds.y == 0)
        want = 0.1 + 1.0 * xv
        sd = math.sqrt(math.exp(1.5 * xv))
        assert abs(ds.z[sel, 0].mean() - want) <= 4 * sd / math.sqrt(sel.sum())


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_tilt_normalizer_matches_numerical_integration(rng):
    """c(X) and P(Y=1|X) from the closed form match direct integration of
    the unnormalized joint density over z."""
    for _ in range(20):
        beta = rng.uniform(-1.2, 1.2)
        m = rng.uniform(-1.5, 1.5)
        s2 = rng.uniform(0.3, 2.0)
        g = rng.uniform(-1.5, 1.5)
        e0 = expit(g)
        c_closed = (1 - e0) + e0 * math.exp(beta * m + 0.5 * beta**2 * s2)
        p1_closed = e0 * math.exp(beta * m + 0.5 * beta**2 * s2) / c_closed

        def dens(z, y):
            phi = math.exp(-(z - m) ** 2 / (2 * s2)) / math.sqrt(2 * math.pi * s2)
            return math.exp(beta * z * y) * phi * (e0 if y == 1 else 1 - e0)

        c_num = sum(integrate.quad(dens, -40, 40, args=(y,), limit=200)[0] for y in (0, 1))
        p1_num = integrate.quad(dens, -40, 40, args=(1,), limit=200)[0] / c_num
        assert c_num == pytest.approx(c_closed, rel=1e-8)
        assert p1_num == pytest.approx(p1_closed, rel=1e-8)


def test_tilt_overflow_guard():
    law = TrueLaw(
        beta_star=(30.0,),
        x_law=XLawGrid(points=((0.0,),), probs=(1.0,)),
        g_basis=Basis((BasisTerm("intercept"),)),
        g_coef=(0.0,),
        components=(GaussianComponent(Basis((BasisTerm("intercept"),)), (30.0,), 1.0),),
    )
    with pytest.raises(ValueError, match="tilt"):
        sample_gaussian_tilted(law, 10, 0)


def test_sample_dataset_dispatch():
    cat = {s.name: s for s in scenario_catalog()}
    assert sample_dataset(cat["S1-binary"].law, 50, 1).p == 1
    assert sample_dataset(cat["S1-gaussian"].law, 50, 1).p == 1
    with pytest.raises(ValueError, match="Bernoulli"):
        sample_binary(cat["S1-gaussian"].law, 50, 1)


def _uniform_x_binary_law():
    return TrueLaw(beta_star=(0.5,), x_law=XLawUniform((-1.5,), (1.5,)), g_basis=_lin(),
                   g_coef=(0.2, 0.6), components=(BernoulliComponent(_lin(), (-0.2, 0.9)),))


def test_sampler_bytes_pinned(tmp_path):
    """write_dataset_csv of every catalog scenario, and of a binary law on a
    uniform X, at n in {7, 600, 2000} and seeds {1, 7, 123} has the sha256
    recorded when the binary sampler built its cell table per row and every
    sample passed through Dataset's checks: same draws, same bits."""
    laws = [(sc.name, sc.law) for sc in scenario_catalog()]
    laws.append(("uniform-x-binary", _uniform_x_binary_law()))
    path, got = tmp_path / "data.csv", {}
    for name, law in laws:
        for n in (7, 600, 2000):
            for seed in (1, 7, 123):
                write_dataset_csv(path, sample_dataset(law, n, seed))
                got[f"{name}/{n}/{seed}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == json.loads(SAMPLER_SHA256.read_text())


@pytest.mark.parametrize("name", ["S1-binary", "S2-gaussian"])
def test_sampler_output_is_what_dataset_checks_accept(name):
    """The samplers skip Dataset's checks; their arrays are those the checks
    would give: int64 y in {0, 1}, finite 2-d float z and x of n rows."""
    ds = sample_dataset(next(s.law for s in scenario_catalog() if s.name == name), 300, 5)
    checked = Dataset(ds.y, ds.z, ds.x)
    for got, want in ((ds.y, checked.y), (ds.z, checked.z), (ds.x, checked.x)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _two_point_binary_law(probs):
    """X in {0, 1}; at x = 1, g = 800 makes 1 - e0 and so the Y=0 cells underflow."""
    return TrueLaw(beta_star=(0.5,), x_law=XLawGrid(points=((0.0,), (1.0,)), probs=probs),
                   g_basis=_lin(), g_coef=(0.0, 800.0),
                   components=(BernoulliComponent(_lin(), (0.0, 0.5)),))


def test_binary_underflow_refused_only_at_drawn_points():
    """The cell-underflow refusal fires when the underflowing support point
    is drawn, and not when it has probability 0 and is never drawn."""
    with pytest.raises(ValueError, match="underflow"):
        sample_binary(_two_point_binary_law((0.5, 0.5)), 50, 3)
    ds = sample_binary(_two_point_binary_law((1.0, 0.0)), 50, 3)
    assert ds.n == 50 and (ds.x == 0.0).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_log_variance_refused_before_any_warning():
    """A log-linear variance beyond the float range is refused with a
    ValueError before exp overflows; it used to reach the sample as NaN."""
    law = _gaussian_law(0.0, (0.3, 0.4), (0.1, 1.0), log_var_coef=(800.0, 0.0))
    with pytest.raises(ValueError, match="variance overflows"):
        sample_gaussian_tilted(law, 50, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_laws_refused():
    """A NaN mean coefficient fails the tilt check and a non-finite grid point
    is refused on construction, so no sample carries a non-finite value."""
    with pytest.raises(ValueError, match="tilt"):
        sample_gaussian_tilted(_gaussian_law(0.5, (0.2, 0.6), (math.nan, 0.7)), 50, 1)
    with pytest.raises(ValueError, match="finite"):
        XLawGrid(points=((0.0,), (math.inf,)), probs=(0.5, 0.5))


@pytest.mark.parametrize("probs, match", [
    ((0.5, 0.4, 0.3), "probs must sum to 1, got a sum of 1.2"),
    ((0.5, 0.5 - 1e-7, 0.0), "probs must sum to 1"),
    ((0.6, -0.1, 0.5), "probs must be finite and nonnegative"),
    ((0.5, math.nan, 0.5), "probs must be finite and nonnegative"),
    ((0.5, math.inf, 0.5), "probs must be finite and nonnegative"),
], ids=["sum-1.2", "sum-short", "negative", "nan", "inf"])
def test_x_grid_refuses_bad_probs(probs, match):
    """A grid whose probs numpy's Generator.choice would refuse on every
    draw is refused on construction, naming probs; a sum off 1 by less
    than sqrt(eps), which choice accepts, is accepted."""
    points = ((-1.0,), (0.0,), (1.0,))
    with pytest.raises(ValueError, match=match):
        XLawGrid(points=points, probs=probs)
    grid = XLawGrid(points=points, probs=(0.3, 0.4, 0.3 + 1e-9))
    assert set(grid.draw(50, np.random.default_rng(0))[:, 0]) <= {-1.0, 0.0, 1.0}


# ---------------------------------------------------------------------------
# Scenarios and the runner
# ---------------------------------------------------------------------------


def test_catalog_stable_and_flagged():
    a = scenario_catalog()
    b = scenario_catalog()
    assert a == b
    names = [s.name for s in a]
    assert "S1-binary" in names and "S4-gaussian" in names and "S1b0-gaussian" in names
    s1 = next(s for s in a if s.family == "S1")
    assert s1.g_correct and s1.f_correct
    s3g = next(s for s in a if s.name == "S3-gaussian")
    assert s3g.g_correct and not s3g.f_correct
    assert pickle.loads(pickle.dumps(s1)) == s1


def test_catalog_flags_match_the_readme_table():
    """The derived correctness flags of all 12 catalog scenarios are the
    outcome-model and covariate-model columns of the README's catalog table."""
    table = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1] in ("correct", "misspecified"):
            table[cells[0]] = (cells[1] == "correct", cells[2] == "correct")
    catalog = scenario_catalog()
    assert len(catalog) == 12 and sorted(table) == sorted({sc.family for sc in catalog})
    for sc in catalog:
        assert (sc.g_correct, sc.f_correct) == table[sc.family], sc.name


def test_run_scenario_summary_identities():
    sc = with_size(next(s for s in scenario_catalog() if s.name == "S1-binary"),
                   n=500, replications=40)
    summary = run_scenario(sc, ("mle", "dr_simple"))
    for e in summary.estimators:
        assert e.rmse**2 == pytest.approx(e.bias**2 + e.sd**2, abs=1e-10)
        assert 0.0 <= e.coverage <= 1.0
        assert e.n_ok + e.n_fail == sc.replications
        assert e.mcse == pytest.approx(e.sd / math.sqrt(e.n_ok))


def test_run_scenario_worker_count_invariance(tmp_path):
    sc = with_size(next(s for s in scenario_catalog() if s.name == "S1-gaussian"),
                   n=400, replications=24)
    s1 = run_scenario(sc, ("mle", "dr_simple"), workers=1)
    s2 = run_scenario(sc, ("mle", "dr_simple"), workers=2)
    assert s1 == s2
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_summary_json([s1], p1)
    write_summary_json([s2], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_scenario_aborts_on_mass_failure():
    """n too small for the basis makes most replications fail to fit."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    tiny = with_size(sc, n=6, replications=15)
    with pytest.raises(EstimationError, match="failed"):
        run_scenario(tiny, ("dr_simple",))


def test_run_scenario_rejects_unknown_estimator():
    sc = with_size(next(s for s in scenario_catalog() if s.name == "S1-binary"),
                   n=100, replications=2)
    with pytest.raises(ValueError, match="unknown estimator"):
        run_scenario(sc, ("dr_banana",))


def test_summary_rows_schema():
    sc = with_size(next(s for s in scenario_catalog() if s.name == "S1-binary"),
                   n=400, replications=10)
    summary = run_scenario(sc, ("mle",))
    rows = summary_rows(summary)
    assert set(rows[0]) == {"scenario", "estimator", "bias", "sd", "mean_se",
                            "rmse", "coverage", "mcse", "n_fail"}


def test_closed_form_estimator_in_menu():
    sc = with_size(next(s for s in scenario_catalog() if s.name == "S1-binary"),
                   n=600, replications=12)
    summary = run_scenario(sc, ("closed_form", "dr_simple"))
    cf = summary.by_name("closed_form")
    ds = summary.by_name("dr_simple")
    assert cf.bias == pytest.approx(ds.bias, abs=1e-7)


@pytest.mark.parametrize("rep", [9, 11, 24])
def test_replication_leaks_no_numpy_warning(rep):
    """In these S2-gaussian replications the Y=1 beta solves try step-halving
    candidates whose exp overflows; the Newton solve counts them as no
    improvement, so no RuntimeWarning may escape and the result is the same."""
    sc = with_size(next(s for s in scenario_catalog() if s.name == "S2-gaussian"),
                   n=600, seed=3032)
    menu = ("dr_y1_identity", "dr_y1_simple", "dr_y1_optimal")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = _run_replication(sc, rep, menu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_replication(sc, rep, menu) == want
