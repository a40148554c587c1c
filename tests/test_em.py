"""Fitting: EM/ECM drivers, initialization, and dof estimation.

Closed-form one-group estimators (sample moments + OLS) and a scipy
profile-likelihood grid serve as independent oracles.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from helpers import random_model, random_points
from cwmix import densities, em
from cwmix.datagen import builtin_scenario, generate
from cwmix.densities import GaussianParams, StudentParams, mahalanobis_sq
from cwmix.em import (
    DegenerateFitError,
    FitConfig,
    _DegenerateStart,
    _fit_gating,
    _latent_weights,
    _regularize_cov,
    _solve_dof,
    estimate_dof,
    fit,
    initialize,
)
from cwmix.model import VARIANTS, Dataset, Gating, classify, fmg_to_cwm

mp.dps = 50


def make_example1(rng, n1=100, n2=200):
    # two well-separated lines: y = 2 + 6x around x ~ N(10, 4) and
    # y = 4 - 6x around x ~ N(-10, 4), both with noise sd 2
    x1 = rng.normal(10.0, 2.0, size=n1)
    y1 = 2.0 + 6.0 * x1 + rng.normal(0.0, 2.0, size=n1)
    x2 = rng.normal(-10.0, 2.0, size=n2)
    y2 = 4.0 - 6.0 * x2 + rng.normal(0.0, 2.0, size=n2)
    return Dataset(
        np.concatenate([x1, x2])[:, None],
        np.concatenate([y1, y2]),
        np.array([1] * n1 + [2] * n2),
    )


def two_group_error(truth, pred):
    direct = int(np.sum(truth != pred))
    swapped = int(np.sum(truth != (3 - pred)))
    return min(direct, swapped) / len(truth)


# ------------------------------------------------------------------ FitConfig

def test_fit_config_defaults():
    cfg = FitConfig(G=2)
    assert cfg.max_iter == 500
    assert cfg.rel_tol == 1e-8
    assert cfg.n_starts == 10
    assert cfg.init == "kmeans"
    assert cfg.dof_mode == "estimate"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(G=0),
        dict(G=2, variant="nope"),
        dict(G=2, max_iter=0),
        dict(G=2, rel_tol=0.0),
        dict(G=2, n_starts=0),
        dict(G=2, init="mystery"),
        dict(G=2, dof_mode=-3.0),
        dict(G=2, dof_mode=True),
        dict(G=2, dof_mode=float("inf")),
    ],
)
def test_fit_config_validation(kwargs):
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


@pytest.mark.parametrize("dof", (np.int64(5), np.float64(5.0)))
def test_fit_config_accepts_numpy_dof(dof):
    r = np.random.default_rng(3)
    x = r.normal(size=40)
    y = 2.0 * x + r.normal(size=40)
    cfg = FitConfig(G=1, variant="t_cwm", dof_mode=dof, n_starts=1, max_iter=3)
    comp = fit(Dataset(x, y), cfg).model.components[0]
    assert comp.x_marginal.dof == comp.y_conditional.dof == 5.0


# ----------------------------------------------------------------- initialize

def test_initialize_given_labels_partition():
    labels = np.array([1, 2, 1, 2, 2, 1])
    data = Dataset(np.arange(6.0)[:, None], np.zeros(6), labels)
    resp = initialize(data, FitConfig(G=2, init="given_labels"), np.random.default_rng(0))
    assert resp.shape == (6, 2)
    assert np.array_equal(resp.argmax(axis=1) + 1, labels)
    assert np.all((resp == 0) | (resp == 1)) and np.all(resp.sum(axis=1) == 1)


def test_initialize_given_labels_requires_valid_labels():
    data = Dataset(np.arange(4.0)[:, None], np.zeros(4))
    with pytest.raises(ValueError):
        initialize(data, FitConfig(G=2, init="given_labels"), np.random.default_rng(0))
    noisy = Dataset(np.arange(4.0)[:, None], np.zeros(4), np.array([1, 0, 2, 1]))
    with pytest.raises(ValueError):
        initialize(noisy, FitConfig(G=2, init="given_labels"), np.random.default_rng(0))


def test_initialize_random_partition_deterministic_and_full():
    data = Dataset(np.arange(7.0)[:, None], np.zeros(7))
    cfg = FitConfig(G=5, init="random_partition")
    a = initialize(data, cfg, np.random.default_rng(99))
    b = initialize(data, cfg, np.random.default_rng(99))
    assert np.array_equal(a, b)
    # every group occupied even when N barely exceeds G
    assert np.all(a.sum(axis=0) >= 1)


def test_initialize_kmeans_separated_blobs():
    r = np.random.default_rng(5)
    a = r.normal(size=(40, 3), scale=0.5)
    b = np.array([10.0, 10.0, 10.0]) + r.normal(size=(40, 3), scale=0.5)
    z = np.vstack([a, b])
    data = Dataset(z[:, :2], z[:, 2])
    resp = initialize(data, FitConfig(G=2, init="kmeans"), np.random.default_rng(3))
    assign = resp.argmax(axis=1)
    truth = np.array([0] * 40 + [1] * 40)
    direct = int(np.sum(assign != truth))
    assert min(direct, 80 - direct) == 0
    # brute-force nearest-center check on the implied partition
    centers = np.stack([z[assign == g].mean(axis=0) for g in range(2)])
    dist = ((z[:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert np.array_equal(assign, dist.argmin(axis=1))


# --------------------------------------------------------------- estimate_dof

def test_estimate_dof_gaussian_limit_hits_upper_bracket():
    # weights identically 1 give the Gaussian-consistent statistic -1
    with pytest.warns(RuntimeWarning):
        assert estimate_dof(-1.0) == 200.0


def test_estimate_dof_known_root():
    # statistic chosen so the root sits exactly at dof 7
    stat = float(mp.digamma(mp.mpf(7) / 2) - mp.log(mp.mpf(7) / 2) - 1)
    assert estimate_dof(stat) == pytest.approx(7.0, abs=1e-6)


def test_estimate_dof_lower_boundary_flagged():
    with pytest.warns(RuntimeWarning):
        assert estimate_dof(-50.0) == 0.5


def test_estimate_dof_invalid_statistic():
    with pytest.raises(ValueError):
        estimate_dof(float("nan"))


DOF_ROOTS = (0.6, 1.0, 2.5, 7.0, 20.0, 60.0, 120.0, 190.0)


def dof_stat(root):
    """The statistic whose exact dof root is ``root``."""
    half = mp.mpf(root) / 2
    return float(mp.digamma(half) - mp.log(half) - 1)


@pytest.mark.parametrize("root", DOF_ROOTS)
def test_estimate_dof_matches_mpmath_root(root):
    stat = dof_stat(root)

    def f(nu):
        return -mp.digamma(nu / 2) + mp.log(nu / 2) + 1 + mp.mpf(stat)

    want = float(mp.findroot(f, (mp.mpf("0.5"), mp.mpf(200)), solver="anderson"))
    assert estimate_dof(stat) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("root", DOF_ROOTS)
def test_estimate_dof_same_root_from_any_start(root):
    stat = dof_stat(root)
    want = estimate_dof(stat)
    for start in (0.5, 200.0, 0.5 * (0.5 + root), 0.5 * (root + 200.0)):
        assert estimate_dof(stat, start=start) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("root", DOF_ROOTS)
def test_solve_dof_warm_start_needs_few_digammas(monkeypatch, root):
    # an ECM iteration moves a dof a little; from 10 % off, the whole solve
    # (statistic correction, both edge checks, Newton steps) stays cheap
    digamma = em.digamma
    calls = []
    monkeypatch.setattr(em, "digamma", lambda x: calls.append(x) or digamma(x))
    for old in (0.9 * root, min(1.1 * root, 200.0)):
        half = (old + 1.0) / 2.0
        stat = dof_stat(root) - (digamma(half) - math.log(half))
        calls.clear()
        assert _solve_dof(old, 1, stat) == pytest.approx(root, abs=1e-9)
        assert len(calls) <= 12


# ------------------------------------------------------------ x-law update

def test_regularize_cov_factors_each_covariance_once(monkeypatch):
    cholesky = densities.cholesky_lower
    calls = []
    monkeypatch.setattr(densities, "cholesky_lower", lambda a: calls.append(a) or cholesky(a))
    center = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    law, ridged = _regularize_cov(center, cov)
    assert isinstance(law, GaussianParams) and not ridged and len(calls) == 1
    np.testing.assert_array_equal(law.cov, cov)
    law, ridged = _regularize_cov(center, cov, 4.0)
    assert isinstance(law, StudentParams) and law.dof == 4.0 and not ridged
    calls.clear()
    # rank one: the first factorization fails, the ridged one succeeds
    law, ridged = _regularize_cov(center, np.ones((2, 2)))
    assert ridged and len(calls) == 2
    np.testing.assert_array_equal(law.cov, np.ones((2, 2)) + 1e-8 * np.eye(2))
    with pytest.raises(_DegenerateStart):
        _regularize_cov(center, np.zeros((2, 2)))


# ------------------------------------------------------------------------ fit

def test_fit_one_group_matches_closed_form():
    r = np.random.default_rng(77)
    n = 400
    x = r.normal(size=(n, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]]) + np.array([1.0, -2.0])
    y = 0.5 + x @ np.array([2.0, -1.0]) + r.normal(scale=1.5, size=n)
    data = Dataset(x, y)
    res = fit(data, FitConfig(G=1, variant="gaussian_cwm", n_starts=1, init="random_partition"))
    comp = res.model.components[0]
    mu = x.mean(axis=0)
    cov = (x - mu).T @ (x - mu) / n
    design = np.column_stack([x, np.ones(n)])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    assert np.max(np.abs(comp.x_marginal.mean - mu)) < 1e-8
    assert np.max(np.abs(comp.x_marginal.cov - cov)) < 1e-8
    assert np.max(np.abs(comp.y_conditional.map.slope - beta[:2])) < 1e-8
    assert abs(comp.y_conditional.map.intercept - beta[2]) < 1e-8
    assert abs(comp.y_conditional.noise_scale**2 - resid @ resid / n) < 1e-8
    assert res.converged


def test_fit_one_group_recovers_truth_within_3se():
    r = np.random.default_rng(123)
    n = 10_000
    x = r.normal(1.0, 2.0, size=(n, 1))
    y = 1.0 + 2.0 * x[:, 0] + r.normal(0.0, 1.5, size=n)
    comp = fit(
        Dataset(x, y), FitConfig(G=1, variant="gaussian_cwm", n_starts=1, init="random_partition")
    ).model.components[0]
    rt = math.sqrt(n)
    assert abs(comp.x_marginal.mean[0] - 1.0) < 3 * 2.0 / rt
    assert abs(comp.x_marginal.cov[0, 0] - 4.0) < 3 * 4.0 * math.sqrt(2.0) / rt
    assert abs(comp.y_conditional.map.slope[0] - 2.0) < 3 * 1.5 / (2.0 * rt)
    assert abs(comp.y_conditional.map.intercept - 1.0) < 3 * 1.5 * math.sqrt(1.25) / rt
    assert abs(comp.y_conditional.noise_scale**2 - 2.25) < 3 * 2.25 * math.sqrt(2.0) / rt


def test_fit_fmg_one_group_closed_form():
    r = np.random.default_rng(15)
    n = 500
    x = r.normal(size=(n, 1), scale=2) + 1.0
    y = -1.0 + 0.7 * x[:, 0] + r.normal(scale=0.9, size=n)
    data = Dataset(x, y)
    res = fit(data, FitConfig(G=1, variant="fmg", n_starts=1, init="random_partition"))
    z = np.column_stack([x, y])
    m = z.mean(axis=0)
    cov = (z - m).T @ (z - m) / n
    want = fmg_to_cwm(GaussianParams(m, cov), 1.0)
    got = res.model.components[0]
    assert np.max(np.abs(got.x_marginal.mean - want.x_marginal.mean)) < 1e-8
    assert np.max(np.abs(got.x_marginal.cov - want.x_marginal.cov)) < 1e-8
    assert np.max(np.abs(got.y_conditional.map.slope - want.y_conditional.map.slope)) < 1e-8
    assert abs(got.y_conditional.map.intercept - want.y_conditional.map.intercept) < 1e-8
    assert abs(got.y_conditional.noise_scale - want.y_conditional.noise_scale) < 1e-8


def test_fit_example1_classification_is_perfect():
    r = np.random.default_rng(101)
    data = make_example1(r)
    res = fit(data, FitConfig(G=2, variant="gaussian_cwm", n_starts=5, seed=7))
    assert two_group_error(data.labels, classify(res.model, data)) == 0.0


def test_fit_given_labels_stays_near_truth():
    r = np.random.default_rng(31)
    data = make_example1(r)
    res = fit(data, FitConfig(G=2, variant="gaussian_cwm", init="given_labels"))
    mus = sorted(float(c.x_marginal.mean[0]) for c in res.model.components)
    assert abs(mus[0] + 10.0) < 1.0 and abs(mus[1] - 10.0) < 1.0
    slopes = sorted(float(c.y_conditional.map.slope[0]) for c in res.model.components)
    assert abs(slopes[0] + 6.0) < 0.5 and abs(slopes[1] - 6.0) < 0.5
    assert res.converged and res.start_index == 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_trace_monotone_rows_normalized(variant):
    r = np.random.default_rng(VARIANTS.index(variant))
    n = 80
    x = r.normal(size=(n, 2), scale=2)
    y = x @ np.array([1.0, -0.5]) + r.normal(size=n, scale=3)
    data = Dataset(x, y)
    res = fit(
        data,
        FitConfig(G=2, variant=variant, n_starts=2, max_iter=150, seed=3, init="random_partition"),
    )
    assert np.all(np.diff(res.loglik_trace) >= -1e-8)
    assert np.max(np.abs(res.responsibilities.sum(axis=1) - 1.0)) < 1e-10
    assert res.n_iter == len(res.loglik_trace)
    assert res.responsibilities.shape == (n, 2)


@pytest.mark.parametrize("name", ("ex4_s2", "ex6_s2"))
def test_fit_fmg_is_gaussian_cwm(name):
    # a joint Gaussian is a Gaussian CWM component, and both take one update
    spec = builtin_scenario(name).with_seed(1)
    data = generate(spec)
    cwm = fit(data, FitConfig(G=len(spec.groups), variant="gaussian_cwm", seed=1))
    fmg = fit(data, FitConfig(G=len(spec.groups), variant="fmg", seed=1))
    np.testing.assert_array_equal(fmg.loglik_trace, cwm.loglik_trace)
    np.testing.assert_array_equal(fmg.responsibilities, cwm.responsibilities)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_exact_line_is_degenerate(variant):
    # every point on y = 2x + 1: a zero noise variance is a likelihood spike
    x = np.random.default_rng(0).normal(size=60)
    with pytest.raises(DegenerateFitError, match="collapsed noise variance"):
        fit(Dataset(x, 2.0 * x + 1.0), FitConfig(G=1, variant=variant, n_starts=1))


#: One k-means start (seed 1), 100 ECM iterations on builtin designs drawn
#: with seed 1: final loglik, iteration count, and (x dof, y dof) per
#: component.  Recorded with the bisection dof solve and the E-step that
#: whitened x in each density call; the Newton solve and the shared
#: distances must reproduce them.
T_FIT_PINS = {
    ("ex4_s2", "t_cwm"): (-2236.972600074528, 100, [
        (3.383025863450598, 0.8076964483803977),
        (12.400177567237847, 27.765519002581982),
        (3.5221093375354258, 0.6954324128354301)]),
    ("ex4_s2", "fmt"): (-2266.6492965584857, 100, [
        (1.0836946069936175, 2.0836946069936175),
        (25.454006157731214, 26.454006157731214),
        (0.9093569894351958, 1.9093569894351958)]),
    ("ex6_s2", "t_cwm"): (-3134.1820571145313, 100, [
        (1.079413543936539, 0.5976229973790623),
        (51.96256317235827, 11.915076929005522)]),
    ("ex6_s2", "fmt"): (-3072.1185784263707, 100, [
        (0.8815772897102079, 2.881577289710208),
        (41.885659960545695, 43.885659960545695)]),
}


@pytest.mark.parametrize("name, variant", sorted(T_FIT_PINS))
def test_fit_t_variants_reproduce_pinned_fits(name, variant):
    loglik, n_iter, dofs = T_FIT_PINS[name, variant]
    spec = builtin_scenario(name).with_seed(1)
    res = fit(generate(spec), FitConfig(G=len(spec.groups), variant=variant, seed=1,
                                        n_starts=1, max_iter=100))
    assert res.loglik_trace[-1] == pytest.approx(loglik, rel=1e-9)
    assert res.n_iter == n_iter
    got = [(c.x_marginal.dof, c.y_conditional.dof) for c in res.model.components]
    np.testing.assert_allclose(got, dofs, rtol=0, atol=1e-8)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_fmt_latent_weight_is_joint_t_weight(d):
    r = np.random.default_rng(d)
    model = random_model(r, "fmt", 3, d)
    x, y = random_points(r, 40, d)
    z = np.column_stack([x, y])
    u = _latent_weights(model, x, y)
    for g, comp in enumerate(model.components):
        marg, cond = comp.x_marginal, comp.y_conditional
        # the (d+1)-variate t whose x-marginal and y|x conditional these are
        slope = cond.map.slope
        sxy = marg.scale @ slope
        scale = np.block([
            [marg.scale, sxy[:, None]],
            [sxy[None, :], np.array([[cond.noise_scale**2 + slope @ sxy]])],
        ])
        joint = StudentParams(np.append(marg.location, cond.map(marg.location)), scale, marg.dof)
        want = (marg.dof + d + 1.0) / (marg.dof + mahalanobis_sq(z, joint))
        np.testing.assert_allclose(u.x[:, g], want, rtol=1e-10)
        np.testing.assert_array_equal(u.y[:, g], u.x[:, g])


def test_fit_t_one_group_dof_recovery():
    r = np.random.default_rng(55)
    n = 10_000
    x = 1.0 + 2.0 * r.standard_t(5, size=n)
    y = 1.0 + 2.0 * x + 0.5 * r.standard_t(5, size=n)
    data = Dataset(x[:, None], y)
    res = fit(
        data, FitConfig(G=1, variant="t_cwm", n_starts=1, init="random_partition", max_iter=300)
    )
    nu = res.model.components[0].x_marginal.dof
    zeta = res.model.components[0].y_conditional.dof
    assert 3.5 <= nu <= 7.0
    assert 3.5 <= zeta <= 7.0
    # independent oracle: profile likelihood of the x margin on a dof grid
    from scipy import stats

    grid = np.arange(3.0, 8.01, 0.5)
    lls = []
    for v in grid:
        df, loc, scale = stats.t.fit(x, f0=v)
        lls.append(float(stats.t.logpdf(x, df, loc, scale).sum()))
    assert abs(nu - grid[int(np.argmax(lls))]) <= 1.0


def test_fit_fmt_one_group_joint_t():
    r = np.random.default_rng(66)
    n = 6000
    chol = np.array([[2.0, 0.0], [1.0, 1.0]])
    gauss = r.normal(size=(n, 2))
    u = r.chisquare(5, size=n) / 5.0
    z = np.array([0.5, -1.0]) + (gauss @ chol.T) / np.sqrt(u)[:, None]
    data = Dataset(z[:, :1], z[:, 1])
    res = fit(
        data, FitConfig(G=1, variant="fmt", n_starts=1, init="random_partition", max_iter=300)
    )
    comp = res.model.components[0]
    nu = comp.x_marginal.dof
    assert 3.5 <= nu <= 8.0
    assert comp.y_conditional.dof == pytest.approx(nu + 1.0)
    assert abs(comp.x_marginal.scale[0, 0] - 4.0) < 0.6


def test_fit_fmrc_recovers_gated_structure():
    r = np.random.default_rng(88)
    n = 500
    x = r.normal(0.0, 2.0, size=n)
    grp = (r.uniform(size=n) < 1.0 / (1.0 + np.exp(-3.0 * x))).astype(int) + 1
    y = np.where(grp == 1, 5.0 + 2.0 * x, -5.0 - 2.0 * x) + r.normal(0.0, 0.5, size=n)
    data = Dataset(x[:, None], y, grp)
    res = fit(data, FitConfig(G=2, variant="fmrc", n_starts=4, seed=11))
    assert two_group_error(grp, classify(res.model, data)) <= 0.05
    assert np.all(np.diff(res.loglik_trace) >= -1e-8)


# --------------------------------------------------------------- fmrc gating

def gating_problem(seed, n=300, d=2, G=3):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, d), scale=2)
    resp = r.dirichlet(np.full(G, 0.7), size=n)
    return x, resp


def gating_theta(gating):
    return np.array([np.append(g.w, g.w0) for g in gating[1:]])


def gating_objective_and_grad(x, resp, theta):
    # independent of cwmix: sum(resp * log softmax) and its gradient
    design = np.column_stack([x, np.ones(x.shape[0])])
    logits = np.column_stack([np.zeros(x.shape[0]), design @ theta.T])
    top = logits.max(axis=1, keepdims=True)
    log_gate = logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
    grad = (resp[:, 1:] - np.exp(log_gate[:, 1:])).T @ design
    return float(np.sum(resp * log_gate)), grad


@pytest.mark.parametrize("seed", range(6))
def test_fit_gating_step_never_decreases_objective(seed):
    x, resp = gating_problem(seed)
    r = np.random.default_rng(100 + seed)
    for spread in (0.1, 1.0, 10.0):
        warm = [Gating(np.zeros(2), 0.0)] + [
            Gating(r.normal(size=2, scale=spread), float(r.normal(scale=spread))) for _ in range(2)
        ]
        before, _ = gating_objective_and_grad(x, resp, gating_theta(warm))
        after, _ = gating_objective_and_grad(x, resp, gating_theta(_fit_gating(x, resp, warm)))
        assert after >= before - 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_fit_gating_repeated_steps_reach_full_m_step_optimum(seed):
    from scipy.optimize import minimize

    x, resp = gating_problem(seed)
    gating = [Gating(np.zeros(2), 0.0)] * 3
    for _ in range(50):
        gating = _fit_gating(x, resp, gating)
    theta = gating_theta(gating)
    value, grad = gating_objective_and_grad(x, resp, theta)
    assert np.max(np.abs(grad)) < 1e-8
    assert np.all(gating[0].w == 0.0) and gating[0].w0 == 0.0
    # independent optimizer on the same concave objective finds no better point
    ref = minimize(
        lambda t: -gating_objective_and_grad(x, resp, t.reshape(theta.shape))[0],
        np.zeros(theta.size),
        jac=lambda t: -gating_objective_and_grad(x, resp, t.reshape(theta.shape))[1].ravel(),
        method="BFGS",
        options={"gtol": 1e-10},
    )
    assert value >= -ref.fun - 1e-9


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_fit_fmrc_ex4_s2_trace_non_decreasing(seed):
    data = generate(builtin_scenario("ex4_s2").with_seed(seed))
    res = fit(data, FitConfig(G=3, variant="fmrc", n_starts=1, seed=seed))
    assert res.n_iter > 2
    assert np.all(np.diff(res.loglik_trace) >= -1e-8)


def test_fit_all_starts_degenerate_raises():
    r = np.random.default_rng(2)
    data = Dataset(r.normal(size=(5, 1)), r.normal(size=5))
    with pytest.raises(DegenerateFitError):
        fit(data, FitConfig(G=4, n_starts=3, init="random_partition", seed=1))


def test_fit_relabel_equivariance_given_labels():
    r = np.random.default_rng(4)
    data = make_example1(r, 60, 90)
    swapped = Dataset(data.x, data.y, 3 - data.labels)
    cfg = FitConfig(G=2, variant="gaussian_cwm", init="given_labels")
    a = fit(data, cfg).model
    b = fit(swapped, cfg).model
    for i, j in ((0, 1), (1, 0)):
        assert np.max(np.abs(a.components[i].x_marginal.mean - b.components[j].x_marginal.mean)) < 1e-12
        assert abs(a.components[i].weight - b.components[j].weight) < 1e-12


def test_fit_requires_more_points_than_groups():
    data = Dataset(np.ones((3, 1)), np.ones(3))
    with pytest.raises(ValueError):
        fit(data, FitConfig(G=3))
