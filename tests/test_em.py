"""Fitting: EM/ECM drivers, initialization, and dof estimation.

Closed-form one-group estimators (sample moments + OLS) and a scipy
profile-likelihood grid serve as independent oracles.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from helpers import random_model, random_points
from cwmix.datagen import builtin_scenario, generate
from cwmix.densities import GaussianParams, StudentParams, mahalanobis_sq
from cwmix.em import (
    DegenerateFitError,
    FitConfig,
    _fit_gating,
    _latent_weights,
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
    ],
)
def test_fit_config_validation(kwargs):
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


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
