import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import random_model, random_points, random_spd
from cwmix.densities import (
    GaussianParams,
    StudentParams,
    gaussian_logpdf,
    mahalanobis_sq,
    student_logpdf,
)
from cwmix.model import (
    NOISE,
    VARIANTS,
    Component,
    Conditional,
    CwmModel,
    Dataset,
    LinearMap,
    _log_component_terms,
    _stack,
    _unstack,
    check_degenerate_conditional,
    check_fmr_reduction,
    classify,
    cwm_to_fmrc_gating,
    fmg_to_cwm,
    joint_logpdf,
    model_from_dict,
    model_to_dict,
    posterior,
    t_conditional_decompose,
)

rng = np.random.default_rng(20240818)


def gaussian_component(weight, mu, sigma, slope, intercept, noise_sd):
    return Component(
        weight,
        GaussianParams(np.atleast_1d(float(mu)), np.atleast_2d(sigma**2)),
        Conditional(LinearMap(np.atleast_1d(float(slope)), float(intercept)), noise_sd),
    )


def example1_model():
    # two well-separated linear-Gaussian groups, weights 1/3 and 2/3
    return CwmModel(
        "gaussian_cwm",
        (
            gaussian_component(1 / 3, 10.0, 2.0, 6.0, 2.0, 2.0),
            gaussian_component(2 / 3, -10.0, 2.0, -6.0, 4.0, 2.0),
        ),
    )


# -------------------------------------------------------------- joint_logpdf

def test_joint_logpdf_single_standard_component():
    m = CwmModel("gaussian_cwm", (gaussian_component(1.0, 0.0, 1.0, 0.0, 0.0, 1.0),))
    assert joint_logpdf(m, np.zeros(1), 0.0) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_joint_logpdf_identical_components_collapse():
    c = gaussian_component(0.5, 1.0, 2.0, 3.0, -1.0, 0.7)
    m2 = CwmModel("gaussian_cwm", (c, c))
    m1 = CwmModel("gaussian_cwm", (gaussian_component(1.0, 1.0, 2.0, 3.0, -1.0, 0.7),))
    for _ in range(5):
        x = rng.normal(size=1, scale=3)
        y = float(rng.normal(scale=5))
        assert joint_logpdf(m2, x, y) == pytest.approx(joint_logpdf(m1, x, y), abs=1e-12)


def test_joint_logpdf_two_group_oracle_value():
    # frozen extended-precision two-term sum at (10, 62)
    got = joint_logpdf(example1_model(), np.array([10.0]), 62.0)
    assert got == pytest.approx(-4.322783716197346, abs=1e-10)


def test_joint_logpdf_batch_matches_scalar():
    m = example1_model()
    x, y = random_points(rng, 8, 1)
    batch = joint_logpdf(m, x, y)
    for i in range(8):
        assert batch[i] == pytest.approx(joint_logpdf(m, x[i], float(y[i])), rel=1e-12)


def test_joint_logpdf_fmr_is_conditional_only():
    slope, intercept, sd = 1.5, 0.5, 0.8
    m = CwmModel(
        "fmr",
        (Component(1.0, None, Conditional(LinearMap(np.array([slope]), intercept), sd)),),
    )
    x = np.array([2.0])
    resid = 3.0 - (slope * 2.0 + intercept)
    want = -0.5 * (math.log(2 * math.pi * sd**2) + resid**2 / sd**2)
    assert joint_logpdf(m, x, 3.0) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("variant", ("t_cwm", "fmt"))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_joint_logpdf_t_variants_against_oracle(variant, d):
    r = np.random.default_rng(10 * d + VARIANTS.index(variant))
    model = random_model(r, variant, 3, d)
    x, y = random_points(r, 6, d)
    got = joint_logpdf(model, x, y)
    for i in range(len(y)):
        terms = []
        for comp in model.components:
            marg, cond = comp.x_marginal, comp.y_conditional
            if variant == "t_cwm":
                ll = oracles.mvt_logpdf(x[i], marg.location, marg.scale, marg.dof)
                ll += oracles.mvt_logpdf([y[i]], [cond.map(x[i])], [[cond.noise_scale**2]], cond.dof)
            else:
                # the (d+1)-variate t whose x-marginal and y|x conditional these are
                slope = cond.map.slope
                sxy = marg.scale @ slope
                scale = np.block([
                    [marg.scale, sxy[:, None]],
                    [sxy[None, :], np.array([[cond.noise_scale**2 + slope @ sxy]])],
                ])
                loc = np.append(marg.location, cond.map(marg.location))
                ll = oracles.mvt_logpdf(np.append(x[i], y[i]), loc, scale, marg.dof)
            terms.append(float(oracles.mp.log(comp.weight)) + ll)
        assert got[i] == pytest.approx(oracles.logsumexp(terms), rel=1e-10)


def component_log_terms(model, x, y):
    """N-by-G log(weight * density) one component at a time, through the
    per-law gaussian_logpdf/student_logpdf: the reference for the stacked
    E-step."""
    spec = model.spec
    if spec.gated:
        logits = np.column_stack([x @ g.slope + g.intercept for g in model.gating])
        top = logits.max(axis=1, keepdims=True)
        log_weight = logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
    else:
        log_weight = np.log([[comp.weight for comp in model.components]])
    out = np.empty((len(y), model.G))
    for g, comp in enumerate(model.components):
        marg, cond = comp.x_marginal, comp.y_conditional
        if spec.y_law == "joint_t":
            # the (d+1)-variate t whose x-marginal and y|x conditional these are
            sxy = marg.scale @ cond.map.slope
            scale = np.block([
                [marg.scale, sxy[:, None]],
                [sxy[None, :], np.array([[cond.noise_scale**2 + cond.map.slope @ sxy]])],
            ])
            joint = StudentParams(np.append(marg.location, cond.map(marg.location)), scale, marg.dof)
            ll = student_logpdf(np.column_stack([x, y]), joint)
        else:
            resid = (y - cond.map(x))[:, None]
            if cond.dof is None:
                ll = gaussian_logpdf(resid, GaussianParams([0.0], [[cond.noise_scale**2]]))
            else:
                ll = student_logpdf(resid, StudentParams([0.0], [[cond.noise_scale**2]], cond.dof))
            if isinstance(marg, StudentParams):
                ll = ll + student_logpdf(x, marg)
            elif marg is not None:
                ll = ll + gaussian_logpdf(x, marg)
        out[:, g] = log_weight[:, g] + ll
    return out


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", (1, 2, 3))
def test_log_component_terms_match_per_component_densities(variant, d):
    r = np.random.default_rng(100 * d + VARIANTS.index(variant))
    model = random_model(r, variant, 3, d)
    x, y = random_points(r, 25, d)
    got = _log_component_terms(_stack(model), x, y)
    assert got.shape == (25, 3)
    np.testing.assert_allclose(got, component_log_terms(model, x, y), rtol=1e-12)


def test_joint_logpdf_dimension_mismatch():
    with pytest.raises(ValueError):
        joint_logpdf(example1_model(), np.array([1.0, 2.0]), 0.0)


# ----------------------------------------------------------------- posterior

def test_posterior_symmetric_components():
    c = gaussian_component(0.5, 0.0, 1.0, 1.0, 0.0, 1.0)
    m = CwmModel("gaussian_cwm", (c, c))
    p = posterior(m, np.array([0.3]), 1.1)
    assert p == pytest.approx([0.5, 0.5], abs=1e-14)


def test_posterior_prior_weights_with_identical_likelihood():
    a = gaussian_component(0.9, 0.0, 1.0, 1.0, 0.0, 1.0)
    b = gaussian_component(0.1, 0.0, 1.0, 1.0, 0.0, 1.0)
    m = CwmModel("gaussian_cwm", (a, b))
    p = posterior(m, np.array([-0.7]), 0.2)
    assert p == pytest.approx([0.9, 0.1], abs=1e-14)


def test_posterior_near_group_center_oracle():
    comps = [
        dict(pi=1 / 3, mu=10.0, sigma=2.0, slope=6.0, intercept=2.0, noise_sd=2.0),
        dict(pi=2 / 3, mu=-10.0, sigma=2.0, slope=-6.0, intercept=4.0, noise_sd=2.0),
    ]
    want = oracles.posterior_from_terms(oracles.cwm_joint_terms(comps, 9.5, 60.0))
    got = posterior(example1_model(), np.array([9.5]), 60.0)
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_posterior_overlapping_model_oracle():
    # overlapping components exercise actual ratio computation
    comps = [
        dict(pi=0.4, mu=0.0, sigma=2.0, slope=1.0, intercept=0.0, noise_sd=1.0),
        dict(pi=0.6, mu=1.0, sigma=2.5, slope=0.5, intercept=0.5, noise_sd=1.5),
    ]
    m = CwmModel(
        "gaussian_cwm",
        tuple(
            gaussian_component(c["pi"], c["mu"], c["sigma"], c["slope"], c["intercept"], c["noise_sd"])
            for c in comps
        ),
    )
    for x, y in [(0.2, 0.1), (1.4, 1.0), (-2.0, -1.5)]:
        want = oracles.posterior_from_terms(oracles.cwm_joint_terms(comps, x, y))
        got = posterior(m, np.array([x]), y)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["gaussian_cwm", "t_cwm", "fmg", "fmt", "fmr", "fmrc"]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31),
)
def test_posterior_rows_normalize(variant, G, d, seed):
    r = np.random.default_rng(seed)
    m = random_model(r, variant, G, d)
    x, y = random_points(r, 20, d)
    p = posterior(m, x, y)
    assert p.shape == (20, G)
    assert np.all(p >= 0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_posterior_relabel_equivariance():
    r = np.random.default_rng(7)
    m = random_model(r, "gaussian_cwm", 3, 2)
    perm = (2, 0, 1)
    weights = [m.components[g].weight for g in perm]
    comps = tuple(
        Component(weights[i], m.components[perm[i]].x_marginal, m.components[perm[i]].y_conditional)
        for i in range(3)
    )
    mp = CwmModel("gaussian_cwm", comps)
    x, y = random_points(r, 10, 2)
    p = posterior(m, x, y)
    pp = posterior(mp, x, y)
    assert np.max(np.abs(pp - p[:, list(perm)])) < 1e-12


# ------------------------------------------------------------------ classify

def test_classify_component_centers():
    m = example1_model()
    data = Dataset(np.array([[10.0], [-10.0]]), np.array([62.0, 64.0]))
    assert classify(m, data).tolist() == [1, 2]


def test_classify_tie_breaks_low_index():
    c = gaussian_component(0.5, 0.0, 1.0, 1.0, 0.0, 1.0)
    m = CwmModel("gaussian_cwm", (c, c))
    data = Dataset(rng.normal(size=(12, 1)), rng.normal(size=12))
    assert np.all(classify(m, data) == 1)


def test_classify_matches_posterior_argmax():
    r = np.random.default_rng(11)
    m = random_model(r, "gaussian_cwm", 3, 1)
    x, y = random_points(r, 50, 1)
    data = Dataset(x, y)
    labels = classify(m, data)
    p = posterior(m, x, y)
    assert np.all(labels == np.argmax(p, axis=1) + 1)


def test_classify_true_model_on_generated_batch():
    # well-separated design: the true model misclassifies nothing
    r = np.random.default_rng(42)
    x1 = r.normal(10.0, 2.0, size=100)
    y1 = 2.0 + 6.0 * x1 + r.normal(0, 2.0, size=100)
    x2 = r.normal(-10.0, 2.0, size=200)
    y2 = 4.0 - 6.0 * x2 + r.normal(0, 2.0, size=200)
    data = Dataset(
        np.concatenate([x1, x2])[:, None],
        np.concatenate([y1, y2]),
        np.array([1] * 100 + [2] * 200),
    )
    labels = classify(example1_model(), data)
    assert int(np.sum(labels != data.labels)) == 0


# --------------------------------------------------------------- fmg_to_cwm

def test_fmg_to_cwm_hand_values():
    joint = GaussianParams(np.array([1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 3.0]]))
    comp = fmg_to_cwm(joint, 1.0)
    assert comp.y_conditional.map.slope == pytest.approx([0.5], abs=1e-12)
    assert comp.y_conditional.map.intercept == pytest.approx(1.5, abs=1e-12)
    assert comp.y_conditional.noise_scale**2 == pytest.approx(2.5, abs=1e-12)
    assert comp.x_marginal.mean == pytest.approx([1.0], abs=1e-15)
    assert comp.x_marginal.cov == pytest.approx(np.array([[2.0]]), abs=1e-15)


def test_fmg_to_cwm_diagonal_covariance():
    joint = GaussianParams(np.array([3.0, -1.0, 5.0]), np.diag([2.0, 1.5, 4.0]))
    comp = fmg_to_cwm(joint, 1.0)
    assert comp.y_conditional.map.slope == pytest.approx([0.0, 0.0], abs=1e-14)
    assert comp.y_conditional.map.intercept == pytest.approx(5.0, abs=1e-12)
    assert comp.y_conditional.noise_scale**2 == pytest.approx(4.0, abs=1e-12)


def test_fmg_to_cwm_density_equivalence():
    # converted component reproduces the joint Gaussian density pointwise
    for trial in range(50):
        r = np.random.default_rng(1000 + trial)
        q = int(r.integers(2, 5))
        mean = r.normal(size=q, scale=3)
        cov = random_spd(r, q)
        joint = GaussianParams(mean, cov)
        comp = fmg_to_cwm(joint, 1.0)
        m = CwmModel("fmg", (comp,))
        z = r.normal(size=(100, q), scale=3) + mean
        want = gaussian_logpdf(z, joint)
        got = joint_logpdf(m, z[:, : q - 1], z[:, q - 1])
        assert np.max(np.abs(got - want)) < 1e-10


def test_fmg_to_cwm_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        fmg_to_cwm(GaussianParams(np.zeros(1), np.eye(1)), 1.0)


# ------------------------------------------------- t_conditional_decompose

def test_t_decompose_at_location():
    joint = StudentParams(np.zeros(2), np.eye(2), 5.0)
    marginal, cond_fn = t_conditional_decompose(joint, 1)
    assert marginal.dof == 5.0
    assert marginal.scale == pytest.approx(np.eye(1), abs=1e-14)
    cond = cond_fn(np.zeros(1))
    assert cond.dof == pytest.approx(6.0)
    # delta=0 at the location: scale factor nu/(nu+q1) on the Schur complement
    assert cond.scale == pytest.approx(np.array([[5.0 / 6.0]]), abs=1e-12)


def test_t_decompose_factorization():
    for trial in range(10):
        r = np.random.default_rng(2000 + trial)
        q = int(r.integers(2, 5))
        q1 = int(r.integers(1, q))
        loc = r.normal(size=q, scale=2)
        scale = random_spd(r, q)
        nu = float(r.uniform(2.0, 25.0))
        joint = StudentParams(loc, scale, nu)
        marginal, cond_fn = t_conditional_decompose(joint, q1)
        for _ in range(10):
            z = loc + r.normal(size=q, scale=3)
            lhs = student_logpdf(z, joint)
            rhs = student_logpdf(z[:q1], marginal) + student_logpdf(z[q1:], cond_fn(z[:q1]))
            assert rhs == pytest.approx(lhs, abs=1e-10)


def test_t_decompose_gaussian_limit():
    r = np.random.default_rng(5)
    loc = r.normal(size=3)
    scale = random_spd(r, 3)
    joint = StudentParams(loc, scale, 1e6)
    marginal, cond_fn = t_conditional_decompose(joint, 2)
    z1 = loc[:2] + r.normal(size=2)
    cond = cond_fn(z1)
    # Gaussian conditional formulas
    s11 = scale[:2, :2]
    s21 = scale[2:, :2]
    schur = scale[2:, 2:] - s21 @ np.linalg.solve(s11, s21.T)
    mean = loc[2:] + s21 @ np.linalg.solve(s11, z1 - loc[:2])
    assert np.max(np.abs(cond.location - mean)) < 1e-4
    assert np.max(np.abs(cond.scale - schur)) < 1e-4


def test_t_decompose_split_validation():
    joint = StudentParams(np.zeros(2), np.eye(2), 5.0)
    with pytest.raises(ValueError):
        t_conditional_decompose(joint, 0)
    with pytest.raises(ValueError):
        t_conditional_decompose(joint, 2)


# ------------------------------------------------------- nesting reductions

def test_check_fmr_reduction_equal_marginals():
    marg = GaussianParams(np.array([1.0]), np.array([[2.0]]))
    comps = tuple(
        Component(0.5, marg, Conditional(LinearMap(np.array([s]), 0.0), 1.0)) for s in (1.0, -1.0)
    )
    assert check_fmr_reduction(CwmModel("gaussian_cwm", comps)) is True


def test_check_fmr_reduction_separated_means():
    assert check_fmr_reduction(example1_model()) is False


def test_check_fmr_reduction_tolerance_boundary():
    m1 = GaussianParams(np.array([1.0]), np.array([[2.0]]))
    m2 = GaussianParams(np.array([1.0]), np.array([[2.0 + 1e-6]]))
    comps = (
        Component(0.5, m1, Conditional(LinearMap(np.array([1.0]), 0.0), 1.0)),
        Component(0.5, m2, Conditional(LinearMap(np.array([2.0]), 0.0), 1.0)),
    )
    assert check_fmr_reduction(CwmModel("gaussian_cwm", comps)) is False


def test_check_fmr_reduction_wrong_variant():
    r = np.random.default_rng(3)
    with pytest.raises(ValueError):
        check_fmr_reduction(random_model(r, "fmr", 2, 1))


def test_fmr_nesting_posterior_equality():
    # common x-marginal: CWM posterior equals the stripped FMR posterior
    r = np.random.default_rng(9)
    marg = GaussianParams(r.normal(size=2), random_spd(r, 2))
    comps = []
    weights = r.dirichlet(np.full(3, 4.0))
    for g in range(3):
        comps.append(
            Component(
                float(weights[g]),
                marg,
                Conditional(LinearMap(r.normal(size=2), float(r.normal())), float(r.uniform(0.5, 2))),
            )
        )
    cwm = CwmModel("gaussian_cwm", tuple(comps))
    fmr = CwmModel("fmr", tuple(Component(c.weight, None, c.y_conditional) for c in comps))
    assert check_fmr_reduction(cwm) is True
    x, y = random_points(r, 100, 2)
    assert np.max(np.abs(posterior(cwm, x, y) - posterior(fmr, x, y))) < 1e-10


def test_cwm_to_fmrc_gating_symmetric_means():
    sigma = np.eye(1)
    mu2 = np.array([1.5])
    comps = (
        Component(0.5, GaussianParams(-mu2, sigma), Conditional(LinearMap(np.array([1.0]), 0.0), 1.0)),
        Component(0.5, GaussianParams(mu2, sigma), Conditional(LinearMap(np.array([2.0]), 0.0), 1.0)),
    )
    gating = cwm_to_fmrc_gating(CwmModel("gaussian_cwm", comps))
    assert gating[0].slope == pytest.approx([0.0]) and gating[0].intercept == 0.0
    assert gating[1].slope == pytest.approx(2 * mu2, abs=1e-12)
    assert gating[1].intercept == pytest.approx(0.0, abs=1e-12)


def test_cwm_to_fmrc_gating_identical_marginals():
    marg = GaussianParams(np.array([2.0]), np.array([[3.0]]))
    comps = tuple(
        Component(0.5, marg, Conditional(LinearMap(np.array([s]), 0.0), 1.0)) for s in (1.0, -2.0)
    )
    gating = cwm_to_fmrc_gating(CwmModel("gaussian_cwm", comps))
    for g in gating:
        assert g.slope == pytest.approx([0.0], abs=1e-14)
        assert g.intercept == pytest.approx(0.0, abs=1e-14)


def test_cwm_to_fmrc_gating_reproduces_marginal_posterior():
    r = np.random.default_rng(13)
    sigma = random_spd(r, 2)
    mus = [r.normal(size=2, scale=3) for _ in range(3)]
    comps = tuple(
        Component(
            1 / 3,
            GaussianParams(mu, sigma),
            Conditional(LinearMap(r.normal(size=2), float(r.normal())), 1.0),
        )
        for mu in mus
    )
    m = CwmModel("gaussian_cwm", comps)
    gating = cwm_to_fmrc_gating(m)
    for _ in range(100):
        x = r.normal(size=2, scale=4)
        logits = np.array([g.slope @ x + g.intercept for g in gating])
        gate_probs = np.exp(logits - logits.max())
        gate_probs /= gate_probs.sum()
        # posterior of the group given x alone
        lx = np.array([gaussian_logpdf(x, c.x_marginal) for c in comps])
        px = np.exp(lx - lx.max())
        px /= px.sum()
        assert np.max(np.abs(gate_probs - px)) < 1e-10


def test_cwm_to_fmrc_gating_precondition_errors():
    r = np.random.default_rng(17)
    hetero = random_model(r, "gaussian_cwm", 2, 1, equal_weights=True)
    with pytest.raises(ValueError):
        cwm_to_fmrc_gating(hetero)
    sigma = np.eye(1)
    comps = (
        Component(0.7, GaussianParams(np.array([0.0]), sigma), Conditional(LinearMap(np.array([1.0]), 0.0), 1.0)),
        Component(0.3, GaussianParams(np.array([1.0]), sigma), Conditional(LinearMap(np.array([1.0]), 0.0), 1.0)),
    )
    with pytest.raises(ValueError):
        cwm_to_fmrc_gating(CwmModel("gaussian_cwm", comps))


def test_fmrc_nesting_posterior_equality():
    # equal-weight common-covariance CWM: joint posterior equals the FMRC
    # posterior built from the extracted gating
    r = np.random.default_rng(23)
    sigma = random_spd(r, 1)
    comps = tuple(
        Component(
            1 / 3,
            GaussianParams(r.normal(size=1, scale=3), sigma),
            Conditional(LinearMap(r.normal(size=1), float(r.normal())), float(r.uniform(0.5, 2))),
        )
        for _ in range(3)
    )
    cwm = CwmModel("gaussian_cwm", comps)
    gating = cwm_to_fmrc_gating(cwm)
    fmrc = CwmModel(
        "fmrc",
        tuple(Component(1 / 3, None, c.y_conditional) for c in comps),
        tuple(gating),
    )
    x, y = random_points(r, 100, 1)
    assert np.max(np.abs(posterior(cwm, x, y) - posterior(fmrc, x, y))) < 1e-10


def test_check_degenerate_conditional():
    shared = Conditional(LinearMap(np.array([6.0]), 2.0), 2.0)
    marginals = [GaussianParams(np.array([m]), np.array([[4.0]])) for m in (5.0, 20.0, 40.0)]
    same_line = CwmModel(
        "gaussian_cwm", tuple(Component(1 / 3, mg, shared) for mg in marginals)
    )
    assert check_degenerate_conditional(same_line) is True
    assert check_degenerate_conditional(example1_model()) is False
    single = CwmModel("gaussian_cwm", (gaussian_component(1.0, 0.0, 1.0, 1.0, 0.0, 1.0),))
    assert check_degenerate_conditional(single) is True


def test_degenerate_conditional_collapses_to_single_regression():
    shared = Conditional(LinearMap(np.array([6.0]), 2.0), 2.0)
    m = CwmModel("fmr", tuple(Component(1 / 3, None, shared) for _ in range(3)))
    single = CwmModel("fmr", (Component(1.0, None, shared),))
    x, y = random_points(rng, 20, 1)
    assert np.max(np.abs(joint_logpdf(m, x, y) - joint_logpdf(single, x, y))) < 1e-12


# ------------------------------------------------------------------- model IO

def test_model_validation():
    c = gaussian_component(0.6, 0.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CwmModel("gaussian_cwm", (c,))  # weights must sum to 1
    with pytest.raises(ValueError):
        CwmModel("nope", (gaussian_component(1.0, 0.0, 1.0, 1.0, 0.0, 1.0),))
    with pytest.raises(ValueError):
        # gating required for fmrc
        CwmModel("fmrc", (Component(1.0, None, Conditional(LinearMap(np.array([1.0]), 0.0), 1.0)),))
    with pytest.raises(ValueError):
        # fmt requires conditional dof = marginal dof + d
        CwmModel(
            "fmt",
            (
                Component(
                    1.0,
                    StudentParams(np.zeros(1), np.eye(1), 5.0),
                    Conditional(LinearMap(np.array([1.0]), 0.0), 1.0, dof=9.0),
                ),
            ),
        )


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 1)), np.ones(2))
    d = Dataset(np.ones((3, 1)), np.ones(3), np.array([1, NOISE, 2]))
    assert d.n == 3 and d.d == 1


def _edited_model(variant, path, **change):
    """model_from_dict of a valid model's dict, with the entry at ``path``
    (the keys leading to it) updated by ``change``."""
    doc = model_to_dict(random_model(np.random.default_rng(3), variant, 2, 1))
    entry = doc
    for key in path:
        entry = entry[key]
    entry.update(change)
    return model_from_dict(doc)


_line = LinearMap([1.0], 0.0)
_marg = ("components", 1, "x_marginal")


@pytest.mark.parametrize("build", [
    pytest.param(lambda: GaussianParams([np.nan], [[1.0]]), id="gaussian-nan-mean"),
    pytest.param(lambda: GaussianParams([0.0, 1.0], [[1.0, np.nan], [0.0, 1.0]]),
                 id="gaussian-nan-cov"),
    pytest.param(lambda: StudentParams([np.inf], [[1.0]], 3.0), id="student-inf-location"),
    pytest.param(lambda: StudentParams([0.0], [[1.0]], np.inf), id="student-inf-dof"),
    pytest.param(lambda: StudentParams([0.0], [[1.0]], np.nan), id="student-nan-dof"),
    pytest.param(lambda: LinearMap([np.nan], 0.0), id="map-nan-slope"),
    pytest.param(lambda: LinearMap([1.0], np.inf), id="map-inf-intercept"),
    pytest.param(lambda: Conditional(_line, np.nan), id="conditional-nan-scale"),
    pytest.param(lambda: Conditional(_line, np.inf), id="conditional-inf-scale"),
    pytest.param(lambda: Conditional(_line, 1.0, dof=np.nan), id="conditional-nan-dof"),
    pytest.param(lambda: Conditional(_line, 1.0, dof=np.inf), id="conditional-inf-dof"),
    pytest.param(lambda: _edited_model("t_cwm", _marg, mean=[np.nan]), id="dict-nan-mean"),
    pytest.param(lambda: _edited_model("t_cwm", _marg, dof=np.inf), id="dict-inf-dof"),
    pytest.param(lambda: _edited_model("fmr", ("components", 0, "y_conditional"), noise_var=np.inf),
                 id="dict-inf-noise-var"),
    pytest.param(lambda: _edited_model("fmrc", ("gating", 1), w0=np.inf), id="dict-inf-w0"),
])
def test_non_finite_parameters_are_rejected_when_built(build):
    # a NaN mean would otherwise score NaN, and an infinite dof fail only
    # when scored
    with pytest.raises(ValueError):
        build()


_cond = Conditional(_line, 1.0)
_zero_gate = LinearMap([0.0], 0.0)
_pair = (Component(0.5, None, _cond), Component(0.5, None, _cond))
_unit = GaussianParams([0.0], [[1.0]])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Component(0.0, None, _cond), "weight must lie in (0, 1]", id="component-weight"),
    pytest.param(lambda: CwmModel("fmr", ()), "at least one component", id="no-components"),
    pytest.param(lambda: CwmModel("fmr", (Component(0.5, None, _cond), Component(
                     0.5, None, Conditional(LinearMap([1.0, 2.0], 0.0), 1.0)))),
                 "disagree on x dimension", id="x-dimensions"),
    pytest.param(lambda: CwmModel("fmrc", _pair, (_zero_gate,)), "one gating entry per component",
                 id="gating-count"),
    pytest.param(lambda: CwmModel("fmrc", _pair, (LinearMap([1.0], 0.0), _zero_gate)),
                 "gating baseline", id="gating-baseline"),
    pytest.param(lambda: CwmModel("fmrc", _pair, (_zero_gate, LinearMap([1.0, 2.0], 0.0))),
                 "gating dimension mismatch", id="gating-dimension"),
    # a (1, 1) gate slope used to pass the dimension check and be flattened
    pytest.param(lambda: _edited_model("fmrc", ("gating", 1), w=[[0.5]]), "slope must be a vector",
                 id="gating-matrix"),
    pytest.param(lambda: CwmModel("fmr", _pair, (_zero_gate, _zero_gate)), "takes no gating",
                 id="gating-not-gated"),
    pytest.param(lambda: CwmModel("fmr", (Component(1.0, _unit, _cond),)), "carry no x-marginal",
                 id="marginal-not-allowed"),
    pytest.param(lambda: CwmModel("gaussian_cwm", (Component(1.0, None, _cond),)), "require an x-marginal",
                 id="marginal-required"),
    pytest.param(lambda: CwmModel("gaussian_cwm",
                                  (Component(1.0, GaussianParams([0.0, 0.0], np.eye(2)), _cond),)),
                 "x-marginal dimension mismatch", id="marginal-dimension"),
    pytest.param(lambda: CwmModel("t_cwm", (Component(1.0, _unit, Conditional(_line, 1.0, dof=5.0)),)),
                 "requires a t x-marginal", id="marginal-law"),
    pytest.param(lambda: CwmModel("t_cwm", (Component(1.0, StudentParams([0.0], [[1.0]], 5.0), _cond),)),
                 "requires a t conditional", id="conditional-kind"),
    pytest.param(lambda: Dataset(np.ones((3, 1)), np.ones(3), [1, 2]), "labels length mismatch",
                 id="labels-length"),
    pytest.param(lambda: Dataset(np.ones((3, 1)), np.ones(3), [1, -1, 2]), "group indices or NOISE",
                 id="labels-negative"),
    # truncating would read 0.2 as NOISE
    pytest.param(lambda: Dataset(np.ones((3, 1)), np.ones(3), [1.5, 2.7, 0.2]), "labels must be integers",
                 id="labels-fractional"),
    pytest.param(lambda: Dataset(np.ones((3, 1)), np.ones(3), [1.0, np.nan, 2.0]), "labels must be integers",
                 id="labels-nan"),
    pytest.param(lambda: Dataset(np.ones((3, 1)), np.ones(3), [[1], [2], [1]]), "labels must be a vector",
                 id="labels-column"),
    pytest.param(lambda: cwm_to_fmrc_gating(random_model(np.random.default_rng(0), "fmr", 2, 1)),
                 "applies to gaussian_cwm", id="gating-extraction-variant"),
])
def test_invalid_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_integral_labels_pass_as_ints():
    for given in ([1, NOISE, 2], np.array([1, NOISE, 2], dtype=np.uint8), [1.0, 0.0, 2.0]):
        labels = Dataset(np.ones((3, 1)), np.ones(3), given).labels
        assert labels.dtype == int and labels.tolist() == [1, NOISE, 2]


@pytest.mark.parametrize("x, y, message", [
    pytest.param([[np.nan]], [0.0], "non-finite values", id="nan-x"),
    pytest.param([[1.0]], [np.inf], "non-finite values", id="inf-y"),
    pytest.param([np.nan], 0.0, "non-finite values", id="nan-x-single"),
    pytest.param([1.0], -np.inf, "non-finite values", id="inf-y-single"),
    pytest.param(np.empty((0, 1)), [], "one y per row", id="empty"),
    pytest.param([1.0, 2.0], 0.0, "x must have 1 columns", id="single-point-columns"),
    pytest.param(np.ones((2, 1)), [0.0], "one y per row", id="lengths"),
])
@pytest.mark.parametrize("score", [joint_logpdf, posterior])
def test_scoring_reads_input_as_dataset_does(score, x, y, message):
    with pytest.raises(ValueError, match=message):
        score(example1_model(), x, y)


@pytest.mark.parametrize("G, n", [(1, 4), (3, 3)])
def test_column_y_scores_like_flat_y(G, n):
    # a (N, 1) y is read as Dataset reads it, not broadcast against the
    # G-by-N regression lines
    r = np.random.default_rng(G)
    m = random_model(r, "gaussian_cwm", G, 2)
    x, y = random_points(r, n, 2)
    for score in (joint_logpdf, posterior):
        np.testing.assert_array_equal(score(m, x, y[:, None]), score(m, x, y))
    with pytest.raises(ValueError):
        joint_logpdf(m, x, np.append(y, 0.0)[:, None])


@pytest.mark.parametrize("variant", ["gaussian_cwm", "t_cwm", "fmg", "fmt", "fmr", "fmrc"])
def test_model_json_roundtrip(variant):
    r = np.random.default_rng(VARIANTS.index(variant))
    m = random_model(r, variant, 3, 2)
    blob = json.dumps(model_to_dict(m))
    m2 = model_from_dict(json.loads(blob))
    assert m2.variant == m.variant
    x, y = random_points(r, 25, 2)
    assert np.max(np.abs(joint_logpdf(m2, x, y) - joint_logpdf(m, x, y))) < 1e-12
    # serialization keeps full double precision
    assert json.dumps(model_to_dict(m2)) == blob


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", (1, 2, 3))
def test_stack_round_trip_keeps_every_parameter(variant, d):
    # the stacked record EM iterates on holds the whole model
    m = random_model(np.random.default_rng(10 * d + VARIANTS.index(variant)), variant, 3, d)
    assert model_to_dict(_unstack(_stack(m))) == model_to_dict(m)


def test_model_dict_shape():
    m = example1_model()
    d = model_to_dict(m)
    assert d["variant"] == "gaussian_cwm"
    assert d["d"] == 1 and d["G"] == 2
    c0 = d["components"][0]
    assert set(c0) == {"weight", "x_marginal", "y_conditional"}
    assert c0["y_conditional"]["noise_var"] == pytest.approx(4.0)
    assert "gating" not in d
