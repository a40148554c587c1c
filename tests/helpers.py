"""Shared builders for random but valid models and datasets."""

import numpy as np

from cwmix.densities import GaussianParams, StudentParams
from cwmix.model import Component, Conditional, CwmModel, LinearMap


def random_spd(rng, q, scale=1.0):
    a = rng.normal(size=(q, q))
    return scale * (a @ a.T + q * np.eye(q))


def gaussian_component(weight, mu, sigma, slope, intercept, noise_sd):
    """Scalar-argument builder for d=1 Gaussian components."""
    return Component(
        weight,
        GaussianParams(np.atleast_1d(float(mu)), np.atleast_2d(sigma**2)),
        Conditional(LinearMap(np.atleast_1d(float(slope)), float(intercept)), noise_sd),
    )


def random_component(rng, d, variant):
    weight = 1.0  # caller renormalizes
    slope = rng.normal(size=d, scale=2)
    intercept = float(rng.normal(scale=3))
    noise_scale = float(rng.uniform(0.3, 2.5))
    if variant in ("gaussian_cwm", "fmg"):
        marg = GaussianParams(rng.normal(size=d, scale=4), random_spd(rng, d))
        cond = Conditional(LinearMap(slope, intercept), noise_scale)
    elif variant == "t_cwm":
        marg = StudentParams(rng.normal(size=d, scale=4), random_spd(rng, d), float(rng.uniform(3, 30)))
        cond = Conditional(LinearMap(slope, intercept), noise_scale, dof=float(rng.uniform(3, 30)))
    elif variant == "fmt":
        nu = float(rng.uniform(3, 30))
        marg = StudentParams(rng.normal(size=d, scale=4), random_spd(rng, d), nu)
        cond = Conditional(LinearMap(slope, intercept), noise_scale, dof=nu + d)
    elif variant in ("fmr", "fmrc"):
        marg = None
        cond = Conditional(LinearMap(slope, intercept), noise_scale)
    else:
        raise ValueError(variant)
    return Component(weight, marg, cond)


def random_model(rng, variant="gaussian_cwm", G=2, d=1, equal_weights=False):
    w = np.full(G, 1.0 / G) if equal_weights else rng.dirichlet(np.full(G, 5.0))
    comps = []
    for g in range(G):
        c = random_component(rng, d, variant)
        comps.append(Component(float(w[g]), c.x_marginal, c.y_conditional))
    gating = None
    if variant == "fmrc":
        gating = [LinearMap(np.zeros(d), 0.0)]
        gating += [LinearMap(rng.normal(size=d), float(rng.normal())) for _ in range(G - 1)]
    return CwmModel(variant, tuple(comps), tuple(gating) if gating else None)


def random_points(rng, n, d):
    return rng.normal(size=(n, d), scale=4), rng.normal(size=n, scale=6)
