"""Fitting: EM/ECME drivers, initialization, and dof estimation.

Closed-form one-group estimators (sample moments + OLS) and a scipy
profile-likelihood grid serve as independent oracles.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import oracles
from helpers import random_model, random_points
from cwmix import densities, em
from cwmix import model as model_module
from cwmix.datagen import SCENARIO_NAMES, builtin_scenario, generate
from cwmix.densities import GaussianParams, StudentParams, mahalanobis_sq
from cwmix.em import (
    DegenerateFitError,
    FitConfig,
    _fit_gating,
    _latent_weights,
    _regularize_cov,
    _solve_dof,
    estimate_dof,
    fit,
    initialize,
)
from cwmix.model import (
    VARIANTS,
    Component,
    Conditional,
    CwmModel,
    Dataset,
    LinearMap,
    _component_distances,
    _gate_logits,
    _stack,
    classify,
    fmg_to_cwm,
    joint_logpdf,
    model_to_dict,
)

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
    assert not hasattr(cfg, "init")  # every start is a k-means partition


@pytest.mark.parametrize(
    "kwargs",
    # fixed ids, so that inserting or deleting a case renames no other case
    [
        pytest.param(dict(G=0), id="kwargs0"),
        pytest.param(dict(G=2, variant="nope"), id="kwargs1"),
        pytest.param(dict(G=2, max_iter=0), id="kwargs2"),
        pytest.param(dict(G=2, rel_tol=0.0), id="kwargs3"),
        pytest.param(dict(G=2, n_starts=0), id="kwargs4"),
        pytest.param(dict(G=2, rel_tol=float("nan")), id="kwargs5"),
        pytest.param(dict(G=2, rel_tol=-1e-8), id="kwargs6"),
        pytest.param(dict(G=2, seed=-1), id="kwargs7"),
        pytest.param(dict(G=2, seed=2**64), id="kwargs8"),
        pytest.param(dict(G=2.5), id="kwargs9"),
        pytest.param(dict(G=True), id="kwargs10"),
        pytest.param(dict(G=2, n_starts=2.5), id="kwargs11"),
        pytest.param(dict(G=2, max_iter=2.5), id="kwargs12"),
        pytest.param(dict(G=2, seed=1.7), id="kwargs13"),
        pytest.param(dict(G=2, rel_tol=float("inf")), id="kwargs14"),
        pytest.param(dict(G=2, rel_tol=True), id="kwargs15"),
        pytest.param(dict(G=2, rel_tol="1e-8"), id="kwargs16"),
    ],
)
def test_fit_config_validation(kwargs):
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


@pytest.mark.parametrize("value", (10**400, -10**400), ids=("huge", "huge-negative"))
def test_real_beyond_the_float_range_is_rejected(value):
    # an int too large for a float is not finite: the rule's ValueError,
    # not an OverflowError from the conversion
    with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
        FitConfig(G=2, rel_tol=value)
    with pytest.raises(ValueError, match="x must be finite"):
        densities._real("x", value)


def test_positive_real_that_rounds_to_zero_is_rejected():
    # positive as a Fraction, but 0.0 as the float the rule returns
    with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
        FitConfig(G=2, rel_tol=Fraction(1, 10**400))


def test_fit_config_accepts_numpy_integers():
    data = generate(builtin_scenario("ex1").with_seed(1))
    config = FitConfig(G=np.int64(2), max_iter=np.int32(5), n_starts=np.uint8(2), seed=np.uint64(3))
    assert fit(data, config).n_iter <= 5


def test_fit_config_keeps_the_numbers_its_checks_return():
    # the stop rule compares against the float the check accepted, not an
    # exact rational, and a numpy integer leaves as a Python int
    config = FitConfig(G=np.int64(2), max_iter=np.int32(5), n_starts=np.uint8(2),
                       seed=np.uint64(3), rel_tol=Fraction(1, 3))
    assert [type(getattr(config, name)) for name in ("G", "max_iter", "n_starts", "seed", "rel_tol")] \
        == [int, int, int, int, float]
    assert (config.G, config.max_iter, config.n_starts, config.seed) == (2, 5, 2, 3)
    assert config.rel_tol == 1 / 3
    assert type(FitConfig(G=2, rel_tol=np.float32(0.5)).rel_tol) is float


# ----------------------------------------------------------------- initialize

def test_initialize_kmeans_separated_blobs():
    r = np.random.default_rng(5)
    a = r.normal(size=(40, 3), scale=0.5)
    b = np.array([10.0, 10.0, 10.0]) + r.normal(size=(40, 3), scale=0.5)
    z = np.vstack([a, b])
    data = Dataset(z[:, :2], z[:, 2])
    resp = initialize(data, FitConfig(G=2), np.random.default_rng(3))
    assign = resp.argmax(axis=1)
    truth = np.array([0] * 40 + [1] * 40)
    direct = int(np.sum(assign != truth))
    assert min(direct, 80 - direct) == 0
    # brute-force nearest-center check on the implied partition
    centers = np.stack([z[assign == g].mean(axis=0) for g in range(2)])
    dist = ((z[:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert np.array_equal(assign, dist.argmin(axis=1))


class _CountingRng:
    """A Generator whose ``choice`` draws are counted (k-means draws nothing else)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.rng.choice(*args, **kwargs)


def _assert_kmeans_matches_oracle(z, G, seed):
    """Same labels, from the same draws, as the reference k-means; returns
    the number of center draws (more than one means a restart)."""
    ours, ref = _CountingRng(seed), _CountingRng(seed)
    data = Dataset(z[:, :-1], z[:, -1])
    labels = em._kmeans_labels(em._kmeans_columns(data), G, ours)
    assert np.array_equal(labels, oracles.kmeans_labels(z, G, ref))
    assert ours.choices == ref.choices
    return ours.choices


def _scaled(name, factor):
    spec = builtin_scenario(name)
    groups = tuple(dataclasses.replace(g, n=g.n * factor) for g in spec.groups)
    noise = spec.noise and dataclasses.replace(spec.noise, count=spec.noise.count * factor)
    return dataclasses.replace(spec, groups=groups, noise=noise)


@pytest.mark.parametrize("factor", (1, 10))
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_kmeans_labels_equal_the_reference_on_builtin_designs(name, factor):
    # the coordinate-at-a-time distances and bincount centroids reproduce the
    # N-by-G-by-D sum and the masked means bit for bit: identical labels
    for seed in (1, 2):
        data = generate(_scaled(name, factor).with_seed(seed))
        z = np.column_stack([data.x, data.y])
        for G in (2, 3, 4):
            for start in range(3):
                _assert_kmeans_matches_oracle(z, G, [seed, start])


@pytest.mark.parametrize("d", (1, 2, 3))
def test_kmeans_labels_equal_the_reference_on_random_blobs(d):
    r = np.random.default_rng(d)
    for G in (2, 3, 4):
        z = np.vstack([r.normal(size=(60, d + 1), scale=r.uniform(0.5, 5.0))
                       + r.normal(size=d + 1, scale=10.0) for _ in range(G)])
        for seed in range(5):
            _assert_kmeans_matches_oracle(z, G, seed)


def test_kmeans_labels_sum_the_coordinates_in_the_reference_order():
    # the origin is as far from either other point in exact arithmetic, but
    # 0.09 + 0.25 + 0.49 < 0.49 + 0.25 + 0.09 by one ulp: when those two are
    # the first centers, the order of the coordinate sum decides its label
    z = np.array([[0.0, 0.0, 0.0], [0.3, 0.5, 0.7], [0.7, 0.5, 0.3]])
    seeds = range(6)
    assert any(set(np.random.default_rng(s).choice(3, size=2, replace=False)) == {1, 2}
               for s in seeds)
    for seed in seeds:
        _assert_kmeans_matches_oracle(z, 2, seed)


def test_kmeans_labels_give_a_tied_point_the_lower_centre():
    # with the ends of 0, 1, 2 as the first centres the middle point is
    # exactly as far from both; it joins the first-drawn centre, as argmin
    # picks it, and that choice decides the final partition
    z = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    seeds = range(25)
    firsts = [np.random.default_rng(s).choice(3, size=2, replace=False) for s in seeds]
    assert any(set(first) == {0, 2} for first in firsts)
    for seed, first in zip(seeds, firsts):
        _assert_kmeans_matches_oracle(z, 2, seed)
        if set(first) == {0, 2}:
            labels = em._kmeans_labels(em._kmeans_columns(Dataset(z[:, :1], z[:, 1])), 2,
                                       np.random.default_rng(seed))
            assert labels[1] == labels[first[0]] == 0


def test_kmeans_labels_restart_on_an_empty_cluster_like_the_reference():
    # three sites, twenty copies each: two centers drawn at one site tie, the
    # later one gets no point, and k-means draws new centers
    sites = np.array([[0.0, 0.0], [5.0, 1.0], [-3.0, 4.0]])
    z = np.repeat(sites, 20, axis=0)
    draws = [_assert_kmeans_matches_oracle(z, 3, seed) for seed in range(10)]
    assert max(draws) > 1
    # four groups on three sites: every attempt empties one
    with pytest.raises(ValueError, match="empty cluster"):
        em._kmeans_labels(em._kmeans_columns(Dataset(z[:, :1], z[:, 1])), 4,
                          np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty cluster"):
        oracles.kmeans_labels(z, 4, np.random.default_rng(0))


def test_kmeans_columns_are_contiguous_rows():
    data = generate(builtin_scenario("ex6_s2").with_seed(1))
    columns = em._kmeans_columns(data)
    assert columns.shape == (3, data.n) and columns.flags.c_contiguous


# --------------------------------------------------------------- estimate_dof
# estimate_dof is the ECME dof step: the dof that maximizes the weighted
# log-density sum_i w_i log t_q(delta_i; nu) of a t law with fixed location
# and scale.  The oracle maximizes the same objective in mpmath, from its
# numerical derivative, independently of the score estimate_dof solves.

def t_objective(delta, weights, q, nu):
    """sum_i w_i log t_q(delta_i; nu), up to terms free of nu, in mpmath."""
    nu = mp.mpf(nu)
    const = mp.loggamma((nu + q) / 2) - mp.loggamma(nu / 2) - q * mp.log(nu) / 2
    return sum(mp.mpf(w) * (const - (nu + q) / 2 * mp.log1p(mp.mpf(dl) / nu))
               for dl, w in zip(delta, weights))


def mp_dof_maximizer(delta, weights, q):
    """The maximizer over DOF_BRACKET: the best point of a log grid, then the
    root of the objective's numerical derivative next to it, unless that
    point is an edge the objective still rises towards."""
    lo, hi = em.DOF_BRACKET
    with mp.workdps(30):
        objective = lambda nu: t_objective(delta, weights, q, nu)  # noqa: E731
        score = lambda nu: mp.diff(objective, nu)  # noqa: E731
        best = max(np.geomspace(lo, hi, 21), key=objective)
        if best == lo and score(lo) <= 0:
            return lo
        if best == hi and score(hi) >= 0:
            return hi
        return float(mp.findroot(score, mp.mpf(best), solver="secant"))


def t_distances(r, dof, q, n):
    """Squared distances of n draws of a standard q-variate t with ``dof``."""
    z = r.normal(size=(n, q))
    return (z * z).sum(axis=1) * dof / r.chisquare(dof, size=n)


def dof_problem(root, q, n=40):
    """Distances from a t law with ``root`` dof and random weights in (0, 1)."""
    r = np.random.default_rng([int(10 * root), q])
    return t_distances(r, root, q, n), r.uniform(size=n)


def assert_no_warning(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args, **kwargs)


def test_estimate_dof_gaussian_limit_hits_upper_bracket():
    # every point at distance q: for q = 2 the score is 2/nu - log(1 + 2/nu)
    # > 0 at every nu, so the objective rises to the Gaussian limit; a bracket
    # edge is a routine result, returned without a warning
    for q in (1, 2, 3):
        delta = np.full(30, float(q))
        assert mp_dof_maximizer(delta, np.ones(30), q) == 200.0
        assert assert_no_warning(em.estimate_dof, delta, np.ones(30), q) == 200.0


def test_estimate_dof_known_root():
    # one point, its distance chosen so the maximizer sits exactly at dof 7
    with mp.workdps(30):
        delta = float(mp.findroot(lambda dl: mp.diff(lambda v: t_objective([dl], [1], 1, v), 7), 5))
    assert estimate_dof([delta], [1.0], 1) == pytest.approx(7.0, abs=1e-9)


def test_estimate_dof_lower_boundary_flagged():
    # distances from a t with 0.2 dof: the maximizer lies below the bracket,
    # so the lower edge is returned, exactly, and without a warning
    r = np.random.default_rng(3)
    for q in (1, 2, 3):
        delta, weights = t_distances(r, 0.2, q, 40), r.uniform(size=40)
        assert mp_dof_maximizer(delta, weights, q) == 0.5
        got = assert_no_warning(em.estimate_dof, delta, weights, q)
        assert type(got) is float and got == 0.5


def test_estimate_dof_invalid_statistic():
    for delta, weights, q in [
        ([1.0, float("nan")], [1.0, 1.0], 1),
        ([-1.0], [1.0], 1),               # a negative distance
        ([1.0], [-1.0], 1),               # a negative weight
        ([np.inf], [1.0], 1),             # an infinite distance
        ([1.0], [np.inf], 1),             # an infinite weight
        ([1.0, 2.0], [0.0, 0.0], 1),      # no weight
        ([], [], 1),                      # no point
        ([1.0, 2.0], [1.0], 1),           # lengths differ
        ([[1.0, 2.0]], [[1.0, 1.0]], 1),  # not vectors
        ([1.0], [1.0], 0),
        ([1.0], [1.0], 1.5),
        ([1.0], [1.0], True),
    ]:
        with pytest.raises(ValueError):
            estimate_dof(delta, weights, q)
    # finite but huge: the score's delta / nu at the lower edge, or the
    # weight sum, would overflow
    for delta, weights, start in [([1e308], [1.0], 0.5), ([1.0, 1.0], [1e308, 1e308], None)]:
        with pytest.raises(ValueError):
            estimate_dof(delta, weights, 1, start=start)
    # a start is a finite real, as every other real argument of the package
    for start in (10**400, True, "3", float("nan"), math.inf, -math.inf):
        with pytest.raises(ValueError, match="^start must be finite"):
            estimate_dof([1.0, 2.0], [1.0, 1.0], 1, start=start)


DOF_ROOTS = (0.6, 1.0, 2.5, 7.0, 20.0, 60.0, 120.0, 190.0)


@pytest.mark.parametrize("root", DOF_ROOTS)
def test_estimate_dof_matches_mpmath_root(root):
    for q in (1, 2, 3):
        delta, weights = dof_problem(root, q)
        want = mp_dof_maximizer(delta, weights, q)
        got = estimate_dof(delta, weights, q)
        assert type(got) is float
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("root", DOF_ROOTS)
def test_estimate_dof_same_root_from_any_start(root):
    lo, hi = em.DOF_BRACKET
    for q in (1, 2, 3):
        delta, weights = dof_problem(root, q)
        want = estimate_dof(delta, weights, q)
        for start in (lo, hi, 0.5 * (lo + want), 0.5 * (want + hi)):
            assert estimate_dof(delta, weights, q, start=start) == pytest.approx(want, rel=1e-9)


def t_objective_float(delta, weights, q, nu):
    """sum_i w_i log t_q(delta_i; nu), up to terms free of nu, from scipy's gammaln."""
    from scipy.special import gammaln

    const = gammaln((nu + q) / 2) - gammaln(nu / 2) - q * math.log(nu) / 2
    return float(weights @ (const - (nu + q) / 2 * np.log1p(delta / nu)))


@pytest.mark.parametrize("root", DOF_ROOTS)
def test_solve_dof_warm_start_needs_few_digammas(monkeypatch, root):
    # an ECME iteration moves a dof a little; from 10 % off, each component's
    # guarded Newton step scores the old dof once (two digammas), so a call
    # whose steps are all kept makes two digammas per component, and a
    # refused step adds at most the solve from it (a score of the start, the
    # edge on the rising side and five Newton steps), two digammas per score.
    # No step lowers the dof objective beyond rounding, and repeated steps
    # reach estimate_dof's root
    digamma = em.digamma
    calls = []
    monkeypatch.setattr(em, "digamma", lambda x: calls.append(x) or digamma(x))
    solve = em.estimate_dof
    solved = []  # the digammas of each estimate_dof call from _solve_dof

    def counted_solve(*args, **kwargs):
        before = len(calls)
        out = solve(*args, **kwargs)
        solved.append(len(calls) - before)
        return out

    monkeypatch.setattr(em, "estimate_dof", counted_solve)
    all_kept = 0
    lo, hi = em.DOF_BRACKET
    for q in (1, 2, 3):
        problems = [dof_problem(root, q), dof_problem(root, q, n=80)]
        delta = np.array([problems[0][0], problems[1][0][:40]])
        resp = np.array([problems[0][1], problems[1][1][:40]]).T
        want = [estimate_dof(row, w, q) for row, w in zip(delta, resp.T)]
        for scale in (0.9, 1.1):
            # an ECME dof always lies in the bracket
            dofs = [min(max(scale * v, lo), hi) for v in want]
            for _ in range(60):
                calls.clear()
                solved.clear()
                new = em._solve_dof(dofs, q, delta, resp)
                assert len(calls) <= 2 * 14
                assert len(calls) == 2 * len(dofs) + sum(solved)
                all_kept += not solved
                for row, w, old, nu in zip(delta, resp.T, dofs, new):
                    before = t_objective_float(row, w, q, old)
                    assert t_objective_float(row, w, q, nu) >= before - 1e-12 * abs(before)
                dofs = new.tolist()
            np.testing.assert_allclose(dofs, want, rtol=1e-9)
    assert all_kept > 0


@pytest.mark.parametrize("nu", (0.5, 3.0, 30.0, 200.0))
@pytest.mark.parametrize("q", (1, 2, 3))
def test_dof_score_and_slope_match_mpmath(nu, q):
    # f = 2 F' and its slope f' = 2 F'' of F(nu) = sum_i w_i log t_q(delta_i; nu),
    # from mp.diff at 50 digits.  Near a root f is a small difference of large
    # terms, so each is bounded relative to the sum of its terms' magnitudes
    # (bound fixed beforehand); a missing or wrong term would be off by far more
    delta, w = dof_problem(nu, q)
    mass = float(w.sum())
    with mp.workdps(50):
        objective = lambda v: t_objective(delta, w, q, v)  # noqa: E731
        want_f = 2 * mp.diff(objective, mp.mpf(nu))
        want_fp = 2 * mp.diff(objective, mp.mpf(nu), 2)
    f, wlog, b, wb = em._dof_score(nu, q, delta, w, mass)
    wbb = float(w @ (b * b))
    fp = em._dof_slope(nu, q, w, mass, b, wb)
    f_terms = (mass * (abs(em.digamma((nu + q) / 2)) + abs(em.digamma(nu / 2)) + q / nu)
               + wlog + (1 + q / nu) * wb)
    fp_terms = (mass * (0.5 * (em.trigamma((nu + q) / 2) + em.trigamma(nu / 2)) + q / nu**2)
                + wbb / nu + q * (2 * wb + wbb) / nu**2)
    assert abs(f - float(want_f)) <= 1e-10 * f_terms
    assert abs(fp - float(want_fp)) <= 1e-10 * fp_terms


@pytest.mark.parametrize("root", DOF_ROOTS)
def test_estimate_dof_warm_start_never_evaluates_far_edge(monkeypatch, root):
    # once the score at the start says which way the objective rises, only
    # that edge can lack a sign change, and the start is not evaluated again
    digamma = em.digamma
    args = []
    monkeypatch.setattr(em, "digamma", lambda x: args.append(x) or digamma(x))
    lo, hi = em.DOF_BRACKET
    for q in (1, 2, 3):
        delta, weights = dof_problem(root, q)
        want = estimate_dof(delta, weights, q)
        if want in em.DOF_BRACKET:
            continue
        for start in (0.9 * want, min(1.1 * want, 0.5 * (want + hi))):
            args.clear()
            assert estimate_dof(delta, weights, q, start=start) == pytest.approx(want, rel=1e-9)
            far = lo if start < want else hi
            assert far / 2.0 not in args and (far + q) / 2.0 not in args
            assert args.count(start / 2.0) == 1


@pytest.mark.parametrize("bound", em.DOF_BRACKET)
def test_estimate_dof_start_on_bound_with_root_beyond(monkeypatch, bound):
    # heavy tails push the maximizer below the bracket, equal distances above
    delta = t_distances(np.random.default_rng(5), 0.2, 1, 40) if bound == 0.5 else np.ones(40)
    digamma = em.digamma
    args = []
    monkeypatch.setattr(em, "digamma", lambda x: args.append(x) or digamma(x))
    assert assert_no_warning(em.estimate_dof, delta, np.ones(40), 1, start=bound) == bound
    # the start is the edge the objective rises towards: one score decides
    assert args == [(bound + 1) / 2.0, bound / 2.0]


def dof_problems(count, seed=2026):
    """``count`` seeded (delta, weights, q): q in {1, 2, 3}, 5 to 200 points
    from a t law whose dof is log-uniform over 0.2 to 400, random weights."""
    r = np.random.default_rng(seed)
    for _ in range(count):
        q, n = int(r.integers(1, 4)), int(r.integers(5, 201))
        dof = float(np.exp(r.uniform(math.log(0.2), math.log(400.0))))
        yield t_distances(r, dof, q, n), r.uniform(size=n), q


def test_estimate_dof_equals_the_eager_edge_solve():
    # _dof_score and _dof_slope work in place; from every start, the solve
    # returns the same float as the oracle's plain arithmetic
    lo, hi = em.DOF_BRACKET
    for delta, weights, q in dof_problems(2000):
        root = oracles.estimate_dof_eager(delta, weights, q, em.digamma, em.trigamma)
        far = 30.0 * root if root < 10.0 else root / 30.0
        for start in (None, lo, hi, 0.9 * root, 1.1 * root, far):
            want = oracles.estimate_dof_eager(delta, weights, q, em.digamma, em.trigamma,
                                              start=start)
            got = estimate_dof(delta, weights, q, start=start)
            assert type(got) is float and got == want, (q, delta.size, start)


def test_estimate_dof_interior_start_still_returns_the_lower_edge(monkeypatch):
    # heavy tails (0.2 dof) put the maximizer below the bracket: from inside
    # it, the score points down, and the lower edge is scored once and
    # returned exactly
    digamma = em.digamma
    args = []
    monkeypatch.setattr(em, "digamma", lambda x: args.append(x) or digamma(x))
    lo, hi = em.DOF_BRACKET
    r = np.random.default_rng(3)
    for q in (1, 2, 3):
        delta, weights = t_distances(r, 0.2, q, 40), r.uniform(size=40)
        for start in (1.0, 10.0, 100.0):
            args.clear()
            got = assert_no_warning(em.estimate_dof, delta, weights, q, start=start)
            assert type(got) is float and got == lo
            assert args.count(lo / 2.0) == 1 and hi / 2.0 not in args


# ------------------------------------------------------------ x-law update

def test_regularize_cov_factors_each_covariance_once(monkeypatch):
    cholesky = em.cholesky_lower
    calls = []
    monkeypatch.setattr(em, "cholesky_lower", lambda a: calls.append(a) or cholesky(a))
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    (out, chol), ridged = _regularize_cov(cov[None])
    assert ridged is False and len(calls) == 1
    np.testing.assert_array_equal(out, cov[None])
    np.testing.assert_array_equal(chol, cholesky(cov)[None])
    calls.clear()
    # rank one: the one stacked factorization fails, and nothing is ridged
    with pytest.raises(DegenerateFitError, match="^singular covariance$"):
        _regularize_cov(np.stack([cov, np.ones((2, 2))]))
    assert len(calls) == 1
    with pytest.raises(DegenerateFitError, match="^singular covariance$"):
        _regularize_cov(np.zeros((1, 2, 2)))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_weighted_ls_stacked_matches_per_component_fit(d):
    r = np.random.default_rng(d)
    n, G = 50, 3
    x = r.normal(size=(n, d), scale=3)
    y = x @ r.normal(size=d) + r.normal(size=n)
    w = r.uniform(0.05, 2.0, size=(n, G))
    design = np.column_stack([x, np.ones(n)])
    const = em._start_constants(Dataset(x, y))
    slopes, intercepts = em._weighted_ls(const.outer, const.design_y, w)
    assert slopes.shape == (G, d) and intercepts.shape == (G,)
    for g in range(G):
        weighted = design * w[:, g, None]
        beta = densities.solve_spd(design.T @ weighted, weighted.T @ y)
        np.testing.assert_allclose(slopes[g], beta[:-1], rtol=1e-12, atol=1e-12)
        assert intercepts[g] == pytest.approx(beta[-1], rel=1e-12, abs=1e-12)
    # one component whose weight sits on d points cannot fit d + 1 coefficients
    w[:, 1] = 0.0
    w[:d, 1] = 1.0
    with pytest.raises(DegenerateFitError, match="singular weighted design"):
        em._weighted_ls(const.outer, const.design_y, w)


def test_m_step_refuses_a_singular_x_covariance(monkeypatch):
    r = np.random.default_rng(8)
    n = 60
    x = r.normal(size=(n, 2))
    x[:10, 1] = x[:10, 0]
    y = x @ np.array([1.0, -1.0]) + r.normal(size=n)
    data = Dataset(x, y)
    resp = np.zeros((n, 2))
    resp[:30, 0] = resp[30:, 1] = 1.0
    # component 0's x weights vanish off the line x2 = x1, so its weighted x
    # covariance is exactly rank one; its y weights do not, so its regression
    # is well posed
    ux = np.ones((n, 2))
    ux[10:30, 0] = 0.0
    monkeypatch.setattr(em, "_latent_weights", lambda *a: (ux, np.ones((n, 2))))
    regularize = em._regularize_cov
    calls = []
    monkeypatch.setattr(em, "_regularize_cov", lambda covs: calls.append(covs) or regularize(covs))
    config = FitConfig(G=2, variant="t_cwm")
    with pytest.raises(DegenerateFitError, match="^singular covariance$"):
        em._m_step(data, config, resp, None, None, em._start_constants(data))
    assert len(calls) == 1
    # without the singular component one stacked factorization builds both
    calls.clear()
    ux[10:30, 0] = 1.0
    model, _ = em._m_step(data, config, resp, None, None, em._start_constants(data))
    assert len(calls) == 1
    for g in range(2):
        w = resp[:, g] * ux[:, g]
        mu = w @ x / w.sum()
        cov = (w[:, None] * (x - mu)).T @ (x - mu) / 30.0
        np.testing.assert_allclose(model.scatter[g], cov, rtol=1e-12)
        np.testing.assert_allclose(model.center[g], mu, rtol=1e-12)


# ------------------------------------------------------------------------ fit

def test_fit_one_group_matches_closed_form():
    r = np.random.default_rng(77)
    n = 400
    x = r.normal(size=(n, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]]) + np.array([1.0, -2.0])
    y = 0.5 + x @ np.array([2.0, -1.0]) + r.normal(scale=1.5, size=n)
    data = Dataset(x, y)
    res = fit(data, FitConfig(G=1, variant="gaussian_cwm", n_starts=1))
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
        Dataset(x, y), FitConfig(G=1, variant="gaussian_cwm", n_starts=1)
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
    res = fit(data, FitConfig(G=1, variant="fmg", n_starts=1))
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


def _one_hot(labels, G):
    """The hard partition of ``labels`` (1..G) as N-by-G responsibilities."""
    return np.eye(G)[labels - 1]


def test_fit_given_labels_stays_near_truth():
    # EM started from the true partition
    r = np.random.default_rng(31)
    data = make_example1(r)
    res = em._run_start(data, FitConfig(G=2, variant="gaussian_cwm"), _one_hot(data.labels, 2), 0)
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
    config = FitConfig(G=2, variant=variant, n_starts=2, max_iter=150, seed=3)
    if variant == "t_cwm":
        # one component of either start shrinks onto a few points, a rising
        # likelihood spike: plain EM (oracles.plain_em) is still climbing it
        # at 150 iterations and collapses within 300, and SQUAREM gets there
        # within 150, so every start is degenerate
        with pytest.raises(DegenerateFitError, match="mass below d"):
            fit(data, config)
        for start in range(config.n_starts):
            resp0 = initialize(data, config, np.random.default_rng([config.seed, start]))
            with pytest.raises(DegenerateFitError, match="mass below d"):
                oracles.plain_em(data, dataclasses.replace(config, max_iter=300), resp0)
        return
    res = fit(data, config)
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


def _near_constant_x2():
    # x2 varies by 1e-8 about 1e-3: the x covariance does not factor at any
    # M-step, while the design [x, 1] still does
    r = np.random.default_rng(0)
    x1 = r.normal(size=40)
    x = np.column_stack([x1, 1e-3 + 1e-8 * r.normal(size=40)])
    return Dataset(x, 3.0 * x1 + r.normal(size=40))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: fit(_near_constant_x2(), FitConfig(G=2)),
                 DegenerateFitError, "singular covariance",
                 id="singular-covariance"),
])
def test_degenerate_start_is_reported(call, error, message):
    with pytest.raises(error, match=message):
        call()


#: One k-means start (seed 1), at most 100 ECME iterations on builtin designs
#: drawn with seed 1: final loglik, iteration count, and (x dof, y dof) per
#: component.  Recorded with the guarded one-step dof update (``_solve_dof``),
#: the digamma that recurs to x >= 10 and SQUAREM cycles (``em._run_start``);
#: every fit converges before the cap.
T_FIT_PINS = {
    ("ex4_s2", "t_cwm"): (-2229.9716779003465, 41, [
        (5.086870517682762, 1.0068445370787333),
        (1.9377606822866433, 1.0583885620760056),
        (4.181343811556298, 0.9375262325042608)]),
    ("ex4_s2", "fmt"): (-2211.265388161446, 26, [
        (127.25413589243011, 128.2541358924301),
        (0.8227942506893611, 1.822794250689361),
        (6.4297750289382325, 7.4297750289382325)]),
    ("ex6_s2", "t_cwm"): (-3133.772406645497, 28, [
        (1.0774171619209592, 0.5973813563236328),
        (200.0, 14.44755742963212)]),
    ("ex6_s2", "fmt"): (-3071.6664279645693, 20, [
        (0.8811888836451399, 2.88118888364514),
        (200.0, 202.0)]),
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


#: One k-means start (seed 1), at most 100 EM iterations on builtin designs
#: drawn with seed 1: final loglik, iteration count and converged.  Recorded
#: with the stacked E- and M-steps in SQUAREM cycles (``em._run_start``).
GAUSSIAN_FIT_PINS = {
    ("ex4_s2", "gaussian_cwm"): (-2429.051912901104, 15, True),
    ("ex4_s2", "fmg"): (-2429.051912901104, 15, True),
    ("ex4_s2", "fmr"): (-1399.4358072241255, 23, True),
    ("ex4_s2", "fmrc"): (-1390.0160714056572, 21, True),
    ("ex6_s2", "gaussian_cwm"): (-3502.2249463762437, 8, True),
    ("ex6_s2", "fmg"): (-3502.2249463762437, 8, True),
    ("ex6_s2", "fmr"): (-1419.2473976090582, 21, True),
    ("ex6_s2", "fmrc"): (-1266.2477730909964, 35, True),
}


@pytest.mark.parametrize("name, variant", sorted(GAUSSIAN_FIT_PINS))
def test_fit_gaussian_variants_reproduce_pinned_fits(name, variant):
    loglik, n_iter, converged = GAUSSIAN_FIT_PINS[name, variant]
    spec = builtin_scenario(name).with_seed(1)
    res = fit(generate(spec), FitConfig(G=len(spec.groups), variant=variant, seed=1,
                                        n_starts=1, max_iter=100))
    assert res.loglik_trace[-1] == pytest.approx(loglik, rel=1e-9)
    assert res.n_iter == n_iter
    assert res.converged == converged


@pytest.mark.parametrize("d", (1, 2, 3))
def test_fmt_latent_weight_is_joint_t_weight(d):
    r = np.random.default_rng(d)
    model = random_model(r, "fmt", 3, d)
    x, y = random_points(r, 40, d)
    z = np.column_stack([x, y])
    stack = _stack(model)
    ux, uy = _latent_weights(stack, _component_distances(stack, x, y))
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
        np.testing.assert_allclose(ux[:, g], want, rtol=1e-10)
        np.testing.assert_array_equal(uy[:, g], ux[:, g])


@pytest.mark.parametrize("name", ("ex1", "ex4_s2", "ex6_s2"))
@pytest.mark.parametrize("variant", ("t_cwm", "fmt"))
def test_fit_t_variants_converge_before_the_cap(name, variant):
    # the ECME dof step: the t fits reach a fixed point well inside max_iter,
    # and the observed log-likelihood never falls on the way
    spec = builtin_scenario(name).with_seed(1)
    res = fit(generate(spec), FitConfig(G=len(spec.groups), variant=variant, seed=1,
                                        n_starts=1, max_iter=500))
    assert res.converged
    trace = res.loglik_trace
    assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[1:]))


@pytest.mark.parametrize("variant", VARIANTS)
def test_m_step_hands_the_e_step_its_distances(variant):
    # the distances the M-step returns are those of the model it returns:
    # bit for bit a fresh whitening, residual and log gate of the new model
    data = generate(builtin_scenario("ex4_s2").with_seed(1))
    assert_m_step_hands_off_its_distances(data, FitConfig(G=3, variant=variant, n_starts=1))


def assert_m_step_hands_off_its_distances(data, config):
    """Three M-steps from a k-means start: the distances each returns are bit
    for bit a fresh ``_component_distances`` of the model it returns."""
    const = em._start_constants(data)
    resp = initialize(data, config, np.random.default_rng([0, 0]))
    model, dist = em._m_step(data, config, resp, None, None, const)
    for _ in range(3):
        for got, want in zip(dist, _component_distances(model, data.x, data.y)):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
        terms = em._log_component_terms(model, dist)
        resp = np.exp(terms - densities.log_sum_exp(terms, axis=1)[:, None])
        model, dist = em._m_step(data, config, resp, model, dist, const)


@pytest.mark.parametrize("variant", VARIANTS)
def test_m_step_hands_the_e_step_its_bivariate_distances(variant):
    # as above with d = 2, where whitening and residuals sum over x's
    # coordinates: the M-step's N-innermost products give the same bits
    spec = builtin_scenario("ex6_s2").with_seed(1)
    data = generate(spec)
    assert data.d == 2
    assert_m_step_hands_off_its_distances(
        data, FitConfig(G=len(spec.groups), variant=variant, n_starts=1))


@pytest.mark.parametrize("variant", VARIANTS)
def test_m_step_hands_the_e_step_its_distances_in_four_dimensions(variant):
    # at d = 4 the residuals' slope product goes through BLAS, whose bits
    # depend on the layout of x; scoring lays x out as the M-step does, so
    # the hand-off stays exact
    r = np.random.default_rng(4)
    labels = r.integers(0, 3, size=400)
    x = r.normal(size=(400, 4)) @ r.normal(size=(4, 4)) + 3.0 * labels[:, None]
    data = Dataset(x, x @ r.normal(size=4) + labels + r.normal(size=400))
    assert_m_step_hands_off_its_distances(data, FitConfig(G=3, variant=variant, n_starts=1))


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_builds_one_model_per_distinct_start(monkeypatch, variant):
    # EM iterates on the stacked record; each start that runs builds its
    # validated model once, at the end
    built, ran = [], []
    post_init = CwmModel.__post_init__
    monkeypatch.setattr(CwmModel, "__post_init__", lambda self: built.append(1) or post_init(self))
    run_start = em._run_start

    def counted(*args):
        result = run_start(*args)
        ran.append(result.n_iter)
        return result

    monkeypatch.setattr(em, "_run_start", counted)
    spec = builtin_scenario("ex4_s2").with_seed(1)
    fit(generate(spec), FitConfig(G=3, variant=variant, n_starts=3, max_iter=20))
    assert len(ran) >= 2 and min(ran) > 2
    assert len(built) == len(ran)


@pytest.mark.parametrize(
    "name, G, variant, max_iter, n_iter",
    [("ex4_s2", 3, variant, max_iter, max_iter) for variant in VARIANTS for max_iter in (1, 2, 3)]
    + [("ex1", 2, "gaussian_cwm", 500, 9)],
)
def test_run_start_runs_one_m_step_per_e_step(monkeypatch, name, G, variant, max_iter, n_iter):
    # each iteration is one M-step and then one E-step: a start capped at
    # max_iter runs max_iter of each, and one that converges runs one of each
    # per log-likelihood it records
    calls = {"_m_step": 0, "_log_component_terms": 0}

    def counting(target, inner):
        def counted(*args):
            calls[target] += 1
            return inner(*args)
        return counted

    for target in calls:
        monkeypatch.setattr(em, target, counting(target, getattr(em, target)))
    data = generate(builtin_scenario(name).with_seed(1))
    res = fit(data, FitConfig(G=G, variant=variant, n_starts=1, max_iter=max_iter))
    assert res.n_iter == len(res.loglik_trace) == n_iter
    assert calls == {"_m_step": n_iter, "_log_component_terms": n_iter}
    assert res.converged == (n_iter < max_iter)


def _run_start_recording(monkeypatch, data, config, resp0, start):
    """``em._run_start``'s result and the responsibilities of its last
    recorded E-step.  Those are the last ``em._e_step`` call's: a start's
    loop ends on a recorded iteration, and a stabilizing iteration's E-step
    comes after the extrapolated record's."""
    e_step, resps = em._e_step, []

    def recording(stack, dist):
        resp, loglik = e_step(stack, dist)
        resps.append(resp)
        return resp, loglik

    with monkeypatch.context() as patch:
        patch.setattr(em, "_e_step", recording)
        return em._run_start(data, config, resp0, start), resps[-1]


@pytest.mark.parametrize("name", ("ex4_s2", "ex6_s2"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_model_scores_its_own_responsibilities(monkeypatch, name, variant):
    # the model a fit returns, scored afresh, gives the returned start's last
    # recorded E-step's responsibilities and log-likelihood bit for bit
    spec = builtin_scenario(name).with_seed(1)
    data = generate(spec)
    config = FitConfig(G=len(spec.groups), variant=variant, n_starts=3)
    res = fit(data, config)
    resp0 = initialize(data, config, np.random.default_rng([config.seed, res.start_index]))
    again, resp = _run_start_recording(monkeypatch, data, config, resp0, res.start_index)
    np.testing.assert_array_equal(again.loglik_trace, res.loglik_trace)
    np.testing.assert_array_equal(res.responsibilities, resp)
    assert joint_logpdf(res.model, data.x, data.y).sum() == res.loglik_trace[-1]


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_result_keeps_its_data_and_no_n_row_array(variant):
    # a result holds its data by reference and no array of N rows of its
    # own; its responsibilities are computed again on each read
    spec = builtin_scenario("ex4_s2").with_seed(1)
    data = generate(spec)
    res = fit(data, FitConfig(G=len(spec.groups), variant=variant, seed=1))
    assert res.data is data
    assert not [name for name, value in vars(res).items()
                if isinstance(value, np.ndarray) and value.ndim and value.shape[0] == data.n]
    first, second = res.responsibilities, res.responsibilities
    assert first is not second and not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, second)


def test_fit_never_recomputes_the_distances(monkeypatch):
    # every plain and stabilizing E-step reads the distances its M-step
    # returned; only a SQUAREM-extrapolated record, which no M-step set, has
    # its distances computed, once, and its one E-step reads them
    handed, extrapolated, computed, scored = [], [], [], []
    m_step, from_coordinates, distances = em._m_step, em._from_coordinates, em._component_distances
    terms = em._log_component_terms

    def recompute(*args):
        raise AssertionError("scoring recomputed the distances")

    def handing(*args):
        out = m_step(*args)
        handed.append(out[:2])
        return out

    def extrapolating(*args):
        extrapolated.append(from_coordinates(*args))
        return extrapolated[-1]

    def computing(stack, *args):
        assert stack is extrapolated[-1] and all(stack is not done for done, _ in computed)
        computed.append((stack, distances(stack, *args)))
        return computed[-1][1]

    def reading(stack, dist):
        if computed and dist is computed[-1][1]:
            assert stack is computed[-1][0]
            scored.append(stack)
        else:
            assert stack is handed[-1][0] and dist is handed[-1][1]
        return terms(stack, dist)

    monkeypatch.setattr(model_module, "_component_distances", recompute)
    monkeypatch.setattr(em, "_m_step", handing)
    monkeypatch.setattr(em, "_from_coordinates", extrapolating)
    monkeypatch.setattr(em, "_component_distances", computing)
    monkeypatch.setattr(em, "_log_component_terms", reading)
    spec = builtin_scenario("ex4_s2").with_seed(1)
    data = generate(spec)
    for variant in VARIANTS:
        res = fit(data, FitConfig(G=3, variant=variant, n_starts=2, max_iter=20))
        assert res.n_iter > 1
    # some records were extrapolated, and each was scored once
    assert computed and len(scored) == len(computed)
    assert all(stack is read for (stack, _), read in zip(computed, scored))


def test_fit_t_heavy_tailed_y_law_settles_on_the_dof_floor():
    # ex6_s2, data seed 2: one component's regression noise is heavy-tailed
    # enough that its y dof lands on the bracket's lower edge
    data = generate(builtin_scenario("ex6_s2").with_seed(2))
    res = fit(data, FitConfig(G=2, variant="t_cwm", seed=2, n_starts=1))
    assert res.converged
    comps = list(res.model.components)
    g = [c.y_conditional.dof for c in comps].index(0.5)
    cond = comps[g].y_conditional
    # the floor is the constrained maximum: the observed log-likelihood falls
    # as that dof leaves it, all else fixed
    loglik = res.loglik_trace[-1]
    for nu in (0.51, 0.6, 1.0):
        comps[g] = Component(comps[g].weight, comps[g].x_marginal,
                             Conditional(cond.map, cond.noise_scale, dof=nu))
        assert joint_logpdf(CwmModel("t_cwm", tuple(comps)), data.x, data.y).sum() < loglik
    # and it binds, but hides no spike: at the fitted line and scale the y
    # law's own objective peaks just below 0.5, gaining less than a
    # thousandth of a nat there, and falls steeply towards 0
    delta = ((data.y - cond.map(data.x)) / cond.noise_scale) ** 2
    resp = res.responsibilities[:, g]
    with mp.workdps(30):
        objective = lambda nu: t_objective(delta, resp, 1, nu)  # noqa: E731
        peak = mp.findroot(lambda nu: mp.diff(objective, nu), (0.25, 0.5), solver="anderson")
        assert 0.25 < peak < 0.5
        assert 0 < objective(peak) - objective(0.5) < 1e-3
        assert objective(0.1) < objective(0.5) - 100


def test_fit_t_one_group_dof_recovery():
    r = np.random.default_rng(55)
    n = 10_000
    x = 1.0 + 2.0 * r.standard_t(5, size=n)
    y = 1.0 + 2.0 * x + 0.5 * r.standard_t(5, size=n)
    data = Dataset(x[:, None], y)
    res = fit(
        data, FitConfig(G=1, variant="t_cwm", n_starts=1, max_iter=300)
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
        data, FitConfig(G=1, variant="fmt", n_starts=1, max_iter=300)
    )
    comp = res.model.components[0]
    nu = comp.x_marginal.dof
    assert 3.5 <= nu <= 8.0
    assert comp.y_conditional.dof == pytest.approx(nu + 1.0)
    assert abs(comp.x_marginal.scale[0, 0] - 4.0) < 0.6


def test_fmt_record_holds_one_dof():
    # the record EM iterates on keeps fitted parameters only: no
    # log-determinant, and fmt's y dof nu + d is not a field of its own; the
    # fitted model's conditional dofs are its x dofs + d exactly
    spec = builtin_scenario("ex4_s2").with_seed(1)
    data = generate(spec)
    config = FitConfig(G=len(spec.groups), variant="fmt", n_starts=1)
    resp = initialize(data, config, np.random.default_rng([config.seed, 0]))
    record = em._m_step(data, config, resp, None, None, em._start_constants(data))[0]
    assert "log_det" not in record._fields
    assert record.nu is not None and record.zeta is None
    model = fit(data, config).model
    assert _stack(model).zeta is None
    for comp in model.components:
        assert comp.y_conditional.dof == comp.x_marginal.dof + data.d


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
    return np.array([np.append(g.slope, g.intercept) for g in gating[1:]])


def gating_step(x, resp, theta):
    # one gating M-step from the gating rows ``theta``, before any E-step has run
    const = em._start_constants(Dataset(x, np.zeros(len(x))))
    return _fit_gating(x, resp, theta, None, const.design, const.outer)[0]


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
        warm = [LinearMap(np.zeros(2), 0.0)] + [
            LinearMap(r.normal(size=2, scale=spread), float(r.normal(scale=spread))) for _ in range(2)
        ]
        before, _ = gating_objective_and_grad(x, resp, gating_theta(warm))
        after, _ = gating_objective_and_grad(x, resp, gating_step(x, resp, gating_theta(warm)))
        assert after >= before - 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_fit_gating_repeated_steps_reach_full_m_step_optimum(seed):
    from scipy.optimize import minimize

    x, resp = gating_problem(seed)
    theta = np.zeros((2, 3))
    for _ in range(50):
        theta = gating_step(x, resp, theta)
    value, grad = gating_objective_and_grad(x, resp, theta)
    assert np.max(np.abs(grad)) < 1e-8
    # the baseline has no row: only the other components' gates move
    assert theta.shape == (2, 3)
    # independent optimizer on the same concave objective finds no better point
    ref = minimize(
        lambda t: -gating_objective_and_grad(x, resp, t.reshape(theta.shape))[0],
        np.zeros(theta.size),
        jac=lambda t: -gating_objective_and_grad(x, resp, t.reshape(theta.shape))[1].ravel(),
        method="BFGS",
        options={"gtol": 1e-10},
    )
    assert value >= -ref.fun - 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_fit_gating_reuses_the_e_step_log_gate(monkeypatch, seed):
    x, resp = gating_problem(seed)
    r = np.random.default_rng(200 + seed)
    warm = [LinearMap(np.zeros(2), 0.0)] + [LinearMap(r.normal(size=2), float(r.normal())) for _ in range(2)]
    theta = gating_theta(warm)
    logits = _gate_logits(x, theta)
    log_gate = logits - densities.log_sum_exp(logits, axis=0)
    const = em._start_constants(Dataset(x, np.zeros(len(x))))
    calls = []
    log_sum_exp = em.log_sum_exp
    monkeypatch.setattr(em, "log_sum_exp", lambda *a, **k: calls.append(1) or log_sum_exp(*a, **k))
    fresh = _fit_gating(x, resp, theta, None, const.design, const.outer)
    without = len(calls)
    calls.clear()
    reused = _fit_gating(x, resp, theta, log_gate, const.design, const.outer)
    # the same step and log gate, one log-softmax fewer
    assert len(calls) == without - 1 >= 1
    np.testing.assert_array_equal(reused[0], fresh[0])
    np.testing.assert_array_equal(reused[1], fresh[1])


@pytest.mark.parametrize("seed", range(3))
def test_fit_gating_hoisted_outer_takes_the_same_step(seed):
    # the Hessian's per-point blocks depend on x only: computed once per
    # start, they give the step that blocks formed here give, bit for bit
    x, resp = gating_problem(seed)
    warm = np.zeros((2, 3))
    const = em._start_constants(Dataset(x, np.zeros(len(x))))
    design = np.column_stack([x, np.ones(len(x))])
    outer = np.einsum("ni,nj->nij", design, design).reshape(len(x), -1)
    np.testing.assert_array_equal(
        _fit_gating(x, resp, warm, None, const.design, const.outer)[0],
        _fit_gating(x, resp, warm, None, design, outer)[0])


def test_fit_gating_keeps_theta_when_the_ridged_hessian_does_not_factor(monkeypatch):
    # two equal columns of scale 1e4 make the Hessian singular: the ridged
    # Hessian's pivot (1.7e-6) falls below the relative floor (1.2e-3)
    r = np.random.default_rng(0)
    x1 = 1e4 * r.normal(size=60)
    x = np.column_stack([x1, x1])
    resp = r.dirichlet(np.ones(2), size=60)
    theta = np.zeros((1, 3))
    const = em._start_constants(Dataset(x, np.zeros(60)))
    raised = []
    solve_spd = em.solve_spd

    def recording_solve(*args):
        try:
            return solve_spd(*args)
        except ValueError as err:
            raised.append(str(err))
            raise

    monkeypatch.setattr(em, "solve_spd", recording_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        new_theta, log_gate = _fit_gating(x, resp, theta, None, const.design, const.outer)
    assert len(raised) == 1 and "not positive definite" in raised[0]
    assert new_theta is theta
    logits = _gate_logits(x, theta)
    np.testing.assert_array_equal(log_gate, logits - densities.log_sum_exp(logits, axis=0))


@pytest.mark.parametrize("name", ("ex1", "ex6_s2"))
def test_fit_fmrc_with_one_component_is_fmr(name):
    # one component has no gate to fit: its log gate is 0, as is fmr's log weight
    data = generate(builtin_scenario(name).with_seed(1))
    fmrc = fit(data, FitConfig(G=1, variant="fmrc", n_starts=1))
    fmr = fit(data, FitConfig(G=1, variant="fmr", n_starts=1))
    np.testing.assert_array_equal(fmrc.loglik_trace, fmr.loglik_trace)
    assert len(fmrc.model.gating) == 1


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
        fit(data, FitConfig(G=4, n_starts=3, seed=1))


def test_fit_abandons_a_start_at_a_non_finite_log_likelihood(monkeypatch):
    terms, calls = em._log_component_terms, []

    def nan_on_third_call(*args):
        out = terms(*args)
        calls.append(None)
        if len(calls) == 3:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(em, "_log_component_terms", nan_on_third_call)
    data = generate(builtin_scenario("ex4_s2").with_seed(1))
    with pytest.raises(DegenerateFitError) as err:
        fit(data, FitConfig(G=3, n_starts=1, seed=1))
    assert str(err.value) == "start 0: non-finite log-likelihood"
    assert len(calls) == 3


@pytest.mark.xfail(raises=DegenerateFitError, strict=True, reason=(
    "_weighted_ls factors the weighted Gram matrix of the uncentred design [x, 1]: its intercept "
    "pivot is about S1 var(x) / E[x^2], below the 1e-12 S1 E[x^2] floor at x + 1e4, so every start "
    "is a singular weighted design.  fmrc is left out: its gating Newton step works on the same "
    "uncentred design, so centring the least squares alone does not make its fit shift-invariant."))
def test_fit_is_invariant_to_shifting_x():
    data = generate(builtin_scenario("ex4_s2").with_seed(1))
    shifted = Dataset(data.x + 1e4, data.y, data.labels)
    for variant in ("gaussian_cwm", "t_cwm", "fmg", "fmt", "fmr"):
        config = FitConfig(G=3, variant=variant, seed=1)
        moved = fit(shifted, config).loglik_trace[-1]
        assert moved == pytest.approx(fit(data, config).loglik_trace[-1], rel=1e-9)


def _partitions(data, config):
    """Each start's initial partition, as fit() draws it."""
    return [initialize(data, config, np.random.default_rng([config.seed, start]))
            .argmax(axis=1).tobytes() for start in range(config.n_starts)]


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name", ("ex4_s2", "ex6_s2"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_trace_never_decreases_from_any_start(variant, name, seed):
    # EM's iterations and the SQUAREM stabilizing iterations that are kept
    # never lower the observed log-likelihood beyond rounding, from every
    # distinct start of a default fit; for t_cwm and fmt the guarded dof
    # step is what keeps ECME a GEM
    spec = builtin_scenario(name).with_seed(seed)
    data = generate(spec)
    config = FitConfig(G=len(spec.groups), variant=variant, seed=seed)
    partitions = _partitions(data, config)
    for start in sorted({partitions.index(p) for p in partitions}):
        resp0 = initialize(data, config, np.random.default_rng([config.seed, start]))
        try:
            trace = em._run_start(data, config, resp0, start).loglik_trace
        except DegenerateFitError:
            continue
        assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[1:])), start


#: The largest relative gap allowed between the final log-likelihoods of
#: SQUAREM and plain EM from one start at rel_tol 1e-12.  Fixed before the
#: test ran, from a measured largest gap of 2.41e-12 (ex4_s2 fmt, under the
#: default and the Prescott OpenBLAS kernels alike).
SQUAREM_GAP = 1e-11


@pytest.mark.parametrize("name", ("ex4_s2", "ex6_s2"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_squarem_reaches_the_plain_em_optimum(name, variant):
    # from one k-means start, SQUAREM and plain EM run to a tight stop reach
    # the same stationary point; SQUAREM needs no more iterations
    spec = builtin_scenario(name).with_seed(1)
    data = generate(spec)
    config = FitConfig(G=len(spec.groups), variant=variant, seed=1, rel_tol=1e-12, max_iter=100_000)
    resp0 = initialize(data, config, np.random.default_rng([config.seed, 0]))
    plain, _ = oracles.plain_em(data, config, resp0.copy())
    fast = em._run_start(data, config, resp0, 0)
    assert plain.converged and fast.converged and fast.n_iter <= plain.n_iter
    gap = fast.loglik_trace[-1] - plain.loglik_trace[-1]
    assert abs(gap) <= SQUAREM_GAP * abs(plain.loglik_trace[-1])


def assert_same_fit(got, want, want_resp):
    """``got`` is the fit ``want`` bit for bit, and its responsibilities are
    ``want_resp``, those of ``want``'s last recorded E-step."""
    np.testing.assert_array_equal(got.loglik_trace, want.loglik_trace)
    np.testing.assert_array_equal(got.responsibilities, want_resp)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)
    assert model_to_dict(got.model) == model_to_dict(want.model)


def _count_extrapolations(monkeypatch):
    """The records whose distances ``_run_start`` computes afresh: the
    extrapolated ones."""
    distances, computed = em._component_distances, []
    monkeypatch.setattr(em, "_component_distances", lambda *a: computed.append(a[0]) or distances(*a))
    return computed


@pytest.mark.parametrize("name", ("ex4_s2", "ex6_s2"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_that_never_extrapolates_is_plain_em(monkeypatch, name, variant):
    # with the step cap held at 1 every extrapolated record would be the
    # second plain iteration itself, so no cycle extrapolates and the start
    # is plain EM, bit for bit
    monkeypatch.setattr(em, "_STEP_GROWTH", 1.0)
    computed = _count_extrapolations(monkeypatch)
    spec = builtin_scenario(name).with_seed(1)
    data = generate(spec)
    config = FitConfig(G=len(spec.groups), variant=variant, seed=1)
    resp0 = initialize(data, config, np.random.default_rng([config.seed, 0]))
    assert_same_fit(em._run_start(data, config, resp0.copy(), 0), *oracles.plain_em(data, config, resp0))
    assert computed == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_failed_stabilizing_step_is_discarded(monkeypatch, variant):
    # a stabilizing M-step (the one that reads an extrapolated record's fresh
    # distances) that raises DegenerateFitError is dropped, and the start
    # goes on: every recorded iteration is then plain EM's, bit for bit
    computed = _count_extrapolations(monkeypatch)
    m_step, failed = em._m_step, []

    def failing(data, config, resp, old, old_dist, const):
        if old is not None and computed and old is computed[-1]:
            failed.append(old)
            raise DegenerateFitError("forced")
        return m_step(data, config, resp, old, old_dist, const)

    monkeypatch.setattr(em, "_m_step", failing)
    spec = builtin_scenario("ex4_s2").with_seed(1)
    data = generate(spec)
    config = FitConfig(G=len(spec.groups), variant=variant, seed=1)
    resp0 = initialize(data, config, np.random.default_rng([config.seed, 0]))
    got = em._run_start(data, config, resp0.copy(), 0)
    assert failed and len(failed) == len(computed)
    assert_same_fit(got, *oracles.plain_em(data, config, resp0))


#: The largest projected gradient of the log-likelihood allowed at a tight
#: fit, in SQUAREM's coordinates: for every coordinate but the log dofs, and
#: for an interior log dof.  Fixed before the test ran, from measured
#: largest gradients of 1.03e-4 (ex6_s2 fmrc) and 3.7e-6 (ex4_s2 t_cwm), alike
#: on the default and the Prescott OpenBLAS kernels.
KKT_GRADIENT = 5e-4
KKT_DOF_GRADIENT = 2e-5


@pytest.mark.parametrize("name", ("ex1", "ex4_s2", "ex6_s2"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_tight_fit_is_stationary(name, variant):
    # the point EM stops at is stationary for the observed log-likelihood,
    # judged by finite differences rather than by any M-step formula (the
    # ECME dof step, fmt's joint weight, the gating step); a dof on a bracket
    # edge need only have the likelihood rise beyond the edge
    spec = builtin_scenario(name).with_seed(1)
    data = generate(spec)
    res = fit(data, FitConfig(G=len(spec.groups), variant=variant, seed=1, n_starts=1, rel_tol=1e-14))
    assert res.converged
    gradient, dof = oracles.projected_gradient(data, res.model)
    assert np.max(np.abs(gradient[~dof])) <= KKT_GRADIENT
    assert np.all(np.abs(gradient[dof]) <= KKT_DOF_GRADIENT)


def test_fit_result_counts_its_iterations_from_its_trace():
    # n_iter is the trace's length, not a field a constructor could set apart
    assert "n_iter" not in {field.name for field in dataclasses.fields(em.FitResult)}
    data = make_example1(np.random.default_rng(1), 30, 40)
    res = fit(data, FitConfig(G=2, n_starts=1))
    assert res.n_iter == len(res.loglik_trace) > 0
    with pytest.raises(AttributeError):
        res.n_iter = 1


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("variant", VARIANTS)
def test_coordinates_round_trip_every_variant(variant, d):
    # the unconstrained coordinates map back to the record, and a dof on a
    # bracket edge comes back on that edge exactly
    stack = _stack(random_model(np.random.default_rng(d), variant, G=3, d=d))
    if stack.nu is not None:
        nu = np.array([200.0, 0.5, 7.0])
        stack = stack._replace(nu=nu, zeta=None if stack.zeta is None else nu[::-1].copy())
    back = em._from_coordinates(stack, em._coordinates(stack))
    assert back.variant == stack.variant
    for field in stack._fields[1:]:
        want, got = getattr(stack, field), getattr(back, field)
        if want is None:
            assert got is None, field
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=field)
    if stack.nu is not None:
        assert back.nu[0] == 200.0 and back.nu[1] == 0.5


@pytest.mark.parametrize("variant", VARIANTS)
def test_stabilized_drops_an_overflowing_extrapolation_quietly(variant):
    # a step that overflows the coordinates, or sends the log weights, noise
    # scales and factor diagonals to underflow, is a failed extrapolation,
    # None without a warning; a step that stays on the record is an iteration
    data = generate(builtin_scenario("ex4_s2").with_seed(1))
    config = FitConfig(G=3, variant=variant)
    const = em._start_constants(data)
    resp = initialize(data, config, np.random.default_rng([0, 0]))
    stack = em._m_step(data, config, resp, None, None, const)[0]
    c0 = em._coordinates(stack)
    ones, zeros = np.ones_like(c0), np.zeros_like(c0)
    assert assert_no_warning(em._stabilized, data, config, stack, c0, ones, ones, 1e200, const) is None
    assert assert_no_warning(em._stabilized, data, config, stack, c0, zeros, -ones, 100.0, const) is None
    got = assert_no_warning(em._stabilized, data, config, stack, c0, zeros, zeros, 2.0, const)
    assert got is not None and math.isfinite(got[-1])


def _count_run_start(monkeypatch, fail=None):
    """Start indices _run_start is called with; with ``fail``, a reason or a
    dict of reasons by start index, each call (or each call of a start in
    the dict) raises DegenerateFitError(reason) instead of fitting."""
    run_start, calls = em._run_start, []

    def counted(data, config, resp, start_index, *args, **kwargs):
        calls.append(start_index)
        reason = fail.get(start_index) if isinstance(fail, dict) else fail
        if reason is not None:
            raise DegenerateFitError(reason)
        return run_start(data, config, resp, start_index, *args, **kwargs)

    monkeypatch.setattr(em, "_run_start", counted)
    return calls


@pytest.mark.parametrize("name, variant", [("ex2", "gaussian_cwm"), ("ex4_s2", "fmrc"),
                                           ("ex5_s4", "fmr"), ("ex6_s2", "t_cwm")])
def test_fit_runs_each_distinct_start_once(monkeypatch, name, variant):
    spec = builtin_scenario(name).with_seed(1)
    data = generate(spec)
    config = FitConfig(G=len(spec.groups), variant=variant, seed=1)
    # the reference runs every start and keeps the first of the best
    best = None
    for start in range(config.n_starts):
        resp0 = initialize(data, config, np.random.default_rng([config.seed, start]))
        try:
            res = em._run_start(data, config, resp0, start)
        except DegenerateFitError:
            continue
        if best is None or res.loglik_trace[-1] > best.loglik_trace[-1]:
            best = res
    partitions = _partitions(data, config)
    calls = _count_run_start(monkeypatch)
    got = fit(data, config)
    assert calls == sorted(partitions.index(p) for p in set(partitions))
    assert len(calls) < config.n_starts  # k-means repeats itself on these designs
    np.testing.assert_array_equal(got.loglik_trace, best.loglik_trace)
    np.testing.assert_array_equal(got.responsibilities, best.responsibilities)
    assert (got.start_index, got.n_iter, got.converged) == (
        best.start_index, best.n_iter, best.converged)
    assert model_to_dict(got.model) == model_to_dict(best.model)


def test_fit_draws_every_partition_before_running_a_start(monkeypatch):
    data = generate(builtin_scenario("ex4_s2").with_seed(1))
    draw, run, events = em.initialize, em._run_start, []
    monkeypatch.setattr(em, "initialize", lambda *a: events.append("draw") or draw(*a))
    monkeypatch.setattr(em, "_run_start", lambda *a: events.append("run") or run(*a))
    fit(data, FitConfig(G=3, seed=1))
    # two of the ten k-means partitions repeat an earlier one
    assert events == ["draw"] * 10 + ["run"] * 8


def test_fit_names_a_degenerate_duplicate_start(monkeypatch):
    # one group: every start draws the same partition, fitted once
    x = np.random.default_rng(0).normal(size=60)
    calls = _count_run_start(monkeypatch)
    with pytest.raises(DegenerateFitError) as err:
        fit(Dataset(x, 2.0 * x + 1.0), FitConfig(G=1))
    assert calls == [0]
    assert str(err.value) == "; ".join(
        ["start 0: collapsed noise variance"]
        + [f"start {j}: duplicate of start 0" for j in range(1, 10)])


def test_fit_every_start_degenerate_with_duplicates_raises(monkeypatch):
    data = generate(builtin_scenario("ex4_s2").with_seed(1))
    config = FitConfig(G=3, seed=1)
    partitions = _partitions(data, config)
    calls = _count_run_start(monkeypatch, fail="forced")
    with pytest.raises(DegenerateFitError) as err:
        fit(data, config)
    first = [partitions.index(p) for p in partitions]
    assert calls == sorted(set(first)) and len(calls) < config.n_starts
    assert str(err.value) == "; ".join(
        f"start {j}: forced" if k == j else f"start {j}: duplicate of start {k}"
        for j, k in enumerate(first))


def test_fit_survives_one_degenerate_start(monkeypatch):
    # ex6_s2's ten starts draw two partitions, first drawn by starts 0 and 1:
    # when start 0 degenerates, fit() returns start 1's fit
    data = generate(builtin_scenario("ex6_s2").with_seed(1))
    config = FitConfig(G=2, seed=1)
    partitions = _partitions(data, config)
    first = [partitions.index(p) for p in partitions]
    assert sorted(set(first)) == [0, 1]
    resp1 = initialize(data, config, np.random.default_rng([config.seed, 1]))
    want = _run_start_recording(monkeypatch, data, config, resp1, 1)
    fail = {0: "singular covariance"}
    calls = _count_run_start(monkeypatch, fail)
    got = fit(data, config)
    assert calls == [0, 1] and got.start_index == 1
    assert_same_fit(got, *want)
    # when start 1 degenerates too, each start is named with its reason
    fail[1] = "singular covariance"
    calls.clear()
    with pytest.raises(DegenerateFitError) as err:
        fit(data, config)
    assert calls == [0, 1]
    assert str(err.value) == "; ".join(
        f"start {j}: singular covariance" if k == j else f"start {j}: duplicate of start {k}"
        for j, k in enumerate(first))


#: fmrc's largest gaps between EM from a partition and from its relabelling,
#: on ``test_fit_relabel_equivariance_given_labels``'s data: in nats on the
#: log-likelihood trace, and relative to a field's largest entry on the
#: stacked parameters.  Fixed from measured gaps of 1.1e-13 nats and 2.1e-9
#: (the gating rows), alike on the default and the Prescott OpenBLAS
#: kernels; the gating step's ridge and its baseline component break the
#: symmetry, and ROADMAP item 23 tightens these.  The other variants are
#: equivariant bit for bit.
FMRC_RELABEL_TRACE_GAP = 1e-12
FMRC_RELABEL_PARAMETER_GAP = 2e-8


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_relabel_equivariance_given_labels(variant):
    # EM from the true partition and from the same partition relabelled: the
    # same trace and iteration count, and the same record with its two
    # components swapped (fmrc's one gating row, taken against the other
    # baseline, negated)
    r = np.random.default_rng(4)
    data = make_example1(r, 60, 90)
    cfg = FitConfig(G=2, variant=variant)
    a = em._run_start(data, cfg, _one_hot(data.labels, 2), 0)
    b = em._run_start(data, cfg, _one_hot(3 - data.labels, 2), 0)
    assert a.n_iter == b.n_iter
    trace_gap, parameter_gap = (FMRC_RELABEL_TRACE_GAP, FMRC_RELABEL_PARAMETER_GAP) if variant == "fmrc" else (0, 0)
    assert np.max(np.abs(a.loglik_trace - b.loglik_trace)) <= trace_gap
    stack_a, stack_b = _stack(a.model), _stack(b.model)
    for field in stack_a._fields[1:]:
        got, swapped = getattr(stack_a, field), getattr(stack_b, field)
        assert (got is None) == (swapped is None), field
        if got is not None:
            swapped = -swapped if field == "theta" else swapped[::-1]
            assert np.max(np.abs(got - swapped)) <= parameter_gap * np.max(np.abs(got)), field


def test_fit_requires_more_points_than_groups():
    data = Dataset(np.ones((3, 1)), np.arange(3.0))
    with pytest.raises(ValueError, match="more observations than groups"):
        fit(data, FitConfig(G=3))


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_refuses_a_constant_y(variant):
    # every line fits a constant y exactly, a fault of the data: fit() names
    # y instead of failing each start for a reason that does not name it
    x = generate(builtin_scenario("ex6_s2").with_seed(1)).x
    with pytest.raises(ValueError, match="y is constant"):
        fit(Dataset(x, np.full(len(x), 5.0)), FitConfig(G=2, variant=variant))


@pytest.mark.parametrize("name", ("ex4_s2", "ex6_s2"))
@pytest.mark.parametrize("which", ("x", "y"))
def test_fit_refuses_data_whose_squares_overflow(name, which):
    # x or y scaled so far that the M-step's sums of squares overflow is a
    # fault of the data: fit() names it before any start runs, instead of
    # failing every start, after overflow warnings, for a reason that does
    # not name it.  At every smaller scale no warning is raised: a scaled y
    # fits, and a scaled x fits or fails its starts (its uncentred design
    # [x, 1] can be singular)
    spec = builtin_scenario(name).with_seed(1)
    data = generate(spec)
    for k in (100, 130, 150, 152, 168):
        x, y = (data.x * 10.0**k, data.y) if which == "x" else (data.x, data.y * 10.0**k)
        for variant in VARIANTS:
            config = FitConfig(G=len(spec.groups), variant=variant, n_starts=2, max_iter=20)
            if k >= 152:
                with pytest.raises(ValueError, match=f"^{which} is too large"):
                    fit(Dataset(x, y), config)
                continue
            try:
                assert_no_warning(fit, Dataset(x, y), config)
            except DegenerateFitError:
                assert which == "x"
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("spread, refused", [(1e-14, True), (1e-12, True), (1e-10, False)])
def test_fit_refuses_a_y_spread_at_its_rounding_scale(variant, spread, refused):
    # y = 5 + spread * z: at 1e-12 and below the spread is within y's
    # rounding, where a fit runs unconverged or with a falling trace; the
    # noise variances are floored against max|y| as well as var(y), so such
    # a fit is refused
    x = generate(builtin_scenario("ex6_s2").with_seed(1)).x
    data = Dataset(x, 5.0 + spread * np.random.default_rng(0).standard_normal(350))
    config = FitConfig(G=2, variant=variant)
    if refused:
        with pytest.raises(DegenerateFitError, match="collapsed noise variance"):
            fit(data, config)
    else:
        res = fit(data, config)
        # no fall beyond the log-likelihood's rounding: each of the N
        # standardized residuals carries a relative error of about
        # eps * max|y| / spread, 1e-5 here (under OPENBLAS_CORETYPE=Prescott
        # four variants' last steps fall by up to 5e-5 nats; by default none)
        rounding = data.n * np.finfo(float).eps * np.max(np.abs(data.y)) / spread
        assert res.converged and np.all(np.diff(res.loglik_trace) >= -rounding)
