"""Evaluation quantities: Wilks lambda, weighted-fit index, misclassification
with permutation alignment, and BIC.

Direct numpy recounts of the scatter/parameter formulas serve as oracles,
plus the published three-group-plus-noise confusion table.
"""

import itertools
import math
import re

import numpy as np
import pytest

import oracles
from helpers import gaussian_component, random_model
from cwmix.datagen import builtin_scenario, generate
from cwmix.em import FitConfig, FitResult, fit
from cwmix.metrics import (
    bic,
    bic_joint_nested,
    free_parameters,
    iwf,
    misclassification,
    wilks_lambda,
)
from cwmix.model import (
    NOISE,
    Component,
    Conditional,
    CwmModel,
    Dataset,
    LinearMap,
    classify,
    joint_logpdf,
    posterior,
)


def two_line_data(rng, n1=100, n2=200):
    x1 = rng.normal(10.0, 2.0, size=n1)
    y1 = 2.0 + 6.0 * x1 + rng.normal(0.0, 2.0, size=n1)
    x2 = rng.normal(-10.0, 2.0, size=n2)
    y2 = 4.0 - 6.0 * x2 + rng.normal(0.0, 2.0, size=n2)
    return Dataset(
        np.concatenate([x1, x2])[:, None],
        np.concatenate([y1, y2]),
        np.array([1] * n1 + [2] * n2),
    )


def dummy_fit(model, loglik, converged=True, n=4):
    return FitResult(
        model=model,
        loglik_trace=np.array([loglik - 1.0, loglik]),
        responsibilities=np.full((n, model.G), 1.0 / model.G),
        converged=converged,
        n_iter=2,
        start_index=0,
    )


# ------------------------------------------------------------------- wilks

def test_wilks_single_group_is_one():
    r = np.random.default_rng(1)
    data = Dataset(r.normal(size=(30, 2)), r.normal(size=30))
    assert wilks_lambda(data, np.ones(30, dtype=int)) == 1.0


def test_wilks_vanishes_for_separated_groups():
    r = np.random.default_rng(2)
    x = np.concatenate([r.normal(0, 1, 50), r.normal(1000.0, 1, 50)])[:, None]
    y = np.concatenate([r.normal(0, 1, 50), r.normal(1000.0, 1, 50)])
    labels = np.array([1] * 50 + [2] * 50)
    assert wilks_lambda(Dataset(x, y), labels) < 1e-3


@pytest.mark.parametrize("sizes", [pytest.param(s, id="-".join(map(str, s)))
                                   for s in ((15, 25), (37, 2, 1), (39, 1))])
def test_wilks_matches_direct_recount(sizes):
    # a group below d + 2 points still adds its scatter to the pooled W
    r = np.random.default_rng(23)
    x = r.normal(size=(40, 1), scale=2)
    y = r.normal(size=40, scale=3) + x[:, 0]
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    z = np.column_stack([x, y])
    within = np.zeros((2, 2))
    for g in range(1, len(sizes) + 1):
        zg = z[labels == g]
        c = zg - zg.mean(axis=0)
        within += c.T @ c
    c = z - z.mean(axis=0)
    total = c.T @ c
    want = np.linalg.det(within) / np.linalg.det(total)
    assert wilks_lambda(Dataset(x, y), labels) == pytest.approx(want, rel=1e-12)


def test_wilks_reads_labels_above_the_point_count_as_groups():
    # group lists come from counting labels up to the largest; a label far
    # above N names its group as a small one does, without a count per value
    r = np.random.default_rng(4)
    data = Dataset(r.normal(size=(40, 2)), r.normal(size=40))
    labels = np.repeat([1, 2, 3], [15, 20, 5])
    assert wilks_lambda(data, labels * 10**15) == wilks_lambda(data, labels)


def test_wilks_excludes_noise_rows():
    r = np.random.default_rng(9)
    x = r.normal(size=(60, 1))
    y = r.normal(size=60)
    labels = np.array([1] * 30 + [2] * 30)
    base = wilks_lambda(Dataset(x, y), labels)
    x2 = np.vstack([x, np.array([[500.0], [-400.0]])])
    y2 = np.concatenate([y, [900.0, -800.0]])
    labels2 = np.concatenate([labels, [NOISE, NOISE]])
    assert wilks_lambda(Dataset(x2, y2), labels2) == base


def test_wilks_affine_invariance():
    r = np.random.default_rng(19)
    n, d = 120, 2
    x = r.normal(size=(n, d))
    y = r.normal(size=n)
    labels = r.integers(1, 4, size=n)
    base = wilks_lambda(Dataset(x, y), labels)
    a = r.normal(size=(d + 1, d + 1)) + 3 * np.eye(d + 1)
    assert abs(np.linalg.det(a)) > 1e-6
    z = np.column_stack([x, y]) @ a.T + r.normal(size=d + 1, scale=5)
    assert wilks_lambda(Dataset(z[:, :d], z[:, d]), labels) == pytest.approx(base, rel=1e-8)


def test_wilks_rejects_singular_total_scatter():
    x = np.linspace(0.0, 1.0, 12)[:, None]
    data = Dataset(x, 2.0 * x[:, 0])  # z lies on one line
    with pytest.raises(ValueError):
        wilks_lambda(data, np.array([1] * 6 + [2] * 6))


def test_wilks_is_zero_for_groups_on_parallel_lines():
    # each group lies exactly on y = 2x + c_g, so the within-group scatter
    # is singular while the total scatter is not
    x = np.tile(np.arange(5.0), 2)
    labels = np.repeat([1, 2], 5)
    y = 2.0 * x + np.where(labels == 1, 0.0, 10.0)
    assert wilks_lambda(Dataset(x, y), labels) == 0.0


# --------------------------------------------------------------------- iwf

def test_iwf_zero_on_exact_line():
    x = np.linspace(-3, 3, 25)[:, None]
    data = Dataset(x, 2.0 * x[:, 0] + 1.0)
    m = CwmModel("gaussian_cwm", (gaussian_component(1.0, 0.0, 2.0, 2.0, 1.0, 1.0),))
    assert iwf(data, m) == pytest.approx(0.0, abs=1e-12)


def test_iwf_zero_for_shared_conditional():
    x = np.linspace(-3, 3, 25)[:, None]
    data = Dataset(x, 2.0 * x[:, 0] + 1.0)
    m = CwmModel(
        "gaussian_cwm",
        (
            gaussian_component(0.4, -1.0, 1.0, 2.0, 1.0, 1.0),
            gaussian_component(0.6, 1.5, 2.0, 2.0, 1.0, 1.0),
        ),
    )
    # posterior weights vary but both local means sit on the same line
    assert iwf(data, m) == pytest.approx(0.0, abs=1e-12)


def test_iwf_matches_direct_oracle():
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
    pts = [(0.2, 0.1), (1.4, 1.0), (-2.0, -1.5), (0.5, 2.0)]
    squares = []
    for x, y in pts:
        post = [float(p) for p in oracles.posterior_from_terms(oracles.cwm_joint_terms(comps, x, y))]
        fitted = sum(p * (c["slope"] * x + c["intercept"]) for p, c in zip(post, comps))
        squares.append((y - fitted) ** 2)
    want = math.sqrt(sum(squares) / len(squares))
    data = Dataset(np.array([[p[0]] for p in pts]), np.array([p[1] for p in pts]))
    assert iwf(data, m) == pytest.approx(want, abs=1e-12)


def test_iwf_invariant_under_relabeling():
    r = np.random.default_rng(12)
    m = CwmModel(
        "gaussian_cwm",
        (
            gaussian_component(0.3, -2.0, 1.0, 1.0, 0.0, 1.0),
            gaussian_component(0.7, 2.0, 1.5, -1.0, 0.5, 0.8),
        ),
    )
    flipped = CwmModel("gaussian_cwm", (m.components[1], m.components[0]))
    data = Dataset(r.normal(size=(50, 1), scale=3), r.normal(size=50, scale=4))
    assert iwf(data, m) == pytest.approx(iwf(data, flipped), abs=1e-14)


def test_iwf_noise_switch():
    x = np.linspace(-2, 2, 20)
    y = 2.0 * x + 1.0
    x_all = np.concatenate([x, [0.0]])[:, None]
    y_all = np.concatenate([y, [500.0]])  # one wild noise row
    labels = np.array([1] * 20 + [NOISE])
    data = Dataset(x_all, y_all, labels)
    m = CwmModel("gaussian_cwm", (gaussian_component(1.0, 0.0, 2.0, 2.0, 1.0, 1.0),))
    assert iwf(data, m, include_noise=False) == pytest.approx(0.0, abs=1e-12)
    assert iwf(data, m, include_noise=True) > 10.0


# ------------------------------------------------------------ misclassification

def test_misclassification_identity():
    truth = np.array([1, 2, 3, 1, 2, 3])
    eta, perm, conf = misclassification(truth, truth.copy(), 3)
    assert eta == 0.0
    assert perm == {1: 1, 2: 2, 3: 3}
    assert np.array_equal(conf, 2 * np.eye(3, dtype=int))


def test_misclassification_swap_aligned():
    truth = np.array([1, 1, 2, 2])
    pred = np.array([2, 2, 1, 1])
    eta, perm, conf = misclassification(truth, pred, 2)
    assert eta == 0.0
    assert perm == {1: 2, 2: 1}
    assert np.array_equal(conf, 2 * np.eye(2, dtype=int))


def test_misclassification_three_group_noise_table():
    # published three-group-plus-noise confusion: 21 of 350 off the diagonal
    table = np.array(
        [
            [98, 0, 0, 2],
            [0, 97, 0, 3],
            [0, 0, 100, 0],
            [1, 0, 15, 34],
        ]
    )
    values = [1, 2, 3, NOISE]
    truth, pred = [], []
    for i, t in enumerate(values):
        for j, p in enumerate(values):
            truth += [t] * table[i, j]
            pred += [p] * table[i, j]
    eta, perm, conf = misclassification(np.array(truth), np.array(pred), 3)
    assert eta == pytest.approx(21 / 350)
    assert eta == pytest.approx(0.06)
    assert perm == {1: 1, 2: 2, 3: 3}
    assert np.array_equal(conf, table)
    assert conf.sum() == 350


def test_misclassification_noise_not_permutable():
    truth = np.array([1, 1, 2, 2, NOISE, NOISE])
    pred = np.array([2, 2, 1, 1, NOISE, 1])
    eta, perm, conf = misclassification(truth, pred, 2)
    assert eta == pytest.approx(1 / 6)
    assert perm == {1: 2, 2: 1}
    assert np.array_equal(conf, np.array([[2, 0, 0], [0, 2, 0], [0, 1, 1]]))


def test_misclassification_label_permutation_invariance():
    r = np.random.default_rng(8)
    truth = r.integers(1, 4, size=200)
    pred = r.integers(1, 4, size=200)
    base, _, _ = misclassification(truth, pred, 3)
    relab = np.array([0, 3, 1, 2])[pred]  # permute predicted labels
    eta_p, _, _ = misclassification(truth, relab, 3)
    assert eta_p == base
    relab_t = np.array([0, 2, 3, 1])[truth]  # permute true labels
    eta_t, _, _ = misclassification(relab_t, pred, 3)
    assert eta_t == base


def test_misclassification_exact_diag_identity():
    r = np.random.default_rng(44)
    truth = r.integers(1, 4, size=120)
    pred = r.integers(1, 4, size=120)
    eta, _, conf = misclassification(truth, pred, 3)
    assert conf.sum() == 120
    assert eta == 1.0 - np.trace(conf) / 120
    assert np.array_equal(conf.sum(axis=1), np.bincount(truth, minlength=4)[1:])


def _assert_matches_recount(truth, pred, G):
    """Compare with a direct recount: relabel the predictions by each
    permutation in ``itertools`` order, count the mismatches and keep the
    first fewest; NOISE stays NOISE."""
    best = None
    for perm in itertools.permutations(range(1, G + 1)):
        relabeled = np.array((NOISE,) + perm)[pred]
        wrong = int(np.count_nonzero(relabeled != truth))
        if best is None or wrong < best[0]:
            best = wrong, perm, relabeled
    wrong, perm, relabeled = best
    rows = list(range(1, G + 1)) + ([NOISE] if np.any(truth == NOISE) else [])
    cols = list(range(1, G + 1)) + ([NOISE] if np.any(pred == NOISE) else [])
    eta, mapping, conf = misclassification(truth, pred, G)
    assert eta == pytest.approx(wrong / len(truth), abs=1e-15)
    assert mapping == dict(zip(range(1, G + 1), perm))
    np.testing.assert_array_equal(conf, [[np.count_nonzero((truth == t) & (relabeled == p)) for p in cols]
                                         for t in rows])


@pytest.mark.parametrize("G", range(1, 7))
def test_misclassification_matches_direct_recount(G):
    # short vectors over NOISE and 1..G: many tie between relabelings
    r = np.random.default_rng(100 + G)
    for _ in range(20):
        truth, pred = r.integers(NOISE, G + 1, size=(2, int(r.integers(1, 40))))
        _assert_matches_recount(truth, pred, G)


def test_misclassification_tie_keeps_the_first_permutation():
    truth, pred = np.array([1, 2]), np.array([1, 1])
    eta, perm, conf = misclassification(truth, pred, 2)
    assert (eta, perm) == (0.5, {1: 1, 2: 2})
    assert np.array_equal(conf, np.array([[1, 0], [1, 0]]))
    _assert_matches_recount(truth, pred, 2)


def test_misclassification_errors():
    with pytest.raises(ValueError):
        misclassification(np.ones(3, dtype=int), np.ones(4, dtype=int), 2)
    with pytest.raises(ValueError):
        misclassification(np.ones(3, dtype=int), np.ones(3, dtype=int), 9)
    with pytest.raises(ValueError):
        misclassification(np.array([1, 2, 5]), np.array([1, 2, 2]), 2)


_twelve = Dataset(np.random.default_rng(4).normal(size=(12, 1)), np.random.default_rng(5).normal(size=12))
_noise_only = Dataset(np.zeros((3, 1)), np.zeros(3), [NOISE] * 3)
_one_line = CwmModel("gaussian_cwm", (gaussian_component(1.0, 0.0, 1.0, 1.0, 0.0, 1.0),))
_one_regression = CwmModel("fmr", (Component(1.0, None, Conditional(LinearMap(np.array([1.0]), 0.0), 1.0)),))
_four_by_three = Dataset(np.random.default_rng(6).normal(size=(4, 3)), np.zeros(4))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: wilks_lambda(_twelve, [NOISE] * 12), "no grouped observations",
                 id="wilks-all-noise"),
    pytest.param(lambda: wilks_lambda(_twelve, [1] * 11), "labels length mismatch", id="wilks-length"),
    # -1 is no group and not NOISE; it used to be counted as a third group
    pytest.param(lambda: wilks_lambda(_twelve, [1] * 4 + [2] * 4 + [-1] * 4), "group indices or NOISE",
                 id="wilks-negative-label"),
    pytest.param(lambda: wilks_lambda(_twelve, [1.5] * 6 + [2.0] * 6), "labels must be integers",
                 id="wilks-fractional-label"),
    # truncating would read 0.4 as NOISE and score 1.5 and 2.2 as right
    pytest.param(lambda: misclassification([1.5, 2.2, 0.4, 1.0], [1, 2, 1, 1], 2), "labels must be integers",
                 id="misclassification-fractional-truth"),
    pytest.param(lambda: misclassification([1, 2, 1], [1.0, np.nan, 2.0], 2), "labels must be integers",
                 id="misclassification-nan-prediction"),
    pytest.param(lambda: misclassification([1, 2, -1], [1, 2, 1], 2), "group indices or NOISE",
                 id="misclassification-negative-label"),
    # an error rate over no labels is 0 / 0
    pytest.param(lambda: misclassification([], [], 2), "no labels", id="misclassification-empty"),
    # G is a count of groups: no fraction, no bool and at least one
    pytest.param(lambda: free_parameters("fmr", 2.5, 1), "G must be an integer",
                 id="free-parameters-fractional-G"),
    pytest.param(lambda: free_parameters("fmr", 0, 1), "G must be at least 1", id="free-parameters-zero-G"),
    pytest.param(lambda: free_parameters("fmr", 2, 0), "d must be at least 1", id="free-parameters-zero-d"),
    pytest.param(lambda: misclassification([0, 0], [0, 0], 0), "G must be at least 1",
                 id="misclassification-zero-G"),
    pytest.param(lambda: misclassification([1, 1], [1, 1], True), "G must be an integer",
                 id="misclassification-bool-G"),
    pytest.param(lambda: misclassification([1, 2], [2, 1], 2.0), "G must be an integer",
                 id="misclassification-float-G"),
    # with the NOISE rows left out nothing is left to score
    pytest.param(lambda: iwf(_noise_only, _one_line, include_noise=False), "no grouped observations",
                 id="iwf-nothing-but-noise"),
    # BIC's N is the fit's count of rows; data of another size is not its data
    pytest.param(lambda: bic_joint_nested(dummy_fit(_one_line, -5.0), _twelve),
                 "data has 12 rows, but the fit has 4", id="bic-joint-nested-rows"),
    # nor is data whose x has another column count than the fit's d
    pytest.param(lambda: bic_joint_nested(dummy_fit(_one_line, -5.0), _four_by_three),
                 "x must have 1 columns", id="bic-joint-nested-columns-gaussian-cwm"),
    pytest.param(lambda: bic_joint_nested(dummy_fit(_one_regression, -5.0), _four_by_three),
                 "x must have 1 columns", id="bic-joint-nested-columns-fmr"),
])
def test_invalid_metric_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# --------------------------------------------------------------------- bic

def test_bic_counting_contract():
    m = CwmModel("gaussian_cwm", (gaussian_component(1.0, 0.0, 1.0, 1.0, 0.0, 1.0),))
    assert bic(dummy_fit(m, -50.0, n=100)) == pytest.approx(100.0 + 5 * math.log(100))
    fmr = CwmModel(
        "fmr", (Component(1.0, None, Conditional(LinearMap(np.array([1.0]), 0.0), 1.0)),)
    )
    assert bic(dummy_fit(fmr, -50.0, n=100)) == pytest.approx(100.0 + 3 * math.log(100))


@pytest.mark.parametrize(
    "variant,G,d,expected",
    [
        ("gaussian_cwm", 2, 1, 2 * 5 + 1),
        ("gaussian_cwm", 3, 2, 3 * 9 + 2),
        ("fmg", 4, 1, 4 * 5 + 3),
        ("t_cwm", 2, 1, 2 * 7 + 1),
        ("fmt", 2, 1, 2 * 6 + 1),
        ("fmr", 3, 1, 3 * 3 + 2),
        ("fmrc", 3, 1, 3 * 3 + 2 * 2),
        ("fmrc", 2, 4, 2 * 6 + 1 * 5),
    ],
)
def test_free_parameters(variant, G, d, expected):
    assert free_parameters(variant, G, d) == expected


def test_free_parameters_unknown_variant():
    with pytest.raises(ValueError):
        free_parameters("nope", 2, 1)


def test_bic_real_fits_match_hand_formula():
    data = two_line_data(np.random.default_rng(7), 60, 90)
    cwm = fit(data, FitConfig(G=2, n_starts=3, seed=5))
    fmr = fit(data, FitConfig(G=2, variant="fmr", n_starts=3, seed=5))
    for res, k in ((cwm, 11), (fmr, 7)):
        want = -2.0 * res.loglik_trace[-1] + k * math.log(data.n)
        assert bic(res) == pytest.approx(want, rel=1e-12)


def test_bic_flags_non_convergence():
    m = CwmModel("gaussian_cwm", (gaussian_component(1.0, 0.0, 1.0, 1.0, 0.0, 1.0),))
    with pytest.warns(RuntimeWarning):
        bic(dummy_fit(m, -10.0, converged=False, n=50))


def test_bic_joint_nested_completes_fmr():
    data = two_line_data(np.random.default_rng(21), 50, 70)
    res = fit(data, FitConfig(G=2, variant="fmr", n_starts=3, seed=2))
    mu = data.x.mean(axis=0)
    centered = data.x - mu
    cov = centered.T @ centered / data.n
    ll_x = -0.5 * data.n * (math.log(2 * math.pi * cov[0, 0]) + 1.0)  # ML Gaussian fit
    want = -2.0 * (res.loglik_trace[-1] + ll_x) + (7 + 2) * math.log(data.n)
    assert bic_joint_nested(res, data) == pytest.approx(want, rel=1e-12)


def test_bic_joint_nested_identity_for_joint_models():
    data = two_line_data(np.random.default_rng(22), 50, 70)
    res = fit(data, FitConfig(G=2, n_starts=3, seed=2))
    assert bic_joint_nested(res, data) == bic(res)


@pytest.mark.parametrize("scorer", ["posterior", "joint_logpdf", "classify", "iwf", "wilks_lambda"])
def test_scorers_refuse_data_whose_squares_overflow(scorer):
    # one x of 1e160 makes 4 (d + 1) N max|x|^2 overflow, which fit() refuses;
    # every scorer reads (x, y) through Dataset and refuses it too, instead
    # of returning NaN posteriors, a -inf density or an overflowing Lambda
    data = generate(builtin_scenario("ex6_s2").with_seed(1))
    model = random_model(np.random.default_rng(0), "gaussian_cwm", G=2, d=data.d)
    x = data.x.copy()
    x[0, 0] = 1e160
    score = {
        "posterior": lambda: posterior(model, x, data.y),
        "joint_logpdf": lambda: joint_logpdf(model, x, data.y),
        "classify": lambda: classify(model, Dataset(x, data.y)),
        "iwf": lambda: iwf(Dataset(x, data.y), model),
        "wilks_lambda": lambda: wilks_lambda(Dataset(x, data.y), data.labels),
    }[scorer]
    with pytest.raises(ValueError, match="^x is too large: its sums of squares overflow$"):
        score()


@pytest.mark.parametrize("scorer", ["posterior", "joint_logpdf", "classify", "iwf"])
def test_scorers_refuse_a_distance_that_overflows(scorer):
    # x = 1.4e153 passes Dataset's bound (10 points, d = 1), but whitened by
    # an x variance of 0.01 its squared distance overflows; each scorer
    # names the observation instead of warning and returning -inf or NaN
    model = CwmModel("gaussian_cwm", (gaussian_component(1.0, 0.0, 0.1, 1.0, 0.0, 1.0),))
    x = np.linspace(-1.0, 1.0, 10)
    x[3] = 1.4e153
    data = Dataset(x, np.zeros(10))
    score = {
        "posterior": lambda: posterior(model, data.x, data.y),
        "joint_logpdf": lambda: joint_logpdf(model, data.x, data.y),
        "classify": lambda: classify(model, data),
        "iwf": lambda: iwf(data, model),
    }[scorer]
    with pytest.raises(ValueError, match="^observation 3 is too far out for this model"):
        score()


@pytest.mark.parametrize("scorer", ["posterior", "joint_logpdf", "classify", "iwf"])
def test_scorers_weigh_an_overflowed_component_as_zero(scorer):
    # the point of the test above overflows against the narrow component
    # only; the wide one (x and y variances 1) still gives it a finite log
    # density of about -1.96e306, so it is scored, wholly in the wide one
    model = CwmModel("gaussian_cwm", (gaussian_component(0.5, 0.0, 0.1, 1.0, 0.0, 1.0),
                                      gaussian_component(0.5, 0.0, 1.0, 1.0, 0.0, 1.0)))
    x = np.linspace(-1.0, 1.0, 10)
    x[3] = 1.4e153
    data = Dataset(x, np.zeros(10))
    if scorer == "posterior":
        tau = posterior(model, data.x, data.y)
        assert np.isfinite(tau).all() and tau[3, 0] < 1e-300 and tau[3, 1] == 1.0
    elif scorer == "joint_logpdf":
        f = joint_logpdf(model, data.x, data.y)
        assert np.isfinite(f).all() and -1.97e306 < f[3] < -1.95e306
    elif scorer == "classify":
        assert classify(model, data)[3] == 2
    else:
        assert math.isfinite(iwf(data, model))
