import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cwmix.densities import (
    GaussianParams,
    StudentParams,
    cholesky_lower,
    digamma,
    gaussian_logpdf,
    log_gamma,
    log_sum_exp,
    mahalanobis_sq,
    solve_lower,
    solve_spd,
    student_logpdf,
    trigamma,
)

rng = np.random.default_rng(20240817)


def random_spd(q, scale=1.0):
    a = rng.normal(size=(q, q))
    return scale * (a @ a.T + q * np.eye(q))


# ---------------------------------------------------------------- mahalanobis

def test_mahalanobis_identity_cov():
    p = GaussianParams(np.zeros(2), np.eye(2))
    assert mahalanobis_sq(np.array([1.0, 1.0]), p) == pytest.approx(2.0, abs=1e-14)


def test_mahalanobis_zero_at_center():
    p = GaussianParams(np.array([3.0, -1.0]), random_spd(2))
    assert mahalanobis_sq(np.array([3.0, -1.0]), p) == pytest.approx(0.0, abs=1e-14)


def test_mahalanobis_diagonal_hand_inverse():
    p = GaussianParams(np.zeros(2), np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert mahalanobis_sq(np.array([1.0, 0.0]), p) == pytest.approx(0.5, abs=1e-14)


def test_mahalanobis_batch_matches_scalar():
    p = GaussianParams(np.array([1.0, 2.0]), random_spd(2))
    z = rng.normal(size=(10, 2))
    batch = mahalanobis_sq(z, p)
    for i in range(10):
        assert batch[i] == pytest.approx(mahalanobis_sq(z[i], p), rel=1e-12)


def test_mahalanobis_dimension_mismatch():
    p = GaussianParams(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        mahalanobis_sq(np.array([1.0, 2.0, 3.0]), p)


def test_non_positive_definite_rejected():
    with pytest.raises(ValueError):
        GaussianParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        cholesky_lower(np.array([[0.0, 0.0], [0.0, 0.0]]))


def test_cholesky_pivot_threshold():
    # pivot below 1e-12 x largest diagonal is rejected
    with pytest.raises(ValueError):
        cholesky_lower(np.array([[1.0, 0.0], [0.0, 1e-14]]))
    L = cholesky_lower(np.array([[1.0, 0.0], [0.0, 1e-10]]))
    assert L[1, 1] == pytest.approx(1e-5, rel=1e-12)


# ------------------------------------------------------------ stacked kernels

@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_stacked_kernels_match_each_matrix(k):
    # one column loop for the stack gives every matrix its own bits
    stack = np.array([random_spd(k, scale) for scale in (1e-3, 1.0, 1e4)])
    vec = rng.normal(size=(3, k))
    mat = rng.normal(size=(3, k, 5))
    L = cholesky_lower(stack)
    assert L.shape == stack.shape
    for g in range(3):
        np.testing.assert_array_equal(L[g], cholesky_lower(stack[g]))
        np.testing.assert_array_equal(solve_lower(L, mat)[g], solve_lower(L[g], mat[g]))
        np.testing.assert_array_equal(solve_spd(stack, vec)[g], solve_spd(stack[g], vec[g]))
        np.testing.assert_array_equal(solve_spd(stack, mat)[g], solve_spd(stack[g], mat[g]))
    np.testing.assert_allclose(np.einsum("gij,gj->gi", stack, solve_spd(stack, vec)), vec,
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.5], [0.0, 1.0]]),    # not symmetric
    np.array([[-1.0, 0.0], [0.0, -2.0]]),  # non-positive diagonal
    np.array([[1.0, 1.0], [1.0, 1.0]]),    # last pivot under the 1e-12 floor
    np.array([[1.0, 0.0], [0.0, 1e-14]]),  # ditto, diagonal
    np.array([[1.0, 0.0], [0.0, np.nan]]),
])
@pytest.mark.parametrize("position", (0, 1, 2))
def test_stack_rejected_when_any_member_fails(bad, position):
    stack = np.array([random_spd(2) for _ in range(3)])
    stack[position] = bad
    with pytest.raises(ValueError):
        cholesky_lower(bad)
    with pytest.raises(ValueError):
        cholesky_lower(stack)
    with pytest.raises(ValueError):
        solve_spd(stack, np.ones((3, 2)))


def test_stack_pivot_floor_is_per_matrix():
    # the floor is relative to each matrix's own diagonal: a small but well
    # conditioned matrix beside a large one still factors
    stack = np.array([np.diag([1e8, 1e8]), np.diag([1e-6, 1e-6])])
    L = cholesky_lower(stack)
    np.testing.assert_allclose(L[1], np.diag([1e-3, 1e-3]), rtol=1e-15)


def test_cholesky_rejects_bad_shapes():
    for shape in ((3,), (2, 3), (2, 2, 3), (1, 2, 2, 2)):
        with pytest.raises(ValueError):
            cholesky_lower(np.ones(shape))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
def test_mahalanobis_rotation_invariant(q, seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(q, q))
    cov = a @ a.T + q * np.eye(q)
    mu = r.normal(size=q)
    z = r.normal(size=q, scale=3)
    rot, _ = np.linalg.qr(r.normal(size=(q, q)))
    before = mahalanobis_sq(z, GaussianParams(mu, cov))
    after = mahalanobis_sq(rot @ z, GaussianParams(rot @ mu, rot @ cov @ rot.T))
    assert after == pytest.approx(before, rel=1e-10, abs=1e-10)


# ------------------------------------------------------------------ gaussian

def test_gaussian_logpdf_standard_mode():
    p = GaussianParams(np.zeros(1), np.eye(1))
    assert gaussian_logpdf(np.zeros(1), p) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_gaussian_logpdf_bivariate_mode():
    p = GaussianParams(np.zeros(2), np.eye(2))
    assert gaussian_logpdf(np.zeros(2), p) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_gaussian_logpdf_oracle_value():
    # z=1, mu=0, var=4, high-precision direct formula
    p = GaussianParams(np.zeros(1), np.array([[4.0]]))
    assert gaussian_logpdf(np.ones(1), p) == pytest.approx(-1.737085713764618, abs=1e-12)


def test_gaussian_logpdf_random_against_oracle():
    for q in (1, 2, 3):
        for _ in range(5):
            mu = rng.normal(size=q)
            cov = random_spd(q)
            z = rng.normal(size=q, scale=2)
            want = oracles.mvn_logpdf(z, mu, cov)
            got = gaussian_logpdf(z, GaussianParams(mu, cov))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


# ------------------------------------------------------------------- student

def test_student_logpdf_cauchy_mode():
    p = StudentParams(np.zeros(1), np.eye(1), 1.0)
    assert student_logpdf(np.zeros(1), p) == pytest.approx(-math.log(math.pi), abs=1e-12)


def test_student_logpdf_oracle_value():
    p = StudentParams(np.zeros(1), np.eye(1), 5.0)
    assert student_logpdf(np.array([2.0]), p) == pytest.approx(-2.731979583761081, abs=1e-12)


def test_student_logpdf_random_against_oracle():
    for q in (1, 2, 3):
        for _ in range(5):
            mu = rng.normal(size=q)
            scale = random_spd(q)
            nu = float(rng.uniform(0.7, 30))
            z = rng.normal(size=q, scale=2)
            want = oracles.mvt_logpdf(z, mu, scale, nu)
            got = student_logpdf(z, StudentParams(mu, scale, nu))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_student_gaussian_limit():
    # at nu=1e6 the gap to the Gaussian is below 1e-4 for |z-mu| <= 4 sigma
    # (the exact gap at 5 sigma is 1.435e-4, so the bound can only hold on
    # the smaller window; the 5-sigma value is pinned separately below)
    mu = np.array([0.5])
    cov = np.array([[2.25]])
    tp = StudentParams(mu, cov, 1e6)
    gp = GaussianParams(mu, cov)
    for z in np.linspace(0.5 - 6.0, 0.5 + 6.0, 41):
        gap = abs(student_logpdf(np.array([z]), tp) - gaussian_logpdf(np.array([z]), gp))
        assert gap < 1e-4


def test_student_gaussian_gap_exact_at_five_sigma():
    # the exact asymptotic gap at delta=25, nu=1e6 (extended-precision value)
    tp = StudentParams(np.zeros(1), np.eye(1), 1e6)
    gp = GaussianParams(np.zeros(1), np.eye(1))
    gap = student_logpdf(np.array([5.0]), tp) - gaussian_logpdf(np.array([5.0]), gp)
    assert gap == pytest.approx(1.4349755212955641e-4, abs=1e-9)


def test_student_invalid_dof():
    with pytest.raises(ValueError):
        StudentParams(np.zeros(1), np.eye(1), 0.0)
    with pytest.raises(ValueError):
        StudentParams(np.zeros(1), np.eye(1), -3.0)


# ------------------------------------------------------------- normalization

def test_gaussian_density_integrates_to_one():
    mu, sd = 1.3, 2.1
    p = GaussianParams(np.array([mu]), np.array([[sd**2]]))
    grid = np.linspace(mu - 40 * sd, mu + 40 * sd, 100_000)
    vals = np.exp(gaussian_logpdf(grid[:, None], p))
    assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("nu", [3.0, 5.0, 20.0])
def test_student_density_integrates_to_one(nu):
    mu, sd = -0.7, 1.4
    p = StudentParams(np.array([mu]), np.array([[sd**2]]), nu)
    grid = np.linspace(mu - 40 * sd, mu + 40 * sd, 100_000)
    vals = np.exp(student_logpdf(grid[:, None], p))
    assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-3)


# ----------------------------------------------------------------- log gamma

def test_log_gamma_at_one():
    assert abs(log_gamma(1.0)) < 1e-12


def test_log_gamma_half():
    assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-12)


def test_log_gamma_factorial():
    assert log_gamma(10.0) == pytest.approx(math.log(362880), rel=1e-13)


def test_log_gamma_accuracy_sweep():
    # 1e-12 relative over [1e-3, 1e3]
    xs = np.logspace(-3, 3, 400)
    for x in xs:
        want = oracles.log_gamma(x)
        got = log_gamma(float(x))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_log_gamma_matches_stdlib(x):
    assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-11, abs=1e-11)


def test_log_gamma_domain_error():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_digamma_against_oracle():
    for x in [0.01, 0.1, 0.5, 1.0, 2.5, 6.0, 17.3, 100.0, 1000.0]:
        assert digamma(x) == pytest.approx(oracles.digamma(x), rel=1e-10, abs=1e-10)


def test_digamma_sharp_against_oracle():
    # the dof step takes digamma differences: both sides of the recurrence
    # threshold 10 and the whole range of half dofs
    for x in np.concatenate([np.geomspace(0.05, 1e3, 61), [9.999999, 10.0, 10.000001]]):
        assert digamma(x) == pytest.approx(oracles.digamma(x), rel=0, abs=1e-13)


def test_trigamma_against_oracle():
    # both sides of the recurrence threshold 6 and both ends of the dof range
    for x in np.concatenate([np.geomspace(0.05, 1e3, 41), [5.999999, 6.0, 6.000001]]):
        assert trigamma(x) == pytest.approx(oracles.trigamma(x), rel=1e-10)


def test_trigamma_domain_error():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            trigamma(x)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: GaussianParams(np.zeros((1, 2)), np.eye(2)), "mean must be a vector",
                 id="gaussian-matrix-mean"),
    pytest.param(lambda: StudentParams(np.zeros((2, 1)), np.eye(2), 3.0), "location must be a vector",
                 id="student-matrix-location"),
    pytest.param(lambda: GaussianParams([0.0, 0.0], [[1.0]]),
                 "cov shape (1, 1) does not match mean dimension 2", id="gaussian-cov-shape"),
    pytest.param(lambda: StudentParams([0.0], np.eye(2), 3.0),
                 "scale shape (2, 2) does not match location dimension 1", id="student-scale-shape"),
    pytest.param(lambda: digamma(0.0), "digamma requires x > 0", id="digamma-zero"),
    pytest.param(lambda: digamma(-2.0), "digamma requires x > 0", id="digamma-negative"),
])
def test_invalid_law_or_argument_is_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# ----------------------------------------------------------------- utilities

def test_log_sum_exp_matches_naive():
    a = rng.normal(size=20)
    assert log_sum_exp(a) == pytest.approx(math.log(np.sum(np.exp(a))), rel=1e-12)


def test_log_sum_exp_extreme_values():
    a = np.array([-1800.0, -1795.0])
    want = -1795.0 + math.log(1 + math.exp(-5.0))
    assert log_sum_exp(a) == pytest.approx(want, rel=1e-12)


def test_log_sum_exp_axis():
    a = rng.normal(size=(4, 3))
    rows = log_sum_exp(a, axis=1)
    for i in range(4):
        assert rows[i] == pytest.approx(log_sum_exp(a[i]), rel=1e-12)
