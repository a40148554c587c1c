import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from cwmix.densities import (
    GaussianParams,
    StudentParams,
    _share_exp,
    _whitened_sq,
    cholesky_lower,
    digamma,
    gaussian_logpdf,
    log_gamma,
    log_sum_exp,
    mahalanobis_sq,
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
    # a matrix gets the same bits alone or stacked
    stack = np.array([random_spd(k, scale) for scale in (1e-3, 1.0, 1e4)])
    vec = rng.normal(size=(3, k))
    mat = rng.normal(size=(3, k, 5))
    L = cholesky_lower(stack)
    assert L.shape == stack.shape
    for g in range(3):
        np.testing.assert_array_equal(L[g], cholesky_lower(stack[g]))
        np.testing.assert_array_equal(solve_spd(stack, vec)[g], solve_spd(stack[g], vec[g]))
        np.testing.assert_array_equal(solve_spd(stack, mat)[g], solve_spd(stack[g], mat[g]))
    np.testing.assert_allclose(np.einsum("gij,gj->gi", stack, solve_spd(stack, vec)), vec,
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_whitened_sq_is_the_squared_norm_of_solve_lower(k):
    # a stack gives each factor's distances bit for bit as that factor alone,
    # and each is the squared norm of scipy's lower-triangular solve (bound
    # fixed beforehand)
    from scipy.linalg import solve_triangular

    L = cholesky_lower(np.array([random_spd(k, scale) for scale in (1e-3, 1.0, 1e4)]))
    pts = rng.normal(size=(3, k, 40)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(3, k, 1))
    got = _whitened_sq(L, pts)
    assert got.shape == (3, 40)
    for g in range(3):
        assert got[g].tobytes() == _whitened_sq(L[g], pts[g]).tobytes()
        white = solve_triangular(L[g], pts[g], lower=True)
        np.testing.assert_allclose(got[g], np.sum(white * white, axis=0), rtol=1e-13, atol=0)


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.5], [0.0, 1.0]]),    # not symmetric
    np.array([[-1.0, 0.0], [0.0, -2.0]]),  # non-positive diagonal
    np.array([[1.0, 1.0], [1.0, 1.0]]),    # last pivot under the 1e-12 floor
    np.array([[1.0, 0.0], [0.0, 1e-14]]),  # ditto, diagonal
    np.array([[1.0, 0.0], [0.0, np.nan]]),
    # a subnormal diagonal: the floor underflows to 0, and a pivot of 0 fails
    np.array([[1e-320, 0.0], [0.0, 0.0]]),
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


@pytest.mark.parametrize("a, b", [
    (np.eye(2), np.arange(4.0)),             # b is not k long
    (np.eye(2), np.ones((2, 3, 1))),         # b has an axis too many
    (np.array([np.eye(2)] * 3), np.ones((2, 3))),  # b is not G-by-k
    (np.array([np.eye(2)] * 3), np.ones(3)),
])
def test_solve_spd_refuses_a_right_hand_side_that_does_not_fit(a, b):
    with pytest.raises(ValueError):
        solve_spd(a, b)


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


# ------------------------------------------------- the column-loop oracle

def _away_from_zero(r, shape):
    return r.uniform(0.5, 1.0, shape) * r.choice([-1.0, 1.0], shape)


def _bounded_factor_stack(r, G, k):
    """G symmetric positive-definite matrices D L0 L0' D: L0 lower triangular
    with diagonal in [1, 2] and off-diagonal magnitudes in [0.5, 1], D a
    diagonal of 10^[-1, 1] times a per-matrix 10^[-1.5, 1.5].  No entry of a
    factor sits near 0, so a componentwise relative bound is meaningful."""
    diagonal = np.eye(k) * r.uniform(1.0, 2.0, (G, 1, k))
    L0 = np.tril(_away_from_zero(r, (G, k, k)), -1) + diagonal
    L0 = L0 * 10.0 ** (r.uniform(-1.0, 1.0, (G, k, 1)) + r.uniform(-1.5, 1.5, (G, 1, 1)))
    a = L0 @ L0.transpose(0, 2, 1)
    return 0.5 * (a + a.transpose(0, 2, 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.sampled_from([None, 1, 3]),
       st.integers(0, 2**32 - 1))
def test_kernels_match_column_loop_oracle(G, k, m, seed):
    # a k <= 2 matrix has one-term inner products, so summing them left to
    # right changes no bit; from k = 3 on a BLAS kernel may fuse a multiply
    # and an add, so the oracle agrees to rounding (bound fixed beforehand)
    r = np.random.default_rng(seed)
    a = _bounded_factor_stack(r, G, k)
    assume(np.linalg.cond(a).max() < 1e4)
    w = _away_from_zero(r, (G, k) if m is None else (G, k, m))
    b = np.einsum("gij,gj...->gi...", a, w)
    pairs = [(cholesky_lower(a), oracles.cholesky_columns(a)),
             (solve_spd(a, b), oracles.solve_spd_columns(a, b))]
    for got, want in pairs:
        assert got.shape == want.shape
        if k <= 2:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12)


def _rejection(solve, *args) -> str:
    with pytest.raises(ValueError) as info:
        solve(*args)
    return str(info.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 4),
       st.sampled_from(["nan", "inf", "asymmetric", "indefinite", "singular", "negative-diagonal"]),
       st.integers(0, 2**32 - 1))
def test_bad_member_rejected_like_column_loop_oracle(G, k, position, kind, seed):
    assume(k > 1 or kind != "asymmetric")
    r = np.random.default_rng(seed)
    a = _bounded_factor_stack(r, G, k)
    g = position % G
    i = r.integers(0, k)
    if kind in ("nan", "inf"):
        a[g, i, r.integers(0, k)] = np.nan if kind == "nan" else r.choice([-1.0, 1.0]) * np.inf
    elif kind == "asymmetric":  # one entry below the diagonal, far past the 1e-8 tolerance
        col = r.integers(0, k - 1)
        shift = max(1.0, np.abs(a[g]).max()) * 10.0 ** r.uniform(-6.0, 0.0)
        a[g, r.integers(col + 1, k), col] += shift
    elif kind == "negative-diagonal":
        a[g, i, i] = -a[g, i, i]
    elif kind == "singular":  # a zero row and column: that pivot is exactly 0
        a[g, i, :] = a[g, :, i] = 0.0
    else:  # one eigenvalue clearly below 0, so one pivot is
        q, _ = np.linalg.qr(r.normal(size=(k, k)))
        ev = 10.0 ** r.uniform(-1.0, 2.0, k)
        ev[i] = -ev[i] * r.uniform(0.01, 1.0)
        a[g] = (q * ev) @ q.T
        a[g] = 0.5 * (a[g] + a[g].T)
    b = np.ones((G, k))
    for mine, oracle, args in [(cholesky_lower, oracles.cholesky_columns, (a,)),
                               (solve_spd, oracles.solve_spd_columns, (a, b))]:
        got = _rejection(mine, *args)
        with np.errstate(all="ignore"):  # the column loop warns on inf - inf
            want = _rejection(oracle, *args)
        if k >= 3:  # the failing pivot may differ at rounding level
            got, want = (re.sub(r"\(pivot .*\)", "(pivot)", msg) for msg in (got, want))
        assert got == want


def test_kernels_digest_is_kernel_independent():
    """Fixed bytes for seeded k = 3..6 stacks whose integer entries every BLAS
    kernel forms exactly: every inner product is summed left to right, so the
    factors and solutions hold under every kernel, FMA or not."""
    h = hashlib.sha256()
    for k in range(3, 7):
        r = np.random.default_rng(k)
        root = r.integers(-4, 5, size=(4, k, k)).astype(float)
        a = root @ root.transpose(0, 2, 1) + k * np.eye(k)
        b = r.integers(-9, 10, size=(4, k, 2)).astype(float)
        h.update(cholesky_lower(a).tobytes())
        h.update(solve_spd(a, b).tobytes())
        h.update(solve_spd(a[0], b[0, :, 0]).tobytes())
    assert h.hexdigest() == "c17f12a967819cd59ee9c38480b4de1d8de86e11786ae4350e80c8331388e03a"


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
    from scipy.integrate import trapezoid

    mu, sd = 1.3, 2.1
    p = GaussianParams(np.array([mu]), np.array([[sd**2]]))
    grid = np.linspace(mu - 40 * sd, mu + 40 * sd, 100_000)
    vals = np.exp(gaussian_logpdf(grid[:, None], p))
    assert trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("nu", [3.0, 5.0, 20.0])
def test_student_density_integrates_to_one(nu):
    from scipy.integrate import trapezoid

    mu, sd = -0.7, 1.4
    p = StudentParams(np.array([mu]), np.array([[sd**2]]), nu)
    grid = np.linspace(mu - 40 * sd, mu + 40 * sd, 100_000)
    vals = np.exp(student_logpdf(grid[:, None], p))
    assert trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-3)


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


@pytest.mark.parametrize("x", (1e-320, 1e-310, 1e-200, 1e-160))
def test_special_functions_at_tiny_x(x):
    # log Gamma(x) = -log x - gamma x + O(x^2) stays finite where the
    # reflection's pi / sin(pi x) overflows, and trigamma(x) > 1 / x^2 is inf
    # (as scipy's polygamma gives it) where 1 / x^2 overflows, also where
    # x * x underflows to 0; scipy's gammaln overflows below about 5.6e-309,
    # so it is compared only where it is finite
    from scipy.special import gammaln, polygamma
    assert log_gamma(x) == pytest.approx(oracles.log_gamma(x), rel=1e-15)
    if math.isfinite(gammaln(x)):
        assert log_gamma(x) == pytest.approx(gammaln(x), rel=1e-15)
    assert trigamma(x) == oracles.trigamma(x) == polygamma(1, x) == math.inf


def test_trigamma_domain_error():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            trigamma(x)


@pytest.mark.parametrize("fn", (log_gamma, digamma, trigamma), ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("x, message", [
    pytest.param(True, "requires a real x, got True", id="true"),
    pytest.param(False, "requires a real x, got False", id="false"),
    pytest.param(float("nan"), "requires x > 0, got nan", id="nan"),
])
def test_special_functions_refuse_a_bool_or_nan(fn, x, message):
    # a bool is not read as 0 or 1, and NaN is refused rather than returned
    with pytest.raises(ValueError, match=re.escape(f"{fn.__name__} {message}")):
        fn(x)


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


def unfloored_log_sum_exp(a, axis=None):
    # log_sum_exp as it was before its exps were floored at e^-700
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.squeeze(m, axis=axis) if axis is not None else m.reshape(())
    with np.errstate(divide="ignore"):
        return out + np.log(np.sum(np.exp(a - m), axis=axis))


@pytest.mark.parametrize("order", "CF")
def test_log_sum_exp_floor_keeps_every_bit(order):
    # terms down to 1e4 below the maximum, many past the e^-700 floor and
    # some in exp's subnormal range: the floored sum rounds as the plain one
    r = np.random.default_rng(31)
    for spread in (10.0, 700.0, 760.0, 1e4):
        a = np.asarray(r.normal(size=(300, 4)) * 50.0 - spread * r.random((300, 4)), order=order)
        for axis in (None, 0, 1):
            np.testing.assert_array_equal(log_sum_exp(a, axis=axis), unfloored_log_sum_exp(a, axis))


def test_log_sum_exp_non_finite_slices_keep_their_value():
    # an all -inf slice is -inf, not the floor's sum; +inf and NaN as before
    inf, nan = math.inf, math.nan
    a = np.array([[-inf, -inf, -inf], [inf, 0.0, -inf], [inf, inf, -800.0], [nan, 0.0, 1.0],
                  [inf, nan, 0.0], [-inf, nan, -inf], [0.0, -inf, -inf], [-inf, 5.0, -2000.0]])
    with np.errstate(invalid="ignore"):
        want = unfloored_log_sum_exp(a, 1)
    np.testing.assert_array_equal(want[:6], [-inf, inf, inf, nan, nan, nan])
    np.testing.assert_array_equal(log_sum_exp(a, axis=1), want)
    np.testing.assert_array_equal(log_sum_exp(a.T, axis=0), want)
    assert log_sum_exp(a[0]) == -inf and log_sum_exp(a[1]) == inf and math.isnan(log_sum_exp(a[3]))
    assert log_sum_exp(-inf) == -inf and log_sum_exp(2.5) == 2.5


def test_share_exp_is_exp_down_to_the_floor():
    r = np.random.default_rng(32)
    z = np.concatenate([-700.0 * r.random(5000), [0.0, -0.0, -700.0, np.nextafter(-700.0, 0.0)]])
    np.testing.assert_array_equal(_share_exp(z.copy()), np.exp(z))
    below = np.array([np.nextafter(-700.0, -math.inf), -708.5, -745.2, -1e4, -math.inf])
    np.testing.assert_array_equal(_share_exp(below), np.exp(-700.0))
    assert np.isnan(_share_exp(np.array([math.nan]))[0])
