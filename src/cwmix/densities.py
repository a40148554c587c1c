"""Elementary densities, distances, and special functions.

Everything downstream (mixture evaluation, EM, the metrics) is built on
the pieces here: Gaussian and Student-t log-densities of any dimension
(also from a squared Mahalanobis distance the caller already has), squared
Mahalanobis distance, log-gamma, digamma and trigamma.  All density work
happens in log space; exponentiation is left to normalization sites, which
exponentiate log-shares (each term minus its slice's maximum or log-sum)
through ``_share_exp``.  It floors them at -700: np.exp of an argument much
below that, whose result is subnormal or 0, takes 20 to 180 times as long
per element, and a fit's E-step meets such terms often (a well separated
component's share of a far point).  e^-700, about 1e-304, is a normal
double, so a share below it reads e^-700; ``log_sum_exp`` keeps every bit,
since its slice's maximum contributes an exact 1.0 to the sum.

Covariance-like matrices are handled through a lower-triangular Cholesky
factorization only; no explicit inverse is ever formed.  A factorization
whose pivot falls below 1e-12 times the largest diagonal entry is rejected
as non-positive-definite.  ``cholesky_lower`` and ``solve_spd`` take one
k-by-k matrix or a (G, k, k) stack; every matrix gets the same checks, and a
matrix gets the same bits alone or stacked.  They factor and solve each
matrix on its own as Python floats: their matrices are parameter-sized (an x
covariance, the normal equations of a regression, the fmrc gating Hessian),
where numpy's per-call overhead would cost more than the arithmetic.  Every
inner product is summed left to right with one rounding per product and per
addition, so neither result depends on the BLAS kernel.

A Gaussian and a Student-t law share one body: a finite center, a scatter
matrix, its Cholesky factor and log-determinant, read as ``center``,
``scatter``, ``chol`` and ``log_det`` whichever the law; the t law adds only
its dof.  Squared Mahalanobis distances have one implementation,
``_whitened_sq``: the per-law ``mahalanobis_sq``, ``gaussian_logpdf`` and
``student_logpdf`` call it with one factor, and the E- and M-steps with the
stacked factors of every component.  It whitens N points per factor by
one numpy forward substitution for the whole stack and sums its inner
products and the whitened rows' squares left to right, so no distance
depends on the BLAS kernel or on how the points are laid out.

Every module reads a caller's numbers through three rules kept here:
``_integer`` (any integer type but bool, with an optional lower bound),
``_seed`` (an integer in [0, 2^64)) and ``_real`` (a finite real number of
any type but bool, as a float, above 0 where it must be positive).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_PIVOT_REL_FLOOR = 1e-12
_LOG_2PI = math.log(2.0 * math.pi)


def _integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int: any integer type but bool, numpy's too, at least ``low`` if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}")
    return int(value)


def _seed(value) -> int:
    """``value`` as a seed: an integer in [0, 2^64)."""
    seed = _integer("seed", value)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float: any real type but bool, finite (an int beyond the
    float range is not), and above 0 if ``positive``."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
        if math.isfinite(real) and (real > 0.0 or not positive):
            return real
    raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite, got {value!r}")


def _factor(a: list) -> list:
    """Lower-triangular Cholesky factor, as rows of floats, of one square
    matrix given as rows of floats, with cholesky_lower's checks."""
    n = len(a)
    flat = [v for row in a for v in row]
    if not all(map(math.isfinite, flat)):
        raise ValueError("matrix is not symmetric")
    tol = 1e-8 * max(1.0, max(map(abs, flat)))
    for i in range(1, n):
        for j in range(i):
            if abs(a[i][j] - a[j][i]) > tol:
                raise ValueError("matrix is not symmetric")
    diag_max = max(a[j][j] for j in range(n))
    if not diag_max > 0.0:
        raise ValueError("matrix is not positive definite (non-positive diagonal)")
    floor = _PIVOT_REL_FLOOR * diag_max
    L = [[0.0] * n for _ in range(n)]
    for j in range(n):
        row = L[j]
        acc = 0.0
        for t in range(j):
            acc += row[t] * row[t]
        pivot = a[j][j] - acc
        # NaN fails this too; so does a zero pivot under a floor that
        # underflowed to 0 (a subnormal diagonal), which would divide by 0
        if not (pivot >= floor and pivot > 0.0):
            raise ValueError(
                f"matrix is not positive definite (pivot {pivot:.3g} below {floor:.3g})"
            )
        root = math.sqrt(pivot)
        row[j] = root
        for i in range(j + 1, n):
            below = L[i]
            acc = 0.0
            for t in range(j):
                acc += below[t] * row[t]
            below[j] = (a[i][j] - acc) / root
    return L


def _factors(a) -> tuple[tuple, list]:
    """a's shape and the factor of each of its matrices, as rows of floats."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    return a.shape, [_factor(m) for m in a.reshape(-1, n, n).tolist()]


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix,
    or of every matrix in a (G, k, k) stack.

    Raises ValueError if any matrix is not finite and symmetric, or a pivot
    falls below 1e-12 x its largest diagonal entry.  Each matrix is factored
    on its own as Python floats, every inner product summed left to right,
    so a matrix gets the same factor alone or stacked, under any BLAS kernel.
    """
    shape, factors = _factors(a)
    return np.array(factors, dtype=float).reshape(shape)


def _substitute(L: list, b: list) -> list:
    """Solve L L' w = b, for one factor L and right-hand-side rows b, all as
    rows of floats, overwriting b with w: forward, then back substitution,
    each inner product summed left to right."""
    n = len(L)
    w = b
    for i in range(n):
        row, out = L[i], w[i]
        for c in range(len(out)):
            acc = 0.0
            for t in range(i):
                acc += row[t] * w[t][c]
            out[c] = (out[c] - acc) / row[i]
    for i in range(n - 1, -1, -1):
        out = w[i]
        for c in range(len(out)):
            acc = 0.0
            for t in range(i + 1, n):
                acc += L[t][i] * w[t][c]
            out[c] = (out[c] - acc) / L[i][i]
    return w


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a w = b for symmetric positive-definite a, or for each matrix of a
    (G, k, k) stack, via its Cholesky factor; b is a vector or a matrix per
    system, of shape (k,) or (k, m) for one and (G, k) or (G, k, m) for a
    stack; any other b raises ValueError.  Each system is factored and
    solved on its own as Python floats, with cholesky_lower's checks and
    arithmetic."""
    shape, factors = _factors(a)
    b = np.asarray(b, dtype=float)
    if b.shape[:len(shape) - 1] != shape[:-1] or b.ndim > len(shape):
        raise ValueError(f"right-hand side of shape {b.shape} does not fit matrices of shape {shape}")
    rhs = b.reshape((len(factors), shape[-1], -1)).tolist()
    w = [_substitute(L, r) for L, r in zip(factors, rhs)]
    return np.array(w, dtype=float).reshape(b.shape)


class _EllipticalLaw:
    """The body a Gaussian and a Student-t law share: a finite ``center``
    vector, a symmetric positive-definite ``scatter`` matrix, its Cholesky
    factor ``chol`` and ``log_det``, log|scatter|.  A law names its center and
    scatter fields in ``_fields``; both are coerced and checked here, once."""

    _fields: tuple[str, str]

    def __post_init__(self):
        center_name, scatter_name = self._fields
        center = np.atleast_1d(np.asarray(getattr(self, center_name), dtype=float))
        scatter = np.atleast_2d(np.asarray(getattr(self, scatter_name), dtype=float))
        if center.ndim != 1:
            raise ValueError(f"{center_name} must be a vector")
        if scatter.shape != (center.size, center.size):
            raise ValueError(f"{scatter_name} shape {scatter.shape} does not match "
                             f"{center_name} dimension {center.size}")
        if not (np.isfinite(center).all() and np.isfinite(scatter).all()):
            raise ValueError(f"non-finite {center_name} or {scatter_name}")
        object.__setattr__(self, center_name, center)
        object.__setattr__(self, scatter_name, scatter)
        object.__setattr__(self, "chol", cholesky_lower(scatter))
        object.__setattr__(self, "log_det", float(_log_det(self.chol)))

    @property
    def center(self) -> np.ndarray:
        return getattr(self, self._fields[0])

    @property
    def scatter(self) -> np.ndarray:
        return getattr(self, self._fields[1])

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True, eq=False)
class GaussianParams(_EllipticalLaw):
    """Gaussian law: mean vector and symmetric positive-definite covariance."""

    mean: np.ndarray
    cov: np.ndarray
    _fields = ("mean", "cov")


@dataclass(frozen=True, eq=False)
class StudentParams(_EllipticalLaw):
    """Student-t law: location, positive-definite scale matrix, finite dof > 0."""

    location: np.ndarray
    scale: np.ndarray
    dof: float
    _fields = ("location", "scale")

    def __post_init__(self):
        object.__setattr__(self, "dof", _real("dof", self.dof, positive=True))
        super().__post_init__()


def _law(center, scatter, dof=None) -> GaussianParams | StudentParams:
    """The Student-t law with ``dof``, or the Gaussian law when dof is None."""
    return GaussianParams(center, scatter) if dof is None else StudentParams(center, scatter, dof)


def law_to_dict(law: GaussianParams | StudentParams) -> dict:
    """JSON-ready {"mean", "cov"} of a law, with "dof" for a Student-t."""
    doc = {"mean": law.center.tolist(), "cov": law.scatter.tolist()}
    if isinstance(law, StudentParams):
        doc["dof"] = law.dof
    return doc


def law_from_dict(doc: dict) -> GaussianParams | StudentParams:
    """Inverse of law_to_dict; a null "dof" reads as a Gaussian law."""
    return _law(doc["mean"], doc["cov"], doc.get("dof"))


def _whitened_sq(chol, centered) -> np.ndarray:
    """Squared Mahalanobis distances: the squared norms of w = L^-1 (z - center)
    for points ``centered`` at their law, coordinates on the second-to-last
    axis.  One law's k-by-k factor takes (k, N) points; a (G, k, k) stack
    takes (G, k, N) and gives G-by-N distances.  w comes from one numpy
    forward substitution for the whole stack, one contiguous coordinate row
    of N at a time: row i is (b_i - sum_t<i L_it w_t) / L_ii, b the centred
    points, the sum taken left to right; so are the rows' squares."""
    L = np.asarray(chol, dtype=float)
    L = L.reshape((-1,) + L.shape[-2:])
    b = np.asarray(centered, dtype=float).reshape(L.shape[:2] + (-1,))
    rows = []
    for i in range(L.shape[-1]):
        rhs = b[:, i]
        if i:
            acc = L[:, i, 0, None] * rows[0]
            for t in range(1, i):
                acc += L[:, i, t, None] * rows[t]
            rhs = rhs - acc
        rows.append(rhs / L[:, i, i, None])
    sq = rows[0] * rows[0]
    for row in rows[1:]:
        sq += row * row
    return sq.reshape(centered.shape[:-2] + centered.shape[-1:])


def mahalanobis_sq(z, params) -> float | np.ndarray:
    """Squared Mahalanobis distance (z-mu)' Sigma^-1 (z-mu).

    Accepts a single point of shape (q,) or a batch of shape (N,q).
    """
    z = np.asarray(z, dtype=float)
    pts = np.atleast_2d(z)
    if pts.shape[1] != params.dim:
        raise ValueError(f"point dimension {pts.shape[1]} != parameter dimension {params.dim}")
    out = _whitened_sq(params.chol, (pts - params.center).T)
    return float(out[0]) if z.ndim == 1 else out


def _log_det(chol):
    """log|Sigma| from its Cholesky factor, or one per factor of a (G, k, k)
    stack: a law and a stack of laws get the same bits."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def gaussian_log_density(maha, q: int, log_det):
    """Log-density of a q-variate normal at squared Mahalanobis distance maha
    from its mean, given log|Sigma|; maha and log_det may be arrays."""
    return -0.5 * (q * _LOG_2PI + log_det + maha)


def student_log_density(maha, q: int, log_det, nu):
    """Log-density of a q-variate Student-t with nu dof at squared Mahalanobis
    distance maha from its location, given log|Sigma|; maha and log_det may be
    arrays, and nu a G-by-1 column of dofs against G-by-N distances (log_gamma
    is taken once per dof, by its scalar path)."""
    nu = np.asarray(nu, dtype=float)
    log_ratio = np.reshape(
        [log_gamma((v + q) / 2.0) - log_gamma(v / 2.0) for v in nu.ravel().tolist()], nu.shape
    )
    const = log_ratio + 0.5 * nu * np.log(nu) - 0.5 * (q * math.log(math.pi) + log_det)
    return const - 0.5 * (nu + q) * np.log(nu + maha)


def gaussian_logpdf(z, params: GaussianParams) -> float | np.ndarray:
    """Log-density of the q-variate normal; batched like mahalanobis_sq."""
    out = gaussian_log_density(mahalanobis_sq(z, params), params.dim, params.log_det)
    return float(out) if np.ndim(out) == 0 else out


def student_logpdf(z, params: StudentParams) -> float | np.ndarray:
    """Log-density of the q-variate Student-t; batched like mahalanobis_sq."""
    out = student_log_density(mahalanobis_sq(z, params), params.dim, params.log_det, params.dof)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Special functions.
#
# log_gamma uses the Lanczos approximation with g=7 and the 9-term
# coefficient set of Godfrey (as adopted by the GNU Scientific Library and
# Boost), accurate to ~1e-13 relative; values below 0.5 go through the
# reflection formula.

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

#: Below this x (about 7.5e-155), trigamma(x) > 1 / x^2 overflows the floats.
_TRIGAMMA_TINY = 1.0 / math.sqrt(np.finfo(float).max)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for a finite x > 0 (not a bool); x < 0.5 reflects to 1 - x."""
    if type(x) is bool:
        raise ValueError(f"log_gamma requires a real x, got {x!r}")
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 1e-300:  # -log x - gamma x + O(x^2), where pi / sin(pi x) overflows
        return -math.log(x)
    if x < 0.5:
        # log Gamma(x) = log(pi / sin(pi x)) - log Gamma(1 - x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (x + k)
    t = x + _LANCZOS_G + 0.5
    return 0.5 * _LOG_2PI + (x + 0.5) * math.log(t) - t + math.log(acc)


def digamma(x: float) -> float:
    """Digamma of a real x > 0 (not a bool, not NaN) via recurrence to x >= 10
    plus the asymptotic series."""
    if type(x) is bool:
        raise ValueError(f"digamma requires a real x, got {x!r}")
    x = float(x)
    if not x > 0.0:  # NaN too
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    # from 10 the first omitted series term, 691 / (32760 x^12), is 2e-14
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # Bernoulli-number series through x^-10
    series = inv2 * (
        1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0)))
    )
    return acc + math.log(x) - 0.5 / x - series


def trigamma(x: float) -> float:
    """Trigamma of a real x > 0 (not a bool, not NaN) via recurrence to x >= 6
    plus the asymptotic series; inf where it overflows the floats."""
    if type(x) is bool:
        raise ValueError(f"trigamma requires a real x, got {x!r}")
    x = float(x)
    if not x > 0.0:  # NaN too
        raise ValueError(f"trigamma requires x > 0, got {x}")
    if x < _TRIGAMMA_TINY:
        return math.inf
    acc = 0.0
    while x < 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # Bernoulli-number series through x^-15
    series = inv2 * inv * (
        1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 * (
            1.0 / 30.0 - inv2 * (5.0 / 66.0 - inv2 * (691.0 / 2730.0 - inv2 * 7.0 / 6.0)))))
    )
    return acc + inv + 0.5 * inv2 + series


def _share_exp(z: np.ndarray) -> np.ndarray:
    """exp of the log-shares z <= 0, floored at e^-700 (the module docstring
    says why), in place in z: a share below e^-700 reads e^-700, every other
    share is np.exp's, and a NaN stays NaN."""
    return np.exp(np.maximum(z, -700.0, out=z), out=z)


def log_sum_exp(a, axis=None):
    """Numerically stable log(sum(exp(a))) along the given axis.

    Each slice is shifted by its maximum m and its terms exponentiated by
    ``_share_exp``: the floor moves only terms below e^-700, whose sum with
    the maximum's exact 1.0 rounds to the unfloored sum.  The result is m +
    log(sum), so a slice that is all -inf gives -inf, one that holds +inf
    (and no NaN) +inf, and one that holds a NaN NaN."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:  # a 0-d difference is a numpy scalar, which _share_exp cannot write to
        a = a.reshape(1)
    m = np.max(a, axis=axis, keepdims=True)
    total = np.log(np.sum(_share_exp(a - np.where(np.isfinite(m), m, 0.0)), axis=axis))
    out = np.squeeze(m, axis=axis) if axis is not None else m.reshape(())
    result = out + total
    return float(result) if result.ndim == 0 else result
