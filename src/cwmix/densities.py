"""Elementary densities, distances, and special functions.

Everything downstream (mixture evaluation, EM, the metrics) is built on
the pieces here: Gaussian and Student-t log-densities of any dimension
(also from a squared Mahalanobis distance the caller already has), squared
Mahalanobis distance, log-gamma, digamma and trigamma.  All density work
happens in log space; exponentiation is left to normalization sites.

Covariance-like matrices are handled through a lower-triangular Cholesky
factorization only; no explicit inverse is ever formed.  A factorization
whose pivot falls below 1e-12 times the largest diagonal entry is rejected
as non-positive-definite.  ``cholesky_lower``, ``solve_lower`` and
``solve_spd`` take one k-by-k matrix or a (G, k, k) stack: the column loop
runs once for the whole stack, every matrix gets the same checks, and a
matrix gets the same bits alone or stacked.  A law built from a stacked
factorization skips factoring again (``GaussianParams._from_factor``,
``StudentParams._from_factor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PIVOT_REL_FLOOR = 1e-12
_LOG_2PI = math.log(2.0 * math.pi)


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix,
    or of every matrix in a (G, k, k) stack.

    Raises ValueError if any matrix is not symmetric or one of its pivots falls
    below 1e-12 x (its largest diagonal entry).  The column loop runs once for
    the whole stack; a matrix gets the same factor alone or in a stack.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    flat = stack.reshape(-1, n * n)
    scale = np.abs(flat).max(axis=1)
    if (np.abs(flat - stack.transpose(0, 2, 1).reshape(-1, n * n)).max(axis=1)
            > 1e-8 * np.maximum(1.0, scale)).any():
        raise ValueError("matrix is not symmetric")
    diag_max = flat[:, :: n + 1].max(axis=1)
    if not ((diag_max > 0.0) & (diag_max < np.inf)).all():
        raise ValueError("matrix is not positive definite (non-positive diagonal)")
    floor = _PIVOT_REL_FLOOR * diag_max
    L = np.zeros_like(stack)
    for j in range(n):
        pivot = stack[:, j, j]
        col = stack[:, j + 1 :, j]
        if j:  # column 0 has nothing to subtract
            row = L[:, j : j + 1, :j]
            pivot = pivot - (row @ row.transpose(0, 2, 1))[:, 0, 0]
            col = col - (L[:, j + 1 :, :j] @ row.transpose(0, 2, 1))[..., 0]
        # NaN fails this too; a pivot cannot exceed the finite diagonal
        if not (pivot >= floor).all():
            g = int(np.argmin(pivot >= floor))
            raise ValueError(
                f"matrix is not positive definite (pivot {pivot[g]:.3g} below {floor[g]:.3g})"
            )
        L[:, j, j] = np.sqrt(pivot)
        L[:, j + 1 :, j] = col / L[:, j, j, None]
    return L.reshape(a.shape)


def _stacked_system(L, b):
    """(G, k, k) factors and (G, k, m) right-hand sides from one factor with b
    of shape (k,) or (k, m), or from a stack with b of shape (G, k) or
    (G, k, m); also b's shape, which the solution takes."""
    L = np.asarray(L, dtype=float)
    b = np.asarray(b, dtype=float)
    stack = L.reshape((-1,) + L.shape[-2:])
    return stack, b.reshape(stack.shape[:2] + (-1,)), b.shape


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L w = b by forward substitution, for one lower-triangular L or a
    (G, k, k) stack of them; b is a vector or a matrix per factor."""
    L, b, shape = _stacked_system(L, b)
    w = np.zeros_like(b)
    for i in range(L.shape[-1]):
        rhs = b[:, i]
        if i:
            rhs = rhs - (L[:, i : i + 1, :i] @ w[:, :i])[:, 0]
        w[:, i] = rhs / L[:, i, i, None]
    return w.reshape(shape)


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a w = b for symmetric positive-definite a, or for each matrix of a
    (G, k, k) stack, via its Cholesky factor; b as for solve_lower."""
    L, w, shape = _stacked_system(cholesky_lower(a), b)
    w = solve_lower(L, w)
    # back substitution with L^T
    n = L.shape[-1]
    out = np.zeros_like(w)
    for i in range(n - 1, -1, -1):
        rhs = w[:, i]
        if i + 1 < n:
            rhs = rhs - (L[:, None, i + 1 :, i] @ out[:, i + 1 :])[:, 0]
        out[:, i] = rhs / L[:, i, i, None]
    return out.reshape(shape)


def _assemble(cls, chol, **fields):
    """A law of class ``cls`` from fields that are already float arrays and the
    Cholesky factor of its matrix, without validating or factoring again."""
    law = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(law, name, value)
    _set_factor(law, chol)
    return law


def _set_factor(law, chol) -> None:
    object.__setattr__(law, "_chol", chol)
    object.__setattr__(law, "_log_det", _log_det(chol))


@dataclass(frozen=True, eq=False)
class GaussianParams:
    """Gaussian law: mean vector and symmetric positive-definite covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean dimension {mean.size}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        _set_factor(self, cholesky_lower(cov))

    @classmethod
    def _from_factor(cls, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray) -> "GaussianParams":
        """The law of a float mean vector and covariance whose Cholesky factor
        the caller already has (one matrix of a stacked factorization)."""
        return _assemble(cls, chol, mean=mean, cov=cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def center(self) -> np.ndarray:
        return self.mean

    @property
    def chol(self) -> np.ndarray:
        return self._chol

    @property
    def log_det(self) -> float:
        return self._log_det


@dataclass(frozen=True, eq=False)
class StudentParams:
    """Student-t law: location, positive-definite scale matrix, dof > 0."""

    location: np.ndarray
    scale: np.ndarray
    dof: float

    def __post_init__(self):
        location = np.atleast_1d(np.asarray(self.location, dtype=float))
        scale = np.atleast_2d(np.asarray(self.scale, dtype=float))
        if scale.shape != (location.size, location.size):
            raise ValueError(
                f"scale shape {scale.shape} does not match location dimension {location.size}"
            )
        dof = float(self.dof)
        if not dof > 0:
            raise ValueError(f"dof must be strictly positive, got {dof}")
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "dof", dof)
        _set_factor(self, cholesky_lower(scale))

    @classmethod
    def _from_factor(cls, location: np.ndarray, scale: np.ndarray, dof: float,
                     chol: np.ndarray) -> "StudentParams":
        """The law of a float location and scale matrix whose Cholesky factor
        the caller already has (one matrix of a stacked factorization)."""
        dof = float(dof)
        if not dof > 0:
            raise ValueError(f"dof must be strictly positive, got {dof}")
        return _assemble(cls, chol, location=location, scale=scale, dof=dof)

    @property
    def dim(self) -> int:
        return self.location.size

    @property
    def center(self) -> np.ndarray:
        return self.location

    @property
    def chol(self) -> np.ndarray:
        return self._chol

    @property
    def log_det(self) -> float:
        return self._log_det


def law_to_dict(law: GaussianParams | StudentParams) -> dict:
    """JSON-ready {"mean", "cov"} of a law, with "dof" for a Student-t."""
    if isinstance(law, StudentParams):
        return {"mean": law.location.tolist(), "cov": law.scale.tolist(), "dof": law.dof}
    return {"mean": law.mean.tolist(), "cov": law.cov.tolist()}


def law_from_dict(doc: dict) -> GaussianParams | StudentParams:
    """Inverse of law_to_dict; a null "dof" reads as a Gaussian law."""
    mean = np.asarray(doc["mean"], dtype=float)
    cov = np.asarray(doc["cov"], dtype=float)
    if doc.get("dof") is not None:
        return StudentParams(mean, cov, float(doc["dof"]))
    return GaussianParams(mean, cov)


def _whitened(z, params):
    """L^-1 (z - center)^T for z of shape (q,) or (N,q); returns (q, N)."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    if pts.shape[1] != params.dim:
        raise ValueError(f"point dimension {pts.shape[1]} != parameter dimension {params.dim}")
    w = solve_lower(params.chol, (pts - params.center).T)
    return w, single


def mahalanobis_sq(z, params) -> float | np.ndarray:
    """Squared Mahalanobis distance (z-mu)' Sigma^-1 (z-mu).

    Accepts a single point of shape (q,) or a batch of shape (N,q).
    """
    w, single = _whitened(z, params)
    out = np.sum(w * w, axis=0)
    return float(out[0]) if single else out


def _log_det(chol) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


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
    w, single = _whitened(z, params)
    out = gaussian_log_density(np.sum(w * w, axis=0), params.dim, params.log_det)
    return float(out[0]) if single else out


def student_logpdf(z, params: StudentParams) -> float | np.ndarray:
    """Log-density of the q-variate Student-t; batched like mahalanobis_sq."""
    w, single = _whitened(z, params)
    out = student_log_density(np.sum(w * w, axis=0), params.dim, params.log_det, params.dof)
    return float(out[0]) if single else out


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


def _log_gamma_scalar(x: float) -> float:
    if x < 0.5:
        # log Gamma(x) = log(pi / sin(pi x)) - log Gamma(1 - x)
        return math.log(math.pi / math.sin(math.pi * x)) - _log_gamma_scalar(1.0 - x)
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (x + k)
    t = x + _LANCZOS_G + 0.5
    return 0.5 * _LOG_2PI + (x + 0.5) * math.log(t) - t + math.log(acc)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for a finite x > 0."""
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return _log_gamma_scalar(x)


def digamma(x: float) -> float:
    """Digamma via recurrence to x >= 10 plus the asymptotic series."""
    x = float(x)
    if x <= 0.0:
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
    """Trigamma via recurrence to x >= 6 plus the asymptotic series."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
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


def log_sum_exp(a, axis=None):
    """Numerically stable log(sum(exp(a))) along the given axis."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.squeeze(m, axis=axis) if axis is not None else m.reshape(())
    total = np.log(np.sum(np.exp(a - m), axis=axis))
    result = out + total
    return float(result) if result.ndim == 0 else result
