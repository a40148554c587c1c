"""EM / ECM fitting for every model variant, with multi-start initialization.

Every variant takes the same per-component M-step, read off the variant's row
in ``model.VARIANT_SPECS``: y is fitted on x by weighted least squares, and
when x is modelled its mean and covariance are weighted moments.  Gaussian
variants use plain EM, so fmg takes gaussian_cwm's update exactly (the Schur
complement of the weighted joint moments of (x, y) is that least-squares fit).
Student-t variants use ECM: the E-step adds latent precision weights
u = (dof + q) / (dof + mahalanobis), and the dof update is a one-dimensional
conditional maximization solved by safeguarded Newton, warm-started from the
previous dof.  fmt's joint t gives x and y one shared weight,
(nu + d + 1) / (nu + delta_x + resid^2 / sigma^2).  Each iteration whitens x
against each component once: the E-step's distances also give the weights.
The fmrc gating M-step is generalized EM: each iteration takes one guarded,
penalized Newton step from the previous gating instead of solving the gating
problem to convergence.  The step is halved until the gating objective does
not decrease, so the observed-data log-likelihood stays non-decreasing.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# cholesky_lower and mahalanobis_sq are not called here (the x laws factor
# their own covariance, and the weights reuse the E-step's distances);
# perfbench/tracing.py still looks them up in this module.
from .densities import (  # noqa: F401
    GaussianParams,
    StudentParams,
    cholesky_lower,
    digamma,
    log_sum_exp,
    mahalanobis_sq,
    solve_spd,
    trigamma,
)
from .model import (
    VARIANT_SPECS,
    VARIANTS,
    Component,
    Conditional,
    CwmModel,
    Dataset,
    Distances,
    Gating,
    LinearMap,
    _component_distances,
    _log_component_terms,
)

DOF_BRACKET = (0.5, 200.0)
_INIT_DOF = 10.0

#: Relative floor on fitted noise variance; a component collapsing onto an
#: exact line is a spurious likelihood spike, not a solution.
_NOISE_VAR_FLOOR = 1e-10

_INITS = ("kmeans", "random_partition", "given_labels")

_Weights = namedtuple("_Weights", ["x", "y"])


class DegenerateFitError(RuntimeError):
    """Every start collapsed (empty cluster, singular design, zero variance)."""


class _DegenerateStart(Exception):
    """Internal signal: abandon the current start and try the next one."""


@dataclass(frozen=True)
class FitConfig:
    G: int
    variant: str = "gaussian_cwm"
    max_iter: int = 500
    rel_tol: float = 1e-8
    n_starts: int = 10
    init: str = "kmeans"
    dof_mode: float | str = "estimate"
    equal_weights: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.G < 1:
            raise ValueError("G must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}")
        dof = self.dof_mode
        if not (isinstance(dof, str) and dof == "estimate"):
            if (isinstance(dof, bool) or not isinstance(dof, numbers.Real)
                    or not (math.isfinite(dof) and dof > 0)):
                raise ValueError("dof_mode must be 'estimate' or a finite positive number")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class FitResult:
    model: CwmModel
    loglik_trace: np.ndarray
    responsibilities: np.ndarray
    converged: bool
    n_iter: int
    start_index: int


# ------------------------------------------------------------ initialization

def _kmeans_labels(z: np.ndarray, G: int, rng, max_iter: int = 20) -> np.ndarray:
    n = z.shape[0]
    for _ in range(50):
        centers = z[rng.choice(n, size=G, replace=False)]
        assign = None
        ok = True
        for _ in range(max_iter):
            dist = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = dist.argmin(axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            counts = np.bincount(assign, minlength=G)
            if np.any(counts == 0):
                ok = False
                break
            centers = np.stack([z[assign == g].mean(axis=0) for g in range(G)])
        if ok:
            return assign
    raise ValueError("k-means produced an empty cluster in every attempt")


def initialize(data: Dataset, config: FitConfig, rng) -> np.ndarray:
    """Hard-partition initial responsibilities (N-by-G of zeros and ones)."""
    if data.n <= config.G:
        raise ValueError("need more observations than groups")
    G = config.G
    if config.init == "given_labels":
        if data.labels is None:
            raise ValueError("given_labels initialization requires data.labels")
        labels = data.labels
        if np.any((labels < 1) | (labels > G)):
            raise ValueError(f"labels must lie in 1..{G}")
        assign = labels - 1
    elif config.init == "random_partition":
        for _ in range(50):
            assign = rng.integers(0, G, size=data.n)
            if len(np.unique(assign)) == G:
                break
        else:
            raise ValueError("random partition left a cluster empty in every attempt")
    else:
        assign = _kmeans_labels(np.column_stack([data.x, data.y]), G, rng)
    resp = np.zeros((data.n, G))
    resp[np.arange(data.n), assign] = 1.0
    return resp


# ----------------------------------------------------------- dof estimation

def estimate_dof(weighted_stat: float, bracket: tuple[float, float] = DOF_BRACKET,
                 start: float | None = None) -> float:
    """Solve f(v) = -digamma(v/2) + log(v/2) + 1 + stat = 0 for v by
    safeguarded Newton, starting from ``start`` (default: the bracket's middle).

    f is strictly decreasing and convex in v, with
    f'(v) = -trigamma(v/2) / 2 + 1 / v.  The bracket around the root shrinks
    with every evaluation, and a Newton step that leaves it is replaced by
    bisection.  The root is defined by digamma alone; trigamma only steers.
    The solve stops when a step or the bracket is below 1e-10.  If f has no
    sign change on the bracket, the nearer boundary is returned with a
    warning; weights identically 1 (stat = -1, the Gaussian limit) land on
    the upper bound.
    """
    if not np.isfinite(weighted_stat):
        raise ValueError("non-finite dof statistic")
    lo, hi = bracket

    def f(nu):
        return -digamma(nu / 2.0) + math.log(nu / 2.0) + 1.0 + weighted_stat

    if f(lo) <= 0.0:
        warnings.warn("dof root below bracket; returning the lower bound", RuntimeWarning)
        return lo
    if f(hi) >= 0.0:
        warnings.warn("dof root above bracket; returning the upper bound", RuntimeWarning)
        return hi
    nu = 0.5 * (lo + hi) if start is None else min(max(float(start), lo), hi)
    for _ in range(100):
        value = f(nu)
        if value == 0.0:
            return nu
        if value > 0.0:
            lo = nu
        else:
            hi = nu
        step = value / (1.0 / nu - 0.5 * trigamma(nu / 2.0))
        new = nu - step if lo < nu - step < hi else 0.5 * (lo + hi)
        if abs(new - nu) < 1e-10 or hi - lo < 1e-10:
            return new
        nu = new
    return nu


def _solve_dof(old_dof: float, q: int, stat: float) -> float:
    # Exact conditional maximizer in the dof: fold the E-step's E[log U]
    # digamma correction into the weighted statistic, then solve from the old dof.
    stat += digamma((old_dof + q) / 2.0) - math.log((old_dof + q) / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return estimate_dof(stat, start=old_dof)


# ------------------------------------------------------------------- M-step

def _regularize_cov(center: np.ndarray, cov: np.ndarray, dof: float | None = None):
    """(x law, ridged): the Gaussian law, or the t law when ``dof`` is given,
    built once; a covariance that does not factor is ridged and tried again."""
    cov = 0.5 * (cov + cov.T)

    def law(c):
        return GaussianParams(center, c) if dof is None else StudentParams(center, c, dof)

    try:
        return law(cov), False
    except ValueError:
        pass
    ridge = 1e-8 * np.trace(cov) / cov.shape[0]
    try:
        return law(cov + ridge * np.eye(cov.shape[0])), True
    except ValueError:
        raise _DegenerateStart("singular covariance after regularization") from None


def _weighted_ls(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    design = np.column_stack([x, np.ones(x.shape[0])])
    weighted = design * w[:, None]
    try:
        beta = solve_spd(design.T @ weighted, weighted.T @ y)
    except ValueError:
        raise _DegenerateStart("singular weighted design") from None
    return beta[:-1], float(beta[-1])


def _latent_weights(model: CwmModel | None, x, y, dist: Distances | None = None) -> _Weights:
    """Per-point t precision weights from the current parameters; a joint t
    (fmt) gives x and y the one weight of its (d+1)-variate law.  ``dist`` is
    the E-step's ``_component_distances`` at the same parameters, when known."""
    if model is None or model.spec.x_law != "t":
        return _Weights(None, None)
    if dist is None:
        dist = _component_distances(model, x, y)
    d = x.shape[1]
    conds = [comp.y_conditional for comp in model.components]
    nu = np.array([[comp.x_marginal.dof] for comp in model.components])
    delta_y = dist.resid**2 / np.array([[cond.noise_scale] for cond in conds]) ** 2
    # distances are G-by-N; the weights are N-by-G like the responsibilities
    if model.spec.y_law == "joint_t":
        u = ((nu + d + 1.0) / (nu + dist.x + delta_y)).T
        return _Weights(u, u)
    zeta = np.array([[cond.dof] for cond in conds])
    return _Weights(((nu + d) / (nu + dist.x)).T, ((zeta + 1.0) / (zeta + delta_y)).T)


def _fit_gating(x: np.ndarray, resp: np.ndarray, old_gating) -> list[Gating]:
    """One penalized Newton (IRLS) step on the gating objective
    sum(resp * log_gate), taken from the previous gating.

    The step is halved until the objective does not decrease, which makes the
    update a GEM step: the observed-data log-likelihood cannot fall.  If no
    halving is accepted, or the ridged Hessian cannot be factored, the old
    gating is kept.  Repeated on fixed responsibilities, the steps converge to
    the full gating M-step's maximizer.
    """
    n, d = x.shape
    G = resp.shape[1]
    m, k = G - 1, (G - 1) * (d + 1)
    design = np.column_stack([x, np.ones(n)])
    theta = np.array([np.append(g.w, g.w0) for g in old_gating[1:]])

    def log_gate(th):
        logits = np.zeros((n, G))
        logits[:, 1:] = design @ th.T
        return logits - log_sum_exp(logits, axis=1)[:, None]

    def gating(th):
        return [Gating(np.zeros(d), 0.0)] + [
            Gating(th[i, :d].copy(), float(th[i, d])) for i in range(m)
        ]

    current = log_gate(theta)
    value = float(np.sum(resp * current))
    prob = np.exp(current[:, 1:])
    grad = (resp[:, 1:] - prob).T @ design
    if np.max(np.abs(grad)) < 1e-10:
        return gating(theta)
    # negated Hessian, positive semidefinite: block (g, h) is
    # X' diag(p_g (delta_gh - p_h)) X, every block from one product
    w = prob[:, :, None] * (np.eye(m) - prob[:, None, :])
    outer = design[:, :, None] * design[:, None, :]
    hess = (w.reshape(n, m * m).T @ outer.reshape(n, -1)).reshape(m, m, d + 1, d + 1)
    hess = hess.transpose(0, 2, 1, 3).reshape(k, k)
    try:
        step = solve_spd(hess + 1e-6 * np.eye(k), grad.ravel()).reshape(m, d + 1)
    except ValueError:
        return gating(theta)
    scale = 1.0
    for _ in range(20):
        candidate = theta + scale * step
        if float(np.sum(resp * log_gate(candidate))) >= value - 1e-12:
            return gating(candidate)
        scale *= 0.5
    return gating(theta)


def _next_dofs(config, spec, old_model, d, resp, mass, u):
    """Per component, the (x dofs, y dofs) of the t laws; a joint t ties y's
    to nu + d."""
    joint = spec.y_law == "joint_t"
    if config.dof_mode != "estimate":
        nu = zeta = [float(config.dof_mode)] * len(mass)
    elif old_model is None:
        nu = zeta = [_INIT_DOF] * len(mass)
    else:
        def solve(w, q, old_dofs):
            # weighted statistic sum r (log u - u) / sum r of every component
            stats = (resp * (np.log(w) - w)).sum(axis=0) / mass
            return [_solve_dof(old, q, float(stat)) for old, stat in zip(old_dofs, stats)]

        comps = old_model.components
        nu = solve(u.x, d + 1 if joint else d, [c.x_marginal.dof for c in comps])
        zeta = None if joint else solve(u.y, 1, [c.y_conditional.dof for c in comps])
    return nu, [v + d for v in nu] if joint else zeta


def _m_step(data, config, resp, u, old_model):
    x, y = data.x, data.y
    d, G = data.d, config.G
    spec = VARIANT_SPECS[config.variant]
    mass = resp.sum(axis=0)
    if np.any(mass < d + 2):
        raise _DegenerateStart("cluster responsibility mass below d + 2")
    if config.equal_weights:
        weights = np.full(G, 1.0 / G)
    else:
        weights = mass / mass.sum()
    var_floor = _NOISE_VAR_FLOOR * (float(np.var(y)) + 1e-30)
    nus = zetas = [None] * G
    if spec.x_law == "t":
        nus, zetas = _next_dofs(config, spec, old_model, d, resp, mass, u)
    used_ridge = False
    comps = []
    for g, (nu, zeta) in enumerate(zip(nus, zetas)):
        r = resp[:, g]
        marg = None
        if spec.x_law is not None:
            wx = r if u.x is None else r * u.x[:, g]
            mu = (wx[:, None] * x).sum(axis=0) / wx.sum()
            centered = x - mu
            marg, ridged = _regularize_cov(mu, (wx[:, None] * centered).T @ centered / mass[g], nu)
            used_ridge |= ridged
        wy = r if u.y is None else r * u.y[:, g]
        slope, intercept = _weighted_ls(x, y, wy)
        resid = y - (x @ slope + intercept)
        noise_var = float((wy * resid**2).sum() / mass[g])
        if not noise_var > var_floor:
            raise _DegenerateStart("collapsed noise variance")
        cond = Conditional(LinearMap(slope, intercept), math.sqrt(noise_var), dof=zeta)
        comps.append(Component(weights[g], marg, cond))
    gating = None
    if spec.gated:
        old_gating = old_model.gating if old_model is not None else [Gating(np.zeros(d), 0.0)] * G
        gating = tuple(_fit_gating(x, resp, old_gating))
    return CwmModel(config.variant, tuple(comps), gating), used_ridge


# -------------------------------------------------------------------- driver

def _run_start(data, config, resp, start_index):
    x, y = data.x, data.y
    model, ridged = _m_step(data, config, resp, _Weights(None, None), None)
    streak = 1 if ridged else 0
    trace = []
    converged = False
    for it in range(config.max_iter):
        dist = _component_distances(model, x, y)
        terms = _log_component_terms(model, x, y, dist)
        row_lse = log_sum_exp(terms, axis=1)
        loglik = float(row_lse.sum())
        if not math.isfinite(loglik):
            raise _DegenerateStart("non-finite log-likelihood")
        trace.append(loglik)
        resp = np.exp(terms - row_lse[:, None])
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) / (1.0 + abs(trace[-1])) < config.rel_tol:
            converged = True
            break
        if it == config.max_iter - 1:
            break
        u = _latent_weights(model, x, y, dist)
        model, ridged = _m_step(data, config, resp, u, model)
        streak = streak + 1 if ridged else 0
        if streak >= 3:
            raise _DegenerateStart("covariance required repeated regularization")
    return FitResult(
        model=model,
        loglik_trace=np.asarray(trace),
        responsibilities=resp,
        converged=converged,
        n_iter=len(trace),
        start_index=start_index,
    )


def fit(data: Dataset, config: FitConfig) -> FitResult:
    """Best-of-n-starts EM/ECM fit; ties go to the lowest start index."""
    if data.n <= config.G:
        raise ValueError("need more observations than groups")
    # given_labels is deterministic, so extra starts would be identical
    n_starts = 1 if config.init == "given_labels" else config.n_starts
    best = None
    failures = []
    for start in range(n_starts):
        rng = np.random.default_rng([config.seed, start])
        try:
            resp0 = initialize(data, config, rng)
            result = _run_start(data, config, resp0, start)
        except _DegenerateStart as exc:
            failures.append(f"start {start}: {exc}")
            continue
        if best is None or result.loglik_trace[-1] > best.loglik_trace[-1]:
            best = result
    if best is None:
        raise DegenerateFitError("; ".join(failures))
    return best
