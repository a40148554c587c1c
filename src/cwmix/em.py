"""EM / ECME fitting for every model variant, with multi-start initialization.

Every variant takes the same M-step, read off the variant's row in
``model.VARIANT_SPECS``: y is fitted on x by weighted least squares, and when
x is modelled its mean and covariance are weighted moments.  Gaussian
variants use plain EM, so fmg takes gaussian_cwm's update exactly (the Schur
complement of the weighted joint moments of (x, y) is that least-squares fit).

Student-t variants use ECME (Liu & Rubin 1994; McLachlan & Peel 2000, 7.5).
The E-step adds latent precision weights u = (dof + q) / (dof + delta), and
the first CM-step sets the locations, scales, slopes and noise variances from
the u-weighted moments; fmt's joint t gives x and y one shared weight,
(nu + d + 1) / (nu + delta_x + resid^2 / sigma^2).  The dof step then
maximizes the observed log-likelihood rather than the complete-data one: with
the responsibilities r held fixed and u integrated out, each t law's dof
maximizes sum_i r_ig log t_q(delta_ig; nu), solved by safeguarded Newton in
``DOF_BRACKET`` from the previous dof (``estimate_dof``).  t_cwm solves its
x law (q = d, delta_x) and its y law (q = 1, resid^2 / sigma^2) separately;
fmt solves its one dof on the joint distance delta_x + resid^2 / sigma^2
(q = d + 1), sigma^2 being the Schur scale.  A dof on the bracket edge is a
routine result (the upper edge is the Gaussian limit) and is returned as is.
Both CM-steps raise the observed log-likelihood, and the dof step removes
the slow direction of ECM's, so t fits converge in tens of iterations.

``_m_step`` returns, with the new model, the ``Distances`` the next E-step
reads of it: the x distances to the x laws it just factored, the residuals it
formed for the noise variances and the log gate of the gating it accepted.
No dof enters them, so the dof step reads them too, and the M-step after
takes its t weights and gating step from them: x is whitened once and the
gate evaluated once per iteration.

One iteration does its small-matrix work once for all G components, with no
per-component loop on the hot path.  The M-step works on G-by-N weights:
every weighted Gram matrix, right-hand side, x moment and noise variance
comes from a stacked product, one stacked factorization solves every
least-squares fit, and one more factors every x covariance (one that does
not factor sends each component through ``_regularize_cov``).  Only the dof
solves and the building of the component objects stay per component.
The [x, 1] design, the noise-variance floor and, for fmrc, the gating
Hessian's per-point blocks are computed once per start.

The fmrc gating M-step is generalized EM: each iteration takes one guarded,
penalized Newton step from the previous gating, starting from the log gate
the E-step already evaluated, instead of solving the gating problem to
convergence.  The step is halved until the gating objective does not
decrease, so the observed-data log-likelihood stays non-decreasing.

``fit`` runs the best of several starts, each a k-means partition of (x, y)
from its own seeded generator.  The k-means works on contiguous coordinate
rows built once per fit: it sums the N-by-G squared distances one coordinate
at a time and takes the centroids from ``np.bincount``, so it keeps no
N-by-G-by-D temporary; up to d = 6 its labels are bit for bit those of the
N-by-G-by-D sum and the masked means.  k-means often returns one partition to
several starts; a start is fitted given its partition alone, so a repeat is
not run again.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# mahalanobis_sq is not called here (the weights reuse the E-step's
# distances); perfbench/tracing.py still looks it up in this module.
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
    _gate_logits,
    _gating_theta,
    _log_component_terms,
    _x_distances,
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

def _kmeans_columns(data: Dataset) -> np.ndarray:
    """The D-by-N coordinates of (x, y) that k-means clusters, one contiguous
    row per coordinate."""
    return np.column_stack([data.x, data.y]).T.copy()


def _kmeans_labels(columns: np.ndarray, G: int, rng, max_iter: int = 20) -> np.ndarray:
    """Lloyd's k-means on the D-by-N ``columns`` from G distinct random points,
    restarted from new points when a cluster empties.  The squared distances
    are summed one coordinate at a time, left to right, which is the order of
    numpy's ``sum`` over fewer than eight terms (every (x, y) with d <= 6);
    each centroid sums its points in index order, as a masked mean does."""
    n = columns.shape[1]
    for _ in range(50):
        centers = columns[:, rng.choice(n, size=G, replace=False)]
        assign = None
        ok = True
        for _ in range(max_iter):
            dist = (columns[0][:, None] - centers[0]) ** 2
            for column, center in zip(columns[1:], centers[1:]):
                dist += (column[:, None] - center) ** 2
            new_assign = dist.argmin(axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            counts = np.bincount(assign, minlength=G)
            if np.any(counts == 0):
                ok = False
                break
            centers = np.stack([np.bincount(assign, weights=column, minlength=G)
                                for column in columns]) / counts
        if ok:
            return assign
    raise ValueError("k-means produced an empty cluster in every attempt")


def initialize(data: Dataset, config: FitConfig, rng,
               columns: np.ndarray | None = None) -> np.ndarray:
    """Hard-partition initial responsibilities (N-by-G of zeros and ones).
    ``columns`` is ``_kmeans_columns(data)`` when the caller has it."""
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
        if columns is None:
            columns = _kmeans_columns(data)
        assign = _kmeans_labels(columns, G, rng)
    resp = np.zeros((data.n, G))
    resp[np.arange(data.n), assign] = 1.0
    return resp


# ----------------------------------------------------------- dof estimation

def estimate_dof(delta, weights, q: int, start: float | None = None,
                 bracket: tuple[float, float] = DOF_BRACKET) -> float:
    """The dof v in ``bracket`` that maximizes sum_i w_i log t_q(delta_i; v),
    the weighted log-density of a q-variate t law whose location and scale
    are held fixed, at the squared Mahalanobis distances ``delta`` from it.

    The score is f(v) = sum_i w_i [digamma((v+q)/2) - digamma(v/2) - q/v
    - log(1 + delta_i/v) + (v+q) delta_i / (v (v + delta_i))], twice the
    derivative of the objective.  It is solved by safeguarded Newton from
    ``start`` (default: the bracket's middle), with f' from trigamma: the
    bracket around the root shrinks with every evaluation, and a Newton step
    that leaves it, or that f' does not point to, is replaced by bisection.
    The root is defined by digamma alone; trigamma only steers.  The solve
    stops when a step or the bracket is below 1e-10 of the dof.  f is
    evaluated at the start once, and then at the one bracket edge the
    objective rises towards; if f has no sign change there, that edge is the
    constrained maximizer and is returned as is (the upper edge is the
    Gaussian limit).  Every other return is a root where f turns from
    positive to negative, a local maximum.
    """
    delta = np.asarray(delta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mass = float(weights.sum())
    lo, hi = bracket

    def score(nu):
        t = delta / nu
        b = t / (1.0 + t)  # delta / (nu + delta)
        value = (mass * (digamma((nu + q) / 2.0) - digamma(nu / 2.0) - q / nu)
                 - weights @ np.log1p(t) + (1.0 + q / nu) * (weights @ b))
        return float(value), b

    def slope(nu, b):
        wb, wbb = float(weights @ b), float(weights @ (b * b))
        return (mass * (0.5 * (trigamma((nu + q) / 2.0) - trigamma(nu / 2.0)) + q / nu**2)
                + wbb / nu - q * (2.0 * wb - wbb) / nu**2)

    nu = 0.5 * (lo + hi) if start is None else min(max(float(start), lo), hi)
    value, b = score(nu)
    if not math.isfinite(value):
        raise ValueError("non-finite dof score")
    # only the bracket edge the objective rises towards can lack a sign change
    if value <= 0.0 and (nu == lo or score(lo)[0] <= 0.0):
        return float(lo)
    if value >= 0.0 and (nu == hi or score(hi)[0] >= 0.0):
        return float(hi)
    for _ in range(100):
        if value == 0.0:
            return nu
        if value > 0.0:
            lo = nu
        else:
            hi = nu
        fp = slope(nu, b)
        new = nu - value / fp if fp < 0.0 else lo
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        # relative: at large dofs the score's rounding moves the root by more
        # than an absolute 1e-10 (about 1e-9 at a dof of 100)
        if abs(new - nu) < 1e-10 * nu or hi - lo < 1e-10 * nu:
            return new
        nu = new
        value, b = score(nu)
    return nu


def _solve_dof(old_dofs, q: int, delta: np.ndarray, resp: np.ndarray) -> list[float]:
    """ECME dofs of every component of one q-variate t law: component g's
    maximizes sum_i resp_ig log t_q(delta_gi; nu), with delta the G-by-N
    distances to the laws this M-step set, warm-started from its old dof."""
    return [estimate_dof(row, r, q, start=old)
            for old, row, r in zip(old_dofs, delta, np.ascontiguousarray(resp.T))]


# ------------------------------------------------------------------- M-step

def _regularize_cov(center: np.ndarray, cov: np.ndarray):
    """(Gaussian x law, ridged), the law built once; a covariance that does
    not factor is ridged and tried again."""
    cov = 0.5 * (cov + cov.T)
    try:
        return GaussianParams(center, cov), False
    except ValueError:
        pass
    ridge = 1e-8 * np.trace(cov) / cov.shape[0]
    try:
        return GaussianParams(center, cov + ridge * np.eye(cov.shape[0])), True
    except ValueError:
        raise _DegenerateStart("singular covariance after regularization") from None


def _x_factors(centers: np.ndarray, covs: np.ndarray):
    """(covariances, Cholesky factors, ridged) of the G-by-d-by-d x
    covariances, from one stacked factorization.  When any covariance does
    not factor, each goes through _regularize_cov."""
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    try:
        return covs, cholesky_lower(covs), False
    except ValueError:
        pass
    built = [_regularize_cov(center, cov) for center, cov in zip(centers, covs)]
    return (np.array([law.cov for law, _ in built]), np.array([law.chol for law, _ in built]),
            any(ridged for _, ridged in built))


def _weighted_ls(design: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares of y on the N-by-(d+1) design [x, 1], one fit
    per column of the N-by-G weights: (G-by-d slopes, G intercepts).  The G
    weighted Gram matrices come from one stacked product and are solved by one
    stacked factorization."""
    weighted = w.T[:, :, None] * design
    try:
        beta = solve_spd(design.T @ weighted, weighted.transpose(0, 2, 1) @ y)
    except ValueError:
        raise _DegenerateStart("singular weighted design") from None
    return beta[:, :-1], beta[:, -1]


def _latent_weights(model: CwmModel | None, dist: Distances | None) -> _Weights:
    """Per-point t precision weights at ``model``, from the E-step's distances
    ``dist`` to it; a joint t (fmt) gives x and y the one weight of its
    (d+1)-variate law.  (None, None) when no t law weights the points."""
    if model is None or model.spec.x_law != "t":
        return _Weights(None, None)
    d = model.d
    conds = [comp.y_conditional for comp in model.components]
    nu = np.array([[comp.x_marginal.dof] for comp in model.components])
    delta_y = dist.resid**2 / np.array([[cond.noise_scale] for cond in conds]) ** 2
    # distances are G-by-N; the weights are N-by-G like the responsibilities
    if model.spec.y_law == "joint_t":
        u = ((nu + d + 1.0) / (nu + dist.x + delta_y)).T
        return _Weights(u, u)
    zeta = np.array([[cond.dof] for cond in conds])
    return _Weights(((nu + d) / (nu + dist.x)).T, ((zeta + 1.0) / (zeta + delta_y)).T)


def _fit_gating(x: np.ndarray, resp: np.ndarray, old_gating, log_gate, design: np.ndarray,
                outer: np.ndarray) -> tuple[tuple[Gating, ...], np.ndarray]:
    """One penalized Newton (IRLS) step on the gating objective
    sum(resp * log_gate), taken from the previous gating: (gating, its G-by-N
    log gate).

    ``log_gate`` is the E-step's log gate at ``old_gating``
    (``Distances.log_gate``; None before the first E-step, and then computed
    here), ``design`` the N-by-(d+1) [x, 1] and ``outer`` its rows'
    N-by-(d+1)^2 self products.  The step is halved until the objective
    does not decrease, which makes the update a GEM step: the observed-data
    log-likelihood cannot fall.  If no halving is accepted, or the ridged
    Hessian cannot be factored, the old gating is kept.  One component has no
    gate to fit and keeps the baseline.  Repeated on fixed responsibilities,
    the steps converge to the full gating M-step's maximizer.
    """
    n, d = x.shape
    G = resp.shape[1]
    m, k = G - 1, (G - 1) * (d + 1)
    theta = _gating_theta(old_gating)

    def log_gate_at(th):
        logits = _gate_logits(x, th)
        return logits - log_sum_exp(logits, axis=0)

    def gating(th):
        return (Gating(np.zeros(d), 0.0),) + tuple(
            Gating(th[i, :d].copy(), float(th[i, d])) for i in range(m)
        )

    if log_gate is None:
        log_gate = log_gate_at(theta)
    value = float(np.sum(resp * log_gate.T))
    prob = np.exp(log_gate[1:].T)
    grad = (resp[:, 1:] - prob).T @ design
    if m == 0 or np.max(np.abs(grad)) < 1e-10:
        return gating(theta), log_gate
    # negated Hessian, positive semidefinite: block (g, h) is
    # X' diag(p_g (delta_gh - p_h)) X, every block from one product
    w = prob[:, :, None] * (np.eye(m) - prob[:, None, :])
    hess = (w.reshape(n, m * m).T @ outer).reshape(m, m, d + 1, d + 1)
    hess = hess.transpose(0, 2, 1, 3).reshape(k, k)
    try:
        step = solve_spd(hess + 1e-6 * np.eye(k), grad.ravel()).reshape(m, d + 1)
    except ValueError:
        return gating(theta), log_gate
    scale = 1.0
    for _ in range(20):
        candidate = theta + scale * step
        candidate_log_gate = log_gate_at(candidate)
        if float(np.sum(resp * candidate_log_gate.T)) >= value - 1e-12:
            return gating(candidate), candidate_log_gate
        scale *= 0.5
    return gating(theta), log_gate


def _next_dofs(config, spec, old_model, d, resp, delta_x, delta_y):
    """Per component, the (x dofs, y dofs) of the t laws; a joint t ties y's
    to nu + d.  ``delta_x`` and ``delta_y`` are the G-by-N squared distances
    of x and of the y residuals to the laws this M-step set."""
    joint = spec.y_law == "joint_t"
    G = resp.shape[1]
    if config.dof_mode != "estimate":
        nu = zeta = [float(config.dof_mode)] * G
    elif old_model is None:
        nu = zeta = [_INIT_DOF] * G
    else:
        comps = old_model.components
        old_nu = [c.x_marginal.dof for c in comps]
        if joint:
            nu = _solve_dof(old_nu, d + 1, delta_x + delta_y, resp)
        else:
            nu = _solve_dof(old_nu, d, delta_x, resp)
            zeta = _solve_dof([c.y_conditional.dof for c in comps], 1, delta_y, resp)
    return nu, [v + d for v in nu] if joint else zeta


#: What every M-step of one start reads unchanged: the N-by-(d+1) design
#: [x, 1], the floor under the noise variances, and for a gated variant the
#: N-by-(d+1)^2 products of each design row with itself (the gating Hessian's
#: per-point blocks; None otherwise).
_StartConstants = namedtuple("_StartConstants", ["design", "var_floor", "outer"])


def _start_constants(data: Dataset, gated: bool = False) -> _StartConstants:
    design = np.column_stack([data.x, np.ones(data.n)])
    outer = (design[:, :, None] * design[:, None, :]).reshape(data.n, -1) if gated else None
    return _StartConstants(design, _NOISE_VAR_FLOOR * (float(np.var(data.y)) + 1e-30), outer)


def _m_step(data, config, resp, old_model, old_dist, const):
    """(model, dist, ridged) from ``resp`` and the E-step's distances
    ``old_dist`` to ``old_model`` (both None before the first E-step).

    Every component is updated at once: G-by-N weights, stacked moments, one
    stacked least-squares solve and one stacked x-law factorization, then the
    ECME dof step and the gating step.  ``dist`` is the next E-step's input,
    taken from what these computed; ``ridged`` tells whether an x covariance
    was ridged."""
    x, y = data.x, data.y
    u = _latent_weights(old_model, old_dist)
    d, G = data.d, config.G
    spec = VARIANT_SPECS[config.variant]
    mass = resp.sum(axis=0)
    if np.any(mass < d + 2):
        raise _DegenerateStart("cluster responsibility mass below d + 2")
    if config.equal_weights:
        weights = np.full(G, 1.0 / G)
    else:
        weights = mass / mass.sum()
    used_ridge, dist_x = False, None
    if spec.x_law is not None:
        wx = (resp if u.x is None else resp * u.x).T
        mu = (wx @ x) / wx.sum(axis=1)[:, None]
        centered = x - mu[:, None, :]
        covs = (wx[:, :, None] * centered).transpose(0, 2, 1) @ centered / mass[:, None, None]
        covs, chols, used_ridge = _x_factors(mu, covs)
        dist_x = _x_distances(chols, mu, x)
    wy = resp if u.y is None else resp * u.y
    slopes, intercepts = _weighted_ls(const.design, y, wy)
    resid = y - (slopes @ x.T + intercepts[:, None])
    noise_var = (wy.T * resid**2).sum(axis=1) / mass
    if not np.all(noise_var > const.var_floor):
        raise _DegenerateStart("collapsed noise variance")
    margs = zetas = [None] * G
    if spec.x_law == "gaussian":
        margs = [GaussianParams._from_factor(*args) for args in zip(mu, covs, chols)]
    elif spec.x_law == "t":
        nus, zetas = _next_dofs(config, spec, old_model, d, resp, dist_x,
                                resid**2 / noise_var[:, None])
        margs = [StudentParams._from_factor(*args) for args in zip(mu, covs, nus, chols)]
    comps = tuple(
        Component(weight, marg, Conditional(LinearMap(slope, b0), math.sqrt(var), dof=zeta))
        for weight, marg, slope, b0, var, zeta
        in zip(weights, margs, slopes, intercepts, noise_var, zetas)
    )
    gating = log_gate = None
    if spec.gated:
        old_gating = old_model.gating if old_model is not None else [Gating(np.zeros(d), 0.0)] * G
        old_log_gate = old_dist.log_gate if old_dist is not None else None
        gating, log_gate = _fit_gating(x, resp, old_gating, old_log_gate, const.design, const.outer)
    return CwmModel(config.variant, comps, gating), Distances(dist_x, resid, log_gate), used_ridge


# -------------------------------------------------------------------- driver

def _run_start(data, config, resp, start_index):
    x, y = data.x, data.y
    const = _start_constants(data, VARIANT_SPECS[config.variant].gated)
    model, dist, ridged = _m_step(data, config, resp, None, None, const)
    streak = 1 if ridged else 0
    trace = []
    converged = False
    for it in range(config.max_iter):
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
        model, dist, ridged = _m_step(data, config, resp, model, dist, const)
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
    """Best-of-n-starts EM/ECME fit; ties go to the lowest start index.

    A start whose initial partition repeats an earlier start's is not run: the
    fit is deterministic given the partition, so its result would equal the
    earlier one's and, on the tie, lose to it."""
    if data.n <= config.G:
        raise ValueError("need more observations than groups")
    # given_labels is deterministic, so extra starts would be identical
    n_starts = 1 if config.init == "given_labels" else config.n_starts
    columns = _kmeans_columns(data) if config.init == "kmeans" else None
    best = None
    failures = []
    first = {}  # initial partition -> the start that ran it
    failed = set()
    for start in range(n_starts):
        rng = np.random.default_rng([config.seed, start])
        resp0 = initialize(data, config, rng, columns)
        earlier = first.setdefault(resp0.argmax(axis=1).tobytes(), start)
        if earlier != start:
            if earlier in failed:
                failures.append(f"start {start}: duplicate of start {earlier}")
            continue
        try:
            result = _run_start(data, config, resp0, start)
        except _DegenerateStart as exc:
            failures.append(f"start {start}: {exc}")
            failed.add(start)
            continue
        if best is None or result.loglik_trace[-1] > best.loglik_trace[-1]:
            best = result
    if best is None:
        raise DegenerateFitError("; ".join(failures))
    return best
