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
routine result (the upper edge is the Gaussian limit) and is returned as is;
the solve scores that edge only when a Newton iterate reaches it, so a warm
start near an interior root scores neither edge.
Both CM-steps raise the observed log-likelihood, and the dof step removes
the slow direction of ECM's, so t fits converge in tens of iterations.

EM reads and writes one record, ``model._Stack``: every parameter as a
G-stacked array.  ``_m_step`` returns the new record and the ``Distances``
the next E-step reads of it: the x distances to the x laws it just factored,
the residuals it formed for the noise variances and the log gate of the
gating it accepted.  No dof enters them, so the dof step reads them too, and
the M-step after takes its t weights and gating step from them: x is
whitened once and the gate evaluated once per iteration.  A start builds its
validated ``CwmModel`` once, from the record its last E-step read
(``model._unstack``).

One iteration makes each small-matrix call once for all G components:
``cholesky_lower`` and ``solve_spd`` take the G-stack in one call and
factor its matrices one by one as Python floats.  The M-step works on G-by-N
weights: every weighted Gram matrix, right-hand side, x moment and noise
variance comes from a stacked product, one stacked factorization solves every
least-squares fit, and one more factors every x covariance (one that does
not factor sends each component through ``_regularize_cov``).  Only the dof
solves stay per component.
Every weighted product runs over N as its innermost, contiguous axis: x is
centred at each component's mean as G-by-d-by-N rows, the weighted design
as G-by-(d+1)-by-N, and the next E-step's x distances whiten that same
centred x rather than subtracting the means again.  The [x, 1] design, x as
d contiguous rows, the noise-variance floor and, for fmrc, the gating
Hessian's per-point blocks are computed once per start.

The fmrc gating M-step is generalized EM: each iteration takes one guarded,
penalized Newton step from the previous gating, starting from the log gate
the E-step already evaluated, instead of solving the gating problem to
convergence.  The step is halved until the gating objective does not
decrease, so the observed-data log-likelihood stays non-decreasing.

``fit`` keeps the best of several starts, each a k-means partition of (x, y)
from its own seeded generator.  It draws every start's partition before it
fits any, then fits each distinct partition once, in start order: k-means
often returns one partition to several starts, and a start is fitted given
its partition alone.  Each start's k-means builds contiguous coordinate rows
of (x, y): it sums the N-by-G squared distances one coordinate at a time
and takes the centroids from ``np.bincount``, so it keeps no N-by-G-by-D
temporary; up to d = 6 its labels are bit for bit those of the N-by-G-by-D
sum and the masked means.
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
    _log_det,
    _whitened_sq,
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
    CwmModel,
    Dataset,
    Distances,
    _gate_logits,
    _integer,
    _log_component_terms,
    _seed,
    _Stack,
    _unstack,
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
    seed: int = 0

    def __post_init__(self):
        for name in ("G", "max_iter", "n_starts"):
            _integer(name, getattr(self, name))
        _seed(self.seed)
        if self.G < 1:
            raise ValueError("G must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be finite and positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}")
        dof = self.dof_mode
        if not (isinstance(dof, str) and dof == "estimate"):
            if (isinstance(dof, bool) or not isinstance(dof, numbers.Real)
                    or not (math.isfinite(dof) and dof > 0)):
                raise ValueError("dof_mode must be 'estimate' or a finite positive number")


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


def _kmeans_labels(columns: np.ndarray, G: int, rng) -> np.ndarray:
    """Lloyd's k-means, at most 20 iterations, on the D-by-N ``columns`` from
    G distinct random points, restarted from new points when a cluster
    empties.  The squared distances are summed one coordinate at a time, left
    to right, which is the order of numpy's ``sum`` over fewer than eight
    terms (every (x, y) with d <= 6); each centroid sums its points in index
    order, as a masked mean does."""
    n = columns.shape[1]
    for _ in range(50):
        centers = columns[:, rng.choice(n, size=G, replace=False)]
        assign = None
        for _ in range(20):
            dist = (columns[0][:, None] - centers[0]) ** 2
            for column, center in zip(columns[1:], centers[1:]):
                dist += (column[:, None] - center) ** 2
            new_assign = dist.argmin(axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                return assign
            assign = new_assign
            counts = np.bincount(assign, minlength=G)
            if np.any(counts == 0):
                break
            centers = np.stack([np.bincount(assign, weights=column, minlength=G)
                                for column in columns]) / counts
        else:
            return assign
    raise ValueError("k-means produced an empty cluster in every attempt")


def initialize(data: Dataset, config: FitConfig, rng) -> np.ndarray:
    """Hard-partition initial responsibilities (N-by-G of zeros and ones);
    k-means clusters the coordinate rows ``_kmeans_columns(data)``."""
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
        assign = _kmeans_labels(_kmeans_columns(data), G, rng)
    resp = np.zeros((data.n, G))
    resp[np.arange(data.n), assign] = 1.0
    return resp


# ----------------------------------------------------------- dof estimation

def estimate_dof(delta, weights, q: int, start: float | None = None) -> float:
    """The dof v in ``DOF_BRACKET`` that maximizes sum_i w_i log t_q(delta_i; v),
    the weighted log-density of a q-variate t law whose location and scale
    are held fixed, at the squared Mahalanobis distances ``delta`` from it.

    The score is f(v) = sum_i w_i [digamma((v+q)/2) - digamma(v/2) - q/v
    - log(1 + delta_i/v) + (v+q) delta_i / (v (v + delta_i))], twice the
    derivative of the objective.  It is solved by safeguarded Newton from
    ``start`` (default: the bracket's middle), with f' from trigamma: the
    bracket around the root shrinks with every evaluation, and a Newton step
    that leaves it, or that f' does not point to, is replaced by bisection.
    The root is defined by digamma alone; trigamma only steers.  The solve
    stops when a step or the bracket is below 1e-10 of the dof.

    f at the start says which bracket edge the objective rises towards; only
    that edge can lack a sign change.  It is scored when an iterate would
    reach it: when a Newton step leaves the bracket on its side, or f' does
    not point into the bracket, while the edge still bounds it.  If f has no
    sign change there, that edge is the constrained maximizer and is
    returned as is (the upper edge is the Gaussian limit); otherwise the
    step is a bisection.  The edge's value enters no Newton or bisection
    step, so the iterates and the return are those of scoring the edge
    right after the start, and a warm start whose iterates stay inside the
    bracket scores neither edge.  The two orders part only where f is zero
    at the start, changes sign more than once between the start and the
    edge, or has a root within the stopping tolerance of the edge: there,
    scored up front, the edge is returned, and scored late, the iterates may
    settle inside.  Every other return is a root where f turns from
    positive to negative, a local maximum.
    """
    delta = np.asarray(delta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mass = float(weights.sum())
    lo, hi = DOF_BRACKET

    def score(nu):
        t = delta / nu
        b = t + 1.0
        np.divide(t, b, out=b)  # delta / (nu + delta)
        wb = weights @ b
        value = (mass * (digamma((nu + q) / 2.0) - digamma(nu / 2.0) - q / nu)
                 - weights @ np.log1p(t, out=t) + (1.0 + q / nu) * wb)
        return float(value), b, float(wb)

    def slope(nu, b, wb):
        # squares b in place: no caller reads it after the slope
        wbb = float(weights @ np.multiply(b, b, out=b))
        return (mass * (0.5 * (trigamma((nu + q) / 2.0) - trigamma(nu / 2.0)) + q / nu**2)
                + wbb / nu - q * (2.0 * wb - wbb) / nu**2)

    nu = 0.5 * (lo + hi) if start is None else min(max(float(start), lo), hi)
    value, b, wb = score(nu)
    if not math.isfinite(value):
        raise ValueError("non-finite dof score")
    # only the bracket edge the objective rises towards can lack a sign
    # change; it is scored when an iterate reaches it, and not before
    edge = lo if value < 0.0 else hi
    if nu == edge:
        return float(edge)
    for _ in range(100):
        if value == 0.0:
            return nu
        if value > 0.0:
            lo = nu
        else:
            hi = nu
        fp = slope(nu, b, wb)
        new = nu - value / fp if fp < 0.0 else lo
        if not lo < new < hi:
            if edge in (lo, hi):  # the step reaches the unscored edge
                edge_value = score(edge)[0]
                if (edge_value <= 0.0) if edge == lo else (edge_value >= 0.0):
                    return float(edge)
                edge = None
            new = 0.5 * (lo + hi)
        # relative: at large dofs the score's rounding moves the root by more
        # than an absolute 1e-10 (about 1e-9 at a dof of 100)
        if abs(new - nu) < 1e-10 * nu or hi - lo < 1e-10 * nu:
            return new
        nu = new
        value, b, wb = score(nu)
    return nu


def _solve_dof(old_dofs, q: int, delta: np.ndarray, resp: np.ndarray) -> np.ndarray:
    """ECME dofs of every component of one q-variate t law: component g's
    maximizes sum_i resp_ig log t_q(delta_gi; nu), with delta the G-by-N
    distances to the laws this M-step set, warm-started from its old dof."""
    return np.array([estimate_dof(row, r, q, start=old)
                     for old, row, r in zip(old_dofs, delta, np.ascontiguousarray(resp.T))])


# ------------------------------------------------------------------- M-step

def _regularize_cov(cov: np.ndarray):
    """((covariance, Cholesky factor), ridged) of one symmetric x covariance:
    one that does not factor is ridged by 1e-8 x its mean diagonal, once."""
    try:
        return (cov, cholesky_lower(cov)), False
    except ValueError:
        pass
    cov = cov + 1e-8 * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
    try:
        return (cov, cholesky_lower(cov)), True
    except ValueError:
        raise _DegenerateStart("singular covariance after regularization") from None


def _x_factors(covs: np.ndarray):
    """(covariances, Cholesky factors, ridged) of the G-by-d-by-d x
    covariances, symmetrized here, from one stacked factorization.  When any
    covariance does not factor, each goes through _regularize_cov."""
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    try:
        return covs, cholesky_lower(covs), False
    except ValueError:
        pass
    factors, ridged = zip(*[_regularize_cov(cov) for cov in covs])
    covs, chols = zip(*factors)
    return np.array(covs), np.array(chols), any(ridged)


def _weighted_ls(design: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares of y on the N-by-(d+1) design [x, 1], one fit
    per column of the N-by-G weights: (G-by-d slopes, G intercepts).  The G
    weighted Gram matrices come from one stacked product over G-by-(d+1)-by-N
    weighted design columns and are solved by one stacked factorization."""
    weighted = np.ascontiguousarray(w.T)[:, None, :] * np.ascontiguousarray(design.T)
    try:
        beta = solve_spd(weighted @ design, weighted @ y)
    except ValueError:
        raise _DegenerateStart("singular weighted design") from None
    return beta[:, :-1], beta[:, -1]


def _latent_weights(stack: _Stack | None, dist: Distances | None) -> _Weights:
    """Per-point t precision weights at ``stack``, from the E-step's distances
    ``dist`` to it; a joint t (fmt) gives x and y the one weight of its
    (d+1)-variate law.  (None, None) when no t law weights the points."""
    if stack is None or stack.nu is None:
        return _Weights(None, None)
    d = stack.slope.shape[1]
    nu = stack.nu[:, None]
    delta_y = dist.resid**2 / stack.noise_scale[:, None] ** 2
    # distances are G-by-N; the weights are N-by-G like the responsibilities
    if VARIANT_SPECS[stack.variant].y_law == "joint_t":
        u = ((nu + d + 1.0) / (nu + dist.x + delta_y)).T
        return _Weights(u, u)
    zeta = stack.zeta[:, None]
    return _Weights(((nu + d) / (nu + dist.x)).T, ((zeta + 1.0) / (zeta + delta_y)).T)


def _fit_gating(x: np.ndarray, resp: np.ndarray, theta: np.ndarray, log_gate, design: np.ndarray,
                outer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One penalized Newton (IRLS) step on the gating objective
    sum(resp * log_gate), taken from the previous gating rows ``theta``
    ((G-1)-by-(d+1), as ``_Stack.theta``): (new rows, their G-by-N log gate).

    ``log_gate`` is the E-step's log gate at ``theta``
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

    def log_gate_at(th):
        logits = _gate_logits(x, th)
        return logits - log_sum_exp(logits, axis=0)

    if log_gate is None:
        log_gate = log_gate_at(theta)
    value = float(np.sum(resp * log_gate.T))
    prob = np.exp(log_gate[1:].T)
    grad = (resp[:, 1:] - prob).T @ design
    if m == 0 or np.max(np.abs(grad)) < 1e-10:
        return theta, log_gate
    # negated Hessian, positive semidefinite: block (g, h) is
    # X' diag(p_g (delta_gh - p_h)) X, every block from one product
    w = prob[:, :, None] * (np.eye(m) - prob[:, None, :])
    hess = (w.reshape(n, m * m).T @ outer).reshape(m, m, d + 1, d + 1)
    hess = hess.transpose(0, 2, 1, 3).reshape(k, k)
    try:
        step = solve_spd(hess + 1e-6 * np.eye(k), grad.ravel()).reshape(m, d + 1)
    except ValueError:
        return theta, log_gate
    scale = 1.0
    for _ in range(20):
        candidate = theta + scale * step
        candidate_log_gate = log_gate_at(candidate)
        if float(np.sum(resp * candidate_log_gate.T)) >= value - 1e-12:
            return candidate, candidate_log_gate
        scale *= 0.5
    return theta, log_gate


def _next_dofs(config, spec, old, d, resp, delta_x, delta_y):
    """The G (x dofs, y dofs) of the t laws; a joint t ties y's to nu + d.
    ``old`` is the previous record (None at the first M-step), and
    ``delta_x`` and ``delta_y`` are the G-by-N squared distances of x and of
    the y residuals to the laws this M-step set."""
    joint = spec.y_law == "joint_t"
    G = resp.shape[1]
    if config.dof_mode != "estimate":
        nu = zeta = np.full(G, float(config.dof_mode))
    elif old is None:
        nu = zeta = np.full(G, _INIT_DOF)
    elif joint:
        nu = _solve_dof(old.nu, d + 1, delta_x + delta_y, resp)
    else:
        nu = _solve_dof(old.nu, d, delta_x, resp)
        zeta = _solve_dof(old.zeta, 1, delta_y, resp)
    return nu, nu + d if joint else zeta


#: What every M-step of one start reads unchanged: the N-by-(d+1) design
#: [x, 1], the floor under the noise variances, for a gated variant the
#: N-by-(d+1)^2 products of each design row with itself (the gating Hessian's
#: per-point blocks; None otherwise), and x as d contiguous rows of N.
_StartConstants = namedtuple("_StartConstants", ["design", "var_floor", "outer", "x_t"])


def _start_constants(data: Dataset, gated: bool = False) -> _StartConstants:
    design = np.column_stack([data.x, np.ones(data.n)])
    outer = (design[:, :, None] * design[:, None, :]).reshape(data.n, -1) if gated else None
    return _StartConstants(design, _NOISE_VAR_FLOOR * (float(np.var(data.y)) + 1e-30), outer,
                           np.ascontiguousarray(data.x.T))


def _m_step(data, config, resp, old, old_dist, const):
    """(stack, dist, ridged): the new ``_Stack`` from ``resp`` and the E-step's
    distances ``old_dist`` to the record ``old`` (both None before the first
    E-step).

    Every component is updated at once: G-by-N weights, stacked moments, one
    stacked least-squares solve and one stacked x-law factorization, then the
    ECME dof step and the gating step.  ``dist`` is the next E-step's input,
    taken from what these computed; ``ridged`` tells whether an x covariance
    was ridged."""
    x, y = data.x, data.y
    u = _latent_weights(old, old_dist)
    d, G = data.d, config.G
    spec = VARIANT_SPECS[config.variant]
    mass = resp.sum(axis=0)
    if np.any(mass < d + 2):
        raise _DegenerateStart("cluster responsibility mass below d + 2")
    used_ridge = False
    mu = covs = chols = log_det = dist_x = None
    if spec.x_law is not None:
        wx = (resp if u.x is None else resp * u.x).T
        # without t weights the weight sums are the masses, bit for bit
        mu = (wx @ x) / (mass if u.x is None else wx.sum(axis=1))[:, None]
        centered = const.x_t - mu[:, :, None]
        weighted = np.ascontiguousarray(wx)[:, None, :] * centered
        covs = weighted @ centered.transpose(0, 2, 1) / mass[:, None, None]
        covs, chols, used_ridge = _x_factors(covs)
        log_det = _log_det(chols)
        dist_x = _whitened_sq(chols, centered)
    wy = resp if u.y is None else resp * u.y
    slopes, intercepts = _weighted_ls(const.design, y, wy)
    resid = y - (slopes @ const.x_t + intercepts[:, None])
    noise_var = (wy.T * resid**2).sum(axis=1) / mass
    if not np.all(noise_var > const.var_floor):
        raise _DegenerateStart("collapsed noise variance")
    nus = zetas = None
    if spec.x_law == "t":
        nus, zetas = _next_dofs(config, spec, old, d, resp, dist_x, resid**2 / noise_var[:, None])
    theta = log_gate = None
    if spec.gated:
        old_theta = old.theta if old is not None else np.zeros((G - 1, d + 1))
        old_log_gate = old_dist.log_gate if old_dist is not None else None
        theta, log_gate = _fit_gating(x, resp, old_theta, old_log_gate, const.design, const.outer)
    stack = _Stack(config.variant, mass / mass.sum(), slopes, intercepts, np.sqrt(noise_var),
                   mu, covs, chols, log_det, nus, zetas, theta)
    return stack, Distances(dist_x, resid, log_gate), used_ridge


# -------------------------------------------------------------------- driver

def _run_start(data, config, resp, start_index):
    x, y = data.x, data.y
    const = _start_constants(data, VARIANT_SPECS[config.variant].gated)
    stack, dist, ridged = _m_step(data, config, resp, None, None, const)
    streak = 1 if ridged else 0
    trace = []
    converged = False
    for it in range(config.max_iter):
        terms = _log_component_terms(stack, x, y, dist)
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
        stack, dist, ridged = _m_step(data, config, resp, stack, dist, const)
        streak = streak + 1 if ridged else 0
        if streak >= 3:
            raise _DegenerateStart("covariance required repeated regularization")
    return FitResult(
        model=_unstack(stack),
        loglik_trace=np.asarray(trace),
        responsibilities=resp,
        converged=converged,
        n_iter=len(trace),
        start_index=start_index,
    )


def fit(data: Dataset, config: FitConfig) -> FitResult:
    """Best-of-n-starts EM/ECME fit; ties go to the lowest start index.

    Every start's initial partition is drawn first, by ``initialize`` from
    the data and the start's own generator; then each distinct one is
    fitted once, by the first start that drew it, in start order.  The
    fit is deterministic given the partition, so a repeat would equal the
    earlier result and lose the tie to it."""
    # given_labels is deterministic, so extra starts would be identical
    n_starts = 1 if config.init == "given_labels" else config.n_starts
    distinct = {}  # partition -> (the first start that drew it, its responsibilities)
    drawer = []  # each start's first drawer of its partition
    for start in range(n_starts):
        resp0 = initialize(data, config, np.random.default_rng([config.seed, start]))
        drawer.append(distinct.setdefault(resp0.argmax(axis=1).tobytes(), (start, resp0))[0])
    best = None
    reasons = {}  # failed start -> why
    for start, resp0 in distinct.values():
        try:
            result = _run_start(data, config, resp0, start)
        except _DegenerateStart as exc:
            reasons[start] = str(exc)
            continue
        if best is None or result.loglik_trace[-1] > best.loglik_trace[-1]:
            best = result
    if best is None:
        raise DegenerateFitError("; ".join(
            f"start {j}: {reasons[k] if k == j else f'duplicate of start {k}'}"
            for j, k in enumerate(drawer)))
    return best
