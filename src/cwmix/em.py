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
targets the observed log-likelihood rather than the complete-data one: with
the responsibilities r held fixed and u integrated out, each t law's dof
should raise F(nu) = sum_i r_ig log t_q(delta_ig; nu).  It takes one guarded
Newton step per component from the previous dof (``_solve_dof``), kept when
F's curvature is negative there, the step stays inside the open
``DOF_BRACKET`` and F does not fall; otherwise the dof is the root that
``estimate_dof`` solves by safeguarded Newton from the previous dof.  Both
read the score f = 2 F' from one pass over N per dof, ``_dof_score``, and
its slope from ``_dof_slope``.  A dof on a bracket edge whose score points
out of the bracket stays on that edge, a routine result (the upper edge is
the Gaussian limit).  A CM-step need only not lower its objective, so the
iteration is a generalized EM (Dempster, Laird & Rubin 1977; Liu & Rubin
1994), and repeated steps reach the exact root.  t_cwm steps its x law
(q = d, delta_x) and its y law (q = 1, resid^2 / sigma^2) separately; fmt
steps its one dof on the joint distance delta_x + resid^2 / sigma^2
(q = d + 1), sigma^2 being the Schur scale.
Both CM-steps raise the observed log-likelihood, and the dof step removes
the slow direction of ECM's, so t fits converge in tens of iterations.

EM reads and writes one record, ``model._Stack``: every parameter as a
G-stacked array.  ``_m_step`` returns the new record and the ``Distances``
the next E-step reads of it: the x distances to the x laws it just factored,
the residuals it formed for the noise variances and the log gate of the
gating it accepted.  No dof enters them, so the dof step reads them too, and
the M-step after takes its t weights and gating step from them: x is
whitened once and the gate evaluated once per iteration.  The one record no
M-step sets is a SQUAREM-extrapolated one (below), whose distances
``model._component_distances`` computes, once.  A start builds its validated
``CwmModel`` once, from the record its last recorded E-step read
(``model._unstack``).

An iteration is one M-step from the current responsibilities, then one
E-step of the record it set; ``_run_start`` accelerates the iterations with
SQUAREM (Varadhan & Roland 2008, scheme S3, with a global monotone
safeguard).  Each cycle takes two plain iterations theta0 -> theta1 ->
theta2.  When their log-likelihood increments show a slow linear tail, the
record is extrapolated along them, in unconstrained coordinates
(``_coordinates``: log weights, noise scales and dofs, Cholesky factors with
log diagonals, raw slopes, intercepts, centres and gating rows), and one
stabilizing iteration is taken from there.  It is kept only when its
log-likelihood is at least theta2's, so the recorded log-likelihoods never
fall; otherwise it is dropped, as is an extrapolation that fails, and the
cycle stands at theta2.  A kept stabilizing iteration is recorded as one
iteration.  With one step length the extrapolated record would be theta2
itself, so a start whose cycles never extrapolate is plain EM, bit for bit.

One iteration makes each small-matrix call once for all G components:
``cholesky_lower`` and ``solve_spd`` take the G-stack in one call and
factor its matrices one by one as Python floats.  The M-step works on G-by-N
weights: every weighted Gram matrix, right-hand side, x moment and noise
variance comes from a stacked product, one stacked factorization solves every
least-squares fit, and one more factors every x covariance (when one does
not factor, ``_regularize_cov`` makes the start degenerate).  Only the dof
solves stay per component.
The least-squares fits take two products against per-start products of the
[x, 1] design: the G Gram matrices are the N-by-G weights' transpose times
the N-by-(d+1)^2 self-products of the design rows, and the right-hand
sides the same weights times the design rows times y.  The x moments run
over N as their innermost, contiguous axis: x is centred at each
component's mean as G-by-d-by-N rows, and the next E-step's x distances
whiten that same centred x rather than subtracting the means again.  The
design, its row self-products (which also give the fmrc gating Hessian's
per-point blocks), the design rows times y, x as d contiguous rows and the
noise-variance floor are computed once per start.  The E-step's
responsibilities are exponentiated log-shares floored at e^-700 (see
``densities._share_exp``): a share below 1e-304 reads e^-700 instead of
costing np.exp's slow underflow path.

The fmrc gating M-step is generalized EM: each iteration takes one guarded,
penalized Newton step from the previous gating, starting from the log gate
the E-step already evaluated, instead of solving the gating problem to
convergence.  The step is halved until the gating objective does not
decrease, so the observed-data log-likelihood stays non-decreasing.

``fit`` keeps the best of several starts, each a k-means partition from its
own seeded generator.  It draws every start's partition before it fits any,
then fits each distinct partition once, in start order: k-means often
returns one partition to several starts, and a start is fitted given its
partition alone.  Each start's k-means builds contiguous coordinate rows of
(x, y): it sums the squared distances as G-by-N rows, one coordinate at a
time into two preallocated buffers, takes each point's nearest centre from
G - 1 strict comparisons of those rows (the first on ties, as argmin), and
takes the centroids from ``np.bincount``, so it keeps no N-by-G-by-D
temporary.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# mahalanobis_sq is not called here (the weights reuse the E-step's
# distances); perfbench/tracing.py still looks it up in this module.
from .densities import (  # noqa: F401
    _integer,
    _log_det,
    _real,
    _seed,
    _share_exp,
    _whitened_sq,
    cholesky_lower,
    digamma,
    log_gamma,
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
    _component_distances,
    _gate_logits,
    _log_component_terms,
    _matmul,
    _Stack,
    _unstack,
)

DOF_BRACKET = (0.5, 200.0)
_INIT_DOF = 10.0

#: The largest distance, and the largest weight sum, that ``estimate_dof``
#: takes: its score divides a distance by a dof of at least 0.5 and sums
#: weights times terms below about 700 + 4q, which stay finite below this.
_DOF_STAT_MAX = 1e300

#: Relative floor on fitted noise variance; a component collapsing onto an
#: exact line is a spurious likelihood spike, not a solution.
_NOISE_VAR_FLOOR = 1e-10

#: A noise standard deviation below this many machine epsilons of max|y| is
#: rounding in y, not spread: the second floor on fitted noise variance.
_Y_ROUNDING_EPS = 1024.0

#: A SQUAREM cycle extrapolates only when its second log-likelihood increment
#: is at least this share of its first, a linear tail that EM would crawl
#: down; a start converging faster pays nothing for the acceleration.
_SLOW_RATE = 0.5

#: How fast SQUAREM's cap on its step length grows when it binds and shrinks
#: after a rejected or failed extrapolation (Varadhan & Roland 2008).
_STEP_GROWTH = 4.0


class DegenerateFitError(RuntimeError):
    """A start collapsed, for one of five reasons: "cluster responsibility
    mass below d + 2", "singular covariance" (an x covariance), "singular
    weighted design", "collapsed noise variance" or "non-finite
    log-likelihood".  ``fit`` raises it, naming each start's reason, when
    every start did."""


@dataclass(frozen=True)
class FitConfig:
    """What ``fit`` fits, and how.

    ``G`` is the number of components and ``variant`` one of
    ``model.VARIANTS``.  Each start iterates until the log-likelihood
    l_t changes by |l_t - l_{t-1}| / (1 + |l_t|) < ``rel_tol`` between two
    recorded iterations, or until ``max_iter`` iterations are recorded.  A
    recorded iteration is a plain EM iteration or a kept SQUAREM stabilizing
    iteration (the module docstring says which); a dropped extrapolation is
    not recorded and does not count.  ``n_starts`` starts are drawn: start
    k takes its k-means partition from ``numpy.random.default_rng([seed,
    k])``, and a partition that an earlier start drew is fitted once.
    """

    G: int
    variant: str = "gaussian_cwm"
    max_iter: int = 500
    rel_tol: float = 1e-8
    n_starts: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("G", "max_iter", "n_starts"):
            _integer(name, getattr(self, name), low=1)
        _seed(self.seed)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        _real("rel_tol", self.rel_tol, positive=True)


@dataclass
class FitResult:
    """The best start's fit.

    ``model`` is the fitted ``CwmModel``, the record that the last recorded
    E-step scored, and ``loglik_trace`` the observed log-likelihood after
    each recorded iteration (a plain one or a kept SQUAREM stabilizing one),
    ``n_iter`` of them; it never decreases beyond a plain iteration's
    rounding.  ``responsibilities`` is the N-by-G matrix of posterior
    memberships from that last E-step.  ``converged`` tells whether the
    ``rel_tol`` stop rule ended the fit (False when ``max_iter`` did), and
    ``start_index`` names the start k that fitted it, the first start that
    drew its partition.
    """

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
    empties.  The G-by-N squared distances are summed in two preallocated
    buffers, one coordinate at a time, left to right; each centroid sums its
    points in index order."""
    n = columns.shape[1]
    dist, term = np.empty((2, G, n))
    for _ in range(50):
        centers = columns[:, rng.choice(n, size=G, replace=False)]
        assign = None
        for _ in range(20):
            np.square(np.subtract(columns[0], centers[0][:, None], out=dist), out=dist)
            for column, center in zip(columns[1:], centers[1:]):
                dist += np.square(np.subtract(column, center[:, None], out=term), out=term)
            # the nearest centre, the first on ties as argmin gives it, from
            # G - 1 strict comparisons of contiguous rows (cheaper than an
            # argmin across the short G axis); dist[0] keeps the running minimum
            new_assign = np.zeros(n, dtype=np.intp)
            for g in range(1, G):
                closer = dist[g] < dist[0]
                np.putmask(new_assign, closer, g)
                np.putmask(dist[0], closer, dist[g])
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
    resp = np.zeros((data.n, config.G))
    resp[np.arange(data.n), _kmeans_labels(_kmeans_columns(data), config.G, rng)] = 1.0
    return resp


# ----------------------------------------------------------- dof estimation

def _dof_score(nu: float, q: int, delta: np.ndarray, w: np.ndarray, mass: float) -> tuple:
    """(f, sum w log1p(delta/nu), b, sum w b) in one pass over ``delta``: f(nu)
    = 2 F'(nu) scores F = sum_i w_i log t_q(delta_i; nu), ``mass`` = sum w, and
    b = delta / (nu + delta) is a fresh buffer."""
    t = delta / nu
    b = t + 1.0
    np.divide(t, b, out=b)  # delta / (nu + delta)
    wlog = float(w @ np.log1p(t, out=t))
    wb = float(w @ b)
    value = mass * (digamma((nu + q) / 2.0) - digamma(nu / 2.0) - q / nu) - wlog + (1.0 + q / nu) * wb
    return value, wlog, b, wb


def _dof_slope(nu: float, q: int, w: np.ndarray, mass: float, b: np.ndarray, wb: float) -> float:
    """f'(nu) from ``_dof_score``'s b and sum w b at nu; it squares b in place."""
    wbb = float(w @ np.multiply(b, b, out=b))
    return (mass * (0.5 * (trigamma((nu + q) / 2.0) - trigamma(nu / 2.0)) + q / nu**2)
            + wbb / nu - q * (2.0 * wb - wbb) / nu**2)


def estimate_dof(delta, weights, q: int, start: float | None = None) -> float:
    """The dof v in ``DOF_BRACKET`` that maximizes sum_i w_i log t_q(delta_i; v),
    the weighted log-density of a q-variate t law whose location and scale
    are held fixed, at the squared Mahalanobis distances ``delta`` from it.

    The score is f(v) = sum_i w_i [digamma((v+q)/2) - digamma(v/2) - q/v
    - log(1 + delta_i/v) + (v+q) delta_i / (v (v + delta_i))], twice the
    derivative of the objective.  f at ``start`` (default: the bracket's
    middle) says which bracket edge the objective rises towards; only that
    edge can lack a sign change, so it is scored next, and returned as is
    when f does not change sign there (the upper edge is the Gaussian
    limit).  Otherwise the root is solved by safeguarded Newton from the
    start, with f' from trigamma: the bracket around the root shrinks with
    every evaluation, and a Newton step that leaves it, or that f' does not
    point to, is replaced by bisection.  The root is defined by digamma
    alone; trigamma only steers.  The solve stops when a step or the bracket
    is below 1e-10 of the dof.  Every return but an edge is a root where f
    turns from positive to negative, a local maximum.

    ``delta`` and ``weights`` are non-negative vectors of one nonempty
    length with a positive weight sum, each distance at most
    ``_DOF_STAT_MAX`` and each weight at most ``_DOF_STAT_MAX`` over the
    length, and ``q`` is a positive integer; anything else (a NaN or an
    infinity too) raises ValueError before any arithmetic on them.
    """
    q = _integer("q", q, low=1)
    delta = np.asarray(delta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    valid = (delta.shape == weights.shape == (delta.size,) and delta.size > 0
             and 0.0 <= delta.min() and delta.max() <= _DOF_STAT_MAX
             and 0.0 <= weights.min() and weights.max() <= _DOF_STAT_MAX / delta.size)
    mass = float(weights.sum()) if valid else 0.0
    if not mass > 0.0:
        raise ValueError("delta and weights must be non-negative vectors of one nonempty length, "
                         "bounded so that the dof score stays finite")
    lo, hi = DOF_BRACKET
    nu = 0.5 * (lo + hi) if start is None else min(max(float(start), lo), hi)
    value, _, b, wb = _dof_score(nu, q, delta, weights, mass)
    if not math.isfinite(value):
        raise ValueError("non-finite dof score")
    if value <= 0.0 and (nu == lo or _dof_score(lo, q, delta, weights, mass)[0] <= 0.0):
        return float(lo)
    if value >= 0.0 and (nu == hi or _dof_score(hi, q, delta, weights, mass)[0] >= 0.0):
        return float(hi)
    for _ in range(100):
        if value == 0.0:
            return nu
        if value > 0.0:
            lo = nu
        else:
            hi = nu
        fp = _dof_slope(nu, q, weights, mass, b, wb)
        new = nu - value / fp if fp < 0.0 else lo
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        # relative: at large dofs the score's rounding moves the root by more
        # than an absolute 1e-10 (about 1e-9 at a dof of 100)
        if abs(new - nu) < 1e-10 * nu or hi - lo < 1e-10 * nu:
            return new
        nu = new
        value, _, b, wb = _dof_score(nu, q, delta, weights, mass)
    return nu


def _solve_dof(old_dofs, q: int, delta: np.ndarray, resp: np.ndarray) -> np.ndarray:
    """ECME dofs of every component of one q-variate t law: one guarded
    Newton step per component on F(nu) = sum_i resp_ig log t_q(delta_gi; nu),
    with delta the G-by-N distances to the laws this M-step set, from its old
    dof.

    One ``_dof_score`` pass over the N distances at the old dof nu gives
    f(nu) = 2 F'(nu) and sum w log1p(delta/nu), which enters F(nu); f'(nu)
    is ``_dof_slope``'s, from that pass.
    A dof on a ``DOF_BRACKET`` edge whose score points out of the bracket
    keeps that edge, as ``estimate_dof`` would return it.  Otherwise the
    Newton step nu - f / f' is taken when f' < 0, the step stays inside the
    open bracket and F does not fall there (one more log1p pass); in every
    other case the dof is the local maximum of F that ``estimate_dof``
    reaches from the old dof.  A step that does not lower F is all the
    CM-step needs to keep ECME a generalized EM, and repeated on fixed
    distances the steps reach ``estimate_dof``'s root."""
    lo, hi = DOF_BRACKET

    def objective(nu, mass, wlog):  # F(nu) less its terms free of nu
        return (mass * (log_gamma((nu + q) / 2.0) - log_gamma(nu / 2.0) - 0.5 * q * math.log(nu))
                - 0.5 * (nu + q) * wlog)

    new = []
    for old, row, w in zip(old_dofs, delta, np.ascontiguousarray(resp.T)):
        nu = float(old)
        mass = float(w.sum())
        value, wlog, b, wb = _dof_score(nu, q, row, w, mass)
        if (nu == lo and value < 0.0) or (nu == hi and value > 0.0):
            new.append(nu)  # the objective rises beyond this edge
            continue
        fp = _dof_slope(nu, q, w, mass, b, wb)
        step = nu - value / fp
        accept = (fp < 0.0 and lo < step < hi
                  and objective(step, mass, float(w @ np.log1p(row / step))) >= objective(nu, mass, wlog))
        new.append(step if accept else estimate_dof(row, w, q, start=old))
    return np.array(new)


# ------------------------------------------------------------------- M-step

def _regularize_cov(covs: np.ndarray):
    """((covariances, Cholesky factors), False) of the G-by-d-by-d x
    covariances, symmetrized here, from one stacked factorization; a stack
    that does not factor makes the start degenerate.  Nothing is ridged: the
    name and the always-False slot stay only because the benchmark's tracer
    times this layer by that name and counts ridges from that slot."""
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    try:
        return (covs, cholesky_lower(covs)), False
    except ValueError:
        raise DegenerateFitError("singular covariance") from None


def _weighted_ls(outer: np.ndarray, design_y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares of y on the design [x, 1], one fit per column of
    the N-by-G weights, from the start's per-point products (``_start_constants``):
    (G-by-d slopes, G intercepts).  The G weighted Gram matrices are
    ``w.T @ outer``, the right-hand sides ``w.T @ design_y``, and one stacked
    factorization solves them."""
    k = design_y.shape[1]
    try:
        beta = solve_spd((w.T @ outer).reshape(-1, k, k), w.T @ design_y)
    except ValueError:
        raise DegenerateFitError("singular weighted design") from None
    return beta[:, :-1], beta[:, -1]


def _latent_weights(stack: _Stack | None, dist: Distances | None) -> tuple:
    """(x weights, y weights): the per-point t precision weights at ``stack``,
    from the E-step's distances ``dist`` to it; a joint t (fmt) gives x and y
    the one weight of its (d+1)-variate law.  (None, None) when no t law
    weights the points."""
    if stack is None or stack.nu is None:
        return None, None
    d = stack.slope.shape[1]
    nu = stack.nu[:, None]
    delta_y = dist.resid**2 / stack.noise_scale[:, None] ** 2
    # distances are G-by-N; the weights are N-by-G like the responsibilities
    if VARIANT_SPECS[stack.variant].y_law == "joint_t":
        u = ((nu + d + 1.0) / (nu + dist.x + delta_y)).T
        return u, u
    zeta = stack.zeta[:, None]
    return ((nu + d) / (nu + dist.x)).T, ((zeta + 1.0) / (zeta + delta_y)).T


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


#: What every M-step of one start reads unchanged: the N-by-(d+1) design
#: [x, 1], the N-by-(d+1)^2 products of each design row with itself (the
#: least-squares Gram matrices' and the gating Hessian's per-point blocks),
#: the design rows times y (the least-squares right-hand sides' per-point
#: terms), the floor under the noise variances, and x as d contiguous rows of N.
_StartConstants = namedtuple("_StartConstants", ["design", "outer", "design_y", "var_floor", "x_t"])


def _start_constants(data: Dataset) -> _StartConstants:
    design = np.column_stack([data.x, np.ones(data.n)])
    outer = (design[:, :, None] * design[:, None, :]).reshape(data.n, -1)
    rounding = _Y_ROUNDING_EPS * np.finfo(float).eps * float(np.max(np.abs(data.y)))
    return _StartConstants(design, outer, design * data.y[:, None],
                           max(_NOISE_VAR_FLOOR * float(np.var(data.y)), rounding**2),
                           np.ascontiguousarray(data.x.T))


def _m_step(data, config, resp, old, old_dist, const):
    """(stack, dist): the new ``_Stack`` from ``resp`` and the E-step's
    distances ``old_dist`` to the record ``old`` (both None before the first
    E-step).

    Every component is updated at once: G-by-N weights, stacked moments, one
    stacked least-squares solve and one stacked x-law factorization
    (``_regularize_cov``), then the ECME dof step and the gating step.
    ``dist`` is the next E-step's input, taken from what these computed."""
    x, y = data.x, data.y
    ux, uy = _latent_weights(old, old_dist)
    d, G = data.d, config.G
    spec = VARIANT_SPECS[config.variant]
    mass = resp.sum(axis=0)
    if np.any(mass < d + 2):
        raise DegenerateFitError("cluster responsibility mass below d + 2")
    mu = covs = chols = log_det = dist_x = None
    if spec.x_law is not None:
        wx = (resp if ux is None else resp * ux).T
        # without t weights the weight sums are the masses, bit for bit
        mu = (wx @ x) / (mass if ux is None else wx.sum(axis=1))[:, None]
        centered = const.x_t - mu[:, :, None]
        weighted = np.ascontiguousarray(wx)[:, None, :] * centered
        covs = weighted @ centered.transpose(0, 2, 1) / mass[:, None, None]
        (covs, chols), _ = _regularize_cov(covs)
        log_det = _log_det(chols)
        dist_x = _whitened_sq(chols, centered)
    wy = resp if uy is None else resp * uy
    slopes, intercepts = _weighted_ls(const.outer, const.design_y, wy)
    resid = y - (_matmul(slopes, const.x_t) + intercepts[:, None])
    noise_var = (wy.T * resid**2).sum(axis=1) / mass
    if not np.all(noise_var > const.var_floor):
        raise DegenerateFitError("collapsed noise variance")
    nus = zetas = None
    if spec.x_law == "t":
        # the ECME dof step, on the distances to the laws just set
        delta_y = resid**2 / noise_var[:, None]
        joint = spec.y_law == "joint_t"
        if old is None:
            nus = zetas = np.full(G, _INIT_DOF)
        elif joint:
            nus = _solve_dof(old.nu, d + 1, dist_x + delta_y, resp)
        else:
            nus = _solve_dof(old.nu, d, dist_x, resp)
            zetas = _solve_dof(old.zeta, 1, delta_y, resp)
        if joint:  # the conditional dof of a joint t law
            zetas = nus + d
    theta = log_gate = None
    if spec.gated:
        old_theta = old.theta if old is not None else np.zeros((G - 1, d + 1))
        old_log_gate = old_dist.log_gate if old_dist is not None else None
        theta, log_gate = _fit_gating(x, resp, old_theta, old_log_gate, const.design, const.outer)
    stack = _Stack(config.variant, mass / mass.sum(), slopes, intercepts, np.sqrt(noise_var),
                   mu, covs, chols, log_det, nus, zetas, theta)
    return stack, Distances(dist_x, resid, log_gate)


# ------------------------------------------------------------------ SQUAREM

@functools.cache
def _tril_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.tril_indices(d, -1)
    rows.flags.writeable = cols.flags.writeable = False  # shared by every caller
    return rows, cols


def _coordinates(stack: _Stack) -> np.ndarray:
    """The unconstrained coordinates of ``stack`` as one vector, the space
    SQUAREM extrapolates in: log weights, slopes, intercepts and log noise
    scales; when x is modelled, the centres and each x scatter's Cholesky
    factor, its diagonal as logs; log dofs (fmt's y dof is nu + d, not a
    coordinate of its own); the gating rows."""
    parts = [np.log(stack.weight), stack.slope.ravel(), stack.intercept, np.log(stack.noise_scale)]
    if stack.chol is not None:
        rows, cols = _tril_indices(stack.chol.shape[-1])
        parts += [stack.center.ravel(), np.log(np.diagonal(stack.chol, axis1=1, axis2=2)).ravel(),
                  stack.chol[:, rows, cols].ravel()]
    if stack.nu is not None:
        parts.append(np.log(stack.nu))
        if VARIANT_SPECS[stack.variant].y_law == "t":
            parts.append(np.log(stack.zeta))
    if stack.theta is not None:
        parts.append(stack.theta.ravel())
    return np.concatenate(parts)


def _from_coordinates(like: _Stack, coords: np.ndarray) -> _Stack:
    """The ``_Stack`` at ``coords`` (``_coordinates``' inverse), of the
    variant and shapes of ``like``: the weights are normalized, and each log
    dof is clamped to ``DOF_BRACKET`` before it is exponentiated."""
    G, d = like.slope.shape
    pos = 0

    def take(*shape):
        nonlocal pos
        size = math.prod(shape)
        pos += size
        return coords[pos - size:pos].reshape(shape)

    weight = np.exp(take(G))
    slope, intercept, noise_scale = take(G, d), take(G), np.exp(take(G))
    center = scatter = chol = log_det = nu = zeta = theta = None
    if like.chol is not None:
        center = take(G, d)
        chol = np.zeros((G, d, d))
        diag = np.arange(d)
        chol[:, diag, diag] = np.exp(take(G, d))
        rows, cols = _tril_indices(d)
        chol[:, rows, cols] = take(G, rows.size)
        scatter = chol @ chol.transpose(0, 2, 1)
        log_det = _log_det(chol)
    if like.nu is not None:
        lo, hi = DOF_BRACKET
        log_lo, log_hi = math.log(lo), math.log(hi)

        def take_dofs():
            logs = np.clip(take(G), log_lo, log_hi)
            # a dof clamped to an edge is that edge, not exp's rounding of it
            return np.where(logs == log_hi, hi, np.clip(np.exp(logs), lo, hi))

        nu = take_dofs()
        zeta = nu + d if VARIANT_SPECS[like.variant].y_law == "joint_t" else take_dofs()
    if like.theta is not None:
        theta = take(*like.theta.shape)
    return _Stack(like.variant, weight / weight.sum(), slope, intercept, noise_scale,
                  center, scatter, chol, log_det, nu, zeta, theta)


# -------------------------------------------------------------------- driver

def _e_step(stack: _Stack, dist: Distances) -> tuple[np.ndarray, float]:
    """(responsibilities, log-likelihood) at ``stack``, from its distances."""
    terms = _log_component_terms(stack, dist)
    row_lse = log_sum_exp(terms, axis=1)
    loglik = float(row_lse.sum())
    if not math.isfinite(loglik):
        raise DegenerateFitError("non-finite log-likelihood")
    return _share_exp(terms - row_lse[:, None]), loglik


def _iteration(data, config, resp, stack, dist, const) -> tuple:
    """One EM iteration, an M-step from ``resp`` and the record ``stack``
    its E-step read at ``dist``, then the E-step of the record it sets:
    (stack, dist, resp, loglik)."""
    stack, dist = _m_step(data, config, resp, stack, dist, const)
    return (stack, dist) + _e_step(stack, dist)


def _stabilized(data, config, like: _Stack, c0, r, v, step: float, const):
    """The stabilizing iteration from the record extrapolated to the
    coordinates c0 + 2 step r + step^2 v (shaped as ``like``), as
    ``_iteration`` returns it, or None when it fails: an M-step's
    ``DegenerateFitError``, a non-finite log-likelihood, or a floating-point
    overflow, invalid operation or division by zero on the way, which a
    long step can cause.  A Cholesky factor whose diagonal leaves the
    positive floats fails so: exp overflows, or the log-determinant of an
    underflowed zero divides by zero."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            stack = _from_coordinates(like, c0 + 2.0 * step * r + step * step * v)
            dist = _component_distances(stack, data.x, data.y)
            resp, _ = _e_step(stack, dist)
            return _iteration(data, config, resp, stack, dist, const)
    except (DegenerateFitError, FloatingPointError):
        return None


def _squarem_step(data, config, records, logliks, step_max, const):
    """SQUAREM's extrapolation (Varadhan & Roland 2008, scheme S3) after the
    two plain iterations theta0 -> theta1 -> theta2 of ``records``, whose
    log-likelihoods are ``logliks``: (the kept stabilizing iteration or None,
    the new step cap).

    Only a slow cycle extrapolates, one whose second log-likelihood increment
    is at least ``_SLOW_RATE`` of its first.  In ``_coordinates``, with
    r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, the step length
    s = |r| / |v| is clamped to [1, ``step_max``] and the record is moved to
    theta0 + 2 s r + s^2 v (alpha = -s in the paper's notation).  At s = 1
    that is theta2 itself, so nothing is tried.  The stabilizing iteration
    from the moved record is kept when its log-likelihood is at least
    theta2's.  The cap grows by ``_STEP_GROWTH`` when it binds, and shrinks
    by it, to no less than 1, after a rejected or failed extrapolation."""
    l0, l1, l2 = logliks
    if not l2 - l1 >= _SLOW_RATE * (l1 - l0):
        return None, step_max
    c0, c1, c2 = map(_coordinates, records)
    r, v = c1 - c0, c2 - 2.0 * c1 + c0
    norm_r, norm_v = float(np.linalg.norm(r)), float(np.linalg.norm(v))
    if norm_r >= step_max * norm_v:
        step, grown = step_max, step_max * _STEP_GROWTH
    else:
        step, grown = max(1.0, norm_r / norm_v), step_max
    if step == 1.0:
        return None, grown
    new = _stabilized(data, config, records[-1], c0, r, v, step, const)
    if new is None or not new[-1] >= l2:
        return None, max(1.0, step_max / _STEP_GROWTH)
    return new, grown


def _run_start(data, config, resp, start_index):
    """EM from the responsibilities ``resp``, accelerated by SQUAREM
    (``_squarem_step``), until the log-likelihood's relative change between
    two recorded iterations is below ``rel_tol`` or ``max_iter`` iterations
    are recorded.

    The first iteration starts from ``resp``.  Then each cycle takes two
    plain iterations (``_iteration``) from its first record and may try one
    extrapolation; a kept stabilizing iteration is recorded as the third
    iteration of the cycle and starts the next one, and otherwise the next
    cycle starts from the second plain iteration.  Every recorded iteration
    has a log-likelihood at least its predecessor's, up to a plain
    iteration's rounding.  A plain iteration's ``DegenerateFitError`` ends
    the start."""
    const = _start_constants(data)
    stack = dist = None
    trace, cycle = [], []  # cycle: this cycle's records so far
    step_max = 1.0
    converged = False
    while len(trace) < config.max_iter and not converged:
        if len(cycle) == 3:
            new, step_max = _squarem_step(data, config, cycle, trace[-3:], step_max, const)
            if new is None:  # the next cycle starts from theta2
                cycle = cycle[-1:]
                continue
            cycle = []  # the kept stabilizing iteration starts the next cycle
        else:
            new = _iteration(data, config, resp, stack, dist, const)
        stack, dist, resp, loglik = new
        trace.append(loglik)
        cycle.append(stack)
        converged = len(trace) > 1 and abs(trace[-1] - trace[-2]) / (1.0 + abs(trace[-1])) < config.rel_tol
    return FitResult(
        model=_unstack(stack),
        loglik_trace=np.asarray(trace),
        responsibilities=resp,
        converged=converged,
        n_iter=len(trace),
        start_index=start_index,
    )


def fit(data: Dataset, config: FitConfig) -> FitResult:
    """Best-of-n-starts EM/ECME fit, each start accelerated by SQUAREM
    (Varadhan & Roland 2008, "Simple and globally convergent methods for
    accelerating the convergence of any EM algorithm", Scand. J. Statist.
    35); ties go to the lowest start index.

    Every start's initial partition is drawn first, by ``initialize`` from
    the data and the start's own generator; then each distinct one is
    fitted once, by the first start that drew it, in start order.  The
    fit is deterministic given the partition, so a repeat would equal the
    earlier result and lose the tie to it.  A fault of the data raises
    ValueError before any start runs: a constant y, which every line fits
    exactly, or an x or y whose entries v overflow 4 (d + 1) N max|v|^2, a
    bound on the M-step's sums of squares."""
    if data.y.min() == data.y.max():
        raise ValueError("y is constant")
    with np.errstate(over="ignore"):
        for name, values in (("x", data.x), ("y", data.y)):
            if not np.isfinite(4.0 * (data.d + 1) * data.n * np.max(np.abs(values)) ** 2):
                raise ValueError(f"{name} is too large: its sums of squares overflow")
    distinct = {}  # partition -> (the first start that drew it, its responsibilities)
    drawer = []  # each start's first drawer of its partition
    for start in range(config.n_starts):
        resp0 = initialize(data, config, np.random.default_rng([config.seed, start]))
        drawer.append(distinct.setdefault(resp0.argmax(axis=1).tobytes(), (start, resp0))[0])
    best = None
    reasons = {}  # failed start -> why
    for start, resp0 in distinct.values():
        try:
            result = _run_start(data, config, resp0, start)
        except DegenerateFitError as exc:
            reasons[start] = str(exc)
            continue
        if best is None or result.loglik_trace[-1] > best.loglik_trace[-1]:
            best = result
    if best is None:
        raise DegenerateFitError("; ".join(
            f"start {j}: {reasons[k] if k == j else f'duplicate of start {k}'}"
            for j, k in enumerate(drawer)))
    return best
