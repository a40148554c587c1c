"""Cluster-weighted model family: joint density, posteriors, classification,
and the constructive maps between nested variants.

A model is a weighted list of components, each pairing an x-marginal law
(Gaussian, Student-t, or absent) with a linear conditional law for y given x.
The six variants are two laws (Gaussian, t) times three ways to treat x
(modelled, absent, gated), said once in ``VARIANT_SPECS``; everything that
depends on the variant reads that table, not the variant name.  A joint
Gaussian over (x, y) is exactly a Gaussian CWM component, so fmg shares
gaussian_cwm's row and its EM update.  fmt's "joint_t" conditional is that of
a joint t: its dof is nu + d, derived where it is read, and its scale grows
with the Mahalanobis distance of x.

A ``CwmModel`` is the validated public form.  Evaluation and EM read and
write ``_Stack`` instead: one namedtuple of G-stacked parameter arrays.
``_stack`` and ``_unstack`` are the only code that knows both forms; scoring
stacks a model once per call, and a fit builds its model once, from the
record its last E-step read.  Both read a law through the names its two
kinds share (``center``, ``scatter``) and build one through
``densities._law``.  Evaluation is laid out G-by-N, one row per component:
the distances of every observation to every component come from one stacked
forward substitution in ``densities._whitened_sq``, the whitening the
per-law densities use too, and the log-densities are G-by-N expressions
with per-component parameters as G-by-1 columns.  Only ``log_gamma`` of each
dof is taken per component.  A G-by-d parameter block times the d rows of x
is a broadcast outer product at d = 1 (``_matmul``).  ``classify`` takes the
arg-max of these G-by-N rows as they are; only ``posterior`` normalizes them.

Observations are read one way, as ``Dataset`` reads them: x is N-by-d, or a
vector of N points at d = 1, with one y per row.  ``joint_logpdf`` and
``posterior`` read their (x, y) through ``Dataset`` and always return
arrays; they and ``classify`` build their component terms through one
helper, ``_model_terms``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# gaussian_logpdf and student_logpdf are not called here, and mahalanobis_sq
# only by t_conditional_decompose (the E-step whitens every component in one
# stacked solve); perfbench/tracing.py still looks them up in this module.
from .densities import (  # noqa: F401
    GaussianParams,
    StudentParams,
    _integer,
    _law,
    _log_det,
    _real,
    _share_exp,
    _whitened_sq,
    gaussian_log_density,
    gaussian_logpdf,
    law_from_dict,
    law_to_dict,
    log_sum_exp,
    mahalanobis_sq,
    solve_spd,
    student_log_density,
    student_logpdf,
)

#: Label value reserved for points that belong to no group.
NOISE = 0

#: x_law: "gaussian", "t", or None when x is not modelled; y_law: "gaussian",
#: "t", or "joint_t"; gated: a logistic gate on x replaces the mixing weights.
VariantSpec = namedtuple("VariantSpec", ["x_law", "y_law", "gated"])

VARIANT_SPECS = {
    "gaussian_cwm": VariantSpec("gaussian", "gaussian", False),  # pi_g N(x) N(y | b'x + b0)
    "t_cwm": VariantSpec("t", "t", False),                       # pi_g t(x) t(y | b'x + b0)
    "fmg": VariantSpec("gaussian", "gaussian", False),           # joint Gaussian in CWM form
    "fmt": VariantSpec("t", "joint_t", False),                   # joint t in decomposed form
    "fmr": VariantSpec(None, "gaussian", False),                 # pi_g N(y | b'x + b0)
    "fmrc": VariantSpec(None, "gaussian", True),                 # gate_g(x) N(y | b'x + b0)
}

VARIANTS = tuple(VARIANT_SPECS)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Affine map x -> slope @ x + intercept."""

    slope: np.ndarray
    intercept: float

    def __post_init__(self):
        slope = np.atleast_1d(np.asarray(self.slope, dtype=float))
        if slope.ndim != 1:
            raise ValueError("slope must be a vector")
        if not np.isfinite(slope).all():
            raise ValueError("non-finite slope")
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", _real("intercept", self.intercept))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.slope + self.intercept


@dataclass(frozen=True, eq=False)
class Conditional:
    """Conditional law of y given x: ``map`` gives the center, ``noise_scale``
    the standard-deviation-like scale, and ``dof`` (when present) makes the
    law Student-t instead of Gaussian."""

    map: LinearMap
    noise_scale: float
    dof: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "noise_scale", _real("noise_scale", self.noise_scale, positive=True))
        if self.dof is not None:
            object.__setattr__(self, "dof", _real("dof", self.dof, positive=True))


@dataclass(frozen=True, eq=False)
class Component:
    """One mixture component: weight, x-marginal (None for fmr/fmrc), and
    conditional law of y given x."""

    weight: float
    x_marginal: GaussianParams | StudentParams | None
    y_conditional: Conditional

    def __post_init__(self):
        object.__setattr__(self, "weight", _real("weight", self.weight))
        if not 0 < self.weight <= 1:
            raise ValueError("weight must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class CwmModel:
    """A model of one variant.  A gated variant's ``gating`` has one
    ``LinearMap`` x -> w'x + w0 per component, its multinomial-logit
    predictor; the first is the baseline and must be zero."""

    variant: str
    components: tuple[Component, ...]
    gating: tuple[LinearMap, ...] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        comps = tuple(self.components)
        if not comps:
            raise ValueError("at least one component required")
        object.__setattr__(self, "components", comps)
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights sum to {total!r}, not 1")
        d = comps[0].y_conditional.map.slope.shape[0]
        for c in comps:
            if c.y_conditional.map.slope.shape[0] != d:
                raise ValueError("components disagree on x dimension")
            self._check_component(c, d)
        if self.spec.gated:
            if self.gating is None:
                raise ValueError(f"{self.variant} requires gating parameters")
            gating = tuple(self.gating)
            if len(gating) != len(comps):
                raise ValueError("one gating entry per component required")
            first = gating[0]
            if np.max(np.abs(first.slope)) > 1e-12 or abs(first.intercept) > 1e-12:
                raise ValueError("first component is the gating baseline; "
                                 "its parameters must be zero")
            if any(g.slope.shape[0] != d for g in gating):
                raise ValueError("gating dimension mismatch")
            object.__setattr__(self, "gating", gating)
        elif self.gating is not None:
            raise ValueError(f"{self.variant} takes no gating parameters")

    def _check_component(self, c: Component, d: int) -> None:
        spec = self.spec
        marg, cond = c.x_marginal, c.y_conditional
        if spec.x_law is None:
            if marg is not None:
                raise ValueError(f"{self.variant} components carry no x-marginal")
        else:
            if marg is None:
                raise ValueError(f"{self.variant} components require an x-marginal")
            if marg.dim != d:
                raise ValueError("x-marginal dimension mismatch")
            if not isinstance(marg, StudentParams if spec.x_law == "t" else GaussianParams):
                raise ValueError(f"{self.variant} requires a {spec.x_law} x-marginal")
        if (cond.dof is None) != (spec.y_law == "gaussian"):
            raise ValueError(f"{self.variant} requires a {spec.y_law} conditional")
        if spec.y_law == "joint_t" and abs(cond.dof - (marg.dof + d)) > 1e-8:
            raise ValueError(
                f"{self.variant} ties the conditional dof to marginal dof + d "
                f"({marg.dof} + {d}), got {cond.dof}"
            )

    @property
    def spec(self) -> VariantSpec:
        return VARIANT_SPECS[self.variant]

    @property
    def G(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0].y_conditional.map.slope.shape[0]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations (x, y) with optional group labels, read by ``_labels``.
    x is N-by-d, or a vector of N points at d = 1, and y holds one value per
    row, as a vector or an N-by-1 column (or a scalar for one point)."""

    x: np.ndarray
    y: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        y = np.asarray(self.y, dtype=float)
        # one y per row, from a vector or an N-by-1 column (a scalar at N = 1):
        # ravel would read a (3, 2) y beside six rows as six interleaved values
        if (x.ndim != 2 or x.shape[0] != y.size or min(x.shape) < 1
                or y.shape[1:] not in ((), (1,))):
            raise ValueError("x must be N-by-d with one y per row")
        y = y.ravel()
        # one max|v| per array finds both faults: a non-finite entry, and one
        # so large that 4 (d + 1) N max^2, a bound on EM's sums of squares, overflows
        tops = [float(np.max(np.abs(v))) for v in (x, y)]
        if not all(map(math.isfinite, tops)):
            raise ValueError("non-finite values in data")
        for name, top in zip("xy", tops):
            if not math.isfinite(4.0 * (x.shape[1] + 1) * x.shape[0] * (top * top)):
                raise ValueError(f"{name} is too large: its sums of squares overflow")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.labels is not None:
            labels = _labels(self.labels)
            if labels.shape[0] != y.shape[0]:
                raise ValueError("labels length mismatch")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _labels(values) -> np.ndarray:
    """``values`` as an int vector of group labels, each a group index
    (1, 2, ...) or NOISE; integral floats pass, 1.5 or NaN do not."""
    labels = np.asarray(values)
    if labels.ndim != 1 or labels.dtype.kind not in "iuf":
        raise ValueError("labels must be a vector of integers")
    if labels.dtype.kind == "f" and not (np.isfinite(labels) & (labels == np.trunc(labels))).all():
        raise ValueError("labels must be integers")
    labels = labels.astype(int, copy=False)
    if np.any(labels < NOISE):
        raise ValueError("labels must be group indices or NOISE")
    return labels


# --------------------------------------------------------------- evaluation

#: What the E-step reads of each observation at the current parameters, all
#: G-by-N (one contiguous row per component): ``x``, the squared Mahalanobis
#: distance of x to the x law (None when x is not modelled); ``resid``, y minus
#: the component's regression line at x; ``log_gate``, the log gating
#: probabilities (None unless the variant is gated).
Distances = namedtuple("Distances", ["x", "resid", "log_gate"])


#: Every fitted parameter of a model as G-stacked arrays, the form EM iterates
#: on: ``weight``, ``intercept`` and ``noise_scale`` of length G, ``slope``
#: G-by-d; when x is modelled, the x laws' ``center`` (G-by-d), ``scatter``
#: and its Cholesky factor ``chol`` (both G-by-d-by-d); the t x laws' dofs
#: ``nu`` and t_cwm's y dofs ``zeta`` (fmt's y dof, nu + d, is derived where
#: it is read); when gated, ``theta``, the (G-1)-by-(d+1) gating rows (w, w0)
#: of every component but the baseline.  A field that does not apply is None.
_Stack = namedtuple("_Stack", ["variant", "weight", "slope", "intercept", "noise_scale",
                               "center", "scatter", "chol", "nu", "zeta", "theta"])


def _stack(model: CwmModel) -> _Stack:
    """The G-stacked parameters of ``model``."""
    spec = model.spec
    comps = model.components
    margs = [c.x_marginal for c in comps]
    conds = [c.y_conditional for c in comps]
    center = scatter = chol = nu = zeta = theta = None
    if spec.x_law is not None:
        center = np.array([m.center for m in margs])
        scatter = np.array([m.scatter for m in margs])
        chol = np.array([m.chol for m in margs])
    if spec.x_law == "t":
        nu = np.array([m.dof for m in margs])
    if spec.y_law == "t":
        zeta = np.array([c.dof for c in conds])
    if spec.gated:
        rows = [np.append(g.slope, g.intercept) for g in model.gating[1:]]
        theta = np.array(rows).reshape(len(rows), model.d + 1)
    return _Stack(model.variant, np.array([c.weight for c in comps]),
                  np.array([c.map.slope for c in conds]), np.array([c.map.intercept for c in conds]),
                  np.array([c.noise_scale for c in conds]), center, scatter, chol, nu, zeta, theta)


def _unstack(stack: _Stack) -> CwmModel:
    """The validated ``CwmModel`` of a stacked record."""
    spec = VARIANT_SPECS[stack.variant]
    G, d = stack.slope.shape
    y_dofs = stack.nu + d if spec.y_law == "joint_t" else stack.zeta
    comps = []
    for g in range(G):
        marg = None
        if spec.x_law is not None:
            marg = _law(stack.center[g], stack.scatter[g], None if stack.nu is None else stack.nu[g])
        cond = Conditional(LinearMap(stack.slope[g], stack.intercept[g]), stack.noise_scale[g],
                           dof=None if y_dofs is None else y_dofs[g])
        comps.append(Component(stack.weight[g], marg, cond))
    gating = None
    if spec.gated:
        gating = (LinearMap(np.zeros(d), 0.0),) + tuple(
            LinearMap(row[:-1], row[-1]) for row in stack.theta)
    return CwmModel(stack.variant, tuple(comps), gating)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a G-by-d a and a d-by-N b.  At d = 1 it is the broadcast
    outer product, the same bits at about a sixth of np.matmul's cost."""
    return a * b if a.shape[-1] == 1 else a @ b


def _first_best(rows: np.ndarray, better) -> np.ndarray:
    """Each column's best row of the contiguous G-by-N ``rows``, the first on
    ties as argmin and argmax give it, from G - 1 strict ``better``
    comparisons (``np.less`` or ``np.greater``) of whole rows, cheaper than
    an arg-best across the short G axis.  ``rows[0]`` is overwritten with
    the running best."""
    best = np.zeros(rows.shape[1], dtype=np.intp)
    for g in range(1, rows.shape[0]):
        wins = better(rows[g], rows[0])
        np.putmask(best, wins, g)
        np.putmask(rows[0], wins, rows[g])
    return best


def _gate_logits(xb: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """G-by-N gating logits: 0 for the baseline, w'x + w0 from the rows of
    ``theta`` for the others.  The E-step and the gating M-step
    (``em._fit_gating``) both take the gate from here and normalize it with
    ``log_sum_exp``, so the M-step's acceptance test compares values computed
    alike."""
    logits = np.zeros((theta.shape[0] + 1, xb.shape[0]))
    logits[1:] = _matmul(theta[:, :-1], xb.T) + theta[:, -1:]
    return logits


def _component_distances(stack: _Stack, xb: np.ndarray, yb: np.ndarray) -> Distances:
    """Whiten x against every component's x law in one stacked triangular
    solve, take the y residuals, and evaluate the gate.  x is laid out as d
    contiguous rows of N, as the M-step lays it out, so the distances the
    M-step hands the E-step are these bit for bit."""
    x_t = np.ascontiguousarray(xb.T)
    resid = yb - (_matmul(stack.slope, x_t) + stack.intercept[:, None])
    log_gate = None
    if stack.theta is not None:
        logits = _gate_logits(xb, stack.theta)
        log_gate = logits - log_sum_exp(logits, axis=0)
    if stack.center is None:
        return Distances(None, resid, log_gate)
    return Distances(_whitened_sq(stack.chol, x_t - stack.center[:, :, None]), resid, log_gate)


def _log_component_terms(stack: _Stack, dist: Distances) -> np.ndarray:
    """N-by-G matrix of log(weight_g * density_g) at each observation, from
    its distances ``dist`` to the components (``_component_distances``).

    Every density is evaluated from those distances as one G-by-N
    expression, with per-component scales, dofs and log-determinants (from
    the Cholesky factors) as G-by-1 columns; the result is its transpose.
    """
    d = stack.slope.shape[1]
    spec = VARIANT_SPECS[stack.variant]
    scale_sq = stack.noise_scale[:, None] ** 2
    y_dof = None if stack.zeta is None else stack.zeta[:, None]
    if spec.y_law == "joint_t":
        # joint-t factorization: the conditional dof is nu + d, and the
        # conditional scale grows with the marginal Mahalanobis distance of x
        nu = stack.nu[:, None]
        y_dof = nu + d
        scale_sq = scale_sq * (nu + dist.x) / y_dof
    maha_y = dist.resid**2 / scale_sq
    if y_dof is None:
        ll = gaussian_log_density(maha_y, 1, np.log(scale_sq))
    else:
        ll = student_log_density(maha_y, 1, np.log(scale_sq), y_dof)
    if spec.x_law == "t":
        ll = ll + student_log_density(dist.x, d, _log_det(stack.chol)[:, None], stack.nu[:, None])
    elif spec.x_law == "gaussian":
        ll = ll + gaussian_log_density(dist.x, d, _log_det(stack.chol)[:, None])
    log_weight = dist.log_gate if spec.gated else np.log(stack.weight[:, None])
    return (log_weight + ll).T


def _model_terms(model: CwmModel, data: Dataset) -> np.ndarray:
    """``_log_component_terms`` of ``model`` at the observations of ``data``,
    whose x must have the model's d columns.  ``Dataset``'s bound keeps EM's
    sums of squares finite, not a model's distances: an observation far out
    against a narrow component overflows its whitened distance or residual,
    giving that component a -inf term, which the scorers weigh as zero.  An
    observation is refused only when no component's term is finite (log
    weights and the gate are finite on valid data); the row maximum is NaN
    or infinite exactly then, or when a term is NaN or +inf."""
    if data.d != model.d:
        raise ValueError(f"x must have {model.d} columns")
    stack = _stack(model)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _log_component_terms(stack, _component_distances(stack, data.x, data.y))
    if not np.isfinite(terms).all():  # row maxima only then: max(axis=1) is 20x slower
        unusable = ~np.isfinite(terms.max(axis=1))
        if unusable.any():
            raise ValueError(f"observation {np.argmax(unusable)} is too far out for "
                             "this model: its log density overflows")
    return terms


def joint_logpdf(model: CwmModel, x, y) -> np.ndarray:
    """Log mixture density at each observation (x, y), conditional-only for
    fmr/fmrc.  (x, y) are read as ``Dataset`` reads them: x is N-by-d, or a
    vector of N points at d = 1, with one y per row."""
    return log_sum_exp(_model_terms(model, Dataset(x, y)), axis=1)


def posterior(model: CwmModel, x, y) -> np.ndarray:
    """N-by-G posterior membership probabilities, one row per observation;
    (x, y) are read as ``joint_logpdf`` reads them."""
    terms = _model_terms(model, Dataset(x, y))
    return _share_exp(terms - log_sum_exp(terms, axis=1)[:, None])


def classify(model: CwmModel, data: Dataset) -> np.ndarray:
    """Maximum-posterior group index per observation: the arg-max of the
    component terms log(weight_g density_g), which normalizing to posteriors
    would only shift per observation; ties go to the lowest index."""
    return _first_best(_model_terms(model, data).T, np.greater) + 1


# ----------------------------------------------------------- nesting maps

def fmg_to_cwm(joint: GaussianParams, weight: float) -> Component:
    """Rewrite a (d+1)-variate Gaussian as a CWM component over (x, y).

    The last coordinate is the response:
    b = Sigma_xx^-1 Sigma_xy, b0 = mu_y - b'mu_x,
    noise variance = sigma_y^2 - Sigma_yx Sigma_xx^-1 Sigma_xy.
    The joint density is preserved pointwise.
    """
    if joint.dim < 2:
        raise ValueError("need at least one covariate and one response")
    mean, cov = joint.mean, joint.cov
    sxx, sxy = cov[:-1, :-1], cov[:-1, -1]
    slope = solve_spd(sxx, sxy)
    intercept = float(mean[-1] - slope @ mean[:-1])
    noise_var = float(cov[-1, -1] - sxy @ slope)
    if noise_var <= 0:
        raise ValueError("joint covariance is not positive-definite")
    return Component(
        weight,
        GaussianParams(mean[:-1], sxx),
        Conditional(LinearMap(slope, intercept), math.sqrt(noise_var)),
    )


def t_conditional_decompose(joint: StudentParams, split: int):
    """Split a q-variate t into (marginal over the first ``split`` coords,
    conditional-law factory for the rest).

    The marginal keeps dof nu; the conditional at z1 has dof nu + split and
    scale ((nu + delta(z1)) / (nu + split)) times the Schur complement.
    """
    q = joint.dim
    if not 1 <= _integer("split", split) < q:
        raise ValueError(f"split must lie in [1, {q - 1}]")
    loc, scale, nu = joint.location, joint.scale, joint.dof
    s11 = scale[:split, :split]
    s12 = scale[:split, split:]
    marginal = StudentParams(loc[:split], s11, nu)
    beta = solve_spd(s11, s12)
    schur = scale[split:, split:] - s12.T @ beta
    schur = 0.5 * (schur + schur.T)  # keep exactly symmetric for Cholesky

    def conditional(z1) -> StudentParams:
        z1 = np.asarray(z1, dtype=float)
        delta = mahalanobis_sq(z1, marginal)
        center = loc[split:] + beta.T @ (z1 - loc[:split])
        return StudentParams(center, ((nu + delta) / (nu + split)) * schur, nu + split)

    return marginal, conditional


def check_fmr_reduction(model: CwmModel) -> bool:
    """True iff every component shares one x-marginal, so the joint posterior
    reduces to the plain mixture-of-regressions posterior."""
    if model.variant != "gaussian_cwm":
        raise ValueError("reduction check applies to gaussian_cwm models")
    stack = _stack(model)
    return not (np.max(np.abs(stack.center - stack.center[0])) > 1e-10
                or np.max(np.abs(stack.scatter - stack.scatter[0])) > 1e-10)


def cwm_to_fmrc_gating(model: CwmModel) -> list[LinearMap]:
    """fmrc gates (``LinearMap``s) reproducing the x-posterior of a common-covariance,
    equal-weight Gaussian CWM: w_g = Sigma^-1 (mu_g - mu_1) against baseline 1,
    w_g0 = -(mu_g + mu_1)' Sigma^-1 (mu_g - mu_1) / 2."""
    if model.variant != "gaussian_cwm":
        raise ValueError("gating extraction applies to gaussian_cwm models")
    stack = _stack(model)
    sigma, mu1 = stack.scatter[0], stack.center[0]
    if np.max(np.abs(stack.scatter - sigma)) > 1e-10:
        raise ValueError("gating extraction requires a common covariance")
    if stack.weight.max() - stack.weight.min() > 1e-12:
        raise ValueError("gating extraction requires equal mixing weights")
    gating = [LinearMap(np.zeros(model.d), 0.0)]
    for mu in stack.center[1:]:
        w = solve_spd(sigma, mu - mu1)
        gating.append(LinearMap(w, -0.5 * float((mu + mu1) @ w)))
    return gating


def check_degenerate_conditional(model: CwmModel) -> bool:
    """True iff all components share one conditional law (slope, intercept,
    noise variance), so f(y|x) collapses to a single regression line."""
    stack = _stack(model)
    noise_var = stack.noise_scale**2
    return not (np.max(np.abs(stack.slope - stack.slope[0])) > 1e-10
                or np.max(np.abs(stack.intercept - stack.intercept[0])) > 1e-10
                or np.max(np.abs(noise_var - noise_var[0])) > 1e-10)


# -------------------------------------------------------------- serialization

def model_to_dict(model: CwmModel) -> dict:
    """JSON-ready dict; numbers keep full double precision."""
    components = []
    for comp in model.components:
        marg = None if comp.x_marginal is None else law_to_dict(comp.x_marginal)
        cond = comp.y_conditional
        y_conditional = {
            "slope": cond.map.slope.tolist(),
            "intercept": cond.map.intercept,
            "noise_var": cond.noise_scale**2,
        }
        if cond.dof is not None:
            y_conditional["dof"] = cond.dof
        components.append(
            {"weight": comp.weight, "x_marginal": marg, "y_conditional": y_conditional}
        )
    out = {
        "variant": model.variant,
        "d": model.d,
        "G": model.G,
        "components": components,
    }
    if model.gating is not None:
        out["gating"] = [{"w": g.slope.tolist(), "w0": g.intercept} for g in model.gating]
    return out


def model_from_dict(doc: dict) -> CwmModel:
    """Inverse of model_to_dict; validates through the CwmModel constructor,
    and the doc's "G" and "d" must be those of its components."""
    components = []
    for entry in doc["components"]:
        marg = None if entry["x_marginal"] is None else law_from_dict(entry["x_marginal"])
        yc = entry["y_conditional"]
        cond = Conditional(
            LinearMap(yc["slope"], yc["intercept"]),
            math.sqrt(_real("noise_var", yc["noise_var"], positive=True)),
            dof=yc.get("dof"),
        )
        components.append(Component(entry["weight"], marg, cond))
    gating = None
    if "gating" in doc:
        gating = tuple(LinearMap(g["w"], g["w0"]) for g in doc["gating"])
    model = CwmModel(doc["variant"], tuple(components), gating)
    for key in ("G", "d"):
        if doc[key] != getattr(model, key):
            raise ValueError(f"{key} is {doc[key]!r}, but the components give {getattr(model, key)}")
    return model
