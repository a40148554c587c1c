"""Model evaluation: Wilks lambda on the joint (x, y) scatter, an index of
weighted model fitting (posterior-weighted RMS residual), permutation-aligned
misclassification with confusion matrices, and BIC."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from .densities import GaussianParams, _integer, gaussian_logpdf
from .em import FitResult
from .model import NOISE, VARIANT_SPECS, CwmModel, Dataset, _labels, _matmul, _stack, posterior


def wilks_lambda(data: Dataset, labels) -> float:
    """det(within scatter) / det(total scatter) on z = (x, y).

    ``labels`` are read as ``Dataset`` reads them.  NOISE-labeled rows are
    excluded.  Only the total scatter must be nonsingular; a group of any
    size adds to the pooled within scatter.  A single group gives exactly 1
    (within equals total), a singular within scatter 0.

    z is laid out as d + 1 contiguous rows of N.  The group sums come from
    ``np.bincount``, the total from their exactly rounded sum, and each
    scatter from one product of the rows centred at their group's or the
    total mean.
    """
    labels = _labels(labels)
    if labels.shape[0] != data.n:
        raise ValueError("labels length mismatch")
    z = np.vstack([data.x.T, data.y])
    keep = labels != NOISE
    if not keep.all():
        z, labels = z[:, keep], labels[keep]
    n = labels.size
    if n == 0:
        raise ValueError("no grouped observations")
    # counting needs max-label entries, so a label above the point count
    # (legal, if odd) is replaced by its rank among the labels first
    if labels.max() > n:
        labels = np.unique(labels, return_inverse=True)[1]
    sums = np.stack([np.bincount(labels, weights=row) for row in z])
    # an absent label (NOISE's slot, at least) has a zero sum and count
    within_c = z - np.take(sums / np.maximum(np.bincount(labels), 1), labels, axis=1)
    # fsum makes the total mean one group's mean, bit for bit, when only one is present
    total_c = z - np.array([math.fsum(row) for row in sums.tolist()])[:, None] / n
    sign_t, logdet_t = np.linalg.slogdet(total_c @ total_c.T)
    if sign_t <= 0 or not np.isfinite(logdet_t):
        raise ValueError("total scatter matrix is singular")
    sign_w, logdet_w = np.linalg.slogdet(within_c @ within_c.T)
    if sign_w <= 0:
        return 0.0
    return float(min(1.0, math.exp(logdet_w - logdet_t)))


def iwf(data: Dataset, model: CwmModel, include_noise: bool = True) -> float:
    """Root-mean-square of y minus the posterior-weighted local regression mean.

    With ``include_noise`` False the NOISE-labeled rows are left out.  The
    local means are laid out G-by-N, one row per component, from the stacked
    record, and summed against the posterior's rows left to right."""
    if include_noise or data.labels is None:
        x, y = data.x, data.y
    else:
        keep = data.labels != NOISE
        if not keep.any():
            raise ValueError("no grouped observations")
        x, y = data.x[keep], data.y[keep]
    post = posterior(model, x, y).T
    stack = _stack(model)
    local = _matmul(stack.slope, np.ascontiguousarray(x.T)) + stack.intercept[:, None]
    fitted = post[0] * local[0]
    for g in range(1, model.G):
        fitted += post[g] * local[g]
    return float(np.sqrt(np.mean((y - fitted) ** 2)))


def misclassification(true_labels, predicted_labels, G: int):
    """(error rate, permutation, confusion) with the error minimized over all
    relabelings of the G predicted groups; NOISE only ever matches NOISE.

    The confusion matrix is laid out true-by-aligned-predicted, groups 1..G
    first, with a NOISE row/column appended when present in the labels.
    """
    truth, pred = _labels(true_labels), _labels(predicted_labels)
    if truth.shape[0] != pred.shape[0]:
        raise ValueError("label vectors differ in length")
    if _integer("G", G, low=1) > 8:
        raise ValueError("permutation alignment supports G <= 8")
    if np.any(truth > G) or np.any(pred > G):
        raise ValueError(f"labels must lie in 1..{G} or NOISE")
    n = truth.shape[0]
    if n == 0:
        raise ValueError("no labels")
    # raw counts, slot label - 1 for a group and the last slot, G, for NOISE
    truth_slot, pred_slot = truth - 1, pred - 1
    truth_slot[truth == NOISE] = G
    pred_slot[pred == NOISE] = G
    raw = np.bincount(truth_slot * (G + 1) + pred_slot, minlength=(G + 1) ** 2).reshape(G + 1, G + 1)

    def matched(perm):  # predicted group j aligned to true group perm[j]
        return sum(raw[t, j] for j, t in enumerate(perm))

    best = max(itertools.permutations(range(G)), key=matched)  # the first best, on ties
    eta = 1.0 - (raw[G, G] + matched(best)) / n
    mapping = {j + 1: best[j] + 1 for j in range(G)}
    # column j of the aligned counts collects the predictions aligned to true group j
    aligned = raw[:, list(np.argsort(best)) + [G]]
    rows = list(range(G)) + ([G] if raw[G].sum() else [])
    cols = list(range(G)) + ([G] if raw[:, G].sum() else [])
    confusion = aligned[np.ix_(rows, cols)]
    return eta, mapping, confusion


def free_parameters(variant: str, G: int, d: int) -> int:
    """Free-parameter count per variant (marginal + regression + mixing/gating)."""
    spec = VARIANT_SPECS.get(variant)
    if spec is None:
        raise ValueError(f"unknown variant {variant!r}")
    _integer("G", G, low=1)
    _integer("d", d, low=1)
    per_component = d + 2  # slope, intercept, noise variance
    if spec.x_law is not None:
        per_component += d + d * (d + 1) // 2
    # one dof per t law; a joint t's conditional dof is tied to the marginal's
    per_component += (spec.x_law == "t") + (spec.y_law == "t")
    mixing = (G - 1) * (d + 1) if spec.gated else G - 1
    return G * per_component + mixing


def _bic(fit: FitResult, ll_x: float = 0.0, k_x: int = 0) -> float:
    """-2 (loglik + ll_x) + (k + k_x) log N; ll_x and k_x add an x-marginal to the fit."""
    if not fit.converged:
        warnings.warn("BIC computed from a non-converged fit", RuntimeWarning)
    model = fit.model
    k = free_parameters(model.variant, model.G, model.d) + k_x
    return float(-2.0 * (fit.loglik_trace[-1] + ll_x) + k * math.log(fit.responsibilities.shape[0]))


def bic(fit: FitResult) -> float:
    """-2 loglik + k log N (smaller is better), N the fit's responsibility rows."""
    return _bic(fit)


def bic_joint_nested(fit: FitResult, data: Dataset) -> float:
    """BIC on the joint (x, y) scale of a fit to ``data``, for cross-variant comparison.

    Conditional-only fits (fmr, fmrc) are completed with a single pooled
    Gaussian x-marginal — the nesting that makes their likelihood comparable
    with joint models; joint fits pass through to plain bic().
    """
    if data.n != fit.responsibilities.shape[0]:
        raise ValueError(f"data has {data.n} rows, but the fit has {fit.responsibilities.shape[0]}")
    if data.d != fit.model.d:
        raise ValueError(f"x must have {fit.model.d} columns")
    if fit.model.spec.x_law is not None:
        return _bic(fit)
    mu = data.x.mean(axis=0)
    centered = data.x - mu
    cov = centered.T @ centered / data.n
    ll_x = float(np.sum(gaussian_logpdf(data.x, GaussianParams(mu, cov))))
    return _bic(fit, ll_x, data.d + data.d * (data.d + 1) // 2)
