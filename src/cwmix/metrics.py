"""Model evaluation: Wilks lambda on the joint (x, y) scatter, an index of
weighted model fitting (posterior-weighted RMS residual), permutation-aligned
misclassification with confusion matrices, and BIC."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from .densities import GaussianParams, gaussian_logpdf
from .em import FitResult
from .model import NOISE, VARIANT_SPECS, CwmModel, Dataset, _labels, posterior


def wilks_lambda(data: Dataset, labels) -> float:
    """det(within scatter) / det(total scatter) on z = (x, y).

    ``labels`` are read as ``Dataset`` reads them.  NOISE-labeled rows are
    excluded.  Only the total scatter must be nonsingular; a group of any
    size adds to the pooled within scatter.  A single group gives exactly 1
    (within equals total), a singular within scatter 0.
    """
    labels = Dataset(data.x, data.y, labels).labels
    z = np.column_stack([data.x, data.y])
    keep = labels != NOISE
    z, labels = z[keep], labels[keep]
    if z.shape[0] == 0:
        raise ValueError("no grouped observations")
    q = z.shape[1]
    within = np.zeros((q, q))
    for g in np.unique(labels):
        zg = z[labels == g]
        centered = zg - zg.mean(axis=0)
        within += centered.T @ centered
    centered = z - z.mean(axis=0)
    total = centered.T @ centered
    sign_t, logdet_t = np.linalg.slogdet(total)
    if sign_t <= 0 or not np.isfinite(logdet_t):
        raise ValueError("total scatter matrix is singular")
    sign_w, logdet_w = np.linalg.slogdet(within)
    if sign_w <= 0:
        return 0.0
    return float(min(1.0, math.exp(logdet_w - logdet_t)))


def iwf(data: Dataset, model: CwmModel, include_noise: bool = True) -> float:
    """Root-mean-square of y minus the posterior-weighted local regression mean."""
    if include_noise or data.labels is None:
        x, y = data.x, data.y
    else:
        keep = data.labels != NOISE
        x, y = data.x[keep], data.y[keep]
    post = posterior(model, x, y)
    local_means = np.stack([c.y_conditional.map(x) for c in model.components], axis=1)
    fitted = (post * local_means).sum(axis=1)
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
    if G > 8:
        raise ValueError("permutation alignment supports G <= 8")
    if np.any(truth > G) or np.any(pred > G):
        raise ValueError(f"labels must lie in 1..{G} or NOISE")
    n = truth.shape[0]
    if n == 0:
        raise ValueError("no labels")
    # raw counts; label - 1 modulo G + 1 puts NOISE (0) in the last slot
    raw = np.zeros((G + 1, G + 1), dtype=int)
    np.add.at(raw, ((truth - 1) % (G + 1), (pred - 1) % (G + 1)), 1)

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
    per_component = d + 2  # slope, intercept, noise variance
    if spec.x_law is not None:
        per_component += d + d * (d + 1) // 2
    # one dof per t law; a joint t's conditional dof is tied to the marginal's
    per_component += (spec.x_law == "t") + (spec.y_law == "t")
    mixing = (G - 1) * (d + 1) if spec.gated else G - 1
    return G * per_component + mixing


def _bic(fit: FitResult, N: int, ll_x: float = 0.0, k_x: int = 0) -> float:
    """-2 (loglik + ll_x) + (k + k_x) log N; ll_x and k_x add an x-marginal to the fit."""
    if not fit.converged:
        warnings.warn("BIC computed from a non-converged fit", RuntimeWarning)
    model = fit.model
    k = free_parameters(model.variant, model.G, model.d) + k_x
    return float(-2.0 * (fit.loglik_trace[-1] + ll_x) + k * math.log(N))


def bic(fit: FitResult, N: int) -> float:
    """-2 loglik + k log N (smaller is better)."""
    return _bic(fit, N)


def bic_joint_nested(fit: FitResult, data: Dataset) -> float:
    """BIC on the joint (x, y) scale for cross-variant comparison.

    Conditional-only fits (fmr, fmrc) are completed with a single pooled
    Gaussian x-marginal — the nesting that makes their likelihood comparable
    with joint models; joint fits pass through to plain bic().
    """
    if fit.model.spec.x_law is not None:
        return _bic(fit, data.n)
    mu = data.x.mean(axis=0)
    centered = data.x - mu
    cov = centered.T @ centered / data.n
    ll_x = float(np.sum(gaussian_logpdf(data.x, GaussianParams(mu, cov))))
    return _bic(fit, data.n, ll_x, data.d + data.d * (data.d + 1) // 2)
