"""Model evaluation: Wilks lambda on the joint (x, y) scatter, an index of
weighted model fitting (posterior-weighted RMS residual), permutation-aligned
misclassification with confusion matrices, and BIC."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .densities import GaussianParams, gaussian_logpdf
from .em import FitResult
from .model import NOISE, VARIANT_SPECS, CwmModel, Dataset, _labels, posterior


@dataclass
class MetricsReport:
    wilks_lambda: float
    iwf: float
    misclassification_rate: float
    bic: float
    confusion: np.ndarray
    permutation_used: dict

    def __post_init__(self):
        if not 0.0 <= self.wilks_lambda <= 1.0:
            raise ValueError("wilks_lambda must lie in [0, 1]")
        if not 0.0 <= self.misclassification_rate <= 1.0:
            raise ValueError("misclassification_rate must lie in [0, 1]")
        confusion = np.asarray(self.confusion)
        if confusion.size and (np.any(confusion < 0) or not np.issubdtype(confusion.dtype, np.integer)):
            raise ValueError("confusion entries must be nonnegative integers")
        self.confusion = confusion

    def to_dict(self) -> dict:
        return {
            "wilks_lambda": self.wilks_lambda,
            "iwf": self.iwf,
            "misclassification_rate": self.misclassification_rate,
            "bic": self.bic,
            "confusion": self.confusion.tolist(),
            "permutation_used": {str(k): int(v) for k, v in self.permutation_used.items()},
        }


def wilks_lambda(data: Dataset, labels) -> float:
    """det(within scatter) / det(total scatter) on z = (x, y).

    ``labels`` are read as ``Dataset`` reads them.  NOISE-labeled rows are
    excluded; every group needs at least d+2 points.  A single group gives
    exactly 1 (within equals total), a singular within scatter 0.
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
        if zg.shape[0] < data.d + 2:
            raise ValueError(f"group {g} has fewer than d+2 points")
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
    # raw counts with the NOISE slot last
    raw = np.zeros((G + 1, G + 1), dtype=int)
    ti = np.where(truth == NOISE, G, truth - 1)
    pi = np.where(pred == NOISE, G, pred - 1)
    np.add.at(raw, (ti, pi), 1)
    best_perm = None
    best_correct = -1
    for perm in itertools.permutations(range(G)):
        correct = raw[G, G] + sum(raw[perm[j], j] for j in range(G))
        if correct > best_correct:
            best_correct = correct
            best_perm = perm
    eta = 1.0 - best_correct / n
    mapping = {j + 1: best_perm[j] + 1 for j in range(G)}
    # reorder predicted columns so column j collects predictions aligned to j
    order = [0] * G
    for j in range(G):
        order[best_perm[j]] = j
    aligned = raw[:, order + [G]]
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
