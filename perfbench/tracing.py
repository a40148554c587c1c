"""Per-layer tracing for the benchmark, installed from the benchmark's own files.

The tracer replaces each traced function in the module namespace where its
caller looks it up (``cwmix.em._m_step``, ``cwmix.densities.cholesky_lower``
and so on) with a wrapper that records a span: layer, parent span, start and
end.  Spans stay in memory in flat arrays and are written out once, when the
traced run ends.  A layer's self time is its span's duration minus the
durations of its direct child spans.

Functions called about a million times per run (``digamma``, and
``estimate_dof`` which it serves) get count-only wrappers, so that tracing
does not swamp the time it is meant to attribute.

A name that a later version of the package no longer has is skipped and
reported in ``missing``; the metrics derived from it are then absent
rather than the run crashing.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

#: layer -> the module attributes its callers look up.
SPAN_TARGETS = {
    "datagen.generate": ("cwmix.datagen.generate",),
    "em.fit": ("cwmix.em.fit",),
    "em.run_start": ("cwmix.em._run_start",),
    "em.initialize": ("cwmix.em.initialize",),
    "em.estep": ("cwmix.em._log_component_terms",),
    "em.log_sum_exp": ("cwmix.em.log_sum_exp",),
    "em.latent_weights": ("cwmix.em._latent_weights",),
    "em.m_step": ("cwmix.em._m_step",),
    "em.weighted_ls": ("cwmix.em._weighted_ls",),
    "em.regularize_cov": ("cwmix.em._regularize_cov",),
    "em.fit_gating": ("cwmix.em._fit_gating",),
    "em.solve_dof": ("cwmix.em._solve_dof",),
    "densities.cholesky_lower": (
        "cwmix.densities.cholesky_lower",  # GaussianParams, StudentParams, solve_spd
        "cwmix.em.cholesky_lower",
        "cwmix.datagen.cholesky_lower",
    ),
    "densities.solve_spd": ("cwmix.em.solve_spd", "cwmix.model.solve_spd"),
    "densities.gaussian_logpdf": ("cwmix.model.gaussian_logpdf",),
    "densities.student_logpdf": ("cwmix.model.student_logpdf",),
    "densities.mahalanobis_sq": ("cwmix.model.mahalanobis_sq", "cwmix.em.mahalanobis_sq"),
    "model.posterior": ("cwmix.model.posterior", "cwmix.metrics.posterior"),
    "model.joint_logpdf": ("cwmix.model.joint_logpdf",),
    "model.classify": ("cwmix.model.classify",),
    "metrics.misclassification": ("cwmix.metrics.misclassification",),
    "metrics.iwf": ("cwmix.metrics.iwf",),
    "metrics.wilks_lambda": ("cwmix.metrics.wilks_lambda",),
}

#: layer -> the module attribute its callers look up; counted, not spanned.
COUNT_TARGETS = {
    "em.digamma": "cwmix.em.digamma",
    "em.estimate_dof": "cwmix.em.estimate_dof",
}


def _resolve(target: str):
    module_name, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    return module, attr


def patch_targets() -> list[str]:
    """Every module attribute the tracer may replace."""
    return [t for targets in SPAN_TARGETS.values() for t in targets] + list(COUNT_TARGETS.values())


def current_attributes() -> dict:
    """Snapshot of every patchable attribute that exists right now."""
    out = {}
    for target in patch_targets():
        module, attr = _resolve(target)
        if module is not None and hasattr(module, attr):
            out[target] = getattr(module, attr)
    return out


class Tracer:
    """Install with ``with Tracer() as tracer:``; every original is restored
    on exit, also when the traced code raises."""

    def __init__(self):
        self.layers = list(SPAN_TARGETS)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts = {name: 0 for name in COUNT_TARGETS}
        self.events = {"em.estimate_dof.bracket_hits": 0, "em.regularize_cov.ridged": 0,
                       "em.starts_failed": 0, "datagen.generate.points": 0}
        self.missing: list[str] = []  # module attributes not found
        self.missing_layers: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._after = self._result_hooks()

    # ------------------------------------------------------------ install

    def __enter__(self):
        try:
            for name, targets in SPAN_TARGETS.items():
                for target in targets:
                    self._patch(target, name, self._span_wrapper)
            for name, target in COUNT_TARGETS.items():
                self._patch(target, name, self._count_wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, target, name, make_wrapper):
        module, attr = _resolve(target)
        if module is None or not callable(getattr(module, attr, None)):
            self.missing.append(target)
            self.missing_layers.add(name)
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(name, original))

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, fn):
        layer_id = self._layer_id[name]
        after = self._after.get(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "em.run_start":
                    self.events["em.starts_failed"] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _result_hooks(self) -> dict:
        """layer -> function run on each result, to count events in it."""
        events = self.events
        module, _ = _resolve("cwmix.em.DOF_BRACKET")
        bracket = getattr(module, "DOF_BRACKET", None)

        def dof_result(value):
            if bracket is not None and value in bracket:
                events["em.estimate_dof.bracket_hits"] += 1

        def cov_result(result):
            if result[1]:
                events["em.regularize_cov.ridged"] += 1

        def generated(data):
            events["datagen.generate.points"] += data.n

        return {"em.estimate_dof": dof_result, "em.regularize_cov": cov_result,
                "datagen.generate": generated}

    # ------------------------------------------------------------ results

    def layer_totals(self) -> dict:
        """{layer: (calls, self seconds)} for every span layer whose functions
        were all found, plus ``em.fit_gating.log_sum_exp_calls``."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        calls = np.bincount(layer, minlength=len(self.layers))
        self_s = np.bincount(layer, weights=own, minlength=len(self.layers))
        totals = {name: (int(calls[i]), float(self_s[i]))
                  for i, name in enumerate(self.layers) if name not in self.missing_layers}
        lse, gating = self._layer_id["em.log_sum_exp"], self._layer_id["em.fit_gating"]
        under_gating = (layer == lse) & nested & (layer[np.maximum(parent, 0)] == gating)
        totals["em.fit_gating.log_sum_exp_calls"] = int(under_gating.sum())
        return totals

    def write(self, path: Path) -> None:
        """Write every span: layer index, parent span index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            layer_names=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
