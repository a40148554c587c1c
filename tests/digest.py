"""One sha256 over what the package computes on the builtin designs.

Run as ``PYTHONPATH=src python tests/digest.py``.  It prints one line: the
hash, the number of fitted cells and the seconds taken.  Two trees that are
meant to give the same numbers print the same hash on one machine.  The
N-long products in the M-step depend on the BLAS kernel, so compare hashes
made on one machine only.  This is a tool, not a test: pytest does not
collect this file.

With ``--parts`` it first prints one line per cell, its design, data seed,
variant and non-default options, then a short hash of each value it hashes
there: ``trace`` (the log-likelihood trace, start index, convergence and
iteration count, or a failed fit's message), ``resp``, ``model``,
``logpdf``, ``classify``, ``iwf``, ``misclass``, ``wilks`` and ``bic``; a
last such line hashes the random ``misclassification`` calls.  Diff two
trees' outputs to see which cells and values moved.

It hashes ``generate()`` on the 9 builtin designs at data seeds 1-3, then,
for each of the 6 variants, the default 10-start ``fit()`` at the true G
and every metric on its result (162 cells).  At data seed 1 it adds 42
cells with a non-default ``FitConfig``: ``max_iter`` 1 and 2 on ex4_s2 and
ex6_s2, and the ``given_labels`` init on the noise-free ex1-ex3 (204 cells
in all).  Last it hashes ``misclassification`` on 3,000 random label
vectors.
"""

import argparse
import hashlib
import itertools
import json
import time
import warnings

import numpy as np

from cwmix.datagen import SCENARIO_NAMES, builtin_scenario, generate
from cwmix.em import DegenerateFitError, FitConfig, fit
from cwmix.metrics import bic, bic_joint_nested, iwf, misclassification, wilks_lambda
from cwmix.model import NOISE, VARIANTS, classify, joint_logpdf, model_to_dict


def _update(h, value):
    if isinstance(value, np.ndarray):
        h.update(str((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(json.dumps(value, sort_keys=True).encode())


class _Parts:
    """Hashes each value into the digest ``h`` and into its part's own hash."""

    def __init__(self, h):
        self.h = h
        self.parts = {}

    def put(self, part, value):
        _update(self.h, value)
        _update(self.parts.setdefault(part, hashlib.sha256()), value)

    def line(self):
        return " ".join(f"{k}={v.hexdigest()[:12]}" for k, v in self.parts.items())


def _misclassification(parts, truth, pred, G):
    eta, mapping, confusion = misclassification(truth, pred, G)
    parts.put("misclass", [eta, sorted(mapping.items())])
    parts.put("misclass", confusion)


def _cell(parts, data, G, variant, seed, **options):
    try:
        result = fit(data, FitConfig(G=G, variant=variant, seed=seed, **options))
    except DegenerateFitError as exc:
        parts.put("trace", str(exc))
        return
    parts.put("trace", result.loglik_trace)
    parts.put("resp", result.responsibilities)
    parts.put("trace", [result.start_index, result.converged, result.n_iter])
    parts.put("model", model_to_dict(result.model))
    parts.put("logpdf", joint_logpdf(result.model, data.x, data.y))
    pred = classify(result.model, data)
    parts.put("classify", pred)
    parts.put("iwf", iwf(data, result.model))
    _misclassification(parts, data.labels, pred, G)
    parts.put("wilks", [wilks_lambda(data, data.labels), wilks_lambda(data, pred)])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "BIC computed from a non-converged fit", RuntimeWarning)
        parts.put("bic", [bic(result), bic_joint_nested(result, data)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parts", action="store_true",
                        help="first print a short hash of each value per cell")
    show_parts = parser.parse_args().parts
    start = time.perf_counter()
    h = hashlib.sha256()
    cells = 0

    def run_cell(label, data, G, variant, seed, **options):
        parts = _Parts(h)
        _cell(parts, data, G, variant, seed, **options)
        if show_parts:
            print(label, variant, *(f"{k}={v}" for k, v in options.items()), parts.line())

    for name, seed in itertools.product(SCENARIO_NAMES, (1, 2, 3)):
        spec = builtin_scenario(name).with_seed(seed)
        data = generate(spec)
        for value in (data.x, data.y, data.labels):
            _update(h, value)
        for variant in VARIANTS:
            run_cell(f"{name} {seed}", data, len(spec.groups), variant, seed)
            cells += 1
    for name in SCENARIO_NAMES:
        spec = builtin_scenario(name).with_seed(1)
        data, G = generate(spec), len(spec.groups)
        options = []
        if name in ("ex4_s2", "ex6_s2"):
            options += [dict(variant=v, max_iter=m) for v in VARIANTS for m in (1, 2)]
        if name in ("ex1", "ex2", "ex3"):  # the noisy designs carry NOISE labels
            options += [dict(variant=v, init="given_labels") for v in VARIANTS]
        for option in options:
            run_cell(f"{name} 1", data, G, seed=1, **option)
            cells += 1
    parts = _Parts(h)
    rng = np.random.default_rng(7)
    for _ in range(3000):
        G = int(rng.integers(1, 7))
        n = int(rng.integers(1, 40))
        truth, pred = (rng.integers(NOISE, G + 1, size=n) for _ in range(2))
        _misclassification(parts, truth, pred, G)
    if show_parts:
        print("random-labels", parts.line())
    print(h.hexdigest(), cells, f"{time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
