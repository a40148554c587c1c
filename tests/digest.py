"""One sha256 over what the package computes on the builtin designs.

Run as ``PYTHONPATH=src python tests/digest.py``.  It prints one line: the
hash, the number of fitted cells and the seconds taken.  Two trees that are
meant to give the same numbers print the same hash on one machine.  The
N-long products in the M-step depend on the BLAS kernel, so compare hashes
made on one machine only.  This is a tool, not a test: pytest does not
collect this file.

It hashes ``generate()`` on the 9 builtin designs at data seeds 1-3, then,
for each of the 6 variants, the default 10-start ``fit()`` at the true G
and every metric on its result (162 cells), and ``misclassification`` on
3,000 random label vectors.
"""

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


def _misclassification(h, truth, pred, G):
    eta, mapping, confusion = misclassification(truth, pred, G)
    _update(h, [eta, sorted(mapping.items())])
    _update(h, confusion)


def _cell(h, data, G, variant, seed):
    try:
        result = fit(data, FitConfig(G=G, variant=variant, seed=seed))
    except DegenerateFitError as exc:
        _update(h, str(exc))
        return
    for value in (result.loglik_trace, result.responsibilities,
                  [result.start_index, result.converged, result.n_iter],
                  model_to_dict(result.model), joint_logpdf(result.model, data.x, data.y)):
        _update(h, value)
    pred = classify(result.model, data)
    _update(h, pred)
    _update(h, iwf(data, result.model))
    _misclassification(h, data.labels, pred, G)
    _update(h, [wilks_lambda(data, data.labels), wilks_lambda(data, pred)])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "BIC computed from a non-converged fit", RuntimeWarning)
        _update(h, [bic(result, data.n), bic_joint_nested(result, data)])


def main():
    start = time.perf_counter()
    h = hashlib.sha256()
    cells = 0
    for name, seed in itertools.product(SCENARIO_NAMES, (1, 2, 3)):
        spec = builtin_scenario(name).with_seed(seed)
        data = generate(spec)
        for value in (data.x, data.y, data.labels):
            _update(h, value)
        for variant in VARIANTS:
            _cell(h, data, len(spec.groups), variant, seed)
            cells += 1
    rng = np.random.default_rng(7)
    for _ in range(3000):
        G = int(rng.integers(1, 7))
        n = int(rng.integers(1, 40))
        truth, pred = (rng.integers(NOISE, G + 1, size=n) for _ in range(2))
        _misclassification(h, truth, pred, G)
    print(h.hexdigest(), cells, f"{time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
