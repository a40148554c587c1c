"""One sha256 over what the package computes on the builtin designs.

Run as ``PYTHONPATH=src python tests/digest.py``.  It prints one line: the
hash, the number of fitted cells and the seconds taken.  Two trees that are
meant to give the same numbers print the same hash on one machine.  The
N-long products in the M-step depend on the BLAS kernel, so compare hashes
made on one machine only.  This is a tool, not a test: pytest does not
collect this file.

One loop, ``grid()``, fits every cell.  It feeds the hash as it goes and
yields each cell's label and values; ``main()`` prints them, and the tier-1
test in ``tests/test_digest.py`` compares them with the committed record
``tests/grid_values.txt`` by ``record_moves()``.  That test holds on any
machine and BLAS kernel: it fails when a cell appears or disappears, a
failed fit's message changes, or a value but ``start`` moves by more than
``RECORD_REL_TOL`` relative.  A change that moves numbers on purpose
re-records the file in the same commit, with
``PYTHONPATH=src python tests/digest.py --values | grep -F ' | ' > tests/grid_values.txt``,
so the git diff names the moved cells.

With ``--parts`` it first prints one line per cell, its design, data seed,
variant and non-default options, then a short hash of each value it hashes
there: ``trace`` (the log-likelihood trace, start index, convergence and
iteration count, or a failed fit's message), ``resp``, ``model``,
``logpdf``, ``classify``, ``iwf``, ``misclass``, ``wilks`` and ``bic``; a
last such line hashes the random ``misclassification`` calls.  Diff two
trees' outputs to see which cells and values moved.

With ``--values`` it first prints one line per cell: the same label, ``|``,
then a JSON object of the values themselves, floats as repr: ``loglik``
(the final log-likelihood), ``n_iter``, ``start``, ``converged``, ``wilks``
(Lambda on the true and the predicted labels), ``iwf`` and ``bic``
(``bic`` and ``bic_joint_nested``), or ``error`` for a failed fit.
``PYTHONPATH=src python tests/digest.py --diff A B`` reads two such
outputs, made on one machine, and fits nothing.  After any cell only one
file holds, it prints an ``error`` line for each cell that failed in both
files with different messages.  Then, for each value, it prints the cells
whose value moved, with both values and the relative move, then a line with
the count of moved cells and the largest relative move.  Last it
prints, for each variant and set of options, the summed ``n_iter`` of the
fitted cells in each file, with their counts.

It hashes ``generate()`` on the 9 builtin designs at data seeds 1-3, then,
for each of the 6 variants, the default 10-start ``fit()`` at the true G
and every metric on its result (162 cells).  At data seed 1 it adds 24
cells with a non-default ``FitConfig``: ``max_iter`` 1 and 2 on ex4_s2 and
ex6_s2 (186 cells in all).  Last it hashes ``misclassification`` on 3,000
random label vectors.
"""

import argparse
import hashlib
import itertools
import json
import math
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


VALUE_KEYS = ("loglik", "n_iter", "start", "converged", "wilks", "iwf", "bic")


def _cell(parts, data, G, variant, seed, **options):
    """Hash one cell into ``parts``; return its ``--values`` record."""
    try:
        result = fit(data, FitConfig(G=G, variant=variant, seed=seed, **options))
    except DegenerateFitError as exc:
        parts.put("trace", str(exc))
        return {"error": str(exc)}
    parts.put("trace", result.loglik_trace)
    parts.put("resp", result.responsibilities)
    parts.put("trace", [result.start_index, result.converged, result.n_iter])
    parts.put("model", model_to_dict(result.model))
    parts.put("logpdf", joint_logpdf(result.model, data.x, data.y))
    pred = classify(result.model, data)
    parts.put("classify", pred)
    fit_iwf = iwf(data, result.model)
    parts.put("iwf", fit_iwf)
    _misclassification(parts, data.labels, pred, G)
    wilks = [wilks_lambda(data, data.labels), wilks_lambda(data, pred)]
    parts.put("wilks", wilks)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "BIC computed from a non-converged fit", RuntimeWarning)
        bics = [bic(result), bic_joint_nested(result)]
    parts.put("bic", bics)
    return dict(zip(VALUE_KEYS, (float(result.loglik_trace[-1]), result.n_iter, result.start_index,
                                 result.converged, wilks, fit_iwf, bics)))


def _read_values(path):
    """{cell label: its values} from the ``--values`` lines of a digest
    output; a label that appears twice is a ``ValueError``."""
    values = {}
    with open(path) as f:
        for label, sep, record in (line.partition(" | ") for line in f):
            if sep:
                if label in values:
                    raise ValueError(f"{path}: cell {label} appears twice")
                values[label] = json.loads(record)
    return values


def _relative_move(a, b):
    """The largest relative move between two values: numbers, bools, lists
    of numbers, or None for a value a failed fit lacks (a move of inf, as is
    a NaN against any number)."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max(map(_relative_move, a, b), default=0.0)
    if a == b:
        return 0.0
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        move = abs(a - b) / max(abs(a), abs(b))
        return math.inf if math.isnan(move) else move
    return math.inf


def diff(path_a, path_b):
    """Print, for each value, the cells whose value moved from ``path_a`` to ``path_b``."""
    a, b = _read_values(path_a), _read_values(path_b)
    for label in sorted(a.keys() ^ b.keys()):
        print(f"cell only in {path_a if label in a else path_b}: {label}")
    common = [label for label in a if label in b]
    for label in common:
        old, new = a[label].get("error"), b[label].get("error")
        if None not in (old, new) and old != new:
            print(f"error {label}: {old!r} -> {new!r}")
    for key in VALUE_KEYS:
        moved = []
        for label in common:
            old, new = a[label].get(key), b[label].get(key)
            move = _relative_move(old, new)
            if move:
                moved.append((move, label))
                print(f"{key} {label}: {old!r} -> {new!r} (relative {move:.2e})")
        summary = f"{key}: {len(moved)} of {len(common)} cells moved"
        if moved:
            move, label = max(moved)
            summary += f", largest relative move {move:.2e} ({label})"
        print(summary)
    # a cell's label is its design, data seed, variant and options
    groups = sorted({" ".join(label.split()[2:]) for label in a.keys() | b.keys()})
    for group in groups:
        sums = []
        for values in (a, b):
            n_iter = [v["n_iter"] for label, v in values.items()
                      if " ".join(label.split()[2:]) == group and "n_iter" in v]
            sums.append(f"{sum(n_iter)} over {len(n_iter)} cells")
        print(f"n_iter sum {group}: {sums[0]} -> {sums[1]}")


#: How far, relatively, a recorded value may move before the grid test fails.
#: OpenBLAS's generic x86-64 kernel moves no value of the grid by more than
#: 9.97e-10 (an IWF) from the default kernel's, and a change of ``n_iter``
#: (at most 500) or ``converged`` is a move of at least 1/500.
RECORD_REL_TOL = 1e-7

#: Every cell, in hash order: design, data seed, variant and non-default options.
GRID = [*((name, seed, variant, {})
          for name, seed, variant in itertools.product(SCENARIO_NAMES, (1, 2, 3), VARIANTS)),
        *((name, 1, variant, {"max_iter": max_iter})
          for name, variant, max_iter in itertools.product(("ex4_s2", "ex6_s2"), VARIANTS, (1, 2)))]


def grid(h):
    """Fit every cell of ``GRID``, hashing each dataset the first time it is
    drawn and then each cell into ``h``; yield each cell's label, its
    ``_Parts`` and its ``--values`` record."""
    drawn = {}
    for name, seed, variant, options in GRID:
        if (name, seed) not in drawn:
            spec = builtin_scenario(name).with_seed(seed)
            data = generate(spec)
            for value in (data.x, data.y, data.labels):
                _update(h, value)
            drawn[name, seed] = data, len(spec.groups)
        data, G = drawn[name, seed]
        parts = _Parts(h)
        values = _cell(parts, data, G, variant, seed, **options)
        label = " ".join([name, str(seed), variant, *(f"{k}={v}" for k, v in options.items())])
        yield label, parts, values


def record_moves(recorded, fitted):
    """What moved from ``recorded`` to ``fitted``, two {cell label: values}
    maps, as one line each: a cell only one of them holds, a changed
    ``error``, and each value of ``VALUE_KEYS`` but ``start`` that moved by
    more than ``RECORD_REL_TOL``.  ``start`` is not compared: OpenBLAS's
    kernels break ties between equally good starts differently."""
    lines = [f"cell {'only in the record' if label in recorded else 'not in the record'}: {label}"
             for label in sorted(recorded.keys() ^ fitted.keys())]
    for label, old in recorded.items():
        if label not in fitted:
            continue
        new = fitted[label]
        if old.get("error") != new.get("error"):
            lines.append(f"{label} error: {old.get('error')!r} -> {new.get('error')!r}")
        for key in VALUE_KEYS:
            move = _relative_move(old.get(key), new.get(key))
            if key != "start" and move > RECORD_REL_TOL:
                lines.append(f"{label} {key}: {old.get(key)!r} -> {new.get(key)!r} (relative {move:.2e})")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parts", action="store_true",
                        help="first print a short hash of each value per cell")
    parser.add_argument("--values", action="store_true",
                        help="first print each cell's values as JSON after its label and ' | '")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two --values outputs instead of fitting")
    args = parser.parse_args()
    if args.diff:
        diff(*args.diff)
        return
    start = time.perf_counter()
    h = hashlib.sha256()
    cells = 0
    for label, parts, values in grid(h):
        if args.parts:
            print(label, parts.line())
        if args.values:
            print(label, "|", json.dumps(values))
        cells += 1
    parts = _Parts(h)
    rng = np.random.default_rng(7)
    for _ in range(3000):
        G = int(rng.integers(1, 7))
        n = int(rng.integers(1, 40))
        truth, pred = (rng.integers(NOISE, G + 1, size=n) for _ in range(2))
        _misclassification(parts, truth, pred, G)
    if args.parts:
        print("random-labels", parts.line())
    print(h.hexdigest(), cells, f"{time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
