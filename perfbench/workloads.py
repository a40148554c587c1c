"""Workloads of the cwmix benchmark: seeded inputs, timed fit and scoring
phases, and the checks every output must pass.

A run fits the paper's ex4_s2 (d=1, G=3) and ex6_s2 (d=2, G=2) designs with
all six variants, then scores the fitted models on a held-out draw.  Each
fit cell is one (variant, design, data replicate); replicates are fresh
draws whose seeds derive from the workload seed.  Fit time depends on the
data through the iteration count, so a variant's fit time is its mean over
many replicates, not one draw.  See README.md for why each workload is
sized as it is.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from cwmix import datagen, em, metrics, model

DESIGNS = (("ex4_s2", 3), ("ex6_s2", 2))
VARIANTS = model.VARIANTS

#: Variants whose EM/GEM trace must never decrease.
MONOTONE_VARIANTS = ("gaussian_cwm", "fmg", "fmr", "fmrc")

#: Run length the replicate and pass counts below are sized for.
NOMINAL_SECONDS = 55

#: Independent set-ups per run; setup_s reports their median.
SETUP_REPEATS = 3

#: Single-start fits a cell may try before it counts as failed: the number of
#: starts a default FitConfig runs.
MAX_STARTS = em.FitConfig(G=1).n_starts

REL_TOL_CHECK = 1e-9
_HELDOUT_KEY = 2**31


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int  # group and noise counts of each design are multiplied by this
    max_iter: int
    rel_tol: float
    replicates: dict  # variant -> data replicates per run at NOMINAL_SECONDS
    heldout_scale: int
    score_passes: int  # held-out scoring passes per run at NOMINAL_SECONDS


# Replicate counts make each variant's mean fit time repeat within about a
# tenth between seeds: a variant needs about (1.5 * cv / 0.1)^2 draws, where
# cv is the spread of its per-draw fit time (Gaussian fits on ex4_s2 stop
# anywhere from 8 to 110 iterations, cv ~0.5; t fits mostly run to the cap,
# cv ~0.2).
WORKLOADS = {
    # The paper's grid at N=350 with the default max_iter and rel_tol.
    "paper_small": Workload(
        "paper_small", scale=1, max_iter=500, rel_tol=1e-8,
        replicates={"gaussian_cwm": 110, "t_cwm": 7, "fmg": 110, "fmt": 12,
                    "fmr": 80, "fmrc": 46},
        heldout_scale=10, score_passes=30,
    ),
    # N=3,500 per design: the numpy work of each iteration dominates, and a
    # run still fits enough draws per variant for a steady mean.
    "large_n": Workload(
        "large_n", scale=10, max_iter=150, rel_tol=1e-6,
        replicates={"gaussian_cwm": 25, "t_cwm": 10, "fmg": 25, "fmt": 12,
                    "fmr": 24, "fmrc": 14},
        heldout_scale=20, score_passes=16,
    ),
}


def scaled_count(nominal: int, seconds: float) -> int:
    return max(1, round(nominal * seconds / NOMINAL_SECONDS))


def derive_seed(*keys: int) -> int:
    """A 64-bit seed determined by the workload seed and the keys after it."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0])


def scaled_design(name: str, factor: int) -> datagen.ScenarioSpec:
    spec = datagen.builtin_scenario(name)
    if factor == 1:
        return spec
    groups = tuple(dataclasses.replace(g, n=g.n * factor) for g in spec.groups)
    noise = dataclasses.replace(spec.noise, count=spec.noise.count * factor)
    return dataclasses.replace(spec, groups=groups, noise=noise)


@dataclass
class Inputs:
    train: list  # per design: list of (seed, Dataset), one per replicate
    heldout: list  # per design: Dataset


def make_inputs(wl: Workload, seed: int, n_replicates: int) -> Inputs:
    train, heldout = [], []
    for di, (name, _) in enumerate(DESIGNS):
        spec = scaled_design(name, wl.scale)
        reps = []
        for r in range(n_replicates):
            s = derive_seed(seed, di, r)
            reps.append((s, datagen.generate(spec.with_seed(s))))
        train.append(reps)
        spec = scaled_design(name, wl.heldout_scale)
        heldout.append(datagen.generate(spec.with_seed(derive_seed(seed, di, _HELDOUT_KEY))))
    return Inputs(train, heldout)


def same_inputs(a: Inputs, b: Inputs) -> bool:
    pairs = [(x[1], y[1]) for ra, rb in zip(a.train, b.train) for x, y in zip(ra, rb)]
    pairs += list(zip(a.heldout, b.heldout))
    return all(np.array_equal(p.x, q.x) and np.array_equal(p.y, q.y)
               and np.array_equal(p.labels, q.labels) for p, q in pairs)


# ------------------------------------------------------------------ checks

def _rel_close(a: float, b: float, tol: float = REL_TOL_CHECK) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _finite_tree(doc) -> bool:
    if isinstance(doc, dict):
        return all(_finite_tree(v) for v in doc.values())
    if isinstance(doc, (list, tuple)):
        return all(_finite_tree(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


def check_fit(res, data, variant: str) -> list[str]:
    """Problems with one fit result; empty when every check passes."""
    problems = []
    trace = res.loglik_trace
    total = float(model.joint_logpdf(res.model, data.x, data.y).sum())
    if not _rel_close(total, float(trace[-1])):
        problems.append(f"joint_logpdf sum {total!r} != final loglik {trace[-1]!r}")
    if np.max(np.abs(res.responsibilities.sum(axis=1) - 1.0)) > REL_TOL_CHECK:
        problems.append("responsibility rows do not sum to 1")
    if not _finite_tree(model.model_to_dict(res.model)):
        problems.append("non-finite parameter")
    if variant in MONOTONE_VARIANTS:
        drop = trace[:-1] - trace[1:]
        if np.any(drop > REL_TOL_CHECK * np.maximum(1.0, np.abs(trace[:-1]))):
            problems.append("log-likelihood trace decreased")
    return problems


# ------------------------------------------------------------------ phases

@dataclass
class Cell:
    variant: str
    design: int
    replicate: int
    seconds: float = math.nan
    loglik_per_obs: float = math.nan
    misclass: float = math.nan
    converged: bool = False
    n_iter: int = 0
    starts: int = 0
    result: object = None
    problems: list = dataclasses.field(default_factory=list)


@dataclass
class Phase:
    cells: list
    passes: list  # seconds of each scoring pass
    score_problems: list
    score_attempted: int
    wall_s: float


def fit_schedule(replicates: dict) -> list[tuple[str, int]]:
    """(variant, replicate) in an order that spreads each variant's fits
    evenly over the run, so a stretch of machine load hits every variant alike."""
    keys = [((r + 0.5) / n, VARIANTS.index(v), v, r)
            for v, n in replicates.items() for r in range(n)]
    return [(v, r) for *_, v, r in sorted(keys)]


def fit_cells(wl: Workload, inputs: Inputs, variant: str, r: int) -> list[Cell]:
    """Fit replicate r of every design with one start.  A start that
    degenerates raises DegenerateFitError; the cell then tries the next
    start, as fit() itself does across its n_starts, and its time includes
    the failed starts."""
    cells = []
    for di, (_, G) in enumerate(DESIGNS):
        seed, data = inputs.train[di][r]
        cell = Cell(variant, di, r)
        cells.append(cell)
        t0 = time.perf_counter()
        try:
            while cell.result is None:
                config = em.FitConfig(G=G, variant=variant, seed=(seed + cell.starts) % 2**64,
                                      n_starts=1, max_iter=wl.max_iter, rel_tol=wl.rel_tol)
                cell.starts += 1
                try:
                    cell.result = em.fit(data, config)
                except em.DegenerateFitError:
                    if cell.starts == MAX_STARTS:
                        raise
        except Exception as exc:  # a failed fit is counted, not fatal
            cell.problems.append(f"fit raised {type(exc).__name__}: {exc}")
            continue
        cell.seconds = time.perf_counter() - t0
    return cells


def check_cells(cells: list[Cell], inputs: Inputs) -> None:
    """Output checks and quality figures, outside the timed region."""
    for cell in cells:
        res = cell.result
        if res is None:
            continue
        data = inputs.train[cell.design][cell.replicate][1]
        G = DESIGNS[cell.design][1]
        try:
            cell.problems += check_fit(res, data, cell.variant)
            eta, _, _ = metrics.misclassification(data.labels, model.classify(res.model, data), G)
        except Exception as exc:
            cell.problems.append(f"check raised {type(exc).__name__}: {exc}")
            continue
        cell.loglik_per_obs = float(res.loglik_trace[-1]) / data.n
        cell.misclass = float(eta)
        cell.converged = bool(res.converged)
        cell.n_iter = int(res.n_iter)
    # the paper's nesting result: FMG is Gaussian CWM, fit for fit
    by_key = {(c.variant, c.design, c.replicate): c for c in cells}
    for (variant, di, r), fmg_cell in by_key.items():
        cwm_cell = by_key.get(("gaussian_cwm", di, r))
        if (variant != "fmg" or cwm_cell is None or fmg_cell.result is None
                or cwm_cell.result is None or fmg_cell.starts != cwm_cell.starts):
            continue
        a = float(fmg_cell.result.loglik_trace[-1])
        b = float(cwm_cell.result.loglik_trace[-1])
        if not _rel_close(a, b):
            fmg_cell.problems.append(f"fmg loglik {a!r} != gaussian_cwm loglik {b!r}")


def score_pass(models: list, inputs: Inputs) -> list:
    """One held-out scoring pass over every fitted model; returns the outputs."""
    out = []
    for (variant, di), fitted in models:
        data = inputs.heldout[di]
        G = DESIGNS[di][1]
        labels = model.classify(fitted, data)
        loglik = model.joint_logpdf(fitted, data.x, data.y)
        eta, _, _ = metrics.misclassification(data.labels, labels, G)
        wilks = metrics.wilks_lambda(data, labels)
        fit_index = metrics.iwf(data, fitted)
        out.append((labels, loglik, eta, wilks, fit_index))
    return out


def check_scores(models: list, inputs: Inputs, outputs: list) -> list[str]:
    problems = []
    for ((variant, di), _), (labels, loglik, eta, wilks, fit_index) in zip(models, outputs):
        G = DESIGNS[di][1]
        where = f"{variant} on {DESIGNS[di][0]}"
        if labels.shape != (inputs.heldout[di].n,) or labels.min() < 1 or labels.max() > G:
            problems.append(f"{where}: labels out of range")
        if not np.all(np.isfinite(loglik)):
            problems.append(f"{where}: non-finite held-out log-density")
        if not (0.0 <= eta <= 1.0 and 0.0 <= wilks <= 1.0):
            problems.append(f"{where}: misclassification or Wilks lambda out of [0, 1]")
        if not (math.isfinite(fit_index) and fit_index >= 0.0):
            problems.append(f"{where}: invalid IWF")
    return problems


def run_phase(wl: Workload, inputs: Inputs, replicates: dict, passes: int) -> Phase:
    """Every fit cell, with the held-out scoring passes spread among them
    once each variant's replicate-0 models exist; they are the ones scored."""
    schedule = fit_schedule(replicates)
    first = max(i for i, (_, r) in enumerate(schedule) if r == 0) + 1
    due = [first + (p * (len(schedule) - first)) // passes for p in range(passes)]
    cells, models, times, problems, reference = [], [], [], [], None
    t0 = time.perf_counter()
    for i, (variant, r) in enumerate(schedule, start=1):
        new = fit_cells(wl, inputs, variant, r)
        cells += new
        if r == 0:
            models += [((c.variant, c.design), c.result.model) for c in new if c.result is not None]
        for _ in range(due.count(i)):
            start = time.perf_counter()
            try:
                outputs = score_pass(models, inputs)
            except Exception as exc:
                problems.append(f"scoring raised {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
            if reference is None:
                reference = outputs
                problems += check_scores(models, inputs, outputs)
            elif not _same_outputs(reference, outputs):
                problems.append("held-out scores differ between passes")
    wall = time.perf_counter() - t0
    return Phase(cells, times, problems, passes * len(models), wall)


def _same_outputs(a, b) -> bool:
    return all(np.array_equal(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# ------------------------------------------------------------------ summary

def failures(phase: Phase) -> int:
    return sum(1 for c in phase.cells if c.problems) + len(phase.score_problems)


def attempted(phase: Phase) -> int:
    return len(phase.cells) + phase.score_attempted


def variant_mean(cells: list[Cell], field: str) -> float:
    """Mean over variants of each variant's mean over its successful cells."""
    per_variant = []
    for v in VARIANTS:
        values = [getattr(c, field) for c in cells if c.variant == v and not c.problems]
        if values:
            per_variant.append(statistics.fmean(values))
    return statistics.fmean(per_variant) if per_variant else math.nan


def fit_seconds(cells: list[Cell], variant: str) -> float:
    """Mean over replicates of the variant's fit seconds summed over designs."""
    per_rep = {}
    for c in cells:
        if c.variant == variant:
            per_rep.setdefault(c.replicate, []).append(c)
    sums = [sum(c.seconds for c in cs) for cs in per_rep.values()
            if len(cs) == len(DESIGNS) and not any(c.problems for c in cs)]
    return statistics.fmean(sums) if sums else math.nan


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> dict:
    m = {"setup_s": (setup_s, "s")}
    for v in VARIANTS:
        m[f"fit_s.{v}"] = (fit_seconds(phase.cells, v), "s")
    m["score_s"] = (statistics.median(phase.passes) if phase.passes else math.nan, "s")
    m["loglik_per_obs"] = (variant_mean(phase.cells, "loglik_per_obs"), "nat")
    m["misclass_rate"] = (variant_mean(phase.cells, "misclass"), "ratio")
    m["converged_frac"] = (variant_mean(phase.cells, "converged"), "ratio")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    return m


def variant_table(cells: list[Cell]) -> list[dict]:
    """Per-variant summary printed beside the result: cells, iterations, how
    many fits stopped at the iteration cap and how many starts degenerated."""
    rows = []
    for v in VARIANTS:
        ok = [c for c in cells if c.variant == v and not c.problems]
        if not ok:
            continue
        rows.append({
            "variant": v,
            "cells": len(ok),
            "mean_iter": round(statistics.fmean(c.n_iter for c in ok), 1),
            "max_iter_hits": sum(1 for c in ok if not c.converged),
            "degenerate_starts": sum(c.starts - 1 for c in ok),
            "loglik_per_obs": round(statistics.fmean(c.loglik_per_obs for c in ok), 6),
            "misclass": round(statistics.fmean(c.misclass for c in ok), 4),
        })
    return rows
