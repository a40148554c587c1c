"""Benchmark of the cwmix package.

    python3 perfbench/run.py --workload paper_small --seed 1 --seconds 30 --trace 0

Run from the repository root.  Everything runs in this one process, closed
loop, one call at a time, with OpenBLAS pinned to one thread.  ``--seconds``
is the nominal run length: the replicate and pass counts in workloads.py are
sized for ``NOMINAL_SECONDS`` and scale with it.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
half the replicates are run untraced and then again traced, and the metrics
are the per-layer ones.  Lines before it give provenance and a per-variant table.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS thread, as the measurements assume.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be a non-negative 63-bit integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import cwmix from this checkout's sources, never from elsewhere."""
    if not (SRC / "cwmix" / "__init__.py").is_file():
        sys.exit(f"error: no cwmix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import cwmix
    if SRC.resolve() not in Path(cwmix.__file__).resolve().parents:
        sys.exit(f"error: cwmix imported from {cwmix.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (imports numpy and every cwmix module)


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Threads the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args, replicates, passes) -> dict:
    import numpy as np

    import workloads
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "replicates_per_variant": replicates,
        "designs": [name for name, _ in workloads.DESIGNS],
        "score_passes": passes,
        "setup_repeats": workloads.SETUP_REPEATS,
    }


def warm_up() -> None:
    """Compile and cache every code path once on a tiny input before timing."""
    from cwmix import datagen, em

    import workloads
    spec = workloads.scaled_design("ex4_s2", 1).with_seed(1)
    data = datagen.generate(spec)
    for variant in workloads.VARIANTS:
        res = em.fit(data, em.FitConfig(G=3, variant=variant, n_starts=1, max_iter=3))
        workloads.score_pass([((variant, 0), res.model)], workloads.Inputs([], [data]))


def measure_setup(wl, seed, n_rep, repeats):
    import workloads
    times, inputs = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs.append(workloads.make_inputs(wl, seed, n_rep))
        times.append(time.perf_counter() - t0)
    same = all(workloads.same_inputs(inputs[0], other) for other in inputs[1:])
    return inputs[0], statistics.median(times), same


def per_layer(tracer, untraced, traced) -> dict:
    totals = tracer.layer_totals()
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for layer in ("em.solve_dof", "densities.cholesky_lower", "densities.solve_spd",
                  "em.fit_gating", "em.initialize"):
        if layer in totals:
            put(f"{layer}.calls", totals[layer][0], "count")
            put(f"{layer}.self_s", totals[layer][1], "s")
    for layer in ("em.estep", "em.log_sum_exp", "em.latent_weights", "em.m_step",
                  "em.weighted_ls", "model.posterior", "model.joint_logpdf",
                  "model.classify", "densities.gaussian_logpdf", "densities.student_logpdf",
                  "densities.mahalanobis_sq", "metrics.misclassification", "metrics.iwf",
                  "metrics.wilks_lambda", "datagen.generate"):
        if layer in totals:
            put(f"{layer}.self_s", totals[layer][1], "s")
    if "em.fit_gating" in totals:
        put("em.fit_gating.log_sum_exp_calls", totals["em.fit_gating.log_sum_exp_calls"], "count")
    if "em.digamma" not in tracer.missing_layers:
        put("em.digamma.calls", tracer.counts["em.digamma"], "count")
    if "em.estimate_dof" not in tracer.missing_layers:
        put("em.estimate_dof.bracket_hits", tracer.events["em.estimate_dof.bracket_hits"], "count")
    if "em.estep" in totals:
        iterations = totals["em.estep"][0]
        fit_seconds = sum(c.seconds for c in untraced.cells if c.result is not None)
        put("em.iterations", iterations, "count")
        put("em.iter_s", fit_seconds / iterations, "s")
    if "em.regularize_cov" in totals:
        put("em.regularize_cov.calls", totals["em.regularize_cov"][0], "count")
        put("em.regularize_cov.ridged", tracer.events["em.regularize_cov.ridged"], "count")
    if "em.run_start" in totals:
        put("em.starts", totals["em.run_start"][0], "count")
        put("em.starts_failed", tracer.events["em.starts_failed"], "count")
    if "datagen.generate" in totals:
        put("datagen.generate.points", tracer.events["datagen.generate.points"], "count")
    put("trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - t0

    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    # a traced run makes half the fits twice: untraced, then traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    replicates = {v: workloads.scaled_count(n, seconds) for v, n in wl.replicates.items()}
    passes = workloads.scaled_count(wl.score_passes, seconds)

    # setup_s is reported by untraced runs only; a traced run sets up once
    repeats = 1 if args.trace else workloads.SETUP_REPEATS
    inputs, gen_s, same = measure_setup(wl, args.seed, max(replicates.values()), repeats)
    setup_s = import_s + gen_s
    warm_up()
    phase = workloads.run_phase(wl, inputs, replicates, passes)
    workloads.check_cells(phase.cells, inputs)
    problems = [] if same else ["repeated set-ups drew different inputs"]
    problems += [f"{c.variant} {workloads.DESIGNS[c.design][0]} replicate {c.replicate}: {p}"
                 for c in phase.cells for p in c.problems] + phase.score_problems
    attempted = workloads.attempted(phase)
    failed = workloads.failures(phase) + (0 if same else 1)

    if args.trace:
        with Tracer() as tracer:
            traced_inputs = workloads.make_inputs(wl, args.seed, max(replicates.values()))
            traced = workloads.run_phase(wl, traced_inputs, replicates, passes)
        mismatched = [
            (a.variant, a.design, a.replicate) for a, b in zip(phase.cells, traced.cells)
            if (a.result is None) != (b.result is None) or (
                a.result is not None
                and not (a.result.loglik_trace[-1] == b.result.loglik_trace[-1]))]
        if not workloads.same_inputs(inputs, traced_inputs) or mismatched:
            problems.append(f"traced run differs from untraced run: {mismatched[:5]}")
            failed += 1
        attempted += workloads.attempted(traced)
        failed += workloads.failures(traced)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        m = per_layer(tracer, phase, traced)
        if tracer.missing:
            print("missing layers:", json.dumps(sorted(tracer.missing)))
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        m = workloads.end_to_end(phase, setup_s, peak_rss_mb)

    for p in problems[:20]:
        print("check failed:", p, file=sys.stderr)
    print("provenance", json.dumps(provenance(args, replicates, passes)))
    for row in workloads.variant_table(phase.cells):
        print("variant", json.dumps(row))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in m.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
