"""distvar benchmark: Monte Carlo throughput, solve latency and exact tables.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc-generic --seed 0 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):
  mc-generic      run_experiment on generic noise-free scenes
  solve-sideways  closed loop of single solve calls, close-to-sideways scenes
  exact-tables    degree table, two-parameter ideals, four-parameter Cayley ideal

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced rerun of a
fixed amount of work, and the spans go to .bench_out/.  Earlier lines hold
the environment and a detailed report.  Exit code 0 means every output
check passed, 1 that one failed, 2 that the command could not run.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in children.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse                                       # noqa: E402
import importlib                                      # noqa: E402
import json                                           # noqa: E402
import platform                                       # noqa: E402
import resource                                       # noqa: E402
import subprocess                                     # noqa: E402
import sys                                            # noqa: E402
from statistics import median                         # noqa: E402
from types import SimpleNamespace                     # noqa: E402

import numpy as np                                    # noqa: E402

from spans import Tracer, summarize                   # noqa: E402
from workloads import WORKLOADS                       # noqa: E402

LAYERS = ("polycore", "groebner", "geometry", "models", "solver", "simulate")

#: (layer, function) pairs the traced run wraps.  polycore is left out: its
#: calls are per coefficient, so its time shows as its callers' self time.
TRACED = {
    "simulate": ("run_experiment", "generate_trial"),
    "solver": ("solve", "coefficient_matrix", "nullspace_basis",
               "build_template"),
    "models": ("model_ideal", "focal_from_matrix"),
    "geometry": ("distortion_degree", "multi_distortion_generators",
                 "cayley_ideal"),
    "groebner": ("buchberger", "eliminate", "toric_ideal", "dim_degree",
                 "initial_ideal", "hilbert_dim_degree", "saturate_variable"),
}

#: Per-layer metrics printed by the traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("solver.solve_calls", "count"), ("solver.solve_s", "s"),
    ("solver.solve_self_s", "s"), ("solver.coefficient_matrix_s", "s"),
    ("solver.nullspace_basis_s", "s"), ("models.focal_from_matrix_s", "s"),
    ("solver.build_template_s", "s"), ("solver.residual_fail", "count"),
    ("solver.self_s", "s"),
    ("simulate.run_experiment_s", "s"), ("simulate.generate_trial_s", "s"),
    ("simulate.self_s", "s"),
    ("groebner.buchberger_calls", "count"), ("groebner.buchberger_s", "s"),
    ("groebner.basis_elements", "count"), ("groebner.toric_ideal_s", "s"),
    ("groebner.eliminate_s", "s"), ("groebner.dim_degree_s", "s"),
    ("groebner.initial_ideal_s", "s"), ("groebner.hilbert_dim_degree_s", "s"),
    ("groebner.saturate_variable_s", "s"), ("groebner.self_s", "s"),
    ("geometry.distortion_degree_s", "s"),
    ("geometry.distortion_degree_self_s", "s"),
    ("geometry.multi_distortion_generators_s", "s"),
    ("geometry.multi_distortion_generators_self_s", "s"),
    ("geometry.cayley_ideal_s", "s"), ("geometry.cayley_ideal_self_s", "s"),
    ("geometry.self_s", "s"),
    ("models.model_ideal_s", "s"), ("models.self_s", "s"),
    ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)

SETUP_REPEATS = 7
SETUP_CODE = """
import time
t0 = time.perf_counter()
from distvar import geometry, groebner, models, simulate, solver
solver.build_template(validate=True)
print(time.perf_counter() - t0)
"""


class UsageError(RuntimeError):
    pass


def load_api(src: str) -> SimpleNamespace:
    """Import the package from ``src`` and refuse any other copy."""
    if not os.path.isfile(os.path.join(src, "distvar", "__init__.py")):
        raise UsageError(f"no distvar sources under {src}; run from the root "
                         "of a source checkout")
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"distvar.{name}") for name in LAYERS}
    where = os.path.dirname(os.path.abspath(mods["solver"].__file__))
    if where != os.path.join(src, "distvar"):
        raise UsageError(f"imported distvar from {where}, not from {src}")
    return SimpleNamespace(**mods)


def measure_setup(src: str) -> list[float]:
    """Import plus ``build_template(validate=True)`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"blas": deps.get("name"), "blas_version": deps.get("version")}
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples) * 1e3, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_tracer(api) -> Tracer:
    targets = [(getattr(api, layer), fn, f"{layer}.{fn}")
               for layer, fns in TRACED.items() for fn in fns]

    def count_basis(tracer, gb):
        tracer.counts["groebner.basis_elements"] += len(gb.elements)

    return Tracer(targets, [getattr(api, m) for m in LAYERS],
                  on_result={"groebner.buchberger": count_basis})


def per_layer_metrics(tracer, run, untraced_s: float) -> dict:
    values = summarize(tracer.spans)
    values["groebner.basis_elements"] = tracer.counts["groebner.basis_elements"]
    values["solver.residual_fail"] = run.residual_failures
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = run.busy_s
    values["trace.overhead_s"] = run.busy_s - untraced_s
    values["trace.spans"] = len(tracer.spans)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        api = load_api(src)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment()), flush=True)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        report["setup_s_samples"] = measure_setup(src)
    tmpl = api.solver.build_template(validate=True)
    workload = WORKLOADS[args.workload](api, args.seed, tmpl, args.seconds)
    workload.warm()

    if args.trace:
        # untraced, traced, untraced: the mean of the outer two runs
        # cancels drift when taking the tracing overhead.  Together the
        # three take about --seconds.
        units = max(1, round(args.seconds * workload.nominal_units_per_s / 3))
        before = workload.run(units=units)
        tracer = make_tracer(api)
        with tracer:
            api.solver.build_template(validate=True)
            run = workload.run(units=units)
        after = workload.run(units=units)
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        spans_path = os.path.join(
            root, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, root)
        untraced_s = (before.busy_s + after.busy_s) / 2
        metrics = per_layer_metrics(tracer, run, untraced_s)
    else:
        run = workload.run(seconds=args.seconds)
        metrics = {
            "setup_s": {"value": median(report["setup_s_samples"]), "unit": "s"},
            "ops_per_s": {"value": run.ops / run.busy_s, "unit": "1/s"},
            "op_p50_ms": {"value": percentile_ms(run.op_seconds, 50), "unit": "ms"},
            "op_p95_ms": {"value": percentile_ms(run.op_seconds, 95), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    outcome = workload.finish()
    report.update(run.details, **outcome.details)
    report.update(ops=run.ops, samples=len(run.op_seconds), busy_s=run.busy_s,
                  inputs=workload.n_inputs, attempted=outcome.attempted,
                  failed=outcome.failed,
                  failed_frac=outcome.failed / outcome.attempted,
                  errors=outcome.errors)
    print("# report " + json.dumps(report), flush=True)
    for err in outcome.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not outcome.errors,
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}), flush=True)
    return 0 if not outcome.errors else 1


if __name__ == "__main__":
    sys.exit(main())
