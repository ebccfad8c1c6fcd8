"""Command line interface.

Subcommands:
  model     print a camera model's invariants and generators
  distort   distortion ideal generators for a model or file ideal
  degree    distortion degree (or bound) of a model or file ideal
  cayley    multi-parameter Cayley data for a configuration
  solve     run the f+E+lambda minimal solver on correspondences
  template  build and validate the elimination template (a self-check)
  simulate  Monte Carlo experiment over synthetic scenes

Each subcommand takes only the flags it reads: --prime (the working
prime field) for model, distort and degree; --max-pairs (the Buchberger
pair budget) for distort and degree; --seed for simulate; --json for all.

--config takes every configuration that models.model_config offers:
u_both and v_right (one distortion parameter) and two_param and
four_param (several).  distort and degree run a multi-parameter
configuration through the eliminate route; degree then reports its
(dimension, degree), and degree --bound, which has a formula only for
one parameter, exits 1.  cayley takes a one-parameter configuration as
the Cayley configuration with r = 1.

Model ideals and --ideal files are read over Q and mapped into F_p;
a prime that kills a nonzero coefficient (p = 2 for E) exits 1 rather
than compute with another variety.

Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .polycore import (DEFAULT_PRIME, GF, RATIONAL, default_names,
                       format_polynomial, parse_polynomial)
from .groebner import BudgetError, DEFAULT_MAX_PAIRS, Ideal, dim_degree
from .geometry import (DistortionVector, MultiParamConfig, cayley_ideal,
                       cayley_parametrization, degree_bound, distortion_degree,
                       distortion_ideal_generators, iterated_decomposition,
                       multi_distortion_generators, scroll_names)
from .models import (MODEL_DIM_DEGREE, ModelId, VAR_NAMES, model_config,
                     model_ideal)
from .solver import (Correspondence, DegenerateDataError, TemplateError,
                     build_template, count_real, solve)
from .simulate import SceneConfig, run_experiment

DEFAULT_SEED = 0


class ComputationError(RuntimeError):
    pass


def _parse_u(text: str) -> DistortionVector:
    try:
        return DistortionVector(tuple(int(x) for x in text.split(",")))
    except (ValueError, TypeError) as exc:
        raise ComputationError(f"bad distortion vector {text!r}: {exc}")


def _load_ideal(path: str, nvars: int, prime: int) -> Ideal:
    """The file's polynomials, read over Q and mapped into F_prime."""
    gens = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    gens.append(parse_polynomial(line, nvars, RATIONAL))
    except OSError as exc:
        raise ComputationError(str(exc))
    if not gens:
        raise ComputationError(f"no polynomials found in {path}")
    return Ideal(gens, nvars, RATIONAL).over(GF(prime))


def _model_or_file(args, prime: int):
    if args.model:
        ideal = model_ideal(ModelId(args.model), GF(prime))
        names = VAR_NAMES
        if args.config:
            u = model_config(ModelId(args.model), args.config)
        elif args.u:
            u = _parse_u(args.u)
        else:
            raise ComputationError("need --config or --u with --model")
    else:
        if not args.u:
            raise ComputationError("need --u with --ideal")
        u = _parse_u(args.u)
        ideal = _load_ideal(args.ideal, u.n + 1, prime)
        names = default_names(u.n + 1)
    return ideal, u, names


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_model(args) -> dict:
    model = ModelId(args.model)
    ideal = model_ideal(model, GF(args.prime))
    dim, deg = MODEL_DIM_DEGREE[model]
    return {
        "model": model.value,
        "dimension": dim,
        "degree": deg,
        "generators": [format_polynomial(g, VAR_NAMES)
                       for g in ideal.generators],
    }


def cmd_distort(args) -> dict:
    ideal, u, names = _model_or_file(args, args.prime)
    if isinstance(u, MultiParamConfig):
        J = multi_distortion_generators(ideal, u, "eliminate", args.max_pairs)
        report = {"r": u.r}
        out_names = default_names(J.nvars)
    else:
        J = distortion_ideal_generators(ideal, u, max_pairs=args.max_pairs)
        report = {"u": list(u.entries)}
        out_names = scroll_names(u, names)
    gens = J.generators
    by_degree: dict[int, int] = {}
    for g in gens:
        by_degree[g.total_degree()] = by_degree.get(g.total_degree(), 0) + 1
    report["n_generators"] = len(gens)
    report["count_by_degree"] = {str(k): v for k, v in sorted(by_degree.items())}
    if args.gens:
        report["generators"] = [format_polynomial(g, out_names) for g in gens]
    return report


def cmd_degree(args) -> dict:
    ideal, u, _ = _model_or_file(args, args.prime)
    if isinstance(u, MultiParamConfig):
        if args.bound:
            raise ComputationError(f"no degree bound for {u.r} distortion "
                                   "parameters, only for one")
        J = multi_distortion_generators(ideal, u, "eliminate", args.max_pairs)
        dim, deg = dim_degree(J, max_pairs=args.max_pairs)
        return {"r": u.r, "dimension": dim, "degree": deg}
    report = {"u": list(u.entries)}
    if args.bound:
        dim, deg = dim_degree(ideal, max_pairs=args.max_pairs)
        codim = ideal.nvars - 1 - dim
        report["bound"] = degree_bound(deg, codim, u)
    else:
        report["degree"] = distortion_degree(ideal, u, max_pairs=args.max_pairs)
    return report


def cmd_cayley(args) -> dict:
    if not args.model or not args.config:
        raise ComputationError("cayley needs --model and --config")
    cfg = model_config(ModelId(args.model), args.config)
    if isinstance(cfg, DistortionVector):
        cfg = MultiParamConfig.from_distortion_vector(cfg)
    A = cayley_parametrization(cfg)
    report = {"r": cfg.r, "exponent_matrix": [list(row) for row in A]}
    if args.gens:
        I = cayley_ideal(cfg)
        names = default_names(I.nvars)
        report["generators"] = [format_polynomial(g, names)
                                for g in I.generators]
    if cfg.r == 2:
        vw = iterated_decomposition(cfg)
        if vw is not None:
            v, w = vw
            report["iterated"] = {"v": list(v), "w": [list(x) for x in w]}
    return report


def _load_correspondences(path: str) -> list[Correspondence]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ComputationError(f"cannot read correspondences: {exc}")
    try:
        return [Correspondence(tuple(d["U1"]), tuple(d["U2"])) for d in data]
    except (KeyError, TypeError) as exc:
        raise ComputationError(f"bad correspondence record: {exc}")


def cmd_solve(args) -> dict:
    corrs = _load_correspondences(args.corrs)
    cands = solve(corrs, build_template())
    n_real, n_f = count_real(cands)
    out = []
    for c in cands:
        rec = {"gamma": [[g.real, g.imag] for g in c.gamma],
               "residual": c.residual, "is_real": c.is_real}
        if c.is_real:
            rec["lambda"] = c.lam
            rec["f_squared"] = c.f_squared
            rec["F"] = c.F.tolist()
        out.append(rec)
    return {"n_candidates": len(cands), "n_real": n_real,
            "n_real_f": n_f, "candidates": out}


def cmd_template(args) -> dict:
    tmpl = build_template()
    return {"rows": tmpl.n_rows, "cols": tmpl.n_cols,
            "basis_size": len(tmpl.basis)}


def cmd_simulate(args) -> dict:
    cfg = SceneConfig(n_trials=args.trials, noise_sigma_px=args.noise,
                      motion=args.motion, seed=args.seed)
    stats = run_experiment(cfg)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(stats.to_json())
    if args.csv:
        stats.write_csv(args.csv)
    return json.loads(stats.to_json())


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

#: flags shared by several subcommands
_SHARED_FLAGS = {
    "--prime": dict(type=int, default=DEFAULT_PRIME),
    "--max-pairs": dict(type=int, default=DEFAULT_MAX_PAIRS),
    "--model": dict(choices=[m.value for m in ModelId], default=None),
    "--config": dict(default=None),
    "--ideal": dict(default=None),
    "--u": dict(default=None),
    "--gens": dict(action="store_true"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="distvar", description=__doc__)
    ap.add_argument("--version", action="version",
                    version=f"distvar {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *flags):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true")
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    source = ("--model", "--config", "--ideal", "--u", "--prime", "--max-pairs")
    command("model", cmd_model, "camera model info", "--model", "--prime")
    command("distort", cmd_distort, "distortion ideal generators",
            *source, "--gens")
    p = command("degree", cmd_degree, "distortion degree or bound", *source)
    p.add_argument("--bound", action="store_true")
    command("cayley", cmd_cayley, "multi-parameter Cayley data",
            "--model", "--config", "--gens")
    p = command("solve", cmd_solve, "run the minimal solver")
    p.add_argument("--corrs", required=True)
    command("template", cmd_template, "build and validate the template")
    p = command("simulate", cmd_simulate, "Monte Carlo experiment")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--motion", choices=["generic", "sideways"],
                   default="generic")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    return ap


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], str):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report = args.fn(args)
    except (ComputationError, BudgetError, DegenerateDataError,
            TemplateError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _print_report(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
