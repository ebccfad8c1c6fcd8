"""The three benchmark workloads.

Each workload calls the package only through module attributes
(``api.simulate.run_experiment`` and so on), so the tracer's
replacements are seen.

A workload has a fixed set of inputs, made from the seed.  ``run``
measures either for ``seconds`` or for a fixed number of units, cycling
through the inputs, and returns the timing as a ``Run``.  The first
evaluation of each input is kept; ``finish`` evaluates any input the
timed runs did not reach, untimed, and checks the kept results.  So
``attempted``, ``failed`` and the checks depend on the seed alone, not
on how many units fitted into the measured time.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import references as ref

MODELS = ("F", "E", "G", "Gprime", "Gdoubleprime")

#: Share of ``--seconds`` that one pass over the inputs fills at the
#: nominal rate, so that the timed run normally reaches every input.
INPUT_SHARE = 0.8


@dataclass
class Run:
    """Timing of one measurement."""
    op_seconds: list[float] = field(default_factory=list)  # one per operation
    ops: int = 0
    busy_s: float = 0.0          # sum of the timed intervals
    residual_failures: int = 0   # over every solve timed, repeats included
    details: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Checked results over the workload's inputs."""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _loop(unit, seconds=None, units=None) -> float:
    """Call ``unit(i)`` (which returns its own timed seconds) until
    ``seconds`` of wall time have passed or ``units`` calls are done."""
    busy = 0.0
    i = 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    while (i < units) if units is not None else (time.perf_counter() < deadline):
        busy += unit(i)
        i += 1
    return busy


class SolveCheck:
    """Candidate count and worst-residual bookkeeping for each solve."""

    def __init__(self):
        self.counts = Counter()
        self.residual_failures = 0
        self.worst = 0.0

    def record(self, cands) -> None:
        self.counts[len(cands)] += 1
        worst = max((c.residual for c in cands), default=math.inf)
        self.worst = max(self.worst, worst)
        if not worst <= ref.RESIDUAL_LIMIT:       # NaN fails too
            self.residual_failures += 1

    def add(self, other: SolveCheck) -> None:
        self.counts += other.counts
        self.residual_failures += other.residual_failures
        self.worst = max(self.worst, other.worst)


def best_log10_errors(cands, f_true: float, lam_true: float):
    """log10 relative errors of the real candidate closest to the truth."""
    best = None
    for c in cands:
        if not c.f_real:
            continue
        f = math.sqrt(c.f_squared)
        rel_f = abs(f - f_true) / f_true
        rel_l = abs(c.lam - lam_true) / max(abs(lam_true), 1e-12)
        if best is None or rel_f + rel_l < best[0] + best[1]:
            best = (rel_f, rel_l)
    if best is None:
        return math.nan, math.nan
    return (math.log10(max(best[1], 1e-300)), math.log10(max(best[0], 1e-300)))


class Workload:
    #: units per second on a 2-core reference machine; sizes the input set
    #: and the fixed amount of work a traced run repeats
    nominal_units_per_s: float
    #: fewest inputs whose results the checks can judge
    min_inputs = 1

    def __init__(self, api, seed: int, tmpl, seconds: float):
        self.api, self.seed, self.tmpl = api, seed, tmpl
        self.n_inputs = max(self.min_inputs, int(
            seconds * self.nominal_units_per_s * INPUT_SHARE))
        self.results = {}         # input index -> its first result

    def evaluate(self, k: int, out: Run):
        """Run input ``k``, add its timing to ``out`` and return
        (timed seconds, result to check)."""
        raise NotImplementedError

    def check(self, results: list) -> Outcome:
        raise NotImplementedError

    def run(self, seconds=None, units=None) -> Run:
        out = Run()

        def unit(i):
            k = i % self.n_inputs
            dt, result = self.evaluate(k, out)
            self.results.setdefault(k, result)
            return dt

        out.busy_s = _loop(unit, seconds, units)
        return out

    def finish(self) -> Outcome:
        """Evaluate the inputs no timed run reached, then check them all."""
        for k in range(self.n_inputs):
            if k not in self.results:
                self.results[k] = self.evaluate(k, Run())[1]
        return self.check([self.results[k] for k in range(self.n_inputs)])


class McGeneric(Workload):
    """``run_experiment`` on generic noise-free scenes; an input is a batch."""

    name = "mc-generic"
    batch = 100                   # trials per run_experiment call
    nominal_units_per_s = 3.5     # batches
    min_inputs = 10               # the real-root statistics need 1000 trials

    def warm(self) -> None:
        sim = self.api.simulate
        sim.run_experiment(sim.SceneConfig(n_trials=5, seed=self.seed), self.tmpl)

    def evaluate(self, k: int, out: Run):
        sim, solver = self.api.simulate, self.api.solver
        check = SolveCheck()

        def checked_solve(*args, **kwargs):
            cands = solver.solve(*args, **kwargs)
            check.record(cands)
            return cands

        cfg = sim.SceneConfig(n_trials=self.batch, seed=self.seed * 100_000 + k)
        original = sim.solve
        sim.solve = checked_solve
        try:
            t0 = time.perf_counter()
            stats = sim.run_experiment(cfg, self.tmpl)
            dt = time.perf_counter() - t0
        finally:
            sim.solve = original
        out.op_seconds.append(dt / self.batch)
        out.ops += self.batch
        out.residual_failures += check.residual_failures
        return dt, (stats, check)

    def check(self, results: list) -> Outcome:
        hist = [0] * (ref.N_CANDIDATES + 1)
        errs_l, errs_f = [], []
        solves = SolveCheck()
        raised = 0
        for stats, check in results:
            for k, c in enumerate(stats.hist_real_variety):
                hist[k] += c
            errs_l.extend(stats.log10_err_lambda)
            errs_f.extend(stats.log10_err_f)
            raised += stats.n_failures
            solves.add(check)
        total = sum(hist)
        return Outcome(
            attempted=len(results) * self.batch,
            failed=raised + solves.residual_failures,
            errors=(ref.check_monte_carlo(hist, errs_l, errs_f)
                    + ref.check_candidate_counts(solves.counts)),
            details={
                "trials": len(results) * self.batch, "raised": raised,
                "residual_failures": solves.residual_failures,
                "worst_residual": solves.worst,
                "mean_real_roots": sum(k * c for k, c in enumerate(hist)) / total
                if total else None,
                "hist_real_roots": hist,
                "median_log10_err_lambda": float(np.median(errs_l))
                if errs_l else None,
                "median_log10_err_f": float(np.median(errs_f))
                if errs_f else None,
            })


class SolveSideways(Workload):
    """Closed loop of single ``solve`` calls on close-to-sideways scenes."""

    name = "solve-sideways"
    nominal_units_per_s = 360.0   # solves

    def __init__(self, api, seed: int, tmpl, seconds: float):
        super().__init__(api, seed, tmpl, seconds)
        sim = api.simulate
        cfg = sim.SceneConfig(n_trials=self.n_inputs, motion="sideways",
                              seed=seed)
        self.pool = [sim.generate_trial(cfg, i) for i in range(self.n_inputs)]

    def warm(self) -> None:
        for corrs, _ in self.pool[:20]:
            self.api.solver.solve(corrs, self.tmpl)

    def evaluate(self, k: int, out: Run):
        solver = self.api.solver
        corrs, truth = self.pool[k]
        t0 = time.perf_counter()
        try:
            cands = solver.solve(corrs, self.tmpl)
        except (solver.DegenerateDataError, np.linalg.LinAlgError):
            cands = None
        dt = time.perf_counter() - t0
        out.op_seconds.append(dt)
        out.ops += 1
        if cands is None:
            return dt, None
        check = SolveCheck()
        check.record(cands)
        out.residual_failures += check.residual_failures
        return dt, (check, best_log10_errors(cands, truth.f, truth.lam))

    def check(self, results: list) -> Outcome:
        solves = SolveCheck()
        errs_l, errs_f = [], []
        raised = 0
        for result in results:
            if result is None:
                raised += 1
                continue
            check, (el, ef) = result
            solves.add(check)
            errs_l.append(el)
            errs_f.append(ef)
        return Outcome(
            attempted=len(results),
            failed=raised + solves.residual_failures,
            errors=(ref.check_candidate_counts(solves.counts)
                    + ref.check_recovery(errs_l, errs_f)),
            details={"scenes": len(results), "raised": raised,
                     "residual_failures": solves.residual_failures,
                     "worst_residual": solves.worst})

    def run(self, seconds=None, units=None) -> Run:
        out = super().run(seconds, units)
        out.details = {
            "solves": out.ops,
            "p99_ms": float(np.percentile(out.op_seconds, 99)) * 1e3,
            "solves_over_10ms": sum(1 for t in out.op_seconds if t > 0.010),
        }
        return out


def _primes_from(start: int, count: int) -> list[int]:
    out = []
    n = start
    while len(out) < count:
        if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


#: Working primes for the exact workload; the seed picks one.  Exact
#: results must not depend on the prime, so every seed has the same answers.
PRIMES = _primes_from(30011, 16)

#: Timed public calls in one pass: ten degrees, five two-parameter
#: ideals and one Cayley ideal.
CALLS_PER_PASS = 16


class ExactTables(Workload):
    """The exact side: degree table, two-parameter ideals, Cayley ideal.

    The one input is a full pass; each of its 16 public calls is one
    operation.  ``finish`` also runs the ``iterate`` route as a
    cross-route oracle, outside the timed interval.
    """

    name = "exact-tables"
    nominal_units_per_s = 1 / 6.4   # passes

    def __init__(self, api, seed: int, tmpl, seconds: float):
        super().__init__(api, seed, tmpl, seconds)
        self.n_inputs = 1
        self.prime = PRIMES[seed % len(PRIMES)]
        self.domain = api.polycore.GF(self.prime)

    def _ideal(self, model: str):
        models = self.api.models
        return models.model_ideal(models.ModelId(model), self.domain)

    def _config(self, model: str, which: str):
        models = self.api.models
        return models.model_config(models.ModelId(model), which)

    def _degree(self, config: str, model: str) -> int:
        return self.api.geometry.distortion_degree(self._ideal(model),
                                                   self._config(model, config))

    def _multiparam(self, model: str, method: str):
        J = self.api.geometry.multi_distortion_generators(
            self._ideal(model), self._config(model, "two_param"), method=method)
        return self.api.groebner.dim_degree(J)

    def warm(self) -> None:
        self._degree("v_right", "F")
        self._multiparam("F", "eliminate")

    def evaluate(self, k: int, out: Run):
        def timed(fn, *args):
            t0 = time.perf_counter()
            value = fn(*args)
            dt = time.perf_counter() - t0
            out.op_seconds.append(dt)
            out.ops += 1
            return value, dt

        degrees, dims = {}, {}
        t_deg = t_multi = 0.0
        for config in ("u_both", "v_right"):
            for model in MODELS:
                degrees[(config, model)], dt = timed(self._degree, config, model)
                t_deg += dt
        for model in MODELS:
            dims[model], dt = timed(self._multiparam, model, "eliminate")
            t_multi += dt
        cfg = self._config("F", "four_param")
        cayley, t_cay = timed(self.api.geometry.cayley_ideal, cfg, self.domain)
        for key, value in (("degree_table_s", t_deg), ("multiparam_s", t_multi),
                           ("cayley_s", t_cay),
                           ("tables_s", t_deg + t_multi + t_cay)):
            out.details.setdefault(key, []).append(value)
        result = (degrees, dims, [g.terms for g in cayley.generators],
                  cfg.groups)
        return t_deg + t_multi + t_cay, result

    def run(self, seconds=None, units=None) -> Run:
        out = super().run(seconds, units)
        passes = len(out.details.get("tables_s", ()))
        out.details = {k: float(median(v)) for k, v in out.details.items()}
        out.details.update(prime=self.prime, passes=passes)
        return out

    def check(self, results: list) -> Outcome:
        """Check the pass, then run ``method="iterate"`` for every model
        against the eliminate-route references; a route that raises
        counts as failed."""
        (degrees, dims, generators, groups), = results
        out = Outcome(attempted=CALLS_PER_PASS)
        out.errors = (ref.check_degree_table(degrees)
                      + ref.check_multiparam(dims)
                      + ref.check_cayley(generators, groups, self.prime,
                                         self.seed * 1000))
        iterate = {}
        raised = {}
        for model in MODELS:
            out.attempted += 1
            try:
                iterate[model] = self._multiparam(model, "iterate")
            except (ValueError, self.api.groebner.BudgetError) as exc:
                out.failed += 1
                raised[model] = f"{type(exc).__name__}: {exc}"
        out.errors += ref.check_multiparam(iterate, route="iterate")
        out.details = {"iterate_failures": raised}
        return out


WORKLOADS = {w.name: w for w in (McGeneric, SolveSideways, ExactTables)}
