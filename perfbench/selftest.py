"""Tests of the benchmark itself.

Run with ``python3 -m pytest -q perfbench/selftest.py`` from the root of
the checkout.  The file name keeps it out of the package's own test run:
the smoke runs below take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import references as ref                     # noqa: E402
from spans import Span, Tracer, self_times, summarize   # noqa: E402
from workloads import Outcome, Workload                 # noqa: E402


# -- output checks reject corrupted results ---------------------------------

def test_degree_check_accepts_reference_and_rejects_corruption():
    assert ref.check_degree_table(dict(ref.DEGREES)) == []
    bad = dict(ref.DEGREES)
    bad[("u_both", "G")] = 69
    errors = ref.check_degree_table(bad)
    assert len(errors) == 1 and "G/u_both" in errors[0]
    missing = dict(ref.DEGREES)
    del missing[("v_right", "F")]
    assert ref.check_degree_table(missing)


def test_multiparam_check_rejects_wrong_dim_or_degree():
    assert ref.check_multiparam(dict(ref.MULTIPARAM)) == []
    assert ref.check_multiparam({"G": (8, 103)})
    assert ref.check_multiparam({"E": (8, 76)}, route="iterate")
    # a route that raised leaves its model out; that is counted as failed
    assert ref.check_multiparam({"F": (9, 24)}) == []


# Two groups {1, lambda}: m = (x0, x0 l, x1, x1 l), I = <m0 m3 - m1 m2>.
TINY_GROUPS = (((0,), (1,)), ((0,), (1,)))
P = 30011


def test_cayley_check_on_a_known_toric_ideal():
    assert ref.expected_quadric_count(TINY_GROUPS) == 1
    good = [{(1, 0, 0, 1): 1, (0, 1, 1, 0): P - 1}]
    assert ref.check_cayley(good, TINY_GROUPS, P, seed=0) == []


@pytest.mark.parametrize("gens", [
    [{(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}],               # does not vanish
    [{(2, 0, 0, 1): 1, (1, 1, 1, 0): P - 1}],           # vanishes, no quadric
    [],                                                 # empty ideal
    [{(1, 0, 0, 1): 1, (0, 1, 1, 0): P - 1},
     {(1, 0, 0, 1): 1, (0, 1, 1, 0): P - 1}],           # too many quadrics
], ids=["nonvanishing", "missing-quadric", "empty", "extra-quadric"])
def test_cayley_check_rejects_corruption(gens):
    assert ref.check_cayley(gens, TINY_GROUPS, P, seed=0)


def _hist(mode=11):
    hist = [0] * 24
    for k, c in {7: 10, 9: 21, 11: 28, 13: 23, 15: 12}.items():
        hist[k] = c
    hist[mode] += 30 if mode != 11 else 0
    return hist


def test_monte_carlo_check():
    good_errs = [-12.0] * 50
    assert ref.check_monte_carlo(_hist(), good_errs, good_errs) == []
    assert ref.check_monte_carlo(_hist(mode=13), good_errs, good_errs)
    assert ref.check_monte_carlo(_hist(), [-3.0] * 50, good_errs)
    assert ref.check_monte_carlo(_hist(), good_errs, [float("nan")] * 50)
    assert ref.check_monte_carlo([0] * 24, good_errs, good_errs)


def test_candidate_count_check():
    assert ref.check_candidate_counts({23: 100}) == []
    assert ref.check_candidate_counts({23: 99, 22: 1})


# -- span arithmetic ---------------------------------------------------------

NESTED = [
    Span("a.outer", 0.0, 10.0, -1),
    Span("b.mid", 1.0, 4.0, 0),
    Span("c.leaf", 2.0, 3.0, 1),
    Span("b.mid", 5.0, 9.0, 0),
    Span("b.mid", 6.0, 7.0, 3),      # recursive call of the same name
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(NESTED) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])


def test_summary_counts_nested_same_name_once():
    s = summarize(NESTED)
    assert s["b.mid_calls"] == 3
    assert s["b.mid_s"] == pytest.approx(3.0 + 4.0)
    assert s["b.mid_self_s"] == pytest.approx(2.0 + 3.0 + 1.0)
    assert s["b.self_s"] == pytest.approx(6.0)
    assert s["a.outer_s"] == pytest.approx(10.0)
    # per-layer self times partition the top-level span
    layers = [v for k, v in s.items() if k.endswith(".self_s")]
    assert sum(layers) == pytest.approx(10.0)


def test_tracer_patches_every_binding_and_restores():
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def inner(x):
        return x + 1

    lib.inner = inner
    user.inner = inner                       # imported by name
    user.outer = lambda x: 2 * user.inner(x)

    tracer = Tracer([(lib, "inner", "lib.inner"), (user, "outer", "user.outer")],
                    [lib, user])
    with tracer:
        assert user.outer(1) == 4
        assert lib.inner(0) == 1
    assert lib.inner is inner and user.inner is inner
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("user.outer", -1), ("lib.inner", 0), ("lib.inner", -1)]


# -- fixed inputs --------------------------------------------------------------

class _Counting(Workload):
    """Five inputs; records each evaluation."""
    nominal_units_per_s = 1.0

    def __init__(self):
        super().__init__(None, 0, None, seconds=6.5)
        self.calls = []

    def evaluate(self, k, out):
        self.calls.append(k)
        out.ops += 1
        return 0.0, (k, len(self.calls))

    def check(self, results):
        return Outcome(attempted=len(results), details={"results": results})


def test_timed_runs_cycle_the_inputs_and_keep_first_results():
    w = _Counting()
    assert w.n_inputs == 5
    assert w.run(units=7).ops == 7
    assert w.calls == [0, 1, 2, 3, 4, 0, 1]
    out = w.finish()
    assert w.calls == [0, 1, 2, 3, 4, 0, 1]          # nothing left to do
    assert out.attempted == 5
    assert out.details["results"] == [(k, k + 1) for k in range(5)]


def test_finish_checks_every_input_however_short_the_run():
    w = _Counting()
    w.run(units=2)
    out = w.finish()
    assert w.calls == [0, 1, 2, 3, 4]
    assert out.attempted == 5


# -- smoke runs ----------------------------------------------------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _expected(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload,trace", [
    ("mc-generic", 0), ("mc-generic", 1),
    ("solve-sideways", 0), ("solve-sideways", 1),
    ("exact-tables", 0),
])
def test_smoke_run(workload, trace):
    out = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace)])
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(last["metrics"]) == _expected(kind)
    assert 0 <= last["failed"] <= last["attempted"]
    if workload == "exact-tables":
        assert last["attempted"] == 16 + 5   # one pass plus the iterate oracle


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "mc-generic", "--seed", "0", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
