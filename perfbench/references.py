"""Reference values and output checks for the distvar benchmark.

The references are stored here rather than read from the package, so a
change that corrupts a constant in the code under test still fails the
benchmark.  Every check takes plain data and returns a list of error
strings; an empty list means the output passed.
"""

from __future__ import annotations

import math
import random
from statistics import median

#: Exact distortion degrees deg(X_[u]) of the two-view models (paper, Table 1).
DEGREES = {
    ("u_both", "F"): 16, ("u_both", "E"): 52, ("u_both", "G"): 68,
    ("u_both", "Gprime"): 42, ("u_both", "Gdoubleprime"): 42,
    ("v_right", "F"): 8, ("v_right", "E"): 26, ("v_right", "G"): 37,
    ("v_right", "Gprime"): 19, ("v_right", "Gdoubleprime"): 23,
}

#: (projective dimension, degree) of the two-parameter distortion varieties.
MULTIPARAM = {
    "F": (9, 24), "E": (7, 76), "G": (8, 104),
    "Gprime": (8, 56), "Gdoubleprime": (8, 56),
}

#: Monte Carlo contracts for generic noise-free scenes (20,000-trial means).
MEAN_REAL_ROOTS = 11.2
MEAN_REAL_ROOTS_TOL = 0.3
MODAL_REAL_ROOTS = 11
MAX_MEDIAN_LOG10_ERR = -6.0

N_CANDIDATES = 23
#: A solve whose worst candidate residual exceeds this counts as failed.
RESIDUAL_LIMIT = 1e-6

#: Random evaluation points per Cayley-ideal vanishing check.
CAYLEY_POINTS = 3


def check_degree_table(degrees: dict) -> list[str]:
    """``degrees`` maps (config, model name) to the computed degree."""
    errors = []
    if set(degrees) != set(DEGREES):
        errors.append(f"degree table covers {sorted(degrees)}, "
                      f"expected {sorted(DEGREES)}")
    for key, want in DEGREES.items():
        got = degrees.get(key)
        if got is not None and got != want:
            errors.append(f"distortion degree {key[1]}/{key[0]}: "
                          f"got {got}, expected {want}")
    return errors


def check_multiparam(dim_degrees: dict, route: str = "eliminate") -> list[str]:
    """``dim_degrees`` maps model name to (dim, degree); a missing model
    (a route that raised) is not an error here, it is counted as failed."""
    errors = []
    for model, got in dim_degrees.items():
        want = MULTIPARAM.get(model)
        if tuple(got) != want:
            errors.append(f"two-parameter {model} ({route}): "
                          f"got {tuple(got)}, expected {want}")
    return errors


def _cayley_columns(groups) -> list[tuple[int, tuple[int, ...]]]:
    return [(i, tuple(pt)) for i, gi in enumerate(groups) for pt in gi]


def expected_quadric_count(groups) -> int:
    """dim I_2 of the Cayley toric ideal.

    Degree-2 binomials m_a m_b - m_c m_d span I_2, so its dimension is
    the number of degree-2 monomials minus the number of their distinct
    images under the parametrization m_(i,pt) = x_i * lambda^pt.
    """
    cols = _cayley_columns(groups)
    n = len(cols)
    images = set()
    for a in range(n):
        for b in range(a, n):
            (i, p), (j, q) = cols[a], cols[b]
            images.add((tuple(sorted((i, j))),
                        tuple(x + y for x, y in zip(p, q))))
    return n * (n + 1) // 2 - len(images)


def check_cayley(generators, groups, prime: int, seed: int) -> list[str]:
    """``generators`` is a list of term dicts {exponent tuple: int coeff}.

    Checks that every generator vanishes on the monomial parametrization
    at random points mod ``prime``, and that the degree-2 generators
    span all of I_2 (a reduced Groebner basis with no linear elements
    has exactly dim I_2 quadrics).
    """
    errors = []
    cols = _cayley_columns(groups)
    if not generators:
        return ["Cayley ideal has no generators"]
    rng = random.Random(seed)
    r = len(cols[0][1])
    for _ in range(CAYLEY_POINTS):
        x = [rng.randrange(1, prime) for _ in groups]
        lam = [rng.randrange(1, prime) for _ in range(r)]
        point = []
        for i, pt in cols:
            v = x[i]
            for l, e in zip(lam, pt):
                v = v * pow(l, e, prime) % prime
            point.append(v)
        for k, terms in enumerate(generators):
            total = 0
            for expo, coeff in terms.items():
                if len(expo) != len(point):
                    return [f"Cayley generator {k} lives in "
                            f"{len(expo)} variables, expected {len(point)}"]
                v = int(coeff)
                for m, e in zip(point, expo):
                    if e:
                        v = v * pow(m, e, prime) % prime
                total += v
            if total % prime:
                errors.append(f"Cayley generator {k} does not vanish on the "
                              "parametrization")
                return errors
    quadrics = sum(1 for terms in generators
                   if all(sum(e) == 2 for e in terms))
    want = expected_quadric_count(groups)
    if quadrics != want:
        errors.append(f"Cayley ideal has {quadrics} quadrics, "
                      f"expected dim I_2 = {want}")
    return errors


def check_monte_carlo(hist_real: list[int], errs_lambda: list[float],
                      errs_f: list[float]) -> list[str]:
    """Real-root histogram and recovery accuracy of generic scenes."""
    errors = []
    total = sum(hist_real)
    if total == 0:
        return ["no Monte Carlo trial succeeded"]
    mean = sum(k * c for k, c in enumerate(hist_real)) / total
    if abs(mean - MEAN_REAL_ROOTS) > MEAN_REAL_ROOTS_TOL:
        errors.append(f"mean real roots {mean:.3f}, expected "
                      f"{MEAN_REAL_ROOTS} +- {MEAN_REAL_ROOTS_TOL}")
    mode = max(range(len(hist_real)), key=lambda k: hist_real[k])
    if mode != MODAL_REAL_ROOTS:
        errors.append(f"modal real-root bin {mode}, expected "
                      f"{MODAL_REAL_ROOTS}")
    errors += check_recovery(errs_lambda, errs_f)
    return errors


def check_recovery(errs_lambda: list[float], errs_f: list[float]) -> list[str]:
    errors = []
    for name, errs in (("lambda", errs_lambda), ("f", errs_f)):
        finite = [e for e in errs if math.isfinite(e)]
        if not finite:
            errors.append(f"no finite log10 {name} error")
        elif median(finite) > MAX_MEDIAN_LOG10_ERR:
            errors.append(f"median log10 {name} error {median(finite):.2f} "
                          f"above {MAX_MEDIAN_LOG10_ERR}")
    return errors


def check_candidate_counts(counts: dict) -> list[str]:
    """``counts`` maps the number of candidates a solve returned to how
    many solves returned it."""
    bad = {n: c for n, c in counts.items() if n != N_CANDIDATES}
    if bad:
        return [f"solves returned {bad} candidates (count: solves), "
                f"expected {N_CANDIDATES} each"]
    return []
