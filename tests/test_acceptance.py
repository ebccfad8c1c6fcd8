"""End-to-end acceptance checks for the distortion-variety toolkit.

Each section exercises one externally checkable contract: exact degree
tables for the built-in camera models, golden equation sets, solver
cardinality and accuracy, Monte Carlo statistics at desk scale, and
randomized property suites backed by independent oracles.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from distvar.polycore import (
    GF,
    GREVLEX,
    RATIONAL,
    Polynomial,
    default_names,
    parse_polynomial,
)
from distvar.groebner import (
    GroebnerBasis,
    Ideal,
    MonomialIdeal,
    buchberger,
    dim_degree,
    hilbert_dim_degree,
    initial_ideal,
    normal_form,
    s_polynomial,
)
from distvar.geometry import (
    DistortionVector,
    MultiParamConfig,
    cayley_ideal,
    degree_bound,
    distort_monomial,
    distort_polynomial,
    distortion_degree,
    distortion_ideal_generators,
    distortion_weight,
    iterated_decomposition,
    min_weight,
    monomial_capacity,
    scroll_minors,
    scroll_names,
    scroll_order,
    tropical_hypersurface_degree,
    undistort_monomial,
)
from distvar.models import (
    DET_TEXT,
    MODEL_DIM_DEGREE,
    ModelId,
    U_BOTH,
    V_RIGHT,
    VAR_NAMES,
    essential_matrix,
    focal_from_matrix,
    model_config,
    model_ideal,
)
from distvar.simulate import SceneConfig, generate_trial, run_experiment
from distvar.solver import count_real, solve

from oracles import ambient_nvars, evaluate, power, random_rotation

PRIME = 30011
FP = GF(PRIME)


def fp_poly(text, nvars, names=None):
    return parse_polynomial(text, nvars, FP, names or default_names(nvars))


# ===========================================================================
# 1. exact distortion degrees of the camera models
# ===========================================================================

DEGREE_TABLE = [
    ("u_both", ModelId.F, 16),
    ("u_both", ModelId.E, 52),
    ("u_both", ModelId.G, 68),
    ("u_both", ModelId.GPRIME, 42),
    ("u_both", ModelId.GDOUBLEPRIME, 42),
    ("v_right", ModelId.F, 8),
    ("v_right", ModelId.E, 26),
    ("v_right", ModelId.G, 37),
    ("v_right", ModelId.GPRIME, 19),
    ("v_right", ModelId.GDOUBLEPRIME, 23),
]


@pytest.mark.parametrize("config,model,expected", DEGREE_TABLE,
                         ids=[f"{c}-{m.value}" for c, m, _ in DEGREE_TABLE])
def test_distortion_degree_table(config, model, expected):
    t0 = time.perf_counter()
    I = model_ideal(model, FP)
    u = model_config(model, config)
    assert distortion_degree(I, u) == expected
    assert time.perf_counter() - t0 < 120.0
    # distortion_degree reads dim X off in_{-u}(X); the grevlex basis is
    # the independent oracle for it
    assert (dim_degree(I)[0]
            == hilbert_dim_degree(initial_ideal(I, u.entries)).projective_dimension)


# ===========================================================================
# 2. degree upper bounds
# ===========================================================================

BOUND_TABLE = [
    ("u_both", ModelId.F, 18),
    ("u_both", ModelId.E, 60),
    ("u_both", ModelId.G, 90),
    ("u_both", ModelId.GPRIME, 54),
    ("v_right", ModelId.F, 9),
    ("v_right", ModelId.E, 30),
    ("v_right", ModelId.G, 45),
    ("v_right", ModelId.GPRIME, 27),
    ("v_right", ModelId.GDOUBLEPRIME, 27),
]


@pytest.mark.parametrize("config,model,expected", BOUND_TABLE,
                         ids=[f"{c}-{m.value}" for c, m, _ in BOUND_TABLE])
def test_degree_bound_table(config, model, expected):
    dim, deg = MODEL_DIM_DEGREE[model]
    codim = 8 - dim
    u = model_config(model, config)
    assert degree_bound(deg, codim, u) == expected


# ===========================================================================
# 3. tropical cross-check for hypersurfaces
# ===========================================================================

def test_tropical_degree_of_determinant():
    det = fp_poly(DET_TEXT, 9, VAR_NAMES)
    u = DistortionVector(U_BOTH)
    assert tropical_hypersurface_degree(det, u) == 16
    assert distortion_degree(Ideal([det], 9, FP), u) == 16


def test_tropical_matches_saturation_on_random_ternary_forms():
    rng = np.random.default_rng(123)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        monos = [m for m in itertools.product(range(d + 1), repeat=3)
                 if sum(m) == d]
        terms = {m: int(rng.integers(1, PRIME)) for m in monos
                 if rng.random() < 0.8}
        if not terms:
            terms = {monos[0]: 1}
        psi = Polynomial(terms, 3, FP)
        while True:
            u = tuple(int(e) for e in rng.integers(0, 5, size=3))
            if any(u):
                break
        assert (distortion_degree(Ideal([psi], 3, FP), u)
                == tropical_hypersurface_degree(psi, u))


# ===========================================================================
# 4. golden equations
# ===========================================================================

# ambient coordinates of the determinant hypersurface distorted by
# u = (0,0,1,0,0,1,1,1,2); the duplicated coordinates get y/z names
GOLDEN_NAMES_15 = ["x11", "x12", "x13", "y13", "x21", "x22", "x23", "y23",
                   "x31", "y31", "x32", "y32", "x33", "y33", "z33"]

HANKEL_TOP = ["x13", "x23", "x31", "x32", "x33", "y33"]
HANKEL_BOT = ["y13", "y23", "y31", "y32", "y33", "z33"]

GOLDEN_CUBICS = [
    ("x11*x22*x33 - x11*x23*x32 - x12*x21*x33 + x12*x23*x31"
     " + x13*x21*x32 - x13*x22*x31"),
    ("x13*x22*y31 - x12*x23*y31 - x13*x21*y32 + x11*x23*y32"
     " + x12*x21*y33 - x11*x22*y33"),
    ("x22*y13*y31 - x12*y23*y31 - x21*y13*y32 + x11*y23*y32"
     " + x12*x21*z33 - x11*x22*z33"),
]


def test_distorted_determinant_equations_match_golden():
    det = fp_poly(DET_TEXT, 9, VAR_NAMES)
    u = DistortionVector(U_BOTH)
    J = distortion_ideal_generators(Ideal([det], 9, FP), u)
    assert J.nvars == 15
    computed = {g.monic(GREVLEX) for g in J.generators}

    golden = set()
    for i in range(6):
        for k in range(i + 1, 6):
            text = (f"{HANKEL_TOP[i]}*{HANKEL_BOT[k]}"
                    f" - {HANKEL_BOT[i]}*{HANKEL_TOP[k]}")
            golden.add(fp_poly(text, 15, GOLDEN_NAMES_15).monic(GREVLEX))
    for text in GOLDEN_CUBICS:
        golden.add(fp_poly(text, 15, GOLDEN_NAMES_15).monic(GREVLEX))

    assert len(golden) == 18
    assert computed == golden


GOLDEN_123_NAMES = ["a0", "a1", "b0", "b1", "b2", "c0", "c1", "c2", "c3"]

GOLDEN_123_DISTORTIONS = [
    "a0^3*b0^2*c0^2", "a0^3*b0^2*c0*c1", "a0^3*b0^2*c0*c2",
    "a0^3*b0^2*c0*c3", "a0^3*b0^2*c1*c3", "a0^3*b0^2*c2*c3",
    "a0^3*b0^2*c3^2", "a0^3*b0*b1*c3^2", "a0^3*b0*b2*c3^2",
    "a0^3*b1*b2*c3^2", "a0^3*b2^2*c3^2", "a0^2*a1*b2^2*c3^2",
    "a0*a1^2*b2^2*c3^2", "a1^3*b2^2*c3^2",
]


def test_distorted_monomial_ladder_matches_golden():
    u = (1, 2, 3)
    nu = (3, 2, 2)
    assert monomial_capacity(nu, u) == 13
    for i, text in enumerate(GOLDEN_123_DISTORTIONS):
        expected = fp_poly(text, 9, GOLDEN_123_NAMES)
        (mono,) = expected.terms
        assert distort_monomial(nu, i, u) == mono


# ===========================================================================
# 5. Cayley / multi-parameter examples
# ===========================================================================

CONIC_CONFIG = MultiParamConfig.of(
    2, [[(0, 0), (0, 1)], [(0, 0), (1, 0)], [(2, 2), (1, 1)]])

CONIC_NAMES = ["a0", "a1", "b0", "b1", "c0", "c1"]

CONIC_GOLDEN_GENS = [
    "a0*b0*c0 - a1*b1*c1",
    "a0^2*c0^2 + b0^2*c0^2 - c1^4",
    "a0^2*a1*b1*c0 + a1*b0^2*b1*c0 - a0*b0*c1^3",
    "a0^2*a1^2*b1^2 + a1^2*b0^2*b1^2 - a0^2*b0^2*c1^2",
]


def test_cayley_hypersurface():
    I = cayley_ideal(CONIC_CONFIG, FP)
    assert len(I.generators) == 1
    expected = fp_poly(CONIC_GOLDEN_GENS[0], 6, CONIC_NAMES)
    assert I.generators[0].monic(GREVLEX) == expected.monic(GREVLEX)


def test_conic_distortion_ideal_matches_golden():
    from distvar.geometry import multi_distortion_generators
    conic = fp_poly("x0^2 + x1^2 - x2^2", 3)
    J = multi_distortion_generators(Ideal([conic], 3, FP), CONIC_CONFIG,
                                    "eliminate")
    golden = [fp_poly(t, 6, CONIC_NAMES) for t in CONIC_GOLDEN_GENS]
    gb_computed = buchberger(J)
    gb_golden = buchberger(Ideal(golden, 6, FP))
    for g in golden:
        assert normal_form(g, gb_computed).is_zero()
    for g in J.generators:
        assert normal_form(g, gb_golden).is_zero()
    assert dim_degree(J) == (3, 10)


def test_two_parameter_cayley_variety():
    cfg = model_config(ModelId.F, "two_param")
    I = cayley_ideal(cfg, FP)
    assert ambient_nvars(cfg) == 16
    assert len(I.generators) == 11
    assert all(g.total_degree() == 2 and len(g.terms) == 2
               for g in I.generators)
    assert dim_degree(I) == (10, 10)


def test_four_parameter_cayley_variety():
    """Oracle independent of the Groebner engine: the generators vanish
    on the parametrization m_{i,p} = x_i lambda^p at random points mod p,
    and the quadrics number dim I_2 = (degree-2 monomials) - (their
    distinct images under the parametrization)."""
    cfg = model_config(ModelId.F, "four_param")
    I = cayley_ideal(cfg, FP)
    cols = [(i, pt) for i, group in enumerate(cfg.groups) for pt in group]
    assert I.nvars == len(cols) == 25
    assert len(I.generators) == 71
    assert all(len(g.terms) == 2 for g in I.generators)

    rng = np.random.default_rng(5)
    for _ in range(3):
        x = [int(v) for v in rng.integers(1, PRIME, size=len(cfg.groups))]
        lam = [int(v) for v in rng.integers(1, PRIME, size=cfg.r)]
        point = [x[i] * math.prod(pow(l, e, PRIME) for l, e in zip(lam, pt))
                 % PRIME for i, pt in cols]
        assert all(FP.coerce(evaluate(g, point)) == 0 for g in I.generators)

    def image(a, b):
        (i, p), (j, q) = cols[a], cols[b]
        return (min(i, j), max(i, j)) + tuple(s + t for s, t in zip(p, q))

    pairs = list(itertools.combinations_with_replacement(range(len(cols)), 2))
    images = {image(a, b) for a, b in pairs}
    quadrics = [g for g in I.generators if g.total_degree() == 2]
    assert len(quadrics) == len(pairs) - len(images)


def test_two_parameter_iterated_decomposition():
    cfg = model_config(ModelId.F, "two_param")
    dec = iterated_decomposition(cfg)
    assert dec is not None
    v, w = dec
    assert v == (0, 0, 1, 0, 0, 1, 0, 0, 1)
    assert w == ((0,), (0,), (0, 0), (0,), (0,), (0, 0),
                 (1,), (1,), (1, 1))


STRETCH_SCRIPT = """
from distvar.polycore import GF
from distvar.groebner import Ideal, dim_degree
from distvar.geometry import multi_distortion_generators
from distvar.models import ModelId, model_config, model_ideal

I = model_ideal(ModelId.F, GF(30011))
cfg = model_config(ModelId.F, "two_param")
J = multi_distortion_generators(I, cfg, method="iterate")
print(dim_degree(J))
"""


def test_two_parameter_distorted_determinant_degree_stretch():
    """Time-boxed stretch goal: exact degree of the determinant
    hypersurface under the two-parameter configuration."""
    try:
        out = subprocess.run([sys.executable, "-c", STRETCH_SCRIPT],
                             capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        pytest.skip("stretch computation exceeded the 10 minute box")
    if out.returncode != 0:
        pytest.skip(f"stretch computation failed: {out.stderr.strip()[:200]}")
    assert out.stdout.strip() == "(9, 24)"


#: (projective dimension, degree) of each model's two-parameter distortion
#: variety; both routes of multi_distortion_generators must give it
TWO_PARAM_DIM_DEGREE = {
    ModelId.F: (9, 24),
    ModelId.E: (7, 76),
    ModelId.G: (8, 104),
    ModelId.GPRIME: (8, 56),
    ModelId.GDOUBLEPRIME: (8, 56),
}


@pytest.mark.parametrize("model", list(TWO_PARAM_DIM_DEGREE),
                         ids=lambda m: m.value)
def test_two_parameter_routes_agree(model):
    from distvar.geometry import multi_distortion_generators
    I = model_ideal(model, FP)
    cfg = model_config(model, "two_param")
    routes = {}
    for method in ("eliminate", "iterate"):
        J = multi_distortion_generators(I, cfg, method=method)
        assert dim_degree(J) == TWO_PARAM_DIM_DEGREE[model], method
        routes[method] = J
    # the eliminate route returns a reduced grevlex basis; the iterate
    # route's ideal must have exactly that basis, element by element
    assert (buchberger(routes["iterate"]).elements
            == routes["eliminate"].generators)


# ===========================================================================
# 6. solver cardinality, residuals and recovery
# ===========================================================================

def test_solver_on_1000_noise_free_scenes(template):
    cfg = SceneConfig(n_trials=1000, seed=2024)
    worst_residual = 0.0
    recovered = 0
    errs_lambda = []
    errs_f = []
    for trial in range(1000):
        corrs, truth = generate_trial(cfg, trial)
        cands = solve(corrs, template)
        assert len(cands) == 23
        worst_residual = max(worst_residual, max(c.residual for c in cands))
        best = None
        for c in cands:
            if not c.f_real:
                continue
            fc = math.sqrt(c.f_squared)
            rel = max(abs(fc - truth.f) / truth.f,
                      abs(c.lam - truth.lam) / abs(truth.lam))
            if best is None or rel < best[0]:
                best = (rel, fc, c.lam)
        assert best is not None
        rel, fc, lam = best
        if rel <= 1e-4:
            recovered += 1
        errs_lambda.append(math.log10(max(abs(lam - truth.lam)
                                          / abs(truth.lam), 1e-300)))
        errs_f.append(math.log10(max(abs(fc - truth.f) / truth.f, 1e-300)))
    assert worst_residual <= 1e-6
    assert recovered >= 990
    assert np.median(errs_lambda) <= -6
    assert np.median(errs_f) <= -6


# ===========================================================================
# 7. Monte Carlo statistics at desk scale (20,000 trials each)
# ===========================================================================

N_DESK = 20000

# reference percentages for bins carrying at least 1% mass
REFERENCE_REAL_ROOTS = {5: 2.47, 7: 9.50, 9: 21.0, 11: 28.0, 13: 22.8,
                        15: 11.5, 17: 3.60}
REFERENCE_REAL_F = {2: 3.16, 3: 7.93, 4: 14.5, 5: 18.8, 6: 19.9, 7: 15.5,
                    8: 10.5, 9: 5.54, 10: 2.52}


@pytest.fixture(scope="module")
def stats_generic(template):
    return run_experiment(SceneConfig(n_trials=N_DESK, seed=0), template)


@pytest.fixture(scope="module")
def stats_noise(template):
    return run_experiment(SceneConfig(n_trials=N_DESK, noise_sigma_px=2.0,
                                      seed=0), template)


@pytest.fixture(scope="module")
def stats_sideways(template):
    return run_experiment(SceneConfig(n_trials=N_DESK, motion="sideways",
                                      seed=0), template)


def test_real_root_histogram(stats_generic):
    pct = stats_generic.percentages_real_variety()
    assert int(np.argmax(pct)) == 11
    assert abs(pct[11] - 28.0) <= 2.0
    for k, ref in REFERENCE_REAL_ROOTS.items():
        assert abs(pct[k] - ref) <= 2.0, f"bin {k}: {pct[k]:.2f} vs {ref}"
    assert abs(stats_generic.mean_real_variety() - 11.2) <= 0.3
    assert stats_generic.runtime_seconds <= 600.0


def test_real_focal_histogram(stats_generic):
    pct = stats_generic.percentages_real_f()
    for k, ref in REFERENCE_REAL_F.items():
        assert abs(pct[k] - ref) <= 2.0, f"bin {k}: {pct[k]:.2f} vs {ref}"


def test_noise_inflates_zero_focal_bin(stats_generic, stats_noise):
    pct_free = stats_generic.percentages_real_f()[0]
    pct_noise = stats_noise.percentages_real_f()[0]
    assert pct_noise >= 10.0 * pct_free
    assert pct_noise >= 0.05
    assert stats_noise.runtime_seconds <= 600.0


def test_sideways_motion_produces_heavy_focal_tail(stats_sideways):
    observed = [k for k, c in enumerate(stats_sideways.hist_real_f) if c > 0]
    assert max(observed) > 16
    assert stats_sideways.runtime_seconds <= 600.0


# ===========================================================================
# 8. focal length formula
# ===========================================================================

def test_focal_formula_on_500_random_pairs():
    rng = np.random.default_rng(77)
    for _ in range(500):
        E = essential_matrix(random_rotation(rng), rng.normal(size=3))
        f = rng.uniform(0.3, 5.0)
        X = np.diag([1.0 / f, 1.0 / f, 1.0]) @ E
        assert abs(focal_from_matrix(X) - f * f) <= 1e-9 * f * f


def _focal_numerator_denominator(domain):
    """The two cubic forms whose ratio is the squared focal length,
    rebuilt symbolically in the nine matrix coordinates."""
    names = VAR_NAMES
    num = parse_polynomial(
        "x23*x31^2 + x23*x32^2 - 2*x21*x31*x33 - 2*x22*x32*x33 - x23*x33^2",
        9, domain, names)
    den = parse_polynomial(
        "2*x11*x13*x21 + 2*x12*x13*x22 - x11^2*x23 - x12^2*x23 + x13^2*x23"
        " + x21^2*x23 + x22^2*x23 + x23^3", 9, domain, names)
    return num, den


def test_focal_formula_scale_invariance_exact():
    # as polynomials in (x, s), numerator and denominator each pick up
    # exactly s^3 under X -> sX, so the ratio is scale invariant
    num, den = _focal_numerator_denominator(RATIONAL)
    s = Polynomial.variable(9, 10, RATIONAL)
    images = [Polynomial.variable(i, 10, RATIONAL) * s for i in range(9)]
    ext = list(range(9))
    for p in (num, den):
        scaled = p.extend_ring(10, ext).substitute(
            images + [Polynomial.variable(9, 10, RATIONAL)])
        assert scaled == p.extend_ring(10, ext) * power(s, 3)


def test_focal_formula_sign_invariance_exact():
    # X -> diag(-1,-1,1) X negates rows 1 and 2; numerator and
    # denominator both flip sign, so the ratio is unchanged
    num, den = _focal_numerator_denominator(RATIONAL)
    images = []
    for i in range(3):
        for j in range(3):
            v = Polynomial.variable(3 * i + j, 9, RATIONAL)
            images.append(-v if i < 2 else v)
    for p in (num, den):
        assert p.substitute(images) == -p


def test_focal_formula_numeric_invariances():
    rng = np.random.default_rng(78)
    D = np.diag([-1.0, -1.0, 1.0])
    for _ in range(50):
        E = essential_matrix(random_rotation(rng), rng.normal(size=3))
        X = np.diag([0.7, 0.7, 1.0]) @ E
        base = focal_from_matrix(X)
        assert np.isclose(focal_from_matrix(2.5 * X), base, rtol=1e-12)
        assert np.isclose(focal_from_matrix(D @ X), base, rtol=1e-12)


# ===========================================================================
# 9. property suites
# ===========================================================================

def _all_distortion_vectors(max_n=3, max_entry=3):
    for n in range(1, max_n + 1):
        for entries in itertools.product(range(max_entry + 1), repeat=n + 1):
            if any(entries):
                yield DistortionVector(entries)


def test_scroll_minors_are_groebner_bases():
    # every S-pair of the quadratic binomials reduces to zero under the
    # scroll term order, for the full range of distortion vectors
    for u in _all_distortion_vectors():
        minors = scroll_minors(u, FP)
        if len(minors) < 2:
            continue
        order = scroll_order(u)
        gb = GroebnerBasis([m.monic(order) for m in minors], order)
        for f, g in itertools.combinations(minors, 2):
            s = s_polynomial(f, g, order)
            assert normal_form(s, gb).is_zero(), u


def _standard_monomials_over(nu, i, u, lead_monos):
    """Brute force: ambient monomials collapsing to x^nu with weight i
    that avoid every leading monomial of the scroll basis."""
    u = DistortionVector.of(u)
    per_group = []
    for j, nj in enumerate(nu):
        uj = u.entries[j]
        opts = [c for c in itertools.product(range(nj + 1), repeat=uj + 1)
                if sum(c) == nj]
        per_group.append(opts)
    found = []
    for combo in itertools.product(*per_group):
        m = tuple(e for grp in combo for e in grp)
        if distortion_weight(m, u) != i:
            continue
        if any(all(me >= le for me, le in zip(m, lm)) for lm in lead_monos):
            continue
        found.append(m)
    return found


def test_standard_monomial_uniqueness_brute_force():
    for u in _all_distortion_vectors():
        order = scroll_order(u)
        lead = [m.leading_monomial(order) for m in scroll_minors(u, FP)]
        n = u.n
        for nu in itertools.product(range(3), repeat=n + 1):
            if not 0 < sum(nu) <= 3:
                continue
            cap = monomial_capacity(nu, u)
            for i in range(cap + 1):
                std = _standard_monomials_over(nu, i, u, lead)
                assert len(std) == 1, (u, nu, i)
                assert std[0] == distort_monomial(nu, i, u)
                assert undistort_monomial(std[0], u) == nu


def _count_standard(gens, nvars, d):
    """Standard monomials of degree d by inclusion-exclusion over the
    generators; an oracle independent of the Hilbert series recursion."""
    from math import comb

    def lcm_deg(subset):
        m = [0] * nvars
        for g in subset:
            m = [max(a, b) for a, b in zip(m, g)]
        return sum(m)

    total = 0
    for r in range(len(gens) + 1):
        for subset in itertools.combinations(gens, r):
            shift = lcm_deg(subset)
            if d >= shift:
                total += (-1) ** r * comb(d - shift + nvars - 1, nvars - 1)
    return total


def test_inclusion_exclusion_matches_direct_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(20):
        nvars = int(rng.integers(2, 5))
        gens = [tuple(int(e) for e in rng.integers(0, 3, size=nvars))
                for _ in range(int(rng.integers(1, 5)))]
        gens = [g for g in gens if any(g)] or [(1,) + (0,) * (nvars - 1)]
        M = MonomialIdeal.of(gens, nvars)
        for d in range(7):
            direct = sum(1 for m in _monos_of_degree(d, nvars)
                         if not M.contains_monomial(m))
            assert _count_standard(M.gens, nvars, d) == direct


def _monos_of_degree(d, n):
    for cuts in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        out = []
        for c in list(cuts) + [d + n - 1]:
            out.append(c - prev - 1)
            prev = c
        yield tuple(out)


def test_hilbert_data_against_enumeration_oracle():
    rng = np.random.default_rng(59)
    for _ in range(200):
        nvars = int(rng.integers(2, 6))
        n_gens = int(rng.integers(1, 7))
        gens = [tuple(int(e) for e in rng.integers(0, 3, size=nvars))
                for _ in range(n_gens)]
        gens = [g for g in gens if any(g)]
        if not gens:
            gens = [(2,) + (0,) * (nvars - 1)]
        M = MonomialIdeal.of(gens, nvars)
        h = hilbert_dim_degree(M)
        # far beyond the largest generator degree the count of standard
        # monomials is a polynomial in d; finite differences expose its
        # top coefficient, which is degree / dim! up to normalization
        d0 = sum(sum(g) for g in M.gens) + 5
        vals = [_count_standard(M.gens, nvars, d0 + k)
                for k in range(nvars + 1)]
        dim = 0
        work = list(vals)
        while work and any(work):
            work = [b - a for a, b in zip(work, work[1:])]
            dim += 1
        dim -= 1  # projective dimension of the top cycle
        if all(v == 0 for v in vals):
            assert h.projective_dimension == -1
            continue
        assert dim == h.projective_dimension, (M.gens, vals)
        work = list(vals)
        for _ in range(dim):
            work = [b - a for a, b in zip(work, work[1:])]
        assert work[0] == h.degree, (M.gens, vals)


def test_distortion_substitution_identity():
    # the i-th distortion of p pulls back to lambda^i * p under the
    # scroll parametrization x_{j,a} -> x_j lambda^a
    rng = np.random.default_rng(97)
    names3 = default_names(4)
    count = 0
    while count < 100:
        n = int(rng.integers(1, 4))
        u = tuple(int(e) for e in rng.integers(0, 4, size=n + 1))
        if not any(u):
            continue
        d = int(rng.integers(1, 4))
        monos = [m for m in itertools.product(range(d + 1), repeat=n + 1)
                 if sum(m) == d]
        terms = {m: int(rng.integers(-9, 10)) for m in monos
                 if rng.random() < 0.6}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        p = Polynomial(terms, n + 1, RATIONAL)
        i = int(rng.integers(0, min_weight(p, u) + 1))
        q = distort_polynomial(p, i, u)
        nv = n + 2
        lam = Polynomial.variable(n + 1, nv, RATIONAL)
        images = []
        for j, uj in enumerate(u):
            xj = Polynomial.variable(j, nv, RATIONAL)
            for a in range(uj + 1):
                images.append(xj * power(lam, a))
        p_ext = p.extend_ring(nv, list(range(n + 1)))
        assert q.substitute(images) == p_ext * power(lam, i)
        count += 1
