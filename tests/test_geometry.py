import itertools

import pytest
from hypothesis import given, settings, strategies as st

from distvar.polycore import GF, GREVLEX, Polynomial, default_names, parse_polynomial
from distvar.groebner import (
    BudgetError,
    Ideal,
    buchberger,
    dim_degree,
    normal_form,
    s_polynomial,
)
from distvar.geometry import (
    DistortionVector,
    MultiParamConfig,
    cayley_ideal,
    cayley_parametrization,
    degree_bound,
    distort_monomial,
    distort_polynomial,
    distortion_degree,
    distortion_ideal_generators,
    distortion_weight,
    flatten_second_level,
    iterated_decomposition,
    min_weight,
    monomial_capacity,
    multi_distortion_generators,
    scroll_minors,
    scroll_names,
    scroll_order,
    tropical_hypersurface_degree,
    undistort_monomial,
)
from distvar.models import ModelId, model_config, model_ideal

from oracles import ambient_nvars, power

F = GF(30011)


def poly(text, nvars, domain=F):
    return parse_polynomial(text, nvars, domain, default_names(nvars))


# ---------------------------------------------------------------------------
# distortion vectors and scroll coordinates
# ---------------------------------------------------------------------------

def test_distortion_vector_basics():
    u = DistortionVector((1, 0, 2))
    assert u.n == 2
    assert u.total == 3
    assert u.ambient_nvars == 6
    assert u.var_index(0, 1) == 1
    assert u.var_index(2, 2) == 5
    assert u.hankel_columns() == [(0, 0), (2, 0), (2, 1)]


def test_distortion_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        DistortionVector((0, 0))
    with pytest.raises(ValueError):
        DistortionVector((1, -1))
    with pytest.raises(ValueError):
        DistortionVector((1, 0)).var_index(1, 1)


def test_scroll_names():
    assert scroll_names((1, 0, 2), ["a", "b", "c"]) == \
        ["a", "a_1", "b", "c", "c_1", "c_2"]


def test_scroll_minor_count():
    u = DistortionVector((1, 2, 1))
    minors = scroll_minors(u)
    assert len(minors) == u.total * (u.total - 1) // 2
    assert all(len(m.terms) == 2 and m.total_degree() == 2 for m in minors)


def test_scroll_minors_vanish_on_parametrization():
    # substitute x_{j,a} = x_j * lam^a and check each minor is zero
    u = DistortionVector((2, 1))
    from distvar.polycore import RATIONAL
    nv = 4  # x0, x1, ..., plus lambda in the substitution ring
    images = []
    lam = Polynomial.variable(2, 3, RATIONAL)
    for j, uj in enumerate(u.entries):
        xj = Polynomial.variable(j, 3, RATIONAL)
        for a in range(uj + 1):
            images.append(xj * power(lam, a))
    for m in scroll_minors(u, RATIONAL):
        assert m.substitute(images).is_zero()


def test_scroll_order_gives_groebner_basis():
    # the minors form a Groebner basis under the scroll order: every
    # S-pair reduces to zero
    for entries in [(2, 1), (1, 1, 1), (0, 3)]:
        u = DistortionVector(entries)
        order = scroll_order(u)
        minors = scroll_minors(u, F)
        gb = buchberger(Ideal(minors, u.ambient_nvars, F), order)
        for f, g in itertools.combinations(minors, 2):
            assert normal_form(s_polynomial(f, g, order), gb).is_zero()


# ---------------------------------------------------------------------------
# distorted monomials
# ---------------------------------------------------------------------------

def test_monomial_capacity():
    assert monomial_capacity((2, 1), (1, 3)) == 5


def test_distort_monomial_fills_from_back():
    u = (1, 2)
    # x0^2 x1 has capacity 2*1 + 1*2 = 4; weight 3 puts 2 on the last
    # group (x1 -> x1_2) and 1 on the first (one x0 becomes x0_1)
    m = distort_monomial((2, 1), 3, u)
    # ambient coords: x0, x0_1, x1, x1_1, x1_2
    assert m == (1, 1, 0, 0, 1)
    assert distort_monomial((2, 1), 0, u) == (2, 0, 1, 0, 0)
    assert distort_monomial((2, 1), 4, u) == (0, 2, 0, 0, 1)


def test_distort_monomial_split_within_group():
    # weight 3 in a single group of size u_j = 2 over x^2: one full top
    # coordinate (weight 2) plus one middle coordinate (weight 1)
    m = distort_monomial((0, 2), 3, (1, 2))
    assert m == (0, 0, 0, 1, 1)


def test_distort_monomial_rejects_excess_weight():
    with pytest.raises(ValueError):
        distort_monomial((1, 0), 2, (1, 1))


@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2)),
       st.data())
@settings(max_examples=80, deadline=None)
def test_distort_round_trip(nu, u, data):
    cap = monomial_capacity(nu, u)
    i = data.draw(st.integers(0, cap))
    m = distort_monomial(nu, i, u)
    assert undistort_monomial(m, u) == nu
    assert distortion_weight(m, u) == i


def test_distort_polynomial_substitution_identity():
    # substituting x_{j,a} -> x_j lam^a into the i-th distortion gives
    # lam^i times the original polynomial
    from distvar.polycore import RATIONAL
    u = DistortionVector((1, 0, 2))
    p = poly("x0^2*x2 - x1^3 + x0*x1*x2", 3, RATIONAL)
    nv = 4
    lam = Polynomial.variable(3, nv, RATIONAL)
    images = []
    for j, uj in enumerate(u.entries):
        xj = Polynomial.variable(j, nv, RATIONAL)
        for a in range(uj + 1):
            images.append(xj * power(lam, a))
    p_ext = p.extend_ring(nv, [0, 1, 2])
    for i in range(min_weight(p, u) + 1):
        q = distort_polynomial(p, i, u)
        assert q.substitute(images) == p_ext * power(lam, i)


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def test_degree_bound():
    # deg X * sum of the (n - c + 1) largest entries
    u = (0, 0, 1, 0, 0, 1, 1, 1, 2)
    assert degree_bound(3, 1, u) == 3 * 6
    assert degree_bound(10, 3, u) == 10 * 6
    with pytest.raises(ValueError):
        degree_bound(1, 9, u)


def test_distortion_degree_conic():
    # a smooth conic x0 x2 - x1^2 distorted by u = (0, 1, 1)
    I = Ideal([poly("x0*x2 - x1^2", 3)], 3, F)
    deg = distortion_degree(I, (0, 1, 1))
    assert deg == tropical_hypersurface_degree(poly("x0*x2 - x1^2", 3),
                                               (0, 1, 1))


def test_tropical_hypersurface_degree():
    # d |u| - min over the support of nu . u
    psi = poly("x0*x2 - x1^2", 3)
    assert tropical_hypersurface_degree(psi, (1, 0, 0)) == 2 * 1 - 0
    assert tropical_hypersurface_degree(psi, (1, 1, 1)) == 2 * 3 - 2


def test_distortion_degree_matches_hypersurface_formula():
    for text, u in [("x0^2*x1 + x1^2*x2 + x2^2*x0", (1, 1, 0)),
                    ("x0*x1*x2 - x2^3", (0, 2, 1))]:
        psi = poly(text, 3)
        I = Ideal([psi], 3, F)
        assert distortion_degree(I, u) == tropical_hypersurface_degree(psi, u)


def test_distortion_ideal_dimension():
    # dim X_[u] = dim X + 1 and it contains the scroll minors
    psi = poly("x0*x2 - x1^2", 3)
    I = Ideal([psi], 3, F)
    u = DistortionVector((0, 1, 1))
    J = distortion_ideal_generators(I, u)
    assert J.nvars == u.ambient_nvars
    dim, deg = dim_degree(J)
    assert dim == 2  # conic has dim 1
    assert deg == distortion_degree(I, u.entries)


# ---------------------------------------------------------------------------
# multi-parameter configurations
# ---------------------------------------------------------------------------

def test_config_from_distortion_vector():
    cfg = MultiParamConfig.from_distortion_vector((1, 0, 2))
    assert cfg.r == 1
    assert cfg.groups == (((0,), (1,)), ((0,),), ((0,), (1,), (2,)))
    assert ambient_nvars(cfg) == 6


def test_config_validation():
    with pytest.raises(ValueError):
        MultiParamConfig(2, (((0, 0), (0, 0)),))
    with pytest.raises(ValueError):
        MultiParamConfig(2, (((0,),),))
    with pytest.raises(ValueError):
        MultiParamConfig(1, ((),))


def test_cayley_parametrization_shape():
    cfg = MultiParamConfig.of(2, [[(0, 0), (1, 0)], [(0, 0), (0, 1)]])
    A = cayley_parametrization(cfg)
    assert len(A) == 2 + 2            # one indicator row per group + r
    assert all(len(row) == 4 for row in A)
    assert A[0] == [1, 1, 0, 0]
    assert A[2] == [0, 1, 0, 0]       # first lambda exponents
    assert A[3] == [0, 0, 0, 1]


def test_cayley_ideal_is_segre():
    # two groups sharing a single lambda: the Cayley variety is the
    # Segre quadric in P^3
    cfg = MultiParamConfig.of(1, [[(0,), (1,)], [(0,), (1,)]])
    I = cayley_ideal(cfg, F)
    assert len(I.generators) == 1
    assert I.generators[0].total_degree() == 2
    assert dim_degree(I) == (2, 2)


def test_iterated_decomposition_round_trip():
    cfg = MultiParamConfig.of(2, [[(0, 0)], [(0, 0), (0, 1), (1, 0), (1, 1)]])
    dec = iterated_decomposition(cfg)
    assert dec is not None
    v, w = dec
    assert v == (0, 1)
    assert w == ((0,), (1, 1))
    flat = flatten_second_level(v, w)
    assert flat.entries == (0, 1, 1)


def test_iterated_decomposition_fails_on_gaps():
    cfg = MultiParamConfig.of(2, [[(0, 0), (2, 0)]])
    assert iterated_decomposition(cfg) is None


@pytest.mark.parametrize("method", ["eliminate", "iterate"])
def test_multi_distortion_routes_honour_pair_budget(method):
    I = model_ideal(ModelId.F, F)
    cfg = model_config(ModelId.F, "two_param")
    with pytest.raises(BudgetError):
        multi_distortion_generators(I, cfg, method, max_pairs=1)
