import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from distvar.polycore import (
    GF,
    GREVLEX,
    RATIONAL,
    Polynomial,
    default_names,
    elimination_order,
    mono_divides,
    parse_polynomial,
    weighted_order,
)
from distvar.groebner import (
    BudgetError,
    GroebnerBasis,
    Ideal,
    MonomialIdeal,
    buchberger,
    dim_degree,
    eliminate,
    hilbert_dim_degree,
    initial_ideal,
    leading_ideal,
    normal_form,
    s_polynomial,
    saturate_variable,
    toric_ideal,
)

F = GF(30011)


def ideal(texts, nvars, domain=F):
    names = default_names(nvars)
    return Ideal([parse_polynomial(t, nvars, domain, names) for t in texts],
                 nvars, domain)


# ---------------------------------------------------------------------------
# Buchberger and normal forms
# ---------------------------------------------------------------------------

def test_twisted_cubic_groebner_basis():
    # parametrized by (s^3, s^2 t, s t^2, t^3); classic grevlex basis has
    # the three 2x2 Hankel minors as its elements
    I = ideal(["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"], 4)
    gb = buchberger(I)
    lms = set(gb.leading_monomials())
    assert len(gb.elements) == 3
    assert lms == {(0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 1, 0)}


def test_groebner_basis_reduces_s_pairs_to_zero():
    I = ideal(["x0^2 + x1*x2", "x0*x1 - x2^2", "x1^3 - x0*x2^2"], 3)
    gb = buchberger(I)
    for f, g in itertools.combinations(gb.elements, 2):
        s = s_polynomial(f, g, GREVLEX)
        assert normal_form(s, gb).is_zero()


def test_normal_form_is_reduced():
    I = ideal(["x0^2 - x1", "x1^2 - x2"], 3)
    gb = buchberger(I)
    f = parse_polynomial("x0^5", 3, F, default_names(3))
    r = f - normal_form(f, gb)
    # the difference lies in the ideal, and the remainder has no term
    # divisible by a leading monomial
    assert normal_form(r, gb).is_zero()
    nf = normal_form(f, gb)
    for m in nf.terms:
        assert not any(mono_divides(lm, m) for lm in gb.leading_monomials())


def test_normal_form_rejects_non_homogeneous_basis_under_negative_weight():
    # x0 -> x0^2*x1 -> x0^3*x1^2 -> ... never ends: under weight -(1, 1)
    # every multiple of x0 - x0^2*x1 leads with its lowest-degree term
    code = ("from distvar.groebner import GroebnerBasis, normal_form\n"
            "from distvar.polycore import GF, parse_polynomial, weighted_order\n"
            "F = GF(30011)\n"
            "g = parse_polynomial('x0 - x0^2*x1', 2, F)\n"
            "x0 = parse_polynomial('x0', 2, F)\n"
            "normal_form(x0, GroebnerBasis([g], weighted_order([-1, -1])))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 1
    assert "ValueError" in out.stderr and "homogeneous" in out.stderr


def _homogeneous_poly(nvars):
    def of_degree(d):
        monos = list(_monos_of_degree(d, nvars))
        return st.dictionaries(st.sampled_from(monos), st.integers(1, 30010),
                               min_size=1, max_size=3)
    return st.integers(1, 3).flatmap(of_degree).map(
        lambda terms: Polynomial(terms, nvars, F))


@given(st.lists(_homogeneous_poly(4), min_size=1, max_size=4),
       st.tuples(*[st.integers(-3, 1)] * 4).filter(lambda w: min(w) < 0))
@settings(max_examples=60, deadline=None)
def test_basis_under_negative_weights_is_reduced_groebner(gens, weights):
    order = weighted_order(weights)
    gb = buchberger(Ideal(gens, 4, F), order)
    lms = gb.leading_monomials()
    for k, g in enumerate(gb.elements):
        assert g.terms[g.leading_monomial(order)] == 1
        for m in g.terms:
            assert not any(mono_divides(lm, m)
                           for j, lm in enumerate(lms) if j != k)
    for f, g in itertools.combinations(gb.elements, 2):
        assert normal_form(s_polynomial(f, g, order), gb).is_zero()
    for f in gens:
        assert normal_form(f, gb).is_zero()


def test_lex_elimination_of_circle_and_line():
    # x^2 + y^2 - 1 and x - y meet where 2 y^2 = 1
    I = ideal(["x0^2 + x1^2 - x2^2", "x0 - x1"], 3, RATIONAL)
    # the block order that eliminate() uses for x0
    order = elimination_order([0], 3)
    gb = buchberger(I, order)
    only_tail = [g for g in gb.elements if g.leading_monomial(order)[0] == 0]
    assert any(g.terms.get((0, 2, 0)) is not None for g in only_tail)


def test_budget_error():
    I = ideal(["x0^3 + x1^3 + x2^3", "x0*x1*x2 - x2^3", "x0^2*x1 - x1^2*x2"], 3)
    with pytest.raises(BudgetError):
        buchberger(I, max_pairs=1)


def test_initial_ideal_weighted():
    # under weight(-u) with u = (1, 0), the lighter monomial leads
    I = ideal(["x0^2 - x1^2"], 2)
    M = initial_ideal(I, (1, 0))
    assert M.gens == ((0, 2),)


def test_initial_ideal_when_divisor_sorts_after_multiple():
    # under weight -(1, 1, 1) the lower-degree x0 outranks its multiples;
    # on a homogeneous ideal in_{-(1,1,1)} is the grevlex initial ideal
    I = ideal(["x0 + x2", "x1^2 + x0*x1"], 3)
    M = initial_ideal(I, (1, 1, 1))
    assert set(M.gens) == set(leading_ideal(buchberger(I), 3).gens)


# ---------------------------------------------------------------------------
# monomial ideals and Hilbert data
# ---------------------------------------------------------------------------

def test_monomial_ideal_minimalizes():
    M = MonomialIdeal.of([(2, 0), (1, 1), (2, 1), (3, 0)], 2)
    assert set(M.gens) == {(2, 0), (1, 1)}
    assert M.contains_monomial((5, 1))
    assert not M.contains_monomial((1, 0))


def test_saturate_variable():
    M = MonomialIdeal.of([(2, 1, 0), (0, 3, 2)], 3)
    S = saturate_variable(M, 1)
    assert set(S.gens) == {(2, 0, 0), (0, 0, 2)}


def test_hilbert_zero_and_unit_ideal():
    assert hilbert_dim_degree(MonomialIdeal.of([], 3)).projective_dimension == 2
    h = hilbert_dim_degree(MonomialIdeal.of([(0, 0, 0)], 3))
    assert (h.projective_dimension, h.degree) == (-1, 0)


def test_hilbert_hypersurface():
    # a degree d hypersurface in P^n has dim n-1 and degree d
    h = hilbert_dim_degree(MonomialIdeal.of([(4, 0, 0, 0)], 4))
    assert (h.projective_dimension, h.degree) == (2, 4)


def test_hilbert_points():
    # <x0 x1, x0 x2, x1 x2> in P^2 is the three coordinate points
    M = MonomialIdeal.of([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
    h = hilbert_dim_degree(M)
    assert (h.projective_dimension, h.degree) == (0, 3)


def test_dim_degree_twisted_cubic():
    I = ideal(["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"], 4)
    assert dim_degree(I) == (1, 3)


def test_dim_degree_empty():
    I = ideal(["x0", "x1"], 2)
    dim, _ = dim_degree(I)
    assert dim == -1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 3)).filter(lambda m: sum(m) > 0),
                min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_hilbert_degree_matches_enumeration(gens):
    # count standard monomials of R/M in a large degree d and compare
    # with the leading Hilbert polynomial term deg * d^dim / dim!
    M = MonomialIdeal.of(gens, 3)
    h = hilbert_dim_degree(M)
    if h.projective_dimension < 0:
        d0 = max(sum(m) for m in M.gens)
        count = sum(1 for m in _monos_of_degree(d0 + 2, 3)
                    if not M.contains_monomial(m))
        assert count == 0
        return
    import math
    d = 12
    count = sum(1 for m in _monos_of_degree(d, 3)
                if not M.contains_monomial(m))
    dim = h.projective_dimension
    # for d large the Hilbert function equals a polynomial with leading
    # coefficient degree/dim!; difference the counts dim times to isolate it
    vals = [sum(1 for m in _monos_of_degree(d + k, 3)
                if not M.contains_monomial(m)) for k in range(dim + 1)]
    for _ in range(dim):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    assert vals[0] == h.degree


def _monos_of_degree(d, n):
    for cuts in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        out = []
        for c in list(cuts) + [d + n - 1]:
            out.append(c - prev - 1)
            prev = c
        yield tuple(out)


# ---------------------------------------------------------------------------
# elimination, saturation, toric ideals
# ---------------------------------------------------------------------------

def test_eliminate_parabola():
    # project {y = x^2} to the y-line: no constraint on y alone, then
    # eliminate x from {y - x^2, z - x^3} to get the cuspidal relation
    I = ideal(["x1 - x0^2", "x2 - x0^3"], 3, RATIONAL)
    J = eliminate(I, [0])
    assert J.nvars == 2
    expected = parse_polynomial("x0^3 - x1^2", 2, RATIONAL, default_names(2))
    assert any(g.monic(GREVLEX) == expected.monic(GREVLEX)
               for g in J.generators)


def test_toric_twisted_cubic():
    I = toric_ideal([[3, 2, 1, 0], [0, 1, 2, 3]], F)
    assert dim_degree(I) == (1, 3)
    gb = buchberger(I)
    assert all(len(g.terms) == 2 for g in gb.elements)


def test_toric_segre():
    # P^1 x P^1 in P^3: single quadric x0 x3 - x1 x2
    A = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]]
    I = toric_ideal(A, F)
    assert len(I.generators) == 1
    assert I.generators[0].total_degree() == 2
    assert dim_degree(I) == (2, 2)


def test_toric_rejects_inhomogeneous_configuration():
    # t -> (t, t^2) has the non-homogeneous toric ideal <y0^2 - y1>
    with pytest.raises(ValueError, match="homogeneous"):
        toric_ideal([[1, 2]], F)


def test_toric_rejects_negative_exponent():
    with pytest.raises(ValueError, match="non-negative"):
        toric_ideal([[1, 1, 1], [0, 1, -1]], F)
