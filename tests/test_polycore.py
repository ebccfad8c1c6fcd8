import math

import pytest
from hypothesis import given, settings, strategies as st

from distvar.polycore import (
    GF,
    GREVLEX,
    RATIONAL,
    Polynomial,
    default_names,
    elimination_order,
    format_polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
    weighted_order,
)

from oracles import evaluate, power

F = GF(30011)


def poly(text, nvars=3, domain=RATIONAL):
    return parse_polynomial(text, nvars, domain, default_names(nvars))


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_prime_field_arithmetic():
    p = 30011
    assert F.add(p - 1, 1) == 0
    assert F.mul(F.inv(7), 7) == 1
    assert F.neg(0) == 0
    assert F.coerce(-1) == p - 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        GF(1)


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _is_field(n):
    try:
        GF(n)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", [
    30012,                          # GF(30012).inv(2) used to return 1024
    -7, 0, 1,
    561,                            # a Carmichael number
    3215031751,                     # strong pseudoprime to bases 2, 3, 5, 7
    318665857834031151167461,       # strong pseudoprime to bases 2, ..., 37
    3317044064679887385961981,      # ... and to 41: past the exact range
])
def test_prime_field_rejects_composite_modulus(n):
    with pytest.raises(ValueError, match="prime"):
        GF(n)


def test_prime_field_accepts_exactly_the_primes():
    assert ([n for n in range(3000) if _is_field(n)]
            == [n for n in range(3000) if _trial_division_prime(n)])
    assert _is_field(2**61 - 1) and _is_field(30011)


def test_gf_equality():
    assert GF(30011) == GF(30011)
    assert GF(30011) != GF(7)


def test_rational_exactness():
    third = RATIONAL.inv(RATIONAL.coerce(3))
    assert RATIONAL.mul(third, RATIONAL.coerce(3)) == 1


# ---------------------------------------------------------------------------
# monomials and orders
# ---------------------------------------------------------------------------

def test_monomial_helpers():
    a, b = (2, 0, 1), (1, 1, 0)
    assert mono_mul(a, b) == (3, 1, 1)
    assert mono_lcm(a, b) == (2, 1, 1)
    assert mono_divides(b, (1, 2, 0))
    assert not mono_divides(a, b)
    assert mono_div((3, 1, 1), a) == (1, 1, 0)
    assert mono_degree(a) == 3


def test_grevlex_classic_order():
    # x^2 > xy > y^2 > xz > yz > z^2 in grevlex with x > y > z
    key = GREVLEX.key_fn(3)
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(monos, key=key, reverse=True) == monos


def test_weighted_order_refines_weight():
    order = weighted_order([1, 3, 0])
    key = order.key_fn(3)
    assert key((0, 1, 0)) > key((2, 0, 0))  # weight 3 beats weight 2


def test_elimination_order_blocks():
    order = elimination_order([0], 3)
    key = order.key_fn(3)
    # any power of the dropped variable beats anything without it
    assert key((1, 0, 0)) > key((0, 9, 9))


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def test_basic_arithmetic():
    x = Polynomial.variable(0, 2, RATIONAL)
    y = Polynomial.variable(1, 2, RATIONAL)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.total_degree() == 2


def test_power():
    x = Polynomial.variable(0, 2, RATIONAL)
    y = Polynomial.variable(1, 2, RATIONAL)
    q = power(x + y, 5)
    assert len(q.terms) == 6
    assert q.terms[(3, 2)] == 10


def test_leading_data_and_monic():
    p = poly("2*x0^2 + 3*x1*x2 + x2")
    assert p.leading_monomial(GREVLEX) == (2, 0, 0)
    m = p.monic(GREVLEX)
    assert m.terms[m.leading_monomial(GREVLEX)] == 1


def test_homogeneity():
    assert poly("x0^2 + x1*x2").is_homogeneous()
    assert not poly("x0^2 + x1").is_homogeneous()


def test_substitute_and_evaluate():
    p = poly("x0^2*x1 - x2")
    assert evaluate(p, [2, 3, 5]) == 7
    # substituting x2 -> x0^2*x1 kills the polynomial
    sub = p.substitute([poly("x0"), poly("x1"), poly("x0^2*x1")])
    assert sub.is_zero()


def test_extend_and_restrict_ring():
    p = poly("x0*x1 + x2", 3)
    q = p.extend_ring(5, [1, 3, 4])
    assert q.nvars == 5
    assert q.restrict_ring([1, 3, 4]) == p


def test_parse_format_round_trip():
    text = "x0^3 - 2*x0*x1*x2 + x2^3"
    p = poly(text)
    assert poly(format_polynomial(p, default_names(3))) == p


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse_polynomial("w^2", 3, RATIONAL, default_names(3))


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

coeffs = st.integers(min_value=-20, max_value=20)
exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


def poly_strategy():
    return st.dictionaries(exps, coeffs, min_size=0, max_size=6).map(
        lambda d: Polynomial(d, 3, F))


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(poly_strategy())
@settings(max_examples=60, deadline=None)
def test_additive_inverse(p):
    assert (p + (-p)).is_zero()
    assert p - p == Polynomial.zero(3, F)


@given(poly_strategy(), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_power_matches_repeated_product(p, k):
    expected = Polynomial.constant(F.one, 3, F)
    for _ in range(k):
        expected = expected * p
    assert power(p, k) == expected
