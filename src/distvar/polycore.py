"""Sparse multivariate polynomials, term orders, and coefficient domains.

A monomial is an exponent tuple (one non-negative int per ring variable).
A polynomial is a dict mapping exponent tuples to nonzero coefficients,
together with a variable count and a coefficient domain, F_p or Q; all
arithmetic is exact.  Term orders are grevlex, weight vectors with a
grevlex tiebreak, and two-block elimination orders.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

DEFAULT_PRIME = 30011


class DimensionError(ValueError):
    """Operands live in rings with different variable counts."""


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

#: Miller-Rabin with the first 13 prime bases decides primality exactly
#: below MILLER_RABIN_LIMIT, the least strong pseudoprime to all of them
#: (Sorenson and Webster, Math. Comp. 86, 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < MILLER_RABIN_LIMIT."""
    if n < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic modulo a prime p; elements are ints in [0, p)."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not (p < MILLER_RABIN_LIMIT and _is_prime(p)):
            raise ValueError(f"modulus must be a prime below "
                             f"{MILLER_RABIN_LIMIT}, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1

    def coerce(self, v):
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ValueError(f"coefficient {v} has no image mod {self.p}")
            return (v.numerator * self.inv(v.denominator)) % self.p
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalDomain:
    """Exact rationals via fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        return Fraction(v)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash("RationalDomain")

    def __repr__(self):
        return "Rational"


RATIONAL = RationalDomain()
GF = PrimeField  # convenience alias


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------

def _grevlex_key(e: Exponent) -> tuple:
    return (sum(e),) + tuple(-x for x in reversed(e))


@dataclass(frozen=True)
class TermOrder:
    """A total multiplicative order on monomials.

    kinds:
      grevlex           graded reverse lexicographic
      weighted          weight vector first, grevlex tiebreak
      block             eliminate the first ``block_size`` variables
                        (grevlex within each block)

    ``var_priority`` optionally permutes the variables: it lists variable
    indices from most to least significant.  For grevlex this makes the
    last listed variable the cheapest.
    """

    kind: str = "grevlex"
    weights: tuple[int, ...] | None = None
    block_size: int = 0
    var_priority: tuple[int, ...] | None = None

    def key_fn(self, nvars: int) -> Callable[[Exponent], tuple]:
        perm = self.var_priority
        if perm is not None and len(perm) != nvars:
            raise DimensionError(
                f"var_priority has length {len(perm)}, ring has {nvars} variables")

        if perm is None:
            reorder = lambda e: e
        else:
            reorder = lambda e: tuple(e[i] for i in perm)

        if self.kind == "grevlex":
            return lambda e: _grevlex_key(reorder(e))
        if self.kind == "weighted":
            w = self.weights
            if w is None or len(w) != nvars:
                raise DimensionError("weight vector length mismatch")
            return lambda e: (sum(wi * ei for wi, ei in zip(w, e)),) + _grevlex_key(reorder(e))
        if self.kind == "block":
            k = self.block_size
            if not 0 <= k <= nvars:
                raise DimensionError("block size out of range")

            def key(e, k=k, reorder=reorder):
                ep = reorder(e)
                return _grevlex_key(ep[:k]) + _grevlex_key(ep[k:])

            return key
        raise ValueError(f"unknown term order kind {self.kind!r}")


GREVLEX = TermOrder("grevlex")


def weighted_order(weights: Sequence[int]) -> TermOrder:
    return TermOrder("weighted", weights=tuple(weights))


def elimination_order(drop_vars: Iterable[int], nvars: int) -> TermOrder:
    """Block order putting ``drop_vars`` in the leading (eliminated) block."""
    drop = sorted(set(drop_vars))
    keep = [i for i in range(nvars) if i not in set(drop)]
    return TermOrder("block", block_size=len(drop), var_priority=tuple(drop + keep))


# ---------------------------------------------------------------------------
# monomial helpers
# ---------------------------------------------------------------------------

def mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.add, a, b))

def mono_div(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.sub, a, b))

def mono_divides(b: Exponent, a: Exponent) -> bool:
    """True iff monomial b divides monomial a."""
    return all(map(operator.le, b, a))

def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))

def mono_degree(a: Exponent) -> int:
    return sum(a)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Sparse polynomial: dict of exponent tuple -> nonzero coefficient."""

    __slots__ = ("terms", "nvars", "domain")

    def __init__(self, terms: Mapping[Exponent, object], nvars: int, domain=RATIONAL,
                 *, _clean: bool = False):
        if _clean:
            self.terms = dict(terms)
        else:
            clean = {}
            for m, c in terms.items():
                if len(m) != nvars:
                    raise DimensionError(f"exponent {m} in a {nvars}-variable ring")
                c = domain.coerce(c)
                if not domain.is_zero(c):
                    clean[m] = c
            self.terms = clean
        self.nvars = nvars
        self.domain = domain

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, domain=RATIONAL) -> "Polynomial":
        return cls({}, nvars, domain, _clean=True)

    @classmethod
    def constant(cls, c, nvars: int, domain=RATIONAL) -> "Polynomial":
        return cls({(0,) * nvars: c}, nvars, domain)

    @classmethod
    def variable(cls, i: int, nvars: int, domain=RATIONAL) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls({tuple(e): domain.one}, nvars, domain, _clean=True)

    @classmethod
    def monomial(cls, e: Exponent, nvars: int, domain=RATIONAL, coeff=1) -> "Polynomial":
        return cls({tuple(e): coeff}, nvars, domain)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self, order: TermOrder = GREVLEX) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        kf = order.key_fn(self.nvars)
        return max(self.terms, key=kf)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.domain == other.domain and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.domain, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"mixing rings with {self.nvars} and {other.nvars} variables")
        if self.domain != other.domain:
            raise ValueError(f"mixing domains {self.domain} and {other.domain}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars, self.domain)
        self._check(other)
        dom = self.domain
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = dom.add(out.get(m, dom.zero), c)
            if dom.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(out, self.nvars, dom, _clean=True)

    def __neg__(self):
        dom = self.domain
        return Polynomial({m: dom.neg(c) for m, c in self.terms.items()},
                          self.nvars, dom, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars, self.domain)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        dom = self.domain
        out: dict[Exponent, object] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                s = dom.add(out.get(m, dom.zero), dom.mul(ca, cb))
                if dom.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(out, self.nvars, dom, _clean=True)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Polynomial":
        dom = self.domain
        c = dom.coerce(c)
        if dom.is_zero(c):
            return Polynomial.zero(self.nvars, dom)
        return Polynomial({m: dom.mul(v, c) for m, v in self.terms.items()},
                          self.nvars, dom, _clean=True)

    def monic(self, order: TermOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.domain.inv(self.terms[self.leading_monomial(order)]))

    # -- structural maps ----------------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: replace variable i by images[i]."""
        if len(images) != self.nvars:
            raise DimensionError(
                f"{self.nvars} variables but {len(images)} images")
        if not images:
            raise DimensionError("empty image list")
        tgt_n = images[0].nvars
        tgt_dom = images[0].domain
        for q in images:
            if q.nvars != tgt_n or q.domain != tgt_dom:
                raise DimensionError("images live in different rings")
        out = Polynomial.zero(tgt_n, tgt_dom)
        # cache powers of each image
        powers: dict[tuple[int, int], Polynomial] = {}

        def img_pow(i, e):
            if e == 0:
                return Polynomial.constant(1, tgt_n, tgt_dom)
            got = powers.get((i, e))
            if got is None:
                got = img_pow(i, e - 1) * images[i]
                powers[(i, e)] = got
            return got

        for m, c in self.terms.items():
            term = Polynomial.constant(c, tgt_n, tgt_dom)
            for i, e in enumerate(m):
                if e:
                    term = term * img_pow(i, e)
            out = out + term
        return out

    def extend_ring(self, nvars: int, var_map: Sequence[int]) -> "Polynomial":
        """Reembed into a ring with ``nvars`` variables, old var i -> var_map[i]."""
        out = {}
        for m, c in self.terms.items():
            e = [0] * nvars
            for i, x in enumerate(m):
                if x:
                    e[var_map[i]] += x
            out[tuple(e)] = c
        return Polynomial(out, nvars, self.domain)

    def restrict_ring(self, keep: Sequence[int]) -> "Polynomial":
        """Project onto the subring of the kept variables.

        Every term must be supported on ``keep`` only.
        """
        keep = list(keep)
        dropped = set(range(self.nvars)) - set(keep)
        out = {}
        for m, c in self.terms.items():
            if any(m[i] for i in dropped):
                raise ValueError("term involves a dropped variable")
            out[tuple(m[i] for i in keep)] = c
        return Polynomial(out, len(keep), self.domain)

    # -- text format --------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r}, nvars={self.nvars}, domain={self.domain!r})"


# ---------------------------------------------------------------------------
# text format: sum of coeff*x0^a0*x1^a1 terms
# ---------------------------------------------------------------------------

def default_names(nvars: int) -> list[str]:
    return [f"x{i}" for i in range(nvars)]


def format_polynomial(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Terms in descending grevlex order."""
    if p.is_zero():
        return "0"
    if names is None:
        names = default_names(p.nvars)
    kf = GREVLEX.key_fn(p.nvars)
    parts = []
    for m in sorted(p.terms, key=kf, reverse=True):
        c = p.terms[m]
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(m) if e]
        neg = c < 0
        cs = str(-c if neg else c)
        if factors and cs == "1":
            body = "*".join(factors)
        elif factors:
            body = cs + "*" + "*".join(factors)
        else:
            body = cs
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def parse_polynomial(text: str, nvars: int, domain=RATIONAL,
                     names: Sequence[str] | None = None) -> Polynomial:
    """Parse the ``coeff*x0^a0*...`` sum-of-terms format.

    Variable tokens are ``names``, by default ``x0`` .. ``x<nvars-1>``.
    """
    import re

    if names is None:
        names = default_names(nvars)
    if len(names) != nvars:
        raise DimensionError(f"{len(names)} names for a {nvars}-variable ring")
    name_idx = {n: i for i, n in enumerate(names)}

    text = text.replace("-", "+-").replace(" ", "")
    tok = re.compile(r"([A-Za-z_][A-Za-z_0-9]*?)(?:\^(\d+))?$")
    terms: dict[Exponent, Fraction] = {}
    for chunk in (c for c in text.split("+") if c):
        coeff = Fraction(1)
        e = [0] * nvars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {chunk!r}")
            f = factor
            sign = 1
            while f.startswith("-"):
                sign = -sign
                f = f[1:]
            if re.fullmatch(r"\d+(/\d+)?(\.\d+)?", f):
                coeff *= sign * Fraction(f)
                continue
            m = tok.match(f)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            base, exp = m.group(1), int(m.group(2) or 1)
            if base not in name_idx:
                raise ValueError(f"unknown variable {base!r}")
            coeff *= sign
            e[name_idx[base]] += exp
        m = tuple(e)
        terms[m] = terms.get(m, Fraction(0)) + coeff
    return Polynomial(terms, nvars, domain)
