"""Buchberger engine over exact domains, plus the monomial-ideal toolkit.

The engine uses the Gebauer-Moeller pair criteria with sugar selection and
produces reduced, deterministically ordered Groebner bases.  Each basis
element's reducer (leading monomial, bitmask of the variables in it,
inverse leading coefficient, terms) is built once: when the element joins
the basis, or once per GroebnerBasis for normal forms.  Division and the
pair criteria test the bitmasks before comparing exponents (Bachmann and
Schoenemann, ISSAC 1998).  Monomial ideals
get saturation, Hilbert-series numerators, and (dimension, degree) via the
standard pivot recursion.  Images of monomial maps, toric ideals among
them, are computed by elimination from the graph of the map.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .polycore import (
    GREVLEX,
    Exponent,
    Polynomial,
    TermOrder,
    elimination_order,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    weighted_order,
)


class BudgetError(RuntimeError):
    """A Groebner computation exceeded its pair/step budget."""


DEFAULT_MAX_PAIRS = 200_000


# ---------------------------------------------------------------------------
# ideals and bases
# ---------------------------------------------------------------------------

@dataclass
class Ideal:
    generators: list[Polynomial]
    nvars: int
    domain: object

    def __post_init__(self):
        self.generators = [g for g in self.generators if not g.is_zero()]
        for g in self.generators:
            if g.nvars != self.nvars:
                raise ValueError("generator in wrong ring")
            if g.domain != self.domain:
                raise ValueError("generator in wrong domain")

    def over(self, domain) -> "Ideal":
        """The ideal with its rational coefficients mapped into ``domain``.

        Raises ValueError when a nonzero coefficient maps to zero: the
        image would define another variety, so results computed from it
        would depend on the prime.
        """
        gens = []
        for g in self.generators:
            terms = {}
            for m, c in g.terms.items():
                terms[m] = domain.coerce(c)
                if domain.is_zero(terms[m]):
                    raise ValueError(f"coefficient {c} vanishes in {domain!r}, "
                                     "which would change the variety")
            gens.append(Polynomial(terms, self.nvars, domain, _clean=True))
        return Ideal(gens, self.nvars, domain)


@dataclass
class GroebnerBasis:
    elements: list[Polynomial]
    order: TermOrder

    @cached_property
    def reducers(self) -> list[tuple]:
        """Division data of the elements, built on first use (so
        ``elements`` must not change afterwards); raises ValueError where
        reduction need not terminate."""
        _check_termination(self.order, self.elements)
        return [_make_reducer(g.terms, self.order.key_fn(g.nvars), g.domain)
                for g in self.elements]

    def leading_monomials(self) -> list[Exponent]:
        return [g.leading_monomial(self.order) for g in self.elements]


# ---------------------------------------------------------------------------
# division / normal form
# ---------------------------------------------------------------------------

def _support(m: Exponent) -> int:
    """Bitmask of the variables that occur in m."""
    bits = 0
    for i, e in enumerate(m):
        if e:
            bits |= 1 << i
    return bits


def _make_reducer(terms: dict, keyf, dom):
    """(lm, support mask of lm, 1/lc, term list) for use by _reduce_full."""
    lm = max(terms, key=keyf)
    return (lm, _support(lm), dom.inv(terms[lm]), list(terms.items()))


def _reduce_full(terms, reducers, dom, keyf) -> dict:
    """Fully reduce ``terms`` (a dict or (m, c) pairs) modulo ``reducers``,
    a list of _make_reducer tuples; the first divisor in list order is used.
    """
    work = dict(terms)
    out: dict[Exponent, object] = {}
    heap = [(tuple(-k for k in keyf(m)), m) for m in work]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if c is None or dom.is_zero(c):
            work.pop(m, None)
            continue
        # a reducer whose lm uses a variable absent from m cannot divide m
        off = ~_support(m)
        for lm, mask, lci, items in reducers:
            if not mask & off and mono_divides(lm, m):
                break
        else:
            out[m] = c
            del work[m]
            continue
        q = mono_div(m, lm)
        factor = dom.mul(c, lci)
        for mg, cg in items:
            nm = mono_mul(q, mg)
            prev = work.get(nm)
            if prev is None:
                nv = dom.neg(dom.mul(factor, cg))
                if not dom.is_zero(nv):
                    work[nm] = nv
                    heapq.heappush(heap, (tuple(-k for k in keyf(nm)), nm))
            else:
                nv = dom.sub(prev, dom.mul(factor, cg))
                if dom.is_zero(nv):
                    del work[nm]
                else:
                    work[nm] = nv
    return out


def _check_termination(order: TermOrder, polys) -> None:
    """A weight order with a negative weight is not a well-order, so
    reduction terminates only against homogeneous polynomials."""
    if (order.kind == "weighted" and any(w < 0 for w in order.weights)
            and not all(g.is_homogeneous() for g in polys)):
        raise ValueError("weight order with negative weights needs "
                         "homogeneous generators")


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by G; no term divisible by any lm(G)."""
    if G.elements and G.elements[0].nvars != f.nvars:
        raise ValueError("polynomial and basis in different rings")
    keyf = G.order.key_fn(f.nvars)
    out = _reduce_full(f.terms, G.reducers, f.domain, keyf)
    return Polynomial(out, f.nvars, f.domain, _clean=True)


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moeller criteria and sugar selection
# ---------------------------------------------------------------------------

def buchberger(I: Ideal, order: TermOrder = GREVLEX,
               max_pairs: int = DEFAULT_MAX_PAIRS) -> GroebnerBasis:
    """Reduced Groebner basis of I; deterministic for fixed input.

    A weight order with a negative weight is not a well-order, so
    reduction terminates only on homogeneous input; other input raises
    ValueError.
    """
    _check_termination(order, I.generators)
    dom = I.domain
    n = I.nvars
    keyf = order.key_fn(n)

    reducers: list[tuple] = []  # _make_reducer tuples of the monic elements
    lms: list[Exponent] = []
    masks: list[int] = []       # support masks of lms
    sugars: list[int] = []
    pairs: list[tuple] = []     # heap of (sugar, lcm_key, i, j)
    alive_pairs: dict[tuple[int, int], tuple[Exponent, int]] = {}  # lcm, mask

    def add_poly(terms: dict, sugar: int):
        """Monic-ize, append, and update the pair set (Gebauer-Moeller)."""
        lm = max(terms, key=keyf)
        lc = terms[lm]
        if lc != dom.one:
            lci = dom.inv(lc)
            terms = {m: dom.mul(c, lci) for m, c in terms.items()}
        lm_mask = _support(lm)
        t = len(reducers)
        # new candidate pairs; the support of an lcm is the union of supports
        cands = [(i, mono_lcm(lms[i], lm), masks[i] | lm_mask)
                 for i in range(t)]
        # criterion M/F: drop (i, t) if some other new pair's lcm divides its
        # lcm; among equal lcms keep the first.
        keep: list[tuple[int, Exponent, int]] = []
        for i, L, mL in cands:
            off = ~mL
            dominated = False
            for j, L2, m2 in cands:
                if j == i:
                    continue
                if L2 == L:
                    if j < i:
                        dominated = True
                        break
                elif not m2 & off and mono_divides(L2, L):
                    dominated = True
                    break
            if not dominated:
                keep.append((i, L, mL))
        # criterion B (chain): prune old pairs whose lcm is a proper multiple
        for (i, j), (L, mL) in list(alive_pairs.items()):
            if (not lm_mask & ~mL and mono_divides(lm, L)
                    and mono_lcm(lms[i], lm) != L
                    and mono_lcm(lms[j], lm) != L):
                del alive_pairs[(i, j)]
        # product criterion: coprime leading monomials need no reduction
        for i, L, mL in keep:
            if L == mono_mul(lms[i], lm):
                continue
            s = max(sugars[i] + mono_degree(mono_div(L, lms[i])),
                    sugar + mono_degree(mono_div(L, lm)))
            alive_pairs[(i, t)] = (L, mL)
            heapq.heappush(pairs, (s, keyf(L), i, t))
        reducers.append((lm, lm_mask, dom.one, list(terms.items())))
        lms.append(lm)
        masks.append(lm_mask)
        sugars.append(sugar)

    # seed with the input generators, interreducing as we go
    for g in sorted(I.generators, key=lambda p: keyf(p.leading_monomial(order))):
        red = _reduce_full(g.terms, reducers, dom, keyf)
        if red:
            add_poly(red, max(mono_degree(m) for m in red))

    steps = 0
    while pairs:
        s, _, i, j = heapq.heappop(pairs)
        if alive_pairs.pop((i, j), None) is None:
            continue
        steps += 1
        if steps > max_pairs:
            raise BudgetError(f"pair budget {max_pairs} exceeded")
        L = mono_lcm(lms[i], lms[j])
        qi, qj = mono_div(L, lms[i]), mono_div(L, lms[j])
        spoly: dict[Exponent, object] = {}
        for m, c in reducers[i][3]:
            spoly[mono_mul(qi, m)] = c
        for m, c in reducers[j][3]:
            nm = mono_mul(qj, m)
            prev = spoly.get(nm)
            nv = dom.neg(c) if prev is None else dom.sub(prev, c)
            if dom.is_zero(nv):
                spoly.pop(nm, None)
            else:
                spoly[nm] = nv
        red = _reduce_full(spoly, reducers, dom, keyf)
        if red:
            add_poly(red, s)

    return _reduce_basis(reducers, n, dom, order, keyf)


def _reduce_basis(reducers, n, dom, order, keyf) -> GroebnerBasis:
    # minimalize: drop elements whose lm is divisible by another lm.  Sort
    # by degree first: under a non-global order (weighted(-u)) a divisor
    # can follow its multiple in term order, never in degree.
    lms = [r[0] for r in reducers]
    idx = sorted(range(len(reducers)),
                 key=lambda i: (mono_degree(lms[i]), keyf(lms[i])))
    minimal: list[int] = []
    for i in idx:
        if not any(mono_divides(lms[j], lms[i]) for j in minimal):
            minimal.append(i)
    # tail-reduce each survivor against the others
    out = []
    for i in minimal:
        others = [reducers[j] for j in minimal if j != i]
        red = _reduce_full(reducers[i][3], others, dom, keyf)
        lm = max(red, key=keyf)
        lci = dom.inv(red[lm])
        red = {m: dom.mul(c, lci) for m, c in red.items()}
        out.append(Polynomial(red, n, dom, _clean=True))
    out.sort(key=lambda p: keyf(p.leading_monomial(order)))
    return GroebnerBasis(out, order)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    L = mono_lcm(lf, lg)
    dom = f.domain
    mf = Polynomial.monomial(mono_div(L, lf), f.nvars, dom,
                             dom.inv(f.terms[lf]))
    mg = Polynomial.monomial(mono_div(L, lg), g.nvars, dom,
                             dom.inv(g.terms[lg]))
    return mf * f - mg * g


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators (no generator divides another)."""

    gens: tuple[Exponent, ...]
    nvars: int

    @classmethod
    def of(cls, monomials, nvars: int) -> "MonomialIdeal":
        return cls(tuple(_minimalize(list(monomials))), nvars)

    def is_zero(self) -> bool:
        return not self.gens

    def contains_monomial(self, m: Exponent) -> bool:
        return any(mono_divides(g, m) for g in self.gens)


def _minimalize(monos: list[Exponent]) -> list[Exponent]:
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out: list[Exponent] = []
    for m in monos:
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def initial_ideal(I: Ideal, u, max_pairs: int = DEFAULT_MAX_PAIRS) -> MonomialIdeal:
    """in_{-u}(I): leading monomials under weighted(-u) with grevlex tiebreak."""
    order = weighted_order([-w for w in u])
    gb = buchberger(I, order, max_pairs)
    return MonomialIdeal.of(gb.leading_monomials(), I.nvars)


def leading_ideal(gb: GroebnerBasis, nvars: int) -> MonomialIdeal:
    return MonomialIdeal.of(gb.leading_monomials(), nvars)


def saturate_variable(M: MonomialIdeal, j: int) -> MonomialIdeal:
    """M : <x_j>^infinity -- strip all x_j powers from each generator."""
    stripped = []
    for m in M.gens:
        e = list(m)
        e[j] = 0
        stripped.append(tuple(e))
    return MonomialIdeal.of(stripped, M.nvars)


# -- Hilbert series ---------------------------------------------------------

@dataclass(frozen=True)
class HilbertData:
    projective_dimension: int       # -1 for the empty scheme
    degree: int


def _poly1_add(a, b):
    n = max(len(a), len(b))
    return [ (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
             for i in range(n) ]


def _poly1_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _hilbert_numerator(gens: tuple[Exponent, ...], memo: dict) -> list[int]:
    """Numerator of the Hilbert series of R/<gens> over (1-t)^nvars."""
    if not gens:
        return [1]
    if any(sum(m) == 0 for m in gens):
        return [0]
    key = gens
    got = memo.get(key)
    if got is not None:
        return got
    # base case: pairwise disjoint supports form a regular sequence
    supports = [tuple(i for i, e in enumerate(m) if e) for m in gens]
    flat = [i for s in supports for i in s]
    if len(flat) == len(set(flat)):
        out = [1]
        for m in gens:
            f = [0] * (sum(m) + 1)
            f[0], f[-1] = 1, -1
            out = _poly1_mul(out, f)
        memo[key] = out
        return out
    # pivot on the variable hitting the most generators
    nvars = len(gens[0])
    counts = [0] * nvars
    for s in supports:
        if len(s) > 1:
            for i in s:
                counts[i] += 1
    j = max(range(nvars), key=lambda i: counts[i])
    colon = []
    plus = []
    for m in gens:
        if m[j]:
            e = list(m)
            e[j] -= 1
            colon.append(tuple(e))
        else:
            plus.append(m)
            colon.append(m)
    pivot = tuple(1 if i == j else 0 for i in range(nvars))
    plus.append(pivot)
    h_plus = _hilbert_numerator(tuple(_minimalize(plus)), memo)
    h_colon = _hilbert_numerator(tuple(_minimalize(colon)), memo)
    out = _poly1_add(h_plus, [0] + h_colon)
    memo[key] = out
    return out


def hilbert_dim_degree(M: MonomialIdeal) -> HilbertData:
    """Projective (dimension, degree) of R/M via the Hilbert numerator.

    The unit ideal reports dimension -1 and degree 0.
    """
    q = _hilbert_numerator(M.gens, {})
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return HilbertData(-1, 0)
    c = 0
    while sum(q) == 0:
        # divide by (1 - t)
        out = [0] * (len(q) - 1)
        acc = 0
        for i in range(len(q) - 1):
            acc += q[i]
            out[i] = acc
        q = out
        c += 1
    return HilbertData(M.nvars - 1 - c, sum(q))


def dim_degree(I: Ideal, max_pairs: int = DEFAULT_MAX_PAIRS) -> tuple[int, int]:
    """(projective dimension, degree) of V(I) via a grevlex initial ideal."""
    gb = buchberger(I, GREVLEX, max_pairs)
    M = leading_ideal(gb, I.nvars)
    h = hilbert_dim_degree(M)
    return h.projective_dimension, h.degree


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def eliminate(I: Ideal, drop_vars, max_pairs: int = DEFAULT_MAX_PAIRS) -> Ideal:
    """Generators of I intersected with the subring without ``drop_vars``.

    The result lives in the smaller ring of the kept variables, in their
    original relative order.
    """
    drop = sorted(set(drop_vars))
    keep = [i for i in range(I.nvars) if i not in set(drop)]
    order = elimination_order(drop, I.nvars)
    gb = buchberger(I, order, max_pairs)
    kept = [g for g in gb.elements
            if all(all(m[i] == 0 for i in drop) for m in g.terms)]
    gens = [g.restrict_ring(keep) for g in kept]
    return Ideal(gens, len(keep), I.domain)


# ---------------------------------------------------------------------------
# images of monomial maps
# ---------------------------------------------------------------------------

def image_ideal(A: list[list[int]], relations, domain,
                max_pairs: int = DEFAULT_MAX_PAIRS) -> Ideal:
    """Ideal of the closure of the image of V(relations) in K^d under the
    monomial map t -> (t^{a_1}, ..., t^{a_m}), a_j the columns of A.

    ``relations`` are polynomials in the d variables t.  The graph ideal
    <y_j - t^{a_j}> + relations lives in K[y, t] with y first; its
    elimination ideal is returned in K[y] as a reduced grevlex basis.
    """
    if any(e < 0 for row in A for e in row):
        raise ValueError("exponent matrix must be non-negative")
    d, m = len(A), len(A[0])
    nv = m + d
    t = list(range(m, nv))
    gens = [g.extend_ring(nv, t) for g in relations]
    for j in range(m):
        e = (0,) * m + tuple(row[j] for row in A)
        gens.append(Polynomial.variable(j, nv, domain)
                    - Polynomial.monomial(e, nv, domain))
    return eliminate(Ideal(gens, nv, domain), t, max_pairs)


def toric_ideal(A: list[list[int]], domain=None) -> Ideal:
    """Prime toric ideal of the monomial parametrization with exponent matrix A.

    Columns of A are the non-negative exponent vectors; the row space of A
    must contain the all-ones vector (projective/homogeneous configuration),
    which holds exactly when every reduced generator is homogeneous.
    Computed by elimination from the graph of the parametrization.
    """
    from .polycore import RATIONAL

    if domain is None:
        domain = RATIONAL
    I = image_ideal(A, [], domain)
    if not all(g.is_homogeneous() for g in I.generators):
        raise ValueError("configuration is not homogeneous "
                         "(all-ones vector not in the row space)")
    return I
