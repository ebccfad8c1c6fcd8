"""Distortion geometry: scrolls, distorted monomials, degree formulas,
and multi-parameter (Cayley) configurations.

A distortion vector u duplicates the coordinate x_j of P^n into the
group x_{j,0}, ..., x_{j,u_j}, where x_{j,a} stands for x_j * lambda^a.
The ambient space is P^N with N = |u| + n, and the closure of the image
of P^n x C is the rational normal scroll S_u cut out by the 2x2 minors
of a concatenated Hankel matrix.  A projective variety X in P^n lifts
to its distortion variety X_[u] = closure of {(x, lambda) distorted},
of dimension dim X + 1.  Its degree comes from the monomial ideal
in_{-u}(X) alone: the ideal of X is homogeneous, so in_{-u}(X) has the
Hilbert function of X and gives dim X as well as the saturations that
the degree formula sums over.

Conventions.  Standard monomials follow the fill-from-back rule: extra
lambda-weight is pushed into the highest-indexed groups first, and
within a group onto the top coordinate x_{j,u_j}.  The scroll term
order is chosen so that the Hankel minors form a Groebner basis whose
leading terms are exactly the non-standard quadratic monomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polycore import (
    Exponent,
    Polynomial,
    TermOrder,
    weighted_order,
)
from .groebner import (
    DEFAULT_MAX_PAIRS,
    Ideal,
    buchberger,
    hilbert_dim_degree,
    image_ideal,
    initial_ideal,
    saturate_variable,
    toric_ideal,
)


# ---------------------------------------------------------------------------
# distortion vectors and scroll coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistortionVector:
    """Non-negative integer vector u over the n+1 coordinates of P^n."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or all(e == 0 for e in self.entries):
            raise ValueError("distortion vector must be nonzero")
        if any(e < 0 for e in self.entries):
            raise ValueError("distortion entries must be non-negative")

    @classmethod
    def of(cls, u) -> "DistortionVector":
        return u if isinstance(u, cls) else cls(tuple(int(e) for e in u))

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    @property
    def total(self) -> int:
        return sum(self.entries)

    @property
    def ambient_nvars(self) -> int:
        """N + 1 where N = |u| + n."""
        return self.total + len(self.entries)

    def group_offset(self, j: int) -> int:
        """Flat index of x_{j,0} in the ambient coordinate list."""
        return sum(self.entries[k] + 1 for k in range(j)) + 0

    def var_index(self, j: int, a: int) -> int:
        if not 0 <= a <= self.entries[j]:
            raise ValueError(f"index {a} outside group {j} of size {self.entries[j] + 1}")
        return self.group_offset(j) + a

    def hankel_columns(self) -> list[tuple[int, int]]:
        """(j, a) pairs indexing the |u| columns (x_{j,a}, x_{j,a+1})."""
        return [(j, a) for j, uj in enumerate(self.entries) for a in range(uj)]


def scroll_names(u, base_names) -> list[str]:
    """Ambient coordinate names: x_{j,0} keeps the base name, higher
    lambda-powers get an _a suffix."""
    u = DistortionVector.of(u)
    names = []
    for j, uj in enumerate(u.entries):
        names.append(base_names[j])
        for a in range(1, uj + 1):
            names.append(f"{base_names[j]}_{a}")
    return names


def scroll_minors(u, domain=None) -> list[Polynomial]:
    """The C(|u|, 2) binomial 2x2 minors cutting out the scroll S_u."""
    from .polycore import RATIONAL

    u = DistortionVector.of(u)
    if domain is None:
        domain = RATIONAL
    nv = u.ambient_nvars
    cols = [(u.var_index(j, a), u.var_index(j, a + 1))
            for j, a in u.hankel_columns()]
    out = []
    for i in range(len(cols)):
        ti, bi = cols[i]
        for k in range(i + 1, len(cols)):
            tk, bk = cols[k]
            top = [0] * nv
            top[ti] += 1
            top[bk] += 1
            bot = [0] * nv
            bot[bi] += 1
            bot[tk] += 1
            out.append(Polynomial({tuple(top): domain.one,
                                   tuple(bot): domain.neg(domain.one)},
                                  nv, domain, _clean=True))
    return out


def scroll_order(u) -> TermOrder:
    """Term order making the Hankel minors a Groebner basis with the
    fill-from-back monomials standard.

    The weight increment from x_{j,a} to x_{j,a+1} decreases strictly
    along the flattened column positions, so each minor's leading term
    pairs the later coordinate of the earlier column with the earlier
    coordinate of the later column.
    """
    u = DistortionVector.of(u)
    total = u.total
    weights = [0] * u.ambient_nvars
    pos = 0
    for j, uj in enumerate(u.entries):
        w = 0
        weights[u.var_index(j, 0)] = 0
        for a in range(uj):
            w += total - pos
            pos += 1
            weights[u.var_index(j, a + 1)] = w
    return weighted_order(weights)


# ---------------------------------------------------------------------------
# the unique i-th distortion of a monomial
# ---------------------------------------------------------------------------

def monomial_capacity(nu: Exponent, u) -> int:
    """Max lambda-degree nu . u carried by the monomial x^nu."""
    u = DistortionVector.of(u)
    return sum(e * w for e, w in zip(nu, u.entries))


def distort_monomial(nu: Exponent, i: int, u) -> Exponent:
    """The unique standard ambient monomial over x^nu of weight i.

    Fill from the back: the highest-indexed groups absorb as much
    weight as they can; inside the active group, weight w splits as
    q = w // u_j full top coordinates plus one coordinate x_{j, w % u_j}.
    """
    u = DistortionVector.of(u)
    if len(nu) != u.n + 1:
        raise ValueError(f"monomial has {len(nu)} exponents, u has {u.n + 1}")
    cap = monomial_capacity(nu, u)
    if not 0 <= i <= cap:
        raise ValueError(f"distortion index {i} outside [0, {cap}]")
    out = [0] * u.ambient_nvars
    remaining = i
    for j in range(u.n, -1, -1):
        nj, uj = nu[j], u.entries[j]
        w = min(remaining, nj * uj)
        remaining -= w
        base = u.group_offset(j)
        if w == 0 or uj == 0:
            out[base] += nj
            continue
        q, rem = divmod(w, uj)
        out[base + uj] += q
        left = nj - q
        if rem:
            out[base + rem] += 1
            left -= 1
        out[base] += left
    return tuple(out)


def distortion_weight(m: Exponent, u) -> int:
    """Lambda-degree of an ambient monomial (sum of within-group indices)."""
    u = DistortionVector.of(u)
    total = 0
    for j, a in [(j, a) for j, uj in enumerate(u.entries) for a in range(uj + 1)]:
        total += a * m[u.var_index(j, a)]
    return total


def undistort_monomial(m: Exponent, u) -> Exponent:
    """Collapse an ambient monomial back to its P^n exponent vector."""
    u = DistortionVector.of(u)
    nu = [0] * (u.n + 1)
    for j, uj in enumerate(u.entries):
        base = u.group_offset(j)
        nu[j] = sum(m[base + a] for a in range(uj + 1))
    return tuple(nu)


def min_weight(p: Polynomial, u) -> int:
    """Largest i such that the i-th distortion of p exists."""
    if p.is_zero():
        raise ValueError("zero polynomial has no distortions")
    return min(monomial_capacity(nu, u) for nu in p.terms)


def distort_polynomial(p: Polynomial, i: int, u) -> Polynomial:
    """Replace each monomial of p by its i-th distortion.

    Substituting the scroll parametrization into the result gives
    lambda^i * p identically.
    """
    u = DistortionVector.of(u)
    if i > min_weight(p, u):
        raise ValueError(f"distortion index {i} exceeds the minimum weight")
    out = {distort_monomial(nu, i, u): c for nu, c in p.terms.items()}
    return Polynomial(out, u.ambient_nvars, p.domain, _clean=True)


def distortion_ideal_generators(I: Ideal, u,
                                max_pairs: int = DEFAULT_MAX_PAIRS) -> Ideal:
    """Generators of I(X_[u]): Hankel minors plus all distortions of the
    reduced Groebner basis of I under a weight order refining -u."""
    u = DistortionVector.of(u)
    if u.n + 1 != I.nvars:
        raise ValueError("distortion vector length does not match the ring")
    order = weighted_order([-w for w in u.entries])
    gb = buchberger(I, order, max_pairs)
    gens = scroll_minors(u, I.domain)
    for p in gb.elements:
        for i in range(min_weight(p, u) + 1):
            gens.append(distort_polynomial(p, i, u))
    return Ideal(gens, u.ambient_nvars, I.domain)


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def degree_bound(deg_x: int, codim: int, u) -> int:
    """deg(X) times the sum of the (n - codim + 1) largest entries of u."""
    u = DistortionVector.of(u)
    if not 0 <= codim <= u.n:
        raise ValueError(f"codimension {codim} outside 0..{u.n}")
    top = sorted(u.entries, reverse=True)[: u.n - codim + 1]
    return deg_x * sum(top)


def distortion_degree(I: Ideal, u, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """Exact degree of X_[u] by the Chow-point saturation formula.

    Sums u_j times the degree of in_{-u}(X) : <x_j>^inf over all j,
    counting only saturations whose dimension equals dim X (lower
    dimensional components do not contribute to the Chow cycle).  I is
    homogeneous (the weight order rejects anything else), so in_{-u}(X)
    has the Hilbert function of X and gives dim X as well.
    """
    u = DistortionVector.of(u)
    if u.n + 1 != I.nvars:
        raise ValueError("distortion vector length does not match the ring")
    M = initial_ideal(I, u.entries, max_pairs)
    dim_x = hilbert_dim_degree(M).projective_dimension
    total = 0
    for j, uj in enumerate(u.entries):
        if uj == 0:
            continue
        h = hilbert_dim_degree(saturate_variable(M, j))
        if h.projective_dimension == dim_x:
            total += uj * h.degree
    return total


def tropical_hypersurface_degree(psi: Polynomial, u) -> int:
    """d * |u| minus the tropical min of u over the support of psi."""
    u = DistortionVector.of(u)
    if psi.is_zero():
        raise ValueError("zero polynomial does not define a hypersurface")
    if not psi.is_homogeneous():
        raise ValueError("hypersurface equation must be homogeneous")
    d = psi.total_degree()
    return d * u.total - min_weight(psi, u)


# ---------------------------------------------------------------------------
# multi-parameter configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiParamConfig:
    """Groups of lambda-exponent vectors in N^r, one group per coordinate.

    Group i lists the monomials lambda^{u_{i,1}}, ..., lambda^{u_{i,s_i}}
    multiplying x_i; the order of the points fixes the order of the
    ambient coordinates.
    """

    r: int
    groups: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        for gi in self.groups:
            if not gi:
                raise ValueError("empty distortion group")
            for pt in gi:
                if len(pt) != self.r:
                    raise ValueError(f"point {pt} is not in N^{self.r}")
                if any(e < 0 for e in pt):
                    raise ValueError(f"point {pt} has a negative exponent")
            if len(set(gi)) != len(gi):
                raise ValueError("repeated point in a distortion group")

    @classmethod
    def of(cls, r: int, groups) -> "MultiParamConfig":
        return cls(r, tuple(tuple(tuple(int(e) for e in pt) for pt in gi)
                            for gi in groups))

    @classmethod
    def from_distortion_vector(cls, u) -> "MultiParamConfig":
        u = DistortionVector.of(u)
        return cls(1, tuple(tuple((a,) for a in range(uj + 1))
                            for uj in u.entries))


def cayley_parametrization(cfg: MultiParamConfig) -> list[list[int]]:
    """Exponent matrix of the Cayley parametrization m_{i,j} = x_i l^{u_ij}.

    Rows: one indicator row per coordinate group (the x_i exponents)
    followed by r lambda rows.  Columns follow the flattened group
    order.  Feeding this to toric_ideal yields I(C_u).
    """
    n1 = len(cfg.groups)
    cols = [(i, pt) for i, gi in enumerate(cfg.groups) for pt in gi]
    rows = []
    for i in range(n1):
        rows.append([1 if ci == i else 0 for ci, _ in cols])
    for k in range(cfg.r):
        rows.append([pt[k] for _, pt in cols])
    return rows


def cayley_ideal(cfg: MultiParamConfig, domain=None) -> Ideal:
    """Toric ideal of the Cayley variety C_u."""
    return toric_ideal(cayley_parametrization(cfg), domain)


def iterated_decomposition(cfg: MultiParamConfig):
    """Split a two-parameter configuration into successive one-parameter
    distortions: u_i = {(s, t) : 0 <= s <= v_i, 0 <= t <= w_{i,s}}.

    Returns (v, w) with v a tuple of ints and w a tuple of int tuples
    (w[i][s] for s = 0..v[i]), or None when some fiber is not an
    initial segment of N.  Configurations whose groups are order
    ideals always succeed.
    """
    if cfg.r != 2:
        raise ValueError("iterated decomposition implemented for r = 2")
    v = []
    w = []
    for gi in cfg.groups:
        firsts = {pt[0] for pt in gi}
        vi = max(firsts)
        if firsts != set(range(vi + 1)):
            return None
        wi = []
        for s in range(vi + 1):
            fiber = {pt[1] for pt in gi if pt[0] == s}
            wis = max(fiber)
            if fiber != set(range(wis + 1)):
                return None
            wi.append(wis)
        v.append(vi)
        w.append(tuple(wi))
    return tuple(v), tuple(w)


def flatten_second_level(v, w) -> DistortionVector:
    """The w-vector read over the coordinates of the intermediate scroll
    S_v, in flattened group order."""
    flat = []
    for vi, wi in zip(v, w):
        assert len(wi) == vi + 1
        flat.extend(wi)
    return DistortionVector(tuple(flat))


def multi_distortion_generators(I: Ideal, cfg: MultiParamConfig, method: str,
                                max_pairs: int = DEFAULT_MAX_PAIRS) -> Ideal:
    """Generators of the multi-parameter distortion variety X_[u].

    method "eliminate" implicitizes the image of V(I) under the Cayley
    map; "iterate" uses the decomposition X_[u] = (X_[v])_[w] and
    requires a two-parameter initial-segment configuration.  The two
    routes are each other's oracle.  ``max_pairs`` bounds each Buchberger
    run of either route.
    """
    if len(cfg.groups) != I.nvars:
        raise ValueError("configuration length does not match the ring")
    if method == "iterate":
        dec = iterated_decomposition(cfg)
        if dec is None:
            raise ValueError("configuration does not decompose into "
                             "successive one-parameter distortions")
        v, w = dec
        inner = distortion_ideal_generators(I, DistortionVector(v), max_pairs)
        return distortion_ideal_generators(inner, flatten_second_level(v, w),
                                           max_pairs)

    if method != "eliminate":
        raise ValueError(f"unknown method {method!r}")
    return image_ideal(cayley_parametrization(cfg), I.generators, I.domain,
                       max_pairs)
