"""Minimal solver for the f+E+lambda relative pose problem.

Seven point correspondences between a camera with unknown focal length
and a camera with unknown radial distortion give a 7x12 linear system
C m = 0 on the monomial vector

    m = [x11, x12, x13, y13, x21, x22, x23, y23, x31, x32, x33, y33],

where y_i3 = lambda * x_i3.  The solution variety is cut out by ten
rank constraints on a bordered 3x5 matrix: the three 2x2 minors of its
last two columns and seven of its 3x3 minors.  Substituting the kernel
parametrization m = gamma_1 n_1 + ... + gamma_4 n_4 + n_5 turns these
into ten polynomials f_1..f_10 in gamma with degrees (2,2,2,3,3,4,4,4,4,4)
and 23 common zeros.

The solver is split into an offline stage (build_template: a fixed
160x126 elimination template with a 23-monomial quotient basis,
validated by rank/pivot structure over a prime field) and a fast online
stage (solve: fill the template numerically, Gauss-Jordan eliminate,
read off the action matrix of multiplication by gamma_1, and extract
candidates from its eigenvectors).  Only the validation builds f_1..f_10
as exact polynomials, over F_p; solve evaluates them with numpy and
interpolates their coefficients.  Both fill the template by one scatter
of the concatenated generator coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polycore import GF, Polynomial, _grevlex_key

#: quotient-basis monomials (exponents in gamma_1..gamma_4), fixed order
BASIS_MONOMIALS = (
    (0, 0, 0, 0),
    (1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 1, 1), (1, 0, 0, 1), (1, 0, 0, 2),
    (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 0, 1), (0, 1, 0, 2),
    (0, 1, 0, 3),
    (0, 0, 1, 0), (0, 0, 2, 0), (0, 0, 3, 0), (0, 0, 2, 1), (0, 0, 1, 1),
    (0, 0, 1, 2), (0, 0, 1, 3),
    (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, 3), (0, 0, 0, 4),
)

#: positions of gamma_1, gamma_2, gamma_3, gamma_4 inside the basis
BASIS_GAMMA = (1, 6, 12, 19)

GENERATOR_DEGREES = (2, 2, 2, 3, 3, 4, 4, 4, 4, 4)

_MINOR_TRIPLES = ((0, 1, 4), (0, 1, 3),
                  (0, 1, 2), (0, 2, 3), (1, 2, 3), (0, 2, 4), (1, 2, 4))

#: the template is validated over F_p for this prime, on up to
#: VALIDATION_ATTEMPTS random instances drawn from VALIDATION_SEED
VALIDATION_PRIME = 30011
VALIDATION_SEED = 7
VALIDATION_ATTEMPTS = 3

#: relative tolerances: smallest kept singular value of the 7x12 system,
#: smallest pivot in the elimination, largest imaginary part of a real
#: candidate
RANK_TOL = 1e-8
PIVOT_TOL = 1e-12
REAL_TOL = 1e-6


class DegenerateDataError(RuntimeError):
    """Input correspondences are rank deficient or otherwise degenerate."""


class TemplateError(RuntimeError):
    """Offline template construction failed validation."""


# ---------------------------------------------------------------------------
# correspondences and the linear system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Correspondence:
    """A matched image point pair; U1 from the distorted camera, U2 from
    the camera with unknown focal length."""

    U1: tuple[float, float]
    U2: tuple[float, float]


def epipolar_coefficients(p: Correspondence) -> np.ndarray:
    """The 12 coefficients pairing with m in the epipolar constraint."""
    u1, v1 = p.U1
    u2, v2 = p.U2
    r1 = u1 * u1 + v1 * v1
    return np.array([u2 * u1, u2 * v1, u2, u2 * r1,
                     v2 * u1, v2 * v1, v2, v2 * r1,
                     u1, v1, 1.0, r1])


def coefficient_matrix(corrs) -> np.ndarray:
    C = np.array([epipolar_coefficients(p) for p in corrs])
    if C.shape != (7, 12):
        raise DegenerateDataError(f"expected 7 correspondences, got {C.shape[0]}")
    # the SVD does not return on an infinite entry
    if not np.isfinite(C).all():
        raise DegenerateDataError("correspondences have non-finite coordinates")
    return C


def nullspace_basis(C: np.ndarray) -> np.ndarray:
    """12x5 orthonormal kernel basis of the 7x12 coefficient matrix.

    Column 4 (the affine pivot n_5) is the kernel vector with the
    largest x33 component, sign-fixed positive; columns are otherwise
    ordered by ascending singular value index.
    """
    C = np.asarray(C, dtype=float)
    _, s, vt = np.linalg.svd(C)
    if s[6] <= RANK_TOL * s[0]:
        raise DegenerateDataError("correspondence matrix is rank deficient")
    N = vt[7:].T  # 12 x 5
    pivot = int(np.argmax(np.abs(N[10])))
    order = [k for k in range(5) if k != pivot] + [pivot]
    N = N[:, order]
    if N[10, 4] < 0:
        N = -N
    return N


# ---------------------------------------------------------------------------
# the ten generators
# ---------------------------------------------------------------------------

def _generators_from_entries(m):
    """The ten rank constraints, for entries m_0..m_11 of any ring."""
    c1 = m[4] * m[8] + m[5] * m[9] + m[6] * m[10]
    c2 = -(m[0] * m[8] + m[1] * m[9] + m[2] * m[10])
    rows = [(m[0], m[1], c1, m[2], m[3]),
            (m[4], m[5], c2, m[6], m[7]),
            (m[8], m[9], None, m[10], m[11])]  # None = structural zero

    def det3(cols):
        a, b, c = cols
        total = None
        # explicit 3x3 expansion skipping the structural zero entry
        for (i, j, k), sgn in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                               ((2, 1, 0), -1), ((0, 2, 1), -1), ((1, 0, 2), -1)):
            e1, e2, e3 = rows[i][a], rows[j][b], rows[k][c]
            if e1 is None or e2 is None or e3 is None:
                continue
            term = e1 * e2 * e3
            if sgn < 0:
                term = -term
            total = term if total is None else total + term
        return total

    gens = [m[6] * m[11] - m[7] * m[10],
            m[2] * m[11] - m[3] * m[10],
            m[2] * m[7] - m[3] * m[6]]
    for cols in _MINOR_TRIPLES:
        gens.append(det3(cols))
    return gens


def generator_polynomials(N: np.ndarray, domain) -> list[Polynomial]:
    """f_1..f_10 as polynomials in gamma_1..gamma_4 over ``domain`` after
    substituting m = N @ (gamma_1, .., gamma_4, 1)."""
    N = np.asarray(N)
    ms = []
    for i in range(12):
        terms = {}
        for k in range(4):
            e = [0, 0, 0, 0]
            e[k] = 1
            terms[tuple(e)] = N[i, k]
        terms[(0, 0, 0, 0)] = N[i, 4]
        ms.append(Polynomial(terms, 4, domain))
    return _generators_from_entries(ms)


def _generator_values(N: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate f_1..f_10 at rows of pts (shape (K, 4)); returns (10, K)."""
    K = pts.shape[0]
    G5 = np.hstack([pts, np.ones((K, 1))])
    M = G5 @ np.asarray(N).T  # (K, 12)
    m = [M[:, i] for i in range(12)]
    vals = _generators_from_entries(m)
    return np.array(vals)


# ---------------------------------------------------------------------------
# monomial bookkeeping
# ---------------------------------------------------------------------------

def monomials_up_to(d: int) -> list[tuple[int, ...]]:
    """Exponent tuples in 4 variables of total degree <= d, descending
    graded reverse lexicographic order."""
    out = []
    for a in range(d + 1):
        for b in range(d + 1 - a):
            for c in range(d + 1 - a - b):
                for e in range(d + 1 - a - b - c):
                    out.append((a, b, c, e))
    out.sort(key=_grevlex_key, reverse=True)
    return out


def _mono_values(pts: np.ndarray, monos) -> np.ndarray:
    """(K, len(monos)) matrix of monomial values at the given points."""
    K = pts.shape[0]
    cols = np.empty((K, len(monos)))
    for j, e in enumerate(monos):
        v = np.ones(K)
        for k, ek in enumerate(e):
            if ek:
                v = v * pts[:, k] ** ek
        cols[:, j] = v
    return cols


# ---------------------------------------------------------------------------
# elimination template
# ---------------------------------------------------------------------------

@dataclass
class EliminationTemplate:
    """Offline data for the online solver.

    columns: all 126 monomials of degree <= 5, the 103 non-basis ones
    first (descending grevlex) followed by the 23 basis monomials.
    schedule: per generator, the list of multiplier monomials.
    fill_rows, fill_cols, fill_src: the template entry (row, col) that
    takes entry src of the concatenated generator coefficient vectors.
    """

    columns: tuple[tuple[int, ...], ...]
    schedule: tuple[tuple[tuple[int, ...], ...], ...]
    # caches built in __post_init__
    fill_rows: np.ndarray = field(default=None, repr=False)
    fill_cols: np.ndarray = field(default=None, repr=False)
    fill_src: np.ndarray = field(default=None, repr=False)
    interp_points: np.ndarray = field(default=None, repr=False)
    interp_pinv: dict = field(default_factory=dict, repr=False)
    src_monos: dict = field(default_factory=dict, repr=False)
    src_exps: dict = field(default_factory=dict, repr=False)
    action_rows: list = field(default_factory=list, repr=False)
    ratio_pairs: list = field(default_factory=list, repr=False)

    @property
    def n_rows(self) -> int:
        return sum(len(s) for s in self.schedule)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def basis(self):
        return self.columns[-len(BASIS_MONOMIALS):]

    def __post_init__(self):
        col_index = {e: i for i, e in enumerate(self.columns)}
        for d in set(GENERATOR_DEGREES):
            self.src_monos[d] = monomials_up_to(d)
        self.src_exps = {d: np.array(s) for d, s in self.src_monos.items()}
        rows, cols, srcs = [], [], []
        row = offset = 0
        for i, mults in enumerate(self.schedule):
            src = self.src_monos[GENERATOR_DEGREES[i]]
            for em in mults:
                for b, es in enumerate(src):
                    rows.append(row)
                    cols.append(col_index[tuple(x + y for x, y in zip(em, es))])
                    srcs.append(offset + b)
                row += 1
            offset += len(src)
        self.fill_rows = np.array(rows, dtype=np.intp)
        self.fill_cols = np.array(cols, dtype=np.intp)
        self.fill_src = np.array(srcs, dtype=np.intp)
        rng = np.random.default_rng(20011)
        self.interp_points = rng.uniform(-1.0, 1.0, size=(120, 4))
        for d, src in self.src_monos.items():
            V = _mono_values(self.interp_points, src)
            self.interp_pinv[d] = np.linalg.pinv(V)
        # where to find gamma_1 * b for each basis monomial b
        nb = self.n_cols - len(BASIS_MONOMIALS)
        basis_index = {e: k for k, e in enumerate(self.basis)}
        # basis pairs (i, j) with b_j = gamma_k * b_i, for eigenvector
        # ratio extraction of the coordinates
        self.ratio_pairs = []
        for k in range(4):
            pairs = []
            for i, e in enumerate(self.basis):
                up = tuple(x + (1 if t == k else 0) for t, x in enumerate(e))
                j = basis_index.get(up)
                if j is not None:
                    pairs.append((i, j))
            self.ratio_pairs.append(tuple(pairs))
        self.action_rows = []
        for b in self.basis:
            shifted = (b[0] + 1,) + b[1:]
            if shifted in basis_index:
                self.action_rows.append(("basis", basis_index[shifted]))
            else:
                self.action_rows.append(("pivot", col_index[shifted]))
                if col_index[shifted] >= nb:
                    raise TemplateError("shifted basis monomial is not a pivot column")

    def fill(self, coeffs) -> np.ndarray:
        """The template matrix for the ten generators' coefficient vectors,
        each over src_monos of its degree."""
        flat = np.concatenate(coeffs)
        A = np.zeros((self.n_rows, self.n_cols), dtype=flat.dtype)
        A[self.fill_rows, self.fill_cols] = flat[self.fill_src]
        return A


def _default_columns():
    all5 = monomials_up_to(5)
    basis = set(BASIS_MONOMIALS)
    nonbasis = [e for e in all5 if e not in basis]
    return tuple(nonbasis) + BASIS_MONOMIALS


def _default_schedule():
    return tuple(tuple(monomials_up_to(5 - d)) for d in GENERATOR_DEGREES)


# -- prime-field validation -------------------------------------------------

def _modular_template_matrix(tmpl: EliminationTemplate, p: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Template matrix for a random prime-field instance (exact)."""
    N = rng.integers(0, p, size=(12, 5))
    gens = generator_polynomials(N, GF(p))
    return tmpl.fill([np.array([g.terms.get(e, 0) for e in tmpl.src_monos[d]],
                               dtype=np.int64)
                      for g, d in zip(gens, GENERATOR_DEGREES)])


def _modular_rref_pivots(A: np.ndarray, p: int, ncols: int) -> list[int]:
    """Pivot columns of A over F_p, scanning the first ncols columns."""
    A = A % p
    nrows = A.shape[0]
    pivots = []
    r = 0
    for j in range(ncols):
        sub = A[r:, j]
        nz = np.nonzero(sub)[0]
        if len(nz) == 0:
            continue
        k = r + int(nz[0])
        A[[r, k]] = A[[k, r]]
        inv = pow(int(A[r, j]), p - 2, p)
        A[r] = (A[r] * inv) % p
        mask = np.ones(nrows, dtype=bool)
        mask[r] = False
        factors = A[mask, j][:, None]
        A[mask] = (A[mask] - factors * A[r]) % p
        pivots.append(j)
        r += 1
        if r == nrows:
            break
    return pivots


def validate_template(tmpl: EliminationTemplate) -> None:
    """Check over F_p that the template has full elimination rank with
    pivots exactly at the non-basis columns."""
    nb = tmpl.n_cols - len(BASIS_MONOMIALS)
    rng = np.random.default_rng(VALIDATION_SEED)
    last = None
    for _ in range(VALIDATION_ATTEMPTS):
        A = _modular_template_matrix(tmpl, VALIDATION_PRIME, rng)
        pivots = _modular_rref_pivots(A, VALIDATION_PRIME, nb)
        if pivots == list(range(nb)):
            return
        last = pivots
    raise TemplateError(
        f"template pivots are not the {nb} non-basis columns (got {len(last)})")


def build_template(validate: bool = True) -> EliminationTemplate:
    """The 160x126 elimination template, checked over F_p unless
    ``validate`` is false."""
    tmpl = EliminationTemplate(_default_columns(), _default_schedule())
    if validate:
        validate_template(tmpl)
    return tmpl


# ---------------------------------------------------------------------------
# online solve
# ---------------------------------------------------------------------------

@dataclass
class SolutionCandidate:
    gamma: tuple[complex, complex, complex, complex]
    residual: float
    is_real: bool
    F: np.ndarray | None = None
    lam: float | None = None
    f_squared: float | None = None

    @property
    def f_real(self) -> bool:
        return bool(self.is_real and self.f_squared is not None
                    and self.f_squared > 0)


def _rref_partial(A: np.ndarray, ncols: int):
    """In-place reduced row echelon form with partial pivoting over the
    first ncols columns; returns {pivot column: row}."""
    nrows = A.shape[0]
    pivot_row = {}
    r = 0
    for j in range(ncols):
        k = r + int(np.argmax(np.abs(A[r:, j])))
        if abs(A[k, j]) <= PIVOT_TOL:
            continue
        if k != r:
            A[[r, k]] = A[[k, r]]
        A[r] /= A[r, j]
        col = A[:, j].copy()
        col[r] = 0.0
        A -= col[:, None] * A[r][None, :]
        pivot_row[j] = r
        r += 1
        if r == nrows:
            break
        if r % 16 == 0:
            # flush negligible entries: they cost denormal slowdowns
            A[np.abs(A) < 1e-200] = 0.0
    return pivot_row


def solve(corrs, tmpl: EliminationTemplate) -> list[SolutionCandidate]:
    """All 23 solution candidates for 7 correspondences.

    Real candidates carry the matrix F, the distortion lambda and the
    squared focal length.
    """
    C = coefficient_matrix(corrs)
    N = nullspace_basis(C)
    nb = tmpl.n_cols - len(BASIS_MONOMIALS)

    # generator coefficients by interpolation at the fixed point set
    vals = _generator_values(N, tmpl.interp_points)  # (10, K)
    coeffs = [tmpl.interp_pinv[d] @ v for d, v in zip(GENERATOR_DEGREES, vals)]
    norms = np.array([np.linalg.norm(c) for c in coeffs])

    # fill and eliminate the template
    A = tmpl.fill(coeffs)
    scale = np.abs(A).max()
    if scale == 0:
        raise DegenerateDataError("all template coefficients vanish")
    A /= scale
    pivot_row = _rref_partial(A, nb)
    if len(pivot_row) < nb:
        raise DegenerateDataError("template lost rank on this instance")

    # action matrix for multiplication by gamma_1
    nbas = len(BASIS_MONOMIALS)
    M1 = np.zeros((nbas, nbas))
    for k, (kind, idx) in enumerate(tmpl.action_rows):
        if kind == "basis":
            M1[k, idx] = 1.0
        else:
            M1[k] = -A[pivot_row[idx], nb:]

    eigvals, eigvecs = np.linalg.eig(M1)

    # coordinate estimates: gamma_1 from the eigenvalue, the rest from
    # the best-conditioned basis-monomial ratio in each eigenvector
    G = np.empty((nbas, 4), dtype=complex)
    G[:, 0] = eigvals
    for k in (1, 2, 3):
        pairs = tmpl.ratio_pairs[k]
        lo = np.array([i for i, _ in pairs])
        hi = np.array([j for _, j in pairs])
        den = eigvecs[lo, :]  # (npairs, nbas)
        best = np.argmax(np.abs(den), axis=0)
        cols = np.arange(nbas)
        G[:, k] = eigvecs[hi[best], cols] / den[best, cols]
    G[~np.isfinite(G)] = 0.0
    G, res = _refine_all(tmpl, coeffs, norms, G)

    cands = []
    for k in range(nbas):
        gamma = G[k]
        residual = float(res[k])
        is_real = all(abs(g.imag) <= REAL_TOL * (1 + abs(g.real)) for g in gamma)
        if is_real:
            pt = gamma.real
            mvec = np.asarray(N) @ np.append(pt, 1.0)
            F = mvec[[0, 1, 2, 4, 5, 6, 8, 9, 10]].reshape(3, 3)
            x3 = mvec[[2, 6, 10]]
            y3 = mvec[[3, 7, 11]]
            lam = float(x3 @ y3 / (x3 @ x3))
            try:
                from .models import focal_from_matrix
                f2 = focal_from_matrix(F)
            except ZeroDivisionError:
                f2 = None
            cands.append(SolutionCandidate(tuple(map(complex, gamma)),
                                           residual, True, F, lam, f2))
        else:
            cands.append(SolutionCandidate(tuple(map(complex, gamma)),
                                           residual, False))

    cands.sort(key=lambda s: (s.gamma[0].real, s.gamma[0].imag,
                              s.gamma[1].real, s.gamma[1].imag))
    return cands


def _batch_eval(tmpl, coeff_mat, norm_mat, G, with_jac: bool):
    """Generator values (and Jacobians) at a batch of complex points.

    Returns (F, J, R): F is (m, 10), J is (m, 10, 4) or None, R is the
    per-point normalized residual max_i |F_i| / (norm_i * mono scale).
    """
    m = G.shape[0]
    dmax = max(coeff_mat)
    # incremental power table: pw[k][:, e] = gamma_k ** e
    pw = []
    for k in range(4):
        t = np.empty((m, dmax + 1), dtype=complex)
        t[:, 0] = 1.0
        for e in range(1, dmax + 1):
            t[:, e] = t[:, e - 1] * G[:, k]
        pw.append(t)
    Fs, Js, Rs = [], [], []
    for d in sorted(coeff_mat):
        exps = tmpl.src_exps[d]  # (n, 4)
        P = np.stack([pw[k][:, exps[:, k]] for k in range(4)], axis=2)
        mono = P[:, :, 0] * P[:, :, 1] * P[:, :, 2] * P[:, :, 3]
        Fd = mono @ coeff_mat[d].T  # (m, n_gens_d)
        Fs.append(Fd)
        mono_scale = np.maximum(1.0, np.abs(mono).max(axis=1))  # (m,)
        Rs.append(np.abs(Fd) / (norm_mat[d][None, :] * mono_scale[:, None]))
        if with_jac:
            Jd = np.empty((m, coeff_mat[d].shape[0], 4), dtype=complex)
            for k in range(4):
                e = exps[:, k]
                down = np.where(e[None, :] > 0,
                                pw[k][:, np.maximum(e - 1, 0)], 0.0)
                rest = np.ones_like(mono)
                for j in range(4):
                    if j != k:
                        rest = rest * P[:, :, j]
                Jd[:, :, k] = (e[None, :] * down * rest) @ coeff_mat[d].T
            Js.append(Jd)
    F = np.concatenate(Fs, axis=1)
    R = np.concatenate(Rs, axis=1).max(axis=1)
    J = np.concatenate(Js, axis=1) if with_jac else None
    return F, J, R


def _refine_all(tmpl, coeffs, norms, G):
    """Batched Gauss-Newton, 15 steps, on the ten generators for all
    candidates.

    Returns the refined points and their normalized residuals; each
    candidate keeps its best iterate."""
    coeff_mat, norm_mat = {}, {}
    for d in sorted(set(GENERATOR_DEGREES)):
        idx = [i for i, gd in enumerate(GENERATOR_DEGREES) if gd == d]
        coeff_mat[d] = np.array([coeffs[i] for i in idx])
        norm_mat[d] = norms[idx]

    G = np.array(G, dtype=complex)
    best_g = G.copy()
    best_r = np.full(G.shape[0], np.inf)
    active = np.ones(G.shape[0], dtype=bool)
    for _ in range(15):
        if not active.any():
            break
        Ga = G[active]
        F, J, r = _batch_eval(tmpl, coeff_mat, norm_mat, Ga, True)
        ii = np.flatnonzero(active)
        improved = r < best_r[active]
        best_g[ii[improved]] = Ga[improved]
        best_r[ii[improved]] = r[improved]
        active[ii[r <= 5e-13]] = False
        keep = r > 5e-13
        if not keep.any():
            break
        JH = np.conj(J[keep]).transpose(0, 2, 1)
        A = JH @ J[keep]
        b = -(JH @ F[keep][:, :, None])
        try:
            delta = np.linalg.solve(A, b)[:, :, 0]
        except np.linalg.LinAlgError:
            break
        G[ii[keep]] = Ga[keep] + delta

    # individual polish for stragglers, using lstsq steps on the raw
    # Jacobian (better conditioned than the normal equations)
    for k in np.flatnonzero(best_r > 1e-9):
        g = best_g[k:k + 1].copy()
        for _ in range(40):
            F, J, r = _batch_eval(tmpl, coeff_mat, norm_mat, g, True)
            if r[0] < best_r[k]:
                best_g[k], best_r[k] = g[0], r[0]
            if r[0] <= 1e-14 or not np.isfinite(r[0]):
                break
            delta, *_ = np.linalg.lstsq(J[0], -F[0], rcond=None)
            g = g + delta[None, :]
    return best_g, best_r


def count_real(cands) -> tuple[int, int]:
    """(number of real candidates, number with a positive squared focal)."""
    n_real = sum(1 for s in cands if s.is_real)
    n_f = sum(1 for s in cands if s.f_real)
    return n_real, n_f
