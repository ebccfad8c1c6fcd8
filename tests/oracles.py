"""Oracles shared by the tests; the package itself never needs them."""

import numpy as np

from distvar.polycore import DimensionError, Polynomial
from distvar.solver import epipolar_coefficients


def power(p: Polynomial, n: int) -> Polynomial:
    """p^n by repeated squaring."""
    if n < 0:
        raise ValueError("negative power")
    out = Polynomial.constant(1, p.nvars, p.domain)
    while n:
        if n & 1:
            out = out * p
        n >>= 1
        if n:
            p = p * p
    return out


def evaluate(p: Polynomial, point):
    """p at a point, in the arithmetic of its coordinates (an F_p value
    comes back unreduced)."""
    if len(point) != p.nvars:
        raise DimensionError("point length mismatch")
    total = None
    for m, c in p.terms.items():
        v = c
        for x, e in zip(point, m):
            for _ in range(e):
                v = v * x
        total = v if total is None else total + v
    return 0 if total is None else total


def ambient_nvars(cfg) -> int:
    """N + 1 = |u|: the number of ambient coordinates of a multi-parameter
    configuration."""
    return sum(len(gi) for gi in cfg.groups)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def epipolar_residual(corrs, truth) -> float:
    """Largest |c . m_truth| over the correspondences, normalized."""
    m = truth.m / np.linalg.norm(truth.m)
    worst = 0.0
    for p in corrs:
        c = epipolar_coefficients(p)
        worst = max(worst, abs(c @ m) / np.linalg.norm(c))
    return worst
