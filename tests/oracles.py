"""Numeric oracles shared by the tests; the package itself never needs them."""

import numpy as np

from distvar.solver import epipolar_coefficients


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
