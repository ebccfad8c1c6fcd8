import math

import numpy as np
import pytest

from distvar.polycore import RATIONAL
from distvar.solver import (
    BASIS_GAMMA,
    BASIS_MONOMIALS,
    Correspondence,
    EliminationTemplate,
    GENERATOR_DEGREES,
    TemplateError,
    _generator_values,
    coefficient_matrix,
    count_real,
    epipolar_coefficients,
    generator_polynomials,
    monomials_up_to,
    nullspace_basis,
    solve,
    validate_template,
)
from distvar.simulate import SceneConfig, generate_trial

from oracles import evaluate


def noise_free_trial(trial_index, seed=0):
    cfg = SceneConfig(n_trials=1, seed=seed)
    return generate_trial(cfg, trial_index)


# ---------------------------------------------------------------------------
# coefficients and nullspace
# ---------------------------------------------------------------------------

def test_epipolar_coefficients_against_truth():
    corrs, truth = noise_free_trial(0)
    for p in corrs:
        c = epipolar_coefficients(p)
        assert c.shape == (12,)
        assert abs(c @ truth.m) < 1e-12 * np.linalg.norm(c) * np.linalg.norm(truth.m)


def test_coefficient_matrix_shape_and_rank():
    corrs, _ = noise_free_trial(1)
    C = coefficient_matrix(corrs)
    assert C.shape == (7, 12)
    assert np.linalg.matrix_rank(C) == 7


def test_nullspace_basis():
    corrs, truth = noise_free_trial(2)
    N = nullspace_basis(coefficient_matrix(corrs))
    assert N.shape == (12, 5)
    assert np.max(np.abs(coefficient_matrix(corrs) @ N)) < 1e-10
    # the last basis vector is pinned: unit coefficient slot at index 10
    assert N[10, 4] > 0
    # the truth lies in the span
    coef, res, *_ = np.linalg.lstsq(N, truth.m, rcond=None)
    assert np.linalg.norm(N @ coef - truth.m) < 1e-9 * np.linalg.norm(truth.m)


def test_nullspace_rejects_degenerate_input():
    from distvar.solver import DegenerateDataError
    C = np.zeros((7, 12))
    with pytest.raises(DegenerateDataError):
        nullspace_basis(C)


# ---------------------------------------------------------------------------
# generators and monomial bookkeeping
# ---------------------------------------------------------------------------

def test_generator_degrees():
    rng = np.random.default_rng(0)
    N = rng.integers(-9, 10, size=(12, 5))
    gens = generator_polynomials(N, RATIONAL)
    assert tuple(g.total_degree() for g in gens) == GENERATOR_DEGREES
    assert all(g.nvars == 4 for g in gens)
    # the exact polynomials and solve's numeric evaluation agree; every
    # value here is an integer below 2^53, so the float one is exact
    pt = [2, -1, 3, 1]
    vals = _generator_values(N, np.array([pt], dtype=float))[:, 0]
    assert [evaluate(g, pt) for g in gens] == list(vals)


def test_generators_vanish_at_truth():
    corrs, truth = noise_free_trial(3)
    N = nullspace_basis(coefficient_matrix(corrs))
    coef, *_ = np.linalg.lstsq(N, truth.m, rcond=None)
    gamma = coef[:4] / coef[4]
    vals = _generator_values(N, gamma[None, :])[:, 0]
    for val, d in zip(vals, GENERATOR_DEGREES):
        assert abs(val) < 1e-8 * (1 + np.max(np.abs(gamma))) ** d


def test_monomials_up_to():
    monos = monomials_up_to(2)
    assert len(monos) == 15  # C(4+2, 2)
    assert len(set(monos)) == len(monos)
    assert monos[-1] == (0, 0, 0, 0)
    # descending grevlex: degrees weakly decrease
    degs = [sum(m) for m in monos]
    assert degs == sorted(degs, reverse=True)


def test_basis_constants():
    assert len(BASIS_MONOMIALS) == 23
    assert len(set(BASIS_MONOMIALS)) == 23
    for k, idx in enumerate(BASIS_GAMMA):
        e = tuple(1 if i == k else 0 for i in range(4))
        assert BASIS_MONOMIALS[idx] == e


# ---------------------------------------------------------------------------
# template
# ---------------------------------------------------------------------------

def test_template_shape(template):
    assert template.n_rows == 160
    assert template.n_cols == 126
    assert len(template.basis) == 23
    validate_template(template)  # raises on failure


def test_template_fill_matches_row_loop(template):
    # reference: row by row, multiplier monomial times source monomial
    rng = np.random.default_rng(4)
    coeffs = [rng.normal(size=len(template.src_monos[d]))
              for d in GENERATOR_DEGREES]
    col = {e: j for j, e in enumerate(template.columns)}
    A = np.zeros((template.n_rows, template.n_cols))
    row = 0
    for c, d, mults in zip(coeffs, GENERATOR_DEGREES, template.schedule):
        for em in mults:
            for ci, es in zip(c, template.src_monos[d]):
                A[row, col[tuple(x + y for x, y in zip(em, es))]] = ci
            row += 1
    assert row == template.n_rows
    assert np.array_equal(template.fill(coeffs), A)


def test_validate_rejects_template_missing_rows(template):
    # without the rows of the five quartic generators the elimination
    # reaches only 90 of the 103 non-basis pivots
    schedule = template.schedule[:5] + ((),) * 5
    with pytest.raises(TemplateError):
        validate_template(EliminationTemplate(template.columns, schedule))


# ---------------------------------------------------------------------------
# end-to-end solving
# ---------------------------------------------------------------------------

def test_solve_returns_23_candidates(template):
    corrs, truth = noise_free_trial(4)
    cands = solve(corrs, template)
    assert len(cands) == 23
    assert all(np.isfinite(c.residual) for c in cands)
    assert max(c.residual for c in cands) < 1e-6


def test_solve_recovers_truth(template):
    for trial in range(10):
        corrs, truth = noise_free_trial(trial, seed=42)
        cands = solve(corrs, template)
        best = min(
            (c for c in cands if c.f_real),
            key=lambda c: abs(math.sqrt(c.f_squared) - truth.f)
            + abs(c.lam - truth.lam),
        )
        assert abs(math.sqrt(best.f_squared) - truth.f) < 1e-6 * truth.f
        assert abs(best.lam - truth.lam) < 1e-6 * abs(truth.lam)
        # the recovered matrix matches up to scale
        X = best.F / np.linalg.norm(best.F)
        T = truth.X / np.linalg.norm(truth.X)
        if X.ravel() @ T.ravel() < 0:
            X = -X
        assert np.max(np.abs(X - T)) < 1e-6


def test_real_count_parity(template):
    # complex candidates come in conjugate pairs, so with 23 solutions
    # the number of real ones is odd
    for trial in range(10):
        corrs, _ = noise_free_trial(trial, seed=7)
        n_real, n_f = count_real(solve(corrs, template))
        assert n_real % 2 == 1
        assert 0 <= n_f <= n_real


def test_solve_with_noise(template):
    cfg = SceneConfig(n_trials=1, noise_sigma_px=1.0, seed=3)
    corrs, truth = generate_trial(cfg, 0)
    cands = solve(corrs, template)
    assert len(cands) == 23
    best = min(
        (c for c in cands if c.f_real),
        key=lambda c: abs(math.sqrt(c.f_squared) - truth.f),
    )
    # 1px noise at 1000px scale: parameters land in the right ballpark
    assert abs(math.sqrt(best.f_squared) - truth.f) / truth.f < 0.35


def test_solve_requires_seven_correspondences(template):
    corrs, _ = noise_free_trial(0)
    from distvar.solver import DegenerateDataError
    with pytest.raises(DegenerateDataError):
        solve(corrs[:6], template)
