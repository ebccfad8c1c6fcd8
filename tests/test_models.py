from fractions import Fraction

import numpy as np
import pytest

from distvar.polycore import GF, RATIONAL
from distvar.groebner import dim_degree
from distvar.geometry import DistortionVector, MultiParamConfig
from distvar.models import (
    MODEL_DIM_DEGREE,
    ModelId,
    U_BOTH,
    V_RIGHT,
    demazure_cubics,
    essential_matrix,
    focal_from_matrix,
    model_config,
    model_ideal,
)

from oracles import ambient_nvars, evaluate, random_rotation

F = GF(30011)


# ---------------------------------------------------------------------------
# exact points on the models
# ---------------------------------------------------------------------------

def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def cayley_rotation(s):
    """R = (I - S)(I + S)^-1 for the skew matrix S = [s]_x, exact.

    (I + S)^-1 = (I - S + s s^T) / (1 + |s|^2), since S s = 0 and
    S^2 = s s^T - |s|^2 I.
    """
    a, b, c = s
    S = [[0, -c, b], [c, 0, -a], [-b, a, 0]]
    n = Fraction(1 + a * a + b * b + c * c)
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    minus = [[eye[i][j] - S[i][j] for j in range(3)] for i in range(3)]
    inv = [[(minus[i][j] + s[i] * s[j]) / n for j in range(3)]
           for i in range(3)]
    return matmul(minus, inv)


def exact_essential(s, t):
    """[t]_x R for the Cayley rotation of s and an integer vector t."""
    tx = [[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]]
    return matmul(tx, cayley_rotation(s))


def focal_scaling(f):
    return [[1 / f, 0, 0], [0, 1 / f, 0], [0, 0, 1]]


def generator_values(model, X):
    I = model_ideal(model, RATIONAL)
    point = [x for row in X for x in row]
    return [evaluate(g, point) for g in I.generators]


#: (s, t, f): skew parameters, translation and focal length
EXACT_SCENES = [((1, 2, 3), (1, -2, 3), Fraction(3, 2)),
                ((-2, 1, 0), (2, 0, -1), Fraction(2, 5)),
                ((0, -1, 4), (-1, 3, 1), Fraction(7))]


def test_cayley_rotation_is_special_orthogonal():
    for s, _, _ in EXACT_SCENES:
        R = cayley_rotation(s)
        Rt = [list(col) for col in zip(*R)]
        assert matmul(R, Rt) == [[int(i == j) for j in range(3)]
                                 for i in range(3)]
        assert generator_values(ModelId.F, R) == [1]  # det R


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def test_generator_counts_and_degrees():
    expected = {
        ModelId.F: [3],
        ModelId.E: [3] + [3] * 9,
        ModelId.G: [3, 5],
        ModelId.GPRIME: [3, 4, 4, 4],
        ModelId.GDOUBLEPRIME: [3, 4, 4, 4],
    }
    for model, degs in expected.items():
        I = model_ideal(model, F)
        assert sorted(g.total_degree() for g in I.generators) == sorted(degs)


def test_fundamental_dim_degree():
    I = model_ideal(ModelId.F, F)
    assert dim_degree(I) == MODEL_DIM_DEGREE[ModelId.F]


def test_one_sided_focal_dim_degree():
    I = model_ideal(ModelId.GDOUBLEPRIME, F)
    assert dim_degree(I) == MODEL_DIM_DEGREE[ModelId.GDOUBLEPRIME]


def test_demazure_cubics_vanish_on_essential_matrices():
    for s, t, _ in EXACT_SCENES:
        E = exact_essential(s, t)
        assert set(generator_values(ModelId.E, E)) == {0}
        assert set(generator_values(ModelId.F, E)) == {0}


def test_focal_models_vanish_on_scaled_essentials():
    for s, t, f in EXACT_SCENES:
        E = exact_essential(s, t)
        K = focal_scaling(f)
        assert set(generator_values(ModelId.G, matmul(matmul(K, E), K))) == {0}
        assert set(generator_values(ModelId.GPRIME, matmul(E, K))) == {0}
        assert set(generator_values(ModelId.GDOUBLEPRIME, matmul(K, E))) == {0}


def test_focal_models_distinguish_sides():
    for s, t, f in EXACT_SCENES:
        E = exact_essential(s, t)
        K = focal_scaling(f)
        # each one-sided focal matrix fails the other side's equations,
        # and neither is essential
        assert set(generator_values(ModelId.GPRIME, matmul(K, E))) != {0}
        assert set(generator_values(ModelId.GDOUBLEPRIME, matmul(E, K))) != {0}
        assert set(generator_values(ModelId.E, matmul(K, E))) != {0}


# ---------------------------------------------------------------------------
# distortion configurations
# ---------------------------------------------------------------------------

def test_model_configs():
    assert model_config(ModelId.F, "u_both") == DistortionVector(U_BOTH)
    assert model_config(ModelId.E, "v_right") == DistortionVector(V_RIGHT)
    two = model_config(ModelId.F, "two_param")
    assert isinstance(two, MultiParamConfig) and two.r == 2
    assert ambient_nvars(two) == 16
    four = model_config(ModelId.F, "four_param")
    assert four.r == 4 and ambient_nvars(four) == 25
    with pytest.raises(ValueError):
        model_config(ModelId.F, "bogus")


def test_two_param_flattening():
    # forgetting the second parameter in the two-parameter groups
    # recovers the one-sided vector v, and taking per-group sizes minus
    # one of the full grid recovers u
    two = model_config(ModelId.F, "two_param")
    firsts = tuple(max(pt[0] for pt in g) for g in two.groups)
    assert firsts == V_RIGHT
    sizes = tuple(len(g) - 1 for g in two.groups)
    assert sizes[:8] == U_BOTH[:8] and sizes[8] == 3


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------

def test_essential_matrix_properties():
    rng = np.random.default_rng(7)
    R = random_rotation(rng)
    t = rng.normal(size=3)
    E = essential_matrix(R, t)
    # E t' = 0 with t' = t / |t| on the left kernel side: t x (R .) so t^T E = 0
    assert np.allclose((t / np.linalg.norm(t)) @ E, 0.0, atol=1e-12)
    assert abs(np.linalg.det(E)) < 1e-12
    s = np.linalg.svd(E, compute_uv=False)
    assert np.allclose(s, [1.0, 1.0, 0.0], atol=1e-9)


def test_random_rotation_is_special_orthogonal():
    rng = np.random.default_rng(1)
    for _ in range(5):
        R = random_rotation(rng)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)


def test_focal_from_matrix_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        E = essential_matrix(random_rotation(rng), rng.normal(size=3))
        f = rng.uniform(0.5, 2.5)
        X = np.diag([1.0 / f, 1.0 / f, 1.0]) @ E
        assert abs(focal_from_matrix(X) - f * f) < 1e-9 * f * f


def test_focal_from_matrix_invariances():
    rng = np.random.default_rng(17)
    E = essential_matrix(random_rotation(rng), rng.normal(size=3))
    X = np.diag([2.0, 2.0, 1.0]) @ E
    base = focal_from_matrix(X)
    assert np.isclose(focal_from_matrix(3.7 * X), base)
    assert np.isclose(focal_from_matrix(np.diag([-1, -1, 1]) @ X), base)


def test_focal_from_matrix_degenerate():
    with pytest.raises(ZeroDivisionError):
        focal_from_matrix(np.diag([1.0, 1.0, 0.0]))
