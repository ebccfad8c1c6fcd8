"""Two-view camera models as projective varieties in P^8.

The models live in the space of 3x3 matrices x = (x_ij), coordinates
ordered row-major x11, x12, x13, x21, ..., x33:

  F   fundamental matrices: det(x) = 0.
  E   essential matrices: det(x) plus the nine Demazure cubics
      2 x x^T x - trace(x x^T) x.
  G   both cameras share an unknown focal length f:
      x = diag(1/f,1/f,1) E diag(1/f,1/f,1) up to scale.
  G'  only the right camera has the unknown focal length:
      x = E diag(1/f,1/f,1).
  G'' only the left camera has the unknown focal length:
      x = diag(1/f,1/f,1) E.

G is the complete intersection of det(x) with a quintic; G' and G''
are each cut out by the four maximal minors of a 3x4 matrix obtained
by bordering x with a column of row dot products (transposed variable
roles between the two).

Distortion configurations attach radial distortion parameters: the
vector u = (0,0,1,0,0,1,1,1,2) distorts both cameras with a shared
lambda (last row and column of x), v = (0,0,1,0,0,1,0,0,1) distorts
only the right camera (last column).
"""

from __future__ import annotations

import itertools
from enum import Enum

import numpy as np

from .polycore import GF, RATIONAL, Polynomial, parse_polynomial
from .groebner import Ideal
from .geometry import DistortionVector, MultiParamConfig

VAR_NAMES = ["x11", "x12", "x13", "x21", "x22", "x23", "x31", "x32", "x33"]


class ModelId(Enum):
    F = "F"
    E = "E"
    G = "G"
    GPRIME = "Gprime"
    GDOUBLEPRIME = "Gdoubleprime"


#: (projective dimension, degree) of each model in P^8.
MODEL_DIM_DEGREE = {
    ModelId.F: (7, 3),
    ModelId.E: (5, 10),
    ModelId.G: (6, 15),
    ModelId.GPRIME: (6, 9),
    ModelId.GDOUBLEPRIME: (6, 9),
}

U_BOTH = (0, 0, 1, 0, 0, 1, 1, 1, 2)
V_RIGHT = (0, 0, 1, 0, 0, 1, 0, 0, 1)

#: two distortion parameters, one per camera (lambda_1 on the right
#: camera / third column, lambda_2 on the left camera / third row).
TWO_PARAM_GROUPS = (
    ((0, 0),), ((0, 0),), ((0, 0), (1, 0)),
    ((0, 0),), ((0, 0),), ((0, 0), (1, 0)),
    ((0, 0), (0, 1)), ((0, 0), (0, 1)),
    ((0, 0), (0, 1), (1, 0), (1, 1)),
)

#: four parameters (lambda_i, mu_i per camera), quartic distortion model.
_Z4 = (0, 0, 0, 0)
FOUR_PARAM_GROUPS = (
    (_Z4,), (_Z4,), (_Z4, (1, 0, 0, 0), (0, 0, 1, 0)),
    (_Z4,), (_Z4,), (_Z4, (1, 0, 0, 0), (0, 0, 1, 0)),
    (_Z4, (0, 1, 0, 0), (0, 0, 0, 1)), (_Z4, (0, 1, 0, 0), (0, 0, 0, 1)),
    (_Z4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
     (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)),
)


DET_TEXT = ("x11*x22*x33 - x11*x23*x32 - x12*x21*x33"
            " + x12*x23*x31 + x13*x21*x32 - x13*x22*x31")

# The quintic generator of G (together with det it cuts out G as a
# complete intersection).
QUINTIC_TEXT = (
    "x11*x13^3*x31 + x13^2*x21*x23*x31 + x11*x13*x23^2*x31 + x21*x23^3*x31"
    " - x11*x13*x31^3 - x21*x23*x31^3"
    " + x12*x13^3*x32 + x13^2*x22*x23*x32 + x12*x13*x23^2*x32 + x22*x23^3*x32"
    " - x12*x13*x31^2*x32 - x22*x23*x31^2*x32"
    " - x11*x13*x31*x32^2 - x21*x23*x31*x32^2"
    " - x12*x13*x32^3 - x22*x23*x32^3"
    " - x11^2*x13^2*x33 - x12^2*x13^2*x33"
    " - 2*x11*x13*x21*x23*x33 - 2*x12*x13*x22*x23*x33"
    " - x21^2*x23^2*x33 - x22^2*x23^2*x33"
    " + x11^2*x31^2*x33 + x21^2*x31^2*x33"
    " + 2*x11*x12*x31*x32*x33 + 2*x21*x22*x31*x32*x33"
    " + x12^2*x32^2*x33 + x22^2*x32^2*x33"
)


def matrix_variables():
    """3x3 nested list of the coordinate variables x11..x33 over Q."""
    return [[Polynomial.variable(3 * i + j, 9) for j in range(3)]
            for i in range(3)]


def _det3(A):
    return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))


def demazure_cubics() -> list[Polynomial]:
    """The nine entries of 2 x x^T x - trace(x x^T) x, over Q."""
    X = matrix_variables()
    zero = Polynomial.zero(9)
    XXt = [[sum((X[i][k] * X[j][k] for k in range(3)), zero)
            for j in range(3)] for i in range(3)]
    tr = XXt[0][0] + XXt[1][1] + XXt[2][2]
    M = [[sum((XXt[i][k] * X[k][j] for k in range(3)), zero)
          for j in range(3)] for i in range(3)]
    return [2 * M[i][j] - tr * X[i][j] for i in range(3) for j in range(3)]


def _bordered_minors(transposed: bool) -> list[Polynomial]:
    """Four maximal minors of x bordered with the row-dot-product column.

    With ``transposed`` False the column is built from dot products of
    the rows of x with its third row; the resulting minors vanish when
    x = diag(1/f,1/f,1) E, the left-focal model.  ``transposed`` True
    swaps the variable roles x_ij -> x_ji and describes the
    right-focal model x = E diag(1/f,1/f,1).
    """
    X = matrix_variables()
    if transposed:
        X = [[X[j][i] for j in range(3)] for i in range(3)]
    zero = Polynomial.zero(9)
    col4 = [sum((X[1][k] * X[2][k] for k in range(3)), zero),
            -sum((X[0][k] * X[2][k] for k in range(3)), zero),
            zero]
    M = [[X[i][0], X[i][1], X[i][2], col4[i]] for i in range(3)]
    out = []
    for cols in itertools.combinations(range(4), 3):
        sub = [[M[r][c] for c in cols] for r in range(3)]
        out.append(_det3(sub))
    return [m for m in out if not m.is_zero()]


def model_ideal(model: ModelId, domain=None) -> Ideal:
    """Defining ideal of the model in the 9 matrix coordinates, built over
    Q and mapped into ``domain`` (default F_p at the default prime).

    Raises ValueError for a prime that kills a coefficient (p = 2 for E
    and G): the image would define another variety.
    """
    if domain is None:
        domain = GF()
    model = ModelId(model)
    det = parse_polynomial(DET_TEXT, 9, RATIONAL, VAR_NAMES)
    if model is ModelId.F:
        gens = [det]
    elif model is ModelId.E:
        gens = [det] + demazure_cubics()
    elif model is ModelId.G:
        gens = [det, parse_polynomial(QUINTIC_TEXT, 9, RATIONAL, VAR_NAMES)]
    elif model is ModelId.GPRIME:
        gens = _bordered_minors(transposed=True)
    else:
        gens = _bordered_minors(transposed=False)
    return Ideal(gens, 9, RATIONAL).over(domain)


def model_config(model: ModelId, which: str):
    """Distortion configuration for a model.

    which: "u_both" and "v_right" return DistortionVector; "two_param"
    and "four_param" return the multi-parameter MultiParamConfig.
    G'' is only meaningful with v_right (its focal camera is the
    undistorted one); the vectors themselves do not depend on the model.
    """
    ModelId(model)
    if which == "u_both":
        return DistortionVector(U_BOTH)
    if which == "v_right":
        return DistortionVector(V_RIGHT)
    if which == "two_param":
        return MultiParamConfig(2, TWO_PARAM_GROUPS)
    if which == "four_param":
        return MultiParamConfig(4, FOUR_PARAM_GROUPS)
    raise ValueError(f"unknown configuration {which!r}")


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------

def essential_matrix(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """E = [t]_x R with t normalized to unit length."""
    t = np.asarray(translation, dtype=float)
    t = t / np.linalg.norm(t)
    tx = np.array([[0.0, -t[2], t[1]],
                   [t[2], 0.0, -t[0]],
                   [-t[1], t[0], 0.0]])
    return tx @ np.asarray(rotation, dtype=float)


#: relative size below which the focal formula's denominator counts as zero
FOCAL_TOL = 1e-12


def focal_from_matrix(X) -> float:
    """Squared focal length of the left camera from x = diag(1/f,1/f,1) E.

    Both numerator and denominator are cubic in the entries, so the
    result is invariant under rescaling of X, and f is determined up
    to sign.  Raises ZeroDivisionError when the denominator is smaller
    than FOCAL_TOL relative to the matrix scale.
    """
    x = np.asarray(X, dtype=float)
    (x11, x12, x13), (x21, x22, x23), (x31, x32, x33) = x
    num = (x23 * x31 ** 2 + x23 * x32 ** 2
           - 2 * x21 * x31 * x33 - 2 * x22 * x32 * x33 - x23 * x33 ** 2)
    den = (2 * x11 * x13 * x21 + 2 * x12 * x13 * x22
           - x11 ** 2 * x23 - x12 ** 2 * x23 + x13 ** 2 * x23
           + x21 ** 2 * x23 + x22 ** 2 * x23 + x23 ** 3)
    scale = np.abs(x).max()
    if abs(den) <= FOCAL_TOL * scale ** 3:
        raise ZeroDivisionError("focal length formula is degenerate here")
    return num / den
