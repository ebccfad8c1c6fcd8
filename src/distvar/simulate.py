"""Synthetic two-view Monte Carlo harness for the f+E+lambda solver.

Scenes consist of 3D points in the cube [-10,10]^3 observed by two
cameras placed 20 to 40 units away: a "left" camera with unknown focal
length f in [0.5, 2.5] and a "right" camera with f = 1 and one-parameter
division-model radial distortion, lambda in [-0.7, 0].  These ranges
are module constants; a SceneConfig sets only the trial count, the
pixel noise (on a 1000 px image scale), the motion model and the seed.
The distorted camera feeds the U1 slot of the solver; optional Gaussian
pixel noise is added to both images.  The harness aggregates real-root
counts, real-focal counts and best-candidate errors over many trials.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .solver import (Correspondence, DegenerateDataError, EliminationTemplate,
                     build_template, count_real, solve)
from .models import essential_matrix

N_SOLUTIONS = 23

#: scene points drawn per trial before giving up on finding seven that
#: both cameras see
MAX_RESAMPLE = 200

#: the scene ranges of the module docstring; noise_sigma_px is in pixels
#: of an IMAGE_SCALE_PX image, and sideways cameras jitter by ROT_NOISE_DEG
CUBE_HALF_WIDTH = 10.0
DISTANCE_RANGE = (20.0, 40.0)
F_LEFT_RANGE = (0.5, 2.5)
LAMBDA_RANGE = (-0.7, 0.0)
IMAGE_SCALE_PX = 1000.0
ROT_NOISE_DEG = 0.01


@dataclass(frozen=True)
class SceneConfig:
    n_trials: int = 20000
    noise_sigma_px: float = 0.0
    motion: str = "generic"
    seed: int = 0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.motion not in ("generic", "sideways"):
            raise ValueError(f"unknown motion model {self.motion!r}")


@dataclass
class GroundTruth:
    R1: np.ndarray
    R2: np.ndarray
    f: float
    lam: float
    X: np.ndarray          # diag(1/f,1/f,1) E, the model matrix
    m: np.ndarray          # 12-vector paired with the epipolar coefficients


@dataclass
class TrialResult:
    n_real_variety: int
    n_real_f: int
    log10_err_lambda: float
    log10_err_f: float


@dataclass
class ExperimentStats:
    config: SceneConfig
    hist_real_variety: list[int] = field(default_factory=lambda: [0] * (N_SOLUTIONS + 1))
    hist_real_f: list[int] = field(default_factory=lambda: [0] * (N_SOLUTIONS + 1))
    log10_err_lambda: list[float] = field(default_factory=list)
    log10_err_f: list[float] = field(default_factory=list)
    n_failures: int = 0
    runtime_seconds: float = 0.0

    @property
    def n_trials(self) -> int:
        return self.config.n_trials

    @property
    def failure_rate(self) -> float:
        return self.n_failures / self.n_trials

    def percentages_real_variety(self) -> list[float]:
        return [100.0 * c / self.n_trials for c in self.hist_real_variety]

    def percentages_real_f(self) -> list[float]:
        return [100.0 * c / self.n_trials for c in self.hist_real_f]

    def mean_real_variety(self) -> float:
        total = sum(self.hist_real_variety)
        return (sum(k * c for k, c in enumerate(self.hist_real_variety)) / total
                if total else float("nan"))

    def summary(self) -> dict:
        errs_l = np.array(self.log10_err_lambda)
        errs_f = np.array(self.log10_err_f)
        return {
            "n_trials": self.n_trials,
            "failure_rate": self.failure_rate,
            "mean_real_variety": self.mean_real_variety(),
            "median_log10_err_lambda": float(np.median(errs_l)) if errs_l.size else None,
            "median_log10_err_f": float(np.median(errs_f)) if errs_f.size else None,
            "mean_log10_err_lambda": float(np.mean(errs_l)) if errs_l.size else None,
            "mean_log10_err_f": float(np.mean(errs_f)) if errs_f.size else None,
            "runtime_seconds": self.runtime_seconds,
        }

    def to_json(self) -> str:
        return json.dumps({
            "config": asdict(self.config),
            "hist_real_variety": self.hist_real_variety,
            "hist_real_f": self.hist_real_f,
            "pct_real_variety": self.percentages_real_variety(),
            "pct_real_f": self.percentages_real_f(),
            "summary": self.summary(),
        }, indent=2)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["count", "pct_real_variety", "pct_real_f",
                        "failure_rate"])
            pv = self.percentages_real_variety()
            pf = self.percentages_real_f()
            for k in range(N_SOLUTIONS + 1):
                w.writerow([k, f"{pv[k]:.4f}", f"{pf[k]:.4f}",
                            f"{self.failure_rate:.6f}" if k == 0 else ""])


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

def apply_division_distortion(ideal_pt, lam: float):
    """Forward division-model distortion of a normalized image point.

    Returns (u, v) with (u, v) / (1 + lam (u^2 + v^2)) = ideal_pt;
    the branch continuous in lam with identity at lam = 0.
    """
    x, y = ideal_pt
    r2 = x * x + y * y
    disc = 1.0 - 4.0 * lam * r2
    if disc < 0:
        raise ValueError("point has no division-model preimage")
    s = 2.0 / (1.0 + math.sqrt(disc))
    return (s * x, s * y)


def _look_at(position: np.ndarray, target: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """World-to-camera rotation with the optical axis toward the target,
    random roll."""
    z = target - position
    z = z / np.linalg.norm(z)
    up = rng.normal(size=3)
    x = np.cross(up, z)
    while np.linalg.norm(x) < 1e-8:
        up = rng.normal(size=3)
        x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return np.stack([x, y, z])


def _small_rotation(axis_angle_deg: float, rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    th = math.radians(axis_angle_deg)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(th) * K + (1 - math.cos(th)) * (K @ K)


def _camera_pair(cfg: SceneConfig, rng: np.random.Generator):
    """Two (R, center) world-to-camera poses per the motion model."""
    def sample_pose():
        d = rng.uniform(*DISTANCE_RANGE)
        dirv = rng.normal(size=3)
        dirv /= np.linalg.norm(dirv)
        c = d * dirv
        # cameras look at the scene, not exactly at its center
        target = rng.uniform(-CUBE_HALF_WIDTH, CUBE_HALF_WIDTH, size=3)
        return _look_at(c, target, rng), c

    R1, c1 = sample_pose()
    if cfg.motion == "generic":
        R2, c2 = sample_pose()
    else:  # sideways: parallel axes, lateral offset, tiny rotations
        lateral = R1[0]  # the camera's x-axis in world coordinates
        baseline = rng.uniform(0.25, 2.0) * rng.choice([-1.0, 1.0])
        c2 = c1 + baseline * lateral
        R2 = _small_rotation(ROT_NOISE_DEG, rng) @ R1
        R1 = _small_rotation(ROT_NOISE_DEG, rng) @ R1
    return (R1, c1), (R2, c2)


def generate_trial(cfg: SceneConfig, trial_index: int):
    """Seven correspondences and the ground truth for one trial.

    The right camera (division distortion, f = 1) fills the U1 slot of
    each correspondence, the left camera (focal f) the U2 slot.
    """
    rng = np.random.default_rng([cfg.seed, trial_index])
    (R1, c1), (R2, c2) = _camera_pair(cfg, rng)
    f = rng.uniform(*F_LEFT_RANGE)
    lam = rng.uniform(*LAMBDA_RANGE)
    sigma = cfg.noise_sigma_px / IMAGE_SCALE_PX

    corrs = []
    attempts = 0
    while len(corrs) < 7:
        attempts += 1
        if attempts > MAX_RESAMPLE:
            raise DegenerateDataError("could not sample visible scene points")
        P = rng.uniform(-CUBE_HALF_WIDTH, CUBE_HALF_WIDTH, size=3)
        y1 = R1 @ (P - c1)
        y2 = R2 @ (P - c2)
        if y1[2] <= 1e-6 or y2[2] <= 1e-6:
            continue
        x1 = y1[:2] / y1[2]                 # right camera, normalized
        x2 = y2[:2] / y2[2]                 # left camera, normalized
        u1, v1 = apply_division_distortion(x1, lam)
        u2, v2 = f * x2[0], f * x2[1]
        if sigma > 0:
            u1 += rng.normal(0.0, sigma)
            v1 += rng.normal(0.0, sigma)
            u2 += rng.normal(0.0, sigma)
            v2 += rng.normal(0.0, sigma)
        corrs.append(Correspondence((u1, v1), (u2, v2)))

    # relative pose: y2 = R y1 + t
    R = R2 @ R1.T
    t = R2 @ (c1 - c2)
    E = essential_matrix(R, t)
    X = np.diag([1.0 / f, 1.0 / f, 1.0]) @ E
    m = np.empty(12)
    m[[0, 1, 2, 4, 5, 6, 8, 9, 10]] = X.reshape(9)
    m[[3, 7, 11]] = lam * X[:, 2]
    truth = GroundTruth(R1, R2, f, lam, X, m)
    return corrs, truth


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

def run_trial(cfg: SceneConfig, trial_index: int,
              tmpl: EliminationTemplate) -> TrialResult:
    corrs, truth = generate_trial(cfg, trial_index)
    cands = solve(corrs, tmpl)
    n_real, n_f = count_real(cands)
    best_l = best_f = float("nan")
    err_l = err_f = float("nan")
    best_score = None
    for c in cands:
        if not c.f_real:
            continue
        fc = math.sqrt(c.f_squared)
        score = (abs(fc - truth.f) / truth.f
                 + abs(c.lam - truth.lam) / max(abs(truth.lam), 1e-12))
        if best_score is None or score < best_score:
            best_score = score
            best_l, best_f = c.lam, fc
    if best_score is not None:
        err_l = math.log10(max(abs(best_l - truth.lam)
                               / max(abs(truth.lam), 1e-12), 1e-300))
        err_f = math.log10(max(abs(best_f - truth.f) / truth.f, 1e-300))
    return TrialResult(n_real, n_f, err_l, err_f)


def run_experiment(cfg: SceneConfig,
                   tmpl: EliminationTemplate | None = None) -> ExperimentStats:
    if tmpl is None:
        tmpl = build_template()
    stats = ExperimentStats(cfg)
    t0 = time.time()
    for trial in range(cfg.n_trials):
        try:
            res = run_trial(cfg, trial, tmpl)
        except (DegenerateDataError, np.linalg.LinAlgError):
            stats.n_failures += 1
            continue
        stats.hist_real_variety[min(res.n_real_variety, N_SOLUTIONS)] += 1
        stats.hist_real_f[min(res.n_real_f, N_SOLUTIONS)] += 1
        if math.isfinite(res.log10_err_lambda):
            stats.log10_err_lambda.append(res.log10_err_lambda)
        if math.isfinite(res.log10_err_f):
            stats.log10_err_f.append(res.log10_err_f)
    stats.runtime_seconds = time.time() - t0
    return stats
