import json
import math

import numpy as np
import pytest

from distvar.simulate import (
    ExperimentStats,
    SceneConfig,
    apply_division_distortion,
    generate_trial,
    run_experiment,
    run_trial,
)

from oracles import epipolar_residual


# ---------------------------------------------------------------------------
# distortion model
# ---------------------------------------------------------------------------

def test_division_distortion_inverts():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pt = rng.uniform(-1.5, 1.5, size=2)
        lam = rng.uniform(-0.7, 0.0)
        u, v = apply_division_distortion(pt, lam)
        r2 = u * u + v * v
        back = np.array([u, v]) / (1.0 + lam * r2)
        assert np.allclose(back, pt, atol=1e-12)


def test_division_distortion_identity_at_zero():
    assert apply_division_distortion((0.3, -0.4), 0.0) == (0.3, -0.4)


def test_division_distortion_rejects_unreachable_point():
    with pytest.raises(ValueError):
        apply_division_distortion((10.0, 0.0), 0.5)


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(n_trials=0)
    with pytest.raises(ValueError):
        SceneConfig(motion="spiral")


def test_generate_trial_satisfies_epipolar_constraint():
    cfg = SceneConfig(n_trials=1, seed=1)
    for trial in range(20):
        corrs, truth = generate_trial(cfg, trial)
        assert len(corrs) == 7
        assert epipolar_residual(corrs, truth) < 1e-10


def test_generate_trial_is_deterministic():
    cfg = SceneConfig(n_trials=1, seed=9)
    c1, t1 = generate_trial(cfg, 5)
    c2, t2 = generate_trial(cfg, 5)
    assert c1 == c2
    assert np.array_equal(t1.m, t2.m)


def test_noise_breaks_exact_constraint():
    cfg = SceneConfig(n_trials=1, noise_sigma_px=1.0, seed=1)
    corrs, truth = generate_trial(cfg, 0)
    assert epipolar_residual(corrs, truth) > 1e-8


def test_sideways_cameras_nearly_parallel():
    cfg = SceneConfig(n_trials=1, motion="sideways", seed=2)
    _, truth = generate_trial(cfg, 0)
    R = truth.R2 @ truth.R1.T
    angle = math.degrees(math.acos(min(1.0, (np.trace(R) - 1.0) / 2.0)))
    assert angle < 0.05


def test_truth_parameter_ranges():
    cfg = SceneConfig(n_trials=1, seed=3)
    for trial in range(20):
        _, truth = generate_trial(cfg, trial)
        assert 0.5 <= truth.f <= 2.5
        assert -0.7 <= truth.lam <= 0.0


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

def test_run_trial_recovers_parameters(template):
    cfg = SceneConfig(n_trials=1, seed=4)
    res = run_trial(cfg, 0, template)
    assert res.n_real_variety % 2 == 1
    assert res.log10_err_lambda < -6
    assert res.log10_err_f < -6


def test_run_experiment_aggregates(template):
    cfg = SceneConfig(n_trials=30, seed=5)
    stats = run_experiment(cfg, template)
    assert sum(stats.hist_real_variety) + stats.n_failures == 30
    assert sum(stats.hist_real_f) + stats.n_failures == 30
    assert stats.runtime_seconds > 0
    assert np.median(stats.log10_err_lambda) < -6
    assert abs(sum(stats.percentages_real_variety()) - 100.0 *
               (1 - stats.failure_rate)) < 1e-9


def test_stats_serialization(template, tmp_path):
    cfg = SceneConfig(n_trials=5, seed=6)
    stats = run_experiment(cfg, template)
    data = json.loads(stats.to_json())
    assert data["summary"]["n_trials"] == 5
    assert len(data["hist_real_variety"]) == 24
    csv_path = tmp_path / "out.csv"
    stats.write_csv(str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 25  # header + counts 0..23
