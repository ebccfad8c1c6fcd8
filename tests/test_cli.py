import json
import subprocess
import sys

import pytest

from distvar.cli import build_parser, main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_model_command(capsys):
    data = run_json(capsys, "model", "--model", "F")
    assert data["dimension"] == 7
    assert data["degree"] == 3
    assert len(data["generators"]) == 1


def test_degree_bound_command(capsys):
    data = run_json(capsys, "degree", "--model", "F", "--config", "u_both",
                    "--bound")
    assert data["bound"] == 18


def test_degree_exact_command(capsys):
    data = run_json(capsys, "degree", "--model", "F", "--config", "v_right")
    assert data["degree"] == 8


def test_degree_from_ideal_file(capsys, tmp_path):
    path = tmp_path / "conic.txt"
    path.write_text("# a smooth conic\nx0*x2 - x1^2\n")
    data = run_json(capsys, "degree", "--ideal", str(path), "--u", "0,1,1")
    assert data["degree"] == 3


def test_distort_command(capsys):
    data = run_json(capsys, "distort", "--model", "F", "--config", "v_right")
    assert data["u"] == [0, 0, 1, 0, 0, 1, 0, 0, 1]
    assert data["n_generators"] > 3


def test_cayley_command(capsys):
    data = run_json(capsys, "cayley", "--model", "F", "--config", "two_param")
    assert data["r"] == 2
    assert len(data["exponent_matrix"]) == 9 + 2
    assert "iterated" in data


def test_template_command(capsys):
    data = run_json(capsys, "template")
    assert data["rows"] == 160
    assert data["cols"] == 126


def write_corrs(tmp_path):
    from distvar.simulate import SceneConfig, generate_trial
    corrs, _ = generate_trial(SceneConfig(n_trials=1, seed=0), 0)
    records = [{"U1": list(c.U1), "U2": list(c.U2)} for c in corrs]
    path = tmp_path / "corrs.json"
    path.write_text(json.dumps(records))
    return path, records


def test_solve_command(capsys, tmp_path):
    path, _ = write_corrs(tmp_path)
    data = run_json(capsys, "solve", "--corrs", str(path))
    assert data["n_candidates"] == 23
    assert data["n_real"] % 2 == 1


def test_simulate_command(capsys, tmp_path):
    out = tmp_path / "stats.json"
    csvp = tmp_path / "stats.csv"
    data = run_json(capsys, "simulate", "--trials", "5",
                    "--out", str(out), "--csv", str(csvp))
    assert data["summary"]["n_trials"] == 5
    assert out.exists() and csvp.exists()


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_computation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "degree", "--model", "F")
    assert code == 1
    assert "error" in err


def test_bad_ideal_file(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "degree", "--ideal", str(path),
                           "--u", "0,1,1")
    assert code == 1


def test_composite_prime_is_rejected(capsys):
    code, _, err = run_cli(capsys, "degree", "--model", "F", "--config",
                           "v_right", "--prime", "30012")
    assert code == 1
    assert "prime" in err


def test_bad_distortion_vector(capsys):
    code, _, err = run_cli(capsys, "degree", "--model", "F", "--u", "a,b")
    assert code == 1


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_solve_rejects_non_finite_input(tmp_path, value):
    path, records = write_corrs(tmp_path)
    # json.dumps writes Infinity / NaN, which json.load reads back; an
    # infinite first coordinate used to hang the SVD
    records[0]["U1"][0] = value
    path.write_text(json.dumps(records))
    out = subprocess.run([sys.executable, "-m", "distvar.cli", "solve",
                          "--corrs", str(path)],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 1
    assert "DegenerateDataError" in out.stderr


@pytest.mark.parametrize("argv", [
    ["model", "--model", "F", "--seed", "1"],
    ["model", "--model", "F", "--config", "u_both"],
    ["degree", "--model", "F", "--config", "u_both", "--seed", "1"],
    ["cayley", "--model", "F", "--config", "two_param", "--prime", "7"],
    ["cayley", "--model", "F", "--config", "two_param", "--seed", "1"],
    ["solve", "--corrs", "c.json", "--prime", "7"],
    ["template", "--max-pairs", "10"],
    ["simulate", "--prime", "7"],
])
def test_unread_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_degree_bound_honours_pair_budget(capsys):
    code, _, err = run_cli(capsys, "degree", "--model", "E", "--config",
                           "u_both", "--bound", "--max-pairs", "1")
    assert code == 1
    assert "BudgetError" in err


@pytest.mark.parametrize("command", ["degree", "distort"])
def test_non_homogeneous_ideal_under_weight_order_is_rejected(tmp_path,
                                                              command):
    # the initial ideal needs a weight order with negative weights, under
    # which reducing a non-homogeneous ideal used to loop forever
    path = tmp_path / "ideal.txt"
    path.write_text("x0 - x0^2*x1\nx1^2 - x0*x1\n")
    out = subprocess.run([sys.executable, "-m", "distvar.cli", command,
                          "--ideal", str(path), "--u", "0,1"],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 1
    assert "homogeneous" in out.stderr


def test_coefficient_with_denominator_divisible_by_prime(tmp_path):
    # 1/30011 has no image in F_30011; it used to end in a
    # ZeroDivisionError traceback instead of the typed error line
    path = tmp_path / "ideal.txt"
    path.write_text("x0^2 - 1/30011*x1*x2\n")
    out = subprocess.run([sys.executable, "-m", "distvar.cli", "degree",
                          "--ideal", str(path), "--u", "0,1,1"],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ValueError")
    assert "1/30011" in out.stderr and "Traceback" not in out.stderr


# ---------------------------------------------------------------------------
# every configuration kind, and results that do not depend on the prime
# ---------------------------------------------------------------------------

def run_subprocess(*args):
    out = subprocess.run([sys.executable, "-m", "distvar.cli", *args],
                         capture_output=True, text=True, timeout=120)
    assert "Traceback" not in out.stderr
    return out


def test_cayley_takes_a_distortion_vector():
    from distvar.geometry import MultiParamConfig, cayley_parametrization
    from distvar.models import U_BOTH
    out = run_subprocess("cayley", "--model", "F", "--config", "u_both",
                         "--json")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    cfg = MultiParamConfig.from_distortion_vector(U_BOTH)
    assert data["r"] == 1
    assert data["exponent_matrix"] == cayley_parametrization(cfg)


def test_distort_takes_a_multi_parameter_config():
    from distvar.geometry import multi_distortion_generators
    from distvar.models import ModelId, model_config, model_ideal
    out = run_subprocess("distort", "--model", "F", "--config", "two_param",
                         "--json")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    J = multi_distortion_generators(
        model_ideal(ModelId.F), model_config(ModelId.F, "two_param"),
        "eliminate")
    assert data["r"] == 2
    assert data["n_generators"] == len(J.generators)


def test_degree_takes_a_multi_parameter_config():
    # (dim, degree) of F's two-parameter distortion variety, as in the
    # acceptance test of the two routes
    out = run_subprocess("degree", "--model", "F", "--config", "two_param",
                         "--json")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert (data["dimension"], data["degree"]) == (9, 24)


def test_degree_bound_rejects_a_multi_parameter_config():
    out = run_subprocess("degree", "--model", "F", "--config", "two_param",
                         "--bound")
    assert out.returncode == 1
    assert out.stderr.startswith("error: ComputationError")


@pytest.mark.parametrize("argv", [
    ["degree", "--model", "E", "--config", "u_both"],
    ["model", "--model", "E"],
])
def test_prime_that_changes_the_model_is_rejected(argv):
    # mod 2 the Demazure cubics lose their 2 x x^T x term, so E becomes
    # another variety: degree 32 in place of 52, (6, 6) in place of (5, 10)
    out = run_subprocess(*argv, "--prime", "2")
    assert out.returncode == 1
    assert out.stderr.startswith("error: ValueError")


def test_prime_that_changes_a_file_ideal_is_rejected(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("2*x0^2 - x1*x2\n")
    out = run_subprocess("degree", "--ideal", str(path), "--u", "0,1,1",
                         "--prime", "2")
    assert out.returncode == 1
    assert out.stderr.startswith("error: ValueError")


def test_small_prime_that_keeps_the_model_gives_the_same_degree():
    out = run_subprocess("degree", "--model", "E", "--config", "u_both",
                         "--prime", "3", "--json")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["degree"] == 52
