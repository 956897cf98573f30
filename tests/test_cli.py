import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from buresgeo import cli
from buresgeo.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write_matrix(tmp_path, name, mat):
    mat = np.asarray(mat, dtype=complex)
    path = tmp_path / name
    path.write_text(json.dumps({
        "dim": mat.shape[0],
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }))
    return str(path)


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

def test_rho_maximally_mixed(capsys):
    code, out = run_cli(["rho", "--n", "2", "--theta", "0.7853981634",
                         "--alpha", "0", "--phi", "0", "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    np.testing.assert_allclose(p["re"], np.eye(2) / 2, atol=1e-9)
    np.testing.assert_allclose(p["im"], np.zeros((2, 2)), atol=1e-12)


def test_rho_n3_defaults_to_pure(capsys):
    code, out = run_cli(["rho", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    np.testing.assert_allclose(p["re"], np.diag([1.0, 0.0, 0.0]), atol=1e-14)
    assert p["trace"] == pytest.approx(1.0, abs=1e-12)
    assert p["min_eigenvalue"] >= -1e-12


def test_rho_substitution(capsys):
    code, out = run_cli(["rho", "--n", "2", "--theta", "0",
                         "--alpha", "0.7853981634", "--phi", "0",
                         "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    np.testing.assert_allclose(p["re"], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-9)


def test_rho_range_exit_code_names_coordinate(capsys):
    code = main(["rho", "--n", "2", "--theta", "2.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "theta" in err


def test_rho_wrong_arity_flags_exit_3(capsys):
    assert main(["rho", "--n", "3", "--theta", "0.2"]) == 3
    assert main(["rho", "--n", "2", "--beta1", "0.2"]) == 3
    capsys.readouterr()


def test_rho_json_round_trips_bit_identically(tmp_path, capsys):
    out_path = tmp_path / "rho.json"
    code = main(["rho", "--n", "3", "--theta1", "0.51", "--theta2", "0.63",
                 "--alpha", "0.7", "--phi", "0.2", "--beta1", "0.8",
                 "--beta2", "0.33", "--psi1", "1.9", "--psi2", "0.05",
                 "--format", "json", "--out", str(out_path)])
    assert code == 0
    from buresgeo.cli import read_matrix
    from buresgeo.coset import CosetChart3, rho3
    mat = read_matrix(str(out_path))
    direct = rho3(CosetChart3(0.51, 0.63, 0.7, 0.2, 0.8, 0.33, 1.9, 0.05)).mat
    assert np.array_equal(mat, direct)  # bit-identical, not just close


def test_rho_degrees_flag(capsys):
    code, out = run_cli(["rho", "--n", "2", "--theta", "45", "--degrees",
                         "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    np.testing.assert_allclose(p["re"], np.eye(2) / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_same_chart(capsys):
    code, out = run_cli(["fidelity", "--state-a", "theta=0.3,alpha=0.5,phi=0.2",
                         "--state-b", "theta=0.3,alpha=0.5,phi=0.2",
                         "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    assert p["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert p["bures_distance"] == pytest.approx(0.0, abs=1e-6)


def test_fidelity_orthogonal_files(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.diag([1.0, 0.0]))
    b = write_matrix(tmp_path, "b.json", np.diag([0.0, 1.0]))
    code, out = run_cli(["fidelity", "--state-a", a, "--state-b", b,
                         "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    assert p["fidelity"] == pytest.approx(0.0, abs=1e-12)
    assert p["bures_distance"] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_fidelity_commuting_value(tmp_path, capsys):
    a = write_matrix(tmp_path, "a.json", np.diag([0.5, 0.5]))
    b = write_matrix(tmp_path, "b.json", np.diag([0.25, 0.75]))
    code, out = run_cli(["fidelity", "--state-a", a, "--state-b", b,
                         "--format", "json"], capsys)
    p = json.loads(out)
    assert p["fidelity"] == pytest.approx(0.93301270, abs=1e-8)


def test_fidelity_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["fidelity", "--state-a", str(bad), "--state-b", str(bad)])
    assert code == 3


def test_fidelity_invalid_state_exit_4(tmp_path, capsys):
    bad = write_matrix(tmp_path, "bad.json", np.diag([0.9, 0.9]))
    code = main(["fidelity", "--state-a", bad, "--state-b", bad])
    err = capsys.readouterr().err
    assert code == 4
    assert "trace" in err


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_closed_example(capsys):
    code, out = run_cli(["metric", "--n", "2", "--theta", str(math.pi / 8),
                         "--alpha", str(math.pi / 4), "--method", "closed",
                         "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    np.testing.assert_allclose(p["closed"], np.diag([1.0, 0.5, 0.125]), atol=1e-12)


def test_metric_both_deviation_line(capsys):
    code, out = run_cli(["metric", "--n", "3", "--theta1", "0.6", "--theta2", "0.68",
                         "--alpha", "0.3", "--phi", "0.4", "--beta1", "0.9",
                         "--beta2", "0.5", "--psi1", "0.1", "--psi2", "0.7",
                         "--method", "both", "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    assert p["max_abs_dev"] <= 1e-6
    g = np.asarray(p["closed"])
    np.testing.assert_allclose(g[:2, 2:], 0.0, atol=1e-15)


def test_metric_degenerate_exit_5(capsys):
    code = main(["metric", "--n", "3", "--theta1", str(0.955316), "--theta2",
                 str(math.pi / 4), "--beta1", "0.4", "--method", "closed"])
    assert code == 5


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_2level_passes(capsys):
    code, out = run_cli(["validate", "--n", "2", "--samples", "25", "--seed", "7",
                         "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    assert p["status"] == "PASS"
    assert p["max_abs_dev"] < 1e-7


def test_validate_3level_passes_and_reports_printed_dev(capsys):
    code, out = run_cli(["validate", "--n", "3", "--samples", "10", "--seed", "7",
                         "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    assert p["status"] == "PASS"
    assert p["max_abs_dev"] < 1e-6
    assert p["gamma_shift_max_dev"] <= 1e-12
    assert p["printed_entry_max_abs_dev"]["g_phi_beta1"] > 0
    assert p["t_coeff_max_dev_vs_trace_form"]["printed_theta_dev"] > 0


def test_validate_deterministic_given_seed(capsys):
    _, out1 = run_cli(["validate", "--n", "2", "--samples", "5", "--seed", "3",
                       "--format", "json"], capsys)
    _, out2 = run_cli(["validate", "--n", "2", "--samples", "5", "--seed", "3",
                       "--format", "json"], capsys)
    assert out1 == out2


def test_validate_absurd_tol_exit_6(capsys):
    code = main(["validate", "--n", "2", "--samples", "3", "--seed", "1",
                 "--tol", "1e-300"])
    assert code == 6


def test_validate_env_tol(capsys, monkeypatch):
    monkeypatch.setenv("BURES_TOL", "1e-300")
    code = main(["validate", "--n", "2", "--samples", "3", "--seed", "1"])
    assert code == 6
    monkeypatch.setenv("BURES_TOL", "1e-3")
    code = main(["validate", "--n", "2", "--samples", "3", "--seed", "1"])
    assert code == 0


def test_validate_env_tol_nan_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("BURES_TOL", "nan")
    assert main(["validate", "--n", "2", "--samples", "1"]) == 3
    assert "BURES_TOL" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_theta_sweep(capsys):
    code, out = run_cli(["scan", "--n", "2", "--coord", "theta",
                         "--from", "0.05", "--to", "0.75", "--points", "50"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("theta,")
    assert len(lines) == 51
    col = header.index("g_theta_theta")
    for row in lines[1:]:
        assert abs(float(row.split(",")[col]) - 1.0) <= 1e-8


def test_scan_two_coordinates(capsys):
    code, out = run_cli(["scan", "--n", "2",
                         "--coord", "theta", "--from", "0.1", "--to", "0.7",
                         "--points", "3",
                         "--coord", "alpha", "--from", "0.0", "--to", "1.0",
                         "--points", "4", "--entries", "g_alpha_alpha"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13  # header + 3*4 rows


def test_scan_unknown_entry_exit_3(capsys):
    code = main(["scan", "--n", "2", "--coord", "theta", "--from", "0.1",
                 "--to", "0.2", "--points", "2", "--entries", "g_bogus_bogus"])
    assert code == 3


# A 3-level chart inside the paper's box, and an alpha x beta1 grid around it.
SCAN_N3 = ["--n", "3", "--theta1", "0.7", "--theta2", "0.6", "--phi", "0.4",
           "--beta2", "0.35", "--psi1", "0.2", "--psi2", "-0.5"]
SCAN_GRID3 = ["--coord", "alpha", "--from", "-0.3", "--to", "0.9", "--points", "3",
              "--coord", "beta1", "--from", "0.1", "--to", "1.6", "--points", "4"]

# (argv, SHA-256 of the printed text). Recorded with numpy 2.x on x86-64
# Linux; a libm or LAPACK that rounds the last bit differently changes them.
SCAN_DIGESTS = [
    (["--n", "2", "--alpha", "0.4", "--coord", "theta", "--from", "0.05", "--to", "0.75",
      "--points", "5", "--coord", "phi", "--from", "0", "--to", "3", "--points", "2",
      "--entries", "all", "--format", "csv"],
     "34bf21276b71427799bc251f2b0879c1e20e7ae9d8e836ec5bfb4228278412b2"),
    (["--n", "2", "--coord", "alpha", "--from", "0", "--to", "80", "--points", "4",
      "--theta", "20", "--degrees", "--entries", "diag", "--format", "json"],
     "a181699fa524ad36fa7d639b5fdba64002804ceac84d30eb4d6dee8ab256bddf"),
    (["--n", "2", "--theta", "0.3", "--coord", "alpha", "--from", "0.1", "--to", "1.2",
      "--points", "3", "--entries", "g_phi_alpha,g_alpha_alpha,g_phi_alpha,g_theta_theta",
      "--format", "csv"],
     "ee47e2ecf12587948bdd0c52fe764c2d81a0de13534ce8cf594f28082ea21e5e"),
    ([*SCAN_N3, *SCAN_GRID3, "--entries", "all", "--format", "csv"],
     "d79055d4d0e0620da7ff2ac9bd400ab303cd54b453a96134f0efb395872a3df1"),
    ([*SCAN_N3, *SCAN_GRID3, "--entries", "all", "--format", "json"],
     "ee2c176a597307fd19f24ea67afc5f9ab296546ceec1591bb0bd77bf342dd552"),
    ([*SCAN_N3, *SCAN_GRID3, "--entries", "diag", "--format", "csv"],
     "8097139161aa4e350148757646561610d93e5a9e415baa298d544edafd984590"),
    ([*SCAN_N3, *SCAN_GRID3,
      "--entries", "g_phi_alpha,g_beta1_psi2,g_phi_alpha,g_theta2_theta2", "--format", "json"],
     "84f2265a39586c61a9f63ebbed25fc17c143fce54b6062dbb54507e2ff4eab8b"),
    ([*SCAN_N3, "--alpha", "0.3", "--coord", "beta1", "--from", "0.2", "--to", "0.8",
      "--points", "2", "--method", "pullback", "--entries", "diag", "--format", "csv"],
     "8edd1e33d27eba9bcf819bad9be0b01d7a7a5744db268c109ec5f939ef84e8c7"),
]


@pytest.mark.parametrize("argv,digest", SCAN_DIGESTS)
def test_scan_output_bytes_pinned(argv, digest, capsys):
    code, out = run_cli(["scan", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scan_duplicate_entry_gives_one_column(capsys):
    code, out = run_cli(["scan", *SCAN_N3, *SCAN_GRID3, "--format", "json",
                         "--entries", "g_phi_alpha,g_alpha_phi,g_phi_alpha"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["header"] == ["alpha", "beta1", "g_phi_alpha", "g_alpha_phi",
                                 "sqrt_det_g"]
    for row in payload["rows"]:
        assert len(row) == 5 and row[2] == row[3]


@pytest.mark.parametrize("argv,want", [
    (SCAN_GRID3, 3),
    # the first chart is built before any entry name is read: beta >= pi wins
    (["--beta1", "3.2", "--coord", "alpha", "--from", "0", "--to", "1", "--points", "2"], 2),
])
def test_scan_unknown_entry_n3_exit_code(argv, want, capsys):
    code = main(["scan", *SCAN_N3, *argv, "--entries", "g_theta1_theta1,g_bogus"])
    assert code == want


@pytest.mark.parametrize("argv,want", [
    (["--n", "2", "--theta", "0.3"], 3),
    (SCAN_N3, 3),
    # a bad first chart still exits 2 before the entry is read
    ([*SCAN_N3, "--beta1", "3.2"], 2),
])
def test_scan_entry_without_g_prefix_exit_code(argv, want, capsys):
    code = main(["scan", *argv, "--coord", "alpha", "--from", "0", "--to", "1",
                 "--points", "2", "--entries", "xxalpha_alpha"])
    assert code == want
    assert capsys.readouterr().out == ""


def test_scan_coordinate_swept_twice_exit_3(capsys):
    code = main(["scan", "--n", "2", "--theta", "0.3", "--coord", "alpha", "--from", "0",
                 "--to", "1", "--points", "2", "--coord", "alpha", "--from", "3", "--to", "4",
                 "--points", "3"])
    assert code == 3
    assert "alpha" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# permtest
# ---------------------------------------------------------------------------

def test_permtest(capsys):
    code, out = run_cli(["permtest", "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    assert p["status"] == "PASS"
    assert len(p["identities"]) == 6
    by_name = {e["name"]: e for e in p["identities"]}
    assert by_name["(Id)"]["residual_literal"] <= 1e-15
    assert by_name["i(123)"]["residual_coset"] <= 1e-12
    assert by_name["i(123)"]["phase"] == "i"


# ---------------------------------------------------------------------------
# find-chart
# ---------------------------------------------------------------------------

def test_find_chart_diagonal(tmp_path, capsys):
    path = write_matrix(tmp_path, "rho.json", np.diag([0.75, 0.25]))
    code, out = run_cli(["find-chart", path, "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    assert p["chart"]["theta"] == pytest.approx(math.pi / 6, abs=1e-10)
    assert p["fit_residual"] <= 1e-10
    assert p["roundtrip_frobenius"] <= 1e-10


def test_find_chart_degenerate_exit_5(tmp_path, capsys):
    path = write_matrix(tmp_path, "mixed.json", np.eye(3) / 3)
    code = main(["find-chart", path])
    assert code == 5


def test_find_chart_round_trip_through_rho(tmp_path, capsys):
    out_path = tmp_path / "state.json"
    assert main(["rho", "--n", "3", "--theta1", "0.5", "--theta2", "0.6",
                 "--alpha", "0.3", "--phi", "0.1", "--beta1", "0.7",
                 "--beta2", "0.2", "--psi1", "0.4", "--psi2", "0.9",
                 "--format", "json", "--out", str(out_path)]) == 0
    code, out = run_cli(["find-chart", str(out_path), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["roundtrip_frobenius"] <= 1e-8


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["scan", "--n", "2", "--from", "0.1", "--to", "0.2", "--points", "2"],
    ["validate", "--samples", "x"],
    ["bogus"],
    ["validate", "--step", "1"],
    ["validate", "--tol", "nan"],
    ["validate", "--tol", "inf"],
    ["validate", "--tol", "-1"],
    ["validate", "--tol", "0"],
], ids=["missing-coord", "non-numeric-samples", "unknown-subcommand", "step-too-large",
        "tol-nan", "tol-inf", "tol-negative", "tol-zero"])
def test_usage_error_exit_3(argv, capsys):
    assert main(argv) == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"]])
def test_help_exit_0(argv, capsys):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


SCAN_ONE = ["scan", "--n", "2", "--coord", "theta", "--from", "0.1", "--to", "0.7",
            "--points", "3", "--entries", "all"]


def test_reused_parser_forgets_earlier_sweeps(capsys):
    cli._parser.cache_clear()
    fresh = run_cli(SCAN_ONE, capsys)
    assert fresh[0] == 0
    two = SCAN_ONE + ["--coord", "alpha", "--from", "0.0", "--to", "1.0", "--points", "2"]
    assert run_cli(two, capsys)[0] == 0
    assert run_cli(SCAN_ONE, capsys) == fresh


def test_reused_parser_forgets_earlier_tol(capsys, monkeypatch):
    monkeypatch.delenv("BURES_TOL", raising=False)
    argv = ["validate", "--n", "2", "--samples", "3", "--seed", "1", "--format", "json"]
    assert main(argv + ["--tol", "1e-300"]) == 6
    capsys.readouterr()
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["tol"] == 1e-6


def test_import_and_validate_leave_scipy_unloaded():
    # scipy is only for the recovery fallback; a fresh interpreter shows
    # whether anything on the import or validate path still loads it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = (
        "import sys\n"
        "import buresgeo, buresgeo.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "code = buresgeo.cli.main(['validate', '--n', '3', '--samples', '2', '--seed', '1'])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'validate'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "buresgeo.cli", "rho", "--n", "2",
         "--theta", "0.3", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dim"] == 2
