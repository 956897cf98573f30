import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buresgeo import cli, coset, errors, metric
from buresgeo.cli import main
from buresgeo.errors import VerificationFailure
from buresgeo.sampling import make_rng
from buresgeo.tol import RANGE_EPS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for a
    fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


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


def test_fidelity_takes_two_psd_roots(monkeypatch, capsys):
    # each state is decomposed once, when its DensityMatrix is built; the fidelity
    # reads both cached spectra, and the Bures distance reuses the fidelity
    from buresgeo import matcore
    calls = []
    eig = matcore.eig_hermitian
    monkeypatch.setattr(matcore, "eig_hermitian", lambda a: calls.append(a) or eig(a))
    code, _ = run_cli(["fidelity", "--state-a", STATE3A, "--state-b", STATE3B,
                       "--format", "json"], capsys)
    assert code == 0
    assert len(calls) == 2


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


@pytest.mark.parametrize("off, message", [
    (1e200, "error: not PSD: min eigenvalue -1.000e+200 < -1.0e-10\n"),
    # finite, Hermitian and of unit trace, but A + A^dag overflows
    (1e308, "error: not PSD: the spectrum overflows (a state has every |rho_ij| <= 1)\n"),
], ids=["1e200", "1e308"])
@pytest.mark.parametrize("command", [["fidelity", "--state-a", "{}", "--state-b", "theta=0.3"],
                                     ["find-chart", "{}"]], ids=["fidelity", "find-chart"])
def test_a_state_with_huge_entries_exits_4(off, message, command, tmp_path):
    path = write_matrix(tmp_path, "big.json", [[0.5, off], [off, 0.5]])
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "buresgeo.cli",
                           *(a.format(path) for a in command)],
                          capture_output=True, text=True, env=src_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", message)


HUGE3 = ["--n", "3", "--theta1", "0.5", "--theta2", "0.6"]


@pytest.mark.parametrize("argv, code, err", [
    (["rho", *HUGE3, "--alpha", "1e300"], 0, ""),
    (["metric", *HUGE3, "--alpha", "-1e300", "--method", "pullback"], 2,
     "error: coordinate alpha=-1e+300 out of range: a step of 1e-05 leaves it unchanged\n"),
    (["metric", *HUGE3, "--beta1", "0.4", "--phi", "1e300", "--method", "pullback"], 2,
     "error: coordinate phi=1e+300 out of range: a step of 1e-05 leaves it unchanged\n"),
], ids=["rho", "metric-pullback", "metric-pullback-phi"])
def test_a_huge_free_coordinate_builds_a_state_but_stops_the_pullback(argv, code, err):
    # alpha^2 overflows at 1e300, but the state is finite; a step of DEFAULT_STEP
    # leaves alpha or phi unchanged there, so the pullback has no difference to take
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "buresgeo.cli", *argv],
                          capture_output=True, text=True, env=src_env())
    assert (proc.returncode, proc.stderr) == (code, err)
    if code == 0:
        assert "nan" not in proc.stdout and "inf" not in proc.stdout


@pytest.mark.parametrize("neg,code", [(-5e-11, 0), (-2e-10, 4)])
def test_fidelity_psd_band(neg, code, tmp_path, capsys):
    # one PSD rule, the DensityMatrix construction check, for the state and its fidelity
    path = write_matrix(tmp_path, "rho.json", np.diag([0.6, 0.4 - neg, neg]))
    assert main(["fidelity", "--state-a", path, "--state-b", path]) == code
    if code:
        assert "not PSD" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("command", ["fidelity", "find-chart"])
def test_nonfinite_matrix_entry_exit_4(command, bad, tmp_path, capsys):
    mat = np.diag([0.75, 0.25]).astype(complex)
    mat[0, 1] = bad
    path = write_matrix(tmp_path, "bad.json", mat)
    argv = (["fidelity", "--state-a", path, "--state-b", "theta=0.3"]
            if command == "fidelity" else ["find-chart", path])
    assert main(argv) == 4
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["theta=0.1,theta=0.3", "theta1=0.2, theta1 =0.3"])
def test_inline_chart_repeated_key_exit_3(spec, capsys):
    assert main(["fidelity", "--state-a", spec, "--state-b", "theta=0.2"]) == 3
    assert "more than once" in capsys.readouterr().err


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


def test_metric_where_beta_squared_underflows_is_finite():
    # beta1 = 1e-300 > 0, so the closed form runs, but beta1 * beta1 == 0.0
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "buresgeo.cli", "metric", "--n", "3",
         "--theta1", "0.5", "--theta2", "0.6", "--beta1", "1e-300", "--format", "json"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    p = json.loads(proc.stdout)
    assert np.isfinite(p["closed"]).all() and np.isfinite(p["pullback"]).all()


def test_metric_at_an_exactly_singular_tensor_runs_clean():
    # det of the closed and pullback tensors is exactly 0 here: no warning, sqrt det +0.0
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "buresgeo.cli", "metric", "--n", "3",
         "--theta1", "0.6", "--theta2", "0.68", "--alpha", "1e-05", "--phi", "1.1",
         "--beta1", "1e-300", "--beta2", "5e-05", "--psi1", "1.1", "--psi2", "-1.1",
         "--format", "json"],
        capture_output=True, text=True, env=src_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    p = json.loads(proc.stdout)
    assert [p["sqrt_det_closed"], p["sqrt_det_pullback"]] == [0.0, 0.0]


@pytest.mark.parametrize("argv", [
    ["metric", "--n", "3", "--theta1", "0.5", "--theta2", "0.6", "--beta1", "0.3",
     "--alpha", "1e308", "--method", "closed"],
    ["metric", "--n", "2", "--theta", "0.3", "--alpha", "1e308"],
    ["scan", "--n", "3", "--theta1", "0.5", "--theta2", "0.6", "--beta1", "0.3",
     "--coord", "alpha", "--from", "1", "--to", "1e308", "--points", "3", "--format", "csv"],
], ids=["alpha-n3", "alpha-n2", "scan-alpha-n3"])
def test_closed_form_at_an_overflowing_angle_exits_2(argv):
    # sin of 4 alpha or 2 alpha = inf has no value
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "buresgeo.cli", *argv],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: coordinate ") and "overflows" in proc.stderr


def test_closed_form_at_a_gamma_that_overflows_as_a_float_exits_0():
    # gamma = phi - psi1 + psi2 = 2e308 is never formed: the closed route reads
    # e^{i phi} e^{-i psi1} e^{i psi2}, so every finite angle has its tensor
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "buresgeo.cli", "metric", "--n", "3",
         "--theta1", "0.5", "--theta2", "0.6", "--beta1", "0.3", "--phi", "1e308",
         "--psi2", "1e308", "--method", "closed", "--format", "json"],
        capture_output=True, text=True, env=src_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert np.isfinite(np.array(json.loads(proc.stdout)["closed"])).all()


def test_metric_closed_gap_below_gap_exit_5(capsys):
    # theta1 = 1e-4: lambda2 - lambda3 = 5e-9, below tol.GAP
    code = main(["metric", "--n", "3", "--theta1", "1e-4", "--beta1", "0.5",
                 "--method", "closed"])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: eigenvalue gap ")


def test_metric_closed_small_eigenvalues_with_open_gaps_exit_0(capsys):
    # lambda3 = 8.2e-7 and the smallest gap is 1.36e-6: no refusal
    code, out = run_cli(["metric", "--n", "3", "--theta1", "0.0017320516", "--theta2", "0.55",
                         "--beta1", "0.5", "--method", "closed", "--format", "json"], capsys)
    assert code == 0
    assert np.isfinite(np.array(json.loads(out)["closed"])).all()


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
    assert p["printed_entry_max_abs_dev"]["g_phi_beta2"] > 0


# the keys of the validate payload and of the per-point report, in order: a
# digest shows that bytes moved, this says which key did
VALIDATE_KEYS = ["n", "samples", "seed", "step", "tol", "max_abs_dev", "max_rel_dev",
                 "dittmann_max_rel_dev", "gamma_shift_max_dev", "volume_max_rel_dev",
                 "s_relation_max_dev", "per_entry_max_abs_dev", "dittmann_reading", "status"]
REPORT_KEYS = ["n", "chart", "ordering", "pullback", "closed", "entry_abs_dev", "max_abs_dev",
               "max_rel_dev", "dittmann_max_rel_dev", "dittmann_reading", "volume_pullback",
               "volume_closed", "volume_rel_dev"]
MISPRINTED = ["g_phi_beta1", "g_phi_beta2"]


@pytest.mark.parametrize("n", [2, 3])
def test_validate_payload_schema(n, capsys):
    fam = metric.FAMILIES[n]
    entries = [key for key, _, _ in metric.upper_entries(fam.coords)]
    code, out = run_cli(["validate", "--n", str(n), *PIN_SAMPLES, "--format", "json"], capsys)
    assert code == 0
    p = json.loads(out)
    assert list(p) == VALIDATE_KEYS + (["printed_entry_max_abs_dev", "note"] if n == 3 else [])
    assert list(p["per_entry_max_abs_dev"]) == entries
    report = metric.validate(fam.sample(make_rng(5))).to_dict()
    assert list(report) == REPORT_KEYS + (["gamma_shift_dev", "printed_entry_dev"] if n == 3
                                          else ["s_coeff_relation_dev"])
    assert list(report["chart"]) == list(fam.coords)
    assert list(report["entry_abs_dev"]) == entries
    if n == 3:
        assert list(p["printed_entry_max_abs_dev"]) == MISPRINTED
        assert list(report["printed_entry_dev"]) == MISPRINTED


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", ["2", "3"])
def test_validate_200_samples_keep_the_trace_forms_within_1e_11_of_hubner(n, capsys):
    # dittmann_max_rel_dev reads 4.8e-14 (n = 2) and 1.6e-13 (n = 3) at seed 0:
    # a trace-form accuracy loss far inside the 1e-6 --tol fails here
    code, out = run_cli(["validate", "--n", n, "--samples", "200", "--seed", "0",
                         "--format", "json"], capsys)
    p = json.loads(out)
    assert code == 0 and p["status"] == "PASS"
    assert p["dittmann_max_rel_dev"] <= 1e-11


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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("nan_sample", [0, 1])
def test_validate_fails_on_a_nan_deviation(n, nan_sample, monkeypatch, capsys):
    # max(0.0, nan) is 0.0: a nan deviation used to vanish, and validate passed
    real, reports = metric.validate, []

    def validate_with_nan(chart):
        rep = real(chart)
        if len(reports) == nan_sample:
            entries = dict(rep.entry_abs_dev)
            entries[next(iter(entries))] = math.nan
            rep = dataclasses.replace(rep, max_abs_dev=math.nan, dittmann_max_rel_dev=math.nan,
                                      entry_abs_dev=entries)
        reports.append(rep)
        return rep

    monkeypatch.setattr(metric, "validate", validate_with_nan)
    argv = ["validate", "--n", str(n), "--samples", "2", "--seed", "1"]
    code, out = run_cli(argv, capsys)
    assert code == VerificationFailure.exit_code == 6
    assert "  max_abs_dev: nan\n" in out and "  dittmann_max_rel_dev: nan\n" in out
    first = next(iter(reports[0].entry_abs_dev))
    assert f"  worst entry: {first} (nan)\n" in out
    assert out.splitlines()[-1].startswith("FAIL: ")
    reports.clear()
    code, out = run_cli([*argv, "--format", "json"], capsys)
    # strict JSON: a nan is null, never the bare NaN token that RFC 8259 lacks
    p = json.loads(out, parse_constant=strict_json_constant)
    assert code == 6 and p["status"] == "FAIL"
    assert p["max_abs_dev"] is None and p["dittmann_max_rel_dev"] is None
    assert p["per_entry_max_abs_dev"][first] is None


def strict_json_constant(name):
    """json.loads' hook for NaN, Infinity and -Infinity: strict JSON has none."""
    raise AssertionError(f"JSON output holds the non-standard constant {name}")


def per_key_merge_max(into, new):
    """cli._merge_max as it read with builtin max, for finite entries."""
    for k, v in new.items():
        into[k] = max(into.get(k, 0.0), v)


def test_merge_max_matches_builtin_max_per_key():
    rng = np.random.default_rng(33)
    keys = [f"g_{i}" for i in range(12)]
    for _ in range(2000):
        into = {k: float(rng.exponential()) for k in keys if rng.random() < 0.7}
        # shared keys, some new ones, ties and zeros of either sign
        new = {k: float(rng.choice([rng.exponential(), into.get(k, 0.0), 0.0, -0.0]))
               for k in keys if rng.random() < 0.7}
        want = dict(into)
        per_key_merge_max(want, new)
        cli._merge_max(into, new)
        assert list(into) == list(want)
        assert [v.hex() for v in into.values()] == [v.hex() for v in want.values()]


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

# The inputs of the per-command pins below.
PIN_N2 = ["--n", "2", "--theta", "0.3", "--alpha", "0.5", "--phi", "0.2"]
PIN_N3 = ["--n", "3", "--theta1", "0.6", "--theta2", "0.68", "--alpha", "0.3", "--phi", "0.4",
          "--beta1", "0.9", "--beta2", "0.5", "--psi1", "0.1", "--psi2", "0.7"]
PIN_DEGREES = ["--n", "2", "--theta", "20", "--alpha", "30", "--phi", "-45", "--degrees"]
PIN_INLINE = ["--state-a", "theta=0.3,alpha=0.5", "--state-b", "theta=0.2,phi=1.1"]
PIN_SAMPLES = ["--samples", "3", "--seed", "5"]
FAIL_TOL = "1e-300"  # no sample meets it: validate prints FAIL and exits 6
DATA = Path(__file__).resolve().parent / "data"
STATE2, STATE3A, STATE3B = (str(DATA / f"state{k}.json") for k in ("2", "3a", "3b"))

# (argv, SHA-256 of the printed text): every scan pin, then every other
# command in each format. Recorded with numpy 2.x on x86-64 Linux; a libm or
# LAPACK that rounds the last bit differently changes them.
OUTPUT_DIGESTS = [
    (["scan", "--n", "2", "--alpha", "0.4", "--coord", "theta", "--from", "0.05", "--to", "0.75",
      "--points", "5", "--coord", "phi", "--from", "0", "--to", "3", "--points", "2",
      "--entries", "all", "--format", "csv"],
     "34bf21276b71427799bc251f2b0879c1e20e7ae9d8e836ec5bfb4228278412b2"),
    (["scan", "--n", "2", "--coord", "alpha", "--from", "0", "--to", "80", "--points", "4",
      "--theta", "20", "--degrees", "--entries", "diag", "--format", "json"],
     "a181699fa524ad36fa7d639b5fdba64002804ceac84d30eb4d6dee8ab256bddf"),
    (["scan", "--n", "2", "--theta", "0.3", "--coord", "alpha", "--from", "0.1", "--to", "1.2",
      "--points", "3", "--entries", "g_phi_alpha,g_alpha_alpha,g_phi_alpha,g_theta_theta",
      "--format", "csv"],
     "ee47e2ecf12587948bdd0c52fe764c2d81a0de13534ce8cf594f28082ea21e5e"),
    (["scan", *SCAN_N3, *SCAN_GRID3, "--entries", "all", "--format", "csv"],
     "da93ce17cac1ea28d5a282fa57de796aa2c44e752ee0d2a841ac86aee14d2da2"),
    (["scan", *SCAN_N3, *SCAN_GRID3, "--entries", "all", "--format", "json"],
     "0523bea63d7610d3c8575d8e8d199786f4df2428e7f2e87e80cab285a79fe401"),
    (["scan", *SCAN_N3, *SCAN_GRID3, "--entries", "diag", "--format", "csv"],
     "3d29f0ffa280e48070cacdb75617670d8d8a99959f09823fd6f2237aa60883f4"),
    (["scan", *SCAN_N3, *SCAN_GRID3,
      "--entries", "g_phi_alpha,g_beta1_psi2,g_phi_alpha,g_theta2_theta2", "--format", "json"],
     "c9e1a526533465f4ad7ac482e9b1620735a6f7e142edb23de324baa09dd89885"),
    (["scan", *SCAN_N3, "--alpha", "0.3", "--coord", "beta1", "--from", "0.2", "--to", "0.8",
      "--points", "2", "--method", "pullback", "--entries", "diag", "--format", "csv"],
     "b414d9d4f169332613e2555ed199e80e1f2c31c61c494d80c81fccd07d6b919e"),
    (["rho", *PIN_N2, "--format", "json"],
     "6deac507db9a4385385c2affba180f03c847365a92ea1f3f597981996702c829"),
    (["rho", *PIN_N2, "--format", "csv"],
     "f261256fb1a9a72c77fd0b48d44129c8d6e822a63197686465cde0ee85658ad3"),
    (["rho", *PIN_N2, "--format", "pretty"],
     "1b8e1dfaaff1a5da3a41a2319d3964a939d23dc0d1318831443a849e412cd991"),
    (["rho", *PIN_N3, "--format", "json"],
     "35c41bce00c39b5050c006bfce4c3cf156441bd02237e7e2379256dbbb1f485d"),
    (["rho", *PIN_N3, "--format", "csv"],
     "8718b384c6bb57f3d7fd87e4cfeb1580f542396023684d5a82b7fc7afe51c493"),
    (["rho", *PIN_N3, "--format", "pretty"],
     "1626006d298c8e57cb72559cf530fcb207ca7a584bb341bbd7775277c4100ede"),
    (["rho", *PIN_DEGREES, "--format", "json"],
     "a68c0d0316d05c8c540dfe453c582c3cc2acbd923d5826c10a22e1540b8cc0f8"),
    (["rho", *PIN_DEGREES, "--format", "csv"],
     "601291debd40c9677cacbfa74b52305179a1692e52676069b1fadf6e2babb186"),
    (["rho", *PIN_DEGREES, "--format", "pretty"],
     "0f74bb4a0c5b592737da2b01e6c7127bc15dfd498ab68071a22c4cc1046808de"),
    (["fidelity", "--state-a", STATE3A, "--state-b", STATE3B, "--format", "json"],
     "82727a6a727258eb17aa315b96069535e12511dafa911a7ee434a0be6a2266e0"),
    (["fidelity", "--state-a", STATE3A, "--state-b", STATE3B, "--format", "csv"],
     "0110dc7faf3bed8efd9cdc2d569a2d604f5dc482701d3d7474f21b0e807d4c06"),
    (["fidelity", "--state-a", STATE3A, "--state-b", STATE3B, "--format", "pretty"],
     "1664eddf9e76d8fc958145807a269c700ba2ee8022e2c286f1dc0e11acb0c698"),
    (["fidelity", *PIN_INLINE, "--format", "json"],
     "64f9d7a8e7aa6c702d57a45c46ec4b93fbcc1d4eb71d8a900d5cf9071d76cb68"),
    (["fidelity", *PIN_INLINE, "--format", "csv"],
     "72ce33d891ea3b71ec86fe486831cc3b73df7762c42af9e1ac12c72d2d6a3a3b"),
    (["fidelity", *PIN_INLINE, "--format", "pretty"],
     "28cc0536d8994d5cd7010ec7efaa397ada700fdc44efa5a894b3d36e69fee61e"),
    (["metric", *PIN_N2, "--method", "closed", "--format", "json"],
     "1415f6df6ba2d71f6f0e90034705f86894ac62fbcb983442b6c4cbe44006062e"),
    (["metric", *PIN_N2, "--method", "closed", "--format", "csv"],
     "8682f043304fd97704838a0d63c283c33651e0c76fa80c718814fd16c30f0161"),
    (["metric", *PIN_N2, "--method", "closed", "--format", "pretty"],
     "d98f3ac8d20730e8d5052ada0906b86e9745a1a2a7362ad4d0163427c665b0ec"),
    (["metric", *PIN_N3, "--method", "closed", "--format", "json"],
     "837e50020ab4d9906da34cc47b1114bc1996bf0434cd48a5ac9f4e7a770b406e"),
    (["metric", *PIN_N3, "--method", "closed", "--format", "csv"],
     "a6053bed9ceb1a13155faa646244601695dc71f2d3fef439b50ea589ad459ad9"),
    (["metric", *PIN_N3, "--method", "closed", "--format", "pretty"],
     "1829259482cc05c3061f973a1713236417dd34a1985acae7e01edb9518b28dd4"),
    (["metric", *PIN_N2, "--method", "pullback", "--format", "json"],
     "335bc37082234f436ce2abce65d93916fd495de8476b8d7a3c12197bb3e00687"),
    (["metric", *PIN_N2, "--method", "pullback", "--format", "csv"],
     "8288a2b3dd4e64dd16bb723b65522fd892b6860e0b66b3f617ef90f666847afc"),
    (["metric", *PIN_N2, "--method", "pullback", "--format", "pretty"],
     "ba0e3d3e9c89982cd9517eca22c3aa92215fab4c544b29025557eda5e0ddcfb4"),
    (["metric", *PIN_N3, "--method", "pullback", "--format", "json"],
     "d69c7bdb86816fb0aff09814f8f58203ba20faebe73a2b8ea4610b8efc9e1c72"),
    (["metric", *PIN_N3, "--method", "pullback", "--format", "csv"],
     "84926110c2194789261d2f51743fcbc494cfb9db04a55e8a4b44293f91902a5a"),
    (["metric", *PIN_N3, "--method", "pullback", "--format", "pretty"],
     "2d2aa1f1957fda0c794fe3c6960582ce395c85140e49a80e798d62ffc110b39f"),
    (["metric", *PIN_N2, "--method", "both", "--format", "json"],
     "6dafdd932098c2910d69bc08f32cec8799b2ffe39f6f564de5a5a6be2967e5df"),
    (["metric", *PIN_N2, "--method", "both", "--format", "csv"],
     "2b370287b95fc25af03c41e99892c6fd23b9ea60be6ea575e473a44ee47173d3"),
    (["metric", *PIN_N2, "--method", "both", "--format", "pretty"],
     "4b668bd11789b15ddf5ded7675ef6ceac00e4fecbb30735553b828fb2e3c1d79"),
    (["metric", *PIN_N3, "--method", "both", "--format", "json"],
     "e0928529436105d1a61712bd42acbb0ffc3fad7a1a1cb7e691a5fd18928f2229"),
    (["metric", *PIN_N3, "--method", "both", "--format", "csv"],
     "c209cc7c3b5cbcd578588df6ab311bab97127e5866f393ddd0fa47d04a953370"),
    (["metric", *PIN_N3, "--method", "both", "--format", "pretty"],
     "39f91e0f56b46983367c675ff23d6673e375c9f8e76f0f1ee649668878d73cec"),
    (["validate", "--n", "2", *PIN_SAMPLES, "--format", "json"],
     "b4947ddb311d18180b7017165ae9fa6e763a336dd87b62f6da49cfd3e0ca771e"),
    (["validate", "--n", "2", *PIN_SAMPLES, "--format", "csv"],
     "8cf9e4bf62ac6e7abead0dfc9aa56e61d194fca6d025b357ef08b4c951c460b6"),
    (["validate", "--n", "2", *PIN_SAMPLES, "--format", "pretty"],
     "8cf9e4bf62ac6e7abead0dfc9aa56e61d194fca6d025b357ef08b4c951c460b6"),
    (["validate", "--n", "2", *PIN_SAMPLES, "--tol", FAIL_TOL, "--format", "json"],
     "2ae79b75c8e63fe402758c902b4ef9dee594a80fb31709e16e49b16c93efe7c8"),
    (["validate", "--n", "2", *PIN_SAMPLES, "--tol", FAIL_TOL, "--format", "csv"],
     "4525f5851c99d0261348abe9d661c075f3fac4ceda0dfe05871c1e639bd04e51"),
    (["validate", "--n", "2", *PIN_SAMPLES, "--tol", FAIL_TOL, "--format", "pretty"],
     "4525f5851c99d0261348abe9d661c075f3fac4ceda0dfe05871c1e639bd04e51"),
    (["validate", "--n", "3", *PIN_SAMPLES, "--format", "json"],
     "0df3dfffd5bf206c28eb58b8d0a179f39e122127a4913b56190a38912c0f2e29"),
    (["validate", "--n", "3", *PIN_SAMPLES, "--format", "csv"],
     "ef2d6c70a2cc257ad831d99c37bd908235788bc91bdb651c74ad8ab54d40f0a9"),
    (["validate", "--n", "3", *PIN_SAMPLES, "--format", "pretty"],
     "ef2d6c70a2cc257ad831d99c37bd908235788bc91bdb651c74ad8ab54d40f0a9"),
    (["validate", "--n", "3", *PIN_SAMPLES, "--tol", FAIL_TOL, "--format", "json"],
     "a2ae0a7add586285878f5e23838a61b91cf554d158afefd9db8dd865facd89ac"),
    (["validate", "--n", "3", *PIN_SAMPLES, "--tol", FAIL_TOL, "--format", "csv"],
     "f9535cafb9360621b1a7eb770406bbce99d52297f44d4525ab46230a88c47a1c"),
    (["validate", "--n", "3", *PIN_SAMPLES, "--tol", FAIL_TOL, "--format", "pretty"],
     "f9535cafb9360621b1a7eb770406bbce99d52297f44d4525ab46230a88c47a1c"),
    (["permtest", "--format", "json"],
     "fa301c9d0b68e69ffd75ef4dad8b6f3c6bc5ff26fd691e68b13143207867cc65"),
    (["permtest", "--format", "csv"],
     "9f2330b5926ad9e88daef0cf01b54f33f429296d3e3a7a881f4b5a81d363ab33"),
    (["permtest", "--format", "pretty"],
     "9f2330b5926ad9e88daef0cf01b54f33f429296d3e3a7a881f4b5a81d363ab33"),
    (["find-chart", STATE2, "--format", "json"],
     "8692d8e2760a66cb8d5547f1a202b0d7ca5f46471c7223c6c78b8289e34c7e8b"),
    (["find-chart", STATE2, "--format", "csv"],
     "c697c63c7a23b6e669d0bcca9bd50c39dd16a0a142d1ca0b74b8dd2ec2c29074"),
    (["find-chart", STATE2, "--format", "pretty"],
     "c697c63c7a23b6e669d0bcca9bd50c39dd16a0a142d1ca0b74b8dd2ec2c29074"),
    (["find-chart", STATE3A, "--n", "3", "--format", "json"],
     "16f8b5b16243077698e1375b368cf2fdae71d9d818dab154a2ad813d05ddf4a4"),
    (["find-chart", STATE3A, "--n", "3", "--format", "csv"],
     "dad3b34b8d9f0d879ce6ecc7a3f57d77b127d0ff7f6de9fd4ef7638376de2a54"),
    (["find-chart", STATE3A, "--n", "3", "--format", "pretty"],
     "dad3b34b8d9f0d879ce6ecc7a3f57d77b127d0ff7f6de9fd4ef7638376de2a54"),
    # the 200-point closed-scan grid, where beta1 crosses +-1e-4 at beta2 = 1e-5, so beta
    # runs from 1e-5 to 1e-4, where 1 - cos(beta) and 1 - sinc(beta) are small
    # (last, so the pins above keep their ids)
    (["scan", "--n", "3", "--theta1", "0.7", "--theta2", "0.6", "--phi", "0.4", "--beta2", "1e-5",
      "--psi1", "0.2", "--psi2", "-0.5", "--coord", "alpha", "--from", "-0.3", "--to", "1.2",
      "--points", "20", "--coord", "beta1", "--from", "-1e-4", "--to", "1e-4", "--points", "10",
      "--entries", "all", "--format", "csv"],
     "f78b590150b11fb1bdfe63890b526187db4012dd71ced0cfeaf7e96189cf7271"),
]


# ids by position (pin0 ... pin62): a re-recorded digest keeps its test's name
@pytest.mark.parametrize("argv,digest", OUTPUT_DIGESTS,
                         ids=[f"pin{i}" for i in range(len(OUTPUT_DIGESTS))])
def test_scan_output_bytes_pinned(argv, digest, capsys):
    code, out = run_cli(argv, capsys)
    assert code == (6 if FAIL_TOL in argv else 0)
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


def test_permtest_nan_residual_fails(monkeypatch, capsys):
    # NaN compares false both ways: the table's one check must still reject it
    name, settings, sigma, phase, exact = coset._PERM_CASES[2]
    spoiled = exact.copy()
    spoiled[0, 0] = math.nan
    cases = list(coset._PERM_CASES)
    cases[2] = (name, settings, sigma, phase, spoiled)
    monkeypatch.setattr(coset, "_PERM_CASES", cases)
    with pytest.raises(VerificationFailure, match=r"i\(13\)"):
        coset.permutation_table()
    assert main(["permtest"]) == 6
    assert "i(13) failed: exact residual nan" in capsys.readouterr().err


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


# files that are missing or not a matrix file; "{tmp}" is the test's directory
BAD_FILES = {
    "array.json": "[1, 2]",
    "text-re.json": '{"dim": 2, "re": [["a", 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
    "shape.json": '{"dim": 2, "re": [[1, 0, 0]], "im": [[0, 0, 0]]}',
    # numpy would read these entries as 0.0, 0.6 and nan: each is not a number
    **{f"{value}-{key}.json": json.dumps({"dim": 2, "re": [[0.6, 0], [0, 0.4]],
                                           "im": [[0, 0], [0, 0]], key: [[0, 0], [entry, 0]]})
       for key in ("re", "im")
       for value, entry in (("bool", False), ("string", "0.6"), ("null", None))},
    # an integer beyond a double
    "huge-int-re.json": '{"dim": 2, "re": [[1%s, 0], [0, 0]], "im": [[0, 0], [0, 0]]}'
                        % ("0" * 400),
    # JSON's NaN and Infinity tokens are floats: read, then refused as a state
    "nan-re.json": '{"dim": 2, "re": [[NaN, 0], [0, 0.4]], "im": [[0, 0], [0, 0]]}',
    "infinity-im.json": '{"dim": 2, "re": [[0.6, 0], [0, 0.4]], "im": [[0, 0], [-Infinity, 0]]}',
}
SWEEP = ["--from", "0.1", "--to", "0.2", "--points", "2"]


@pytest.mark.parametrize("argv,code,message", [
    (["find-chart", "{tmp}/missing.json"], 3, "cannot read"),
    (["find-chart", "{tmp}/array.json"], 3, 'expected an object with keys "dim", "re", "im"'),
    (["find-chart", "{tmp}/text-re.json"], 3, "re/im are not numeric arrays"),
    (["find-chart", "{tmp}/shape.json"], 3, "re/im must both be 2x2 row-major arrays"),
    *[(["find-chart", f"{{tmp}}/{value}-{key}.json"], 3,
       f"{value}-{key}.json: re/im are not numeric arrays: {shown} is not a number")
      for key in ("re", "im")
      for value, shown in (("bool", "false"), ("string", '"0.6"'), ("null", "null"))],
    (["find-chart", "{tmp}/huge-int-re.json"], 3,
     "re/im are not numeric arrays: int too large to convert to float"),
    (["find-chart", "{tmp}/nan-re.json"], 4, "matrix has a non-finite entry"),
    (["find-chart", "{tmp}/infinity-im.json"], 4, "matrix has a non-finite entry"),
    (["fidelity", "--state-a", "theta=abc", "--state-b", "theta=0.2"], 3,
     "bad numeric value in 'theta=abc'"),
    (["fidelity", "--state-a", ",=", "--state-b", "theta=0.2"], 3, "bad numeric value in '='"),
    (["fidelity", "--state-a", "theta=0.3,bogus=1", "--state-b", "theta=0.2"], 3,
     "unknown coordinates for n=2: ['bogus']"),
    (["fidelity", "--state-a", "theta=0.3,alpha", "--state-b", "theta=0.2"], 3,
     "bad chart term 'alpha', expected name=value"),
    (["scan", "--n", "2", "--coord", "theta", *SWEEP, "--points", "3"], 3,
     "--coord/--from/--to/--points counts must match"),
    (["scan", "--n", "2", "--coord", "theta1", *SWEEP], 3,
     "unknown sweep coordinate 'theta1' for n=2"),
    (["find-chart", STATE2, "--n", "3"], 4, "--n 3 but the file holds a 2x2 matrix"),
], ids=["missing-file", "json-array", "non-numeric-re", "wrong-shape",
        *[f"{value}-{key}" for key in ("re", "im") for value in ("bool", "string", "null")],
        "huge-int-re", "nan-re", "infinity-im", "inline-non-numeric",
        "inline-empty-key", "inline-unknown-key", "inline-term-without-value",
        "scan-count-mismatch", "scan-unknown-coord",
        "find-chart-wrong-n"])
def test_bad_input_exit_code_and_message(argv, code, message, tmp_path, capsys):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    assert message in capsys.readouterr().err


RHO2 = ["rho", "--n", "2", "--theta", "0.3"]


@pytest.mark.parametrize("argv,message", [
    ([*RHO2, "--out", "{tmp}/missing-dir/out.json"],
     "error: cannot write {tmp}/missing-dir/out.json:"),
    ([*RHO2, "--out", "{tmp}"], "error: cannot write {tmp}:"),
    (["find-chart", "{tmp}/latin1.json"], "error: {tmp}/latin1.json is not valid JSON:"),
    (["fidelity", "--state-a", "{tmp}/latin1.json", "--state-b", "theta=0.2"],
     "error: {tmp}/latin1.json is not valid JSON:"),
    (["find-chart", "{tmp}/deep.json"], "error: {tmp}/deep.json is not valid JSON:"),
    (["fidelity", "--state-a", "{tmp}/deep.json", "--state-b", "theta=0.2"],
     "error: {tmp}/deep.json is not valid JSON:"),
], ids=["out-missing-dir", "out-onto-dir", "find-chart-non-utf8", "fidelity-non-utf8",
        "find-chart-nested-100000", "fidelity-nested-100000"])
def test_a_file_that_cannot_be_read_or_written_exits_3(argv, message, tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"dim": 1, "re": [[1]], "im": [[0]], "n": "\xe9"}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.replace("{tmp}", str(tmp_path)))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("dim,n,shown", [(True, 1, "true"), (1.0, 1, "1.0"), (2.0, 2, "2.0"),
                                         ("2", 2, '"2"')])
@pytest.mark.parametrize("command", ["fidelity", "find-chart"])
def test_a_dim_that_is_not_an_integer_exits_3(command, dim, n, shown, tmp_path, capsys):
    # the shape test alone passes each of these: True == 1 and 2.0 == 2
    mat = np.eye(n) / n
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": dim, "re": mat.tolist(), "im": np.zeros((n, n)).tolist()}))
    argv = (["fidelity", "--state-a", str(path), "--state-b", str(path)]
            if command == "fidelity" else ["find-chart", str(path)])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f'error: {path}: "dim" must be an integer, not {shown}\n'


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
    ["validate", "--tol", "nan"],
    ["validate", "--tol", "inf"],
    ["validate", "--tol", "-1"],
    ["validate", "--tol", "0"],
    ["validate", "--samples", "0"],
], ids=["missing-coord", "non-numeric-samples", "unknown-subcommand", "tol-nan", "tol-inf",
        "tol-negative", "tol-zero", "samples-zero"])
def test_usage_error_exit_3(argv, capsys):
    assert main(argv) == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1e-4", "-1.1111111111111112e-05", "-2E-3", "-.5e-1"])
def test_metric_reads_negative_e_notation_as_the_flag_value(value, capsys):
    chart = ["metric", "--n", "3", "--theta1", "0.5", "--theta2", "0.6", "--format", "json"]
    code, spaced = run_cli([*chart, "--beta1", value], capsys)
    assert code == 0
    assert run_cli([*chart, f"--beta1={value}"], capsys) == (0, spaced)
    assert run_cli([*chart, "--beta1", value[1:]], capsys)[1] != spaced


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-INF"])
def test_negative_nonfinite_chart_value_exits_2(value, capsys):
    # read as the flag's value, like "inf", not as an unknown option
    code = main(["metric", "--n", "3", "--theta1", "0.5", "--theta2", "0.6", "--beta1", value])
    assert code == 2
    assert "coordinate beta1=" in capsys.readouterr().err


@pytest.mark.parametrize("text,joined", [
    ("-1", True), ("-1.", True), ("-.5", True), ("-1_000.5e-1_0", True), ("-2E+3", True),
    ("-inf", True), ("-iNfInItY", True), ("-NaN", True), ("-1e5 ", True), ("-\u0661", True),
    ("-", False), ("-e5", False), ("-1__0", False), ("-_1", False), ("-1_", False),
    ("-1e", False), ("-infinit", False), ("-\u0131nf", False), ("-1\x1c", False),
    ("--1", False), ("-0x10", False), ("-beta1", False)])
def test_negative_float_is_every_negative_spelling_float_reads(text, joined):
    try:
        float(text)
        reads = True
    except ValueError:
        reads = False
    assert reads == joined
    assert cli._join_negative_values(["--beta1", text]) == (
        [f"--beta1={text}"] if joined else ["--beta1", text])


@pytest.mark.parametrize("sweep", [
    ["--from=inf", "--to", "1"], ["--from", "-inf", "--to", "1"], ["--from", "0", "--to=nan"],
    ["--from", "1e308", "--to=-1e308"], ["--from", "1e308", "--to=-1e308", "--degrees"],
], ids=["from-inf", "from-minus-inf", "to-nan", "span-overflows", "degrees-finite"])
def test_scan_nonfinite_sweep_exits_2(sweep, capsys):
    code = main(["scan", "--n", "2", "--theta", "0.3", "--coord", "alpha", *sweep,
                 "--points", "3"])
    out, err = capsys.readouterr()
    if "--degrees" in sweep:  # the span in radians, 3.5e306, does not overflow
        assert code == 0 and "nan" not in out
    else:
        assert code == 2 and out == ""
        assert "coordinate alpha=" in err and ("--from" in err or "--to" in err)


@pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-5"]])
def test_validate_negative_seed_is_a_usage_error(seed, capsys):
    assert main(["validate", "--n", "2", "--samples", "1", *seed]) == 3
    assert "--seed" in capsys.readouterr().err


def test_scan_values_paste_back_as_flag_values(capsys):
    # scan prints %.17g values such as -1.0000000000000001e-05; each one is
    # read back as the value of --from, --to and a chart flag
    base = ["scan", "--n", "3", "--theta1", "0.7", "--theta2", "0.6", "--format", "csv",
            "--coord", "beta1"]
    code, out = run_cli([*base, "--from", "-1e-4", "--to", "-1e-5", "--points", "10"], capsys)
    assert code == 0
    assert run_cli([*base, "--from=-1e-4", "--to=-1e-5", "--points", "10"], capsys) == (0, out)
    rows = out.splitlines()[1:]
    assert rows[-1].startswith("-1.0000000000000001e-05,")
    for row in rows:
        value = row.split(",")[0]
        code, again = run_cli([*base, "--from", value, "--to", value, "--points", "1"], capsys)
        assert code == 0 and again.splitlines()[1] == row
        assert run_cli(["metric", "--n", "3", "--theta1", "0.7", "--theta2", "0.6",
                        "--beta1", value, "--method", "closed"], capsys)[0] == 0


@pytest.mark.parametrize("argv", [
    ["metric", "--n", "2", "--theta", "0.3", "--step", "1e-4"],
    ["validate", "--step", "1"],
    ["scan", "--n", "2", "--coord", "theta", "--from", "0.1", "--to", "0.2", "--points", "2",
     "--step", "1e-4"],
], ids=["metric", "validate", "scan"])
def test_step_is_not_an_option(argv, capsys):
    # the pullback always differences at tol.DEFAULT_STEP
    assert main(argv) == 3
    assert "unrecognized arguments: --step" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--n", "2", "--samples", "1", "--degrees"],
    ["permtest", "--degrees"],
    ["find-chart", STATE2, "--degrees"],
], ids=["validate", "permtest", "find-chart"])
def test_degrees_only_where_chart_coordinates_are_read(argv, capsys):
    # these commands read no chart coordinates, so --degrees is not an option
    assert main(argv) == 3
    assert "unrecognized arguments: --degrees" in capsys.readouterr().err


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


def test_reused_parser_forgets_earlier_tol(capsys):
    argv = ["validate", "--n", "2", "--samples", "3", "--seed", "1", "--format", "json"]
    assert main(argv + ["--tol", "1e-300"]) == 6
    capsys.readouterr()
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["tol"] == 1e-6


ERROR_TYPES = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.BuresGeoError)]


@pytest.mark.parametrize("etype", ERROR_TYPES, ids=lambda c: c.__name__)
def test_every_error_type_declares_the_exit_code_main_returns(etype, monkeypatch, capsys):
    # each type names its own code, so a new one cannot exit 1 unseen
    assert "exit_code" in vars(etype)
    exc = (etype("n", 4, "spoiled") if etype is errors.OutOfChartRange
           else etype("spoiled"))

    def spoiled():
        raise exc

    monkeypatch.setattr(coset, "permutation_table", spoiled)
    assert main(["permtest"]) == etype.exit_code
    assert "spoiled" in capsys.readouterr().err


@pytest.mark.parametrize("etype", ERROR_TYPES, ids=lambda c: c.__name__)
def test_every_error_type_survives_pickle_and_copy(etype):
    # a worker process hands its error back pickled; the copy keeps the
    # message, the arguments and the exit code
    exc = (etype("beta", 4.0, "spoiled") if etype is errors.OutOfChartRange
           else etype("spoiled"))
    for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert type(clone) is etype
        assert (str(clone), clone.args, clone.exit_code) == (str(exc), exc.args, exc.exit_code)
        assert vars(clone) == vars(exc)


def test_a_caught_chart_refusal_keeps_its_message_and_pickles():
    # the refusal of a state outside the theta box formats its message when
    # it is read: the same line as before, also after a pickle round trip
    from buresgeo import recover
    with pytest.raises(errors.OutOfChartRange) as refused:
        recover.find_chart3(np.diag([0.8, 0.19, 0.01]).astype(complex))
    exc = refused.value
    assert exc.args[0] == exc.coordinate == "spectrum" and exc.args[1] is exc.value
    want = (f"coordinate spectrum={exc.value!r} out of range: no eigenvalue ordering fits "
            "the chart box (needs lambda1 >= 1/3 and lambda2/lambda3 in [1, 3])")
    assert str(exc) == want
    assert str(pickle.loads(pickle.dumps(exc))) == want


def test_import_and_validate_leave_scipy_unloaded():
    # no package code path needs scipy; a fresh interpreter shows whether
    # anything on the import, validate or find-chart path still loads it
    script = (
        "import sys\n"
        "import buresgeo, buresgeo.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "code = buresgeo.cli.main(['validate', '--n', '3', '--samples', '2', '--seed', '1'])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'validate'\n"
        f"code = buresgeo.cli.main(['find-chart', {STATE3A!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'find-chart'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr


def test_every_command_and_a_library_round_trip_run_with_scipy_blocked():
    # with sys.modules["scipy"] = None any import of scipy raises ImportError,
    # so a package path that imports it fails here, even behind a try
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import buresgeo as bg\n"
        "from buresgeo.cli import main\n"
        "for argv in (['validate', '--n', '3', '--samples', '2', '--seed', '1'],\n"
        "             ['scan', *sys.argv[1:]],\n"
        "             ['fidelity', '--state-a', 'theta=0.3', '--state-b', 'theta=0.2,phi=1.1'],\n"
        f"             ['find-chart', {STATE3A!r}, '--n', '3']):\n"
        "    assert main(argv) == 0, argv\n"
        "state = bg.rho3(bg.random_chart3(bg.make_rng(0)))\n"
        "chart, _ = bg.find_chart(state.mat)\n"
        "assert 1.0 - bg.fidelity(bg.rho3(chart), state) <= 1e-8\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script, *SCAN_N3, *SCAN_GRID3],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "buresgeo.cli", "rho", "--n", "2",
         "--theta", "0.3", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dim"] == 2


# ---------------------------------------------------------------------------
# JSON output: the non-finite pass, then json.dumps(indent=2, allow_nan=False)
# ---------------------------------------------------------------------------

# strings with every character json escapes, non-ASCII ones and surrogates
JSON_TEXT = st.text(st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "a",
                                     " ", "é", " ", "\ud800", "\U0001f600"]),
                    max_size=5) | st.text(max_size=4)
JSON_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan, 0.1, 1e16, 1e-7])
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2 ** 64, -(2 ** 200)]),
    # around the 4,300 digits beyond which int.__repr__ raises ValueError
    st.integers(4295, 4305).map(lambda k: 10 ** k),
    JSON_FLOATS, JSON_FLOATS.map(np.float64), JSON_TEXT)
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), JSON_FLOATS, JSON_FLOATS.map(np.float64),
                      st.booleans(), st.none())
JSON_PAYLOADS = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(JSON_KEYS, inner, max_size=4)), max_leaves=24)


def check_nulled(got, value):
    """``got`` is ``value`` with exactly its nan and infinite floats, at any
    depth, made None and its tuples made lists; every key and other value is
    the same object."""
    if isinstance(value, float) and not math.isfinite(value):
        assert got is None
    elif isinstance(value, dict):
        assert type(got) is dict and len(got) == len(value)
        for (key, item), (got_key, got_item) in zip(value.items(), got.items()):
            assert got_key is key
            check_nulled(got_item, item)
    elif isinstance(value, (list, tuple)):
        assert type(got) is list and len(got) == len(value)
        for got_item, item in zip(got, value):
            check_nulled(got_item, item)
    else:
        assert got is value


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(payload=JSON_PAYLOADS)
def test_the_nonfinite_pass_nulls_exactly_the_nonfinite_floats(payload):
    before = pickle.dumps(payload)
    check_nulled(cli._null_nonfinite(payload), payload)
    assert pickle.dumps(payload) == before  # the input is left as it was
    # what json refuses (a nan key, an int of more than 4,300 digits) raises
    # json's own error; anything else is strict JSON
    try:
        text = cli.render("json", payload, None, None)
    except (TypeError, ValueError) as exc:
        assert Path(traceback.extract_tb(exc.__traceback__)[-1].filename).parts[-2:] == (
            "json", "encoder.py")
    else:
        assert text.endswith("\n")
        json.loads(text, parse_constant=strict_json_constant)


@pytest.mark.parametrize("argv", [argv for argv, _ in OUTPUT_DIGESTS],
                         ids=[f"pin{i}" for i in range(len(OUTPUT_DIGESTS))])
def test_every_command_payload_renders_as_strict_json_that_reads_back(argv):
    # each pinned command's payload, whatever format its pin prints: the
    # non-finite pass nulls only its nan and infinite floats, and the JSON
    # parses strictly back to the nulled payload, floats bit for bit
    args = cli._parse(cli._join_negative_values(argv))
    _, payload, table, pretty = args.run(args)
    before = pickle.dumps(payload)
    nulled = cli._null_nonfinite(payload)
    check_nulled(nulled, payload)
    text = cli.render("json", payload, table, pretty)
    assert pickle.dumps(payload) == before
    assert text.endswith("\n")
    assert json.loads(text, parse_constant=strict_json_constant) == nulled


@pytest.mark.parametrize("bad", [{1.0, 2.0}, b"bytes", np.int64(3), np.bool_(True), object()],
                         ids=["set", "bytes", "int64", "numpy-bool", "object"])
def test_render_refuses_what_json_refuses(bad):
    # the non-finite pass hands a value json cannot write through untouched,
    # so json refuses it with its own TypeError, at any depth and as a key
    payloads = [bad, [1.0, bad], {"k": (None, bad)}]
    if not isinstance(bad, set):  # hashable: as a key, too
        payloads.append({"ok": 1, bad: 1})
    for payload in payloads:
        with pytest.raises(TypeError) as caught:
            cli.render("json", payload, None, None)
        assert Path(caught.traceback[-1].path).parts[-2:] == ("json", "encoder.py")
    assert cli._null_nonfinite(bad) is bad


# ---------------------------------------------------------------------------
# dispatch: a command's flags go straight to its parser, with the top-level
# parser's results
# ---------------------------------------------------------------------------

def top_level_parse(argv):
    return cli._parser().parse_args(argv)


def parse_outcome(parse, argv):
    """(vars of the namespace or None, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns, code = vars(parse(argv)), None
        except SystemExit as exc:
            ns, code = None, exc.code
    return ns, code, out.getvalue(), err.getvalue()


def main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


DISPATCH_ARGV = [
    # every command with its flags
    ["rho", *PIN_N3, "--format", "json"],
    ["rho", *PIN_DEGREES, "--format", "csv"],
    ["fidelity", *PIN_INLINE, "--degrees", "--format", "pretty"],
    ["fidelity", "--state-a", STATE3A, "--state-b", STATE3B],
    ["metric", *PIN_N3, "--method", "both", "--format", "json"],
    ["validate", "--n", "3", *PIN_SAMPLES, "--tol", "1e-6", "--format", "json"],
    ["scan", *SCAN_N3, *SCAN_GRID3, "--entries", "all", "--method", "closed", "--format", "csv"],
    ["permtest", "--format", "pretty"],
    ["find-chart", STATE3A, "--n", "3", "--format", "json"],
    # abbreviated flags, --flag=value and joined negative values
    ["validate", "--sam", "2", "--see", "4", "--n", "2"],
    ["validate", "--s", "2"],
    ["metric", *PIN_N2, "--format=json", "--meth=closed"],
    ["metric", "--n", "3", "--theta1", "0.5", "--theta2", "0.6", "--beta1", "-1e-4",
     "--psi2", "-0.5", "--method", "closed"],
    ["scan", "--n", "3", "--theta1", "0.7", "--theta2", "0.6", "--coord", "beta1",
     "--from", "-1e-4", "--to=-1e-5", "--points", "3"],
    # help
    ["-h"], ["--help"], ["validate", "-h"], ["scan", "--he"], [],
    # an unknown command, and arguments after a valid command
    ["bogus"], ["bogus", "--n", "2"], ["--n", "2", "rho"], ["permtest", "extra"],
    ["rho", "--n", "2", "stray", "--bogus", "-1"], ["validate", "--n", "2", "--", "x"],
    # a missing required flag, a bad choice, --degrees on validate
    ["scan", "--n", "2", "--from", "0.1", "--to", "0.2", "--points", "2"],
    ["fidelity", "--state-a", STATE2],
    ["rho", "--n", "4"], ["rho", "--format", "xml"], ["validate", "--samples", "x"],
    ["validate", "--n", "2", "--samples", "1", "--degrees"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=[" ".join(a) or "[]" for a in DISPATCH_ARGV])
def test_dispatch_gives_the_top_level_parsers_results(argv, monkeypatch):
    joined = cli._join_negative_values(argv)
    want = parse_outcome(top_level_parse, joined)
    assert parse_outcome(cli._parse, joined) == want
    got = main_outcome(argv)
    monkeypatch.setattr(cli, "_parse", top_level_parse)
    assert got == main_outcome(argv)


def test_dispatch_gives_the_top_level_namespace_on_the_cli_table():
    for argv, _ in OUTPUT_DIGESTS:
        joined = cli._join_negative_values(argv)
        got = parse_outcome(cli._parse, joined)
        assert got[0] is not None and got == parse_outcome(top_level_parse, joined), argv


# ---------------------------------------------------------------------------
# every command at edge values: a documented exit code, and nothing escapes
# ---------------------------------------------------------------------------

def _ends(*ends):
    return [e + k * RANGE_EPS for e in ends for k in (-1, 0, 1)]


EDGE_VALUES = [repr(v) for v in (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.0 ** 37, 1e308, -1e308,
    math.inf, -math.inf, math.nan, 0.3, 0.6, -1.1,
    *_ends(coset.THETA_MAX, coset.THETA1_MAX, coset.THETA2_MIN, coset.THETA2_MAX,
           coset.BETA_MAX, -coset.BETA_MAX))]
STATE_FILES = {
    "state2": [[0.75, 0.1j], [-0.1j, 0.25]],
    "state3": coset.rho3(coset.CosetChart3(0.5, 0.6, 0.3, 0.4, 0.5, 0.2, 0.1, 0.7)).mat,
    "pure2": np.diag([1.0, 0.0]),
    "mixed2": np.eye(2) / 2,
    "mixed3": np.eye(3) / 3,
    "not_psd2": np.diag([1.2, -0.2]),
    "not_psd3": np.diag([0.7, 0.5, -0.2]),
    "not_hermitian": [[0.5, 0.1], [0.3, 0.5]],
    "trace": np.diag([0.9, 0.9]),
    "huge": [[0.5, 1e308], [1e308, 0.5]],
    "out_of_box3": np.diag([0.5, 0.45, 0.05]),
    "n1": [[1.0]],
    "n4": np.eye(4) / 4,
    "nan": [[0.5, math.nan], [0.0, 0.5]],
}
RAW_FILES = {"bad_json": "{not json", "no_keys": "[]",
             "dim_text": '{"dim": "2", "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}',
             "ragged": '{"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}'}


@st.composite
def chart_flags(draw):
    """--n and chart flags of its family, now and then one of the other family."""
    n = draw(st.sampled_from([2, 3]))
    names = metric.COORDS2 if n == 2 else metric.COORDS3
    picked = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    if draw(st.integers(0, 9)) == 0:
        picked.append(draw(st.sampled_from(cli.CHART_FLAGS)))
    argv = ["--n", str(n)]
    for name in picked:
        argv += [f"--{name}", draw(st.sampled_from(EDGE_VALUES))]
    return n, names, argv


@st.composite
def cli_argv(draw, files):
    command = draw(st.sampled_from(["rho", "metric", "scan", "validate", "permtest",
                                    "fidelity", "find-chart"]))
    argv = [command]
    if command in ("rho", "metric", "scan"):
        n, names, flags = draw(chart_flags())
        argv += flags
        if command == "metric":
            argv += ["--method", draw(st.sampled_from(["closed", "pullback", "both"]))]
        if command == "scan":
            coords = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
            for coord in coords:
                argv += ["--coord", coord, "--from", draw(st.sampled_from(EDGE_VALUES)),
                         "--to", draw(st.sampled_from(EDGE_VALUES)),
                         "--points", str(draw(st.integers(1, 3)))]
            argv += ["--method", draw(st.sampled_from(["closed", "pullback"])),
                     "--entries", draw(st.sampled_from(["diag", "all", "g_alpha_alpha", "g_x"]))]
    elif command == "validate":
        argv += ["--n", draw(st.sampled_from(["2", "3"])),
                 "--samples", str(draw(st.integers(1, 2))),
                 "--seed", str(draw(st.integers(0, 2 ** 64))),
                 "--tol", draw(st.sampled_from(EDGE_VALUES))]
    elif command == "fidelity":
        for flag in ("--state-a", "--state-b"):
            if draw(st.booleans()):
                state = draw(st.sampled_from(files))
            else:
                names = draw(st.sampled_from([("theta",), ("theta1", "theta2", "beta1")]))
                state = ",".join(f"{k}={draw(st.sampled_from(EDGE_VALUES))}" for k in names)
            argv += [flag, state]
    elif command == "find-chart":
        argv.append(draw(st.sampled_from(files)))
        if draw(st.booleans()):
            argv += ["--n", draw(st.sampled_from(["2", "3"]))]
    argv += ["--format", draw(st.sampled_from(["json", "csv", "pretty"]))]
    if command in ("rho", "metric", "scan", "fidelity") and draw(st.booleans()):
        argv.append("--degrees")
    return argv


def test_every_command_at_edge_values_exits_with_a_documented_code():
    with tempfile.TemporaryDirectory() as tmp:
        files = [write_matrix(Path(tmp), f"{name}.json", mat) for name, mat in STATE_FILES.items()]
        for name, text in RAW_FILES.items():
            (Path(tmp) / f"{name}.json").write_text(text)
            files.append(str(Path(tmp) / f"{name}.json"))
        files.append(str(Path(tmp) / "missing.json"))

        @settings(max_examples=600, deadline=None, derandomize=True, database=None)
        @given(argv=cli_argv(files))
        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 2, 3, 4, 5, 6), (argv, code, err.getvalue())

        run()
