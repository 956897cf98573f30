"""Command-line surface.

Subcommands: rho, fidelity, metric, validate, scan, permtest, find-chart.
Every command is a deterministic function of its flags, the seed and any
input files. Exit codes: 0 success, 2 chart-range violation, 3 parse error
(including command-line usage errors), 4 invalid density matrix,
5 degenerate/singular state, 6 a validation tolerance was exceeded (or a fit
failed).

Matrix files are JSON objects {"dim": n, "re": [[...]], "im": [[...]]} with
row-major arrays of decimal doubles; matrices emitted by ``rho`` parse back
bit-identically.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import coset, metric, recover, sampling
from .bures import bures_distance, fidelity
from .coset import CosetChart2, CosetChart3, DensityMatrix
from .errors import (
    BoundaryTooClose,
    BuresGeoError,
    ConvergenceFailure,
    DegenerateSpectrum,
    DegenerateSupport,
    DimensionMismatch,
    FitFailure,
    InvalidDensityMatrix,
    InvalidTangent,
    NotHermitian,
    NotPSD,
    OutOfChartRange,
    PureState,
    SingularState,
    VerificationFailure,
)

EXIT_OK = 0
EXIT_RANGE = 2
EXIT_PARSE = 3
EXIT_INVALID_STATE = 4
EXIT_DEGENERATE = 5
EXIT_TOLERANCE = 6

DEFAULT_TOL = 1e-6
TOL_ENV_VAR = "BURES_TOL"


class ParseError(BuresGeoError):
    """Input file or inline specification could not be parsed."""


_EXIT_BY_EXC: list[tuple[type, int]] = [
    (OutOfChartRange, EXIT_RANGE),
    (ParseError, EXIT_PARSE),
    (InvalidDensityMatrix, EXIT_INVALID_STATE),
    (InvalidTangent, EXIT_INVALID_STATE),
    (NotHermitian, EXIT_INVALID_STATE),
    (NotPSD, EXIT_INVALID_STATE),
    (DimensionMismatch, EXIT_INVALID_STATE),
    (DegenerateSpectrum, EXIT_DEGENERATE),
    (DegenerateSupport, EXIT_DEGENERATE),
    (SingularState, EXIT_DEGENERATE),
    (PureState, EXIT_DEGENERATE),
    (BoundaryTooClose, EXIT_DEGENERATE),
    (ConvergenceFailure, EXIT_DEGENERATE),
    (FitFailure, EXIT_TOLERANCE),
    (VerificationFailure, EXIT_TOLERANCE),
]


def exit_code_for(exc: BaseException) -> int:
    for etype, code in _EXIT_BY_EXC:
        if isinstance(exc, etype):
            return code
    return 1


@dataclass
class RunConfig:
    """Parsed invocation: which command, on which chart, with which knobs."""

    command: str
    n: int = 2
    chart: dict = field(default_factory=dict)
    seed: int = 0
    samples: int = 100
    step: float = metric.DEFAULT_STEP
    tol: float = DEFAULT_TOL
    method: str = "both"
    output_format: str = "pretty"
    output_path: Optional[str] = None
    degrees: bool = False

    def __post_init__(self):
        if self.samples < 1:
            raise OutOfChartRange("samples", self.samples, "must be >= 1")
        if not (0.0 < self.step <= 1e-2):
            raise OutOfChartRange("step", self.step, "must lie in (0, 1e-2]")


# ---------------------------------------------------------------------------
# matrix file IO
# ---------------------------------------------------------------------------

def read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not {"dim", "re", "im"} <= set(payload):
        raise ParseError(f'{path}: expected an object with keys "dim", "re", "im"')
    dim = payload["dim"]
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: re/im are not numeric arrays: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(f"{path}: re/im must both be {dim}x{dim} row-major arrays")
    return re + 1j * im


def matrix_payload(mat: np.ndarray) -> dict:
    return {
        "dim": int(mat.shape[0]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


# ---------------------------------------------------------------------------
# chart construction from flags
# ---------------------------------------------------------------------------

COORD_DEFAULTS2 = {"theta": 0.0, "alpha": 0.0, "phi": 0.0}
COORD_DEFAULTS3 = {"theta1": 0.0, "theta2": math.pi / 6, "alpha": 0.0, "phi": 0.0,
                   "beta1": 0.0, "beta2": 0.0, "psi1": 0.0, "psi2": 0.0}


def _convert(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def chart_from_values(n: int, values: dict, degrees: bool = False):
    defaults = COORD_DEFAULTS2 if n == 2 else COORD_DEFAULTS3
    unknown = set(values) - set(defaults)
    if unknown:
        raise ParseError(f"unknown coordinates for n={n}: {sorted(unknown)}")
    coords = dict(defaults)
    coords.update({k: _convert(v, degrees) for k, v in values.items()})
    if n == 2:
        return CosetChart2(**coords)
    return CosetChart3(**coords)


def parse_inline_chart(spec: str, degrees: bool):
    """Parse 'theta=0.3,alpha=0.1,...'; n is inferred from the keys."""
    values = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad chart term {part!r}, expected name=value")
        key, _, raw = part.partition("=")
        try:
            values[key.strip()] = float(raw)
        except ValueError as exc:
            raise ParseError(f"bad numeric value in {part!r}") from exc
    if not values:
        raise ParseError("empty chart specification")
    n = 2 if "theta" in values else 3
    return chart_from_values(n, values, degrees)


def load_state(spec: str, degrees: bool) -> DensityMatrix:
    """A state given either as a matrix-file path or an inline chart."""
    if "=" in spec:
        chart = parse_inline_chart(spec, degrees)
        return coset.rho2(chart) if isinstance(chart, CosetChart2) else coset.rho3(chart)
    return coset.as_density(read_matrix(spec))


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def render_matrix_pretty(label: str, mat: np.ndarray) -> list[str]:
    lines = [f"{label} (real part):"]
    for row in mat.real:
        lines.append("  " + "  ".join(f"{x:+.12f}" for x in row))
    lines.append(f"{label} (imag part):")
    for row in mat.imag:
        lines.append("  " + "  ".join(f"{x:+.12f}" for x in row))
    return lines


def emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def payload_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row.values()])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_rho(cfg: RunConfig) -> tuple[int, str]:
    chart = chart_from_values(cfg.n, cfg.chart, cfg.degrees)
    rho = coset.rho2(chart) if cfg.n == 2 else coset.rho3(chart)
    w = rho.eigenvalues
    payload = matrix_payload(rho.mat)
    payload.update({
        "eigenvalues": w.tolist(),
        "trace": float(np.trace(rho.mat).real),
        "min_eigenvalue": float(w[0]),
    })
    if cfg.output_format == "json":
        return EXIT_OK, json.dumps(payload, indent=2)
    if cfg.output_format == "csv":
        rows = [{"i": i, "j": j,
                 "re": float(rho.mat[i, j].real), "im": float(rho.mat[i, j].imag)}
                for i in range(cfg.n) for j in range(cfg.n)]
        return EXIT_OK, payload_to_csv(rows)
    lines = render_matrix_pretty("rho", rho.mat)
    lines.append("eigenvalues: " + "  ".join(_fmt(x) for x in w))
    lines.append(f"trace: {_fmt(payload['trace'])}")
    lines.append(f"min eigenvalue: {_fmt(payload['min_eigenvalue'])}")
    return EXIT_OK, "\n".join(lines)


def cmd_fidelity(cfg: RunConfig, state_a: str, state_b: str) -> tuple[int, str]:
    ra = load_state(state_a, cfg.degrees)
    rb = load_state(state_b, cfg.degrees)
    f = fidelity(ra, rb)
    payload = {
        "fidelity": f,
        "sqrt_fidelity": math.sqrt(f),
        "bures_distance": bures_distance(ra, rb),
    }
    if cfg.output_format == "json":
        return EXIT_OK, json.dumps(payload, indent=2)
    if cfg.output_format == "csv":
        return EXIT_OK, payload_to_csv([payload])
    return EXIT_OK, "\n".join(f"{k}: {_fmt(v)}" for k, v in payload.items())


def _metric_pair(cfg: RunConfig, chart):
    closed = pull = None
    if cfg.method in ("closed", "both"):
        closed = (metric.closed_metric2(chart) if cfg.n == 2
                  else metric.closed_metric3(chart))
    if cfg.method in ("pullback", "both"):
        pull = (metric.pullback_metric2(chart, cfg.step) if cfg.n == 2
                else metric.pullback_metric3(chart, cfg.step))
    return closed, pull


def cmd_metric(cfg: RunConfig) -> tuple[int, str]:
    chart = chart_from_values(cfg.n, cfg.chart, cfg.degrees)
    closed, pull = _metric_pair(cfg, chart)
    ordering = metric.COORDS2 if cfg.n == 2 else metric.COORDS3
    payload: dict = {"ordering": list(ordering)}
    if closed is not None:
        payload["closed"] = closed.g.tolist()
        payload["sqrt_det_closed"] = metric.volume_element(closed)
    if pull is not None:
        payload["pullback"] = pull.g.tolist()
        payload["sqrt_det_pullback"] = metric.volume_element(pull)
    if closed is not None and pull is not None:
        payload["max_abs_dev"] = float(np.max(np.abs(closed.g - pull.g)))
    if cfg.output_format == "json":
        return EXIT_OK, json.dumps(payload, indent=2)
    if cfg.output_format == "csv":
        rows = []
        for i, a in enumerate(ordering):
            for j in range(i, len(ordering)):
                row = {"entry": f"g_{a}_{ordering[j]}"}
                if closed is not None:
                    row["closed"] = float(closed.g[i, j])
                if pull is not None:
                    row["pullback"] = float(pull.g[i, j])
                rows.append(row)
        return EXIT_OK, payload_to_csv(rows)
    lines = ["ordering: " + " ".join(ordering)]
    if closed is not None:
        lines.append("closed-form tensor:")
        for row in closed.g:
            lines.append("  " + "  ".join(f"{x:+.10e}" for x in row))
        lines.append(f"sqrt(det g) closed: {_fmt(payload['sqrt_det_closed'])}")
    if pull is not None:
        lines.append("pullback tensor:")
        for row in pull.g:
            lines.append("  " + "  ".join(f"{x:+.10e}" for x in row))
        lines.append(f"sqrt(det g) pullback: {_fmt(payload['sqrt_det_pullback'])}")
    if "max_abs_dev" in payload:
        lines.append(f"max |closed - pullback| = {_fmt(payload['max_abs_dev'])}")
    return EXIT_OK, "\n".join(lines)


def cmd_validate(cfg: RunConfig) -> tuple[int, str]:
    rng = sampling.make_rng(cfg.seed)
    entry_max: dict[str, float] = {}
    printed_max: dict[str, float] = {}
    t_dev_max = {"printed_theta_dev": 0.0, "printed_eigenvalue_dev": 0.0}
    agg = {"max_abs_dev": 0.0, "max_rel_dev": 0.0, "dittmann_max_rel_dev": 0.0,
           "gamma_shift_max_dev": 0.0, "volume_max_rel_dev": 0.0,
           "s_relation_max_dev": 0.0}
    for _ in range(cfg.samples):
        chart = (sampling.random_chart2(rng) if cfg.n == 2
                 else sampling.random_chart3(rng))
        rep = metric.validate(chart, h=cfg.step)
        agg["max_abs_dev"] = max(agg["max_abs_dev"], rep.max_abs_dev)
        agg["max_rel_dev"] = max(agg["max_rel_dev"], rep.max_rel_dev)
        agg["dittmann_max_rel_dev"] = max(agg["dittmann_max_rel_dev"],
                                          rep.dittmann_max_rel_dev)
        agg["volume_max_rel_dev"] = max(agg["volume_max_rel_dev"], rep.volume_rel_dev)
        for k, v in rep.entry_abs_dev.items():
            entry_max[k] = max(entry_max.get(k, 0.0), v)
        if rep.gamma_shift_dev is not None:
            agg["gamma_shift_max_dev"] = max(agg["gamma_shift_max_dev"],
                                             rep.gamma_shift_dev)
        if rep.printed_entry_dev is not None:
            for k, v in rep.printed_entry_dev.items():
                printed_max[k] = max(printed_max.get(k, 0.0), v)
        if rep.t_coeff_table is not None:
            for tname in rep.t_coeff_table:
                for dkey in t_dev_max:
                    t_dev_max[dkey] = max(t_dev_max[dkey],
                                          rep.t_coeff_table[tname][dkey])
        if rep.s_coeff_relation_dev is not None:
            agg["s_relation_max_dev"] = max(agg["s_relation_max_dev"],
                                            rep.s_coeff_relation_dev)
    checked = (agg["max_abs_dev"], agg["dittmann_max_rel_dev"],
               agg["gamma_shift_max_dev"])
    ok = all(v <= cfg.tol for v in checked)
    payload = {
        "n": cfg.n, "samples": cfg.samples, "seed": cfg.seed, "step": cfg.step,
        "tol": cfg.tol, **agg,
        "per_entry_max_abs_dev": entry_max,
        "dittmann_reading": "printed",
        "status": "PASS" if ok else "FAIL",
    }
    if cfg.n == 3:
        payload["printed_entry_max_abs_dev"] = printed_max
        payload["t_coeff_max_dev_vs_trace_form"] = t_dev_max
        payload["note"] = (
            "printed_entry_* and t_coeff_* report how far the circulated "
            "closed-form variants drift from the oracle-validated ones; they "
            "do not affect the PASS/FAIL status."
        )
    if cfg.output_format == "json":
        return (EXIT_OK if ok else EXIT_TOLERANCE), json.dumps(payload, indent=2)
    lines = [f"validate n={cfg.n} samples={cfg.samples} seed={cfg.seed}"]
    for k, v in agg.items():
        lines.append(f"  {k}: {_fmt(v)}")
    worst = max(entry_max, key=entry_max.get)
    lines.append(f"  worst entry: {worst} ({_fmt(entry_max[worst])})")
    if cfg.n == 3:
        lines.append(f"  printed g_phi_beta1 max dev (reported only): "
                     f"{_fmt(printed_max.get('g_phi_beta1', 0.0))}")
        lines.append(f"  printed t-coefficient max dev (reported only): "
                     f"theta-form {_fmt(t_dev_max['printed_theta_dev'])}, "
                     f"eigenvalue-form {_fmt(t_dev_max['printed_eigenvalue_dev'])}")
    lines.append(f"{payload['status']}: tolerance {_fmt(cfg.tol)}")
    return (EXIT_OK if ok else EXIT_TOLERANCE), "\n".join(lines)


def _entry_picks(entries: str, mt: metric.MetricTensor) -> list[tuple[str, int, int]]:
    """The ``--entries`` choice as ordered (key, i, j); a repeated key counts once."""
    names = mt.ordering
    if entries == "all":
        keys = mt.entry_names()
    elif entries == "diag":
        keys = [f"g_{c}_{c}" for c in names]
    else:
        keys = entries.split(",")
    index = {f"g_{a}_{b}": (i, j) for i, a in enumerate(names) for j, b in enumerate(names)}
    picks = {}
    for key in keys:
        if key not in index:
            raise ParseError(f"unknown tensor entry {key!r}")
        picks[key] = index[key]
    return [(key, i, j) for key, (i, j) in picks.items()]


def cmd_scan(cfg: RunConfig, sweeps: list[tuple[str, float, float, int]],
             entries: str) -> tuple[int, str]:
    names = metric.COORDS2 if cfg.n == 2 else metric.COORDS3
    base = dict(COORD_DEFAULTS2 if cfg.n == 2 else COORD_DEFAULTS3)
    base.update({k: _convert(v, cfg.degrees) for k, v in cfg.chart.items()})
    sweep_names = [s[0] for s in sweeps]
    for coord in sweep_names:
        if coord not in names:
            raise ParseError(f"unknown sweep coordinate {coord!r} for n={cfg.n}")
        if sweep_names.count(coord) > 1:
            raise ParseError(f"coordinate {coord!r} is swept more than once")
    grids = [np.linspace(_convert(a, cfg.degrees), _convert(b, cfg.degrees), k)
             for _, a, b, k in sweeps]
    chart_type = CosetChart2 if cfg.n == 2 else CosetChart3
    if cfg.method == "pullback":
        pull = metric.pullback_metric2 if cfg.n == 2 else metric.pullback_metric3
        tensor = functools.partial(pull, h=cfg.step)
    else:
        tensor = metric.closed_metric2 if cfg.n == 2 else metric.closed_metric3

    picks = None
    rows = []
    for combo in np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(
            -1, len(grids)).tolist():
        values = dict(base)
        values.update(zip(sweep_names, combo))
        mt = tensor(chart_type(**values))
        if picks is None:
            # read the entry names only now: a bad first chart outranks a bad name
            picks = _entry_picks(entries, mt)
        g = mt.g.tolist()
        rows.append((*combo, *[g[i][j] for _, i, j in picks], metric.volume_element(mt)))
    header = sweep_names + [key for key, _, _ in picks] + ["sqrt_det_g"]
    if cfg.output_format == "json":
        return EXIT_OK, json.dumps({"header": header, "rows": rows}, indent=2)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    # every value is a float, printed as _fmt prints it; none needs csv quoting
    line = ",".join(["%.17g"] * len(header)) + "\n"
    buf.writelines([line % row for row in rows])
    return EXIT_OK, buf.getvalue()


def cmd_permtest(cfg: RunConfig) -> tuple[int, str]:
    table = coset.permutation_table()
    entries = []
    for p in table:
        entries.append({
            "name": p.name,
            "phase": "i" if abs(p.phase - 1j) < 1e-15 else "1",
            "residual_exact": p.residual_exact,
            "residual_coset": p.residual_coset,
            "residual_literal": p.residual_literal,
        })
    ok = all(e["residual_coset"] <= coset.PERM_VERIFY_TOL
             and e["residual_exact"] <= coset.PERM_VERIFY_TOL for e in entries)
    payload = {
        "identities": entries,
        "status": "PASS" if ok else "FAIL",
        "note": (
            "residual_coset measures equality with phase*P modulo the torus "
            "stabilizer (per-column phases); residual_literal is the raw "
            "entrywise gap to phase*P, which is O(1) for the non-identity "
            "cases because fixed levels keep phase 1."
        ),
    }
    if cfg.output_format == "json":
        return (EXIT_OK if ok else EXIT_TOLERANCE), json.dumps(payload, indent=2)
    lines = [f"{len(entries)}/{len(entries)} identities verified"
             if ok else "permutation identity verification FAILED"]
    for e in entries:
        lines.append(
            f"  {e['name']:7s} phase={e['phase']}  exact={e['residual_exact']:.3e}  "
            f"coset={e['residual_coset']:.3e}  literal={e['residual_literal']:.3e}")
    lines.append(payload["note"])
    return (EXIT_OK if ok else EXIT_TOLERANCE), "\n".join(lines)


def cmd_find_chart(cfg: RunConfig, input_path: str,
                   n: Optional[int] = None) -> tuple[int, str]:
    rho = coset.as_density(read_matrix(input_path))
    if n is not None and rho.dim != n:
        raise DimensionMismatch(f"--n {n} but the file holds a {rho.dim}x{rho.dim} matrix")
    chart, residual = recover.find_chart(rho)
    rebuilt = coset.rho2(chart) if isinstance(chart, CosetChart2) else coset.rho3(chart)
    roundtrip = float(np.linalg.norm(rebuilt.mat - rho.mat))
    names = metric.COORDS2 if isinstance(chart, CosetChart2) else metric.COORDS3
    payload = {
        "n": rho.dim,
        "chart": {k: v for k, v in zip(names, chart.values())},
        "fit_residual": residual,
        "roundtrip_frobenius": roundtrip,
    }
    if cfg.output_format == "json":
        return EXIT_OK, json.dumps(payload, indent=2)
    lines = [f"recovered chart (n={rho.dim}):"]
    for k, v in payload["chart"].items():
        lines.append(f"  {k} = {_fmt(v)}")
    lines.append(f"fit residual: {_fmt(residual)}")
    lines.append(f"round-trip Frobenius error: {_fmt(roundtrip)}")
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _step_value(text: str) -> float:
    v = float(text)
    if not (0.0 < v <= 1e-2):
        raise argparse.ArgumentTypeError("step must lie in (0, 1e-2]")
    return v


def _tol_value(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v > 0.0):
        raise argparse.ArgumentTypeError("tol must be finite and > 0")
    return v


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="output_format", default="pretty",
                   choices=("json", "csv", "pretty"))
    p.add_argument("--out", dest="output_path", default=None,
                   help="write output to this path instead of stdout")
    p.add_argument("--degrees", action="store_true",
                   help="interpret chart coordinates as degrees")


def _add_chart_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, choices=(2, 3), default=2)
    for name in metric.COORDS3:
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buresgeo",
        description="Coset charts for 2- and 3-level states and the Bures "
                    "metric over them, cross-validated numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="build a density matrix from chart coordinates")
    _add_chart_flags(p)
    _add_common(p)

    p = sub.add_parser("fidelity", help="fidelity and Bures distance of two states")
    p.add_argument("--state-a", required=True,
                   help="matrix file path or inline chart 'theta=...,alpha=...'")
    p.add_argument("--state-b", required=True)
    _add_common(p)

    p = sub.add_parser("metric", help="metric tensor at a chart point")
    _add_chart_flags(p)
    p.add_argument("--method", choices=("closed", "pullback", "both"), default="both")
    p.add_argument("--step", type=_step_value, default=metric.DEFAULT_STEP)
    _add_common(p)

    p = sub.add_parser("validate", help="cross-validate all routes on random points")
    p.add_argument("--n", type=int, choices=(2, 3), default=2)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=_step_value, default=metric.DEFAULT_STEP)
    p.add_argument("--tol", type=_tol_value, default=None,
                   help=f"tolerance (default {DEFAULT_TOL}, or ${TOL_ENV_VAR})")
    _add_common(p)

    p = sub.add_parser("scan", help="sweep coordinates, one CSV row per grid point")
    _add_chart_flags(p)
    p.add_argument("--coord", action="append", required=True,
                   help="coordinate to sweep (repeatable)")
    p.add_argument("--from", dest="start", action="append", type=float, required=True)
    p.add_argument("--to", dest="stop", action="append", type=float, required=True)
    p.add_argument("--points", action="append", type=_positive_int, required=True)
    p.add_argument("--entries", default="diag",
                   help="'diag', 'all', or comma list like g_theta_theta")
    p.add_argument("--method", choices=("closed", "pullback"), default="closed")
    p.add_argument("--step", type=_step_value, default=metric.DEFAULT_STEP)
    _add_common(p)

    p = sub.add_parser("permtest", help="verify the six permutation identities")
    _add_common(p)

    p = sub.add_parser("find-chart", help="recover chart coordinates from a matrix file")
    p.add_argument("input", help="JSON matrix file")
    p.add_argument("--n", type=int, choices=(2, 3), default=None)
    _add_common(p)

    return parser


def _collect_chart(args) -> dict:
    names = metric.COORDS2 if args.n == 2 else metric.COORDS3
    all_names = set(metric.COORDS3) | {"theta"}
    stray = [f"--{name}" for name in sorted(all_names - set(names))
             if getattr(args, name, None) is not None]
    if stray:
        raise ParseError(
            f"{', '.join(stray)} not valid for n={args.n} "
            f"(expected {', '.join('--' + n for n in names)})")
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _resolve_tol(args) -> float:
    tol = getattr(args, "tol", None)
    if tol is not None:
        return tol
    env = os.environ.get(TOL_ENV_VAR)
    if env:
        try:
            return _tol_value(env)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParseError(f"bad {TOL_ENV_VAR} value {env!r}: {exc}") from exc
    return DEFAULT_TOL


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use.

    Building it costs about as much as a small command; parse_args keeps no
    state in it between calls, so one instance serves every call of main.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, and 2 is the
        # chart-range code here: a usage error is a parse error
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        cfg = RunConfig(
            command=args.command,
            n=getattr(args, "n", 2) or 2,
            chart=_collect_chart(args) if hasattr(args, "theta1") else {},
            seed=getattr(args, "seed", 0),
            samples=getattr(args, "samples", 100),
            step=getattr(args, "step", metric.DEFAULT_STEP),
            tol=_resolve_tol(args),
            method=getattr(args, "method", "both"),
            output_format=args.output_format,
            output_path=args.output_path,
            degrees=getattr(args, "degrees", False),
        )
        if args.command == "rho":
            code, text = cmd_rho(cfg)
        elif args.command == "fidelity":
            code, text = cmd_fidelity(cfg, args.state_a, args.state_b)
        elif args.command == "metric":
            code, text = cmd_metric(cfg)
        elif args.command == "validate":
            code, text = cmd_validate(cfg)
        elif args.command == "scan":
            sweeps = list(zip(args.coord, args.start, args.stop, args.points))
            if not (len(args.coord) == len(args.start) == len(args.stop)
                    == len(args.points)):
                raise ParseError("--coord/--from/--to/--points counts must match")
            code, text = cmd_scan(cfg, sweeps, args.entries)
        elif args.command == "permtest":
            code, text = cmd_permtest(cfg)
        elif args.command == "find-chart":
            code, text = cmd_find_chart(cfg, args.input, args.n)
        else:  # pragma: no cover
            raise ParseError(f"unknown command {args.command!r}")
    except BuresGeoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exit_code_for(exc)
    emit(text, cfg.output_path)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
