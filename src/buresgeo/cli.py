"""Command-line surface.

Subcommands: rho, fidelity, metric, validate, scan, permtest, find-chart.
Every command is a deterministic function of its flags, the seed and any
input files. Exit codes: 0 success, 2 chart-range violation, 3 parse error
(including command-line usage errors), 4 invalid density matrix,
5 degenerate/singular state, 6 a validation tolerance was exceeded (or a fit
failed).

Matrix files are JSON objects {"dim": n, "re": [[...]], "im": [[...]]} with
row-major arrays of JSON numbers read as doubles (a bool, a string or null is
a parse error); matrices emitted by ``rho`` parse back bit-identically.
``--format json`` writes strict JSON through ``json.dumps`` (``render``): a
nan or infinite value (a failed deviation, say) is null there, and nan or inf
in csv and pretty output.

``main`` hands the flags of a command straight to that command's parser
(``_parse``); the top-level parser reads only an argv that names no command.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import coset, metric, recover, sampling
from .bures import distance_from_fidelity, fidelity
from .coset import DensityMatrix
from .errors import (BuresGeoError, DimensionMismatch, OutOfChartRange, ParseError,
                     VerificationFailure)
from .metric import FAMILIES, Family
from .tol import DEFAULT_STEP, DEFAULT_TOL


# every chart flag, in the order the parser lists them
CHART_FLAGS = (*metric.COORDS3, "theta")


def _convert(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _coords(fam: Family, values: dict, degrees: bool) -> dict:
    """``fam``'s defaults overridden by ``values``, read as degrees if ``degrees``."""
    return {**fam.defaults, **{k: _convert(v, degrees) for k, v in values.items()}}


# ---------------------------------------------------------------------------
# states from files and inline charts
# ---------------------------------------------------------------------------

def read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; arrays nested too deep
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not {"dim", "re", "im"} <= set(payload):
        raise ParseError(f'{path}: expected an object with keys "dim", "re", "im"')
    dim = payload["dim"]
    if type(dim) is not int:  # true == 1 and 2.0 == 2 would pass the shape test
        raise ParseError(f'{path}: "dim" must be an integer, not {json.dumps(dim)}')
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int beyond a double
        raise ParseError(f"{path}: re/im are not numeric arrays: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(f"{path}: re/im must both be {dim}x{dim} row-major arrays")
    # numpy reads true as 1.0, "0.6" as 0.6 and null as nan
    for row in (*payload["re"], *payload["im"]):
        for x in row:
            if type(x) not in (int, float):
                raise ParseError(f"{path}: re/im are not numeric arrays: "
                                 f"{json.dumps(x)} is not a number")
    with np.errstate(invalid="ignore"):  # 1j * inf has a nan real part: the state check refuses it
        return re + 1j * im


def parse_inline_chart(spec: str, degrees: bool) -> tuple[Family, object]:
    """Parse 'theta=0.3,alpha=0.1,...' into (family, chart); n is inferred from the keys."""
    values = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad chart term {part!r}, expected name=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key in values:
            raise ParseError(f"coordinate {key!r} is given more than once")
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise ParseError(f"bad numeric value in {part!r}") from exc
    if not values:
        raise ParseError("empty chart specification")
    # theta names the 2-level chart; any other set of keys is read as 3-level
    n = 2 if "theta" in values else 3
    fam = FAMILIES[n]
    unknown = set(values) - set(fam.coords)
    if unknown:
        raise ParseError(f"unknown coordinates for n={n}: {sorted(unknown)}")
    return fam, fam.chart(**_coords(fam, values, degrees))


def load_state(spec: str, degrees: bool) -> DensityMatrix:
    """A state given either as a matrix-file path or an inline chart."""
    if "=" in spec:
        fam, chart = parse_inline_chart(spec, degrees)
        return fam.rho(chart)
    return coset.as_density(read_matrix(spec))


def _chart_coords(args) -> tuple[Family, dict]:
    """The family of ``--n`` and its coordinates: its defaults overridden by
    the chart flags given, none of which may belong to another family."""
    fam = FAMILIES[args.n]
    stray = [f"--{name}" for name in sorted(set(CHART_FLAGS) - set(fam.coords))
             if getattr(args, name) is not None]
    if stray:
        raise ParseError(
            f"{', '.join(stray)} not valid for n={args.n} "
            f"(expected {', '.join('--' + n for n in fam.coords)})")
    return fam, _coords(fam, {name: getattr(args, name) for name in fam.coords
                              if getattr(args, name) is not None}, args.degrees)


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def csv_text(header: Sequence[str], rows: Sequence[tuple]) -> str:
    """The CSV lines of ``header`` and ``rows``, ending in a newline. A column
    prints as %.17g (as _fmt) if its value in the first row is a float, as %s
    otherwise. Names are coordinates, routes and g_<a>_<b> keys, and values
    are numbers: nothing needs quoting."""
    line = ",".join(["%.17g" if isinstance(v, float) else "%s" for v in rows[0]])
    return "\n".join([",".join(header), *[line % row for row in rows]]) + "\n"


def _null_nonfinite(value):
    """``value`` with every nan or infinite float, in dicts, lists and tuples
    at any depth, replaced by None (JSON null); a tuple becomes a list."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _null_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(v) for v in value]
    return value


def render(output_format: str, payload: dict, table: Optional[Callable],
           pretty: Optional[Callable[[], Iterable[str]]]) -> str:
    """A command's result in the requested format, ending in a newline; only
    that format is built. ``table`` returns the CSV (header, rows).

    A command without a table prints its pretty lines for ``--format csv``;
    one without pretty lines (scan) prints its table for ``--format pretty``.
    JSON output is strict (RFC 8259): ``json.dumps(indent=2,
    allow_nan=False)`` of the payload with a nan or infinite value written as
    null, while csv and pretty print it as nan or inf.
    """
    if output_format == "json":
        return json.dumps(_null_nonfinite(payload), indent=2, allow_nan=False) + "\n"
    if table is not None and (output_format == "csv" or pretty is None):
        return csv_text(*table())
    return "\n".join(pretty()) + "\n"


# ---------------------------------------------------------------------------
# commands: each returns (exit code, JSON payload, CSV table thunk or None,
# pretty lines thunk or None)
# ---------------------------------------------------------------------------

def cmd_rho(args):
    fam, coords = _chart_coords(args)
    rho = fam.rho(fam.chart(**coords))
    mat, w = rho.mat, rho.eigenvalues
    payload = {
        "dim": int(mat.shape[0]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
        "eigenvalues": w.tolist(),
        "trace": float(np.trace(mat).real),
        "min_eigenvalue": float(w[0]),
    }

    def pretty():
        for label, part in (("real", mat.real), ("imag", mat.imag)):
            yield f"rho ({label} part):"
            yield from ("  " + "  ".join(f"{x:+.12f}" for x in row) for row in part)
        yield "eigenvalues: " + "  ".join(_fmt(x) for x in w)
        yield f"trace: {_fmt(payload['trace'])}"
        yield f"min eigenvalue: {_fmt(payload['min_eigenvalue'])}"

    real, imag, dim = payload["re"], payload["im"], range(mat.shape[0])
    return 0, payload, lambda: (("i", "j", "re", "im"), [
        (i, j, real[i][j], imag[i][j]) for i in dim for j in dim]), pretty


def cmd_fidelity(args):
    ra = load_state(args.state_a, args.degrees)
    rb = load_state(args.state_b, args.degrees)
    f = fidelity(ra, rb)
    payload = {
        "fidelity": f,
        "sqrt_fidelity": math.sqrt(f),
        "bures_distance": distance_from_fidelity(f),
    }
    return 0, payload, lambda: (list(payload), [tuple(payload.values())]), lambda: (
        f"{k}: {_fmt(v)}" for k, v in payload.items())


def cmd_metric(args):
    fam, coords = _chart_coords(args)
    chart = fam.chart(**coords)
    tensors = {method: fam.tensor(method)(chart)
               for method in ("closed", "pullback") if args.method in (method, "both")}
    payload: dict = {"ordering": list(fam.coords)}
    for name, mt in tensors.items():
        payload[name] = mt.g.tolist()
        payload[f"sqrt_det_{name}"] = metric.volume_element(mt)
    if len(tensors) == 2:
        payload["max_abs_dev"] = float(np.max(np.abs(tensors["closed"].g
                                                     - tensors["pullback"].g)))

    def table():
        return ("entry", *tensors), [(key, *[float(mt.g[i, j]) for mt in tensors.values()])
                                     for key, i, j in metric.upper_entries(fam.coords)]

    def pretty():
        yield "ordering: " + " ".join(fam.coords)
        for name, mt in tensors.items():
            yield f"{'closed-form' if name == 'closed' else name} tensor:"
            yield from ("  " + "  ".join(f"{x:+.10e}" for x in row) for row in mt.g)
            yield f"sqrt(det g) {name}: {_fmt(payload['sqrt_det_' + name])}"
        if "max_abs_dev" in payload:
            yield f"max |closed - pullback| = {_fmt(payload['max_abs_dev'])}"

    return 0, payload, table, pretty


def _merge_max(into: dict, new: dict) -> None:
    """Raise each entry of ``into`` to the matching entry of ``new`` (a missing
    one counts as 0.0); a nan on either side is kept (metric._max_or_nan)."""
    for k, v in new.items():
        into[k] = metric._max_or_nan(into.get(k, 0.0), v)


def cmd_validate(args):
    fam = FAMILIES[args.n]
    rng = sampling.make_rng(args.seed)
    entry_max: dict[str, float] = {}
    printed_max: dict[str, float] = {}
    agg = {"max_abs_dev": 0.0, "max_rel_dev": 0.0, "dittmann_max_rel_dev": 0.0,
           "gamma_shift_max_dev": 0.0, "volume_max_rel_dev": 0.0,
           "s_relation_max_dev": 0.0}
    for _ in range(args.samples):
        rep = metric.validate(fam.sample(rng))
        # gamma_shift_dev is None at n = 2 and s_coeff_relation_dev at n = 3
        _merge_max(agg, {k: v for k, v in (
            ("max_abs_dev", rep.max_abs_dev), ("max_rel_dev", rep.max_rel_dev),
            ("dittmann_max_rel_dev", rep.dittmann_max_rel_dev),
            ("volume_max_rel_dev", rep.volume_rel_dev),
            ("gamma_shift_max_dev", rep.gamma_shift_dev),
            ("s_relation_max_dev", rep.s_coeff_relation_dev)) if v is not None})
        _merge_max(entry_max, rep.entry_abs_dev)
        _merge_max(printed_max, rep.printed_entry_dev or {})
    ok = all(agg[k] <= args.tol
             for k in ("max_abs_dev", "dittmann_max_rel_dev", "gamma_shift_max_dev"))
    payload = {
        "n": args.n, "samples": args.samples, "seed": args.seed, "step": DEFAULT_STEP,
        "tol": args.tol, **agg,
        "per_entry_max_abs_dev": entry_max,
        "dittmann_reading": "printed",
        "status": "PASS" if ok else "FAIL",
    }
    if printed_max:  # only the n = 3 reports carry the misprinted entries
        payload["printed_entry_max_abs_dev"] = printed_max
        payload["note"] = (
            "printed_entry_max_abs_dev reports how far the printed g_phi_beta1 "
            "and g_phi_beta2, which miss a factor sin(gamma), drift from the "
            "pullback; it does not affect the PASS/FAIL status."
        )

    def pretty():
        yield f"validate n={args.n} samples={args.samples} seed={args.seed}"
        yield from (f"  {k}: {_fmt(v)}" for k, v in agg.items())
        # a nan entry ranks above every number, as in the maxima above
        worst = max(entry_max,
                    key=lambda k: math.inf if math.isnan(entry_max[k]) else entry_max[k])
        yield f"  worst entry: {worst} ({_fmt(entry_max[worst])})"
        if printed_max:
            yield (f"  printed g_phi_beta1 max dev (missing sin gamma, reported only): "
                   f"{_fmt(printed_max['g_phi_beta1'])}")
        yield f"{payload['status']}: tolerance {_fmt(args.tol)}"

    return (0 if ok else VerificationFailure.exit_code), payload, None, pretty


def _entry_picks(entries: str, mt: metric.MetricTensor) -> list[tuple[str, int, int]]:
    """The ``--entries`` choice as ordered (key, i, j); a repeated key counts once."""
    names = mt.ordering
    if entries == "all":
        return metric.upper_entries(names)
    index = {f"g_{a}_{b}": (i, j) for i, a in enumerate(names) for j, b in enumerate(names)}
    keys = [f"g_{c}_{c}" for c in names] if entries == "diag" else entries.split(",")
    for key in keys:
        if key not in index:
            raise ParseError(f"unknown tensor entry {key!r}")
    return [(key, *index[key]) for key in dict.fromkeys(keys)]


def cmd_scan(args):
    fam, base = _chart_coords(args)
    if not (len(args.coord) == len(args.start) == len(args.stop) == len(args.points)):
        raise ParseError("--coord/--from/--to/--points counts must match")
    for coord in args.coord:
        if coord not in fam.coords:
            raise ParseError(f"unknown sweep coordinate {coord!r} for n={args.n}")
        if args.coord.count(coord) > 1:
            raise ParseError(f"coordinate {coord!r} is swept more than once")
    grids = []
    for coord, a, b, k in zip(args.coord, args.start, args.stop, args.points):
        a, b = _convert(a, args.degrees), _convert(b, args.degrees)
        if not math.isfinite(b - a):  # nor is an end; np.linspace would warn, fill in nan
            raise OutOfChartRange(coord, b - a, f"--to - --from = {b!r} - {a!r} must be finite")
        grids.append(np.linspace(a, b, k).tolist())
    tensor = fam.tensor(args.method)
    # the chart's values in positional order; each point overwrites the swept slots
    values = [base[name] for name in fam.coords]
    slots = [fam.coords.index(coord) for coord in args.coord]

    picks = flat = None
    rows = []
    for combo in itertools.product(*grids):  # the first coordinate slowest
        for k, v in zip(slots, combo):
            values[k] = v
        mt = tensor(fam.chart(*values))
        if picks is None:
            # read the entry names only now: a bad first chart outranks a bad name
            picks = _entry_picks(args.entries, mt)
            d = len(values)
            flat = np.array([i * d + j for _, i, j in picks])  # the picks in the flat g
        rows.append((*combo, *mt.g.take(flat).tolist(), metric.volume_element(mt)))
    header = args.coord + [key for key, _, _ in picks] + ["sqrt_det_g"]
    # scan prints its CSV for both --format csv and pretty
    return 0, {"header": header, "rows": rows}, lambda: (header, rows), None


def cmd_permtest(args):
    entries = [{
        "name": p.name,
        "phase": "i" if p.phase == 1j else "1",
        "residual_exact": p.residual_exact,
        "residual_coset": p.residual_coset,
        "residual_literal": p.residual_literal,
    } for p in coset.permutation_table()]  # raises VerificationFailure on a bad entry
    payload = {
        "identities": entries,
        "status": "PASS",
        "note": (
            "residual_coset measures equality with phase*P modulo the torus "
            "stabilizer (per-column phases); residual_literal is the raw "
            "entrywise gap to phase*P, which is O(1) for the non-identity "
            "cases because fixed levels keep phase 1."
        ),
    }

    def pretty():
        yield f"{len(entries)}/{len(entries)} identities verified"
        for e in entries:
            yield (f"  {e['name']:7s} phase={e['phase']}  exact={e['residual_exact']:.3e}  "
                   f"coset={e['residual_coset']:.3e}  literal={e['residual_literal']:.3e}")
        yield payload["note"]

    return 0, payload, None, pretty


def cmd_find_chart(args):
    rho = coset.as_density(read_matrix(args.input))
    if args.n is not None and rho.dim != args.n:
        raise DimensionMismatch(f"--n {args.n} but the file holds a {rho.dim}x{rho.dim} matrix")
    # the residual is the round trip's Frobenius error ||rho(chart) - rho||
    chart, residual = recover.find_chart(rho)
    payload = {
        "n": rho.dim,
        "chart": {k: v for k, v in zip(FAMILIES[rho.dim].coords, chart.values())},
        "fit_residual": residual,
        "roundtrip_frobenius": residual,
    }

    def pretty():
        yield f"recovered chart (n={rho.dim}):"
        yield from (f"  {k} = {_fmt(v)}" for k, v in payload["chart"].items())
        yield f"fit residual: {_fmt(residual)}"
        yield f"round-trip Frobenius error: {_fmt(residual)}"

    return 0, payload, None, pretty


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_from(lo: int) -> Callable[[str], int]:
    """The argparse type of an int flag whose value must be >= ``lo``."""
    def parse(text: str) -> int:
        v = int(text)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}")
        return v
    parse.__name__ = "int"  # argparse reports a non-int as "invalid int value"
    return parse


def _tol_value(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v > 0.0):
        raise argparse.ArgumentTypeError("tol must be finite and > 0")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buresgeo",
        description="Coset charts for 2- and 3-level states and the Bures "
                    "metric over them, cross-validated numerically.")
    sub = parser.add_subparsers(dest="command", required=True)
    n_flag = ("--n", dict(type=int, choices=tuple(FAMILIES), default=2))
    chart = [n_flag, *[(f"--{name}", dict(type=float, default=None)) for name in CHART_FLAGS]]
    common = [
        ("--format", dict(dest="output_format", default="pretty",
                          choices=("json", "csv", "pretty"))),
        ("--out", dict(dest="output_path", default=None,
                       help="write output to this path instead of stdout")),
    ]
    # only the commands that read chart coordinates take --degrees
    degrees = [("--degrees", dict(action="store_true",
                                  help="interpret chart coordinates as degrees"))]
    for name, run, text, flags in [
        ("rho", cmd_rho, "build a density matrix from chart coordinates", chart),
        ("fidelity", cmd_fidelity, "fidelity and Bures distance of two states", [
            ("--state-a", dict(required=True,
                               help="matrix file path or inline chart 'theta=...,alpha=...'")),
            ("--state-b", dict(required=True))]),
        ("metric", cmd_metric, "metric tensor at a chart point", [
            *chart,
            ("--method", dict(choices=("closed", "pullback", "both"), default="both"))]),
        ("validate", cmd_validate, "cross-validate all routes on random points", [
            n_flag,
            ("--samples", dict(type=_int_from(1), default=100)),
            ("--seed", dict(type=_int_from(0), default=0)),  # SeedSequence takes no seed < 0
            ("--tol", dict(type=_tol_value, default=DEFAULT_TOL,
                           help=f"tolerance (default {DEFAULT_TOL})"))]),
        ("scan", cmd_scan, "sweep coordinates, one CSV row per grid point", [
            *chart,
            ("--coord", dict(action="append", required=True,
                             help="coordinate to sweep (repeatable)")),
            ("--from", dict(dest="start", action="append", type=float, required=True)),
            ("--to", dict(dest="stop", action="append", type=float, required=True)),
            ("--points", dict(action="append", type=_int_from(1), required=True)),
            ("--entries", dict(default="diag",
                               help="'diag', 'all', or comma list like g_theta_theta")),
            ("--method", dict(choices=("closed", "pullback"), default="closed"))]),
        ("permtest", cmd_permtest, "verify the six permutation identities", []),
        ("find-chart", cmd_find_chart, "recover chart coordinates from a matrix file", [
            ("input", dict(help="JSON matrix file")),
            ("--n", dict(type=int, choices=tuple(FAMILIES), default=None))]),
    ]:
        p = sub.add_parser(name, help=text)
        reads_chart = run in (cmd_rho, cmd_fidelity, cmd_metric, cmd_scan)
        for flag, kwargs in [*flags, *common, *(degrees if reads_chart else [])]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use.

    Building it costs about as much as a small command; parse_args keeps no
    state in it between calls, so one instance serves every call of main.
    """
    return build_parser()


# argparse reads an argument that starts with '-' as an option unless it looks
# like '-1' or '-0.5'; every other negative spelling that float() reads ('-1e-4',
# '-1_0', '-INF', '-nan ') after a flag is joined to it as '--flag=-1e-4'
FLAG = re.compile(r"--\w[\w-]*")


def _is_negative_float(arg: str) -> bool:
    if not arg.startswith("-"):
        return False
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if arg[:1] == "-" and out and FLAG.fullmatch(out[-1]) and _is_negative_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``: the same namespace, output and exit.
    When argv[0] names a command, the rest goes straight to its parser, which
    the top-level parser would hand it to after reading every token itself;
    leftovers get the top-level "unrecognized arguments" error. Any other
    argv (none, ``-h``, an unknown command) goes through the top-level parser.
    """
    parser = _parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, and 2 is the
        # chart-range code here: a usage error is a parse error
        return ParseError.exit_code if exc.code else 0
    try:
        code, payload, table, pretty = args.run(args)
        text = render(args.output_format, payload, table, pretty)
    except BuresGeoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    if args.output_path:
        try:
            with open(args.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.output_path}: {exc}\n")
            return ParseError.exit_code
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
