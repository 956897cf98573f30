"""Accuracy record beside the output digests of tests/test_cli.py.

A digest says that printed bytes moved, not whether they got worse. This
test parses the floats that every pinned ``rho``, closed ``metric`` (the
closed entries of ``--method closed`` and ``both``) and closed ``scan``
command prints, in json and csv, the formats that print each float to
round-trip precision (pretty rounds rho and the tensor to 12 and 10 digits),
and measures each against the 40-digit reference, tests/mp_reference.py.
The unit is the last place (ulp) of a reference scale: the largest entry
of the matrix for an entry of rho, the largest eigenvalue for an eigenvalue
(the smallest one included), sqrt(g_ii g_jj) for a metric entry g_ij (the
Cauchy-Schwarz bound on |g_ij|: a diagonal entry in ulps of itself, and an
entry that is 0 in exact arithmetic on the scale of its row and column),
and the value itself for the trace and sqrt(det g). A change that
re-records digests quotes the worst case before and after.
"""

import csv
import functools
import io
import json
import math
from contextlib import redirect_stdout

import mp_reference
from buresgeo import cli
from test_cli import OUTPUT_DIGESTS

MP = mp_reference.MP


@functools.cache
def rho_reference(values: tuple) -> tuple:
    """(rho, spectrum ascending) at the chart ``values``, at 40 digits."""
    return mp_reference.rho(values), sorted(mp_reference.spectrum(values))


@functools.cache
def tensor_reference(values: tuple) -> tuple:
    """(g, sqrt(det g)) at the chart ``values``, at 40 digits."""
    g = mp_reference.tensor(values)
    return g, MP.sqrt(MP.det(g))


def _ulps(x: float, ref, scale) -> float:
    """|x - ref| in units of the last place of ``scale``."""
    return float(abs(MP.mpf(x) - ref)) / math.ulp(float(abs(scale)))


def _entry(coords, key: str) -> tuple[int, int]:
    """(i, j) of the entry named g_<a>_<b>."""
    a, b = key[2:].split("_")
    return coords.index(a), coords.index(b)


def rho_errors(printed, fmt: str, values: tuple) -> list[tuple[str, float]]:
    """``printed`` is the csv rows (i, j, re, im) or the json payload."""
    ref, lam = rho_reference(values)
    n = ref.rows
    scale = max(abs(part(x)) for part in (MP.re, MP.im) for x in ref)
    if fmt == "csv":
        return [("rho entry", _ulps(float(x), part(ref[int(i), int(j)]), scale))
                for i, j, re, im in printed for x, part in ((re, MP.re), (im, MP.im))]
    out = [("rho entry", _ulps(printed[key][i][j], part(ref[i, j]), scale))
           for key, part in (("re", MP.re), ("im", MP.im)) for i in range(n) for j in range(n)]
    out += [("eigenvalue", _ulps(x, w, lam[-1])) for x, w in zip(printed["eigenvalues"], lam)]
    out += [("trace", _ulps(printed["trace"], 1, 1)),
            ("eigenvalue", _ulps(printed["min_eigenvalue"], lam[0], lam[-1]))]
    return out


def tensor_errors(values: tuple, entries, det=None) -> list[tuple[str, float]]:
    """``entries`` is (i, j, printed) triples, ``det`` the printed sqrt(det g)
    if there is one."""
    g, root = tensor_reference(values)
    out = [("metric entry", _ulps(x, g[i, j], MP.sqrt(g[i, i] * g[j, j])))
           for i, j, x in entries]
    return out if det is None else out + [("sqrt(det g)", _ulps(det, root, root))]


def printed_errors(argv: list[str]) -> list[tuple[str, float]]:
    """(quantity, error in ulps) for every float the command ``argv`` prints."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    text = buf.getvalue()
    args = cli._parse(cli._join_negative_values(argv))
    fam, coords = cli._chart_coords(args)
    base = tuple(coords[name] for name in fam.coords)
    fmt = args.output_format
    if fmt == "csv":
        header, *rows = list(csv.reader(io.StringIO(text)))
    else:
        payload = json.loads(text)
    if args.command == "rho":
        return rho_errors(rows if fmt == "csv" else payload, fmt, base)
    if args.command == "metric":
        if fmt == "csv":
            col = header.index("closed")
            entries = [(*_entry(fam.coords, row[0]), float(row[col])) for row in rows]
            # the csv prints the upper entries only, and no sqrt(det g)
            return tensor_errors(base, entries)
        d = len(base)
        entries = [(i, j, payload["closed"][i][j]) for i in range(d) for j in range(d)]
        return tensor_errors(base, entries, payload["sqrt_det_closed"])
    # scan: the swept values lead each row, then the entries, then sqrt(det g)
    if fmt == "json":
        header, rows = payload["header"], payload["rows"]
    swept = [fam.coords.index(c) for c in args.coord]
    keys = header[len(swept):-1]
    out = []
    for row in rows:
        row = [float(x) for x in row]
        point = list(base)
        for k, v in zip(swept, row):
            point[k] = v
        entries = [(*_entry(fam.coords, key), x) for key, x in zip(keys, row[len(swept):-1])]
        out += tensor_errors(tuple(point), entries, row[-1])
    return out


def _recorded(argv: list[str]) -> bool:
    fmt = argv[argv.index("--format") + 1]
    return fmt in ("json", "csv") and (
        argv[0] == "rho"
        or argv[0] == "metric" and argv[argv.index("--method") + 1] in ("closed", "both")
        or argv[0] == "scan" and "pullback" not in argv)


RECORDED = [(f"pin{i}", argv) for i, (argv, _) in enumerate(OUTPUT_DIGESTS) if _recorded(argv)]

# the largest error allowed for each quantity over every recorded pin, in
# ulps; measured worst: rho entry 1.58 (pin11), eigenvalue 1.92 (pin8), trace
# 0, metric entry 8.18 (pin62, g_psi1_psi1), sqrt(det g) 113 (pin3, where
# cond(g) is 8.7e3: the exact determinant of the printed tensor is itself 99
# ulps off). t23 scaled by 1 + 4e-15 reads 35.6 on the metric entries
BOUNDS = {
    "rho entry": 2.0,
    "eigenvalue": 2.5,
    "trace": 0.0,
    "metric entry": 10.0,
    "sqrt(det g)": 128.0,
}


def test_printed_floats_are_within_a_few_ulps_of_the_reference():
    assert len(RECORDED) == 22
    worst = dict.fromkeys(BOUNDS, 0.0)
    where = {}
    for pin, argv in RECORDED:
        for quantity, err in printed_errors(argv):
            if err > worst[quantity]:
                worst[quantity], where[quantity] = err, pin
    assert {k: v for k, v in worst.items() if v > BOUNDS[k]} == {}, (worst, where)
