"""The benchmark workloads: their inputs, the timed public calls and the
checks of what those calls return.

A workload is a pool of rounds, a round is a list of jobs, and a job is one
public call that covers ``items`` items. The harness in ``run.py`` times only
``call``; ``check`` runs outside the timed region, right after each call, and
returns how many of the job's items failed; items a workload refuses by
design are counted in its ``refused``. ``finish`` runs once after timing ends
and returns the post-run checks and the workload's accuracy figures.

Inputs come from ``numpy.random.default_rng(seed)`` and the bench's own chart
sampler, not from ``buresgeo.sampling``, so they stay fixed when the package's
sampler changes. (``validate`` samples its charts inside the program, from the
``--seed`` of each command.)
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import buresgeo as bg
from buresgeo import cli, coset, metric
from buresgeo.errors import DegenerateSpectrum, OutOfChartRange

VALIDATE_TOL = 1e-6     # the `validate` default --tol; also the scan subsample tolerance
ROUNDTRIP_TOL = 1e-8    # bound on the Frobenius round-trip error and on 1 - F
MARGIN = 0.05           # share of each bounded chart range kept clear of its ends
MIN_GAP = 0.01          # smallest eigenvalue and eigenvalue gap of a generated chart


@dataclass(frozen=True)
class Job:
    items: int
    argv: tuple = ()
    state: np.ndarray | None = None
    key: int = 0


def _shrunk(rng, lo: float, hi: float) -> float:
    width = hi - lo
    return rng.uniform(lo + MARGIN * width, hi - MARGIN * width)


def chart3_values(rng) -> dict[str, float]:
    """Interior 3-level chart with well separated eigenvalues."""
    while True:
        t1 = _shrunk(rng, 0.0, coset.THETA1_MAX)
        t2 = _shrunk(rng, coset.THETA2_MIN, coset.THETA2_MAX)
        lam = coset.diag_entries3(t1, t2)
        gaps = (lam[0] - lam[1], lam[0] - lam[2], lam[1] - lam[2])
        if min(abs(g) for g in gaps) >= MIN_GAP and min(lam) >= MIN_GAP:
            break
    beta = _shrunk(rng, 0.0, coset.BETA_MAX)
    chi = rng.uniform(0.0, 2 * math.pi)
    return {"theta1": t1, "theta2": t2,
            "alpha": rng.uniform(0.0, 2 * math.pi), "phi": rng.uniform(0.0, 2 * math.pi),
            "beta1": beta * math.cos(chi), "beta2": beta * math.sin(chi),
            "psi1": rng.uniform(0.0, 2 * math.pi), "psi2": rng.uniform(0.0, 2 * math.pi)}


def chart2_values(rng) -> dict[str, float]:
    """Interior 2-level chart with eigenvalues at least MIN_GAP apart and from 0."""
    while True:
        theta = _shrunk(rng, 0.0, math.pi / 4)
        if math.cos(2 * theta) >= MIN_GAP and math.sin(theta) ** 2 >= MIN_GAP:
            break
    return {"theta": theta, "alpha": rng.uniform(0.0, 2 * math.pi),
            "phi": rng.uniform(0.0, 2 * math.pi)}


def rms(errors: list[float]) -> float:
    """Root-mean-square of per-item maximum errors: the workload's max_err.

    The maxima over a pass move by up to 14 % between seeds (they are tails
    of finite-difference and rounding errors); their RMS by a few per cent.
    The maxima themselves are reported as ``worst``.
    """
    return math.sqrt(math.fsum(e * e for e in errors) / len(errors))


def _take_file(path: str) -> bytes | None:
    """Read and remove a command's output file, so the next call must write its own."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    return data


class ValidateSweep:
    """`buresgeo validate` commands through cli.main, JSON written to a file.

    Each round is one command of SAMPLES points; every fourth is ``--n 2``,
    the rest ``--n 3``, so n = 2 is a fixed quarter. An item is one
    validated chart point.
    """

    COMMANDS = 256
    SAMPLES = 2

    def __init__(self, seed: int, tmpdir: str):
        rng = np.random.default_rng(seed)
        self.out_path = os.path.join(tmpdir, "validate.json")
        self.rounds = []
        for c in range(self.COMMANDS):
            n = 2 if c % 4 == 3 else 3
            self.rounds.append([
                Job(items=self.SAMPLES, key=n,
                    argv=("validate", "--n", str(n), "--samples", str(self.SAMPLES),
                          "--seed", str(int(rng.integers(0, 2**31))),
                          "--format", "json", "--out", self.out_path))])
        self.errors: list[float] = []
        self.out_bytes = 0
        self.refused = 0

    def call(self, job: Job):
        return cli.main(list(job.argv))

    def check(self, job: Job, out, first: bool) -> int:
        data = _take_file(self.out_path)
        if out != 0 or data is None:
            return job.items
        self.out_bytes += len(data)
        payload = json.loads(data)
        if (payload.get("status") != "PASS" or payload.get("n") != job.key
                or payload.get("samples") != job.items):
            return job.items
        if first:
            self.errors.append(max(payload["max_abs_dev"], payload["dittmann_max_rel_dev"]))
        return 0

    def finish(self) -> dict:
        """max_err over each command's larger of its closed-vs-pullback and
        Dittmann-vs-Hubner maxima."""
        return {"failed": 0, "max_err": rms(self.errors), "worst": max(self.errors)}


class ClosedScan:
    """`buresgeo scan --n 3 --method closed --entries all --format csv` over
    alpha x beta1 grids around seeded base charts. An item is one grid point.

    After timing, SUBSAMPLE rows of each grid are checked against
    metric.pullback_metric3, the independent route.
    """

    GRIDS = 96
    SIDE = 8
    SUBSAMPLE = 4
    ALPHA_SPAN = 1.0
    BETA1_SPAN = 1.5

    def __init__(self, seed: int, tmpdir: str):
        rng = np.random.default_rng(seed)
        self.out_path = os.path.join(tmpdir, "scan.csv")
        self.bases: list[dict[str, float]] = []
        self.rounds = []
        for g in range(self.GRIDS):
            base = chart3_values(rng)
            # |beta1| <= 2.0 and beta2 <= 1.0 keep the whole grid at beta < 2.24 < pi
            base["beta2"] = rng.uniform(0.2, 1.0)
            a0, b0 = base["alpha"], rng.uniform(0.1, 0.5)
            argv = ["scan", "--n", "3", "--method", "closed", "--entries", "all",
                    "--format", "csv", "--out", self.out_path,
                    "--coord", "alpha", "--from", repr(a0), "--to", repr(a0 + self.ALPHA_SPAN),
                    "--points", str(self.SIDE),
                    "--coord", "beta1", "--from", repr(b0), "--to", repr(b0 + self.BETA1_SPAN),
                    "--points", str(self.SIDE)]
            for name in ("theta1", "theta2", "phi", "beta2", "psi1", "psi2"):
                argv += [f"--{name}", repr(base[name])]
            self.bases.append(base)
            self.rounds.append([Job(items=self.SIDE ** 2, argv=tuple(argv), key=g)])
        self.sub_rows = [sorted(rng.choice(self.SIDE ** 2, self.SUBSAMPLE, replace=False))
                         for _ in range(self.GRIDS)]
        coords = metric.COORDS3
        self.header = (["alpha", "beta1"]
                       + [f"g_{a}_{coords[j]}" for i, a in enumerate(coords)
                          for j in range(i, len(coords))]
                       + ["sqrt_det_g"])
        self.first_output: dict[int, bytes] = {}
        self.out_bytes = 0
        self.refused = 0

    def call(self, job: Job):
        return cli.main(list(job.argv))

    def _well_formed(self, data: bytes) -> bool:
        rows = list(csv.reader(io.StringIO(data.decode())))
        if not rows or rows[0] != self.header or len(rows) != 1 + self.SIDE ** 2:
            return False
        try:
            return all(len(r) == len(self.header) and all(math.isfinite(float(x)) for x in r)
                       for r in rows[1:])
        except ValueError:
            return False

    def check(self, job: Job, out, first: bool) -> int:
        data = _take_file(self.out_path)
        if out != 0 or data is None:
            return job.items
        self.out_bytes += len(data)
        if first:
            if not self._well_formed(data):
                return job.items
            self.first_output[job.key] = data
            return 0
        # the same command must print the same bytes every time
        return 0 if data == self.first_output.get(job.key) else job.items

    def finish(self) -> dict:
        """Subsample check: closed-form rows against the pullback oracle.

        max_err over each checked row's largest entry deviation.
        """
        failed, devs = 0, []
        upper = np.triu_indices(len(metric.COORDS3))
        for key, data in self.first_output.items():
            rows = list(csv.reader(io.StringIO(data.decode())))[1:]
            for r in self.sub_rows[key]:
                row = [float(x) for x in rows[r]]
                values = dict(self.bases[key], alpha=row[0], beta1=row[1])
                pull = metric.pullback_metric3(coset.CosetChart3(**values))
                dev = float(np.max(np.abs(np.asarray(row[2:-1]) - pull.g[upper])))
                devs.append(dev)
                failed += dev > VALIDATE_TOL
        return {"failed": failed, "max_err": rms(devs), "worst": max(devs)}


class RecoverRoundtrip:
    """find_chart -> rebuild -> fidelity and bures_distance, as a library loop.

    Of every eight states, three are rho3 and one is rho2 of a random chart,
    each conjugated by random diagonal phases, and four are Hilbert-Schmidt
    random 3x3 states G G^dag / Tr. An item is one attempted state; refusals
    (OutOfChartRange, DegenerateSpectrum) count against coverage, not as
    failures.
    """

    POOL = 2048
    ROUND = 32

    def __init__(self, seed: int, tmpdir: str):
        rng = np.random.default_rng(seed)
        states = []
        for i in range(self.POOL):
            kind = i % 8
            if kind < 4:
                if kind < 3:
                    mat = bg.rho3(bg.CosetChart3(**chart3_values(rng))).mat
                else:
                    mat = bg.rho2(bg.CosetChart2(**chart2_values(rng))).mat
                phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, mat.shape[0]))
                mat = phase[:, None] * mat * phase.conj()[None, :]
            else:
                g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                mat = g @ g.conj().T
                mat = mat / np.trace(mat).real
            states.append(Job(items=1, state=mat))
        self.rounds = [states[i:i + self.ROUND] for i in range(0, self.POOL, self.ROUND)]
        self.refused = 0
        self.frob: list[float] = []
        self.infidelity: list[float] = []
        self.out_bytes = 0

    def call(self, job: Job):
        try:
            chart, _ = bg.find_chart(job.state)
        except (OutOfChartRange, DegenerateSpectrum):
            return None
        rebuilt = bg.rho3(chart) if isinstance(chart, bg.CosetChart3) else bg.rho2(chart)
        return rebuilt, bg.fidelity(rebuilt, job.state), bg.bures_distance(rebuilt, job.state)

    def check(self, job: Job, out, first: bool) -> int:
        if out is None:
            self.refused += 1
            return 0
        if isinstance(out, Exception):
            return 1
        rebuilt, fid, dist = out
        err = float(np.linalg.norm(rebuilt.mat - job.state))
        if not (err <= ROUNDTRIP_TOL and 1.0 - fid <= ROUNDTRIP_TOL and math.isfinite(dist)):
            return 1
        if first:
            self.frob.append(err)
            self.infidelity.append(1.0 - fid)
        return 0

    def finish(self) -> dict:
        """max_err over each recovered state's Frobenius round-trip error.

        1 - F is checked per state but left out of max_err: it measures the
        conditioning of fidelity's square roots on small eigenvalues, not the
        recovery, and its tail would dominate the mean.
        """
        return {"failed": 0, "max_err": rms(self.frob), "worst": max(self.frob),
                "worst_infidelity": max(self.infidelity)}


WORKLOADS = {
    "validate-sweep": ValidateSweep,
    "closed-scan": ClosedScan,
    "recover-roundtrip": RecoverRoundtrip,
}
