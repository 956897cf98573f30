"""Benchmark of buresgeo through its public entry points.

Run from the repository root:

    python3 bench/run.py --workload validate-sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``validate-sweep`` (cli.main ``validate``
commands, the full cross-validation path), ``closed-scan`` (cli.main ``scan``
commands on the closed form, which bypasses the Hubner/pullback path) and
``recover-roundtrip`` (find_chart -> rebuild -> fidelity, no CLI and no
metric tensors).

One process, one thread: the BLAS/OpenMP thread variables are pinned to 1
before numpy loads. Inputs are generated from ``--seed`` before timing. The
run repeats whole passes over the input pool until ``--seconds`` have passed;
only the public calls are timed, and every output is checked outside the
timed region. Call times are host-normalised (see REF_NOMINAL_S).

End-to-end metrics (``--trace 0``):
  setup_s      median over SETUP_PROBES fresh interpreters of the time until
               ``import buresgeo`` and input generation are done
  items_per_s  items over the time spent inside the public calls
  call_p50_ms, call_p95_ms
               percentiles of one public call (sample count in ``calls``)
  max_err      RMS over the checked items of each item's largest error
               against the workload's independent reference
  coverage     items that returned a checked result over items attempted
  peak_rss_mb  getrusage peak resident size of this process

The standard output ends with two JSON lines: the provenance of the run
(git SHA, source digest, versions, core count, thread variables, seed,
sample counts, raw timings) and the result ``{"correct", "attempted",
"failed", "metrics"}``. With ``--trace 1`` the layer functions are wrapped
in spans (spans.py) and the metrics are per-layer calls and self time per
item; ``traced_items_per_s`` against the untraced ``items_per_s`` gives the
tracing overhead.

``python3 bench/selftest.py`` pins the traced call counts.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# validate must run at its documented default tolerance
os.environ.pop("BURES_TOL", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import math  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p95_ms": "ms",
    "max_err": "1",
    "coverage": "1",
    "peak_rss_mb": "MB",
}

# spans reported as <key>.calls and <key>.self_s, both per attempted item
SPAN_METRICS = (
    "coset.rho3", "coset.rho2",
    "bures.hubner_form", "bures.dittmann3_form", "bures.dittmann2_form",
    "matcore.eig_hermitian", "metric.pullback_metric", "metric.validate",
    "metric.closed_metric3", "metric.closed_metric2", "metric.aux_coeffs",
    "metric.volume_element", "cli.main",
    "recover.find_chart3", "recover.find_chart2", "matcore.mat_sqrt_psd",
    "bures.fidelity", "sampling.random_chart3",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for key in SPAN_METRICS:
        units[f"{key}.calls"] = "calls/item"
        units[f"{key}.self_s"] = "s/item"
    units["recover.least_squares.calls"] = "calls/item"
    units["recover.refused"] = "1/item"
    units["cli.out_bytes"] = "B/item"
    units["traced_items_per_s"] = "1/s"
    return units


# The host's speed drifts by up to 1.7x within seconds (shared cores), far more
# than the bounds allow. Every round (20-40 ms of calls) is therefore preceded
# by a fixed reference kernel that does not touch buresgeo, and the round's
# call times are divided by the kernel's slow-down against REF_NOMINAL_S, its
# time on this 2-core Xeon host when quiet. Call times are thus reported as
# they read on a host that runs the kernel in REF_NOMINAL_S; the raw figures
# are in the provenance line.
REF_NOMINAL_S = 3.5e-3
_REF_A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0j], [0.0, -1.0j, 4.0]])
_REF_I = np.eye(3)


def reference_kernel() -> float:
    """Python-loop work on 3x3 Hermitian matrices, like the package's own."""
    acc = 0.0
    for i in range(150):
        w, v = np.linalg.eigh(_REF_A + (i * 1e-3) * _REF_I)
        acc += float(np.trace((v * w) @ v.conj().T).real) + math.sin(i) * math.cos(i)
    return acc


def host_factor() -> float:
    """How much slower than nominal the host runs the reference kernel now."""
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) / REF_NOMINAL_S


@dataclass
class Run:
    attempted: int
    failed: int
    passes: int
    wall_s: float
    call_s: list[float]          # host-normalised, one per call
    raw_call_s: list[float]
    factors: list[float]         # host_factor() before each round

    def items_per_s(self) -> float:
        return self.attempted / math.fsum(self.call_s)


def timed_run(wl, seconds: float) -> Run:
    """Repeat whole passes over the pool's rounds until ``seconds`` passed.

    Whole passes keep every item equally often in the counts. Only the calls
    are timed; ``check`` runs between them.
    """
    call_s: list[float] = []
    raw_call_s: list[float] = []
    factors: list[float] = []
    attempted = failed = passes = 0
    clock = time.perf_counter
    start = clock()
    while passes == 0 or clock() - start < seconds:
        for jobs in wl.rounds:
            factor = host_factor()
            factors.append(factor)
            for job in jobs:
                t0 = clock()
                try:
                    out = wl.call(job)
                except Exception as exc:  # a crash fails the job's items; keep measuring
                    out = exc
                dt = clock() - t0
                if isinstance(out, Exception) and not failed:
                    sys.stderr.write("".join(traceback.format_exception(out)))
                raw_call_s.append(dt)
                call_s.append(dt / factor)
                attempted += job.items
                failed += wl.check(job, out, passes == 0)
        passes += 1
    return Run(attempted, failed, passes, clock() - start, call_s, raw_call_s, factors)


def warm_up(wl, tmpdir: str) -> None:
    """One untimed round, so lazy imports and first-call set-up are done."""
    reference_kernel()
    for job in wl.rounds[0]:
        wl.call(job)
    for path in Path(tmpdir).iterdir():
        path.unlink()


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import buresgeo and build the inputs.

    Each probe runs from its start until the child has built its inputs and
    read the monotonic clock; interpreter exit is not counted. The child then
    measures the host factor itself, while still busy (a parent that idled
    while it waited reads the host as far slower than it is). Returns the
    host-normalised and the raw times.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    normed, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                             capture_output=True, text=True)
        t_end, factor = map(float, out.stdout.split())
        raw.append(t_end - t0)
        normed.append((t_end - t0) / factor)
    return normed, raw


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "buresgeo").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def percentile_ms(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] * 1e3


def end_to_end(run: Run, post: dict, wl, setup_times: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": run.items_per_s(),
        "call_p50_ms": percentile_ms(run.call_s, 50),
        "call_p95_ms": percentile_ms(run.call_s, 95),
        "max_err": post["max_err"],
        "coverage": (run.attempted - run.failed - post["failed"] - wl.refused) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, run: Run, wl) -> dict[str, float]:
    n = run.attempted
    # one host factor for the whole run: spans are not split by round
    scale = 1.0 / statistics.fmean(run.factors)
    out = {}
    for key in SPAN_METRICS:
        out[f"{key}.calls"] = tracer.calls.get(key, 0) / n
        out[f"{key}.self_s"] = tracer.self_s.get(key, 0.0) * scale / n
    out["recover.least_squares.calls"] = tracer.calls.get("recover.least_squares", 0) / n
    out["recover.refused"] = wl.refused / n
    out["cli.out_bytes"] = wl.out_bytes / n
    out["traced_items_per_s"] = run.items_per_s()
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="buresgeo benchmark")
    p.add_argument("--workload", required=True,
                   choices=("validate-sweep", "closed-scan", "recover-roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import buresgeo, build the inputs and exit (set-up probe)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "buresgeo" / "__init__.py").is_file():
        sys.stderr.write(f"error: no buresgeo sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import buresgeo
    if SRC not in Path(buresgeo.__file__).resolve().parents:
        sys.stderr.write(f"error: buresgeo imported from {buresgeo.__file__}, not {SRC}\n")
        return 2
    import workloads
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, str(ROOT))
        t_end = time.clock_gettime(time.CLOCK_MONOTONIC)
        print(t_end, statistics.median(host_factor() for _ in range(3)))
        return 0

    setup_times, raw_setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install(buresgeo)
        warm_up(wl, tmpdir)
        if tracer:
            tracer.reset()
        run = timed_run(wl, args.seconds)
        if tracer:
            metrics, units = per_layer(tracer, run, wl), per_layer_units()
            scale = 1e3 / statistics.fmean(run.factors)
            inclusive = {k: tracer.total_s[k] * scale / c for k, c in sorted(tracer.calls.items())}
            tracer.uninstall()
        post = wl.finish()
        if not tracer:
            metrics, units = end_to_end(run, post, wl, setup_times), END_TO_END
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    import scipy
    failed = run.failed + post["failed"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "calls": len(run.call_s), "passes": run.passes,
        "inclusive_ms_per_call": inclusive if args.trace else None,
        "wall_s": run.wall_s, "ref_nominal_s": REF_NOMINAL_S,
        "host_factor_mean": statistics.fmean(run.factors),
        "raw_items_per_s": run.attempted / math.fsum(run.raw_call_s),
        "raw_call_p50_ms": percentile_ms(run.raw_call_s, 50),
        "setup_samples": setup_times, "raw_setup_samples": raw_setup,
        **{k: v for k, v in post.items() if k not in ("failed", "max_err")},
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
