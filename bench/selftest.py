"""Self-test of the benchmark's tracing and bookkeeping.

    python3 bench/selftest.py

Pins the traced call counts per chart point of `validate` (34 rho3, 44
hubner_form, 8 dittmann3_form, 5 closed_metric3 and 2 eig_hermitian per
n = 3 point), the bypass of the oracle path on closed-scan, and zero calls
of the scipy fallback on recover-roundtrip. A span wrapper that misses a
name-bound import shows up here as a wrong count instead of as a speed-up.
It also checks that BENCHMARK.json lists exactly the metrics run.py prints.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))

import buresgeo  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# calls per item (chart point, grid point or state) on the seed code
VALIDATE3_PER_POINT = {
    "coset.rho3": 34, "bures.hubner_form": 44, "bures.dittmann3_form": 8,
    "metric.closed_metric3": 5, "matcore.eig_hermitian": 2,
    "metric.pullback_metric": 1, "metric.validate": 1, "sampling.random_chart3": 1,
    "coset.rho2": 0, "bures.dittmann2_form": 0, "recover.least_squares": 0,
}
VALIDATE2_PER_POINT = {
    "coset.rho2": 14, "bures.hubner_form": 9, "bures.dittmann2_form": 3,
    "metric.closed_metric2": 1, "matcore.eig_hermitian": 2,
    "metric.pullback_metric": 1, "metric.validate": 1, "sampling.random_chart2": 1,
    "coset.rho3": 0, "bures.dittmann3_form": 0,
}
SCAN_PER_POINT = {
    "metric.closed_metric3": 1, "metric.aux_coeffs": 1, "metric.volume_element": 1,
    "bures.hubner_form": 0, "matcore.eig_hermitian": 0, "metric.pullback_metric": 0,
    "coset.rho3": 0,
}


def traced(wl):
    tracer = Tracer()
    tracer.install(buresgeo)
    try:
        result = run.timed_run(wl, 0.0)
    finally:
        tracer.uninstall()
    if result.failed:
        raise SystemExit(f"selftest: {result.failed} items failed")
    return tracer, result


def expect(label: str, tracer: Tracer, items: int, per_item: dict[str, int]) -> None:
    if items < 1:
        raise SystemExit(f"selftest: {label}: no items ran")
    for key, want in per_item.items():
        got = tracer.calls.get(key, 0)
        if got != want * items:
            raise SystemExit(f"selftest: {label}: {key} called {got} times, "
                             f"expected {want} x {items} items")
    print(f"ok  {label}: {items} items, counts {per_item}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as tmpdir:
        for n, per_point in ((3, VALIDATE3_PER_POINT), (2, VALIDATE2_PER_POINT)):
            wl = workloads.ValidateSweep(seed=7, tmpdir=tmpdir)
            wl.rounds = [[next(job for jobs in wl.rounds for job in jobs if job.key == n)]]
            tracer, result = traced(wl)
            expect(f"validate-sweep n={n}", tracer, result.attempted, per_point)

        wl = workloads.ClosedScan(seed=7, tmpdir=tmpdir)
        wl.rounds = wl.rounds[:2]
        tracer, result = traced(wl)
        expect("closed-scan", tracer, result.attempted, SCAN_PER_POINT)

        wl = workloads.RecoverRoundtrip(seed=7, tmpdir=tmpdir)
        wl.rounds = wl.rounds[:1]
        tracer, result = traced(wl)
        recovered = result.attempted - wl.refused
        expect("recover-roundtrip", tracer, result.attempted, {"recover.least_squares": 0})
        if not 0 < recovered < result.attempted:
            raise SystemExit(f"selftest: recovered {recovered} of {result.attempted}")
        expect("recover-roundtrip recovered", tracer, recovered, {"bures.fidelity": 2})

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    printed = {
        "workloads": list(workloads.WORKLOADS),
        "end_to_end": run.END_TO_END,
        "per_layer": run.per_layer_units(),
    }
    for section, names in declared.items():
        if names != printed[section]:
            raise SystemExit(f"selftest: BENCHMARK.json {section} differs from run.py")
    print("ok  BENCHMARK.json matches run.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
