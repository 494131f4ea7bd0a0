"""Machine-readable runtime perf baseline (``make bench-smoke``).

Times a fixed Fig-17-style sweep three ways:

* ``plain`` -- no runtime context at all (the seed's hot path);
* ``context`` -- under a :class:`repro.runtime.SimContext` with tracing
  *off* (the everyday configuration; must cost ~nothing);
* ``traced`` -- tracing on (per-point spans plus the first packets of
  each point traced stage by stage).

The quiet-context gate compares two costs a few percent apart, so
plain and quiet sweeps alternate ``QUIET_REPEATS`` times each and the
gate reads the best of each: back-to-back blocks of a few repeats let
machine state that drifts between the blocks pass for overhead, or
hide it.

Results land in ``BENCH_runtime.json`` at the repository root so later
PRs can track the trajectory; ``repro.cli report`` folds the file into
the reproduction report when present.

Run directly: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import all_applications  # noqa: E402
from repro.platform.catalog import device_by_name  # noqa: E402
from repro.runtime import SimContext  # noqa: E402

#: The fixed workload: one Fig-17a sweep.
APP_NAME = "sec-gateway"
DEVICE = "device-a"
PACKET_SIZES = (64, 128, 256, 512, 1024)
PACKETS_PER_POINT = 2_000
REPEATS = 5
#: Alternating plain/quiet pairs behind the quiet-context gate.
QUIET_REPEATS = 30


def best_of(workload, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of calling ``workload()``, in seconds.

    Shared with ``benchmarks/sweep_smoke.py`` -- best-of timing is the
    right statistic for these CPU-bound, allocation-light workloads
    (the minimum is the least-noisy estimate of the true cost).
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return best


def _app():
    return next(app for app in all_applications() if app.name == APP_NAME)


def _sweep_seconds(context) -> float:
    """Wall time of one full sweep under ``context``, in seconds."""
    app, device = _app(), device_by_name(DEVICE)
    start = time.perf_counter()
    app.measure(device, packet_sizes=PACKET_SIZES,
                packets_per_point=PACKETS_PER_POINT, context=context)
    return time.perf_counter() - start


def run() -> dict:
    # One throwaway sweep so imports/caches warm up outside the window.
    _app().measure(device_by_name(DEVICE), packet_sizes=(64,),
                   packets_per_point=200)
    plain = quiet = float("inf")
    for _ in range(QUIET_REPEATS):
        plain = min(plain, _sweep_seconds(None))
        quiet = min(quiet, _sweep_seconds(SimContext(name="smoke",
                                                     trace=False)))
    traced = float("inf")
    for _ in range(REPEATS):
        context = SimContext(name="smoke", trace=True)
        traced = min(traced, _sweep_seconds(context))
    trace = context.trace
    return {
        "workload": f"{APP_NAME}@{DEVICE} x{len(PACKET_SIZES)} sizes "
                    f"x{PACKETS_PER_POINT} packets",
        "quiet_repeats": QUIET_REPEATS,
        "plain_sweep_s": round(plain, 6),
        "context_sweep_s": round(quiet, 6),
        "traced_sweep_s": round(traced, 6),
        "context_overhead_fraction": round(quiet / plain - 1.0, 4),
        "traced_overhead_fraction": round(traced / plain - 1.0, 4),
        "trace_records": len(trace),
        "trace_span_names": len(trace.span_names()),
    }


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_runtime.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    budget = 0.10
    if baseline["context_overhead_fraction"] > budget:
        print(f"FAIL: quiet-context sweep is "
              f"{baseline['context_overhead_fraction']:.1%} slower than the "
              f"plain sweep (budget {budget:.0%})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
