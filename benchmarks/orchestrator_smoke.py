"""Epoch-orchestrator perf + exactness gate (``make bench-orchestrator``).

Runs the epoch-stepped fleet orchestrator
(:mod:`repro.runtime.orchestrator`) as a CI gate:

* a **simulated day** -- 288 five-minute epochs over 1M flows on a
  1000-device fleet at 1% churn -- must finish end-to-end in <= 10 s on
  the incremental delta-vectorized path;
* the incremental path must be **>= 5x faster per epoch** than the
  full-recompute oracle (which rederives every resident per-device
  array -- aggregate load/tenant matrices and the residency stats
  weights -- from the raw flow arrays each epoch);
* the two paths must be **bit-exact**: identical serialised epoch
  stats, tenant stats, state digests, and metrics snapshots across the
  whole run;
* a shorter ``verify``-mode run additionally pins the incremental
  aggregates against the oracle matrices element-for-element at every
  single epoch.

It also records, without a gate, a **served day**: the median build,
epoch-loop and whole-request milliseconds of ``run_scenario`` over
day requests of the perfbench ``orchestrator-day`` shape (100k flows x
100 devices x 24 tenants, 32 epochs, a fresh seed each), timed after
one warm-up request so the fleet shape memo is warm, as in the daemon.
The served day runs last and first applies the serving daemon's heap
policy (:mod:`repro.serve.heap`, process-wide), so it also records the
mean minor page faults of one request on this thread
(``minflt_per_request``, ``None`` where the platform cannot count
them), and the median epoch loop of the same shape at zero churn
(``fixed_run_ms``): the per-epoch bookkeeping no churn pays for.

Results land in ``BENCH_orchestrator.json`` at the repository root;
``repro.cli report`` folds the file into the reproduction report.

Run directly: ``PYTHONPATH=src python benchmarks/orchestrator_smoke.py``
"""

import json
import pathlib
import random
import resource
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.analyze import TraceAnalysis  # noqa: E402
from repro.obs.profiler import recording  # noqa: E402
from repro.runtime.context import SimContext  # noqa: E402
from repro.runtime.fleet import FleetSpec  # noqa: E402
from repro.runtime.orchestrator import (  # noqa: E402
    OrchestratorSpec, run_orchestrator)
from repro.runtime.trace import TraceBus  # noqa: E402
from repro.scenario.spec import Scenario  # noqa: E402
from repro.serve.heap import apply_heap_policy  # noqa: E402
from repro.service.runs import run_scenario  # noqa: E402

FLOWS = 1_000_000
DEVICES = 1_000
TENANTS = 24
EPOCHS = 288
CHURN = 0.01  # 1% per epoch -- "typical" churn, inside the <= 2% gate
VERIFY_EPOCHS = 96

DAY_BUDGET_S = 10.0
SPEEDUP_FLOOR = 5.0

SERVED_REQUESTS = 21
SERVED_SHAPE = {"flow_count": 100_000, "device_count": 100,
                "tenant_count": 24}
SERVED_EPOCHS = {"epochs": 32, "churn": 0.01}


def _specs():
    fleet = FleetSpec(flow_count=FLOWS, device_count=DEVICES,
                      tenant_count=TENANTS)
    spec = OrchestratorSpec(epochs=EPOCHS, churn=CHURN)
    return fleet, spec


def _run(mode: str, epochs: int = EPOCHS):
    fleet, spec = _specs()
    if epochs != spec.epochs:
        import dataclasses
        spec = dataclasses.replace(spec, epochs=epochs)
    context = SimContext(name=f"orchestrator-{mode}")
    started = time.perf_counter()
    result = run_orchestrator(fleet, spec, mode=mode, context=context)
    elapsed = time.perf_counter() - started
    return result, context.metrics.snapshot(), elapsed


def _served_day():
    """Median phase costs of perfbench-shaped day requests (record only).

    Applies the daemon's process-wide heap policy first, so it must run
    after every other block.
    """
    apply_heap_policy()
    rng = random.Random(2_025)
    fault_counter = getattr(resource, "RUSAGE_THREAD", None)

    def request_ms(epochs=SERVED_EPOCHS):
        scenario = Scenario.from_json({
            "kind": "fleet", "seed": rng.randrange(1, 2 ** 31),
            "tenancy": SERVED_SHAPE, "epochs": epochs})
        phases = TraceBus(clock_ps=lambda: time.perf_counter_ns() * 1_000,
                          enabled=True)
        faults = (resource.getrusage(fault_counter).ru_minflt
                  if fault_counter is not None else 0)
        started = time.perf_counter()
        with recording(phases):
            run_scenario(scenario).response_text()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if fault_counter is not None:
            faults = resource.getrusage(fault_counter).ru_minflt - faults
        totals = {name: total_ps / 1e9 for name, _, total_ps, _
                  in TraceAnalysis(phases.records).flame()}
        return (totals["orchestrator.build"], totals["orchestrator.run"],
                elapsed_ms, faults)

    request_ms()  # warm-up: fills the shape memo, as the daemon's prime does
    build, run, request, faults = zip(
        *(request_ms() for _ in range(SERVED_REQUESTS)))
    fixed_epochs = {**SERVED_EPOCHS, "churn": 0.0}
    fixed_run = [request_ms(fixed_epochs)[1]
                 for _ in range(SERVED_REQUESTS)]
    return {
        "requests": SERVED_REQUESTS,
        **SERVED_SHAPE, **SERVED_EPOCHS,
        "build_ms": round(statistics.median(build), 3),
        "run_ms": round(statistics.median(run), 3),
        "request_ms": round(statistics.median(request), 3),
        "fixed_run_ms": round(statistics.median(fixed_run), 3),
        "minflt_per_request": (round(statistics.mean(faults), 1)
                               if fault_counter is not None else None),
    }


def main() -> int:
    inc, inc_metrics, inc_e2e = _run("incremental")
    full, full_metrics, full_e2e = _run("full")

    inc_epoch_ms = inc.wall_s / EPOCHS * 1e3
    full_epoch_ms = full.wall_s / EPOCHS * 1e3
    speedup = full_epoch_ms / inc_epoch_ms

    bit_exact = inc.to_json() == full.to_json()
    metrics_exact = inc_metrics == full_metrics

    verify, _, verify_e2e = _run("verify", epochs=VERIFY_EPOCHS)
    verify_digest_matches = (verify.aggregate_digest
                             == run_digest_prefix(inc, VERIFY_EPOCHS))
    served_day = _served_day()  # last: it changes the process's heap policy

    last = inc.epochs[-1]
    baseline = {
        "config": {
            "flows": FLOWS, "devices": DEVICES, "tenants": TENANTS,
            "epochs": EPOCHS, "churn": CHURN,
            "verify_epochs": VERIFY_EPOCHS,
        },
        "day": {
            "incremental_s": round(inc_e2e, 3),
            "full_s": round(full_e2e, 3),
            "incremental_epoch_ms": round(inc_epoch_ms, 3),
            "full_epoch_ms": round(full_epoch_ms, 3),
            "epoch_speedup": round(speedup, 2),
            "verify_s": round(verify_e2e, 3),
        },
        "exactness": {
            "results_bit_exact": bit_exact,
            "metrics_bit_exact": metrics_exact,
            "aggregate_digest": inc.aggregate_digest,
            "flow_digest": inc.flow_digest,
            "verify_digest_matches": verify_digest_matches,
        },
        "served_day": served_day,
        "final_epoch": {
            "flows": last.flows,
            "alive_devices": last.alive_devices,
            "p99_ns": round(last.p99_ns, 3),
            "utilization_mean": round(last.utilization_mean, 4),
            "slo_violations_total": inc.total_slo_violations,
        },
    }
    target = REPO_ROOT / "BENCH_orchestrator.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")

    failed = []
    if inc_e2e > DAY_BUDGET_S:
        failed.append(f"288-epoch day took {inc_e2e:.2f}s on the "
                      f"incremental path (budget {DAY_BUDGET_S:.0f}s)")
    if speedup < SPEEDUP_FLOOR:
        failed.append(f"incremental epoch stepping is only {speedup:.2f}x "
                      f"faster than the oracle (floor {SPEEDUP_FLOOR:.0f}x)")
    if not bit_exact:
        failed.append("incremental and full runs serialised differently")
    if not metrics_exact:
        failed.append("incremental and full metrics snapshots differ")
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


def run_digest_prefix(result, epochs: int) -> str:
    """Recompute the running digest a shorter run of the same config
    would report, by replaying the shorter run outright.

    The digest folds per-epoch state, so a 96-epoch verify run cannot
    be compared against the 288-epoch digest directly; instead rerun
    incrementally at the shorter horizon (cheap) and compare digests.
    """
    short, _, _ = _run("incremental", epochs=epochs)
    return short.aggregate_digest


if __name__ == "__main__":
    raise SystemExit(main())
