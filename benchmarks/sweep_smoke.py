"""Sweep-runner perf baseline (``make bench-sweep``).

Times one Fig-17/18-style multi-app x multi-device sweep three ways:

* ``serial_seed`` -- the seed's serial hot path: a fresh chain per
  point driven through the pinned
  :func:`repro.sim.pipeline.run_packet_sweep_reference` loop (the
  per-Transaction oracle, kept verbatim for exactly this comparison);
* ``fused`` -- the :class:`repro.runtime.sweep.SweepRunner` with a cold
  cache: cache-miss points batch through the in-process vector kernel;
* ``cached`` -- the runner re-run against the warm cache.

Results land in ``BENCH_sweep.json`` at the repository root;
``repro.cli report`` folds the file into the reproduction report.  The
script exits non-zero when the fused run fails its >= 7.5x speedup
budget against the serial seed path, the fused results are not
bit-identical to the serial seed results, or the warm re-run fails its
>= 10x budget against the cold run.

Run directly: ``PYTHONPATH=src python benchmarks/sweep_smoke.py``
"""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_smoke import best_of  # noqa: E402

from repro.apps import application_by_name  # noqa: E402
from repro.platform.catalog import device_by_name  # noqa: E402
from repro.runtime.sweep import (  # noqa: E402
    SweepCache,
    SweepPlan,
    SweepRunner,
)
from repro.sim.pipeline import run_packet_sweep_reference  # noqa: E402

#: The fixed workload: the three BITW apps of Figure 17 across three
#: catalog devices that can host all of them, over the paper's
#: packet-size axis.
APPS = ("sec-gateway", "layer4-lb", "host-network")
DEVICES = ("device-a", "device-b", "device-d")
PACKET_SIZES = (64, 128, 256, 512, 1024)
PACKETS_PER_POINT = 4_000
REPEATS = 2
FUSED_SPEEDUP_BUDGET = 7.5
CACHE_SPEEDUP_BUDGET = 10.0

PLAN = SweepPlan(apps=APPS, devices=DEVICES, packet_sizes=PACKET_SIZES,
                 packets_per_point=PACKETS_PER_POINT)


def serial_seed_sweep() -> list:
    """The pre-runner shape: every point serially, seed-style.

    Mirrors what ``CloudApplication.measure`` did before the overhaul --
    build the chain, then push one Transaction per packet through the
    reference loop.  No cache, no kernel.
    """
    results = []
    for app_name in APPS:
        app = application_by_name(app_name)
        for device_name in DEVICES:
            device = device_by_name(device_name)
            shell = app.tailored_shell(device)
            for size in PACKET_SIZES:
                chain = app.datapath(shell, True)
                results.append(run_packet_sweep_reference(
                    chain, packet_size_bytes=size,
                    packet_count=PACKETS_PER_POINT,
                ))
    return results


def run() -> dict:
    cache = SweepCache()
    fused = SweepRunner(PLAN, cache=cache)

    serial_s = best_of(serial_seed_sweep, REPEATS)

    def cold_fused():
        cache.clear()
        fused.run()

    fused_s = best_of(cold_fused, REPEATS)

    # Exactness spot-check: the kernel must be invisible in the output --
    # bit-identical floats to the serial oracle loop, point for point.
    cache.clear()
    fused_result = fused.run()
    # Every *executed* point of this all-analytic grid must fuse (the
    # remainder dedup to shared content keys).
    assert fused_result.per_point_points == 0 and fused_result.fused_points > 0
    exact = [(point.throughput_bps, point.mean_latency_ns)
             for point in fused_result.points] == serial_seed_sweep()

    # Populate once, then time warm re-runs only.
    fused.run()
    warm_s = best_of(fused.run, REPEATS)

    result = fused.run()
    assert result.cache_hits == len(result), "warm run must be all hits"

    return {
        "workload": f"{len(APPS)} apps x {len(DEVICES)} devices x "
                    f"{len(PACKET_SIZES)} sizes x {PACKETS_PER_POINT} packets "
                    f"({len(PLAN)} points)",
        "serial_seed_s": round(serial_s, 6),
        "fused_cold_s": round(fused_s, 6),
        "cached_warm_s": round(warm_s, 6),
        "fused_speedup": round(serial_s / fused_s, 3),
        "fused_exact": exact,
        "fused_groups": fused_result.fused_groups,
        "cache_speedup": round(fused_s / warm_s, 3),
        "cache_entries": len(cache),
    }


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_sweep.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    failed = False
    if baseline["fused_speedup"] < FUSED_SPEEDUP_BUDGET:
        print(f"FAIL: fused sweep only {baseline['fused_speedup']:.2f}x "
              f"faster than the serial seed path "
              f"(budget {FUSED_SPEEDUP_BUDGET}x)", file=sys.stderr)
        failed = True
    if not baseline["fused_exact"]:
        print("FAIL: fused results are not bit-identical to the serial "
              "oracle loop", file=sys.stderr)
        failed = True
    if baseline["cache_speedup"] < CACHE_SPEEDUP_BUDGET:
        print(f"FAIL: warm-cache re-run only {baseline['cache_speedup']:.2f}x "
              f"faster than the cold run (budget {CACHE_SPEEDUP_BUDGET:.0f}x)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
