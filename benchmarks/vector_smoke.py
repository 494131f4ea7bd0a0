"""Vector-kernel perf and exactness gate (``make bench-vector``).

Times two workloads through real application datapaths, each two ways
-- ``oracle``, :func:`repro.sim.pipeline.run_packet_sweep_reference`
(the per-Transaction loop the kernel is pinned against), and
``vector``, :func:`repro.sim.vector.run_packet_sweep_vector_batch`
(the closed-form numpy kernel, one running maximum per same-clock
stage run):

* **one row** -- one 100k-packet sweep point through sec-gateway@device-a
  as a one-row batch;
* **fused** -- the serve-cold shape: one fused group of eight packet
  sizes (64-9000 B) x 18003 packets through layer4-lb@device-a, the
  call the sweep planner makes for an unseen served sweep.

Before timing, the bench spot-checks **exact equality**: the kernel
must reproduce the oracle bit for bit (throughput and latency floats,
which derive from exact integer per-packet completions) across several
packet sizes, and every timed row must agree too.  Results land in
``BENCH_vector.json`` at the repository root; ``repro.cli report``
folds the file into the reproduction report.  The script exits
non-zero when any equality check fails, when the one-row kernel is
< 35x faster than the oracle loop, when the fused group is < 250x
faster per packet than the oracle, or when a warm fused group takes
more than 32 minor page faults (``fused_minflt_per_call``, counted
for the calling thread with ``getrusage(RUSAGE_THREAD)``): the kernel
reuses one workspace, so a repeated group should map no fresh pages.
Where the platform has no ``RUSAGE_THREAD`` the fault gate is skipped
and says so.

Run directly: ``PYTHONPATH=src python benchmarks/vector_smoke.py``
"""

import json
import pathlib
import resource
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_smoke import best_of  # noqa: E402

from repro.apps import application_by_name  # noqa: E402
from repro.platform.catalog import device_by_name  # noqa: E402
from repro.sim.pipeline import run_packet_sweep_reference  # noqa: E402
from repro.sim.vector import run_packet_sweep_vector_batch  # noqa: E402

APP_NAME = "sec-gateway"
DEVICE = "device-a"
TRAIN_PACKETS = 100_000
TRAIN_SIZE_BYTES = 512
SPOT_SIZES = (64, 256, 1024, 1500)
SPOT_PACKETS = 2_000
REPEATS = 5
#: The oracle point takes about a second; its best of two is stable.
ORACLE_REPEATS = 2
SPEEDUP_BUDGET = 35.0
#: The serve-cold fused group: one app x device, eight sizes.
FUSED_APP_NAME = "layer4-lb"
FUSED_SIZES = (64, 65, 576, 1_500, 2_048, 4_573, 7_000, 9_000)
FUSED_PACKETS = 18_003
FUSED_SPEEDUP_BUDGET = 250.0
#: Warm fused groups whose minor page faults are counted.
FAULT_REPEATS = 10
#: Minor page faults a warm fused group may take: the kernel reuses its
#: buffers, so only stray small allocations may fault.
FAULT_BUDGET = 32


def _chain(app_name: str = APP_NAME):
    app = application_by_name(app_name)
    device = device_by_name(DEVICE)
    return app.datapath(app.tailored_shell(device), True)


def check_exactness() -> dict:
    """Exact-equality spot checks; raises AssertionError on any mismatch."""
    chain = _chain()
    for size in SPOT_SIZES:
        expected = run_packet_sweep_reference(
            chain, packet_size_bytes=size, packet_count=SPOT_PACKETS)
        [actual] = run_packet_sweep_vector_batch(chain, [size], SPOT_PACKETS)
        assert actual == expected, (
            f"vector sweep diverged at {size}B: {actual} != {expected}")
    return {"spot_sizes": list(SPOT_SIZES), "spot_packets": SPOT_PACKETS}


def run() -> dict:
    checks = check_exactness()
    chain = _chain()
    results = {}

    def oracle():
        results["oracle"] = run_packet_sweep_reference(
            chain, TRAIN_SIZE_BYTES, TRAIN_PACKETS)

    def vector():
        [results["vector"]] = run_packet_sweep_vector_batch(
            chain, [TRAIN_SIZE_BYTES], TRAIN_PACKETS)

    oracle_s = best_of(oracle, ORACLE_REPEATS)
    vector_s = best_of(vector, REPEATS)
    assert results["vector"] == results["oracle"], (
        "the timed kernel point diverged from the oracle loop")
    return {
        "workload": f"{APP_NAME}@{DEVICE}, {TRAIN_PACKETS} x "
                    f"{TRAIN_SIZE_BYTES}B packets",
        "exactness_checks": checks,
        "oracle_s": round(oracle_s, 6),
        "vector_s": round(vector_s, 6),
        "vector_speedup": round(oracle_s / vector_s, 3),
        **run_fused(),
    }


def run_fused() -> dict:
    """The serve-cold fused group, every row checked against the oracle."""
    chain = _chain(FUSED_APP_NAME)
    results = {}

    def oracle():
        results["oracle"] = [
            run_packet_sweep_reference(chain, size, FUSED_PACKETS)
            for size in FUSED_SIZES]

    def vector():
        results["vector"] = run_packet_sweep_vector_batch(
            chain, FUSED_SIZES, FUSED_PACKETS)

    oracle_s = best_of(oracle, ORACLE_REPEATS)
    vector_s = best_of(vector, REPEATS)
    assert results["vector"] == results["oracle"], (
        "a fused kernel row diverged from the oracle loop")
    # Both sides run the same packets, so the per-packet speedup is the
    # ratio of the totals.
    return {
        "fused_workload": f"{FUSED_APP_NAME}@{DEVICE}, {len(FUSED_SIZES)} "
                          f"sizes x {FUSED_PACKETS} packets in one group",
        "fused_oracle_s": round(oracle_s, 6),
        "fused_vector_s": round(vector_s, 6),
        "fused_speedup": round(oracle_s / vector_s, 3),
        "fused_minflt_per_call": fused_minflt_per_call(chain),
    }


def fused_minflt_per_call(chain):
    """Minor page faults of one warm fused group, on this thread.

    ``None`` where the platform cannot count one thread's faults.
    """
    who = getattr(resource, "RUSAGE_THREAD", None)
    if who is None:
        return None
    run_packet_sweep_vector_batch(chain, FUSED_SIZES, FUSED_PACKETS)
    before = resource.getrusage(who).ru_minflt
    for _ in range(FAULT_REPEATS):
        run_packet_sweep_vector_batch(chain, FUSED_SIZES, FUSED_PACKETS)
    return (resource.getrusage(who).ru_minflt - before) / FAULT_REPEATS


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_vector.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    failed = False
    if baseline["vector_speedup"] < SPEEDUP_BUDGET:
        print(f"FAIL: vector kernel only {baseline['vector_speedup']:.2f}x "
              f"faster than the oracle loop (budget {SPEEDUP_BUDGET:.0f}x)",
              file=sys.stderr)
        failed = True
    if baseline["fused_speedup"] < FUSED_SPEEDUP_BUDGET:
        print(f"FAIL: fused kernel group only "
              f"{baseline['fused_speedup']:.2f}x faster per packet than the "
              f"oracle loop (budget {FUSED_SPEEDUP_BUDGET:.0f}x)",
              file=sys.stderr)
        failed = True
    faults = baseline["fused_minflt_per_call"]
    if faults is None:
        print("fault gate skipped: this platform has no RUSAGE_THREAD")
    elif faults > FAULT_BUDGET:
        print(f"FAIL: a warm fused group took {faults:.1f} minor page "
              f"faults (budget {FAULT_BUDGET})", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
