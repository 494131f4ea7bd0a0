"""Vector-kernel perf and exactness gate (``make bench-vector``).

Times one 100k-packet sweep point through a real application datapath
two ways:

* ``oracle`` -- :func:`repro.sim.pipeline.run_packet_sweep_reference`,
  the per-Transaction loop the kernel is pinned against;
* ``vector`` -- :func:`repro.sim.vector.run_packet_sweep_vector_batch`
  as a one-row batch, the closed-form numpy kernel (one running
  maximum per stage).

Before timing, the bench spot-checks **exact equality**: the kernel
must reproduce the oracle bit for bit (throughput and latency floats,
which derive from exact integer per-packet completions) across several
packet sizes, and the timed 100k-packet point must agree too.  Results
land in ``BENCH_vector.json`` at the repository root; ``repro.cli
report`` folds the file into the reproduction report.  The script
exits non-zero when the kernel is < 35x faster than the oracle loop on
the 100k-packet point or any equality check fails.

Run directly: ``PYTHONPATH=src python benchmarks/vector_smoke.py``
"""

import json
import pathlib
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


def _chain():
    app = application_by_name(APP_NAME)
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
    }


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_vector.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    if baseline["vector_speedup"] < SPEEDUP_BUDGET:
        print(f"FAIL: vector kernel only {baseline['vector_speedup']:.2f}x "
              f"faster than the oracle loop (budget {SPEEDUP_BUDGET:.0f}x)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
