"""Differential-fuzzer smoke gate (``make fuzz-smoke``).

Runs the conformance fuzzer (:mod:`repro.scenario.fuzz`) as a CI gate:

* a **clean campaign** of 200 random valid scenarios cross-checked for
  serialisation exactness, kernel-vs-oracle equality (results, traces,
  metrics), cache-tier identity, and baseline-framework capability
  invariants -- zero failures allowed, under a 60 s budget;
* an **injected-failure campaign** that plants an artificial bug (any
  packet size >= 1024 fails) and requires the shrinker to find it,
  minimise it to a one-app / one-device / one-size / one-packet
  scenario, write the repro JSON, and do all of that **identically
  twice** -- deterministic shrinking is part of the contract;
* an **epoch-delta campaign** of 100 random churned fleet scenarios,
  each run through the incremental orchestrator, the full-recompute
  oracle, and the per-epoch verify mode -- zero divergences allowed --
  plus an injected-epoch failure that the epoch shrinker must minimise
  identically twice.

Results land in ``BENCH_fuzz.json`` at the repository root;
``repro.cli report`` folds the file into the reproduction report.

Run directly: ``PYTHONPATH=src python benchmarks/fuzz_smoke.py``
"""

import json
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenario import DifferentialFuzzer, load_scenario  # noqa: E402

CLEAN_BUDGET = 200
CLEAN_SEED = 2_025
WALL_BUDGET_S = 60.0
INJECT_BUDGET = 24
INJECT_SEED = 13
INJECT_THRESHOLD = 1_024
EPOCH_BUDGET = 100
EPOCH_SEED = 2_026
EPOCH_WALL_BUDGET_S = 60.0
EPOCH_INJECT_BUDGET = 8
EPOCH_INJECT_SEED = 19
EPOCH_INJECT_THRESHOLD = 2


def clean_campaign() -> dict:
    # Real conformance failures land their minimized repros here, where
    # CI picks them up as an artifact.
    start = time.perf_counter()
    report = DifferentialFuzzer(
        seed=CLEAN_SEED,
        repro_dir=str(REPO_ROOT / "fuzz-repros"),
    ).run(budget=CLEAN_BUDGET)
    elapsed = time.perf_counter() - start
    return {
        "budget": CLEAN_BUDGET,
        "seed": CLEAN_SEED,
        "scenarios_run": report.scenarios_run,
        "points_checked": report.points_checked,
        "checks_run": report.checks_run,
        "coverage_keys": report.coverage,
        "failures": len(report.failures),
        "failure_checks": sorted({f.check for f in report.failures}),
        "elapsed_s": round(elapsed, 3),
    }


def injected_campaign(repro_dir: pathlib.Path) -> dict:
    """Two identical seeded runs; shrinking must be deterministic."""
    shrunk_texts = []
    repro_ok = True
    failures = 0
    for tag in ("a", "b"):
        fuzzer = DifferentialFuzzer(
            seed=INJECT_SEED, repro_dir=str(repro_dir / tag),
            inject_size_threshold=INJECT_THRESHOLD)
        report = fuzzer.run(budget=INJECT_BUDGET)
        failures = len(report.failures)
        shrunk_texts.append(tuple(
            failure.shrunk.canonical_json() for failure in report.failures))
        for failure in report.failures:
            if (failure.repro_path is None
                    or load_scenario(failure.repro_path) != failure.shrunk):
                repro_ok = False
    shrunk = [_loads(text) for text in shrunk_texts[0]]
    minimal = bool(shrunk) and all(
        len(s.apps) == 1 and len(s.devices) == 1
        and len(s.workload.packet_sizes) == 1
        and s.workload.packets_per_point == 1
        and s.workload.packet_sizes[0] >= INJECT_THRESHOLD
        for s in shrunk
    )
    return {
        "budget": INJECT_BUDGET,
        "seed": INJECT_SEED,
        "threshold_bytes": INJECT_THRESHOLD,
        "failures_found": failures,
        "shrinking_deterministic": shrunk_texts[0] == shrunk_texts[1],
        "shrunk_minimal": minimal,
        "repro_files_replay": repro_ok,
    }


def epoch_campaign() -> dict:
    """100 churned fleet scenarios through the epoch-delta differential."""
    start = time.perf_counter()
    report = DifferentialFuzzer(
        seed=EPOCH_SEED, epoch_rate=1.0,
        repro_dir=str(REPO_ROOT / "fuzz-repros"),
    ).run(budget=EPOCH_BUDGET)
    elapsed = time.perf_counter() - start
    return {
        "budget": EPOCH_BUDGET,
        "seed": EPOCH_SEED,
        "scenarios_run": report.scenarios_run,
        "epochs_checked": report.points_checked,
        "checks_run": report.checks_run,
        "coverage_keys": report.coverage,
        "failures": len(report.failures),
        "failure_checks": sorted({f.check for f in report.failures}),
        "elapsed_s": round(elapsed, 3),
    }


def epoch_injected_campaign(repro_dir: pathlib.Path) -> dict:
    """Two identical injected-epoch runs; shrinking must match."""
    shrunk_texts = []
    failures = 0
    for tag in ("a", "b"):
        fuzzer = DifferentialFuzzer(
            seed=EPOCH_INJECT_SEED, epoch_rate=1.0,
            repro_dir=str(repro_dir / tag),
            inject_epoch_threshold=EPOCH_INJECT_THRESHOLD)
        report = fuzzer.run(budget=EPOCH_INJECT_BUDGET)
        failures = len(report.failures)
        shrunk_texts.append(tuple(
            failure.shrunk.canonical_json() for failure in report.failures))
    shrunk = [_loads(text) for text in shrunk_texts[0]]
    minimal = bool(shrunk) and all(
        s.epochs is not None
        and s.epochs.epochs >= EPOCH_INJECT_THRESHOLD
        and s.tenancy.flow_count == 1
        and s.epochs.churn == 0.0
        and s.epochs.autoscale is False
        for s in shrunk
    )
    return {
        "budget": EPOCH_INJECT_BUDGET,
        "seed": EPOCH_INJECT_SEED,
        "threshold_epochs": EPOCH_INJECT_THRESHOLD,
        "failures_found": failures,
        "shrinking_deterministic": shrunk_texts[0] == shrunk_texts[1],
        "shrunk_minimal": minimal,
    }


def _loads(text: str):
    from repro.scenario import loads_scenario

    return loads_scenario(text)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fuzz-smoke-") as tmp:
        baseline = {
            "clean": clean_campaign(),
            "injected": injected_campaign(pathlib.Path(tmp)),
            "epoch": epoch_campaign(),
            "epoch_injected": epoch_injected_campaign(
                pathlib.Path(tmp) / "epoch"),
        }
    target = REPO_ROOT / "BENCH_fuzz.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")

    clean, injected = baseline["clean"], baseline["injected"]
    failed = []
    if clean["failures"]:
        failed.append(f"{clean['failures']} conformance failure(s) in the "
                      f"clean campaign: {clean['failure_checks']}")
    if clean["scenarios_run"] < CLEAN_BUDGET:
        failed.append(f"only {clean['scenarios_run']} of {CLEAN_BUDGET} "
                      f"scenarios ran")
    if clean["elapsed_s"] > WALL_BUDGET_S:
        failed.append(f"clean campaign took {clean['elapsed_s']:.1f}s "
                      f"(budget {WALL_BUDGET_S:.0f}s)")
    if not injected["failures_found"]:
        failed.append("injected failure was never found")
    if not injected["shrinking_deterministic"]:
        failed.append("shrinking differed between identical runs")
    if not injected["shrunk_minimal"]:
        failed.append("shrunk scenarios are not minimal")
    if not injected["repro_files_replay"]:
        failed.append("a repro file did not replay its shrunk scenario")
    epoch, epoch_injected = baseline["epoch"], baseline["epoch_injected"]
    if epoch["failures"]:
        failed.append(f"{epoch['failures']} epoch-delta divergence(s): "
                      f"{epoch['failure_checks']}")
    if epoch["scenarios_run"] < EPOCH_BUDGET:
        failed.append(f"only {epoch['scenarios_run']} of {EPOCH_BUDGET} "
                      f"epoch scenarios ran")
    if epoch["elapsed_s"] > EPOCH_WALL_BUDGET_S:
        failed.append(f"epoch campaign took {epoch['elapsed_s']:.1f}s "
                      f"(budget {EPOCH_WALL_BUDGET_S:.0f}s)")
    if not epoch_injected["failures_found"]:
        failed.append("injected epoch failure was never found")
    if not epoch_injected["shrinking_deterministic"]:
        failed.append("epoch shrinking differed between identical runs")
    if not epoch_injected["shrunk_minimal"]:
        failed.append("shrunk epoch scenarios are not minimal")
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
