"""Benchmark-local tests: ``python3 -m pytest perfbench/tests`` from the root.

They run each workload at a tiny size against a real daemon, so they
take about a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import replay, run  # noqa: E402
from perfbench.workloads import WORKLOADS, day_scenario, encode  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 0.3


def _tiny_day(seed, phase, index):
    return day_scenario(seed, phase, index, flows=20_000, epochs=8)


def tiny(name):
    """The workload at test size: orchestrator days shrink to 20k flows."""
    workload = WORKLOADS[name]
    if name == "orchestrator-day":
        workload = dataclasses.replace(workload, request=_tiny_day)
    return workload


@pytest.fixture(autouse=True)
def short_warm_up(monkeypatch):
    monkeypatch.setattr(run, "WARMUP_WINDOW_S", 0.1)


def _names_units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_reports_the_declared_metrics(name):
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert name in declared
    workload = tiny(name)

    result = run.run_workload(workload, 7, TINY_SECONDS, trace=False,
                              setups=2)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _names_units(result) == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.run_workload(workload, 7, TINY_SECONDS, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert _names_units(traced) == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    values = {key: m["value"] for key, m in traced["metrics"].items()}
    # Each workload stresses the layers it was chosen for.
    if name == "serve-warm":
        assert values["vector.kernel_ms"] == 0
        assert values["sweep.cache_hit_ratio"] == 1
    if name == "serve-cold":
        layers = {key: values[key] for key in run.LAYER_TIMES
                  if key != "sweep.fused_ms"}    # the kernel's caller
        assert max(layers, key=layers.get) == "vector.kernel_ms"
        assert values["serve.cache.evictions"] > 0
    if name == "serve-traced":
        assert values["serve.pool.dispatches"] == 1
        assert values["tracectx.stitch_ms"] > 0
    if name == "orchestrator-day":
        assert all(values[key] == 0 for key in values
                   if key.startswith(("sweep.", "vector.", "tracectx.")))
        assert values["orchestrator.epoch_ms"] > 0


def _corrupt(index, body):
    return body.replace(b"0", b"1", 1) if index == 0 else body


def test_wrong_body_on_serve_warm_is_a_failed_op():
    result = run.run_workload(WORKLOADS["serve-warm"], 3, TINY_SECONDS,
                              trace=False, setups=1, tamper=_corrupt)
    assert result["failed"] == 1
    assert result["correct"] is False


def test_wrong_body_caught_by_the_in_process_sample():
    # The id check passes (only a digit changed); the sample re-computes
    # every op of the run, so the byte comparison must catch it.
    workload = dataclasses.replace(WORKLOADS["serve-cold"], samples=1_000)
    result = run.run_workload(workload, 3, TINY_SECONDS, trace=False,
                              setups=1, tamper=_corrupt)
    assert result["failed"] == 1
    assert result["correct"] is False


def _self_ns_under_run(tracer):
    """(layer self time, service.run's own self time) in ns.

    Layer self time adds up every wrapped span below a ``service.run``
    span; service.run's own self time is what no layer accounts for.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def under_run(index):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == replay.RUN:
                return True
            parent = spans[parent][3]
        return False

    layer_ns = own_ns = 0
    for index, (name, start, end, _, _) in enumerate(spans):
        self_ns = end - start - child_ns[index]
        if name == replay.RUN:
            own_ns += self_ns
        elif under_run(index):
            layer_ns += self_ns
    return layer_ns, own_ns


def test_layer_self_times_sum_to_the_bare_service_run_within_20_percent():
    # serve-cold: the kernel dominates, so the wrappers add little.  Bare
    # and traced passes alternate three times and the median ratio is
    # compared, which keeps host-speed drift out of the tolerance.
    from repro.runtime.sweep import SweepCache

    workload = WORKLOADS["serve-cold"]
    bodies = [encode(workload.request(5, "timed", index))
              for index in range(6)]
    replay.replay(bodies[:1], cache=SweepCache())   # imports and memos
    ratios, unattributed = [], []
    for _ in range(3):
        bare = replay.replay(bodies, cache=SweepCache())
        tracer = replay.Tracer()
        with replay.Wrappers(tracer) as wrappers:
            replay.replay(bodies, cache=SweepCache(), tracer=tracer)
        assert wrappers.absent == []
        layer_ns, own_ns = _self_ns_under_run(tracer)
        ratios.append(layer_ns / (bare.run_s * 1e9))
        unattributed.append(own_ns / (layer_ns + own_ns))
    # The layers' self times stand in for the reported service.run_ms.
    assert abs(sorted(ratios)[1] - 1.0) <= 0.20, ratios
    # And hardly any of run_scenario's time lies outside every layer.
    assert max(unattributed) < 0.02, unattributed
    # The spans form the trees `repro.cli trace analyze` reads.
    from repro.obs.analyze import analyze_trace

    runs = [node for node in analyze_trace(tracer.bus().records).nodes.values()
            if node.name == replay.RUN]
    assert len(runs) == len(bodies)


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(replay, "LAYERS", replay.LAYERS + (
        ("gone.layer", "repro.runtime.sweep", "no_such_function"),
        ("gone.module", "repro.no_such_module", "anything"),
    ))
    tracer = replay.Tracer()
    with replay.Wrappers(tracer) as wrappers:
        pass
    assert wrappers.absent == ["repro.runtime.sweep.no_such_function",
                               "repro.no_such_module.anything"]


def test_wrappers_restore_the_original_functions():
    from repro.runtime import sweep
    from repro.scenario import Scenario

    before = (sweep.sweep_cache_key, vars(Scenario)["from_json"],
              sweep.SweepCache.lookup_many)
    with replay.Wrappers(replay.Tracer()):
        assert sweep.sweep_cache_key is not before[0]
    assert (sweep.sweep_cache_key, vars(Scenario)["from_json"],
            sweep.SweepCache.lookup_many) == before


def test_without_program_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "serve-warm", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_shape_and_time_budget():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
               for w in BENCHMARK["workloads"])
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"])
    # A full measurement campaign (4 + 22 runs per workload) fits in 57
    # minutes: five set-ups (~1.5 s each), at most four 1.5 s warm-up
    # windows and the checks add at most ~17 s to a run's measured
    # seconds on a 2-CPU host.
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert runs * (BENCHMARK["run_seconds"] + 17) < 3_420
