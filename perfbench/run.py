"""Benchmark harness: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

A run sets the daemon up ``SETUP_REPEATS`` times and reports the median
set-up time: it keeps the daemon of the last set-up before the timed
phase, and makes ``SETUPS_AFTER`` of them after it, so the median spans
the run instead of a few seconds of it.  It warms the closed loop up, untimed,
until back-to-back windows agree (a run whose windows never agree says
so on stdout, before the result); builds the timed request bodies;
measures for ``--seconds``; stops the daemon and checks responses
against in-process :func:`repro.service.run_scenario` results.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics from the daemon's ``/stats`` plus a traced in-process
replay, whose spans land in
``.perfbench_out/<workload>-<seed>.trace.jsonl``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Without the program's sources next to this directory the run exits 2
and prints no result.
"""

import argparse
import json
import math
import os
import random
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import loadgen, replay  # noqa: E402
from perfbench.daemon import DaemonProcess  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WARM_SCENARIOS,
    WORKLOADS,
    Workload,
    encode,
    pool_scenario,
)

SETUP_REPEATS = 5
SETUPS_AFTER = 2
WARMUP_WINDOW_S = 1.5
#: Timed bodies built ahead, as a multiple of the warm-up's op rate.
PREPARE_MARGIN = 1.5
#: Printed on stdout, before the result, when the warm-up never converged.
UNSTEADY = "# warm-up did not converge"
OUT_DIR = ROOT / ".perfbench_out"

#: name -> unit, in report order.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_rps": "ops/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}

#: Counters read from the daemon's ``/stats`` registry, reported per op.
SERVE_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "serve.coalesce.executed": ("serve", "coalesce", "executed"),
    "serve.coalesce.attached": ("serve", "coalesce", "attached"),
    "serve.shed": ("serve", "shed"),
    "serve.quota_rejected": ("serve", "quota_rejected"),
    "serve.sweep.fused_points": ("serve", "sweep", "fused_points"),
    "serve.sweep.fused_groups": ("serve", "sweep", "fused_groups"),
    "serve.sweep.pooled_points": ("serve", "sweep", "pooled_points"),
    "serve.pool.dispatches": ("serve", "pool", "dispatches"),
    "serve.cache.evictions": ("sweep", "cache", "evictions"),
}

#: Per-layer replay metrics: name -> (unit, span name, "total"|"self").
LAYER_TIMES: Dict[str, Tuple[str, str, str]] = {
    "scenario.parse_ms": ("ms", "scenario.parse", "total"),
    "scenario.id_ms": ("ms", "scenario.id", "total"),
    "service.payload_ms": ("ms", "service.payload", "total"),
    "service.serialize_ms": ("ms", "service.serialize", "total"),
    "sweep.plan_ms": ("ms", "sweep.plan", "total"),
    "sweep.key_ms": ("ms", "sweep.key", "total"),
    "sweep.cache_probe_ms": ("ms", "sweep.cache_probe", "total"),
    "sweep.cache_store_ms": ("ms", "sweep.cache_store", "total"),
    "sweep.partition_ms": ("ms", "sweep.partition", "total"),
    "sweep.fused_ms": ("ms", "sweep.fused", "total"),
    "sweep.runner_self_ms": ("ms", "sweep.run", "self"),
    "vector.kernel_ms": ("ms", "vector.kernel", "total"),
    "tracectx.stitch_ms": ("ms", "tracectx.stitch", "total"),
    "orchestrator.build_ms": ("ms", "orchestrator.build", "total"),
    "orchestrator.flush_ms": ("ms", "orchestrator.flush", "total"),
    "orchestrator.stats_ms": ("ms", "orchestrator.stats", "total"),
    "orchestrator.residency_ms": ("ms", "orchestrator.residency", "total"),
    "slo.evaluate_ms": ("ms", "slo.evaluate", "total"),
    "orchestrator.serialize_ms": ("ms", "orchestrator.serialize", "total"),
}

#: Every per-layer metric: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "serve.request_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.pool_overhead_ms": "ms",
    "serve.pool.worker_rss_mb": "MB",
    **{name: "count" for name in SERVE_COUNTERS},
    "serve.cache.entries": "count",
    "serve.response_bytes": "bytes",
    "service.run_ms": "ms",
    **{name: unit for name, (unit, _, _) in LAYER_TIMES.items()},
    "sweep.cache_hit_ratio": "ratio",
    "sweep.points_per_launch": "count",
    "vector.ns_per_packet": "ns",
    "orchestrator.epoch_ms": "ms",
    "orchestrator.migrations": "count",
    "orchestrator.pr_grants": "count",
    "orchestrator.scaled": "count",
    "orchestrator.slo_violations": "count",
    "trace.overhead_frac": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def log(message: str) -> None:
    print(f"# {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------- #
# requests and their expected responses                                      #
# --------------------------------------------------------------------------- #

class Stream:
    """A phase's request bodies, built before they are sent.

    Body ``i`` is ``workload.request(seed, phase, i)``, encoded; a warm
    workload's stream cycles over its ``WARM_SCENARIOS`` bodies.
    :meth:`prepare` builds bodies ahead of a closed loop, so the loop
    only indexes a list; a body past the prepared ones is built on
    demand and counted in ``late``.
    """

    def __init__(self, workload: Workload, seed: int, phase: str) -> None:
        self.workload, self.seed, self.phase = workload, seed, phase
        self.bodies: List[bytes] = []
        self.late = 0
        self._lock = threading.Lock()

    def prepare(self, count: int) -> None:
        if self.workload.warm:
            count = WARM_SCENARIOS
        while len(self.bodies) < count:
            self.bodies.append(encode(self.workload.request(
                self.seed, self.phase, len(self.bodies))))

    def body(self, index: int) -> bytes:
        if self.workload.warm:
            index %= WARM_SCENARIOS
        if index >= len(self.bodies):
            with self._lock:
                self.late += 1
                self.prepare(index + 1)
        return self.bodies[index]

    def scenario_id(self, index: int) -> str:
        from repro.scenario import Scenario

        return Scenario.from_json(json.loads(self.body(index))).scenario_id()


def reference_text(body: bytes, cache: Any = None) -> bytes:
    """The in-process response for one request body (workers=1, own cache)."""
    from repro.runtime.sweep import SweepCache
    from repro.scenario import Scenario
    from repro.service import run_scenario

    scenario = Scenario.from_json(json.loads(body))
    outcome = run_scenario(scenario, cache=cache if cache is not None
                           else SweepCache(max_entries=4_096))
    return outcome.response_text().encode("utf-8")


def post(daemon: DaemonProcess, endpoint: str, body: bytes) -> bytes:
    from repro.serve.client import http_request

    response = http_request(daemon.host, daemon.port, "POST",
                            f"/v1/{endpoint}", body, timeout=120.0)
    if response.status != 200:
        raise RuntimeError(f"priming request failed with {response.status}: "
                           f"{response.body[:200]!r}")
    return response.body


def get_stats(daemon: DaemonProcess) -> Dict[str, Any]:
    from repro.serve.client import http_request

    response = http_request(daemon.host, daemon.port, "GET", "/stats")
    if response.status != 200:
        raise RuntimeError(f"GET /stats failed with {response.status}")
    return response.json()


# --------------------------------------------------------------------------- #
# the daemon phase                                                            #
# --------------------------------------------------------------------------- #

def set_up(workload: Workload, seed: int) -> Tuple[DaemonProcess, List[bytes]]:
    """Boot the daemon, spawn its pool, prime the working set.

    Returns the daemon and the primed response bodies (serve-warm's
    expected responses).
    """
    daemon = DaemonProcess(str(ROOT), nproc())
    try:
        # A traced sweep fans out over the resident pool, so every pool
        # worker is spawned (and has imported the simulator) before the
        # timed phase on every workload.
        post(daemon, "sweep", encode(pool_scenario()))
        primed = [post(daemon, workload.endpoint, encode(scenario))
                  for scenario in workload.primes(seed)]
    except BaseException:
        daemon.stop()
        raise
    return daemon, primed


def check_responses(workload: Workload, stream: Stream,
                    loop: loadgen.LoopResult, primed: List[bytes], *,
                    base: int = 0,
                    tamper: Optional[Callable[[int, bytes], bytes]] = None
                    ) -> Tuple[int, Dict[int, bytes]]:
    """Failed ops of one closed loop, and the 200 bodies by stream index.

    Runs after the loop.  serve-warm compares each body with its primed
    body.  The other workloads check the scenario id here, keep the
    bodies, and re-compute a seeded sample in-process after the daemon
    stops (see :func:`check_sample`).  ``base`` is the stream index of
    the loop's op 0.
    """
    failed = 0
    bodies: Dict[int, bytes] = {}
    for index, response in loop.responses:
        index += base
        if response is None or response.status != 200:
            failed += 1
            continue
        body = response.body
        if tamper is not None:
            body = tamper(index, body)
        if workload.warm:
            ok = body == primed[index % len(primed)]
        else:
            bodies[index] = body
            scenario_id = stream.scenario_id(index)
            ok = (response.headers.get("x-scenario-id") == scenario_id
                  and f'"scenario_id":"{scenario_id}"'.encode() in body)
        failed += 0 if ok else 1
    return failed, bodies


def check_sample(workload: Workload, seed: int, stream: Stream, ops: int,
                 bodies: Dict[int, bytes], primed: List[bytes]) -> int:
    """Re-compute responses in-process; returns how many mismatched.

    An op that already failed (no 200 body) is not counted twice.
    """
    mismatches = 0
    if workload.warm:
        for scenario, body in zip(workload.primes(seed), primed):
            if reference_text(encode(scenario)) != body:
                mismatches += 1
        return mismatches
    picks = random.Random(seed).sample(range(ops), min(workload.samples, ops))
    for index in sorted(picks):
        if index in bodies and (reference_text(stream.body(index))
                                != bodies[index]):
            mismatches += 1
    return mismatches


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, *, setups: Optional[int] = None,
                 tamper: Optional[Callable[[int, bytes], bytes]] = None
                 ) -> Dict[str, Any]:
    """One benchmark run; returns the result object the harness prints."""
    setups = setups or (1 if trace else SETUP_REPEATS)
    setups_after = min(SETUPS_AFTER, setups - 1)
    setup_s: List[float] = []

    def timed_set_up() -> Tuple[DaemonProcess, List[bytes]]:
        started = time.perf_counter()
        daemon, primed = set_up(workload, seed)
        setup_s.append(time.perf_counter() - started)
        return daemon, primed

    for _ in range(setups - setups_after - 1):
        timed_set_up()[0].stop()
    daemon, primed = timed_set_up()
    path = f"/v1/{workload.endpoint}"

    with daemon:
        warm = Stream(workload, seed, "warmup")
        warm.prepare(0)
        warm_failed = 0
        warm_rate = 0.0

        def window() -> loadgen.LoopResult:
            nonlocal warm_failed, warm_rate
            base = len(warm.bodies) if not workload.warm else 0
            result = loadgen.closed_loop(
                daemon.host, daemon.port, path, workload.callers,
                lambda index: warm.body(base + index),
                seconds=WARMUP_WINDOW_S)
            warm_failed += check_responses(workload, warm, result, primed,
                                           base=base)[0]
            warm_rate = result.ops / result.elapsed_s
            return result

        medians, converged = loadgen.warm_up(window)
        report = ", ".join(f"{m * 1e3:.3f}" for m in medians)
        log(f"warm-up windows (median ms): {report}")
        if not converged:
            print(f"{UNSTEADY}: window medians {report} ms", flush=True)

        timed = Stream(workload, seed, "timed")
        timed.prepare(math.ceil(warm_rate * seconds * PREPARE_MARGIN) + 16)
        before = get_stats(daemon)
        cpu_before = daemon.cpu_s()
        loop = loadgen.closed_loop(daemon.host, daemon.port, path,
                                   workload.callers, timed.body,
                                   seconds=seconds)
        cpu_after = daemon.cpu_s()
        after = get_stats(daemon)
        peak_rss_mb = daemon.peak_rss_mb()
        worker_rss_mb = daemon.pool_worker_rss_mb()
    for _ in range(setups_after):
        timed_set_up()[0].stop()

    if timed.late:
        log(f"{timed.late} timed bodies were built during the timed phase")
    loop_failed, bodies = check_responses(workload, timed, loop, primed,
                                          tamper=tamper)
    # A warm-up op that failed is a failure too, though not an attempt
    # of the timed phase.
    failed = warm_failed + loop_failed + check_sample(
        workload, seed, timed, loop.ops, bodies, primed)
    ops = loop.ops
    log(f"{workload.name}: {ops} ops in {loop.elapsed_s:.3f} s, "
        f"{failed} failed, setups {', '.join(f'{s:.3f}' for s in setup_s)} s")
    if trace:
        metrics = per_layer_metrics(workload, seed, loop, before, after,
                                    worker_rss_mb)
    else:
        metrics = end_to_end_metrics(setup_s, loop, cpu_after - cpu_before,
                                     peak_rss_mb)
    return {"correct": failed == 0, "attempted": ops, "failed": failed,
            "metrics": metrics}


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup_s: List[float], loop: loadgen.LoopResult,
                       cpu_s: float, peak_rss_mb: float) -> Dict[str, Any]:
    latencies = loop.latencies_s
    beyond_p95 = int(0.05 * len(latencies))
    if beyond_p95 < 10:
        log(f"p95_ms rests on {len(latencies)} samples, {beyond_p95} beyond "
            f"it: it interpolates between the slowest ops")
    values = {
        "setup_s": statistics.median(setup_s),
        "throughput_rps": loop.ops / loop.elapsed_s,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p95_ms": loadgen.p95(latencies) * 1e3,
        "cpu_ms_per_req": cpu_s * 1e3 / loop.ops,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: _metric(values[name], unit)
            for name, unit in END_TO_END.items()}


# --------------------------------------------------------------------------- #
# per-layer metrics                                                           #
# --------------------------------------------------------------------------- #

def _leaf(tree: Dict[str, Any], path: Tuple[str, ...]) -> Any:
    node: Any = tree
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return 0
        node = node[part]
    return node


def _wall_sum_count(stats: Dict[str, Any]) -> Tuple[float, int]:
    hist = _leaf(stats["metrics"], ("serve", "request", "wall_ps"))
    if not hist or not hist.get("count"):
        return 0.0, 0
    return hist["mean_ps"] * hist["count"], hist["count"]


def replay_bodies(workload: Workload, seed: int) -> List[bytes]:
    stream = Stream(workload, seed, "timed")
    return [stream.body(index) for index in range(workload.replay_ops)]


def fresh_cache(workload: Workload, seed: int) -> Any:
    """The replay's cache: primed with the working set on serve-warm."""
    from repro.runtime.sweep import SweepCache

    cache = SweepCache(max_entries=4_096)
    if workload.warm:
        for scenario in workload.primes(seed):
            reference_text(encode(scenario), cache)
    return cache


def traced_replay(workload: Workload, seed: int
                  ) -> Tuple[replay.ReplayOutcome, replay.ReplayOutcome,
                             List[str], Path]:
    """Bare pass, then a pass with every layer wrapper installed."""
    bodies = replay_bodies(workload, seed)
    # Untimed pre-pass: chain memos and imports warm, as in the daemon.
    warm = Stream(workload, seed, "warmup")
    replay.replay([warm.body(0)], cache=fresh_cache(workload, seed))
    bare = replay.replay(bodies, cache=fresh_cache(workload, seed))
    tracer = replay.Tracer()
    cache = fresh_cache(workload, seed)
    with replay.Wrappers(tracer) as wrappers:
        traced = replay.replay(bodies, cache=cache, tracer=tracer)
    if traced.bodies != bare.bodies:
        raise RuntimeError("wrapped replay changed a response body")
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{workload.name}-{seed}.trace.jsonl"
    tracer.bus().write_jsonl(str(trace_path))
    return bare, traced, wrappers.absent, trace_path


def per_layer_metrics(workload: Workload, seed: int, loop: loadgen.LoopResult,
                      before: Dict[str, Any], after: Dict[str, Any],
                      worker_rss_mb: float) -> Dict[str, Any]:
    ops = loop.ops
    values: Dict[str, float] = {}

    sum_before, count_before = _wall_sum_count(before)
    sum_after, count_after = _wall_sum_count(after)
    # The delta also holds the "before" GET /stats itself (observed after
    # its body was built); drop it from the count, its ~1 ms stays in.
    request_ms = (sum_after - sum_before) / max(1, count_after - count_before
                                                - 1) / 1e9
    values["serve.request_ms"] = request_ms
    values["serve.transport_ms"] = (statistics.fmean(loop.latencies_s) * 1e3
                                    - request_ms)
    for name, path in SERVE_COUNTERS.items():
        values[name] = ((_leaf(after["metrics"], path)
                         - _leaf(before["metrics"], path)) / ops)
    values["serve.cache.entries"] = after["cache"]["entries"]
    values["serve.pool.worker_rss_mb"] = worker_rss_mb

    bare, traced, absent, trace_path = traced_replay(workload, seed)
    if absent:
        print(f"absent layers: {', '.join(absent)}", flush=True)
    log(f"trace written to {trace_path.relative_to(ROOT)}")
    times = traced.times
    assert times is not None
    n = traced.ops
    run_ms = bare.run_s * 1e3 / bare.ops
    values["service.run_ms"] = run_ms
    values["serve.overhead_ms"] = request_ms - run_ms
    # The same difference where requests fanned out over the resident
    # pool (the replay ran them with workers=1): what the pool costs.
    values["serve.pool_overhead_ms"] = (
        request_ms - run_ms if values["serve.pool.dispatches"] else 0.0)
    values["serve.response_bytes"] = statistics.fmean(
        len(body) for body in bare.bodies)
    for name, (_, span, which) in LAYER_TIMES.items():
        table = times.total_ns if which == "total" else times.self_ns
        values[name] = table.get(span, 0) / 1e6 / n

    sweeps = [r for r in bare.results if r.kind == "sweep"]
    points = sum(len(r.result) for r in sweeps)
    values["sweep.cache_hit_ratio"] = (
        sum(r.cache_hits for r in sweeps) / points if points else 0.0)
    groups = sum(r.meta.get("fused_groups", 0) for r in sweeps)
    values["sweep.points_per_launch"] = (
        sum(r.meta.get("fused_points", 0) for r in sweeps) / groups
        if groups else 0.0)
    kernel_events = times.events.get("vector.kernel", 0)
    values["vector.ns_per_packet"] = (
        times.total_ns.get("vector.kernel", 0) / kernel_events
        if kernel_events else 0.0)

    days = [r for r in bare.results if r.kind == "fleet"]
    epochs = sum(r.meta.get("epochs", 0) for r in days)
    values["orchestrator.epoch_ms"] = (
        times.total_ns.get("orchestrator.run", 0) / 1e6 / epochs
        if epochs else 0.0)
    for name, keys in (("orchestrator.migrations", ("migrations",)),
                       ("orchestrator.pr_grants", ("pr_grants",)),
                       ("orchestrator.scaled", ("scaled_up", "scaled_down")),
                       ("orchestrator.slo_violations", ("slo_violations",))):
        values[name] = (sum(r.payload["totals"][key] for r in days
                            for key in keys) / len(days) if days else 0.0)
    values["trace.overhead_frac"] = traced.wall_s / bare.wall_s - 1.0
    return {name: _metric(values[name], unit)
            for name, unit in PER_LAYER.items()}


# --------------------------------------------------------------------------- #
# entry point                                                                 #
# --------------------------------------------------------------------------- #

def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "serve" / "daemon.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
