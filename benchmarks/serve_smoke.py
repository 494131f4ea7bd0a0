"""Warm-serving load benchmark (``make bench-serve``).

Measures the three claims the serving daemon exists to make, and fails
the build when any regresses:

* **warm >= 10x cold** -- a scenario served by the resident daemon must
  beat the cold one-shot CLI (interpreter boot, imports, cold caches)
  by at least 10x.  The daemon's whole point is amortising that bill.
* **coalescing executes once** -- concurrent identical requests must
  fold into a single execution (counters from the daemon's coalescer,
  efficiency >= 90% for a 16-way burst).
* **p99 holds under load** -- after a closed-loop load run, the
  daemon's own ``/slo`` endpoint (``default_serve_slos`` evaluated over
  the Prometheus-exposed ``serve.*`` metrics) must report zero
  violations: request p99 under 500 ms, no error blow-up, no shedding.
* **cold sweeps go through the fused planner** -- a cold-cache sweep
  request must batch its vector-eligible points in-process
  (``serve.sweep.fused_points`` counts them), un-fusable DES points
  must run one at a time (``serve.sweep.per_point_points`` grows by one
  per DES request), and every point must run inside the daemon's own
  process: it has no child processes afterwards.
* **memo hits are the cold bytes** -- a repeat answered by the response
  memo (``X-Coalesced: memo``) must return exactly the bytes of its
  cold compute and of the in-process service layer.

Results land in ``BENCH_serve.json`` at the repository root;
``repro.cli report`` folds the file into the reproduction report.

Run directly: ``PYTHONPATH=src python benchmarks/serve_smoke.py``
"""

import json
import multiprocessing
import pathlib
import subprocess
import sys
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_smoke import best_of  # noqa: E402

from repro.scenario import (  # noqa: E402
    Scenario,
    WorkloadSpec,
    save_scenario,
)
from repro.serve import (  # noqa: E402
    LoadGenerator,
    ServeClient,
    ServeConfig,
    serve_in_thread,
)
from repro.service import run_scenario  # noqa: E402

#: The scenario both sides execute for the warm-vs-cold comparison.
BASE = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",),
                workload=WorkloadSpec(packet_sizes=(64, 256),
                                      packets_per_point=200))

#: Distinct warm scenarios for the load phase (different cache entries,
#: so the daemon serves a working set, not one hot key).
LOAD_SCENARIOS = tuple(
    BASE.replace(workload=WorkloadSpec(packet_sizes=sizes,
                                       packets_per_point=200))
    for sizes in ((64,), (128,), (256,), (512,))
)

#: A deliberately slow, previously-unseen scenario for the coalescing
#: burst: the DES oracle loop over many packets keeps the leader in flight
#: long enough that every concurrent identical request attaches to it.
COALESCE = Scenario(kind="sweep", apps=("sec-gateway",),
                    devices=("device-a",), engine="des",
                    workload=WorkloadSpec(packet_sizes=(96,),
                                          packets_per_point=150_000))

#: A scenario no other phase sends, for the memo's byte-identity check.
MEMO = BASE.replace(workload=WorkloadSpec(packet_sizes=(96, 1500),
                                          packets_per_point=200))

#: One-point DES-engine sweeps that must each run on the per-point path.
DES_SIZES = ((80,), (112,))

CLI_REPEATS = 2
WARM_SAMPLES = 50
BURST = 16
LOAD_REQUESTS = 1_800
LOAD_CONCURRENCY = 8

WARM_SPEEDUP_BUDGET = 10.0
COALESCE_EFFICIENCY_BUDGET = 0.9


def time_cold_cli(tmp_dir: pathlib.Path) -> float:
    """One-shot ``repro.cli sweep``: a fresh interpreter, cold caches."""
    scenario_path = tmp_dir / "bench-serve-scenario.json"
    save_scenario(BASE, str(scenario_path))
    out_path = tmp_dir / "bench-serve-out.json"

    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    def one_shot() -> None:
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep",
             "--scenario", str(scenario_path), "--json", str(out_path)],
            check=True, capture_output=True, cwd=str(REPO_ROOT), env=env,
        )

    return best_of(one_shot, CLI_REPEATS)


def time_warm_daemon(client: ServeClient) -> float:
    """Median warm-request latency once the resident cache holds BASE."""
    first = client.run_scenario(BASE, endpoint="sweep")
    assert first.status == 200, first.body
    samples = []
    for _ in range(WARM_SAMPLES):
        start = time.perf_counter()
        response = client.run_scenario(BASE, endpoint="sweep")
        samples.append(time.perf_counter() - start)
        assert response.status == 200, response.body
    return sorted(samples)[len(samples) // 2]


def coalescing_burst(handle, client: ServeClient) -> dict:
    """A BURST of identical never-seen requests must run exactly once.

    The leader goes first; once ``/stats`` shows its execution in
    flight (the DES-tier scenario keeps it there for hundreds of
    milliseconds), the remaining BURST-1 requests fire concurrently and
    must all attach to it rather than executing.
    """
    before = handle.daemon.coalescer.counters()
    responses = [None] * BURST

    def fire(index: int) -> None:
        responses[index] = client.run_scenario(COALESCE, endpoint="sweep")

    leader = threading.Thread(target=fire, args=(0,))
    leader.start()
    deadline = time.perf_counter() + 30.0
    while client.stats()["coalescer"]["inflight"] == 0:
        if time.perf_counter() > deadline:
            raise RuntimeError("leader execution never became visible")
        time.sleep(0.002)
    followers = [threading.Thread(target=fire, args=(index,))
                 for index in range(1, BURST)]
    for thread in followers:
        thread.start()
    leader.join()
    for thread in followers:
        thread.join()
    after = handle.daemon.coalescer.counters()

    statuses = sorted(r.status for r in responses)
    assert statuses == [200] * BURST, statuses
    bodies = {r.body for r in responses}
    assert len(bodies) == 1, "coalesced responses must be byte-identical"
    executions = after["executions"] - before["executions"]
    attached = after["attached"] - before["attached"]
    return {
        "burst": BURST,
        "executions": executions,
        "attached": attached,
        "efficiency": round(attached / BURST, 3),
    }


def fused_planner_stats(client: ServeClient) -> dict:
    """Planner provenance after the warm phase plus two DES requests.

    ``time_warm_daemon`` already pushed BASE through cold, so its
    vector-eligible points must show up as fused.  Two distinct
    DES-engine scenarios then force the per-point path twice, inside
    the daemon's process.
    """
    des_scenarios = tuple(
        Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",),
                 engine="des",
                 workload=WorkloadSpec(packet_sizes=sizes,
                                       packets_per_point=100))
        for sizes in DES_SIZES
    )
    before = client.stats()["metrics"]["serve"]["sweep"]
    for scenario in des_scenarios:
        response = client.run_scenario(scenario, endpoint="sweep")
        assert response.status == 200, response.body
    serve = client.stats()["metrics"]["serve"]
    return {
        "fused_points": serve["sweep"]["fused_points"],
        "fused_groups": serve["sweep"]["fused_groups"],
        "des_per_point_points": (
            serve["sweep"].get("per_point_points", 0)
            - before.get("per_point_points", 0)),
        "child_processes": len(multiprocessing.active_children()),
    }


def memo_check(client: ServeClient) -> dict:
    """Cold compute, full-path warm repeat, memo hit: one set of bytes."""
    responses = [client.run_scenario(MEMO, endpoint="sweep")
                 for _ in range(3)]
    assert [r.status for r in responses] == [200] * 3, responses
    solo = run_scenario(MEMO).response_text().encode("utf-8")
    return {
        "roles": [r.headers["x-coalesced"] for r in responses],
        "identical": all(r.body == solo for r in responses),
    }


def run() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cold_cli_s = time_cold_cli(pathlib.Path(tmp))

    config = ServeConfig(port=0, exec_workers=4)
    with serve_in_thread(config) as handle:
        client = ServeClient(handle.host, handle.port, timeout=120.0)

        warm_request_s = time_warm_daemon(client)
        fused = fused_planner_stats(client)
        memo = memo_check(client)
        coalesce = coalescing_burst(handle, client)

        bodies = [json.dumps(s.to_json()).encode("utf-8")
                  for s in LOAD_SCENARIOS]
        generator = LoadGenerator(handle.host, handle.port, bodies,
                                  endpoint="run", timeout=120.0)
        load = generator.run(LOAD_REQUESTS, concurrency=LOAD_CONCURRENCY)
        slo = client.slo()
        stats = client.stats()

    return {
        "workload": f"{BASE.workload.packets_per_point} packets x "
                    f"{len(BASE.workload.packet_sizes)} sizes "
                    f"(cold CLI vs warm daemon), {BURST}-way coalescing "
                    f"burst, {LOAD_REQUESTS} load requests at "
                    f"concurrency {LOAD_CONCURRENCY}",
        "cold_cli_s": round(cold_cli_s, 6),
        "warm_request_s": round(warm_request_s, 6),
        "warm_speedup": round(cold_cli_s / warm_request_s, 3),
        "coalesce": coalesce,
        "fused": fused,
        "load": load.to_json(),
        "slo": slo,
        "cache_entries": stats["cache"]["entries"],
        "memo": memo,
        "memo_hits": stats["memo"]["hits"],
        "shed": stats["admission"]["shed"],
        "quota_rejections": stats["admission"]["quota_rejections"],
    }


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_serve.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    failed = False
    if baseline["warm_speedup"] < WARM_SPEEDUP_BUDGET:
        print(f"FAIL: warm daemon request only "
              f"{baseline['warm_speedup']:.2f}x faster than the cold "
              f"one-shot CLI (budget {WARM_SPEEDUP_BUDGET:.0f}x)",
              file=sys.stderr)
        failed = True
    if baseline["coalesce"]["efficiency"] < COALESCE_EFFICIENCY_BUDGET:
        print(f"FAIL: coalescing folded only "
              f"{baseline['coalesce']['attached']} of {BURST} concurrent "
              f"identical requests "
              f"(efficiency {baseline['coalesce']['efficiency']:.2f}, "
              f"budget {COALESCE_EFFICIENCY_BUDGET:.2f})", file=sys.stderr)
        failed = True
    fused = baseline["fused"]
    if fused["fused_points"] < 1:
        print("FAIL: cold-cache daemon sweep never went through the "
              "fused planner (serve.sweep.fused_points == 0)",
              file=sys.stderr)
        failed = True
    if fused["des_per_point_points"] != len(DES_SIZES):
        print(f"FAIL: {fused['des_per_point_points']} points ran per-point "
              f"across {len(DES_SIZES)} one-point DES-engine requests "
              f"(expected {len(DES_SIZES)})", file=sys.stderr)
        failed = True
    if fused["child_processes"]:
        print(f"FAIL: the daemon left {fused['child_processes']} child "
              f"processes; every sweep point must run in the daemon process",
              file=sys.stderr)
        failed = True
    memo = baseline["memo"]
    if memo["roles"] != ["leader", "leader", "memo"] or not memo["identical"]:
        print(f"FAIL: a memo hit did not return the cold bytes "
              f"(roles {memo['roles']}, identical {memo['identical']})",
              file=sys.stderr)
        failed = True
    if baseline["slo"]["exit_code"] != 0:
        print(f"FAIL: serving SLOs violated under load: "
              f"{baseline['slo']['violations']}", file=sys.stderr)
        failed = True
    if baseline["load"]["ok"] != baseline["load"]["sent"]:
        print(f"FAIL: {baseline['load']['sent'] - baseline['load']['ok']} "
              f"of {baseline['load']['sent']} load requests did not "
              f"return 200: {baseline['load']['status_counts']}",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
