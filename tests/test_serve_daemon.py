"""The serving daemon end-to-end, over real sockets on a real thread.

Concurrency-sensitive tests (coalescing, shedding) gate the execution
path on a :class:`threading.Event` by patching the daemon module's
``run_scenario`` -- the test controls exactly when work completes, so
there are no timing-dependent assertions.
"""

import json
import multiprocessing
import sys
import threading

import pytest

import repro.serve.daemon as daemon_module
import repro.serve.memo as memo_module
from repro.scenario import Scenario, TenancySpec, WorkloadSpec
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.runtime.sweep import SweepCache
from repro.serve.memo import MEMO_MAX_BYTES
from repro.service import run_scenario

SWEEP = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",),
                 workload=WorkloadSpec(packet_sizes=(64, 256),
                                       packets_per_point=50))
OTHER_SWEEP = Scenario(kind="sweep", apps=("sec-gateway",),
                       devices=("device-a",),
                       workload=WorkloadSpec(packet_sizes=(128,),
                                             packets_per_point=50))
FLEET = Scenario(kind="fleet",
                 tenancy=TenancySpec(flow_count=2_000, device_count=16,
                                     tenant_count=4))
BUILD = Scenario(kind="build", apps=("sec-gateway",), devices=("device-a",))


@pytest.fixture()
def handle():
    with serve_in_thread(ServeConfig(port=0, exec_workers=2)) as running:
        yield running


@pytest.fixture()
def client(handle):
    return ServeClient(handle.host, handle.port)


class TestEndpoints:
    def test_healthz_reports_warm_state(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["warm"] == {"sweep_cache_entries": 0,
                                  "artifact_store_entries": 0}

    def test_each_kind_executes(self, client):
        for scenario, endpoint in ((SWEEP, "sweep"), (FLEET, "fleet"),
                                   (BUILD, "build")):
            response = client.run_scenario(scenario, endpoint=endpoint)
            assert response.status == 200
            body = response.json()
            assert body["kind"] == scenario.kind
            assert body["scenario_id"] == scenario.scenario_id()
            assert body["exit_code"] == 0
            assert response.headers["x-scenario-id"] == \
                scenario.scenario_id()

    def test_run_endpoint_dispatches_any_kind(self, client):
        for scenario in (SWEEP, FLEET, BUILD):
            response = client.run_scenario(scenario, endpoint="run")
            assert response.status == 200
            assert response.json()["kind"] == scenario.kind

    def test_response_matches_the_service_layer_bytes(self, client):
        served = client.run_scenario(SWEEP, endpoint="sweep")
        solo = run_scenario(SWEEP).response_text().encode("utf-8")
        assert served.body == solo

    def test_warm_requests_reuse_the_resident_cache(self, client):
        first = client.run_scenario(SWEEP, endpoint="sweep")
        second = client.run_scenario(SWEEP, endpoint="sweep")
        assert first.body == second.body
        stats = client.stats()
        assert stats["cache"]["entries"] == len(SWEEP.workload.packet_sizes)
        assert client.health()["warm"]["sweep_cache_entries"] > 0

    def test_slo_query_and_endpoint(self, client):
        response = client.run_scenario(SWEEP, endpoint="sweep",
                                       slo="default")
        assert response.status == 200
        assert response.json()["slo"] is not None
        report = client.slo()
        assert report["exit_code"] == 0

    def test_metrics_exposition_covers_serving(self, client):
        client.run_scenario(SWEEP, endpoint="sweep")
        text = client.metrics_text()
        assert "serve" in text
        snapshot = client.stats()["metrics"]
        assert snapshot["serve"]["requests"] >= 1

    def test_stats_reports_all_subsystems(self, client):
        stats = client.stats()
        assert set(stats) == {"metrics", "coalescer", "admission", "cache",
                              "memo", "orchestrator", "telemetry",
                              "trace_ring"}
        assert stats["memo"] == {"entries": 0, "bytes": 0, "hits": 0}
        assert stats["admission"]["max_queue"] == 32
        assert stats["telemetry"]["window_s"] == 60.0
        assert stats["trace_ring"]["enabled"] is True


class TestOrchestratorServing:
    def _epoch_fleet(self):
        from repro.scenario import EpochsSpec

        return FLEET.replace(epochs=EpochsSpec(epochs=3, churn=0.02))

    def test_epoch_fleet_serves_and_matches_solo_bytes(self, client):
        scenario = self._epoch_fleet()
        served = client.run_scenario(scenario, endpoint="fleet")
        assert served.status == 200
        solo = run_scenario(scenario).response_text().encode("utf-8")
        assert served.body == solo

    def test_day_totals_fold_into_stats_counters(self, client):
        scenario = self._epoch_fleet()
        client.run_scenario(scenario, endpoint="fleet")
        client.run_scenario(scenario, endpoint="fleet")
        stats = client.stats()["orchestrator"]
        assert stats["runs"] == 2
        assert stats["epochs"] == 6
        assert stats["migrations"] >= 0
        solo = run_scenario(scenario)
        totals = solo.meta["totals"]
        assert stats["pr_grants"] == 2 * totals["pr_grants"]
        assert stats["slo_violations"] == 2 * totals["slo_violations"]

    def test_plain_fleet_leaves_orchestrator_counters_cold(self, client):
        client.run_scenario(FLEET, endpoint="fleet")
        stats = client.stats()["orchestrator"]
        assert stats["runs"] == 0
        assert stats["epochs"] == 0


class TestErrors:
    def test_unknown_path_is_404(self, client):
        from repro.serve import http_request

        response = http_request(client.host, client.port, "GET", "/nope")
        assert response.status == 404

    def test_wrong_method_is_405(self, client):
        from repro.serve import http_request

        assert http_request(client.host, client.port, "POST",
                            "/healthz").status == 405
        assert http_request(client.host, client.port, "GET",
                            "/v1/sweep").status == 405

    def test_bad_json_is_400(self, client):
        response = client.run_scenario(b"{not json", endpoint="sweep")
        assert response.status == 400
        assert "JSON" in response.json()["error"]

    def test_invalid_scenario_is_400(self, client):
        response = client.run_scenario({"kind": "sweep", "bogus": 1},
                                       endpoint="sweep")
        assert response.status == 400

    def test_kind_endpoint_mismatch_is_400(self, client):
        response = client.run_scenario(FLEET, endpoint="sweep")
        assert response.status == 400
        assert "/v1/fleet" in response.json()["error"]

    def test_file_slo_specs_are_rejected_over_http(self, client):
        response = client.run_scenario(SWEEP, endpoint="sweep",
                                       slo="/etc/slo.json")
        assert response.status == 400

    def test_oversized_body_is_413(self):
        with serve_in_thread(ServeConfig(port=0, max_body=64)) as running:
            response = ServeClient(running.host, running.port).run_scenario(
                SWEEP, endpoint="sweep")
            assert response.status == 413

    def test_remote_shutdown_is_disabled_by_default(self, client):
        assert client.shutdown().status == 404

    def test_rejected_requests_count_once(self):
        config = ServeConfig(port=0, quota_rps=0.001, quota_burst=1.0)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            assert client.run_scenario(b"{not json",
                                       endpoint="sweep").status == 400
            assert client.run_scenario(SWEEP, endpoint="sweep").status == 200
            assert client.run_scenario(SWEEP, endpoint="sweep").status == 429
            # Three POSTs and this GET: serve.requests is the denominator
            # of the error and shed ratio SLOs, so each counts once.
            serve = client.stats()["metrics"]["serve"]
            assert serve["requests"] == 4
            assert serve["responses"] == {"200": 1, "400": 1, "429": 1}


class _GatedExecution:
    """Patch the daemon's ``run_scenario`` so tests control completion."""

    def __init__(self, monkeypatch):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()
        monkeypatch.setattr(daemon_module, "run_scenario", self._call)

    def _call(self, scenario, **kwargs):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.gate.wait(timeout=30), "test never opened the gate"
        return run_scenario(scenario, **kwargs)


class TestCoalescing:
    def test_concurrent_identical_requests_execute_once(
            self, handle, client, monkeypatch):
        gated = _GatedExecution(monkeypatch)
        responses = [None] * 6

        def request(index):
            responses[index] = client.run_scenario(SWEEP, endpoint="sweep")

        leader = threading.Thread(target=request, args=(0,))
        leader.start()
        assert gated.started.wait(timeout=10)
        followers = [threading.Thread(target=request, args=(i,))
                     for i in range(1, 6)]
        for thread in followers:
            thread.start()
        deadline_stats = None
        for _ in range(500):
            deadline_stats = handle.daemon.coalescer.counters()
            if deadline_stats["attached"] == 5:
                break
            threading.Event().wait(0.01)
        assert deadline_stats["attached"] == 5, deadline_stats
        gated.gate.set()
        leader.join(timeout=30)
        for thread in followers:
            thread.join(timeout=30)

        assert gated.calls == 1, "identical concurrent requests must run once"
        assert [r.status for r in responses] == [200] * 6
        assert len({r.body for r in responses}) == 1
        # ... and those shared bytes match a solo, uncoalesced run:
        assert responses[0].body == \
            run_scenario(SWEEP).response_text().encode("utf-8")
        roles = sorted(r.headers["x-coalesced"] for r in responses)
        assert roles == ["follower"] * 5 + ["leader"]

    def test_distinct_scenarios_never_share_results(
            self, handle, client, monkeypatch):
        gated = _GatedExecution(monkeypatch)
        responses = {}

        def request(name, scenario):
            responses[name] = client.run_scenario(scenario, endpoint="sweep")

        threads = [threading.Thread(target=request, args=("a", SWEEP)),
                   threading.Thread(target=request, args=("b", OTHER_SWEEP))]
        threads[0].start()
        assert gated.started.wait(timeout=10)
        threads[1].start()
        for _ in range(500):
            if gated.calls == 2:
                break
            threading.Event().wait(0.01)
        gated.gate.set()
        for thread in threads:
            thread.join(timeout=30)

        assert gated.calls == 2, "distinct scenarios must not coalesce"
        assert responses["a"].status == responses["b"].status == 200
        assert responses["a"].body != responses["b"].body
        assert responses["a"].headers["x-scenario-id"] != \
            responses["b"].headers["x-scenario-id"]

    def test_sequential_identical_requests_do_not_coalesce(self, client):
        client.run_scenario(SWEEP, endpoint="sweep")
        client.run_scenario(SWEEP, endpoint="sweep")
        counters = client.stats()["coalescer"]
        assert counters["executions"] == 2
        assert counters["attached"] == 0


class TestAdmission:
    def test_queue_full_sheds_with_503(self, monkeypatch):
        config = ServeConfig(port=0, exec_workers=1, max_queue=1)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            gated = _GatedExecution(monkeypatch)
            holder = [None]

            def hold():
                holder[0] = client.run_scenario(SWEEP, endpoint="sweep")

            thread = threading.Thread(target=hold)
            thread.start()
            assert gated.started.wait(timeout=10)
            shed = client.run_scenario(OTHER_SWEEP, endpoint="sweep")
            assert shed.status == 503
            assert "queue full" in shed.json()["error"]
            gated.gate.set()
            thread.join(timeout=30)
            assert holder[0].status == 200
            stats = client.stats()
            assert stats["admission"]["shed"] == 1
            assert stats["metrics"]["serve"]["shed"] == 1

    def test_quota_rejects_with_429_per_tenant(self):
        config = ServeConfig(port=0, quota_rps=0.001, quota_burst=1.0)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            first = client.run_scenario(SWEEP, endpoint="sweep",
                                        tenant="alpha")
            second = client.run_scenario(SWEEP, endpoint="sweep",
                                         tenant="alpha")
            other = client.run_scenario(SWEEP, endpoint="sweep",
                                        tenant="beta")
            assert first.status == 200
            assert second.status == 429
            assert second.headers["retry-after"] == "1"
            assert other.status == 200, "quotas are per tenant"
            stats = client.stats()
            assert stats["admission"]["quota_rejections"] == 1
            assert set(stats["admission"]["tenants"]) == {"alpha", "beta"}


class TestWarmState:
    def test_lru_bound_evicts_and_counts(self):
        config = ServeConfig(port=0, cache_entries=2)
        wide = Scenario(
            kind="sweep", apps=("sec-gateway",), devices=("device-a",),
            workload=WorkloadSpec(packet_sizes=(64, 128, 256, 512),
                                  packets_per_point=50))
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            assert client.run_scenario(wide, endpoint="sweep").status == 200
            stats = client.stats()
            assert stats["cache"]["entries"] == 2
            assert stats["cache"]["evictions"] == 2
            assert stats["metrics"]["sweep"]["cache"]["evictions"] == 2
            assert "evictions" in client.metrics_text()

    def test_cache_file_round_trips_across_restarts(self, tmp_path):
        cache_file = str(tmp_path / "cache.json")
        config = ServeConfig(port=0, cache_file=cache_file)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            client.run_scenario(SWEEP, endpoint="sweep")
        with serve_in_thread(ServeConfig(port=0,
                                         cache_file=cache_file)) as running:
            client = ServeClient(running.host, running.port)
            warm = client.health()["warm"]
            assert warm["sweep_cache_entries"] == \
                len(SWEEP.workload.packet_sizes)

    def test_remote_shutdown_when_enabled(self):
        config = ServeConfig(port=0, allow_remote_shutdown=True)
        handle = serve_in_thread(config)
        client = ServeClient(handle.host, handle.port)
        assert client.shutdown().status == 200
        handle.thread.join(timeout=10)
        assert not handle.thread.is_alive()


class TestResidentPool:
    """Sweeps run on the daemon's resident execution threads.

    Every point -- fused or not -- executes inside the daemon's own
    process; nothing is ever handed to a child process.
    """

    def test_pool_workers_validated(self):
        from repro.cli import build_parser

        # The flag is accepted (and ignored) so existing launch scripts
        # keep working; argparse still rejects a non-integer width.
        args = build_parser().parse_args(["serve", "--pool-workers", "2"])
        assert args.pool_workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--pool-workers", "many"])

    def test_cold_sweep_goes_through_the_fused_planner(self, client):
        assert client.run_scenario(SWEEP, endpoint="sweep").status == 200
        snapshot = client.stats()["metrics"]["serve"]
        assert snapshot["sweep"]["fused_points"] == \
            len(SWEEP.workload.packet_sizes)
        assert snapshot["sweep"]["fused_groups"] == 1
        assert "per_point_points" not in snapshot["sweep"]

    def test_unfusable_points_dispatch_to_the_resident_pool(self, client):
        first = Scenario(kind="sweep", apps=("sec-gateway",),
                         devices=("device-a",), engine="des",
                         workload=WorkloadSpec(packet_sizes=(64,),
                                               packets_per_point=50))
        second = Scenario(kind="sweep", apps=("sec-gateway",),
                          devices=("device-a",), engine="des",
                          workload=WorkloadSpec(packet_sizes=(128,),
                                                packets_per_point=50))
        for scenario in (first, second):
            assert client.run_scenario(scenario,
                                       endpoint="sweep").status == 200
        snapshot = client.stats()["metrics"]["serve"]
        assert snapshot["sweep"]["per_point_points"] == 2
        assert "pool" not in snapshot
        assert multiprocessing.active_children() == []

    def test_warm_sweep_executes_nothing(self, client):
        client.run_scenario(SWEEP, endpoint="sweep")
        before = client.stats()["metrics"]["serve"]["sweep"]
        client.run_scenario(SWEEP, endpoint="sweep")
        after = client.stats()["metrics"]["serve"]["sweep"]
        assert after["fused_points"] == before["fused_points"]
        assert (after.get("per_point_points")
                == before.get("per_point_points"))


def _post(client, scenario, endpoint="sweep", **kwargs):
    response = client.run_scenario(scenario, endpoint=endpoint, **kwargs)
    assert response.status == 200, response.body
    return response


def _roles(responses):
    return [response.headers["x-coalesced"] for response in responses]


class TestResponseMemo:
    """A byte-identical repeat of a fully cached sweep skips execution."""

    def test_a_memo_hit_serves_the_cold_bytes_and_headers(self, handle,
                                                          client):
        cold, warm = _post(client, SWEEP), _post(client, SWEEP)
        cache_hits = handle.daemon.cache.hits
        memo = _post(client, SWEEP)
        # The first warm repeat still runs the full path; it stores.
        assert _roles((cold, warm, memo)) == ["leader", "leader", "memo"]
        solo = run_scenario(SWEEP).response_text().encode("utf-8")
        assert cold.body == warm.body == memo.body == solo
        assert ({name: value for name, value in memo.headers.items()
                 if name != "x-coalesced"}
                == {name: value for name, value in cold.headers.items()
                    if name != "x-coalesced"})
        # The hit refreshed and counted its points like a warm probe.
        assert handle.daemon.cache.hits == \
            cache_hits + len(SWEEP.workload.packet_sizes)
        stats = client.stats()
        assert stats["memo"]["entries"] == 1
        assert stats["memo"]["hits"] == 1
        assert stats["memo"]["bytes"] > len(solo)
        assert stats["metrics"]["serve"]["memo"]["hits"] == 1
        assert stats["metrics"]["serve"]["coalesce"]["executed"] == 2
        assert stats["coalescer"]["executions"] == 2

    def test_an_evicted_point_sends_the_repeat_down_the_full_path(self):
        with serve_in_thread(ServeConfig(port=0, cache_entries=2)) as running:
            client = ServeClient(running.host, running.port)
            cold = _post(client, SWEEP)
            _post(client, SWEEP)
            assert client.stats()["memo"]["entries"] == 1
            _post(client, OTHER_SWEEP)   # evicts one of SWEEP's points
            cache = running.daemon.cache
            hits, misses = cache.hits, cache.misses
            again = _post(client, SWEEP)
            assert again.headers["x-coalesced"] == "leader"
            assert again.body == cold.body
            # Only the full path's probe counts: one hit, one miss.
            assert (cache.hits - hits, cache.misses - misses) == (1, 1)
            assert client.stats()["memo"] == {"entries": 0, "bytes": 0,
                                              "hits": 0}
            # Fully cached again: the next repeat stores, the one after
            # is answered from the memo.
            assert _roles(_post(client, SWEEP) for _ in range(2)) == \
                ["leader", "memo"]

    def test_traced_fleet_and_build_responses_are_never_stored(self, client):
        traced = SWEEP.replace(workload=WorkloadSpec(
            packet_sizes=(64, 256), packets_per_point=50, trace=True))
        for scenario, endpoint in ((traced, "sweep"), (FLEET, "fleet"),
                                   (BUILD, "build"), (BUILD, "run")):
            assert _roles(_post(client, scenario, endpoint)
                          for _ in range(3)) == ["leader"] * 3
        assert client.stats()["memo"] == {"entries": 0, "bytes": 0,
                                          "hits": 0}

    def test_a_memo_hit_over_quota_is_429(self):
        config = ServeConfig(port=0, quota_rps=0.001, quota_burst=3.0)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            assert _roles(_post(client, SWEEP) for _ in range(3)) == \
                ["leader", "leader", "memo"]
            rejected = client.run_scenario(SWEEP, endpoint="sweep")
            assert rejected.status == 429
            stats = client.stats()
            assert stats["memo"]["hits"] == 1
            assert stats["admission"]["quota_rejections"] == 1

    def test_a_memo_hit_takes_no_queue_slot(self, monkeypatch):
        config = ServeConfig(port=0, exec_workers=1, max_queue=1)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            expected = _post(client, SWEEP).body
            _post(client, SWEEP)
            gated = _GatedExecution(monkeypatch)
            holder = [None]

            def hold():
                holder[0] = client.run_scenario(OTHER_SWEEP,
                                                endpoint="sweep")

            thread = threading.Thread(target=hold)
            thread.start()
            assert gated.started.wait(timeout=10)
            hit = _post(client, SWEEP)   # the only slot is taken
            gated.gate.set()
            thread.join(timeout=30)
            assert hit.headers["x-coalesced"] == "memo"
            assert hit.body == expected
            assert holder[0].status == 200
            assert client.stats()["admission"]["shed"] == 0

    def test_endpoints_and_slo_values_keep_separate_entries(self, client):
        assert _roles(_post(client, SWEEP, "sweep") for _ in range(3)) == \
            ["leader", "leader", "memo"]
        assert _roles(_post(client, SWEEP, "run") for _ in range(2)) == \
            ["leader", "memo"]
        assert _roles(_post(client, SWEEP, "sweep", slo="default")
                      for _ in range(2)) == ["leader", "memo"]
        assert client.stats()["memo"]["entries"] == 3
        mismatch = client.run_scenario(SWEEP, endpoint="fleet")
        assert mismatch.status == 400
        assert "/v1/sweep" in mismatch.json()["error"]

    def test_the_byte_bound_holds_under_whitespace_variants(self, client):
        text = json.dumps(SWEEP.to_json())
        _post(client, SWEEP)   # the result cache now holds every point
        pad = MEMO_MAX_BYTES // 5
        variants = [text + " " * (pad + index) for index in range(8)]
        assert _roles(_post(client, body) for body in variants) == \
            ["leader"] * len(variants)
        memo = client.stats()["memo"]
        assert memo["bytes"] <= MEMO_MAX_BYTES
        assert 1 < memo["entries"] < len(variants)
        # Least recently used out: the newest variant hits, the oldest
        # was evicted and recomputes.
        assert _post(client, variants[-1]).headers["x-coalesced"] == "memo"
        assert _post(client, variants[0]).headers["x-coalesced"] == "leader"
        assert client.stats()["memo"]["bytes"] <= MEMO_MAX_BYTES

    def test_concurrent_repeats_share_the_memoised_bytes(self):
        with serve_in_thread(ServeConfig(port=0, exec_workers=4)) as running:
            client = ServeClient(running.host, running.port)
            expected = _post(client, SWEEP).body
            _post(client, SWEEP)
            responses = [None] * 16

            def fire(index):
                responses[index] = client.run_scenario(SWEEP,
                                                       endpoint="sweep")

            threads = [threading.Thread(target=fire, args=(index,))
                       for index in range(len(responses))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert {response.status for response in responses} == {200}
            assert {response.body for response in responses} == {expected}
            assert set(_roles(responses)) == {"memo"}
            assert client.stats()["memo"]["hits"] == len(responses)

    def test_concurrent_stores_keep_the_byte_count_exact(self, monkeypatch):
        bound = 4_096
        monkeypatch.setattr(memo_module, "MEMO_MAX_BYTES", bound)
        memo = memo_module.ResponseMemo()
        cache = SweepCache()
        cache.store("resident", {"throughput_bps": 1.0,
                                 "mean_latency_ns": 1.0})

        def worker(seed):
            for index in range(1_500):
                key = ("sweep", None, b"%d" % ((seed * 7 + index) % 40))
                points = ["resident"] if index % 5 else ["resident", "gone"]
                memo.store(key, b"x" * (100 + index % 300), "id", points)
                entry = memo.get(key)
                if entry is not None:
                    memo.confirm(key, entry, cache)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert memo.bytes == sum(entry.size
                                 for entry in memo._entries.values())
        assert 0 < memo.bytes <= bound
