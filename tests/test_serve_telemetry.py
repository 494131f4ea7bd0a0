"""Daemon observability end-to-end: spans, windows, exposition, logs.

Covers the serving side of the tracing stack: request-scoped span
bursts into the resident ring, the ``/telemetry`` window view, native
histogram exposition on ``/metrics``, the structured access log, and
the response-embedded stitched trace staying byte-identical across
execution-thread pool widths (the coalescer serves one leader's bytes to every
follower, so responses must not depend on who executed).
"""

import json
import threading

import pytest

import repro.serve.daemon as daemon_module
from repro.obs.analyze import TraceAnalysis, parse_trace
from repro.scenario import Scenario, WorkloadSpec
from repro.serve import ServeClient, ServeConfig, http_request, serve_in_thread
from repro.service import run_scenario

TRACED = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",),
                  workload=WorkloadSpec(packet_sizes=(64, 128),
                                        packets_per_point=50, trace=True))
PLAIN = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",),
                 workload=WorkloadSpec(packet_sizes=(64, 256),
                                       packets_per_point=50))


@pytest.fixture()
def handle():
    with serve_in_thread(ServeConfig(port=0, exec_workers=2)) as running:
        yield running


@pytest.fixture()
def client(handle):
    return ServeClient(handle.host, handle.port)


def _ring(client):
    text = client._get("/trace").body.decode("utf-8")
    return TraceAnalysis(parse_trace(text))


class TestTelemetryEndpoint:
    def test_window_view_after_requests(self, client):
        client.run_scenario(PLAIN, endpoint="sweep")
        client._get("/healthz")
        body = client._get("/telemetry").json()
        assert body["window_s"] == 60.0
        assert body["rates"]["serve.requests"]["window_total"] >= 2
        assert body["rates"]["serve.responses.200"]["window_total"] >= 2
        assert body["endpoints"]["/v1/sweep"]["count"] == 1
        assert body["tenants"]["default"]["count"] >= 2
        names = {report["name"] for report in body["slo_burn"]}
        assert names == {"serve-request-p99", "serve-error-ratio",
                         "serve-shed-ratio"}

    def test_tenant_header_lands_in_the_window(self, client):
        client.run_scenario(PLAIN, endpoint="sweep", tenant="acme")
        body = client._get("/telemetry").json()
        assert body["tenants"]["acme"]["count"] == 1

    def test_disabled_telemetry_is_404(self):
        config = ServeConfig(port=0, telemetry=False)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            assert client._get("/telemetry").status == 404
            assert client.stats()["telemetry"] is None

    def test_metrics_exposes_native_histograms(self, client):
        client.run_scenario(PLAIN, endpoint="sweep")
        text = client.metrics_text()
        bucket_lines = [line for line in text.splitlines()
                        if "serve.window.request" in line
                        and "_bucket" in line]
        assert bucket_lines, "windowed latency must expose le buckets"
        assert any('le="+Inf"' in line for line in bucket_lines)
        assert any("serve.window.request" in line and "_sum" in line
                   for line in text.splitlines())
        assert any("serve.window.request" in line and "_count" in line
                   for line in text.splitlines())

    def test_stats_summarises_the_window(self, client):
        client.run_scenario(PLAIN, endpoint="sweep")
        stats = client.stats()
        assert stats["telemetry"]["window_requests"] >= 1
        assert stats["telemetry"]["tenants"] == 1


class TestTraceRing:
    def test_request_burst_forms_one_tree_per_request(self, client):
        client.run_scenario(PLAIN, endpoint="sweep")
        analysis = _ring(client)
        roots = [node for node in analysis.roots
                 if node.name == "serve.request"]
        sweep_roots = [node for node in roots
                       if node.attrs.get("path") == "/v1/sweep"]
        assert len(sweep_roots) == 1
        children = {child.name for child in sweep_roots[0].children}
        assert {"serve.admission", "serve.execute"} <= children
        admission = next(child for child in sweep_roots[0].children
                         if child.name == "serve.admission")
        assert admission.attrs["outcome"] == "admitted"

    def test_phases_hang_under_the_request_tree(self, handle, client):
        for trace_id in ("cold", "warm"):
            response = http_request(
                handle.host, handle.port, "POST", "/v1/sweep",
                body=json.dumps(PLAIN.to_json()).encode("utf-8"),
                headers={"X-Trace-Id": trace_id})
            assert response.status == 200
        analysis = _ring(client)
        roots = {node.attrs.get("trace_id"): node for node in analysis.roots
                 if node.name == "serve.request"}

        kernel = next(node for node in analysis.nodes.values()
                      if node.name == "vector.kernel")
        ancestors = []
        node = kernel
        while node.parent_id is not None:
            node = analysis.nodes[node.parent_id]
            ancestors.append(node.name)
        assert ancestors == ["sweep.fused", "serve.execute", "serve.request"]
        assert node is roots["cold"]

        warm = roots["warm"]
        execute = next(child for child in warm.children
                       if child.name == "serve.execute")
        assert [child.name for child in execute.children] == [
            "sweep.plan", "sweep.cache_probe", "sweep.merge",
            "service.serialize"]
        parse = next(child for child in warm.children
                     if child.name == "serve.parse")
        assert [child.name for child in parse.children] == [
            "scenario.validate"]
        # The warm hit parses its own body and hashes its own scenario,
        # but executes no kernel.
        assert "scenario.id" in {child.name for child in warm.children}
        assert not any(child.name == "sweep.fused"
                       for child in execute.children)

    def test_a_memo_hit_records_no_execution(self, handle, client):
        for trace_id in ("cold", "warm", "memo"):
            response = http_request(
                handle.host, handle.port, "POST", "/v1/sweep",
                body=json.dumps(PLAIN.to_json()).encode("utf-8"),
                headers={"X-Trace-Id": trace_id})
            assert response.status == 200
        assert response.headers["x-coalesced"] == "memo"
        roots = {node.attrs.get("trace_id"): node
                 for node in _ring(client).roots
                 if node.name == "serve.request"}
        memo = roots["memo"]
        assert [child.name for child in memo.children] == [
            "serve.admission", "serve.coalesce"]
        coalesce = memo.children[1]
        assert coalesce.attrs["role"] == "memo"
        assert "serve.execute" in {child.name
                                   for child in roots["warm"].children}

    def test_fleet_day_phases_hang_under_execute(self, handle, client):
        from repro.scenario import EpochsSpec, TenancySpec

        day = Scenario(kind="fleet",
                       tenancy=TenancySpec(flow_count=2_000, device_count=16,
                                           tenant_count=4),
                       epochs=EpochsSpec(epochs=3, churn=0.02))
        assert client.run_scenario(day, endpoint="fleet").status == 200
        root = next(node for node in _ring(client).roots
                    if node.attrs.get("path") == "/v1/fleet")
        execute = next(child for child in root.children
                       if child.name == "serve.execute")
        names = [child.name for child in execute.children]
        assert {"orchestrator.build", "orchestrator.run", "service.payload",
                "service.serialize"} <= set(names)
        assert names.index("orchestrator.build") < \
            names.index("orchestrator.run") < names.index("service.payload")

    def test_header_supplied_trace_id_propagates(self, handle, client):
        response = http_request(
            handle.host, handle.port, "POST", "/v1/sweep",
            body=json.dumps(PLAIN.to_json()).encode("utf-8"),
            headers={"X-Trace-Id": "caller-abc"})
        assert response.status == 200
        roots = [node for node in _ring(client).roots
                 if node.attrs.get("trace_id") == "caller-abc"]
        assert len(roots) == 1
        assert roots[0].attrs["status"] == 200

    def test_disabled_ring_is_404(self):
        with serve_in_thread(ServeConfig(port=0, trace_ring=0)) as running:
            client = ServeClient(running.host, running.port)
            assert client._get("/trace").status == 404
            assert client.stats()["trace_ring"]["enabled"] is False

    def test_ring_is_bounded(self):
        with serve_in_thread(ServeConfig(port=0, trace_ring=8)) as running:
            client = ServeClient(running.host, running.port)
            for _ in range(10):
                client._get("/healthz")
            stats = client.stats()["trace_ring"]
            assert stats["resident_records"] <= 8
            assert stats["total_records"] > stats["resident_records"]


class TestCoalesceLinking:
    def test_follower_instant_links_to_the_leader_trace(
            self, handle, client, monkeypatch):
        gate = threading.Event()
        started = threading.Event()

        def gated(scenario, **kwargs):
            started.set()
            assert gate.wait(timeout=30)
            return run_scenario(scenario, **kwargs)

        monkeypatch.setattr(daemon_module, "run_scenario", gated)
        responses = [None, None]

        def leader():
            responses[0] = http_request(
                handle.host, handle.port, "POST", "/v1/sweep",
                body=json.dumps(PLAIN.to_json()).encode("utf-8"),
                headers={"X-Trace-Id": "leader-1"})

        def follower():
            responses[1] = http_request(
                handle.host, handle.port, "POST", "/v1/sweep",
                body=json.dumps(PLAIN.to_json()).encode("utf-8"),
                headers={"X-Trace-Id": "follower-1"})

        lead = threading.Thread(target=leader)
        lead.start()
        assert started.wait(timeout=10)
        follow = threading.Thread(target=follower)
        follow.start()
        # The follower must be attached before the leader finishes.
        deadline = threading.Event()
        for _ in range(200):
            if client.stats()["coalescer"]["attached"] >= 1:
                deadline.set()
                break
            threading.Event().wait(0.05)
        gate.set()
        lead.join(timeout=30)
        follow.join(timeout=30)
        assert deadline.is_set(), "follower never attached to the leader"
        assert responses[0].status == responses[1].status == 200
        assert responses[0].body == responses[1].body

        instants = [node for node in _ring(client).nodes.values()
                    if node.name == "serve.coalesce"]
        roles = {node.attrs["role"]: node for node in instants}
        assert set(roles) == {"leader", "follower"}
        assert roles["follower"].attrs["leader_trace_id"] == "leader-1"
        assert "leader_trace_id" not in roles["leader"].attrs


class TestAccessLog:
    def test_structured_lines_finalised_atomically(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        config = ServeConfig(port=0, access_log=str(log_path))
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            client.run_scenario(PLAIN, endpoint="sweep", tenant="acme")
            client._get("/healthz")
            assert not log_path.exists(), \
                "the log must stay in its .tmp until the daemon drains"
            assert log_path.with_suffix(".jsonl.tmp").exists()
        assert log_path.exists()
        assert not log_path.with_suffix(".jsonl.tmp").exists()
        lines = [json.loads(line)
                 for line in log_path.read_text().splitlines()]
        assert len(lines) == 2
        sweep = next(line for line in lines if line["path"] == "/v1/sweep")
        assert sweep["status"] == 200
        assert sweep["tenant"] == "acme"
        assert sweep["scenario_id"] == PLAIN.scenario_id()
        assert sweep["trace_id"].startswith("req-")
        assert sweep["wall_ms"] > 0
        assert sweep["coalesced"] is False and sweep["shed"] is False
        for line in lines:
            assert list(line) == sorted(line), "keys are sorted for grep"

    def test_shed_requests_are_marked(self, tmp_path, monkeypatch):
        log_path = tmp_path / "access.jsonl"
        config = ServeConfig(port=0, exec_workers=1, max_queue=1,
                             access_log=str(log_path))
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            gate = threading.Event()
            started = threading.Event()

            def gated(scenario, **kwargs):
                started.set()
                assert gate.wait(timeout=30)
                return run_scenario(scenario, **kwargs)

            monkeypatch.setattr(daemon_module, "run_scenario", gated)
            holder = [None]

            def hold():
                holder[0] = client.run_scenario(PLAIN, endpoint="sweep")

            thread = threading.Thread(target=hold)
            thread.start()
            assert started.wait(timeout=10)
            shed = client.run_scenario(TRACED, endpoint="sweep")
            assert shed.status == 503
            gate.set()
            thread.join(timeout=30)
        lines = [json.loads(line)
                 for line in log_path.read_text().splitlines()]
        shed_lines = [line for line in lines if line["status"] == 503]
        assert len(shed_lines) == 1
        assert shed_lines[0]["shed"] is True


class TestServedTraceDeterminism:
    def test_stitched_trace_same_across_exec_workers(self):
        bodies = []
        for exec_workers in (1, 4):
            config = ServeConfig(port=0, exec_workers=exec_workers)
            with serve_in_thread(config) as running:
                client = ServeClient(running.host, running.port)
                response = client.run_scenario(TRACED, endpoint="sweep")
                assert response.status == 200
                bodies.append(response.json())
        assert bodies[0]["trace"] == bodies[1]["trace"]
        analysis = TraceAnalysis(parse_trace(bodies[0]["trace"]))
        assert len(analysis.roots) == 1
        path_names = [node.name for node in analysis.critical_path()]
        assert path_names[0] == "serve.request"
        assert path_names[1] == "serve.execute"

    def test_served_bytes_match_the_service_layer(self, client):
        served = client.run_scenario(TRACED, endpoint="sweep")
        solo = run_scenario(TRACED).response_text().encode("utf-8")
        assert served.body == solo
