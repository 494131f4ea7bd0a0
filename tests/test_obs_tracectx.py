"""Trace-context propagation and the plan-order span stitcher.

The two contracts pinned here: (1) stitched output is a pure function
of the per-point span records, which the stitcher never mutates, so a
rerun stitches byte-identical bytes -- and (2) response-embedded trace
ids derive from the scenario, never the request, so coalesced followers
stay byte-compatible with the leader.
"""

import json

from repro.obs.analyze import TraceAnalysis, parse_trace
from repro.obs.tracectx import (
    TRACE_HEADER,
    TraceContext,
    sanitise_trace_id,
    stitch_spans,
)
from repro.runtime.sweep import SweepCache, SweepPlan, run_plan
from repro.runtime.trace import TraceBus, dumps_record
from repro.scenario import Scenario, WorkloadSpec
from repro.service import run_scenario


class TestSanitise:
    def test_safe_ids_pass_through(self):
        assert sanitise_trace_id("req-00000001") == "req-00000001"
        assert sanitise_trace_id("a.b:c_d-e") == "a.b:c_d-e"

    def test_hostile_bytes_are_replaced(self):
        assert sanitise_trace_id("x y\nz") == "x-y-z"
        assert sanitise_trace_id('"; rm -rf /') == "---rm--rf--"

    def test_length_clamped_and_never_empty(self):
        assert len(sanitise_trace_id("a" * 200)) == 64
        assert sanitise_trace_id("") == "trace"
        assert sanitise_trace_id("   ") == "trace"


class TestTraceContext:
    def test_from_headers_prefers_the_header(self):
        context = TraceContext.from_headers({TRACE_HEADER: "caller-7"},
                                            fallback="req-1")
        assert context.trace_id == "caller-7"
        assert context.parent_span is None

    def test_from_headers_falls_back(self):
        context = TraceContext.from_headers({}, fallback="req-42")
        assert context.trace_id == "req-42"

    def test_header_value_is_sanitised(self):
        context = TraceContext.from_headers(
            {TRACE_HEADER: "evil id\r\nSet-Cookie: x"}, fallback="req-1")
        assert "\n" not in context.trace_id
        assert " " not in context.trace_id

    def test_for_scenario_uses_scenario_prefix(self):
        scenario_id = "deadbeefcafef00d" + "0" * 48
        context = TraceContext.for_scenario(scenario_id)
        assert context.trace_id == "deadbeefcafef00d"

    def test_child_keeps_the_id(self):
        child = TraceContext("t1").child(7)
        assert child.trace_id == "t1"
        assert child.parent_span == 7


def _fragment(names, base_ts=0):
    """One point's span records: ids from 0, first span rootless."""
    bus = TraceBus(clock_ps=lambda: base_ts, enabled=True)
    root = bus.begin(names[0])
    for name in names[1:]:
        bus.complete(name, base_ts, base_ts + 10, parent=root.span_id)
    bus.end(root)
    return tuple(bus.records)


class TestStitch:
    def test_two_fragments_become_one_connected_tree(self):
        stitched = stitch_spans([_fragment(["p0", "p0.work"]),
                                 _fragment(["p1", "p1.work"])],
                                trace_id="t-1")
        analysis = TraceAnalysis(parse_trace(stitched))
        assert len(analysis.roots) == 1
        root = analysis.roots[0]
        assert root.name == "serve.request"
        assert root.attrs["trace_id"] == "t-1"
        assert [child.name for child in root.children] == ["serve.execute"]
        execute = root.children[0]
        assert [child.name for child in execute.children] == ["p0", "p1"]

    def test_ids_are_renumbered_without_collision(self):
        stitched = stitch_spans([_fragment(["a"]), _fragment(["b"])],
                                trace_id="t")
        ids = [json.loads(line)["id"] for line in stitched.splitlines()
               if json.loads(line)["type"] != "E"]
        assert len(ids) == len(set(ids))
        assert min(ids) == 0

    def test_empty_segments_are_skipped(self):
        with_gap = stitch_spans([(), _fragment(["a"]), ()], trace_id="t")
        without = stitch_spans([_fragment(["a"])], trace_id="t")
        assert with_gap == without

    def test_shared_records_are_copied_not_mutated(self):
        # Deduplicated points hand the stitcher one record tuple twice.
        fragment = _fragment(["a", "a.work"])
        before = [dumps_record(record) for record in fragment]
        stitched = stitch_spans([fragment, fragment], trace_id="t")
        assert [dumps_record(record) for record in fragment] == before
        records = parse_trace(stitched)
        assert [r["id"] for r in records if r["name"] == "a"
                and r["type"] == "B"] == [2, 4]
        assert len(TraceAnalysis(records).roots) == 1

    def test_live_records_stitch_like_their_parsed_export(self):
        # Encoding live records once gives the bytes that parsing the
        # exported JSONL back and re-encoding it would.
        from repro.runtime.sweep import SweepPoint, run_point

        spans = run_point(SweepPoint("sec-gateway", "device-a", 64, 20,
                                     trace=True))["spans"]
        parsed = [json.loads(dumps_record(record)) for record in spans]
        assert (stitch_spans([spans, spans], trace_id="t")
                == stitch_spans([parsed, parsed], trace_id="t"))

    def test_no_fragments_still_yields_a_closed_root(self):
        analysis = TraceAnalysis(parse_trace(stitch_spans([], trace_id="t")))
        assert len(analysis.roots) == 1
        assert all(node.closed for node in analysis.nodes.values())

    def test_root_closes_at_latest_fragment_timestamp(self):
        stitched = stitch_spans([_fragment(["a"], base_ts=500),
                                 _fragment(["b"], base_ts=100)],
                                trace_id="t")
        records = parse_trace(stitched)
        closes = [record for record in records if record["type"] == "E"
                  and record["id"] in (0, 1)]
        latest = max(record["ts_ps"] + record.get("dur_ps", 0)
                     for record in records if record["type"] != "E")
        assert all(record["ts_ps"] == latest for record in closes)

    def test_attrs_ride_on_the_synthetic_spans(self):
        stitched = stitch_spans([_fragment(["a"])], trace_id="t",
                                root_attrs={"points": 1},
                                exec_attrs={"kind": "sweep"})
        records = parse_trace(stitched)
        assert records[0]["attrs"] == {"trace_id": "t", "points": 1}
        assert records[1]["attrs"] == {"kind": "sweep"}


class TestSweepStitching:
    SIZES = (64, 128, 256)

    def _sweep(self, cache=None):
        plan = SweepPlan(apps=("sec-gateway",), devices=("device-a",),
                         packet_sizes=self.SIZES, packets_per_point=40,
                         trace=True)
        return run_plan(plan, cache=cache, use_cache=cache is not None)

    def test_byte_identical_across_cache_temperature(self):
        cache = SweepCache()
        cold = self._sweep(cache)
        warm = self._sweep(cache)
        assert warm.cache_hits == 0 and len(cache) == 0
        assert (cold.stitched_trace_jsonl(trace_id="t")
                == warm.stitched_trace_jsonl(trace_id="t"))
        assert cold.stitched_trace_jsonl(trace_id="t").endswith("\n")

    def test_stitched_tree_is_connected_in_plan_order(self):
        stitched = self._sweep().stitched_trace_jsonl(
            trace_id="t", scenario_id="cafe")
        analysis = TraceAnalysis(parse_trace(stitched))
        assert len(analysis.roots) == 1
        assert analysis.roots[0].attrs["scenario_id"] == "cafe"
        execute = analysis.roots[0].children[0]
        point_names = [child.name for child in execute.children
                       if child.kind != "instant"]
        assert point_names == [
            f"sweep.sec-gateway.harmonia.{size}B" for size in self.SIZES]

    def test_untraced_sweep_stitches_to_empty(self):
        plan = SweepPlan(apps=("sec-gateway",), devices=("device-a",),
                         packet_sizes=(64,), packets_per_point=40)
        result = run_plan(plan, use_cache=False)
        assert result.stitched_trace_jsonl(trace_id="t") == ""


class TestFleetRooting:
    def test_trace_context_roots_the_fleet_run(self):
        from repro.runtime import SimContext
        from repro.scenario import TenancySpec
        from repro.service.runs import run_fleet_service

        scenario = Scenario(kind="fleet", tenancy=TenancySpec(
            flow_count=2_000, device_count=16, tenant_count=4))
        context = SimContext(name="fleet-traced", trace=True)
        run_fleet_service(scenario, context=context,
                          trace_context=TraceContext("req-77"))
        analysis = TraceAnalysis(parse_trace(context.trace.export_jsonl()))
        roots = [node for node in analysis.roots if node.kind != "instant"]
        assert [node.name for node in roots] == ["serve.execute"]
        assert roots[0].attrs["trace_id"] == "req-77"
        assert roots[0].children, "simulation spans hang off the root"


class TestServiceEmbedding:
    def test_traced_response_embeds_scenario_derived_trace(self):
        scenario = Scenario(
            kind="sweep", apps=("sec-gateway",), devices=("device-a",),
            workload=WorkloadSpec(packet_sizes=(64,), packets_per_point=40,
                                  trace=True))
        body = json.loads(run_scenario(scenario).response_text())
        assert "trace" in body
        records = parse_trace(body["trace"])
        expected = TraceContext.for_scenario(scenario.scenario_id()).trace_id
        assert records[0]["attrs"]["trace_id"] == expected

    def test_untraced_response_has_no_trace_key(self):
        scenario = Scenario(
            kind="sweep", apps=("sec-gateway",), devices=("device-a",),
            workload=WorkloadSpec(packet_sizes=(64,), packets_per_point=40))
        body = json.loads(run_scenario(scenario).response_text())
        assert set(body) == {"kind", "scenario_id", "result", "slo",
                             "exit_code"}
