"""Wall-clock phases: spans on a per-request sink, folded by ``flame``.

Phases measure the simulator *process* (wall-clock), never the modelled
hardware (sim-time).  They land as begin/end spans on the sink of the
current thread or task and are folded by
:meth:`repro.obs.analyze.TraceAnalysis.flame`; a fake clock makes the
arithmetic exact.
"""

import sys
import threading

from repro.obs.analyze import TraceAnalysis, parse_trace
from repro.obs.profiler import phase, recording
from repro.runtime.trace import TraceBus


class FakeClock:
    """A controllable picosecond clock."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += int(seconds * 1e12)


def _sink(clock=lambda: 0) -> TraceBus:
    return TraceBus(clock_ps=clock, enabled=True)


def _flame(sink: TraceBus):
    """``{name: (calls, total_s, self_s)}`` from the sink's records."""
    return {name: (calls, total / 1e12, self_ps / 1e12)
            for name, calls, total, self_ps
            in TraceAnalysis(sink.records).flame()}


def _shape(node):
    return (node.name, [_shape(child) for child in node.children])


class TestAccounting:
    def test_flat_phase(self):
        clock = FakeClock()
        sink = _sink(clock)
        with recording(sink):
            with phase("engine.run"):
                clock.advance(2.0)
        assert _flame(sink) == {"engine.run": (1, 2.0, 2.0)}

    def test_nested_child_time_subtracted_from_self(self):
        clock = FakeClock()
        sink = _sink(clock)
        with recording(sink):
            with phase("outer"):
                clock.advance(1.0)
                with phase("inner"):
                    clock.advance(3.0)
                clock.advance(1.0)
        assert _flame(sink) == {"outer": (1, 5.0, 2.0),
                                "inner": (1, 3.0, 3.0)}

    def test_self_times_sum_to_total(self):
        clock = FakeClock()
        sink = _sink(clock)
        with recording(sink):
            with phase("a"):
                clock.advance(1.0)
                with phase("b"):
                    clock.advance(2.0)
            with phase("c"):
                clock.advance(4.0)
        rows = _flame(sink).values()
        assert sum(self_s for _calls, _total, self_s in rows) == 7.0

    def test_recursion_counts_cumulative_once(self):
        clock = FakeClock()
        sink = _sink(clock)
        with recording(sink):
            with phase("recurse"):
                clock.advance(1.0)
                with phase("recurse"):
                    clock.advance(2.0)
        # Only the outermost activation adds to the total, while self
        # time still sums to the real wall-clock.
        assert _flame(sink) == {"recurse": (2, 3.0, 3.0)}

    def test_flame_ranked_by_self_time_then_name(self):
        clock = FakeClock()
        sink = _sink(clock)
        with recording(sink):
            for name, seconds in (("slow", 3.0), ("fast", 1.0),
                                  ("mid", 2.0), ("also", 1.0)):
                with phase(name):
                    clock.advance(seconds)
        analysis = TraceAnalysis(sink.records)
        assert [row[0] for row in analysis.flame()] == [
            "slow", "mid", "also", "fast"]
        assert [row[0] for row in analysis.flame(top=2)] == ["slow", "mid"]


class TestFlameRecursion:
    def test_nested_same_name_total_never_exceeds_wall_time(self):
        text = "\n".join([
            '{"type":"B","id":0,"name":"A","ts_ps":0}',
            '{"type":"B","id":1,"name":"B","ts_ps":10,"parent":0}',
            '{"type":"B","id":2,"name":"A","ts_ps":20,"parent":1}',
            '{"type":"E","id":2,"name":"A","ts_ps":60}',
            '{"type":"E","id":1,"name":"B","ts_ps":70}',
            '{"type":"E","id":0,"name":"A","ts_ps":100}',
            '{"type":"X","id":3,"name":"A","ts_ps":100,"dur_ps":5}',
        ])
        rows = {name: (calls, total, self_ps) for name, calls, total, self_ps
                in TraceAnalysis(parse_trace(text)).flame()}
        # The inner A (40 ps) sits inside the outer one; the sibling
        # root A (5 ps) is a separate activation and adds.
        assert rows["A"] == (3, 105, 40 + 40 + 5)
        assert rows["B"] == (1, 60, 20)


class TestSinks:
    def test_phase_is_noop_without_sink(self):
        with phase("anything") as handle:
            assert handle is None  # nothing recorded anywhere

    def test_recording_restores_the_previous_sink(self):
        outer, inner = _sink(), _sink()
        with recording(outer):
            with recording(inner):
                with phase("inside"):
                    pass
            with recording(None):
                with phase("muted"):
                    pass
            with phase("after"):
                pass
        with phase("outside"):
            pass
        assert [record["name"] for record in inner.records] == [
            "inside", "inside"]
        assert [record["name"] for record in outer.records] == [
            "after", "after"]

    def test_threads_record_into_their_own_sinks(self):
        tags = [f"t{index}" for index in range(8)]
        barrier = threading.Barrier(len(tags), timeout=10)
        sinks = {tag: _sink() for tag in tags}

        def work(tag):
            with recording(sinks[tag]):
                for _ in range(50):
                    with phase(f"{tag}.outer"):
                        barrier.wait()
                        with phase(f"{tag}.inner"):
                            barrier.wait()
                        barrier.wait()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(tag,))
                       for tag in tags]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for tag, sink in sinks.items():
            roots = TraceAnalysis(sink.records).roots
            assert [_shape(root) for root in roots] == [
                (f"{tag}.outer", [(f"{tag}.inner", [])])] * 50

    def test_instrumented_phases_show_up_end_to_end(self):
        from repro.runtime import SimContext
        from repro.runtime.fleet import FleetSpec, run_fleet
        from repro.runtime.sweep import SweepPlan, run_plan

        plan = SweepPlan(apps=("sec-gateway",), devices=("device-a",),
                         packet_sizes=(64,), packets_per_point=50)
        sink = _sink()
        with recording(sink):
            run_plan(plan, use_cache=False)               # fused planner
            run_plan(plan, use_cache=False, engine="des")  # per-point path
            run_fleet(FleetSpec(flow_count=5_000, device_count=16),
                      context=SimContext(name="profiled"))
        assert {"sweep.plan", "sweep.fused", "sweep.point", "sweep.merge",
                "vector.kernel", "fleet.policy"} <= set(_flame(sink))

    def test_phases_never_touch_sim_time_or_the_context_bus(self):
        from repro.runtime import SimContext
        from repro.runtime.fleet import FleetSpec, run_fleet

        spec = FleetSpec(flow_count=5_000, device_count=16)
        bare_context = SimContext(name="bare", trace=True)
        bare = run_fleet(spec, context=bare_context)
        sink = _sink()
        profiled_context = SimContext(name="bare", trace=True)
        with recording(sink):
            profiled = run_fleet(spec, context=profiled_context)
        assert "fleet.policy" in _flame(sink)
        assert [policy.p99_ns for policy in bare.policies] == [
            policy.p99_ns for policy in profiled.policies]
        assert (profiled_context.trace.export_jsonl()
                == bare_context.trace.export_jsonl())


class TestDaemonPhases:
    def test_trace_trees_match_across_exec_workers(self):
        from repro.scenario import Scenario, WorkloadSpec
        from repro.serve import ServeClient, ServeConfig, serve_in_thread

        scenarios = [
            Scenario(kind="sweep", apps=("sec-gateway",),
                     devices=("device-a",),
                     workload=WorkloadSpec(packet_sizes=(size,),
                                           packets_per_point=50))
            for size in (64, 512, 1500)
        ]

        def strip(node):
            attrs = {key: value for key, value in node.attrs.items()
                     if key != "trace_id"}
            return (node.name, sorted(attrs.items()),
                    [strip(child) for child in node.children])

        trees = []
        for exec_workers in (1, 4):
            config = ServeConfig(port=0, exec_workers=exec_workers)
            with serve_in_thread(config) as running:
                client = ServeClient(running.host, running.port)
                threads = [
                    threading.Thread(target=client.run_scenario,
                                     args=(scenario,),
                                     kwargs={"endpoint": "sweep"})
                    for scenario in scenarios]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                text = client._get("/trace").body.decode("utf-8")
            roots = [root for root in TraceAnalysis(parse_trace(text)).roots
                     if root.attrs.get("path") == "/v1/sweep"]
            trees.append(sorted(
                (strip(root) for root in roots),
                key=lambda tree: str(tree)))
        assert len(trees[0]) == len(scenarios)
        assert trees[0] == trees[1]
