"""The fused multi-point planner inside :class:`SweepRunner`.

The acceptance bar for the fused path: **invisible in the output**.
``SweepResult.to_json()`` and ``stitched_trace_jsonl()`` must be
byte-identical whether cache-miss points run through the batched kernel
or one at a time on the oracle loop (forced by reporting every chain as
non-analytic); the provenance attributes -- and nothing else -- expose
which path ran.
"""

import json

import repro.runtime.sweep as sweep_module
from repro.runtime.sweep import (
    SweepCache,
    SweepPlan,
    SweepPoint,
    SweepRunner,
    partition_fusable,
    run_fused_group,
    run_point,
)

APP = "sec-gateway"
DEVICE = "device-a"


def small_plan(**overrides):
    defaults = dict(apps=(APP, "host-network"), devices=(DEVICE,),
                    packet_sizes=(64, 256, 1024), packets_per_point=150)
    defaults.update(overrides)
    return SweepPlan(**defaults)


def oracle_run(monkeypatch, plan, cache):
    """The whole plan one point at a time on the per-Transaction oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(sweep_module, "chain_supports_vector",
                      lambda chain: False)
        return SweepRunner(plan, cache=cache).run()


def result_bytes(result):
    return (json.dumps(result.to_json(), sort_keys=True),
            result.stitched_trace_jsonl(trace_id="t"))


class TestBatchedCacheOps:
    def test_lookup_many_matches_singular_semantics(self):
        cache = SweepCache()
        cache.store("k1", {"throughput_bps": 1.0, "mean_latency_ns": 2.0})
        cache.store("k2", {"throughput_bps": 3.0, "mean_latency_ns": 4.0})
        found = cache.lookup_many(["k1", "k2", "k1", "missing"])
        assert found[0]["throughput_bps"] == 1.0
        assert found[1]["throughput_bps"] == 3.0
        assert found[2] is found[0]
        assert found[3] is None
        assert cache.hits == 3 and cache.misses == 1

    def test_lookup_many_refreshes_lru(self):
        cache = SweepCache(max_entries=2)
        cache.store("old", {"throughput_bps": 1.0})
        cache.store("new", {"throughput_bps": 2.0})
        cache.lookup_many(["old"])            # refresh: "new" is now LRU
        cache.store("third", {"throughput_bps": 3.0})
        assert cache.evictions == 1
        assert cache.lookup("old") is not None
        assert cache.lookup("new") is None

    def test_refresh_all_probes_only_when_every_key_is_resident(self):
        cache = SweepCache(max_entries=2)
        cache.store("old", {"throughput_bps": 1.0})
        cache.store("new", {"throughput_bps": 2.0})
        assert not cache.refresh_all(["old", "missing"])
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.refresh_all(["old", "old"])   # as lookup_many would
        assert (cache.hits, cache.misses) == (2, 0)
        cache.store("third", {"throughput_bps": 3.0})
        assert cache.lookup("old") is not None     # refreshed: "new" went
        assert cache.lookup("new") is None

    def test_store_many_enforces_bound(self):
        cache = SweepCache(max_entries=2)
        cache.store_many((f"k{i}", {"throughput_bps": float(i)})
                         for i in range(5))
        assert len(cache) == 2
        assert cache.evictions == 3


class TestPartition:
    def points(self, **overrides):
        base = dict(app=APP, device=DEVICE, packet_size_bytes=64,
                    packet_count=100)
        base.update(overrides)
        return SweepPoint(**base)

    def test_groups_by_chain_and_count(self):
        points = [
            self.points(packet_size_bytes=64),
            self.points(packet_size_bytes=256),
            self.points(packet_size_bytes=64, packet_count=200),
            self.points(app="host-network"),
            self.points(packet_size_bytes=512),
        ]
        groups, per_point = partition_fusable(points, range(len(points)))
        assert per_point == []
        assert list(groups.values()) == [[0, 1, 4], [2], [3]]
        assert list(groups) == [
            ((APP, DEVICE, True), 100),
            ((APP, DEVICE, True), 200),
            (("host-network", DEVICE, True), 100),
        ]

    def test_traced_points_run_per_point(self):
        points = [self.points(), self.points(trace=True)]
        groups, per_point = partition_fusable(points, range(2))
        assert list(groups.values()) == [[0]]
        assert per_point == [1]

    def test_non_analytic_chain_runs_per_point(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "chain_supports_vector",
                            lambda chain: False)
        groups, per_point = partition_fusable([self.points()], [0])
        assert not groups and per_point == [0]

    def test_fused_group_matches_run_point(self):
        points = [self.points(packet_size_bytes=size)
                  for size in (64, 256, 1024)]
        fused = run_fused_group(points, [0, 1, 2])
        assert fused == [run_point(point) for point in points]


class TestDeterminism:
    def test_fused_and_per_point_byte_identical(self, monkeypatch):
        plan = small_plan()
        fused = SweepRunner(plan, cache=SweepCache()).run()
        oracle = oracle_run(monkeypatch, plan, SweepCache())
        assert fused.fused_points == len(fused)
        assert oracle.per_point_points == len(oracle)
        assert result_bytes(fused) == result_bytes(oracle)

    def test_traced_plan_byte_identical_and_unfused(self, monkeypatch):
        plan = small_plan(trace=True, packet_sizes=(64, 256),
                          packets_per_point=40)
        kernel = SweepRunner(plan, cache=SweepCache()).run()
        oracle = oracle_run(monkeypatch, plan, SweepCache())
        assert result_bytes(kernel) == result_bytes(oracle)
        assert kernel.stitched_trace_jsonl(trace_id="t")
        assert kernel.fused_points == 0       # traces force per-point
        assert kernel.per_point_points == len(kernel)

    def test_cache_entries_identical_across_modes(self, monkeypatch):
        plan = small_plan()
        fused_cache, oracle_cache = SweepCache(), SweepCache()
        SweepRunner(plan, cache=fused_cache).run()
        oracle_run(monkeypatch, plan, oracle_cache)
        assert fused_cache._entries == oracle_cache._entries

    def test_warm_cache_serves_fused_results(self):
        cache = SweepCache()
        plan = small_plan()
        cold = SweepRunner(plan, cache=cache).run()
        warm = SweepRunner(plan, cache=cache).run()
        assert warm.cache_hits == len(warm)
        assert warm.fused_points == 0 and warm.per_point_points == 0
        assert json.dumps(cold.to_json(), sort_keys=True).replace(
            '"cached": false', '"cached": true') == json.dumps(
                warm.to_json(), sort_keys=True)


class TestProvenance:
    def test_fused_run_stats(self):
        plan = small_plan()   # 2 apps x 1 device x 3 sizes, one count
        result = SweepRunner(plan, cache=SweepCache()).run()
        assert result.fused_points == 6
        assert result.fused_groups == 2       # one per (app, device) chain
        assert result.per_point_points == 0
        for name in ("fused_points", "fused_groups", "per_point_points"):
            assert name not in json.dumps(result.to_json())

    def test_intra_run_dedup_survives_fusing(self):
        # device-a and device-a listed twice: same content keys, the
        # second copy must be served by dedup, not executed again.
        plan = SweepPlan(apps=(APP,), devices=(DEVICE,),
                         packet_sizes=(64, 64, 256),
                         packets_per_point=40)
        result = SweepRunner(plan, cache=SweepCache()).run()
        assert len(result) == 3
        assert result.fused_points == 2       # 64B executed once
        points = result.to_json()["points"]
        assert points[0]["throughput_gbps"] == points[1]["throughput_gbps"]
        assert points[0]["mean_latency_ns"] == points[1]["mean_latency_ns"]
