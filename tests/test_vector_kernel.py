"""The closed-form vector kernel vs the per-Transaction oracle loop.

The kernel's whole contract is *exact integer equality* with the
per-Transaction oracle (:meth:`PipelineChain.process`) -- these tests
pin it with hypothesis over random stage configurations and train
shapes, check the physical sanity property that adding pipeline stages
never increases throughput, pin that stages overriding ``process``
run on the oracle, override included, and pin that the kernel's reused
workspace never leaks between calls or threads.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import all_applications, application_by_name
from repro.errors import ConfigurationError, HarmoniaError
from repro.platform.catalog import all_devices, device_by_name
from repro.runtime import SimContext
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import (
    PipelineChain,
    PipelineStage,
    Transaction,
    _run_packet_sweep,
    run_packet_sweep,
    run_packet_sweep_reference,
)
from repro.sim import vector
from repro.sim.vector import (
    _clock_runs,
    chain_supports_vector,
    run_packet_sweep_vector_batch,
    simulate_trains,
)

#: Realistic clock frequencies (MHz) drawn from the catalog's range,
#: including the non-integer-period 322.265625 MHz Ethernet clock.
FREQS = (100.0, 250.0, 322.265625, 500.0, 1_562.5)
WIDTHS = (8, 64, 256, 512)


def stage_state(chain):
    """The observable per-stage state the kernel must fold back."""
    return [(stage._next_free_ps, stage.transactions_processed,
             stage.busy_ps) for stage in chain.stages]


def oracle_completions(chain, arrivals, size):
    """Per-packet completions of one train through the oracle loop."""
    return [chain.process(Transaction(size_bytes=size,
                                      created_ps=int(arrival))).completed_ps
            for arrival in arrivals]


class OddStage(PipelineStage):
    """A non-analytic stage: four dead cycles of occupancy per transaction."""

    def process(self, arrival_ps, size_bytes):
        timing = super().process(arrival_ps, size_bytes)
        self._next_free_ps += 4 * self.clock.period_ps
        self.busy_ps += 4 * self.clock.period_ps
        return timing


@st.composite
def chains(draw, max_stages: int = 4) -> PipelineChain:
    """Random chains whose clocks come from a small shared pool.

    Catalog chains put neighbouring stages on one clock (CMAC ingress
    and its wrapper, a CDC and its role), which the kernel collapses
    into one running maximum; a pool of one to three clocks makes such
    same-period runs common here too.
    """
    count = draw(st.integers(1, max_stages))
    pool = draw(st.lists(st.sampled_from(FREQS), min_size=1, max_size=3,
                         unique=True))
    stages = [
        PipelineStage(
            f"s{index}",
            ClockDomain(f"c{index}", draw(st.sampled_from(pool))),
            draw(st.sampled_from(WIDTHS)),
            latency_cycles=draw(st.integers(0, 24)),
            initiation_interval=draw(st.integers(1, 4)),
            per_transaction_overhead_cycles=draw(st.integers(0, 8)),
        )
        for index in range(count)
    ]
    return PipelineChain("prop", stages)


@st.composite
def trains(draw, max_packets: int = 40):
    count = draw(st.integers(1, max_packets))
    gaps = draw(st.lists(st.integers(0, 60_000),
                         min_size=count, max_size=count))
    arrivals = np.cumsum(np.asarray(gaps, dtype=np.int64))
    return arrivals, draw(st.integers(1, 4_096))


class TestTrainExactness:
    @settings(max_examples=60, deadline=None)
    @given(chain=chains(), train=trains())
    def test_vector_matches_scalar_packet_for_packet(self, chain, train):
        arrivals, size = train
        chain.reset()
        expected = oracle_completions(chain, arrivals, size)
        expected_state = stage_state(chain)
        chain.reset()
        timing = simulate_trains(chain, arrivals[None, :], size)
        assert timing.completed_ps[0].tolist() == expected
        assert stage_state(chain) == expected_state

    @settings(max_examples=40, deadline=None)
    @given(chain=chains(), train=trains(max_packets=24),
           split=st.integers(1, 23))
    def test_split_train_equals_whole_train(self, chain, train, split):
        """Carried-in stage occupancy between trains is folded exactly."""
        arrivals, size = train
        if split >= len(arrivals):
            split = len(arrivals) - 1
        if split < 1:
            return
        chain.reset()
        whole = simulate_trains(chain, arrivals[None, :], size)
        chain.reset()
        head = simulate_trains(chain, arrivals[None, :split], size)
        tail = simulate_trains(chain, arrivals[None, split:], size)
        assert (head.completed_ps[0].tolist() + tail.completed_ps[0].tolist()
                == whole.completed_ps[0].tolist())

    @settings(max_examples=40, deadline=None)
    @given(chain=chains(), size=st.integers(64, 1_500),
           count=st.integers(2, 400))
    def test_sweep_floats_match_reference(self, chain, size, count):
        expected = run_packet_sweep_reference(
            chain, packet_size_bytes=size, packet_count=count)
        [actual] = run_packet_sweep_vector_batch(chain, [size], count)
        assert actual == expected


def cmac_chain():
    """A catalog-shaped chain: two same-clock runs between lone stages.

    Link, then CMAC ingress + wrapper + an extra function on the
    322 MHz CMAC clock, then CDC + role on a 350 MHz role clock, then
    CMAC egress -- seven stages, four clock runs.
    """
    cmac = ClockDomain("cmac", 322.265625)
    role = ClockDomain("role", 350.0)
    return PipelineChain("cmac", [
        PipelineStage("link", ClockDomain("link", 1_562.5), 64,
                      latency_cycles=8, per_transaction_overhead_cycles=3),
        PipelineStage("ingress", cmac, 512, latency_cycles=14),
        PipelineStage("wrapper", cmac, 512, latency_cycles=3,
                      initiation_interval=2),
        PipelineStage("exfn", cmac, 256, latency_cycles=2,
                      per_transaction_overhead_cycles=1),
        PipelineStage("cdc", role, 512, latency_cycles=3),
        PipelineStage("role", role, 64, latency_cycles=32),
        PipelineStage("egress", cmac, 512, latency_cycles=14),
    ])


def assert_matches_oracle(arrivals, size, prepare=lambda chain: None):
    """One train through a fresh ``cmac_chain`` both ways, state included."""
    oracle_chain, vector_chain = cmac_chain(), cmac_chain()
    prepare(oracle_chain)
    prepare(vector_chain)
    expected = oracle_completions(oracle_chain, arrivals, size)
    timing = simulate_trains(vector_chain, np.asarray([arrivals]), size)
    assert timing.completed_ps[0].tolist() == expected
    assert stage_state(vector_chain) == stage_state(oracle_chain)


class TestSameClockRuns:
    """Deterministic pins for the run collapse and the identity skip."""

    def test_catalog_shape_collapses_to_four_runs(self):
        assert _clock_runs(cmac_chain().stages) == [(0, 1), (1, 4), (4, 6),
                                                    (6, 7)]

    @pytest.mark.parametrize("size", [64, 700, 1500])
    def test_saturated_train_needs_the_running_max(self, size):
        assert_matches_oracle([0] * 64, size)

    @pytest.mark.parametrize("size", [64, 700, 1500])
    def test_spaced_train_takes_the_skip(self, size):
        assert_matches_oracle([index * 1_000_000 for index in range(64)], size)

    def test_mixed_bursts_and_gaps(self):
        arrivals = [0, 0, 0, 5_000, 5_000, 900_000, 900_001, 2_000_000]
        assert_matches_oracle(arrivals, 1_024)

    def test_carried_in_occupancy_splits_a_run(self):
        def warm_wrapper(chain):
            chain.stages[2]._next_free_ps = 1_234_567

        chain = cmac_chain()
        warm_wrapper(chain)
        assert _clock_runs(chain.stages) == [(0, 1), (1, 2), (2, 4), (4, 6),
                                             (6, 7)]
        assert_matches_oracle([0] * 40, 512, warm_wrapper)
        assert_matches_oracle([index * 300_000 for index in range(40)], 512,
                              warm_wrapper)

    def test_carried_in_occupancy_on_a_spaced_train(self):
        """A busy stage squeezes the first gap of an otherwise spaced train.

        The CDC is still busy when the first packet reaches it, so its
        first issue edge moves to within 100 ns of the second packet's;
        the role's running max is needed although every later gap is
        1 us wide.
        """
        def busy_cdc(chain):
            chain.stages[4]._next_free_ps = 964_000

        assert_matches_oracle([index * 1_000_000 for index in range(32)],
                              1_500, busy_cdc)

    @pytest.mark.parametrize("split", [1, 17, 63])
    def test_split_train_matches_the_oracle(self, split):
        arrivals = [index * 9_000 if index % 7 else index * 8_000
                    for index in range(64)]
        chain = cmac_chain()
        expected = oracle_completions(chain, arrivals, 900)
        expected_state = stage_state(chain)
        chain = cmac_chain()
        head = simulate_trains(chain, np.asarray([arrivals[:split]]), 900)
        tail = simulate_trains(chain, np.asarray([arrivals[split:]]), 900)
        assert (head.completed_ps[0].tolist() + tail.completed_ps[0].tolist()
                == expected)
        assert stage_state(chain) == expected_state


def analytic_catalog_pairs():
    """Every (app, device) whose tailored datapath runs on the kernel."""
    pairs = []
    for app in all_applications():
        for device in all_devices():
            try:
                chain = app.datapath(app.tailored_shell(device), True)
            except HarmoniaError:
                continue
            if chain_supports_vector(chain):
                pairs.append((app.name, device.name))
    return pairs


class TestCatalogGrid:
    """The fused kernel equals the oracle on every catalog datapath."""

    SIZES = (64, 65, 1_500, 4_573, 9_000)
    PACKETS = 300

    @pytest.mark.parametrize("app_name,device_name", analytic_catalog_pairs())
    @pytest.mark.parametrize("with_harmonia", [True, False])
    def test_fused_group_matches_oracle(self, app_name, device_name,
                                        with_harmonia):
        app = application_by_name(app_name)
        shell = app.tailored_shell(device_by_name(device_name))
        oracle_chain = app.datapath(shell, with_harmonia)
        expected = [run_packet_sweep_reference(oracle_chain, size,
                                               self.PACKETS)
                    for size in self.SIZES]
        vector_chain = app.datapath(shell, with_harmonia)
        assert run_packet_sweep_vector_batch(
            vector_chain, self.SIZES, self.PACKETS) == expected
        assert stage_state(vector_chain) == stage_state(oracle_chain)


class TestThroughputMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(chain=chains(max_stages=3), size=st.integers(64, 1_500),
           freq=st.sampled_from(FREQS), width=st.sampled_from(WIDTHS),
           latency=st.integers(0, 24))
    def test_extra_pipelined_stage_never_raises_throughput(
            self, chain, size, freq, width, latency):
        """An extra stage never helps, up to one clock edge of rounding.

        Throughput is measured over the ``last - first`` completion
        window.  The extra stage re-aligns both endpoints to its own
        clock edges, which can shrink the window by at most one period
        (and its tail can legally *compress* absolute completion times
        -- cut-through forwards the first beat, so a wider final stage
        drains faster).  Beyond that one-edge rounding slack, throughput
        must never increase.
        """
        offered = chain.bandwidth_bps(size) * 0.98
        [(base, _)] = run_packet_sweep_vector_batch(
            chain, [size], 200, offered_loads_bps=[offered])
        extra = PipelineStage(
            "extra", ClockDomain("extra", freq), width,
            latency_cycles=latency, initiation_interval=1)
        extended = PipelineChain("extended", list(chain.stages) + [extra])
        [(longer, _)] = run_packet_sweep_vector_batch(
            extended, [size], 200, offered_loads_bps=[offered])

        gap_ps = size * 8 / offered * 1e12
        arrivals = np.rint(
            np.arange(200, dtype=np.float64) * gap_ps).astype(np.int64)
        chain.reset()
        base_train = simulate_trains(chain, arrivals[None, :], size)
        extended.reset()
        ext_train = simulate_trains(extended, arrivals[None, :], size)
        base_window = int(base_train.completed_ps[0, -1]
                          - base_train.completed_ps[0, 0])
        ext_window = int(ext_train.completed_ps[0, -1]
                         - ext_train.completed_ps[0, 0])
        period = extra.clock.period_ps
        assert ext_window >= base_window - period
        if base_window > period:
            assert longer * (base_window - period) <= base * base_window * (
                1.0 + 1e-12)


class TestPathSelection:
    def _chain(self):
        return PipelineChain("analytic", [
            PipelineStage("s", ClockDomain("c", 250.0), 64),
        ])

    def test_only_exact_base_types_are_analytic(self):
        assert chain_supports_vector(self._chain())
        assert not chain_supports_vector(PipelineChain("odd", [
            OddStage("s", ClockDomain("c", 250.0), 64),
        ]))

    def test_sweep_matches_the_oracle(self):
        chain = self._chain()
        oracle = _run_packet_sweep(chain, 256, 500, use_vector=False)
        assert run_packet_sweep(chain, 256, 500) == oracle
        assert run_packet_sweep_reference(chain, 256, 500) == oracle

    @pytest.mark.parametrize("use_vector", [True, False],
                             ids=["kernel", "oracle"])
    def test_quiet_context_matches_traced_and_plain(self, use_vector):
        """A disabled trace bus skips the traced head, invisibly."""
        chain = cmac_chain()
        plain = _run_packet_sweep(chain, 700, 300, use_vector=use_vector)
        stats = []
        for trace in (False, True):
            context = SimContext(name="quiet", trace=trace)
            assert _run_packet_sweep(chain, 700, 300, context=context,
                                     use_vector=use_vector) == plain
            histogram = context.metrics.histogram("sweep.cmac.700B.latency_ps")
            stats.append((histogram.count, histogram.mean_ps,
                          histogram.min_ps, histogram.max_ps,
                          histogram.percentile_ps(0.99)))
            assert bool(len(context.trace)) is trace
        assert stats[0] == stats[1]

    def test_overridden_process_runs_on_the_oracle(self):
        """A stage that overrides ``process`` is honoured, not skipped."""
        def chain():
            return PipelineChain("odd", [
                PipelineStage("a", ClockDomain("c1", 322.265625), 64),
                OddStage("b", ClockDomain("c2", 250.0), 64),
            ])

        reference = run_packet_sweep_reference(chain(), 256, 500)
        assert run_packet_sweep(chain(), 256, 500) == reference
        analytic = PipelineChain("plain", [
            PipelineStage("a", ClockDomain("c1", 322.265625), 64),
            PipelineStage("b", ClockDomain("c2", 250.0), 64),
        ])
        assert run_packet_sweep_reference(analytic, 256, 500) != reference


class TestTrainValidation:
    def _chain(self):
        return PipelineChain("v", [
            PipelineStage("s", ClockDomain("c", 250.0), 64),
        ])

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_trains(self._chain(), np.empty((1, 0), dtype=np.int64),
                            64)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_trains(self._chain(),
                            np.asarray([[0, 10]], dtype=np.int64),
                            np.asarray([64, 128], dtype=np.int64))

    def test_timing_accessors(self):
        chain = self._chain()
        arrivals = np.asarray([[0, 1_000, 2_000]], dtype=np.int64)
        timing = simulate_trains(chain, arrivals, 64)
        assert len(timing) == timing.rows == 1
        assert timing.packets == 3
        assert (timing.latencies_ps
                == timing.completed_ps - timing.arrivals_ps).all()


def spaced_arrivals(count, gap_ps):
    return (np.arange(count, dtype=np.int64) * gap_ps)[None, :]


class TestWorkspace:
    """The kernel's kept buffers: reused, bounded, and never shared."""

    @pytest.fixture(autouse=True)
    def fresh_workspace(self, monkeypatch):
        monkeypatch.setattr(vector, "_IDLE", [])

    def kept_buffers(self):
        assert len(vector._IDLE) <= 1
        if not vector._IDLE:
            return []
        return [buffer for buffer in vector._IDLE[0].buffers
                if buffer is not None]

    def test_returned_timing_survives_later_calls(self):
        timing = simulate_trains(cmac_chain(), spaced_arrivals(20_000, 3_000),
                                 512)
        completed = timing.completed_ps.copy()
        latencies = timing.latencies_ps.copy()
        assert self.kept_buffers()
        for buffer in self.kept_buffers():
            assert not np.shares_memory(timing.completed_ps, buffer)
        simulate_trains(cmac_chain(), spaced_arrivals(60_000, 2_000), 1_500)
        simulate_trains(cmac_chain(), spaced_arrivals(17_000, 2_500), 64)
        assert (timing.completed_ps == completed).all()
        assert (timing.latencies_ps == latencies).all()

    def test_grown_workspace_reused_by_a_smaller_group(self):
        run_packet_sweep_vector_batch(cmac_chain(), (64, 1_500, 9_000), 40_000)
        grown = self.kept_buffers()
        assert len(grown) == 3
        sizes, count = (65, 4_573), 9_000
        expected = [run_packet_sweep_reference(cmac_chain(), size, count)
                    for size in sizes]
        assert run_packet_sweep_vector_batch(cmac_chain(), sizes,
                                             count) == expected
        assert all(kept is old for kept, old in zip(self.kept_buffers(),
                                                    grown))

    def test_threads_never_share_a_buffer(self):
        shapes = [((64, 1_500), 9_000), ((576, 4_573, 9_000), 7_000)]
        expected = [[run_packet_sweep_reference(cmac_chain(), size, count)
                     for size in sizes] for sizes, count in shapes]
        failures = []
        start = threading.Barrier(4)

        def worker(shape):
            sizes, count = shapes[shape]
            chain = cmac_chain()
            start.wait(timeout=30)
            for _ in range(50):
                rows = run_packet_sweep_vector_batch(chain, sizes, count)
                if rows != expected[shape]:
                    failures.append(shape)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(index % 2,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(vector._IDLE) == 1

    def test_a_call_above_the_bound_keeps_nothing_above_it(self):
        packets = vector.WORKSPACE_MAX_ELEMENTS // 2 + 1
        # Rows replay independently, so one-row calls (within the bound)
        # give the rows of the two-row call (above it).
        expected = [row for size in (64, 9_000)
                    for row in run_packet_sweep_vector_batch(
                        cmac_chain(), [size], packets)]
        assert run_packet_sweep_vector_batch(cmac_chain(), (64, 9_000),
                                             packets) == expected
        assert all(buffer.size <= vector.WORKSPACE_MAX_ELEMENTS
                   for buffer in self.kept_buffers())

    def test_small_shapes_reuse_the_workspace_exactly(self):
        run_packet_sweep_vector_batch(cmac_chain(), (64, 1_500), 20_000)
        kept = self.kept_buffers()
        for sizes, count in (((64,), 1), ((64, 1_500), 2),
                             ([64 * (row + 1) for row in range(8)], 300)):
            expected = [run_packet_sweep_reference(cmac_chain(), size, count)
                        for size in sizes]
            assert run_packet_sweep_vector_batch(cmac_chain(), sizes,
                                                 count) == expected
        assert all(now is old for now, old in zip(self.kept_buffers(), kept))
