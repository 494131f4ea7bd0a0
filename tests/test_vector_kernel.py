"""The closed-form vector kernel vs the per-Transaction oracle loop.

The kernel's whole contract is *exact integer equality* with the
per-Transaction oracle (:meth:`PipelineChain.process`) -- these tests
pin it with hypothesis over random stage configurations and train
shapes, check the physical sanity property that adding pipeline stages
never increases throughput, and pin that stages overriding ``process``
run on the oracle, override included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import (
    PipelineChain,
    PipelineStage,
    Transaction,
    run_packet_sweep,
    run_packet_sweep_reference,
)
from repro.sim.vector import (
    ENGINES,
    chain_supports_vector,
    resolve_engine,
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
    count = draw(st.integers(1, max_stages))
    stages = [
        PipelineStage(
            f"s{index}",
            ClockDomain(f"c{index}", draw(st.sampled_from(FREQS))),
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


class TestEngineSelection:
    def _chain(self):
        return PipelineChain("engine", [
            PipelineStage("s", ClockDomain("c", 250.0), 64),
        ])

    def test_known_engines(self):
        assert ENGINES == ("auto", "vector", "des")

    def test_auto_picks_vector_for_analytic_chain(self):
        chain = self._chain()
        assert chain_supports_vector(chain)
        assert resolve_engine(chain, "auto") is True
        assert resolve_engine(chain, "vector") is True
        assert resolve_engine(chain, "des") is False

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine(self._chain(), "warp")

    def test_subclassed_stage_downgrades_auto_and_blocks_vector(self):
        chain = PipelineChain("odd", [
            OddStage("s", ClockDomain("c", 250.0), 64),
        ])
        assert not chain_supports_vector(chain)
        assert resolve_engine(chain, "auto") is False
        with pytest.raises(ConfigurationError):
            resolve_engine(chain, "vector")

    def test_sweep_identical_across_engines(self):
        chain = self._chain()
        des = run_packet_sweep(chain, 256, 500, engine="des")
        vec = run_packet_sweep(chain, 256, 500, engine="vector")
        auto = run_packet_sweep(chain, 256, 500, engine="auto")
        assert des == vec == auto

    def test_overridden_process_runs_on_the_oracle(self):
        """A stage that overrides ``process`` is honoured, not skipped."""
        def chain():
            return PipelineChain("odd", [
                PipelineStage("a", ClockDomain("c1", 322.265625), 64),
                OddStage("b", ClockDomain("c2", 250.0), 64),
            ])

        reference = run_packet_sweep_reference(chain(), 256, 500)
        assert run_packet_sweep(chain(), 256, 500, engine="auto") == reference
        assert run_packet_sweep(chain(), 256, 500, engine="des") == reference
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
