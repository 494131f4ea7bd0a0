"""The multi-train kernel vs the per-Transaction oracle.

``simulate_trains`` / ``run_packet_sweep_vector_batch`` claim **bit
exactness** against the oracle loop -- same completion integers, same
result floats, same folded-back stage occupancy and statistics as the
sequential per-point loop would leave.  These tests pin all of it:
hand-picked chains for the edges, hypothesis over random chain groups,
mixed packet-count buckets, and warm carried-in ``_next_free_ps`` state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import (
    PipelineChain,
    PipelineStage,
    run_packet_sweep_reference,
)
from repro.sim.vector import run_packet_sweep_vector_batch, simulate_trains
from tests.test_vector_kernel import chains, oracle_completions, stage_state


@st.composite
def train_batches(draw, max_rows: int = 5, max_packets: int = 32):
    rows = draw(st.integers(1, max_rows))
    count = draw(st.integers(1, max_packets))
    grids = []
    for _ in range(rows):
        gaps = draw(st.lists(st.integers(0, 60_000),
                             min_size=count, max_size=count))
        grids.append(np.cumsum(np.asarray(gaps, dtype=np.int64)))
    sizes = draw(st.one_of(
        st.integers(1, 4_096),
        st.lists(st.integers(1, 4_096), min_size=rows, max_size=rows),
    ))
    return np.stack(grids), sizes


def oracle_rows(chain, arrivals, row_sizes):
    """Each row through the oracle from the same starting occupancy."""
    initial = [stage._next_free_ps for stage in chain.stages]
    rows = []
    for row, size in zip(arrivals, row_sizes):
        for stage, free in zip(chain.stages, initial):
            stage._next_free_ps = free
        rows.append(oracle_completions(chain, row, size))
    return rows


def simple_chain():
    return PipelineChain("batch", [
        PipelineStage("a", ClockDomain("c1", 322.265625), 64,
                      latency_cycles=3, initiation_interval=2,
                      per_transaction_overhead_cycles=1),
        PipelineStage("b", ClockDomain("c2", 250.0), 256, latency_cycles=7),
    ])


class TestSimulateTrains:
    @settings(max_examples=50, deadline=None)
    @given(chain=chains(), batch=train_batches())
    def test_rows_match_per_train_oracle(self, chain, batch):
        """Each row == the oracle from the same starting occupancy, and
        the fold-back == the sequential restore-and-replay loop."""
        arrivals, sizes = batch
        rows = arrivals.shape[0]
        row_sizes = ([sizes] * rows if isinstance(sizes, int) else list(sizes))
        chain.reset()
        expected_rows = oracle_rows(chain, arrivals, row_sizes)
        expected_state = stage_state(chain)

        chain.reset()
        vector_sizes = (sizes if isinstance(sizes, int)
                        else np.asarray(sizes, dtype=np.int64))
        timing = simulate_trains(chain, arrivals, vector_sizes)
        assert timing.completed_ps.tolist() == expected_rows
        assert stage_state(chain) == expected_state

    @settings(max_examples=25, deadline=None)
    @given(chain=chains(), batch=train_batches(max_rows=3, max_packets=16),
           warm=st.lists(st.integers(0, 40_000), min_size=3, max_size=3))
    def test_warm_carried_in_state(self, chain, batch, warm):
        """Rows starting from warm ``_next_free_ps`` fold exactly."""
        arrivals, sizes = batch
        rows = arrivals.shape[0]
        row_sizes = ([sizes] * rows if isinstance(sizes, int) else list(sizes))
        warm_train = np.cumsum(
            np.asarray(warm, dtype=np.int64))  # heats the chain up

        chain.reset()
        oracle_completions(chain, warm_train, 512)
        expected_rows = oracle_rows(chain, arrivals, row_sizes)
        expected_state = stage_state(chain)

        chain.reset()
        simulate_trains(chain, warm_train[None, :], 512)
        vector_sizes = (sizes if isinstance(sizes, int)
                        else np.asarray(sizes, dtype=np.int64))
        timing = simulate_trains(chain, arrivals, vector_sizes)
        assert timing.completed_ps.tolist() == expected_rows
        assert stage_state(chain) == expected_state

    def test_update_state_false_leaves_chain_untouched(self):
        chain = simple_chain()
        arrivals = np.asarray([[0, 1_000], [500, 2_500]], dtype=np.int64)
        before = stage_state(chain)
        timing = simulate_trains(chain, arrivals, 64, update_state=False)
        assert stage_state(chain) == before
        assert timing.rows == 2 and timing.packets == 2

    def test_shape_validation(self):
        chain = simple_chain()
        flat = np.asarray([0, 10], dtype=np.int64)
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, flat, 64)
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, np.empty((0, 4), dtype=np.int64), 64)
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, np.empty((2, 0), dtype=np.int64), 64)
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, np.zeros((2, 3), dtype=np.int64),
                            np.asarray([64], dtype=np.int64))


class TestSweepBatch:
    @settings(max_examples=40, deadline=None)
    @given(chain=chains(),
           sizes=st.lists(st.integers(1, 2_048), min_size=1, max_size=6),
           count=st.integers(1, 300))
    def test_batch_equals_sequential_per_point(self, chain, sizes, count):
        """Fused == the sequential oracle loop: floats and folded state."""
        expected = [run_packet_sweep_reference(chain, size, count)
                    for size in sizes]
        expected_state = stage_state(chain)

        batched = run_packet_sweep_vector_batch(chain, sizes, count)
        assert batched == expected          # bit-exact floats
        assert stage_state(chain) == expected_state

    @settings(max_examples=15, deadline=None)
    @given(chain=chains(max_stages=3),
           sizes=st.lists(st.integers(1, 2_048), min_size=1, max_size=4),
           counts=st.lists(st.integers(1, 120), min_size=2, max_size=3,
                           unique=True))
    def test_mixed_count_buckets_compose(self, chain, sizes, counts):
        """One batch call per packet-count bucket == per-point sequence."""
        expected = []
        for count in counts:
            for size in sizes:
                expected.append(run_packet_sweep_reference(chain, size, count))
        expected_state = stage_state(chain)
        batched = []
        for count in counts:
            batched.extend(run_packet_sweep_vector_batch(chain, sizes, count))
        assert batched == expected
        assert stage_state(chain) == expected_state

    def test_empty_sizes_is_noop(self):
        chain = simple_chain()
        assert run_packet_sweep_vector_batch(chain, [], 100) == []
        assert stage_state(chain) == [(0, 0, 0), (0, 0, 0)]

    def test_bad_count_and_load_shapes_rejected(self):
        chain = simple_chain()
        with pytest.raises(ConfigurationError):
            run_packet_sweep_vector_batch(chain, [64], 0)
        with pytest.raises(ConfigurationError):
            run_packet_sweep_vector_batch(chain, [64, 128], 10,
                                          offered_loads_bps=[1e9])

    def test_explicit_offered_loads(self):
        chain = simple_chain()
        loads = [chain.bandwidth_bps(64) * 0.5, chain.bandwidth_bps(256) * 0.9]
        expected = [
            run_packet_sweep_reference(chain, 64, 200, offered_load_bps=loads[0]),
            run_packet_sweep_reference(chain, 256, 200,
                                       offered_load_bps=loads[1]),
        ]
        assert run_packet_sweep_vector_batch(
            chain, [64, 256], 200, offered_loads_bps=loads) == expected

    def test_single_packet_trains(self):
        """packet_count=1 exercises the degenerate duration window."""
        chain = simple_chain()
        expected = [run_packet_sweep_reference(chain, size, 1)
                    for size in (64, 1_024)]
        assert run_packet_sweep_vector_batch(chain, [64, 1_024], 1) == expected
