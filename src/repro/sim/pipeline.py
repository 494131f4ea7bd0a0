"""Fully pipelined stage and chain timing models.

A :class:`PipelineStage` models a hardware block that

* accepts one data beat of ``data_width_bits`` per ``initiation_interval``
  clock cycles (``initiation_interval == 1`` means fully pipelined), and
* delays each beat by a fixed ``latency_cycles`` from input to output.

This is exactly the contract the paper's interface wrapper makes: "fully
pipelined sequential translation logic ... operates without generating
bubbles in the processing and consumes a few fixed clock cycles".  In
this model an extra fully pipelined stage therefore *never* reduces
throughput and adds only a constant latency -- the mechanism behind
Figures 10 and 17 is reproduced structurally, not by fiat.

Transactions flow through a :class:`PipelineChain` in cut-through fashion:
a downstream stage starts working as soon as the first beat of a
transaction emerges from the upstream stage.
"""

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.clock import ClockDomain


class _TransactionIdCounter:
    """Resettable allocator behind :attr:`Transaction.txn_id`.

    A module-global ``itertools.count()`` would make the ids a run
    observed depend on every Transaction any earlier test or sweep in
    the process had created.  A resettable counter keeps allocation O(1)
    while letting each run (the sweep runner resets it per point) hand
    out the same ids every time.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def reset(self, start: int = 0) -> None:
        self._next = start


_TXN_IDS = _TransactionIdCounter()


def next_transaction_id() -> int:
    """Allocate the next transaction id (monotonic within a run)."""
    return _TXN_IDS.allocate()


def reset_transaction_ids(start: int = 0) -> None:
    """Restart transaction-id allocation (deterministic-run boundary)."""
    _TXN_IDS.reset(start)


@dataclass
class Transaction:
    """A unit of work moving through a data path (packet, burst, ...)."""

    size_bytes: int
    created_ps: int = 0
    kind: str = "data"
    metadata: Dict[str, Any] = field(default_factory=dict)
    txn_id: int = field(default_factory=next_transaction_id)
    completed_ps: Optional[int] = None

    @property
    def latency_ps(self) -> int:
        """End-to-end latency; only valid once the transaction completed."""
        if self.completed_ps is None:
            raise ValueError(f"transaction {self.txn_id} has not completed")
        return self.completed_ps - self.created_ps


@dataclass
class StageTiming:
    """Timing record for one transaction through one stage."""

    start_ps: int
    first_beat_out_ps: int
    last_beat_out_ps: int


class PipelineStage:
    """One fully or partially pipelined processing stage.

    Args:
        name: stage name for diagnostics.
        clock: the stage's clock domain.
        data_width_bits: beat width.
        latency_cycles: fixed input-to-output delay per beat.
        initiation_interval: cycles between accepted beats (1 = full rate).
        per_transaction_overhead_cycles: extra busy cycles charged once per
            transaction (e.g. a DMA descriptor fetch or a DDR row
            activation); this consumes issue slots and therefore *does*
            reduce throughput for small transactions.
    """

    def __init__(
        self,
        name: str,
        clock: ClockDomain,
        data_width_bits: int,
        latency_cycles: int = 1,
        initiation_interval: int = 1,
        per_transaction_overhead_cycles: int = 0,
        per_transaction_overhead_bytes: int = 0,
    ) -> None:
        if data_width_bits <= 0:
            raise ValueError("data width must be positive")
        if latency_cycles < 0:
            raise ValueError("latency cannot be negative")
        if initiation_interval < 1:
            raise ValueError("initiation interval must be >= 1")
        self.name = name
        self.clock = clock
        self.data_width_bits = data_width_bits
        self.latency_cycles = latency_cycles
        self.initiation_interval = initiation_interval
        self.per_transaction_overhead_cycles = per_transaction_overhead_cycles
        if per_transaction_overhead_bytes:
            # Framing overhead (preamble + IFG on Ethernet, TLP headers on
            # PCIe) expressed as extra busy cycles per transaction.
            self.per_transaction_overhead_cycles += math.ceil(
                per_transaction_overhead_bytes * 8 / data_width_bits
            )
        self._next_free_ps = 0
        self.transactions_processed = 0
        self.busy_ps = 0
        self._beats_cache: Dict[int, int] = {}

    def beats(self, size_bytes: int) -> int:
        """Number of data beats needed to carry ``size_bytes``.

        Sweeps push thousands of same-sized transactions through a
        stage, so the ceil-division is memoised per size.
        """
        cached = self._beats_cache.get(size_bytes)
        if cached is None:
            cached = 1 if size_bytes <= 0 else math.ceil(
                size_bytes * 8 / self.data_width_bits
            )
            self._beats_cache[size_bytes] = cached
        return cached

    @property
    def bandwidth_bps(self) -> float:
        """Peak sustainable bandwidth in bits per second."""
        return self.clock.bandwidth_bps(self.data_width_bits) / self.initiation_interval

    def effective_bandwidth_bps(self, size_bytes: int) -> float:
        """Sustainable bandwidth for back-to-back ``size_bytes`` transactions."""
        beats = self.beats(size_bytes)
        busy_cycles = beats * self.initiation_interval + self.per_transaction_overhead_cycles
        return size_bytes * 8 * self.clock.freq_hz / busy_cycles

    def process(self, arrival_ps: int, size_bytes: int) -> StageTiming:
        """Account one transaction through the stage; returns its timing."""
        period = self.clock.period_ps
        start = max(arrival_ps, self._next_free_ps)
        start = self.clock.next_edge_ps(start)
        beats = self.beats(size_bytes)
        busy = (beats * self.initiation_interval + self.per_transaction_overhead_cycles) * period
        self._next_free_ps = start + busy
        first_out = start + self.latency_cycles * period
        last_out = start + (self.latency_cycles + (beats - 1) * self.initiation_interval) * period
        self.transactions_processed += 1
        self.busy_ps += busy
        return StageTiming(start, first_out, last_out)

    def reset(self) -> None:
        """Clear occupancy and statistics (new measurement window)."""
        self._next_free_ps = 0
        self.transactions_processed = 0
        self.busy_ps = 0

    def __repr__(self) -> str:
        return (
            f"PipelineStage({self.name!r}, {self.data_width_bits}b@"
            f"{self.clock.freq_mhz:g}MHz, lat={self.latency_cycles}cyc)"
        )


class PipelineChain:
    """A cut-through chain of pipeline stages.

    The chain's sustainable bandwidth is the minimum stage bandwidth; its
    zero-load latency is the sum of per-stage fixed latencies.  Both are
    available analytically (:meth:`bandwidth_bps`,
    :meth:`zero_load_latency_ps`) and are also what the transaction-level
    accounting converges to.
    """

    def __init__(self, name: str, stages: Sequence[PipelineStage]) -> None:
        if not stages:
            raise ValueError("a pipeline chain needs at least one stage")
        self.name = name
        self.stages: List[PipelineStage] = list(stages)

    def bandwidth_bps(self, size_bytes: Optional[int] = None) -> float:
        """Bottleneck bandwidth, optionally for a given transaction size."""
        if size_bytes is None:
            return min(stage.bandwidth_bps for stage in self.stages)
        return min(stage.effective_bandwidth_bps(size_bytes) for stage in self.stages)

    def zero_load_latency_ps(self, size_bytes: int = 0) -> int:
        """First-beat-in to last-beat-out latency with no contention."""
        latency = 0
        for stage in self.stages:
            latency += stage.latency_cycles * stage.clock.period_ps
        last = self.stages[-1]
        latency += (last.beats(size_bytes) - 1) * last.initiation_interval * last.clock.period_ps
        return latency

    def process(self, transaction: Transaction, arrival_ps: Optional[int] = None) -> Transaction:
        """Push one transaction through every stage (cut-through)."""
        time_ps = transaction.created_ps if arrival_ps is None else arrival_ps
        last_out = time_ps
        for stage in self.stages:
            timing = stage.process(time_ps, transaction.size_bytes)
            time_ps = timing.first_beat_out_ps
            last_out = timing.last_beat_out_ps
        transaction.completed_ps = last_out
        return transaction

    def process_traced(self, transaction: Transaction, trace,
                       arrival_ps: Optional[int] = None) -> Transaction:
        """Like :meth:`process`, emitting one trace span per stage.

        A parent span covers the transaction end to end; each stage's
        occupancy window (issue edge to last beat out) becomes a child
        complete-span, so the JSONL trace shows the request crossing
        link -> RBB -> wrapper/CDC -> role.  ``trace`` is a
        :class:`repro.runtime.TraceBus`.
        """
        time_ps = transaction.created_ps if arrival_ps is None else arrival_ps
        span = trace.begin(f"{self.name}.txn", ts_ps=time_ps,
                           size_bytes=transaction.size_bytes,
                           txn=transaction.txn_id)
        last_out = time_ps
        for stage in self.stages:
            timing = stage.process(time_ps, transaction.size_bytes)
            trace.complete(stage.name, timing.start_ps, timing.last_beat_out_ps)
            time_ps = timing.first_beat_out_ps
            last_out = timing.last_beat_out_ps
        transaction.completed_ps = last_out
        trace.end(span, ts_ps=last_out)
        return transaction

    def reset(self) -> None:
        """Reset every stage in the chain."""
        for stage in self.stages:
            stage.reset()

    def extended(self, name: str, extra: Sequence[PipelineStage]) -> "PipelineChain":
        """A new chain with ``extra`` stages appended (shares stage objects)."""
        return PipelineChain(name, self.stages + list(extra))

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return f"PipelineChain({self.name!r}, {len(self.stages)} stages)"


def run_packet_sweep(
    chain: PipelineChain,
    packet_size_bytes: int,
    packet_count: int,
    offered_load_bps: Optional[float] = None,
    context=None,
    trace_packets: int = 4,
    engine: str = "auto",
) -> Tuple[float, float]:
    """Drive ``packet_count`` packets through ``chain``; measure performance.

    Packets arrive back to back at ``offered_load_bps`` (default: line
    rate of the first stage).  Returns ``(throughput_bps, mean_latency_ns)``.

    When a :class:`repro.runtime.SimContext` is supplied (or ambient),
    the sweep point is wrapped in a trace span, the first
    ``trace_packets`` transactions emit per-stage child spans (when the
    context's trace bus is enabled), and the
    point's latency histogram and throughput land in the metrics
    registry under ``sweep.<chain>.<size>B``.  With no context the point
    runs untraced.

    ``engine`` selects the implementation: ``"auto"`` (the default) runs
    the closed-form kernel in :mod:`repro.sim.vector` whenever the chain
    is analytic -- an untraced point is a one-row
    :func:`~repro.sim.vector.run_packet_sweep_vector_batch` -- and
    ``"vector"`` demands it.  ``"des"``, and any chain whose stages
    override :meth:`PipelineStage.process`, runs the per-Transaction
    oracle loop of :func:`run_packet_sweep_reference`.  The kernel is
    pinned to exact integer equality against the oracle, so the engine
    is invisible in the results.
    """
    from repro.sim.vector import (resolve_engine, run_packet_sweep_vector_batch,
                                  simulate_trains)

    use_vector = resolve_engine(chain, engine)
    if context is None:
        from repro.runtime import current_context

        context = current_context()
    # A sweep point is a run boundary: ids restart at zero so the txn
    # ids embedded in traced spans are a pure function of the point, not
    # of whatever ran earlier in this process (test order, a previous
    # sweep on the same context).
    reset_transaction_ids()
    if context is None:
        if use_vector:
            loads = None if offered_load_bps is None else [offered_load_bps]
            return run_packet_sweep_vector_batch(
                chain, [packet_size_bytes], packet_count, loads)[0]
        return run_packet_sweep_reference(
            chain, packet_size_bytes, packet_count, offered_load_bps)
    chain.reset()
    if offered_load_bps is None:
        # Saturate the chain without unbounded queueing: offer slightly
        # under the bottleneck's effective bandwidth for this size.
        offered_load_bps = chain.bandwidth_bps(packet_size_bytes) * 0.98
    gap_ps = packet_size_bytes * 8 / offered_load_bps * 1e12
    point_span = context.trace.begin(
        f"sweep.{chain.name}.{packet_size_bytes}B", ts_ps=0,
        packets=packet_count,
    )
    # The traced head always runs one Transaction at a time; the oracle
    # engine keeps going that way, the kernel takes over the tail.  A
    # disabled bus records no spans, so its points have no head at all.
    traced_head = (min(trace_packets, packet_count) if context.trace.enabled
                   else 0)
    per_txn = traced_head if use_vector else packet_count
    latencies: List[int] = []
    tail_latencies = None
    first_completion = None
    last_completion = 0
    for index in range(per_txn):
        arrival = int(round(index * gap_ps))
        txn = Transaction(size_bytes=packet_size_bytes, created_ps=arrival)
        if index < traced_head:
            chain.process_traced(txn, context.trace)
        else:
            chain.process(txn)
        latencies.append(txn.completed_ps - arrival)
        if first_completion is None:
            first_completion = txn.completed_ps
        last_completion = txn.completed_ps or last_completion
    if packet_count > per_txn:
        import numpy as np

        indices = np.arange(per_txn, packet_count, dtype=np.float64)
        arrivals = np.rint(indices * gap_ps).astype(np.int64)
        timing = simulate_trains(chain, arrivals[None, :], packet_size_bytes)
        tail_latencies = timing.latencies_ps[0]
        if first_completion is None:
            first_completion = int(timing.completed_ps[0, 0])
        last_completion = int(timing.completed_ps[0, -1])
    # Steady-state window: first completion to last completion, so the
    # pipeline's fill latency does not bias the throughput of a finite
    # packet train.
    duration_ps = max(last_completion - (first_completion or 0), 1)
    throughput_bps = (packet_count - 1) * packet_size_bytes * 8 / (duration_ps / 1e12)
    total_latency_ps = sum(latencies)
    ns = context.metrics.namespace(f"sweep.{chain.name}.{packet_size_bytes}B")
    histogram = ns.histogram("latency_ps")
    histogram.extend(latencies)
    if tail_latencies is not None:
        # The kernel's int64 row stays one array, summed in int64 like
        # the batch kernel's rows.
        total_latency_ps += int(tail_latencies.sum())
        histogram.extend(tail_latencies)
    mean_latency_ns = total_latency_ps / packet_count / 1_000
    ns.set_gauge("throughput_gbps", throughput_bps / 1e9)
    ns.set_gauge("mean_latency_ns", mean_latency_ns)
    context.trace.end(point_span, ts_ps=last_completion)
    return throughput_bps, mean_latency_ns


def run_packet_sweep_reference(
    chain: PipelineChain,
    packet_size_bytes: int,
    packet_count: int,
    offered_load_bps: Optional[float] = None,
) -> Tuple[float, float]:
    """The per-Transaction sweep loop: the oracle for the vector kernel.

    Three jobs: tests pin the kernel to it transaction for transaction,
    ``engine="des"`` and non-analytic chains run it (it honours any
    :meth:`PipelineStage.process` override), and the smoke benchmarks
    time it as the baseline the kernel is measured against.  Do not
    optimise this function.
    """
    chain.reset()
    if offered_load_bps is None:
        offered_load_bps = chain.bandwidth_bps(packet_size_bytes) * 0.98
    gap_ps = packet_size_bytes * 8 / offered_load_bps * 1e12
    total_latency_ps = 0
    first_completion = None
    last_completion = 0
    for index in range(packet_count):
        arrival = int(round(index * gap_ps))
        txn = Transaction(size_bytes=packet_size_bytes, created_ps=arrival)
        chain.process(txn)
        total_latency_ps += txn.latency_ps
        if first_completion is None:
            first_completion = txn.completed_ps
        last_completion = txn.completed_ps or last_completion
    duration_ps = max(last_completion - (first_completion or 0), 1)
    throughput_bps = (packet_count - 1) * packet_size_bytes * 8 / (duration_ps / 1e12)
    mean_latency_ns = total_latency_ps / packet_count / 1_000
    return throughput_bps, mean_latency_ns
