"""Closed-form vectorized packet-train kernel.

The per-Transaction oracle (:meth:`repro.sim.pipeline.PipelineChain.process`,
driven by :func:`repro.sim.pipeline.run_packet_sweep_reference`) walks
one packet at a time through the cut-through recurrence

    start[i, j] = next_edge_j(max(out[i, j-1], start[i-1, j] + busy[i-1, j]))

where ``out[i, j-1]`` is the first-beat-out time of packet ``i`` at the
upstream stage and ``busy`` is the stage's occupancy per packet.  Two
facts make the recurrence collapse into array operations:

* ``busy`` is always a whole number of clock periods, and ``start`` is
  always edge-aligned, so ``start[i-1] + busy[i-1]`` is already on a
  clock edge -- ``next_edge`` distributes over the ``max``:
  ``start[i] = max(next_edge(out[i]), start[i-1] + busy[i-1])``;
* subtracting the exclusive prefix sum ``B[i] = busy[0] + ... +
  busy[i-1]`` turns that into a running maximum:
  ``start[i] - B[i] = max(next_edge(out[i]) - B[i], start[i-1] -
  B[i-1])``, i.e. ``start = B + cummax(next_edge(out) - B)``.

A static-rate pipeline therefore has one closed-form schedule, and this
module is its one implementation: :func:`simulate_trains` replays a
``(rows, packets)`` grid of independent trains with one running maximum
per stage, and a single sweep point is a one-row batch.  Every operation
reproduces the oracle's arithmetic bit for bit (the float divisions
inside ``next_edge`` and ``beats`` are replicated, not "improved"), so
the kernel is pinned to **exact integer equality** against
:func:`repro.sim.pipeline.run_packet_sweep_reference`.
"""

import math
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.profiler import phase as _profile_phase
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import PipelineChain, PipelineStage

#: Recognised execution engines for analytic packet sweeps.
ENGINES: Tuple[str, ...] = ("auto", "vector", "des")


def chain_supports_vector(chain: PipelineChain) -> bool:
    """True when every stage is an analytic :class:`PipelineStage`.

    Subclassed stages or clocks may override ``process``/``next_edge_ps``
    with behaviour the closed form cannot see, so anything but the exact
    base types routes to the per-Transaction oracle loop.
    """
    return all(
        type(stage) is PipelineStage and type(stage.clock) is ClockDomain
        for stage in chain.stages
    )


def resolve_engine(chain: PipelineChain, engine: str) -> bool:
    """Map an engine name to "use the vector kernel?" for ``chain``.

    ``auto`` picks the kernel whenever the chain supports it; ``vector``
    demands it (raising :class:`ConfigurationError` when the chain has
    non-analytic stages); ``des`` forces the per-Transaction oracle loop.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown sweep engine {engine!r}; choose from {', '.join(ENGINES)}"
        )
    if engine == "des":
        return False
    supported = chain_supports_vector(chain)
    if engine == "vector" and not supported:
        raise ConfigurationError(
            "engine='vector' requested but the chain has non-analytic "
            "stages; use engine='auto' or 'des'"
        )
    return supported


def _next_edge_array(times_ps, period_ps: int):
    """Vectorized ``ClockDomain.next_edge_ps`` -- same float ceil-divide.

    Always returns a fresh buffer (the division allocates it), so
    callers may mutate the result in place.
    """
    edges = times_ps / period_ps
    np.ceil(edges, out=edges)
    edges = edges.astype(np.int64)
    edges *= period_ps
    return edges


def _stage_beats(stage: PipelineStage, sizes_bytes) -> Any:
    """Vectorized ``PipelineStage.beats`` (same float ceil-divide)."""
    beats = np.ceil((sizes_bytes * 8) / stage.data_width_bits).astype(np.int64)
    return np.where(sizes_bytes <= 0, 1, beats)


class TrainsTiming:
    """Per-packet timings of a multi-train replay.

    ``arrivals_ps``/``completed_ps``/``latencies_ps`` are ``(rows,
    packets)`` int64 tensors: row ``i`` is one independent train replay
    of the chain, bit-exact equal to pushing that row's packets through
    :meth:`PipelineChain.process` one Transaction at a time.
    """

    __slots__ = ("arrivals_ps", "completed_ps", "latencies_ps")

    def __init__(self, arrivals_ps, completed_ps) -> None:
        self.arrivals_ps = arrivals_ps
        self.completed_ps = completed_ps
        self.latencies_ps = completed_ps - arrivals_ps

    def __len__(self) -> int:
        return int(self.completed_ps.shape[0])

    @property
    def rows(self) -> int:
        return int(self.completed_ps.shape[0])

    @property
    def packets(self) -> int:
        return int(self.completed_ps.shape[1])


def _replay_trains(chain: PipelineChain, arrivals, sizes):
    """The cut-through recurrence over a ``(rows, packets)`` grid.

    Each row replays the chain independently from the chain's current
    carried-in ``_next_free_ps``: the recurrence runs once per stage
    along axis 1, with per-row ``busy``/``tail`` columns broadcast
    across the packet axis.  ``sizes`` is a scalar (every row uniform
    at one size) or a ``(rows,)`` int64 array (per-row uniform sizes --
    the sweep planner's shape).  Mutates nothing; returns ``(completed,
    info)`` where ``completed`` is the ``(rows, packets)`` completion
    tensor and ``info`` is one ``(busy_per_txn, last_starts)`` pair per
    stage for the caller's state fold-back (``busy_per_txn`` is an int
    or a ``(rows,)`` array; ``last_starts`` is each row's final issue
    edge at that stage).
    """
    count = int(arrivals.shape[1])
    uniform = np.isscalar(sizes) or getattr(sizes, "ndim", 1) == 0
    out = arrivals
    completed = arrivals
    index = np.arange(count, dtype=np.int64)[None, :]
    info = []
    final = len(chain.stages) - 1
    for position, stage in enumerate(chain.stages):
        period = stage.clock.period_ps
        if uniform:
            beats = stage.beats(int(sizes))
            busy = (beats * stage.initiation_interval
                    + stage.per_transaction_overhead_cycles) * period
            tail = (stage.latency_cycles
                    + (beats - 1) * stage.initiation_interval) * period
            busy_col = busy
            tail_col = tail
        else:
            beats = _stage_beats(stage, sizes)
            busy = (beats * stage.initiation_interval
                    + stage.per_transaction_overhead_cycles) * period
            tail = (stage.latency_cycles
                    + (beats - 1) * stage.initiation_interval) * period
            busy_col = busy[:, None]
            tail_col = tail[:, None]
        latency = stage.latency_cycles * period
        # _next_edge_array hands back a fresh buffer; from here on every
        # op mutates it in place, without per-stage temporaries.
        starts = _next_edge_array(out, period)
        free0 = stage._next_free_ps
        if free0 > 0:
            # next_edge distributes over max, so the carried-in occupancy
            # only gates each row's first issue edge.
            aligned = int(math.ceil(free0 / period)) * period
            np.maximum(starts[:, 0], aligned, out=starts[:, 0])
        ramp = busy_col * index
        # starts = ramp + cummax(edges - ramp) along the packet axis.
        starts -= ramp
        np.maximum.accumulate(starts, axis=1, out=starts)
        starts += ramp
        info.append((busy, starts[:, -1].copy()))
        if position == final:
            starts += tail_col
            completed = starts
        else:
            starts += latency
            out = starts
    return completed, info


def simulate_trains(
    chain: PipelineChain,
    arrivals_ps,
    sizes_bytes,
    update_state: bool = True,
) -> TrainsTiming:
    """Replay many independent trains through ``chain`` in one pass.

    ``arrivals_ps`` is a ``(rows, packets)`` int64 tensor of creation
    times; ``sizes_bytes`` is a scalar (one size everywhere) or a
    ``(rows,)`` int64 array of per-row uniform sizes.  Every row starts
    from the chain's current carried-in ``_next_free_ps`` and replays
    independently -- the results are bit-exact equal to pushing each
    row through :meth:`PipelineChain.process` one Transaction at a
    time, with the starting occupancy restored in between.

    With ``update_state`` (the default) the fold-back matches that
    sequential oracle loop too: ``transactions_processed`` and
    ``busy_ps`` accumulate over **all** rows and the final occupancy is
    the **last** row's, which the property tests pin stage for stage.

    Rows must share one packet count: the sweep planner buckets points
    by ``packet_count`` before calling in, so no padding packets ever
    exist to lie about throughput or latency.
    """
    arrivals = np.asarray(arrivals_ps, dtype=np.int64)
    if arrivals.ndim != 2:
        raise ConfigurationError(
            "simulate_trains needs a (rows, packets) arrival tensor; "
            f"got shape {arrivals.shape}"
        )
    rows, count = (int(arrivals.shape[0]), int(arrivals.shape[1]))
    if rows == 0 or count == 0:
        raise ConfigurationError("a train batch needs >= 1 row and packet")
    uniform = np.isscalar(sizes_bytes) or getattr(sizes_bytes, "ndim", 1) == 0
    if not uniform:
        sizes_bytes = np.asarray(sizes_bytes, dtype=np.int64)
        if sizes_bytes.shape != (rows,):
            raise ConfigurationError(
                "per-row sizes must be one int per train row"
            )
    with _profile_phase("vector.kernel"):
        completed, info = _replay_trains(chain, arrivals, sizes_bytes)
    if update_state:
        for stage, (busy, last_starts) in zip(chain.stages, info):
            if np.isscalar(busy) or getattr(busy, "ndim", 1) == 0:
                total_busy = int(busy) * count * rows
                last_busy = int(busy)
            else:
                total_busy = int(busy.sum()) * count
                last_busy = int(busy[-1])
            stage._next_free_ps = int(last_starts[-1]) + last_busy
            stage.transactions_processed += rows * count
            stage.busy_ps += total_busy
    return TrainsTiming(arrivals, completed)


def run_packet_sweep_vector_batch(
    chain: PipelineChain,
    packet_sizes: Sequence[int],
    packet_count: int,
    offered_loads_bps: Optional[Sequence[float]] = None,
) -> List[Tuple[float, float]]:
    """Many sweep points through ``chain`` in one kernel pass.

    Executes one sweep point per entry of ``packet_sizes`` (all sharing
    ``packet_count``) against ``chain`` in a single ``(points, packets)``
    kernel pass.  Returns one ``(throughput_bps, mean_latency_ns)`` pair
    per point, **bit-exact** equal to calling
    :func:`repro.sim.pipeline.run_packet_sweep_reference` once per size
    in order -- including the chain's folded-back stage occupancy and
    statistics, which end up exactly as the sequential per-point loop
    leaves them (each point resets the chain, so the final state is the
    last point's).

    This is the production sweep kernel: the fused planner hands it a
    whole group of points, and an untraced single point is a one-row
    call, so a cold app x device x size grid costs a handful of numpy
    passes per tailored chain instead of one per point.
    """
    sizes = [int(size) for size in packet_sizes]
    if not sizes:
        return []
    if packet_count < 1:
        raise ConfigurationError("packet_count must be >= 1")
    if offered_loads_bps is not None and len(offered_loads_bps) != len(sizes):
        raise ConfigurationError(
            "offered_loads_bps must match packet_sizes one for one"
        )
    chain.reset()
    gaps = []
    for row, size in enumerate(sizes):
        load = (offered_loads_bps[row] if offered_loads_bps is not None
                else chain.bandwidth_bps(size) * 0.98)
        gaps.append(size * 8 / load * 1e12)
    index = np.arange(packet_count, dtype=np.float64)[None, :]
    arrivals = np.rint(
        np.asarray(gaps, dtype=np.float64)[:, None] * index
    ).astype(np.int64)
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    with _profile_phase("vector.kernel"):
        completed, info = _replay_trains(chain, arrivals, sizes_arr)
    # Fold back the *last* row's state only: the sequential per-point
    # loop resets the chain at each point, so after it runs the chain
    # carries exactly (and only) the final point's occupancy and stats.
    for stage, (busy, last_starts) in zip(chain.stages, info):
        last_busy = int(busy if np.isscalar(busy) else busy[-1])
        stage._next_free_ps = int(last_starts[-1]) + last_busy
        stage.transactions_processed += packet_count
        stage.busy_ps += last_busy * packet_count
    latencies = completed - arrivals
    results: List[Tuple[float, float]] = []
    for row, size in enumerate(sizes):
        # Per-row scalar arithmetic replicates run_packet_sweep_reference's
        # float expressions operand for operand.
        first = int(completed[row, 0])
        last = int(completed[row, -1])
        total_latency = int(latencies[row].sum())
        duration_ps = max(last - (first or 0), 1)
        throughput_bps = (packet_count - 1) * size * 8 / (duration_ps / 1e12)
        mean_latency_ns = total_latency / packet_count / 1_000
        results.append((throughput_bps, mean_latency_ns))
    return results
