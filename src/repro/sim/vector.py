"""Closed-form vectorized packet-train kernel.

The per-Transaction oracle (:meth:`repro.sim.pipeline.PipelineChain.process`,
driven by :func:`repro.sim.pipeline.run_packet_sweep_reference`) walks
one packet at a time through the cut-through recurrence

    start[i, j] = next_edge_j(max(out[i, j-1], start[i-1, j] + busy[i-1, j]))

where ``out[i, j-1] = start[i, j-1] + L[j-1]`` is the first-beat-out
time of packet ``i`` at the upstream stage, ``L`` the stage's latency
and ``busy`` its occupancy per packet.  In a sweep every packet of a
train has one size, so ``busy`` is one whole number of clock periods
per stage and train, and the recurrence is a max-plus system of
static-rate actors:

* **One stage is one running maximum.**  ``start`` is edge-aligned, so
  ``next_edge`` distributes over the ``max`` and, with ``E =
  next_edge(out)``, ``start[i] = max(E[i], start[i-1] + b)``.
  Subtracting the ramp ``i*b`` turns that into ``start = ramp +
  cummax(E - ramp)``, i.e. ``start[i] = max_{m<=i}(E[m] + (i-m)*b)``.
* **A same-clock run is one running maximum.**  Inside a run of
  consecutive stages on one clock period, every ``out`` is already on
  an edge and ``next_edge`` is the identity.  Feeding stage ``j`` into
  stage ``j+1``: ``start_{j+1}[i] = L_j + max_{k<=i} max_{m<=k}(E[m] +
  (k-m)*b_j + (i-k)*b_{j+1})``, and the inner maximum over ``k`` is
  linear in ``k``, so it sits at an end: ``start_{j+1}[i] = L_j +
  max_{m<=i}(E[m] + (i-m)*max(b_j, b_{j+1}))``.  By induction a run is
  one running maximum with the run's largest ``busy`` and its
  latencies summed.  A stage carrying occupancy in gates its own input,
  so it starts a new run.  The catalog chains collapse this way from
  six or seven stages to four runs.
* **A running maximum that changes nothing is skipped.**  When every
  gap ``E[i] - E[i-1]`` of a row is at least ``b``, ``E - ramp`` is
  already non-decreasing and ``start = E``.  A train offered below the
  bottleneck rate takes this branch on almost every row.  The gaps
  are measured only when a per-row lower bound cannot decide:
  re-aligning to a clock of period ``p`` leaves a gap ``d`` at least
  ``floor(d/p)*p``, and a run leaves every gap at least its ``b``.

Each stage's folded-back occupancy needs only the last row's final
issue edge.  For an inner stage of a run that is ``off_j + (n-1)*b_j +
max_m(E[m] - m*b_j)``, where ``b_j`` is the largest ``busy`` of the run
so far and ``off_j`` the latencies before it.

A static-rate pipeline therefore has one closed-form schedule, and
this module is its one implementation: :func:`simulate_trains` replays
a ``(rows, packets)`` grid of independent trains, and a single sweep
point is a one-row batch.  The schedule is carried in float64, with
one conversion in and one out.  **Precondition: every time is below
2**53 ps** (about 2.5 simulated hours) -- the oracle's own
``next_edge`` divides in float, so it assumes the same.  Under it,
``+``, ``max``, ``k*p`` and the correctly rounded ``x/p`` are all
exact, and every operation reproduces the oracle's arithmetic bit for
bit (the float division inside ``next_edge`` is replicated, not
"improved", and beats come from the stage's own
:meth:`~repro.sim.pipeline.PipelineStage.beats`).  **A row's latencies
must also sum below 2**63 ps**: callers sum a latency row in int64,
unguarded.  The kernel is pinned
to **exact integer equality** against
:func:`repro.sim.pipeline.run_packet_sweep_reference`.
"""

import math
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

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


#: The gap bound of a one-packet train: larger than any busy time.
_NO_GAP = float(2 ** 62)

#: A buffer larger than this many elements (2 MiB) is used once and
#: dropped, so the idle workspace keeps at most three of this size.
WORKSPACE_MAX_ELEMENTS = 2 ** 18
#: A kept buffer grows to 125% of the shape that outgrew it: a train
#: whose packet count creeps up call by call then reuses one buffer
#: instead of reallocating on every call.
WORKSPACE_HEADROOM = 1.25


class _Workspace:
    """The kernel's float64 buffers, kept between calls.

    Slot 0 holds the arrivals, slot 1 the schedule, and slot 2 the
    spare: first the gaps between edges, then the ramp, which are never
    live at the same time.  Each slot is a flat buffer; :meth:`take`
    hands out a contiguous ``(rows, count)`` view of its front.
    """

    ARRIVALS, SCHEDULE, SPARE = range(3)

    __slots__ = ("buffers",)

    def __init__(self) -> None:
        self.buffers = [None, None, None]

    def take(self, slot: int, rows: int, count: int):
        """A ``(rows, count)`` float64 buffer; kept only within the bounds."""
        size = rows * count
        if size > WORKSPACE_MAX_ELEMENTS:
            return np.empty((rows, count))
        buffer = self.buffers[slot]
        if buffer is None or buffer.size < size:
            buffer = np.empty(min(int(size * WORKSPACE_HEADROOM),
                                  WORKSPACE_MAX_ELEMENTS))
            self.buffers[slot] = buffer
        return buffer[:size].reshape(rows, count)


#: At most one idle workspace for the whole process.  A call pops it
#: (``list.pop`` is atomic), so two threads never hold the same one and
#: never share a buffer; a call that finds none idle makes a fresh one.
#: One workspace, not one per thread: per-thread buffers would stay
#: resident for every executor thread that ever ran the kernel.
_IDLE: List[_Workspace] = []


@contextmanager
def _workspace() -> Iterator[_Workspace]:
    try:
        workspace = _IDLE.pop()
    except IndexError:
        workspace = _Workspace()
    try:
        yield workspace
    finally:
        # Put it back, then drop any workspace beyond the first idle
        # one: each step is atomic, so at most one stays idle.
        _IDLE.append(workspace)
        del _IDLE[1:]


def _stage_busy(stage: PipelineStage, sizes: Sequence[int]) -> List[int]:
    """Per-row ``busy`` of ``stage``: whole periods of occupancy per packet.

    Beats come from the stage's own memoised :meth:`PipelineStage.beats`,
    so kernel and oracle count them with one function.
    """
    period = stage.clock.period_ps
    return [(stage.beats(size) * stage.initiation_interval
             + stage.per_transaction_overhead_cycles) * period
            for size in sizes]


def _stage_tail(stage: PipelineStage, sizes: Sequence[int]) -> List[int]:
    """Per-row time from a packet's issue edge to its last beat out."""
    period = stage.clock.period_ps
    return [(stage.latency_cycles
             + (stage.beats(size) - 1) * stage.initiation_interval) * period
            for size in sizes]


def _clock_runs(stages: Sequence[PipelineStage]) -> List[Tuple[int, int]]:
    """``[start, end)`` bounds of the chain's same-clock stage runs.

    A run is a maximal block of consecutive stages with one clock
    period; a stage carrying occupancy in (``_next_free_ps > 0``) starts
    a new run, because its gate sits on its own input, not the run's.
    """
    runs = []
    start = 0
    for position in range(1, len(stages) + 1):
        if (position == len(stages)
                or stages[position].clock.period_ps
                != stages[start].clock.period_ps
                or stages[position]._next_free_ps > 0):
            runs.append((start, position))
            start = position
    return runs


def _replay_trains(chain: PipelineChain, arrivals, sizes,
                   workspace: _Workspace):
    """The cut-through recurrence over a ``(rows, packets)`` grid.

    Each row replays the chain independently from the chain's current
    carried-in ``_next_free_ps``, one running maximum per same-clock
    stage run along axis 1 (skipped on rows where it is the identity).
    ``arrivals`` is int64 or float64; ``sizes`` holds one int per row
    (each row's packets share one size).  Mutates nothing; returns
    ``(completed, info)`` where ``completed`` is the ``(rows, packets)``
    float64 completion tensor and ``info`` is one ``(busy, last_start)``
    pair per stage for the caller's state fold-back: ``busy`` is the
    stage's occupancy per packet, one int per row, ``last_start`` the
    last row's final issue edge at that stage.  ``completed`` is a view
    of ``workspace``: the caller copies out what it keeps.
    """
    rows, count = arrivals.shape
    stages = chain.stages
    busy = [_stage_busy(stage, sizes) for stage in stages]
    index = np.arange(count, dtype=np.float64)
    schedule = workspace.take(_Workspace.SCHEDULE, rows, count)
    # The gaps and the ramp take turns in one spare buffer.
    spare = workspace.take(_Workspace.SPARE, rows, count)
    gaps = spare[:, :-1]
    # Per row, a lower bound on the gaps between consecutive edges, or
    # None while unknown.  A one-packet train has no gaps to bound.
    min_gap = None if count > 1 else np.full(rows, _NO_GAP)
    previous = None
    info = []
    for start, end in _clock_runs(stages):
        period = stages[start].clock.period_ps
        # next_edge: a float ceil-divide, the identity on a schedule
        # already on this clock's edges.  The first one fills the
        # schedule buffer; every later op updates it in place.
        if period != previous:
            if previous is None:
                np.divide(arrivals, period, out=schedule)
            else:
                schedule /= period
            np.ceil(schedule, out=schedule)
            schedule *= period
            previous = period
            if min_gap is not None:
                min_gap = min_gap // period * period
        free0 = stages[start]._next_free_ps
        if free0 > 0:
            # next_edge distributes over max, so the carried-in occupancy
            # only gates each row's first issue edge -- and can only
            # shrink each row's first gap.
            aligned = int(math.ceil(free0 / period)) * period
            np.maximum(schedule[:, 0], aligned, out=schedule[:, 0])
            if min_gap is not None and count > 1:
                min_gap = np.minimum(min_gap, schedule[:, 1] - schedule[:, 0])
        run_busy = np.asarray([max(row) for row in zip(*busy[start:end])])
        # The running max is the identity on a row whose edges are at
        # least the run's busy apart; measure the gaps only when the
        # bound cannot tell.
        saturated = None if min_gap is None else (min_gap < run_busy).tolist()
        if saturated is None or any(saturated):
            np.subtract(schedule[:, 1:], schedule[:, :-1], out=gaps)
            min_gap = gaps.min(axis=1)
            saturated = (min_gap < run_busy).tolist()
        # Inner stages fold back from the last row's run input edges.
        edges = schedule[-1]
        offset = 0
        step = 0
        for position in range(start, end - 1):
            step = max(step, busy[position][-1])
            if saturated[-1]:
                last = (count - 1) * step + int((edges - step * index).max())
            else:
                last = int(edges[-1])
            info.append((busy[position], offset + last))
            offset += stages[position].latency_cycles * period
        if any(saturated):
            # schedule = ramp + cummax(schedule - ramp) on those rows.
            picked = None if all(saturated) else [
                row for row, flag in enumerate(saturated) if flag]
            block = schedule if picked is None else schedule[picked]
            ramp = spare[:len(block)]
            np.multiply((run_busy if picked is None
                         else run_busy[picked])[:, None], index, out=ramp)
            block -= ramp
            np.maximum.accumulate(block, axis=1, out=block)
            block += ramp
            if picked is not None:
                schedule[picked] = block
        # Every row's gaps are now at least the run's busy.
        min_gap = np.maximum(min_gap, run_busy)
        info.append((busy[end - 1], offset + int(schedule[-1, -1])))
        stage = stages[end - 1]
        if end == len(stages):
            tails = [offset + tail for tail in _stage_tail(stage, sizes)]
            schedule += np.asarray(tails)[:, None]
        else:
            schedule += offset + stage.latency_cycles * period
    return schedule, info


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
    if np.isscalar(sizes_bytes) or getattr(sizes_bytes, "ndim", 1) == 0:
        sizes = [int(sizes_bytes)] * rows
    else:
        sizes_bytes = np.asarray(sizes_bytes, dtype=np.int64)
        if sizes_bytes.shape != (rows,):
            raise ConfigurationError(
                "per-row sizes must be one int per train row"
            )
        sizes = sizes_bytes.tolist()
    with _workspace() as workspace:
        with _profile_phase("vector.kernel"):
            schedule, info = _replay_trains(chain, arrivals, sizes, workspace)
        completed = schedule.astype(np.int64)
    if update_state:
        for stage, (busy, last_start) in zip(chain.stages, info):
            stage._next_free_ps = last_start + busy[-1]
            stage.transactions_processed += rows * count
            stage.busy_ps += sum(busy) * count
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
    with _workspace() as workspace:
        # Arrival times stay float64 (rint leaves them whole): the kernel
        # converts its schedule to int64 once, on the way out.
        arrivals = workspace.take(_Workspace.ARRIVALS, len(sizes),
                                  packet_count)
        np.multiply(np.asarray(gaps, dtype=np.float64)[:, None], index,
                    out=arrivals)
        np.rint(arrivals, out=arrivals)
        with _profile_phase("vector.kernel"):
            schedule, info = _replay_trains(chain, arrivals, sizes, workspace)
        firsts = schedule[:, 0].astype(np.int64).tolist()
        lasts = schedule[:, -1].astype(np.int64).tolist()
        # Per-packet latencies are exact in float64; their sums may pass
        # 2**53, so they are summed in int64, converted into the arrival
        # buffer (done with by now) rather than a fresh one.
        schedule -= arrivals
        latencies = arrivals.view(np.int64)
        np.copyto(latencies, schedule, casting="unsafe")
        total_latencies = latencies.sum(axis=1).tolist()
    # Fold back the *last* row's state only: the sequential per-point
    # loop resets the chain at each point, so after it runs the chain
    # carries exactly (and only) the final point's occupancy and stats.
    for stage, (busy, last_start) in zip(chain.stages, info):
        last_busy = busy[-1]
        stage._next_free_ps = last_start + last_busy
        stage.transactions_processed += packet_count
        stage.busy_ps += last_busy * packet_count
    results: List[Tuple[float, float]] = []
    for row, size in enumerate(sizes):
        # Per-row scalar arithmetic replicates run_packet_sweep_reference's
        # float expressions operand for operand.
        first = firsts[row]
        duration_ps = max(lasts[row] - (first or 0), 1)
        throughput_bps = (packet_count - 1) * size * 8 / (duration_ps / 1e12)
        mean_latency_ns = total_latencies[row] / packet_count / 1_000
        results.append((throughput_bps, mean_latency_ns))
    return results
