"""Transaction-level discrete-event simulation substrate.

This package provides the hardware-simulation primitives on which every
behavioural model in the reproduction is built:

* :mod:`repro.sim.engine` -- the discrete-event simulator core with an
  integer-picosecond timeline.
* :mod:`repro.sim.clock` -- clock domains and cycle/time conversions.
* :mod:`repro.sim.fifo` -- synchronous and asynchronous (gray-code CDC)
  FIFO models.
* :mod:`repro.sim.pipeline` -- fully pipelined stage and chain models used
  by data paths (MAC, DMA, DDR, wrappers, roles).
* :mod:`repro.sim.stats` -- latency and throughput instrumentation.

The simulation is *transaction level*: the unit of work is a transaction
(a packet, a DMA descriptor, a memory burst) rather than an RTL signal
change.  Timing is still beat-accurate -- a stage with data width ``W``
bits running at ``F`` MHz moves one ``W``-bit beat per cycle when fully
pipelined, which is exactly the property the paper's interface wrapper
relies on ("no bubbles in the processing").
"""

from repro.sim.clock import ClockDomain
from repro.sim.engine import Event, Simulator
from repro.sim.fifo import AsyncFifo, FifoFullError, SyncFifo
from repro.sim.pipeline import PipelineChain, PipelineStage, Transaction
from repro.sim.stats import Counter, LatencyStats, ThroughputMeter
from repro.sim.vector import chain_supports_vector

__all__ = [
    "AsyncFifo",
    "ClockDomain",
    "Counter",
    "Event",
    "FifoFullError",
    "LatencyStats",
    "PipelineChain",
    "PipelineStage",
    "Simulator",
    "SyncFifo",
    "ThroughputMeter",
    "Transaction",
    "chain_supports_vector",
]
