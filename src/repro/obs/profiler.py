"""Wall-clock phases: named spans around the simulator's own hot regions.

Sim-time (integer picoseconds on the :class:`~repro.sim.engine.Simulator`
clock) tells you what the *modelled hardware* did; it says nothing about
where the *simulator process* spends its wall-clock.  Phases answer
that: named spans around the stack's hot regions -- the engine dispatch
loop, the vector kernel, sweep planning, probing, fused execution and
merging, scenario parsing and hashing, response serialisation, fleet
policy evaluation, the build farm's planning and per-step execution.

Instrumentation sites open a phase in a ``with`` statement::

    from repro.obs.profiler import phase

    with phase("engine.run"):
        ...hot loop...

A phase is one begin/end span on the *sink* of the current thread or
asyncio task, held in a :class:`contextvars.ContextVar`.  A sink is
anything with ``begin(name)`` returning a context manager that ends the
span -- an enabled, wall-clocked :class:`~repro.runtime.trace.TraceBus`
is the one in use.  ``repro.cli profile`` records into one and folds it
with :meth:`repro.obs.analyze.TraceAnalysis.flame`; the serving daemon
gives every request its own and replays it into the ``/trace`` ring.
Phases never touch a simulation clock and never enter a
:class:`~repro.runtime.context.SimContext`'s bus.

With no sink set, :func:`phase` returns a shared no-op context manager
-- the disabled cost is one context-variable read per call, which is
why hooks sit at phase granularity (one ``run()``, one policy, one
train) and never inside per-event loops.

This module imports only the standard library.  Hot paths deep in
:mod:`repro.sim` import it, so any dependency on :mod:`repro.runtime`
here would close an import cycle.
"""

import contextlib
from contextvars import ContextVar
from typing import Any, Iterator, Optional

_NULL_PHASE = contextlib.nullcontext()

_SINK: ContextVar = ContextVar("repro_phase_sink", default=None)


def phase(name: str):
    """Span ``name`` on the current sink (the shared no-op when none)."""
    sink = _SINK.get()
    if sink is None:
        return _NULL_PHASE
    return sink.begin(name)


@contextlib.contextmanager
def recording(sink: Optional[Any]) -> Iterator[Optional[Any]]:
    """Send this thread's (or task's) phases to ``sink`` inside the block.

    ``None`` turns recording off inside the block.  On exit the previous
    sink is back, so a thread-pool worker never carries one request's
    sink into the next.
    """
    token = _SINK.set(sink)
    try:
        yield sink
    finally:
        _SINK.reset(token)
