"""Traced in-process replay: per-layer host time from timing wrappers.

The replay repeats a workload's generated requests the way the daemon's
request handler does (``json.loads`` -> ``Scenario.from_json`` ->
``scenario_id`` -> ``run_scenario`` -> ``response_text``), in this
process.  Timing wrappers are installed on each layer's *public* names
(module functions and class attributes) from this file; nothing in the
program changes.  A wrapped call records one span on a wall-clock
:class:`repro.runtime.trace.TraceBus` (so ``repro.cli trace analyze``
reads the exported file) and adds its inclusive and self time to the
layer's totals.

A name that no longer exists marks its layer *absent* instead of
failing, so a change that deletes code needs no benchmark edit.
"""

import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path).  Several entries may share a
#: span name; their times add up.  Work counters (``events``) are
#: derived from arguments in :func:`_events`.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("scenario.parse", "repro.scenario.spec", "Scenario.from_json"),
    ("scenario.id", "repro.scenario.spec", "Scenario.scenario_id"),
    ("service.payload", "repro.service.runs", "sweep_payload"),
    ("service.serialize", "repro.service.runs", "ServiceResult.response_text"),
    ("sweep.plan", "repro.runtime.sweep", "SweepPlan.from_scenario"),
    ("sweep.plan", "repro.runtime.sweep", "SweepPlan.expand"),
    ("sweep.run", "repro.runtime.sweep", "SweepRunner.run"),
    ("sweep.key", "repro.runtime.sweep", "chain_signature"),
    ("sweep.key", "repro.runtime.sweep", "sweep_cache_key"),
    ("sweep.cache_probe", "repro.runtime.sweep", "SweepCache.lookup_many"),
    ("sweep.cache_store", "repro.runtime.sweep", "SweepCache.store_many"),
    ("sweep.partition", "repro.runtime.sweep", "partition_fusable"),
    ("sweep.fused", "repro.runtime.sweep", "run_fused_group"),
    ("vector.kernel", "repro.sim.vector", "run_packet_sweep_vector_batch"),
    ("tracectx.stitch", "repro.runtime.sweep",
     "SweepResult.stitched_trace_jsonl"),
    ("orchestrator.build", "repro.runtime.orchestrator",
     "Orchestrator.from_scenario"),
    ("orchestrator.run", "repro.runtime.orchestrator", "Orchestrator.run"),
    ("orchestrator.flush", "repro.runtime.orchestrator",
     "FleetState.flush_deltas"),
    ("orchestrator.stats", "repro.runtime.orchestrator",
     "FleetState.stats_weights"),
    ("orchestrator.stats", "repro.runtime.orchestrator",
     "weighted_percentiles"),
    ("orchestrator.residency", "repro.runtime.orchestrator",
     "desired_residency"),
    ("slo.evaluate", "repro.obs.slo", "SloMonitor.evaluate"),
    ("orchestrator.serialize", "repro.runtime.orchestrator",
     "OrchestratorResult.to_json"),
)

#: The replay's own spans (not wrappers): one per op and its stages.
OP, PARSE_JSON, RUN = "replay.op", "replay.json", "service.run"


def _events(name: str, args: Tuple[Any, ...]) -> int:
    """Simulated work a call performs, for host-time-per-event ratios."""
    if name == "vector.kernel" and len(args) == 3:   # chain, sizes, count
        return len(args[1]) * int(args[2])
    return 0


@dataclass
class LayerTimes:
    """Per-span-name totals and self times (nanoseconds) and work counts."""

    total_ns: Dict[str, int] = field(default_factory=dict)
    self_ns: Dict[str, int] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)


class Tracer:
    """Span recorder shared by the wrappers and the replay loop.

    A call appends one compact ``(name, start_ns, end_ns, parent, events)``
    tuple; the tuples become :class:`~repro.runtime.trace.TraceBus`
    records and per-name totals only when asked for, which keeps the
    cost per wrapped call near a microsecond.  Single-threaded by design:
    the replay runs one request at a time with ``workers=1``, so the
    open-span stack is the call stack.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, int, int, int, int]]] = []
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, args: Tuple, kwargs: Dict) -> Any:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent,
                                 _events(name, args))

    def times(self) -> LayerTimes:
        """Inclusive and self time per span name over every closed span."""
        times = LayerTimes()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, _, events) in enumerate(self.spans):
            total = end - start
            times.total_ns[name] = times.total_ns.get(name, 0) + total
            times.self_ns[name] = (times.self_ns.get(name, 0)
                                   + total - child_ns[index])
            if events:
                times.events[name] = times.events.get(name, 0) + events
        return times

    def bus(self):
        """The spans as a wall-clock :class:`~repro.runtime.trace.TraceBus`.

        Timestamps are picoseconds since the first span began, the
        daemon's trace-ring convention; ``repro.cli trace analyze`` reads
        the bus's JSONL export.
        """
        from repro.runtime.trace import DETACHED, TraceBus

        origin = self.spans[0][1] if self.spans else 0
        bus = TraceBus(clock_ps=lambda: 0, enabled=True)
        ids: List[Optional[int]] = []
        for name, start, end, parent, _ in self.spans:
            ids.append(bus.complete(
                name, (start - origin) * 1_000, (end - origin) * 1_000,
                parent=ids[parent] if parent >= 0 else DETACHED))
        return bus


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) for ``module:path``; raises on absence."""
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        # The raw class attribute keeps classmethod/staticmethod wrappers.
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        raise AttributeError(f"{owner.__name__}.{attr}")
    return owner, attr, getattr(owner, attr)


def _wrap(tracer: Tracer, name: str, raw: Any) -> Any:
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap(tracer, name, raw.__func__))

    def wrapper(*args, **kwargs):
        return tracer.call(name, raw, args, kwargs)

    wrapper.__wrapped__ = raw
    wrapper.__name__ = getattr(raw, "__name__", name)
    wrapper.__qualname__ = getattr(raw, "__qualname__", name)
    wrapper.__doc__ = getattr(raw, "__doc__", None)
    return wrapper


class Wrappers:
    """Installs the :data:`LAYERS` wrappers; a context manager.

    ``absent`` names the layers whose functions could not be found.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Wrappers":
        for name, module_name, path in LAYERS:
            try:
                owner, attr, raw = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            own = not isinstance(owner, type) or attr in vars(owner)
            self._undo.append((owner, attr, raw if own else None))
            setattr(owner, attr, _wrap(self.tracer, name, raw))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, raw in reversed(self._undo):
            if raw is None:
                delattr(owner, attr)     # inherited: drop the shadowing wrapper
            else:
                setattr(owner, attr, raw)
        self._undo.clear()


@dataclass
class ReplayOutcome:
    ops: int
    wall_s: float
    run_s: float
    times: Optional[LayerTimes]
    bodies: List[bytes]
    results: List[Any]


def replay(bodies: List[bytes], *, cache: Any,
           tracer: Optional[Tracer] = None) -> ReplayOutcome:
    """Serve ``bodies`` in-process the way the daemon's handler does.

    With a ``tracer`` each op and its stages are spans on its bus (the
    caller installs :class:`Wrappers` for the inner layers); without
    one only the op and ``run_scenario`` are timed, for the bare pass.
    Sweeps run with ``workers=1``: the per-point path stays in-process.
    """
    from repro.obs.tracectx import TraceContext
    from repro.scenario import Scenario
    from repro.service import run_scenario

    def stage(name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)

    run_ns = 0
    results: List[Any] = []

    def serve(index: int, body: bytes) -> bytes:
        nonlocal run_ns
        data = stage(PARSE_JSON, json.loads, body.decode("utf-8"))
        scenario = Scenario.from_json(data)
        # The handler derives the scenario id twice: for the request
        # record and for the coalescing key.
        scenario.scenario_id()
        scenario.scenario_id()
        context = TraceContext.from_headers({}, fallback=f"req-{index:08d}")
        began = time.perf_counter_ns()
        outcome = stage(RUN, run_scenario, scenario, cache=cache,
                        trace_context=context)
        run_ns += time.perf_counter_ns() - began
        results.append(outcome)
        return outcome.response_text().encode("utf-8")

    start = time.perf_counter_ns()
    out = [stage(OP, serve, index, body) for index, body in enumerate(bodies)]
    wall = time.perf_counter_ns() - start
    return ReplayOutcome(ops=len(bodies), wall_s=wall / 1e9,
                         run_s=run_ns / 1e9,
                         times=tracer.times() if tracer is not None else None,
                         bodies=out, results=results)
