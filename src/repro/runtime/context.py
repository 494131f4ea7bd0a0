"""The unified simulation runtime context.

A :class:`SimContext` bundles the four things every layer of the stack
previously improvised for itself:

* the **event engine** -- one :class:`repro.sim.engine.Simulator`, the
  single clock of record (this module is the only place in the tree
  that constructs a bare ``Simulator()``);
* a **clock-domain registry** -- named, memoised
  :class:`repro.sim.clock.ClockDomain` instances, so two modules asking
  for ``"cmac_core"`` get the *same* domain or a loud error on a
  frequency mismatch;
* a **trace bus** -- :class:`repro.runtime.trace.TraceBus` span/instant
  events with integer-ps timestamps and JSONL export;
* a **metrics registry** --
  :class:`repro.runtime.metrics.MetricsRegistry`, the one scrape point
  for counters/gauges/histograms.

Context resolution
------------------

Components resolve their context with :func:`ensure_context`:

1. an explicitly passed context wins;
2. otherwise the innermost *ambient* context (``with SimContext(...):``)
   is joined, which is how one run shares a clock and one trace across
   layers;
3. otherwise a fresh private context is created -- exactly the
   one-engine-per-component behaviour the pre-runtime code had, so
   existing constructors keep working unchanged.
"""

import contextlib
import threading
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.trace import TraceBus
from repro.sim.clock import ClockDomain
from repro.sim.engine import Simulator


class _AmbientStacks(threading.local):
    """Innermost-last stack of ambient contexts, one per thread.

    ``with SimContext():`` is a dynamically scoped binding, and dynamic
    scope follows the call stack -- which is per thread.  A process-wide
    list would let one serving-daemon request's ``isolated_context_stack``
    save/clear/restore race another request's ``activate``; per-thread
    stacks make ambient resolution immune to concurrent requests while
    staying invisible to single-threaded callers.
    """

    def __init__(self) -> None:
        self.stack: List["SimContext"] = []


_AMBIENT = _AmbientStacks()


def _active() -> List["SimContext"]:
    return _AMBIENT.stack


class ClockRegistry:
    """Named clock domains; one definition per name per context."""

    def __init__(self) -> None:
        self._domains = {}

    def domain(self, name: str, freq_mhz: Optional[float] = None) -> ClockDomain:
        """Fetch (or, given a frequency, create) the domain ``name``."""
        existing = self._domains.get(name)
        if existing is not None:
            if freq_mhz is not None and existing.freq_mhz != freq_mhz:
                raise ConfigurationError(
                    f"clock domain {name!r} already registered at "
                    f"{existing.freq_mhz:g} MHz, not {freq_mhz:g} MHz"
                )
            return existing
        if freq_mhz is None:
            raise ConfigurationError(f"unknown clock domain {name!r}")
        domain = ClockDomain(name, freq_mhz)
        self._domains[name] = domain
        return domain

    def register(self, domain: ClockDomain) -> ClockDomain:
        """Adopt an externally built domain (same name must agree)."""
        return self.domain(domain.name, domain.freq_mhz) if (
            domain.name in self._domains
        ) else self._domains.setdefault(domain.name, domain)

    def names(self) -> List[str]:
        return sorted(self._domains)

    def __contains__(self, name: str) -> bool:
        return name in self._domains

    def __len__(self) -> int:
        return len(self._domains)


class SimContext:
    """Owns the engine, clocks, trace bus, and metrics for one run."""

    def __init__(self, name: str = "sim", trace: bool = False) -> None:
        self.name = name
        self.simulator = Simulator()
        self.clocks = ClockRegistry()
        self.trace = TraceBus(clock_ps=lambda: self.simulator.now_ps,
                              enabled=trace)
        self.metrics = MetricsRegistry()
        self._dispatch_span_depth = 0

    # --- clock of record ----------------------------------------------------

    @property
    def now_ps(self) -> int:
        return self.simulator.now_ps

    def run(self, until_ps: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run the shared engine (see :meth:`Simulator.run`)."""
        return self.simulator.run(until_ps=until_ps, max_events=max_events)

    # --- engine tracing -----------------------------------------------------

    def trace_dispatches(self) -> None:
        """Mirror every engine event dispatch onto the trace bus.

        Off by default -- per-event instants are the firehose setting;
        span-level tracing is the everyday one.
        """
        self.simulator.add_dispatch_hook(self._on_dispatch)

    def _on_dispatch(self, time_ps: int, seq: int) -> None:
        self.trace.instant("engine.dispatch", ts_ps=time_ps, seq=seq)

    # --- ambient management -------------------------------------------------

    def activate(self) -> "SimContext":
        _active().append(self)
        return self

    def deactivate(self) -> None:
        if not _active() or _active()[-1] is not self:
            raise ConfigurationError(
                "SimContext deactivated out of order; use it as a "
                "context manager"
            )
        _active().pop()

    def __enter__(self) -> "SimContext":
        return self.activate()

    def __exit__(self, *_exc: object) -> None:
        self.deactivate()

    def __repr__(self) -> str:
        return (f"SimContext({self.name!r}, now={self.simulator.now_ps}ps, "
                f"trace={'on' if self.trace.enabled else 'off'}, "
                f"metrics={len(self.metrics)})")


def current_context() -> Optional[SimContext]:
    """The innermost ambient context of the calling thread, if any."""
    stack = _active()
    return stack[-1] if stack else None


@contextlib.contextmanager
def isolated_context_stack() -> Iterator[None]:
    """Temporarily hide the calling thread's ambient contexts.

    Inside the block, :func:`current_context` returns ``None`` no matter
    what ``with SimContext():`` blocks enclose the caller.  The sweep
    runner uses this so a point's results and traces never depend on
    the caller's ambient contexts.  Stacks are per thread, so hiding
    this thread's contexts never disturbs a concurrent request's.
    """
    stack = _active()
    saved = stack[:]
    stack.clear()
    try:
        yield
    finally:
        stack[:] = saved


def ensure_context(context: Optional[SimContext] = None) -> SimContext:
    """Resolve the context a component should join (see module docs)."""
    if context is not None:
        return context
    ambient = current_context()
    if ambient is not None:
        return ambient
    return SimContext(name="private")
