"""Discrete-event simulator core.

Time is kept as an integer number of picoseconds.  Using integers (rather
than floats) makes event ordering exact and keeps long simulations free of
accumulated rounding error; a picosecond granularity is fine enough to
represent every clock in the catalog (the fastest domain in the paper's
device fleet is the PCIe Gen5 user clock at 1 GHz, i.e. a 1000 ps period).

The queue is a heap of ``(time_ps, seq, event)`` tuples: comparisons stay
in C (the unique ``seq`` breaks ties before the :class:`Event` object is
ever compared) and the :class:`Event` itself is a ``__slots__`` record, so
scheduling allocates one small object and one tuple per event.  Callbacks
may carry positional arguments (``schedule(delay, fn, arg)``), which lets
hot callers pre-bind a method once instead of building a closure per
event.  Cancelled events are purged lazily: they stay in the heap until
popped, but a live-event counter keeps :meth:`Simulator.pending_events`
O(1) and the heap is compacted outright when cancelled entries outnumber
live ones.
"""

import heapq
import itertools
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.obs.profiler import phase as _profile_phase

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000

#: Compact the heap only past this size; tiny queues are not worth it.
_COMPACT_MIN_QUEUE = 64


class Event:
    """A scheduled callback.

    Events order by ``(time_ps, seq)`` so simultaneous events fire in
    the order they were scheduled (deterministic replay).
    """

    __slots__ = ("time_ps", "seq", "callback", "args", "cancelled", "_simulator")

    def __init__(self, time_ps: int, seq: int, callback: Callable[..., Any],
                 args: Tuple[Any, ...] = (),
                 simulator: Optional["Simulator"] = None) -> None:
        self.time_ps = time_ps
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Prevent the event's callback from running when it is popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._simulator is not None:
            self._simulator._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time_ps, self.seq) < (other.time_ps, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time_ps}ps, seq={self.seq}, {state})"


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1_000, lambda: print("1 ns elapsed"))
        sim.run()
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, Event]] = []
        self._seq = itertools.count()
        self._now_ps = 0
        self._running = False
        self._live = 0          # non-cancelled events still queued
        self._stale = 0         # cancelled events awaiting lazy purge
        self.events_processed = 0
        self._dispatch_hooks: List[Callable[[int, int], Any]] = []

    def add_dispatch_hook(self, hook: Callable[[int, int], Any]) -> None:
        """Register ``hook(time_ps, seq)`` to run after each dispatch.

        This is how the runtime's trace bus observes the engine without
        the engine knowing about tracing; with no hooks registered the
        dispatch path pays a single truthiness check.
        """
        self._dispatch_hooks.append(hook)

    def remove_dispatch_hook(self, hook: Callable[[int, int], Any]) -> None:
        self._dispatch_hooks.remove(hook)

    @property
    def now_ps(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now_ps

    @property
    def now_ns(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now_ps / PS_PER_NS

    @property
    def now_us(self) -> float:
        """Current simulation time in microseconds."""
        return self._now_ps / PS_PER_US

    def schedule(self, delay_ps: int, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ps`` picoseconds from now.

        Returns the :class:`Event`, which may be cancelled before it fires.
        Raises ``ValueError`` for negative delays -- the simulator never
        travels backwards.
        """
        if delay_ps < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ps} ps)")
        time_ps = self._now_ps + int(delay_ps)
        event = Event(time_ps, next(self._seq), callback, args, self)
        heapq.heappush(self._queue, (time_ps, event.seq, event))
        self._live += 1
        return event

    def schedule_at(self, time_ps: int, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(int(time_ps) - self._now_ps, callback, *args)

    def schedule_at_batch(
        self, items: Iterable[Tuple[int, Callable[..., Any], Tuple[Any, ...]]],
    ) -> List[Event]:
        """Schedule a batch of ``(time_ps, callback, args)`` entries at once.

        Sequence numbers are assigned in iteration order (matching what a
        loop of :meth:`schedule_at` calls would produce), but the heap is
        restored with one O(n) ``heapify`` instead of n pushes -- the win
        when a packet train of thousands of arrivals is loaded up front.
        """
        now = self._now_ps
        queue = self._queue
        events: List[Event] = []
        for time_ps, callback, args in items:
            time_ps = int(time_ps)
            if time_ps < now:
                raise ValueError(
                    f"cannot schedule into the past (t={time_ps} ps < now={now} ps)"
                )
            event = Event(time_ps, next(self._seq), callback, args, self)
            queue.append((time_ps, event.seq, event))
            events.append(event)
        if events:
            heapq.heapify(queue)
            self._live += len(events)
        return events

    def _note_cancelled(self) -> None:
        """Bookkeeping for a queued event that was just cancelled."""
        self._live -= 1
        self._stale += 1
        queue_len = len(self._queue)
        if queue_len >= _COMPACT_MIN_QUEUE and self._stale * 2 > queue_len:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (lazy purge, amortised)."""
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._stale = 0

    def peek_next_time(self) -> Optional[int]:
        """Return the timestamp of the next pending event, if any."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._stale -= 1
        if not queue:
            return None
        return queue[0][0]

    def step(self) -> bool:
        """Process the next pending event.  Returns False when idle."""
        queue = self._queue
        while queue:
            _time, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                self._stale -= 1
                continue
            self._live -= 1
            event._simulator = None   # cancel() after firing is a no-op
            self._now_ps = event.time_ps
            event.callback(*event.args)
            self.events_processed += 1
            if self._dispatch_hooks:
                for hook in self._dispatch_hooks:
                    hook(event.time_ps, event.seq)
            return True
        return False

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, a deadline, or an event cap.

        ``until_ps`` is an absolute simulation time; events scheduled at
        exactly ``until_ps`` are still processed.  When the queue drains
        before the deadline, the clock still advances to ``until_ps`` --
        the window a caller asked to simulate has elapsed whether or not
        events filled it, and time-window throughput math relies on
        ``now_ps`` landing on the deadline.  Returns the number of
        events processed by this call.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        try:
            # Wall-clock phase span (repro.obs.profiler) -- a single
            # no-op context when no phase sink is set, so the dispatch
            # loop itself stays untouched.
            with _profile_phase("engine.run"):
                while True:
                    if max_events is not None and processed >= max_events:
                        break
                    next_time = self.peek_next_time()
                    if next_time is None:
                        if until_ps is not None and until_ps > self._now_ps:
                            self._now_ps = until_ps
                        break
                    if until_ps is not None and next_time > until_ps:
                        self._now_ps = until_ps
                        break
                    self.step()
                    processed += 1
        finally:
            self._running = False
        return processed

    def advance_to(self, time_ps: int) -> None:
        """Advance the clock to ``time_ps`` without running events.

        Only legal when no pending event precedes ``time_ps``.
        """
        next_time = self.peek_next_time()
        if next_time is not None and next_time < time_ps:
            raise ValueError(
                f"cannot advance to {time_ps} ps past pending event at {next_time} ps"
            )
        if time_ps < self._now_ps:
            raise ValueError("cannot advance backwards")
        self._now_ps = int(time_ps)

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return int(round(value * PS_PER_NS))


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return int(round(value * PS_PER_US))


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return int(round(value * PS_PER_MS))


def seconds(value: float) -> int:
    """Convert seconds to integer picoseconds."""
    return int(round(value * PS_PER_S))
