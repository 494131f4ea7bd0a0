"""Span-based trace bus with integer-picosecond timestamps.

Every record on the bus is one of four kinds (the begin/end/complete/
instant vocabulary of the Chrome trace-event format, which the JSONL
export intentionally resembles):

* ``B``/``E`` -- a span opened and closed against the context clock
  (command round trips, measure windows, simulator phases);
* ``X`` -- a *complete* span whose start and end were computed
  analytically (a pipeline stage's occupancy for one transaction);
* ``I`` -- an instant event (a drop, an interrupt firing).

Spans carry sequential integer ids and an optional parent id, so a
request can be followed across layers: link -> RBB -> wrapper/CDC ->
role.  Timestamps are integer picoseconds from the owning
:class:`~repro.runtime.context.SimContext`'s clock of record, and ids
are assigned in emission order, so two identical runs serialise to
byte-identical JSONL -- determinism is part of the contract, not an
accident.

The bus is disabled by default; every emit method starts with a single
``enabled`` check so a quiescent bus costs one branch.

Two features keep a fleet-scale trace from being a memory hazard
(see :mod:`repro.obs.recorder` for the operator-facing wrapper):

* **sinks** -- callables attached with :meth:`TraceBus.add_sink`
  receive every record's serialised JSONL line as it is emitted, so a
  trace can stream to disk while the run is still going;
* **ring-buffer mode** -- constructed with ``max_records=N`` (or
  switched later via :meth:`TraceBus.limit_records`) the bus keeps only
  the *last* N records resident; older records are dropped from memory
  (counted in :attr:`TraceBus.dropped_records`) after every sink has
  seen them, so streaming + ring buffer gives O(1) memory with a
  byte-identical on-disk trace.

Record ids are allocated for every emission whether or not the record
stays resident, so the serialised stream is identical between a
bounded and an unbounded bus -- the determinism contract survives the
ring buffer.
"""

import json
import os
import tempfile
from collections import deque
from typing import (Any, Callable, Deque, Dict, List, Mapping, Optional,
                    Union)

#: Sentinel for "no explicit timestamp; read the context clock".
_NOW = None


class _Detached:
    """Sentinel parent: emit as a root even while other spans are open.

    Concurrent emitters (the serving daemon's interleaved requests)
    must not inherit whatever span happens to top the ambient stack;
    passing ``parent=DETACHED`` pins a record to the tree root."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DETACHED"


DETACHED = _Detached()

#: The one encoder behind the batch export and the streaming sinks, so
#: the two serialisations cannot drift; built once, not per record.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_record(record: Mapping[str, Any]) -> str:
    """Serialise one trace record exactly as :meth:`TraceBus.export_jsonl`."""
    return _ENCODER.encode(record)


class Span:
    """Handle for an open span (returned by :meth:`TraceBus.begin`)."""

    __slots__ = ("span_id", "name", "bus")

    def __init__(self, span_id: int, name: str, bus: "TraceBus") -> None:
        self.span_id = span_id
        self.name = name
        self.bus = bus

    def end(self, ts_ps: Optional[int] = None, **attrs: Any) -> None:
        self.bus.end(self, ts_ps=ts_ps, **attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.end()

    def __repr__(self) -> str:
        return f"Span(id={self.span_id}, name={self.name!r})"


class TraceBus:
    """Collects trace records and exports them as deterministic JSONL."""

    def __init__(self, clock_ps: Callable[[], int], enabled: bool = False,
                 max_records: Optional[int] = None) -> None:
        self._clock_ps = clock_ps
        self.enabled = enabled
        if max_records is not None and max_records < 0:
            raise ValueError("max_records must be >= 0")
        self._max_records = max_records
        self._records: Union[List[Dict[str, Any]], Deque[Dict[str, Any]]] = (
            [] if max_records is None else deque(maxlen=max_records)
        )
        self._next_id = 0
        self._stack: List[int] = []
        # Mirror of ``_stack`` as a set, so ``end`` checks membership in
        # O(1) instead of scanning the stack (O(n^2) on deep traces).
        self._open: set = set()
        self._sinks: List[Callable[[str], Any]] = []
        self.dropped_records = 0

    # --- emission -----------------------------------------------------------

    def _ts(self, ts_ps: Optional[int]) -> int:
        return self._clock_ps() if ts_ps is _NOW else int(ts_ps)

    def _alloc(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _parent(self, parent: Optional[int]) -> Optional[int]:
        if parent is DETACHED:
            return None
        if parent is not None:
            return parent
        return self._stack[-1] if self._stack else None

    def _emit(self, record: Dict[str, Any]) -> None:
        """Append one record: sinks first, then the (maybe bounded) store."""
        if self._sinks:
            line = dumps_record(record)
            for sink in self._sinks:
                sink(line)
        records = self._records
        if (self._max_records is not None
                and len(records) == self._max_records):
            self.dropped_records += 1
        records.append(record)

    def begin(self, name: str, ts_ps: Optional[int] = None,
              parent: Optional[int] = None, **attrs: Any) -> Optional[Span]:
        """Open a span; it becomes the default parent until ended."""
        if not self.enabled:
            return None
        span_id = self._alloc()
        record: Dict[str, Any] = {
            "type": "B", "id": span_id, "name": name, "ts_ps": self._ts(ts_ps),
        }
        parent_id = self._parent(parent)
        if parent_id is not None:
            record["parent"] = parent_id
        if attrs:
            record["attrs"] = attrs
        self._emit(record)
        self._stack.append(span_id)
        self._open.add(span_id)
        return Span(span_id, name, self)

    def end(self, span: Optional[Span], ts_ps: Optional[int] = None,
            **attrs: Any) -> None:
        """Close a span opened with :meth:`begin`."""
        if not self.enabled or span is None:
            return
        record: Dict[str, Any] = {
            "type": "E", "id": span.span_id, "name": span.name,
            "ts_ps": self._ts(ts_ps),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)
        if span.span_id in self._open:
            # Pop up to and including the span (tolerates missed ends);
            # each inner pop also retires its ``_open`` entry, so the
            # whole dance is amortised O(1) per span.
            stack = self._stack
            open_ids = self._open
            while stack:
                popped = stack.pop()
                open_ids.discard(popped)
                if popped == span.span_id:
                    break

    def complete(self, name: str, start_ps: int, end_ps: int,
                 parent: Optional[int] = None, **attrs: Any) -> Optional[int]:
        """Record a span whose start/end were computed analytically."""
        if not self.enabled:
            return None
        span_id = self._alloc()
        record: Dict[str, Any] = {
            "type": "X", "id": span_id, "name": name,
            "ts_ps": int(start_ps), "dur_ps": int(end_ps) - int(start_ps),
        }
        parent_id = self._parent(parent)
        if parent_id is not None:
            record["parent"] = parent_id
        if attrs:
            record["attrs"] = attrs
        self._emit(record)
        return span_id

    def instant(self, name: str, ts_ps: Optional[int] = None,
                parent: Optional[int] = None, **attrs: Any) -> None:
        """Record a point event."""
        if not self.enabled:
            return
        record: Dict[str, Any] = {
            "type": "I", "id": self._alloc(), "name": name,
            "ts_ps": self._ts(ts_ps),
        }
        parent_id = self._parent(parent)
        if parent_id is not None:
            record["parent"] = parent_id
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    # --- streaming sinks & residency cap ------------------------------------

    def add_sink(self, sink: Callable[[str], Any]) -> None:
        """Stream every future record's JSONL line to ``sink``.

        The line carries no trailing newline; sinks add their own.  A
        sink sees records the resident ring buffer may later drop, which
        is exactly how a bounded bus still produces a complete trace.
        """
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[str], Any]) -> None:
        self._sinks.remove(sink)

    @property
    def max_records(self) -> Optional[int]:
        """The resident-record cap (``None`` = unbounded)."""
        return self._max_records

    def limit_records(self, max_records: Optional[int]) -> None:
        """Switch the resident store to a ring buffer of ``max_records``.

        Existing records beyond the cap are dropped oldest-first (and
        counted).  ``None`` lifts the cap, keeping whatever is resident.
        """
        if max_records is not None and max_records < 0:
            raise ValueError("max_records must be >= 0")
        records = list(self._records)
        if max_records is None:
            self._records = records
        else:
            if len(records) > max_records:
                self.dropped_records += len(records) - max_records
            self._records = deque(records, maxlen=max_records)
        self._max_records = max_records

    # --- inspection & export ------------------------------------------------

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The resident records in emission order.

        On an unbounded bus this is the raw list; in ring-buffer mode it
        is a list copy of the ring (the last ``max_records`` emissions).
        """
        records = self._records
        return records if isinstance(records, list) else list(records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def total_records(self) -> int:
        """Every record ever emitted, resident or dropped."""
        return len(self._records) + self.dropped_records

    def span_names(self) -> List[str]:
        """Distinct span/instant names in first-seen order (resident)."""
        seen: Dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record["name"])
        return list(seen)

    def export_jsonl(self) -> str:
        """Serialise every resident record, one JSON object per line.

        Keys are sorted and separators fixed, so identical runs produce
        byte-identical output.
        """
        lines = [dumps_record(record) for record in self._records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str) -> int:
        """Write the JSONL export to ``path``; returns the record count.

        The write is atomic (tempfile + ``os.replace``, like
        ``SweepCache.save``): an interrupted export leaves the previous
        file intact, never a truncated half-trace.
        """
        directory = os.path.dirname(os.path.abspath(path))
        handle = tempfile.NamedTemporaryFile(
            "w", dir=directory, prefix=os.path.basename(path) + ".",
            suffix=".tmp", delete=False, encoding="utf-8", newline="\n",
        )
        try:
            with handle:
                handle.write(self.export_jsonl())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()
        self._stack.clear()
        self._open.clear()
        self._next_id = 0
        self.dropped_records = 0
