"""Response memo: a byte-identical repeat answered before it is parsed.

A served response is a pure function of (scenario, slo) -- the
coalescer already relies on that -- so once a sweep request has been
answered entirely from the result cache, its response bytes are fixed.
The memo maps ``(endpoint kind, ?slo value, raw body bytes)`` to those
bytes, the scenario id, and the point cache keys the response
summarises; the daemon answers a repeat from it before parsing,
hashing, coalescing or executing anything.

Three rules keep it a cache in front of the full path, never a second
implementation:

* **admission** -- the daemon stores only untraced sweep responses the
  result cache answered in full (no point executed), i.e. proven
  repeats.  Cold sweeps, traced sweeps, fleet and build responses never
  enter;
* **residency** -- a hit confirms its point keys with one
  :meth:`~repro.runtime.sweep.SweepCache.refresh_all`, which refreshes
  their LRU order and counts their hits exactly as the full path's
  all-hit probe would.  If any point was evicted it counts nothing, the
  entry is dropped and the request takes the full path (whose own probe
  is then the only one counted), so a hit never outlives the entries it
  summarises;
* **bound** -- the memo's resident bytes stay under
  :data:`MEMO_MAX_BYTES`, least recently used first out.  An entry's
  size is what :func:`sys.getsizeof` reports for its key, request body,
  response, scenario id and point keys, plus :data:`ENTRY_OVERHEAD` for
  the entry tuple and its ordered-dict slot.
"""

import sys
import threading
from collections import OrderedDict
from typing import NamedTuple, Optional, Sequence, Tuple

#: Resident memo bytes, every entry's objects included.
MEMO_MAX_BYTES = 4 << 20

#: Bytes an entry holds beyond its objects' ``sys.getsizeof``: the
#: :class:`MemoEntry` tuple and the ordered dict's slot and link node
#: (about 100 bytes on CPython 3.11).
ENTRY_OVERHEAD = 128

#: (endpoint kind, ``?slo`` value, raw request body).
MemoKey = Tuple[str, Optional[str], bytes]


class MemoEntry(NamedTuple):
    """One memoised response and what it summarises."""

    body: bytes
    scenario_id: str
    point_keys: Tuple[str, ...]
    size: int


class ResponseMemo:
    """Byte-bounded LRU of finished responses; thread-safe."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[MemoKey, MemoEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: MemoKey) -> Optional[MemoEntry]:
        """The entry memoised under ``key`` (refreshed), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def confirm(self, key: MemoKey, entry: MemoEntry, cache) -> bool:
        """Whether every point ``entry`` summarises is still in ``cache``.

        A miss drops the entry, so the caller's full-path recompute is
        the only answer until a later fully cached run stores it again.
        """
        if cache.refresh_all(entry.point_keys):
            return True
        with self._lock:
            if self._entries.get(key) is entry:
                del self._entries[key]
                self.bytes -= entry.size
        return False

    def store(self, key: MemoKey, body: bytes, scenario_id: str,
              point_keys: Sequence[str]) -> None:
        """Memoise ``body``; an entry larger than the bound is not kept."""
        point_keys = tuple(point_keys)
        size = (ENTRY_OVERHEAD + sys.getsizeof(key) + sys.getsizeof(key[2])
                + sys.getsizeof(body) + sys.getsizeof(scenario_id)
                + sys.getsizeof(point_keys)
                + sum(map(sys.getsizeof, point_keys)))
        if size > MEMO_MAX_BYTES:
            return
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.bytes -= previous.size
            self._entries[key] = MemoEntry(body, scenario_id, point_keys,
                                           size)
            self.bytes += size
            while self.bytes > MEMO_MAX_BYTES:
                _, evicted = self._entries.popitem(last=False)
                self.bytes -= evicted.size
