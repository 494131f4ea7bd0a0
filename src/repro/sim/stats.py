"""Measurement instrumentation: latency, throughput, and event counters.

These are the software equivalents of the monitoring logic the paper puts
in every RBB's reusable part ("real-time throughput, packet loss, queue
usage, and processing rate").
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

#: The sorted store of a :class:`LatencyStats` that has none yet.
_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class Counter:
    """A named monotonic counter (packets, drops, hits, ...)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; use a separate counter")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}={self.value})"


class LatencyStats:
    """Streaming latency statistics with exact percentiles.

    Samples (whole picoseconds) are stored so percentiles are exact.
    They are kept as int64 arrays, not Python ints: a bulk
    :meth:`extend` of a kernel's latency row stays one array, and
    :meth:`add` collects scalars in a short list that is packed into an
    array every :attr:`PACK_EVERY` samples.  Only the multiset of
    samples matters, so the first percentile read sorts them once and
    keeps the sorted array as the store; later reads sort only what
    arrived since and merge it in.
    """

    #: Scalar samples held in a list before they are packed into int64.
    PACK_EVERY = 1024

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._sorted = _EMPTY
        self._chunks: List[np.ndarray] = []
        self._pending: List[int] = []
        self._count = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    def add(self, sample_ps: int) -> None:
        if sample_ps < 0:
            raise ValueError("latency cannot be negative")
        pending = self._pending
        pending.append(sample_ps)
        self._count += 1
        self._sum += sample_ps
        self._min = sample_ps if self._min is None else min(self._min, sample_ps)
        self._max = sample_ps if self._max is None else max(self._max, sample_ps)
        if len(pending) >= self.PACK_EVERY:
            self._pack()

    def _pack(self) -> None:
        """Move the scalar samples into an int64 chunk."""
        if self._pending:
            self._chunks.append(np.array(self._pending, dtype=np.int64))
            self._pending = []

    def _sorted_samples(self) -> np.ndarray:
        """Every sample, sorted; merges in what arrived since the last call."""
        self._pack()
        if self._chunks:
            fresh = np.concatenate(self._chunks)
            fresh.sort()
            merged = np.concatenate((self._sorted, fresh))
            # Two sorted runs: the stable sort (timsort) merges them in
            # one linear pass.
            merged.sort(kind="stable")
            self._sorted = merged
            self._chunks = []
        return self._sorted

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean_ps(self) -> float:
        if not self._count:
            raise ValueError("no samples recorded")
        return self._sum / self._count

    @property
    def mean_ns(self) -> float:
        return self.mean_ps / 1_000

    @property
    def mean_us(self) -> float:
        return self.mean_ps / 1_000_000

    @property
    def min_ps(self) -> int:
        if self._min is None:
            raise ValueError("no samples recorded")
        return self._min

    @property
    def max_ps(self) -> int:
        if self._max is None:
            raise ValueError("no samples recorded")
        return self._max

    def percentile_ps(self, fraction: float) -> int:
        """Exact percentile by nearest-rank (``fraction`` in [0, 1]).

        The sorted samples are cached, so reading many percentiles
        costs one sort, not one per call.
        """
        if not self._count:
            raise ValueError("no samples recorded")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must be within [0, 1]")
        rank = max(0, math.ceil(fraction * self._count) - 1)
        return int(self._sorted_samples()[rank])

    def extend(self, samples_ps: Union[Sequence[int], np.ndarray]) -> None:
        """Bulk-add samples: a list of ints or an int64 array.

        The samples are copied, validated and reduced in numpy; nothing
        changes when one is negative.  The chunk is summed in int64, so
        its samples must sum below 2**63 ps, as a kernel latency row
        does (see :mod:`repro.sim.vector`).
        """
        chunk = np.array(samples_ps, dtype=np.int64)
        if chunk.ndim != 1:
            raise ValueError("latency samples must be one-dimensional")
        if not chunk.size:
            return
        low = int(chunk.min())
        if low < 0:
            raise ValueError("latency cannot be negative")
        high = int(chunk.max())
        self._chunks.append(chunk)
        self._count += chunk.size
        self._sum += int(chunk.sum())
        self._min = low if self._min is None else min(self._min, low)
        self._max = high if self._max is None else max(self._max, high)

    def merge(self, other: "LatencyStats") -> None:
        """Fold another stats object's samples into this one."""
        if not other._count:
            return
        other._pack()
        # Stored arrays are never written in place, so sharing is safe.
        self._chunks.append(other._sorted)
        self._chunks.extend(other._chunks)
        self._count += other._count
        self._sum += other._sum
        self._min = other._min if self._min is None else min(self._min, other._min)
        self._max = other._max if self._max is None else max(self._max, other._max)

    def reset(self) -> None:
        self._sorted = _EMPTY
        self._chunks = []
        self._pending = []
        self._count = 0
        self._sum = 0
        self._min = None
        self._max = None


class ThroughputMeter:
    """Accumulates transferred bytes/items over a simulated time window."""

    def __init__(self, name: str = "throughput") -> None:
        self.name = name
        self.total_bytes = 0
        self.total_items = 0
        self._first_ps: Optional[int] = None
        self._last_ps: Optional[int] = None

    def record(self, size_bytes: int, time_ps: int) -> None:
        """Record a completed transfer of ``size_bytes`` at ``time_ps``."""
        self.total_bytes += size_bytes
        self.total_items += 1
        if self._first_ps is None or time_ps < self._first_ps:
            self._first_ps = time_ps
        if self._last_ps is None or time_ps > self._last_ps:
            self._last_ps = time_ps

    @property
    def window_ps(self) -> int:
        if self._first_ps is None or self._last_ps is None:
            raise ValueError("no transfers recorded")
        return max(self._last_ps - self._first_ps, 1)

    @property
    def bits_per_second(self) -> float:
        return self.total_bytes * 8 / (self.window_ps / 1e12)

    @property
    def gbps(self) -> float:
        return self.bits_per_second / 1e9

    @property
    def items_per_second(self) -> float:
        return self.total_items / (self.window_ps / 1e12)

    def reset(self) -> None:
        self.total_bytes = 0
        self.total_items = 0
        self._first_ps = None
        self._last_ps = None


@dataclass
class MonitorSnapshot:
    """A point-in-time dump of a module's monitoring counters.

    This is the payload a ``MODULE_STATUS_READ`` command returns from an
    RBB's monitoring logic.
    """

    module: str
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        merged: Dict[str, float] = dict(self.counters)
        merged.update(self.gauges)
        return merged
