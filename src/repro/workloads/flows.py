"""Flow-level traffic generation with realistic skew.

Datacenter traffic is not uniform: flow popularity follows a Zipf-like
law and flow sizes are heavy-tailed (many mice, few elephants).  The
load balancer and flow director are only interesting under that skew,
so this module generates it deterministically:

* :func:`zipf_weights` -- a Zipf(alpha) popularity distribution;
* :class:`FlowSet` -- a population of flows with heavy-tailed sizes;
* :func:`skewed_packet_stream` -- packets drawn by flow popularity.

Sampling is vectorized with a seeded :class:`numpy.random.Generator`,
so million-flow populations and million-packet streams build at array
speed; the fleet simulator (:mod:`repro.runtime.fleet`) leans on the
array forms (:func:`zipf_weights_array`, :func:`flow_hashes32`,
``FlowSet.sizes_bytes``) directly.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as _np

from repro.errors import ConfigurationError
from repro.workloads.packets import FiveTuple, Packet, PacketGenerator

#: Mice/elephant boundary used in the size statistics (bytes).
ELEPHANT_BYTES = 1_000_000

_MASK64 = (1 << 64) - 1


def _check_zipf(count: int, alpha: float) -> None:
    if count < 1:
        raise ConfigurationError("need at least one flow")
    if alpha <= 0:
        raise ConfigurationError("Zipf alpha must be positive")


def zipf_weights_array(count: int, alpha: float = 1.1):
    """Normalised Zipf weights as a float64 array."""
    _check_zipf(count, alpha)
    ranks = _np.arange(1, count + 1, dtype=_np.float64)
    raw = 1.0 / ranks ** alpha
    return raw / raw.sum()


def zipf_weights(count: int, alpha: float = 1.1) -> List[float]:
    """Normalised Zipf popularity weights for ``count`` ranks."""
    return zipf_weights_array(count, alpha).tolist()


def _splitmix64(value: int) -> int:
    """Scalar splitmix64 finaliser.

    :func:`churn_stream_hashes32` derives every channel seed with it;
    :func:`flow_hashes32` is the same finaliser over an array.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def flow_hashes32(count: int, seed: int = 0):
    """Deterministic 32-bit hashes for flow ranks 0..count-1.

    A vectorized splitmix64 finaliser over ``rank + seed * golden``;
    statistically well-mixed, stable across platforms and numpy
    versions (pure integer arithmetic, no Generator state involved).
    Returns a ``uint32`` array.
    """
    if count < 0:
        raise ConfigurationError("hash count must be non-negative")
    offset = (seed * 0x9E3779B97F4A7C15) & _MASK64
    # In place, over one scratch array: uint64 arithmetic wraps mod
    # 2**64, so folding the two additions into one is exact.
    x = _np.arange(count, dtype=_np.uint64)
    x += _np.uint64((offset + 0x9E3779B97F4A7C15) & _MASK64)
    shifted = x >> _np.uint64(30)
    x ^= shifted
    x *= _np.uint64(0xBF58476D1CE4E5B9)
    _np.right_shift(x, _np.uint64(27), out=shifted)
    x ^= shifted
    x *= _np.uint64(0x94D049BB133111EB)
    _np.right_shift(x, _np.uint64(31), out=shifted)
    x ^= shifted
    x >>= _np.uint64(32)
    return x.astype(_np.uint32)


def _fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of a channel label (stable across platforms)."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 0x100000001B3) & _MASK64
    return value


def churn_stream_hashes32(count: int, seed: int, epoch: int, channel: str):
    """Deterministic 32-bit draws for one ``(seed, epoch, channel)`` stream.

    Each named channel of each epoch is an independent splitmix64
    stream: the triple is folded into a derived seed and handed to
    :func:`flow_hashes32`, so epoch N's arrivals never perturb epoch
    N's departures (or any other epoch's anything).  Pure integer
    arithmetic -- no :class:`numpy.random.Generator` state -- which is
    what lets the epoch orchestrator replay the exact same churn under
    both its incremental and full-recompute paths.
    """
    derived = _splitmix64(
        _splitmix64((seed & _MASK64) ^ _fnv1a64(channel))
        ^ _splitmix64((epoch * 0x9E3779B97F4A7C15) & _MASK64)
    )
    return flow_hashes32(count, derived)


class ChurnStream:
    """Vectorized, replayable churn randomness for epoch stepping.

    The fleet orchestrator draws every stochastic decision -- arrival
    rates and tenants, departure victims, migration picks -- from named
    per-epoch channels so any epoch's churn set is a pure function of
    ``(seed, epoch)``.  Rates come out as *integer* units (1 unit =
    1 kbps): integer loads keep every partial sum below 2**53, which
    makes float64 bincount accumulation exact and order-independent --
    the keystone of the incremental-vs-oracle bit-exactness guarantee.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def draws(self, epoch: int, channel: str, count: int):
        """``count`` raw uint32 draws from one epoch channel."""
        return churn_stream_hashes32(count, self.seed, epoch, channel)

    def block(self, epoch: int, channel: str, sizes):
        """One channel draw split across several consumers.

        The epoch hot loop needs four independent draw streams per
        epoch (departure victims, arrival rates, arrival tenants,
        arrival placement); materialising them as slices of ONE
        splitmix64 pass amortises the per-call vector setup four ways.
        Slicing is position-based, so the split is exactly as
        deterministic as separate channels would be.
        """
        draws = self.draws(epoch, channel, sum(sizes))
        parts = []
        offset = 0
        for size in sizes:
            parts.append(draws[offset:offset + size])
            offset += size
        return parts

    @staticmethod
    def as_picks(draws, modulus: int):
        """Raw uint32 draws folded to indices in ``[0, modulus)``."""
        if modulus < 1:
            raise ConfigurationError("pick modulus must be positive")
        return draws.astype(_np.int64) % modulus

    def picks(self, epoch: int, channel: str, count: int, modulus: int):
        """``count`` indices in ``[0, modulus)`` as an int64 array."""
        return self.as_picks(self.draws(epoch, channel, count), modulus)

    @staticmethod
    def as_harmonic_units(draws, scale_units: int, max_rank: int):
        """Raw draws folded to Zipf(alpha=1)-shaped integer rates.

        Each draw picks a uniform rank in ``[1, max_rank]`` and offers
        ``scale_units // rank`` -- the harmonic popularity law in pure
        integer division, so the same draw reproduces the same rate on
        every platform with no float pow in the loop.
        """
        if scale_units < 1:
            raise ConfigurationError("rate scale must be positive")
        ranks = ChurnStream.as_picks(draws, max_rank)
        return _np.maximum(scale_units // (ranks + 1), 1)

    def harmonic_rate_units(self, epoch: int, channel: str, count: int,
                            scale_units: int, max_rank: int):
        """``count`` Zipf-shaped integer arrival rates from one channel."""
        return self.as_harmonic_units(
            self.draws(epoch, channel, count), scale_units, max_rank)


@dataclass(frozen=True)
class FlowProfile:
    """One flow with its popularity weight and total size."""

    flow: FiveTuple
    weight: float
    total_bytes: int

    @property
    def is_elephant(self) -> bool:
        return self.total_bytes >= ELEPHANT_BYTES


class FlowSet:
    """A deterministic population of skewed flows.

    ``weights`` and ``sizes_bytes`` are built as arrays up front (cheap
    even for millions of flows); the per-flow :class:`FlowProfile` list
    -- which needs a Python :class:`FiveTuple` object per flow -- is
    materialised lazily on first access to :attr:`profiles`.
    """

    def __init__(self, count: int, alpha: float = 1.1,
                 pareto_shape: float = 1.2, mean_flow_bytes: int = 50_000,
                 seed: int = 2_025) -> None:
        if pareto_shape <= 1.0:
            raise ConfigurationError("Pareto shape must exceed 1 for a finite mean")
        _check_zipf(count, alpha)
        self.count = count
        self._seed = seed
        scale = mean_flow_bytes * (pareto_shape - 1) / pareto_shape
        self.weights = zipf_weights_array(count, alpha)
        rng = _np.random.default_rng(seed)
        raw = scale * (1.0 - rng.random(count)) ** (-1.0 / pareto_shape)
        # Inverse-CDF Pareto sampling; clip the astronomically rare top
        # draws so the int64 cast can never overflow.
        self.sizes_bytes = _np.clip(raw, 64, 2.0 ** 62).astype(_np.int64)
        self._profiles: List[FlowProfile] = []

    @property
    def profiles(self) -> List[FlowProfile]:
        if not self._profiles:
            generator = PacketGenerator(seed=self._seed)
            weights = self.weights.tolist()
            sizes = self.sizes_bytes.tolist()
            self._profiles = [
                FlowProfile(generator.flow(rank), weights[rank], sizes[rank])
                for rank in range(self.count)
            ]
        return self._profiles

    def __len__(self) -> int:
        return self.count

    def elephants(self) -> List[FlowProfile]:
        return [profile for profile in self.profiles if profile.is_elephant]

    def top_share(self, fraction: float = 0.1) -> float:
        """Traffic share of the most popular ``fraction`` of flows."""
        head = max(int(self.count * fraction), 1)
        return float(self.weights[:head].sum())


def skewed_packet_stream(
    flow_set: FlowSet,
    packet_count: int,
    packet_bytes: int = 512,
    tenant_count: int = 1,
    seed: int = 7,
) -> List[Packet]:
    """Packets drawn by flow popularity (deterministic per seed)."""
    rng = _np.random.default_rng(seed)
    chosen = rng.choice(
        flow_set.count, size=packet_count, p=flow_set.weights).tolist()
    flows = [profile.flow for profile in flow_set.profiles]
    packets: List[Packet] = []
    gap_ps = int(packet_bytes * 8 / 100e9 * 1e12)
    for index, flow_index in enumerate(chosen):
        packets.append(Packet(
            flow=flows[flow_index],
            size_bytes=packet_bytes,
            dst_mac=0x02_AA_BB_CC_DD_EE,
            tenant_id=flow_index % tenant_count,
            arrival_ps=index * gap_ps,
        ))
    return packets


def backend_imbalance(loads: Dict[str, int]) -> float:
    """max/mean load ratio -- 1.0 is perfect balance."""
    values = list(loads.values())
    if not values or sum(values) == 0:
        raise ConfigurationError("no load to measure")
    mean = sum(values) / len(values)
    return max(values) / mean
