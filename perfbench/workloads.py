"""The four workloads: declarative cases over seeded scenario streams.

Every request body is a Scenario JSON object generated here from the
``--seed``; the daemon sees only these bodies.  Each workload keeps its
*structure* fixed (apps, devices, point counts, packet budget) and lets
the seed pick only values that leave the cost per request unchanged
(packet sizes, packet counts, fleet seeds), so runs with different seeds
measure the same amount of work.

Streams are infinite and indexed: request ``i`` of the timed phase is a
pure function of ``(seed, i)``, so a replay or a correctness sample can
regenerate any request without storing it.  Phases draw from disjoint
streams (``prime``, ``warmup``, ``timed``), which keeps cold workloads
cold: no timed request repeats a primed or warm-up one.
"""

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

#: Apps and devices of the fixed cold/traced shapes (feasible pairs, and
#: both chains run on the vector kernel).
COLD_APPS = ("sec-gateway", "layer4-lb")
COLD_DEVICES = ("device-a", "device-b")

#: Apps x devices the warm working set draws from (all pairs feasible).
WARM_APPS = ("sec-gateway", "layer4-lb", "host-network", "board-test")
WARM_DEVICES = ("device-a", "device-b", "device-d", "device-gen5-400g")

#: Point counts of the warm working set, cycled: 1-32 points per request.
WARM_POINTS = (1, 2, 4, 8, 16, 32)
WARM_SCENARIOS = 36

#: Each phase's stream gets its own integer tag, mixed into the RNG seed.
_PHASES = {"prime": 1, "warmup": 2, "timed": 3}


def _rng(seed: int, phase: str, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + _PHASES[phase] * 7_919 + index)


def _sweep(apps, devices, sizes, packets: int, trace: bool = False
           ) -> Dict[str, Any]:
    return {
        "kind": "sweep", "apps": list(apps), "devices": list(devices),
        "workload": {"packet_sizes": list(sizes),
                     "packets_per_point": packets, "trace": trace},
    }


def _distinct_sizes(rng: random.Random, count: int) -> List[int]:
    return sorted(rng.sample(range(64, 9_001), count))


def warm_scenario(seed: int, index: int) -> Dict[str, Any]:
    """One member of the warm working set (1-32 points, up to 2000 packets)."""
    rng = _rng(seed, "prime", index)
    points = WARM_POINTS[index % len(WARM_POINTS)]
    apps_n = 2 if points >= 4 else 1
    devices_n = 2 if points >= 2 else 1
    apps = rng.sample(WARM_APPS, apps_n)
    devices = rng.sample(WARM_DEVICES, devices_n)
    sizes = _distinct_sizes(rng, points // (apps_n * devices_n))
    return _sweep(apps, devices, sizes, rng.randrange(200, 2_001))


def cold_scenario(seed: int, phase: str, index: int) -> Dict[str, Any]:
    """2 apps x 2 devices x 8 sizes x ~20k packets, never seen before.

    The packet count (18k-21k for the first thousand requests) is unique
    per (phase, index), so no two requests share a cache key and every
    point is a miss.
    """
    rng = _rng(seed, phase, index)
    packets = 18_000 + 3 * index + _PHASES[phase]
    return _sweep(COLD_APPS, COLD_DEVICES, _distinct_sizes(rng, 8), packets)


def traced_scenario(seed: int, phase: str, index: int) -> Dict[str, Any]:
    """2 apps x 2 devices x 4 sizes x ~2k packets with ``trace: true``.

    Unique packet counts keep every point a miss, as in :func:`cold_scenario`.
    """
    rng = _rng(seed, phase, index)
    packets = 1_500 + 3 * index + _PHASES[phase]
    return _sweep(COLD_APPS, COLD_DEVICES, _distinct_sizes(rng, 4), packets,
                  trace=True)


def day_scenario(seed: int, phase: str, index: int,
                 flows: int = 100_000, epochs: int = 32
                 ) -> Dict[str, Any]:
    """One orchestrated fleet shift with a fresh fleet seed per request.

    32 epochs of 100k flows x 100 devices x 24 tenants at 1% churn: the
    epoch loop is ~70% of a request's host time, and a request takes
    ~45 ms, so a run measures a few hundred of them and its p95 has more
    than ten samples beyond it.  (A 288-epoch day at 1M flows x 1000
    devices takes ~1.5 s: ~10 ops a run, whose medians moved with the
    host's speed by more than the bounds allow.)
    """
    rng = _rng(seed, phase, index)
    return {
        "kind": "fleet", "seed": rng.randrange(1, 2 ** 31),
        "tenancy": {"flow_count": flows, "device_count": 100,
                    "tenant_count": 24},
        "epochs": {"epochs": epochs, "churn": 0.01},
    }


def pool_scenario() -> Dict[str, Any]:
    """A traced sweep whose points fan out over every resident pool worker."""
    return _sweep(COLD_APPS, COLD_DEVICES, list(range(72, 72 + 8 * 16, 16)),
                  64, trace=True)


def cache_fill_scenario() -> Dict[str, Any]:
    """4400 tiny points: fills the daemon's 4096-entry LRU in one request.

    device-a and device-b tailor to equal chain signatures (so their
    points share cache keys); device-d does not, which makes all 4400
    keys distinct.
    """
    return _sweep(COLD_APPS, ("device-a", "device-d"),
                  list(range(9_100, 9_100 + 1_100)), 8)


def encode(scenario: Dict[str, Any]) -> bytes:
    return json.dumps(scenario, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class Workload:
    """One declarative benchmark case.

    ``primes(seed)`` are the bodies setup sends once (the working set);
    ``request(seed, phase, i)`` is the i-th body of a phase's stream;
    ``replay_ops`` is how many timed requests the traced replay repeats
    in-process; ``samples`` how many timed responses are re-computed
    in-process after the timed phase (serve-warm checks every response
    against its primed body instead).  A ``warm`` workload's stream
    repeats its ``WARM_SCENARIOS`` primed bodies.
    """

    name: str
    endpoint: str
    callers: int
    primes: Callable[[int], List[Dict[str, Any]]]
    request: Callable[[int, str, int], Dict[str, Any]]
    replay_ops: int
    samples: int
    warm: bool = False


def _warm_primes(seed: int) -> List[Dict[str, Any]]:
    return [warm_scenario(seed, index) for index in range(WARM_SCENARIOS)]


def _warm_request(seed: int, phase: str, index: int) -> Dict[str, Any]:
    return warm_scenario(seed, index % WARM_SCENARIOS)


def _cold_primes(seed: int) -> List[Dict[str, Any]]:
    return ([cache_fill_scenario()]
            + [cold_scenario(seed, "prime", index) for index in range(2)])


def _traced_primes(seed: int) -> List[Dict[str, Any]]:
    return ([cache_fill_scenario()]
            + [traced_scenario(seed, "prime", index) for index in range(4)])


def _day_primes(seed: int) -> List[Dict[str, Any]]:
    return [day_scenario(seed, "prime", 0)]


#: Why each workload was chosen is stated in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        # Every request is a resident-cache hit: only the request path runs.
        Workload(name="serve-warm", endpoint="sweep", callers=2,
                 primes=_warm_primes, request=_warm_request, replay_ops=400,
                 samples=0, warm=True),
        # Every request is unseen: the fused planner and kernel dominate.
        Workload(name="serve-cold", endpoint="sweep", callers=1,
                 primes=_cold_primes, request=cold_scenario, replay_ops=24,
                 samples=3),
        # Every request is unseen and traced: the per-point pooled path.
        Workload(name="serve-traced", endpoint="sweep", callers=1,
                 primes=_traced_primes, request=traced_scenario,
                 replay_ops=24, samples=3),
        # Every request is a fleet shift: the epoch loop, no sweep layer.
        Workload(name="orchestrator-day", endpoint="fleet", callers=1,
                 primes=_day_primes, request=day_scenario, replay_ops=8,
                 samples=3),
    )
}
