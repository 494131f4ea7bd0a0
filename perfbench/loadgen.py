"""The closed-loop load of the benchmark.

``callers`` threads of this one load process each send their next
request as soon as the previous response lands (a closed loop: a slower
daemon receives less load).  Requests go through the program's own
client, :func:`repro.serve.client.http_request`.  Responses are only
collected here; checking them is the caller's job, after the loop, so
no benchmark work sits between a response and the next request.  (The
program's :class:`repro.serve.client.LoadGenerator` stops after a
request count and keeps no response bodies; a run here is bounded by
time and checks every body, hence its own loop.)
"""

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

_TIMEOUT_S = 120.0


@dataclass
class LoopResult:
    """What one closed-loop phase observed.

    ``responses`` holds ``(index, response)`` per completed op, in
    completion order; ``response`` is None when the request raised.
    """

    latencies_s: List[float] = field(default_factory=list)
    responses: List[Tuple[int, Any]] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies_s)


def closed_loop(host: str, port: int, path: str, callers: int,
                body_for: Callable[[int], bytes], *,
                seconds: Optional[float] = None, ops: Optional[int] = None
                ) -> LoopResult:
    """Run ``callers`` closed-loop threads over request indices 0, 1, ...

    Stops issuing new requests after ``seconds`` or once ``ops`` requests
    were issued; requests in flight complete and count.
    """
    from repro.serve.client import http_request

    result = LoopResult()
    lock = threading.Lock()
    counter = [0]
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")

    def caller() -> None:
        while True:
            with lock:
                index = counter[0]
                if ((ops is not None and index >= ops)
                        or time.perf_counter() >= deadline):
                    return
                counter[0] += 1
            body = body_for(index)
            sent = time.perf_counter()
            try:
                response = http_request(host, port, "POST", path, body,
                                        timeout=_TIMEOUT_S)
            except OSError:
                response = None
            latency = time.perf_counter() - sent
            with lock:
                result.latencies_s.append(latency)
                result.responses.append((index, response))

    threads = [threading.Thread(target=caller, name=f"caller-{n}")
               for n in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed_s = time.perf_counter() - start
    return result


def warm_up(run_window: Callable[[], LoopResult], *, tolerance: float = 0.10,
            min_windows: int = 2, max_windows: int = 4
            ) -> Tuple[List[float], bool]:
    """Run untimed windows until two back-to-back windows agree.

    Compares the median op latency of consecutive windows.  Returns every
    window's median (seconds), so the caller can log how long it took,
    and whether the last two agreed within ``tolerance``.
    """
    medians: List[float] = []
    while len(medians) < max_windows:
        window = run_window()
        medians.append(statistics.median(window.latencies_s))
        if (len(medians) >= min_windows
                and abs(medians[-1] - medians[-2]) <= tolerance * medians[-2]):
            return medians, True
    return medians, False


def p95(samples: List[float]) -> float:
    """The 95th percentile, interpolated between order statistics.

    Uses ``statistics.quantiles(method="inclusive")``; with many samples
    this is the nearest-rank p95, with few it blends the slowest two
    instead of jumping to the maximum.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]
