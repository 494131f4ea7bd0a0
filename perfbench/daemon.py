"""The serving daemon as a child process, plus ``/proc`` accounting.

The benchmark measures the daemon exactly as an operator starts it
(``python -m repro.cli serve``), so nothing here touches daemon
internals: readiness is the ``serving on`` line, counters come from
``GET /stats``, and CPU and memory come from ``/proc``.
"""

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_READY_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 20.0


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children, grandchildren, ...)."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child in children.get(parent, ()):
            found.append(child)
            frontier.append(child)
    return found


def tree_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` and all its live descendants.

    Includes the CPU of already-reaped children (``cutime``/``cstime``),
    so a worker that exited mid-run is not lost.
    """
    ticks = 0
    for member in [pid] + descendants(pid):
        fields = _stat_fields(member)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17 of stat(5).
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / _CLK_TCK


def status_kb(pid: int, key: str) -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} not in /proc/{pid}/status")


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (zombies have exited)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


class DaemonProcess:
    """One ``repro.cli serve`` child listening on a kernel-chosen port."""

    def __init__(self, root: str, workers: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        # Pinned hashing: set/dict iteration orders, and so any
        # hash-order-dependent work, repeat from run to run.
        env["PYTHONHASHSEED"] = "0"
        # One glibc malloc arena.  With one arena per execution thread,
        # peak RSS depends on which thread happened to run which large
        # request (each arena keeps its own freed pages), and drifted
        # from 180 to 290 MB between identical orchestrator-day runs.
        env["MALLOC_ARENA_MAX"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--pool-workers", str(workers), "--exec-workers", str(workers)],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        self.host = "127.0.0.1"
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + _READY_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("the serving daemon never reported its port")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_s(self) -> float:
        return tree_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        return status_kb(self.pid, "VmHWM") / 1024.0

    def pool_worker_rss_mb(self) -> float:
        """Largest resident set among the daemon's pool workers (0 if none)."""
        sizes = [status_kb(pid, "VmRSS") for pid in descendants(self.pid)
                 if "multiprocessing.spawn" in _cmdline(pid)
                 and "resource_tracker" not in _cmdline(pid)]
        return max(sizes, default=0) / 1024.0

    def stop(self) -> None:
        """SIGTERM (clean shutdown), then SIGKILL stragglers; waits for all."""
        stragglers = descendants(self.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in stragglers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        while (any(_running(pid) for pid in stragglers)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
