"""The serving daemon's malloc policy: keep freed heap between requests.

An orchestrated day request allocates ~7 MB of 0.8 MB per-flow arrays
(the slot arrays, the free-slot stack, the slot index and the build
temporaries).  glibc puts them on the brk heap, and when the request
ends it trims the heap top back to the OS, so the next request faults
every page in again.  Measured in-process on the perfbench
``orchestrator-day`` shape (100k flows x 100 devices x 24 tenants, 32
epochs) on a 2-vCPU x86-64 host: 1833 minor page faults per warm
request, 1828 of them in ``Orchestrator.from_scenario``.  With both
thresholds below fixed the same request takes under five.  Sweep
requests already take under one fault each.

Both thresholds are set, never only the trim threshold: setting any
of them turns glibc's dynamic mmap threshold off, so trim alone drops
the mmap threshold back to its 128 KiB default, every per-flow array
becomes a fresh mmap, and the same request takes ~2500 faults.

The policy is process-wide, so only the long-lived daemon process
(``repro.cli serve``) applies it, once, at start.  Where the C library
has no ``mallopt`` (not glibc) it does nothing.
"""

import ctypes

#: ``mallopt`` parameter numbers (glibc ``<malloc.h>``).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: Blocks below this come from the heap: every 0.8 MB per-flow array
#: of a day up to ~130k flows.  Larger blocks stay mmapped and go back
#: to the OS when freed: at 4 MiB the serve-cold daemon's peak RSS rose
#: from 60.1 to 64.1 MB (perfbench, 18 s runs), at 1 MiB to 61.6 MB,
#: with the same day faults.
MMAP_THRESHOLD_BYTES = 1 << 20

#: Free heap top kept rather than returned to the OS: a day request's
#: ~7 MB of per-flow arrays with room to spare (at 6 MiB or less the
#: day's faults come back).
TRIM_THRESHOLD_BYTES = 16 << 20


def _load_libc():
    """The process's own C library symbols."""
    return ctypes.CDLL(None)


def apply_heap_policy() -> bool:
    """Fix glibc's mmap and trim thresholds; whether both took."""
    try:
        mallopt = _load_libc().mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    return bool(mmap_set and trim_set)
