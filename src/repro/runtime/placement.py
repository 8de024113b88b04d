"""CPU placement for a helper thread that must not share its driver's core.

A background copier (the spill manager's transfer worker) only overlaps the
thread that drives it if the two run on different CPUs.  Left to the
scheduler, a thread woken by its caller tends to land on the caller's CPU —
the waker's cache is warm — and the two then take turns on one core while
the other idles.  :func:`split_cpus` splits them for the duration of a
call: the helper is pinned to :func:`spare_cpu` and the driving thread
leaves that CPU; both masks are put back when the call returns.

The split is one decision, made here: it holds only while it cannot crowd
other work onto the remaining CPUs — the calling thread is the only one in
the process inside :func:`split_cpus`, the process is not one of a process
pool's workers (:func:`share_cpus`: siblings it cannot see share its CPUs),
BLAS runs on the calling thread (:func:`blas_single_threaded`), and it may
run on two or more CPUs.  A second thread entering dissolves a
split in force (both masks go back at once) and runs unsplit itself.
Otherwise, or on a platform without ``sched_setaffinity``, every mask is
left alone.  Affinity masks are per thread: ``os.sched_setaffinity`` takes
a thread id.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Set, Tuple

_lock = threading.Lock()
#: threads of this process inside :func:`split_cpus` (split or not)
_drivers = 0
#: set by :func:`share_cpus` in a process pool's workers
_shared = False
#: the split in force: (driver's thread id, its mask before, its helper's pin)
_split: Optional[Tuple[int, Set[int], Callable[[Set[int]], None]]] = None


def spare_cpu() -> Optional[int]:
    """The last CPU the calling thread may run on, if it may run on two or more."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1] if len(allowed) >= 2 else None


def blas_single_threaded() -> bool:
    """Whether BLAS was told to run its kernels on the calling thread only.

    OpenBLAS otherwise keeps a pool of one thread per CPU; those threads
    do the driver's matrix products but keep the mask they were born with,
    so a split crowds them onto the driver's CPUs (a spilled selection on a
    2-vCPU VM ran 0.80–1.15 s split against 0.68–0.77 s unsplit).  Read from
    the standard thread-count variables, which BLAS reads at load time.
    """
    return any(
        os.environ.get(name) == "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )


def share_cpus() -> None:
    """Mark this process as one of several pool workers: it never splits."""
    global _shared
    _shared = True


@contextmanager
def split_cpus(pin_helper: Callable[[Set[int]], None]) -> Iterator[None]:
    """Run the block off :func:`spare_cpu` with the helper pinned to it.

    ``pin_helper(mask)`` is called with ``{cpu}`` when the split begins and
    with the driver's own mask when it ends — at the block's exit, or
    earlier when a second driver enters — so the helper runs on the spare
    CPU exactly while its driver stays off it.
    """
    global _drivers, _split
    mine = None
    with _lock:
        _drivers += 1
        if _split is not None:
            _undo(_split)
            _split = None
        solo = _drivers == 1 and not _shared and blas_single_threaded()
        cpu = spare_cpu() if solo else None
        if cpu is not None:
            before = os.sched_getaffinity(0)
            mine = _split = (threading.get_native_id(), before, pin_helper)
            pin_helper({cpu})
            os.sched_setaffinity(0, before - {cpu})
    try:
        yield
    finally:
        with _lock:
            _drivers -= 1
            if mine is not None and _split is mine:
                _undo(mine)
                _split = None


def _undo(split: Tuple[int, Set[int], Callable[[Set[int]], None]]) -> None:
    thread_id, before, pin_helper = split
    os.sched_setaffinity(thread_id, before)
    pin_helper(before)
