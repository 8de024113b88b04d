"""Asynchronous host→device shard transfers.

A :class:`Prefetcher` runs restore jobs on its own 1-thread
:class:`~repro.runtime.pool.ThreadWorkerPool` so the next shard's transfer
overlaps the current shard's compute — numpy's large array copies release
the GIL, so the overlap is real wall-clock overlap, not just bookkeeping.
One transfer is in flight at a time: classic double buffering (one shard
computing, one shard in flight).

The prefetcher knows nothing about shards or arenas: the
:class:`~repro.memory.spill.SpillManager` reserves capacity and hands over a
zero-argument restore job plus a completion callback.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.runtime.pool import ThreadWorkerPool


class Prefetcher:
    """Double-buffered async transfer engine: one transfer in flight.

    The prefetcher owns a 1-thread ``ThreadWorkerPool`` and shuts it down on
    :meth:`close`.

    Example::

        prefetcher = Prefetcher()
        if prefetcher.try_reserve():
            prefetcher.submit(restore_job, lambda error: None)
        prefetcher.close()
    """

    def __init__(self):
        self._pool = ThreadWorkerPool(1)
        self._inflight = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def inflight(self) -> int:
        """Number of transfers currently reserved or running."""
        with self._lock:
            return self._inflight

    def try_reserve(self) -> bool:
        """Claim an in-flight slot; ``False`` when the buffer is full."""
        with self._lock:
            if self._inflight:
                return False
            self._inflight += 1
            return True

    def cancel_reservation(self) -> None:
        """Give back a slot claimed by :meth:`try_reserve` without submitting."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    def submit(
        self, job: Callable[[], None], on_done: Callable[[Optional[BaseException]], None]
    ) -> None:
        """Run ``job`` on the pool; call ``on_done(error_or_None)`` after.

        The caller must hold a successful :meth:`try_reserve`; the slot is
        released before ``on_done`` fires.  If the pool refuses the task (it
        was shut down), the slot is released and the refusal re-raised —
        ``on_done`` will never fire.
        """

        def task() -> None:
            error: Optional[BaseException] = None
            try:
                job()
            except BaseException as exc:  # noqa: BLE001 - reported to on_done
                error = exc
            with self._lock:
                self._inflight = max(0, self._inflight - 1)
            on_done(error)

        try:
            self._pool.submit(task)
        except RuntimeError:
            self.cancel_reservation()
            raise

    def close(self) -> None:
        """Shut down the transfer thread, after any transfer in flight."""
        self._pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"Prefetcher(inflight={self.inflight})"
