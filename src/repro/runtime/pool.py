"""Worker pools: the execution substrate of the concurrent runtime.

A :class:`WorkerPool` is a thin, uniform veneer over
:mod:`concurrent.futures` executors: ``submit`` a callable, get a
:class:`~concurrent.futures.Future` back.  Three implementations cover the
practical spectrum:

* :class:`SerialWorkerPool` — runs the callable inline and returns an
  already-completed future.  Zero threads, zero nondeterminism; the
  ``workers=1`` baseline and the pool used to debug scheduling issues.
* :class:`ThreadWorkerPool` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  The default for trial execution: the numpy engine releases the GIL inside
  large array ops, and simulated / I/O-bound trials overlap perfectly.
* :class:`ProcessWorkerPool` — true multi-process execution for CPU-bound,
  *picklable* work (pure-python trial logic never escapes the GIL on
  threads).  Each slot owns one
  :class:`~repro.runtime.child.SupervisedChild`, so a child that dies
  mid-task fails **only that task**, unlike
  :class:`~concurrent.futures.ProcessPoolExecutor`, whose
  ``BrokenProcessPool`` condemns every pending future.

Retry placement: :meth:`WorkerPool.submit_retrying` runs a task under a
:class:`RetryPolicy` *inside the slot* (serial/thread pools) or *parent-side
around the child* (process pool) — the latter is what lets a retry survive
the death of the child that was running the previous attempt.

Pools are context managers; :func:`make_pool` is the one-stop factory the
rest of the runtime uses.

Example::

    from repro.runtime import make_pool

    with make_pool(4) as pool:
        futures = [pool.submit(job, index) for index in range(8)]
        results = [future.result() for future in futures]

``repro.runtime`` is a leaf package: it imports nothing from ``repro`` but
the exception types, so every layer (memory, training, serving, the API)
can build on a pool or a supervised child.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from queue import LifoQueue
from typing import Any, Callable, Optional

from repro.exceptions import ConfigurationError, WorkerCrashedError
from repro.runtime.child import SupervisedChild
from repro.runtime.placement import share_cpus


@dataclass(frozen=True)
class RetryPolicy:
    """How the runtime treats a task (a trial) that raises or straggles.

    ``max_retries`` is the number of *additional* attempts after the first
    (so ``0`` means fail fast).  Attempt ``k`` (1-based retry index) sleeps
    ``backoff_seconds * backoff_multiplier**(k-1)`` before re-running, inside
    the worker slot.  ``timeout_seconds``, when set, is each task's
    straggler budget: an outcome not in that many seconds after its own
    dispatch is recorded as a timed-out failure instead of blocking the
    experiment (``ConcurrentBackend.train_many``).

    Example::

        policy = RetryPolicy(max_retries=2, backoff_seconds=0.1)
        assert policy.delay(1) == 0.1 and policy.delay(2) == 0.2

    Raises:
        ConfigurationError: if any field is negative, or the multiplier is
            below 1.
    """

    max_retries: int = 0
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0:
            raise ConfigurationError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )

    def delay(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (1-based)."""
        return self.backoff_seconds * self.backoff_multiplier ** (retry_index - 1)


def _run_with_retries(policy: RetryPolicy, fn: Callable[..., Any], *args: Any) -> Any:
    """The one retry loop: in the slot on serial/thread pools, and in the
    parent slot thread, around the child, on the process pool.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(policy.max_retries + 1):
        if attempt > 0:
            time.sleep(policy.delay(attempt))
        try:
            return fn(*args)
        except Exception as error:  # noqa: BLE001 - policy decides
            last_error = error
    raise last_error  # type: ignore[misc]


class WorkerPool:
    """Protocol every pool implements: ``submit`` work, ``shutdown`` when done.

    Subclasses set :attr:`size` (the number of concurrent slots) and
    implement :meth:`submit`.  Pools are reusable across cohorts and
    experiments; shut them down once, at the end of their life.

    Example::

        pool = ThreadWorkerPool(2)
        try:
            future = pool.submit(sum, [1, 2, 3])
            assert future.result() == 6
        finally:
            pool.shutdown()

    Raises:
        ConfigurationError: from concrete constructors, when ``size`` is not
            positive.
    """

    #: number of tasks the pool runs concurrently
    size: int = 1

    #: short name used in reports and error messages
    kind: str = "pool"

    #: child processes replaced after a crash (only process pools have any)
    restarts: int = 0

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)`` and return its future."""
        raise NotImplementedError

    def submit_retrying(
        self, policy: RetryPolicy, fn: Callable[..., Any], *args: Any
    ) -> Future:
        """Schedule ``fn(*args)`` under ``policy``'s retry/backoff loop.

        In-process pools retry inside the worker slot; the process pool
        overrides this to retry parent-side, so an attempt whose child
        process was killed is re-run on a fresh child instead of being lost
        with it.
        """
        return self.submit(_run_with_retries, policy, fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool's workers; no further ``submit`` calls allowed."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(size={self.size})"


class SerialWorkerPool(WorkerPool):
    """Runs every task inline, in submission order, on the caller's thread.

    ``submit`` executes the callable immediately and returns a future that
    is already resolved (or already carries the exception).  Useful as the
    deterministic ``workers=1`` degenerate case and in tests: concurrency
    machinery runs unchanged, with no actual concurrency.

    Example::

        pool = SerialWorkerPool()
        assert pool.submit(len, "abc").result() == 3
    """

    size = 1
    kind = "serial"

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Run ``fn`` now; the returned future is already completed."""
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - mirrored into the future
            future.set_exception(error)
        return future


class ThreadWorkerPool(WorkerPool):
    """A thread-backed pool — the default trial-execution substrate.

    Threads share the interpreter, so live models and loaders need no
    pickling, and the numpy engine's large array ops release the GIL.

    Example::

        with ThreadWorkerPool(4) as pool:
            assert pool.submit(max, 1, 2).result() == 2

    Raises:
        ConfigurationError: if ``size`` is not positive.
    """

    kind = "thread"

    def __init__(self, size: int):
        if size <= 0:
            raise ConfigurationError(f"pool size must be positive, got {size}")
        self.size = int(size)
        self._executor = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="repro-worker"
        )

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn`` on a worker thread and return its future."""
        return self._executor.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the executor down; pending tasks finish when ``wait`` is True."""
        self._executor.shutdown(wait=wait)


def _pool_worker_main() -> Callable[[tuple], Any]:
    """A pool child's ``setup``: nothing to build; the handler runs one task.

    Runs in a supervised child (see :mod:`~repro.runtime.child` for the
    loop around it and how it starts): each message is ``(fn, args,
    kwargs)``, the value is ``fn``'s result, and whatever it raises is
    mirrored to the parent.  The child shares the machine's CPUs with its
    sibling slots, so it never takes one for a helper thread
    (:func:`~repro.runtime.placement.share_cpus`).
    """
    share_cpus()

    def run(message: tuple) -> Any:
        fn, args, kwargs = message
        return fn(*args, **kwargs)

    return run


class ProcessWorkerPool(WorkerPool):
    """True multi-process execution for CPU-bound, picklable workloads.

    ``size`` parent threads share ``size`` slots, each one
    :class:`~repro.runtime.child.SupervisedChild` — a persistent child
    process forked from a preloaded forkserver (no inherited locks or
    threads, the parent's current environment, and no interpreter boot per
    child), named ``repro-pool-worker-<slot>``.  A task is shipped to
    an idle slot's child over a private duplex pipe; the thread waits for
    the reply, so a child killed mid-task fails **only that task** with
    :class:`~repro.exceptions.WorkerCrashedError` and the slot lazily
    respawns a fresh child — pending tasks in other slots are untouched.

    Each task's callable, arguments, and result must pickle; use
    :func:`repro.utils.serialization.probe_picklable` to check ahead of
    time.  Children are daemonic: if the parent dies without ``shutdown``,
    the OS reaps them.

    Example::

        with ProcessWorkerPool(2) as pool:
            assert pool.submit(abs, -3).result() == 3

    Raises:
        ConfigurationError: if ``size`` is not positive.
    """

    kind = "process"

    def __init__(self, size: int):
        if size <= 0:
            raise ConfigurationError(f"pool size must be positive, got {size}")
        self.size = int(size)
        self._children = [
            SupervisedChild(_pool_worker_main, name=f"repro-pool-worker-{slot}")
            for slot in range(self.size)
        ]
        # A task checks a child out for its duration.  Last in, first out:
        # sequential tasks stay on one warm child instead of spawning them all.
        self._idle: LifoQueue = LifoQueue()
        for child in reversed(self._children):
            self._idle.put(child)
        self._threads = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="repro-procslot"
        )

    @property
    def restarts(self) -> int:
        """Children replaced after a death, summed over the slots."""
        return sum(child.restarts for child in self._children)

    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn`` on a slot's child process and return its future."""
        return self._threads.submit(self._run_task, fn, args, kwargs)

    def submit_retrying(
        self, policy: RetryPolicy, fn: Callable[..., Any], *args: Any
    ) -> Future:
        """Retry parent-side: each attempt may land on a fresh child.

        The in-slot loop of the other pools would die with the child; here
        the same loop runs in the parent slot thread, so a
        :class:`~repro.exceptions.WorkerCrashedError` (child SIGKILLed
        mid-attempt) is retried like any other failure, on a respawned
        child, per the policy's backoff.
        """
        return self._threads.submit(
            _run_with_retries, policy, self._run_task, fn, args, {}
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop every child (politely, then by force) and release the slots.

        Child processes are always stopped synchronously — an abandoned
        child cannot outlive the pool the way an abandoned thread can —
        so ``wait=False`` only skips waiting for queued parent-side tasks.
        """
        self._threads.shutdown(wait=wait, cancel_futures=not wait)
        for child in self._children:
            child.close()

    def _run_task(self, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        child = self._idle.get()  # never waits long: as many children as threads
        try:
            return child.request((fn, args, kwargs))
        finally:
            self._idle.put(child)


_POOL_KINDS = {
    "serial": SerialWorkerPool,
    "thread": ThreadWorkerPool,
    "process": ProcessWorkerPool,
}


def make_pool(workers: int = 1, kind: str = "thread") -> WorkerPool:
    """Build a pool with ``workers`` slots.

    ``workers=1`` always returns a :class:`SerialWorkerPool` (whatever
    ``kind`` says): one slot admits no concurrency, and inline execution is
    strictly more deterministic.  Symmetrically, ``kind="serial"`` is serial
    at any ``workers`` — a single inline slot is the only size it comes in.

    Example::

        assert make_pool(1).kind == "serial"
        assert make_pool(4).kind == "thread"
        assert make_pool(4, kind="serial").kind == "serial"
        assert make_pool(2, kind="process").kind == "process"

    Raises:
        ConfigurationError: if ``workers`` is not positive or ``kind`` is
            unknown.
    """
    if workers <= 0:
        raise ConfigurationError(f"workers must be positive, got {workers}")
    if kind not in _POOL_KINDS:
        raise ConfigurationError(
            f"unknown pool kind {kind!r}; available: {sorted(_POOL_KINDS)}"
        )
    if workers == 1 or kind == "serial":
        return SerialWorkerPool()
    return _POOL_KINDS[kind](workers)
