"""One supervised child process: the lifecycle of a process pool slot.

Each :class:`~repro.runtime.pool.ProcessWorkerPool` slot owns one
persistent child.  Parent side, :class:`SupervisedChild`: lazy start with
a private duplex pipe → ``request`` → one wait that wakes on a reply *or*
the child's death → a :class:`~repro.exceptions.WorkerCrashedError` naming
the phase that failed → lazy restart → the one polite → ``terminate`` →
``kill`` stop.  Child side, :func:`_child_main`: adopt the parent's
environment, build the slot's handler once, then recv → handle → reply
until told to stop.

Children fork from one ``forkserver`` per parent process that has already
imported numpy, :mod:`repro.api` and the application's own modules (see
:func:`_context`), so a child start costs a fork, not an interpreter boot
plus imports (``spawn`` only where the platform has no forkserver).  The
start is warm, but what the child *sees* is what a ``spawn`` child sees:
the parent's current ``sys.path`` and working directory
(multiprocessing's own preparation data), its main module re-run as
``__mp_main__``, and its current ``os.environ`` (shipped with every start,
since the server's is frozen at the moment it booted).

Imports nothing from ``repro`` beyond the exception types: ``repro.runtime``
is a leaf package every other layer may build on.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import threading
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, List

from repro.exceptions import ReproError, WorkerCrashedError


def _reply(conn, tag: str, payload: Any) -> bool:
    """Send one ``(tag, payload)`` reply; ``False`` means the pipe is gone.

    A payload that cannot pickle is downgraded to a portable ``"err"``
    reply, so the parent is never left waiting and the child lives on.
    """
    try:
        data = ForkingPickler.dumps((tag, payload))
    except Exception as error:  # noqa: BLE001 - unpicklable payload
        text = f"reply could not cross the process boundary: {type(error).__name__}: {error}"
        data = ForkingPickler.dumps(("err", ReproError(text)))
    try:
        conn.send_bytes(data)
        return True
    except OSError:
        return False


def _app_modules() -> List[str]:
    """The modules of ``__main__``'s package that this process has imported.

    Only for a main module started as ``python -m pkg.mod`` (a script has
    no package to speak of): every module under the top-level package
    ``pkg`` already in ``sys.modules``, except the main module itself —
    preloaded under its own name, it would make runpy warn in every child
    that re-runs it.
    """
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    if spec is None:
        return []
    package = spec.name.partition(".")[0]
    return sorted(
        name for name, module in list(sys.modules.items())
        if module is not None and name != spec.name
        and (name == package or name.startswith(package + "."))
    )


@functools.lru_cache(maxsize=None)
def _context():
    """The start context of every supervised child, built on first use.

    ``fork`` from the parent would copy live threads' locks (spill managers,
    serve loops) into the child mid-flight.  The forkserver is a separate,
    single-threaded process that has only imported modules, so a child
    forked from it inherits no live threads or locks, and the imports are
    paid once per parent process instead of once per child.

    The server preloads numpy, :mod:`repro.api` and :func:`_app_modules` as
    they stand when it boots (modules imported later are not preloaded).
    It never imports the main module: a child still re-runs it as
    ``__mp_main__`` exactly as under ``spawn``, but the imports it makes
    from its own package are already done.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["numpy", "repro.api", *_app_modules()])
    return context


def _child_main(conn, setup: Callable[..., Callable], args: tuple, environ: dict) -> None:
    """A supervised child's whole life: set up once, then serve requests.

    ``environ`` is the parent's ``os.environ`` at start time; it replaces
    the child's before ``setup`` runs.  ``setup(*args)`` returns the
    handler (``message -> value``).  Replies are ``("ok", value)`` or
    ``("err", exception)``; a failing ``setup`` sends ``("failed", text)``
    and exits.  ``None``/EOF means stop.
    """
    os.environ.clear()
    os.environ.update(environ)
    try:
        handler = setup(*args)
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        _reply(conn, "failed", f"{type(error).__name__}: {error}")
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        try:
            tag, payload = "ok", handler(message)
        except BaseException as error:  # noqa: BLE001 - mirrored to the parent
            tag, payload = "err", error
        if not _reply(conn, tag, payload):
            break
    conn.close()


class SupervisedChild:
    """The parent side of one persistent child process.

    ``setup``/``args`` run in the child (they must pickle) and produce its
    request handler; ``name`` names the child process and its crash errors
    (``"worker process in slot 'repro-pool-worker-0'"``).  The first
    request goes straight into the pipe while the child boots.

    The child is started on first use and replaced, on the next request,
    after a death; whatever the parent gives up on it stops and reaps
    first.  A lock serialises lifecycle changes and sends but not the wait
    for a reply, so :meth:`close` can end a request in flight (its caller
    gets the crash error).  One request at a time is the pool's contract.

    Raises:
        WorkerCrashedError: from :meth:`request`, when the child died or
            failed its ``setup``.
        RuntimeError: from :meth:`request` after :meth:`close`.
    """

    def __init__(self, setup: Callable[..., Callable], args: tuple = (), *, name: str):
        self._setup = setup
        self._args = tuple(args)
        self.name = name
        self._lock = threading.RLock()
        self._process = None
        self._conn = None
        self._starts = 0
        self.closed = False

    @property
    def restarts(self) -> int:
        """How many times a dead child has been replaced."""
        return max(self._starts - 1, 0)

    def request(self, message: Any) -> Any:
        """Send one message; return the handler's value or raise its exception."""
        with self._lock:
            conn, process = self._ensure()
            try:
                conn.send(message)
            except OSError as error:
                raise self._give_up(process, f"died while idle ({error})")
        return self._await(conn, process, "died with a request in flight")

    def close(self, timeout: float = 2.0) -> None:
        """Stop the child for good (idempotent); later requests are refused."""
        with self._lock:
            self.closed = True
            self._reap(timeout)

    # ------------------------------------------------------------------ #
    def _ensure(self):
        if self.closed:
            raise RuntimeError(f"{self.name} is closed")
        if self._process is not None and self._process.is_alive():
            return self._conn, self._process
        self._reap(0.0)  # a child found dead while idle is reaped as it is replaced
        context = _context()
        conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_child_main,
            args=(child_conn, self._setup, self._args, dict(os.environ)),
            name=self.name,
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._conn, self._process = conn, process
        self._starts += 1
        return conn, process

    def _await(self, conn, process, died: str) -> Any:
        """The one liveness wait: wakes on a reply or on the child's death."""
        reply = None
        try:
            # Sentinel first: fds are polled in order, so once the child is
            # seen dead the pipe's state is final and a reply written just
            # before death is still delivered.
            if conn in wait([process.sentinel, conn]):
                reply = conn.recv()
        except (EOFError, OSError):
            pass  # the pipe closed under the wait: the child is gone
        if reply is None:
            raise self._give_up(process, died)
        tag, payload = reply
        if tag == "failed":
            raise self._give_up(process, f"failed during start-up: {payload}")
        if tag == "err":
            raise payload
        return payload

    def _give_up(self, process, what: str) -> WorkerCrashedError:
        """Stop and reap ``process``, then build its crash error."""
        with self._lock:
            if self._process is process:
                self._reap(0.0)
        return WorkerCrashedError(
            f"worker process in slot {self.name!r} (pid {process.pid}) {what} "
            f"(exitcode={process.exitcode}); the next request starts a fresh child"
        )

    def _reap(self, timeout: float) -> None:
        """Stop the current child, if any: ask, ``terminate``, ``kill``; close its pipe."""
        process, self._process = self._process, None
        conn, self._conn = self._conn, None
        if process is None:
            return
        try:
            conn.send(None)
        except OSError:
            pass
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(1.0)
        if process.is_alive():  # pragma: no cover - SIGKILL backstop
            process.kill()
            process.join(1.0)
        conn.close()
