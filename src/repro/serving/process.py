"""Process-based serving replicas: handle-free model specs + shared-memory IPC.

This module is the serving half of the process runtime (the trial half —
:class:`~repro.runtime.pool.ProcessWorkerPool` plus the snapshot
protocol — lives in :mod:`~repro.runtime.pool` and
:mod:`~repro.api.runtime.concurrent`).  Three pieces:

* :class:`ModelSpec` — a **handle-free** description of a servable model: a
  builder (a :mod:`repro.models.registry` name or a picklable callable) plus
  an optional registry address for the weights.  Specs pickle, so they are
  what crosses the process boundary instead of live models;
* weight transport is the registry's immutable ``.npz`` version itself:
  each child process ``mmap``\\ s the published archive read-only
  (:func:`~repro.training.checkpoint.map_checkpoint_parameters`), so N
  replicas of one model share **one** physical copy of the parameter bytes
  through the page cache — zero copies, zero pickled weights;
* :class:`ProcessReplica` — the parent-side client that looks exactly like
  a :class:`~repro.serving.replica.Replica` (``infer(arrays, pad_to)``,
  ``close()``, ``name``, ``is_spilled``) but executes every forward in a
  persistent child process.  Request and response arrays ship through two
  parent-owned :class:`multiprocessing.shared_memory` segments (grown on
  demand, reused across requests); only tiny metadata tuples travel over
  the control pipe.

The child's lifecycle — start, ready handshake, request/reply, crash,
respawn, stop — is the one :class:`~repro.runtime.child.SupervisedChild`
the process pool's slots also use; a replica is that child plus the two
segments, the grow exchange and a lock.  So fault containment is the
pool's: a child killed mid-request fails **only the in-flight
micro-batch**, with the typed :class:`~repro.exceptions.ReplicaCrashedError`,
and the replica respawns its child lazily on the next request.  Because
the parent owns both shared segments and unlinks them in ``close()``, a
dead child can never leak shared memory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, ReplicaCrashedError, ServingError
from repro.models.registry import create_model
from repro.runtime.child import SupervisedChild
from repro.serving.registry import ModelRegistry
from repro.serving.replica import Replica, request_rows
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.training.checkpoint import map_checkpoint_parameters
from repro.utils.serialization import probe_picklable

#: shared-memory layout: leaf arrays are aligned to cache-line multiples
_ALIGN = 64
#: initial size of each parent-owned segment (grown on demand, never shrunk)
_INITIAL_SEGMENT = 1 << 16


# --------------------------------------------------------------------------- #
# Handle-free model specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ModelSpec:
    """A picklable recipe for building one servable model in any process.

    ``builder`` is either a model name registered with
    :mod:`repro.models.registry` (the preferred, always-picklable spelling)
    or a picklable callable (a module-level function or
    ``functools.partial`` over one); ``kwargs`` are passed to it.  With
    ``registry_root``/``registry_name`` set, the built model's parameters
    come from that registry version — ``mmap_weights=True`` (default) maps
    the published archive read-only instead of copying it, so every process
    serving the same version shares one physical copy of the bytes.

    Example::

        spec = ModelSpec(builder="mlp-tiny",
                         registry_root=str(registry.root),
                         registry_name="winner", version=3)
        model = spec.build()   # in any process

    Raises:
        ConfigurationError: for a spec that cannot round-trip a process
            boundary or names a registry root without a model name.
    """

    builder: Union[str, Callable[..., Any]]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    registry_root: Optional[str] = None
    registry_name: Optional[str] = None
    version: Optional[int] = None
    mmap_weights: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.builder, str) and not callable(self.builder):
            raise ConfigurationError(
                f"ModelSpec.builder must be a registered model name or a "
                f"callable, got {type(self.builder).__name__}"
            )
        if self.registry_root is not None and self.registry_name is None:
            raise ConfigurationError(
                "ModelSpec names a registry_root but no registry_name to load"
            )
        problem = probe_picklable(self)
        if problem is not None:
            raise ConfigurationError(
                f"ModelSpec cannot cross a process boundary ({problem}); use a "
                "registered model name or a module-level builder function "
                "instead of a closure/lambda"
            )

    def build(self):
        """Construct the model (and attach its weights) in *this* process."""
        if isinstance(self.builder, str):
            model = create_model(self.builder, **dict(self.kwargs))
        else:
            model = self.builder(**dict(self.kwargs))
        if self.registry_root is not None:
            registry = ModelRegistry(self.registry_root)
            if self.mmap_weights:
                map_checkpoint_parameters(
                    model, registry.archive_path(self.registry_name, self.version)
                )
            else:
                registry.load(self.registry_name, model, version=self.version)
        model.eval()
        return model


# --------------------------------------------------------------------------- #
# Shared-memory array transport
# --------------------------------------------------------------------------- #
def _layout(leaves: List[Tuple[str, np.ndarray]]) -> Tuple[list, int]:
    """Assign aligned offsets to leaf arrays; return (fields, total_bytes)."""
    fields = []
    offset = 0
    for key, values in leaves:
        offset = -(-offset // _ALIGN) * _ALIGN
        fields.append((key, values.dtype.str, tuple(values.shape), offset))
        offset += values.nbytes
    return fields, max(offset, 1)

def _write_leaves(
    segment: shared_memory.SharedMemory,
    leaves: List[Tuple[str, np.ndarray]],
    fields: list,
) -> None:
    """Copy each leaf array into the segment at its assigned offset."""
    for (key, dtype, shape, offset), (_, values) in zip(fields, leaves):
        if values.nbytes == 0:
            continue
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
        view[...] = values


def _read_leaves(
    segment: shared_memory.SharedMemory, fields: list, copy: bool
) -> List[np.ndarray]:
    """Materialise leaf arrays back out of the segment.

    ``copy=False`` returns views (valid only while the segment is mapped
    and the writer does not reuse it — the child reads requests this way,
    under the one-request-in-flight protocol); ``copy=True`` detaches
    (the parent copies responses out before the next request reuses the
    segment).
    """
    leaves = []
    for _, dtype, shape, offset in fields:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
        leaves.append(view.copy() if copy else view)
    return leaves


class _OwnedSegment:
    """A parent-owned, grow-on-demand shared-memory segment."""

    def __init__(self):
        self.shm: Optional[shared_memory.SharedMemory] = None

    def ensure(self, nbytes: int) -> shared_memory.SharedMemory:
        """Return a segment of at least ``nbytes`` (recreating if needed)."""
        if self.shm is None or self.shm.size < nbytes:
            self.destroy()
            size = _INITIAL_SEGMENT
            while size < nbytes:
                size *= 2
            self.shm = shared_memory.SharedMemory(create=True, size=size)
        return self.shm

    def destroy(self) -> None:
        """Close and unlink the segment (the parent is the sole owner)."""
        if self.shm is None:
            return
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self.shm = None


def _flatten_output(payload: Any, leaves: List[Tuple[str, np.ndarray]]) -> Any:
    """Flatten ``Replica.infer`` output rows (array/nested tuple-or-list) to leaves.

    Returns a structure descriptor — ``"a"`` for a leaf, ``["t", [...]]`` /
    ``["l", [...]]`` for tuples/lists — that :func:`_rebuild_output`
    inverts on the parent side.
    """
    if isinstance(payload, np.ndarray):
        leaves.append((f"leaf{len(leaves)}", np.ascontiguousarray(payload)))
        return "a"
    if isinstance(payload, (tuple, list)):
        tag = "t" if isinstance(payload, tuple) else "l"
        return [tag, [_flatten_output(item, leaves) for item in payload]]
    raise ServingError(
        f"model produced an unsupported output type {type(payload).__name__}; "
        "serving supports tensors, arrays, and tuples/lists of them"
    )


def _rebuild_output(structure: Any, leaves: List[np.ndarray]) -> Any:
    """Invert :func:`_flatten_output` (consumes ``leaves`` left to right)."""
    if structure == "a":
        return leaves.pop(0)
    tag, children = structure
    rebuilt = [_rebuild_output(child, leaves) for child in children]
    return tuple(rebuilt) if tag == "t" else rebuilt


# --------------------------------------------------------------------------- #
# The replica child
# --------------------------------------------------------------------------- #
class _ReplicaHandler:
    """The child-side payload: forward one micro-batch per request.

    Requests (parent → child) are ``("infer", request_meta, pad_to,
    response_segment)`` per micro-batch and, after a grow request was
    granted, ``("write", new_segment)``.  The value sent back is the
    response metadata — or ``{"need": nbytes}`` when the response segment is
    too small, in which case the computed output is held until the parent's
    ``"write"``.

    The child's own recorder is drained into every response's metadata
    (``meta["events"]``, empty with telemetry off) — events ride the
    existing result channel, so a child killed mid-request ships nothing
    partial and the parent trace is never torn.
    """

    def __init__(self, model, telemetry):
        self.replica = Replica.resident(model)
        self.telemetry = telemetry
        self.segments: Dict[str, shared_memory.SharedMemory] = {}
        self.pending: Optional[tuple] = None  # an output awaiting a big-enough segment

    def _attach(self, name: str) -> shared_memory.SharedMemory:
        segment = self.segments.get(name)
        if segment is None:
            # Attach without adopting the lifecycle: supervised children share
            # the parent's resource tracker, so this duplicate registration is
            # a set-level no-op and the parent stays the sole owner (it unlinks
            # in ``close()``).  Deliberately *no* ``resource_tracker.unregister``:
            # with a shared tracker that would drop the parent's registration.
            segment = self.segments[name] = shared_memory.SharedMemory(name=name)
        return segment

    def __call__(self, message: tuple) -> Dict[str, Any]:
        if message[0] == "infer":
            _, meta, pad_to, response_name = message
            self.pending = self._forward(meta, pad_to)
        elif self.pending is None:
            raise ServingError(
                "no response is waiting for a segment: the child that computed "
                "it was replaced mid-exchange"
            )
        else:
            response_name = message[1]
        leaves, structure, fields, total = self.pending
        response = self._attach(response_name)
        if response.size < total:
            return {"need": total}
        _write_leaves(response, leaves, fields)
        self.pending = None
        return {
            "segment": response_name,
            "structure": structure,
            "fields": fields,
            "events": self.telemetry.drain(),
        }

    def _forward(self, meta: Dict[str, Any], pad_to: Optional[int]) -> tuple:
        """Pad, forward and slice *as* an in-process replica: ``Replica.infer``."""
        leaves_in = _read_leaves(self._attach(meta["segment"]), meta["fields"], copy=False)
        arrays = {key: values for (key, _, _, _), values in zip(meta["fields"], leaves_in)}
        with self.telemetry.span(
            "replica.forward", cat="serving", rows=request_rows(arrays)
        ):
            output = self.replica.infer(arrays, pad_to)
        leaves_out: List[Tuple[str, np.ndarray]] = []
        structure = _flatten_output(output, leaves_out)
        fields, total = _layout(leaves_out)
        return leaves_out, structure, fields, total


def _replica_child_main(spec: ModelSpec, telemetry_enabled: bool = False) -> _ReplicaHandler:
    """A replica child's ``setup``: build the model once, return its handler.

    Runs in a supervised child (see :mod:`~repro.runtime.child` for the
    loop around it and how it starts).  With ``telemetry_enabled`` the
    child keeps its own recorder; only that flag crossed the process
    boundary.
    """
    tel = Telemetry() if telemetry_enabled else NULL_TELEMETRY
    with tel.span("replica.build", cat="serving"):
        model = spec.build()
    return _ReplicaHandler(model, tel)


# --------------------------------------------------------------------------- #
# The parent-side client
# --------------------------------------------------------------------------- #
class ProcessReplica:
    """A replica whose forwards run in a persistent child process.

    Drop-in for :class:`~repro.serving.replica.Replica` wherever a server
    or router calls ``infer(arrays, pad_to)`` / ``close()``: the child is
    spawned lazily (or eagerly via :meth:`start`), builds its model from
    the :class:`ModelSpec` — mmapping registry weights read-only — and then
    answers micro-batches shipped through two reused shared-memory
    segments.

    One request is in flight per replica at a time (the internal lock
    serialises callers — matching how a thread replica occupies its serve
    loop).  If the child dies mid-request the caller gets
    :class:`~repro.exceptions.ReplicaCrashedError` and the *next* request
    respawns a fresh child; :attr:`restarts` counts those respawns.

    Raises:
        ConfigurationError: at construction, for a spec that cannot pickle.
        ReplicaCrashedError: from :meth:`infer`/:meth:`start`, when the
            child died with this request in flight, or failed (or timed
            out) building its model — the message says which.
        ServingError: from :meth:`infer`/:meth:`start` on a closed replica.
    """

    #: API parity with Replica: process replicas are never spill-managed —
    #: their memory story is the page cache, not a SpillManager
    manager = None

    def __init__(
        self,
        spec: ModelSpec,
        name: str = "replica",
        start: bool = False,
        telemetry=None,
    ):
        if not isinstance(spec, ModelSpec):
            raise ConfigurationError(
                f"ProcessReplica needs a ModelSpec, got {type(spec).__name__}; "
                "live models cannot cross a process boundary"
            )
        self.spec = spec
        self.name = name
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Only the flag crosses: a live recorder holds locks and cannot pickle.
        self._child = SupervisedChild(
            _replica_child_main,
            (spec, self._telemetry.enabled),
            name=f"repro-replica-{name}",
            label=f"replica {name!r} child process",
            error=ReplicaCrashedError,
            ready_timeout=120.0,
        )
        self._lock = threading.Lock()
        self._request = _OwnedSegment()
        self._response = _OwnedSegment()
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    @property
    def is_spilled(self) -> bool:
        """API parity with :class:`Replica`; process replicas never spill."""
        return False

    @property
    def pid(self) -> Optional[int]:
        """The live child's pid (``None`` before first use / after death)."""
        return self._child.pid

    @property
    def restarts(self) -> int:
        """How many times a dead child has been replaced."""
        return self._child.restarts

    def start(self) -> "ProcessReplica":
        """Spawn the child and wait for its model build (idempotent)."""
        with self._lock:
            self._check_open()
            self._child.start()
        return self

    def spill_stats(self) -> Dict[str, int]:
        """API parity with :class:`Replica`: no spill manager, no counters."""
        return {}

    # ------------------------------------------------------------------ #
    def infer(self, arrays: Dict[str, np.ndarray], pad_to: Optional[int] = None) -> Any:
        """Run one micro-batch in the child; same contract as ``Replica.infer``.

        The request's field arrays are copied into the request segment, the
        child pads/forwards/slices exactly like an in-process replica, and
        the response arrays are copied back out of the response segment —
        so the returned arrays are ordinary heap arrays owned by the
        caller.
        """
        with self._lock:
            self._check_open()
            leaves = [
                (key, np.ascontiguousarray(values))
                for key, values in sorted(arrays.items())
            ]
            fields, total = _layout(leaves)
            request = self._request.ensure(total)
            _write_leaves(request, leaves, fields)
            response = self._response.ensure(_INITIAL_SEGMENT)
            meta = {"segment": request.name, "fields": fields}
            reply = self._child.request(("infer", meta, pad_to, response.name))
            if "need" in reply:
                response = self._response.ensure(reply["need"])
                reply = self._child.request(("write", response.name))
            self._telemetry.ingest(reply["events"])
            leaves_out = _read_leaves(response, reply["fields"], copy=True)
            return _rebuild_output(reply["structure"], leaves_out)

    def close(self) -> None:
        """Stop the child and unlink both shared segments (idempotent)."""
        with self._lock:
            self._child.close()
            self._request.destroy()
            self._response.destroy()

    def _check_open(self) -> None:
        if self._child.closed:
            raise ServingError(f"replica {self.name!r} is closed")

    def __enter__(self) -> "ProcessReplica":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.pid is not None else "cold"
        return f"ProcessReplica({self.name!r}, {state}, restarts={self.restarts})"
