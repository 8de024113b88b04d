"""The shard residency state machine: resident → evicting → evicted → prefetching.

A :class:`SpillManager` tracks one :class:`ShardResidency` record per
``(model_id, shard_index)`` key.  Executors *lease* a shard around every use
(forward, loss, backward+update); between leases a shard is fair game for
eviction, which releases its :class:`~repro.memory.arena.DeviceArena` charge
and leaves its parameter and optimizer-state bytes as a host copy on the
record itself (:attr:`ShardResidency.host`).  Re-acquiring an evicted
shard restores the exact bytes in place (``np.copyto`` into the live
arrays), so spilled training is bit-identical to fully-resident training —
the same exactness bar the fused kernels meet.

Eviction moves bytes only when they changed.  The host copy outlives the
restore, and each record carries a *dirty* bit: set at (re-)registration
and by every writing lease (``write=True``, the default — the optimizer's
``step_params`` runs under one), cleared once the host copy matches the live
arrays again.  Evicting a dirty shard writes its live arrays back into the host copy
(allocated on the shard's first dirty eviction, reused after); evicting a
clean one (say, after forward-only leases) is a ledger change, counted in
:attr:`SpillStats.clean_evictions`.  The copy lives and dies with its
record: :meth:`SpillManager.forget` restores from it and drops both, and a
re-registration restores from it and drops it (or, when the old arrays
cannot take it, keeps it for the new ones — the repair of a broken shard).

Eviction follows the announced schedule.  Executors
:meth:`SpillManager.announce` each batch's access sequence and every acquire
consumes its hop; the victim is the shard whose next announced use is
furthest away (Belady's rule on the declared schedule).  A shard with no announced use — its model is between
batches, or its caller announces nothing — is the ideal victim, and among
those the least recently used goes first.

With ``prefetch=True`` the manager owns a 1-thread transfer worker and keeps
one transfer in flight, so the copy of the shard a caller names overlaps the
current shard's compute (numpy's large array copies release the GIL).  Which
shard comes next is the caller's knowledge: an executor names its own next
shard, and the shard-parallel trainer names the next slot of its sweep.
A dirty shard that a prefetch evicts to make room enters ``EVICTING``: its
arena charge is released at once, and the same transfer job writes it back
to host (and scrubs it) before it restores the prefetched shard — neither
copy runs under the lock or on the caller's thread.  Acquires,
registrations and forgets of a shard in transfer (``EVICTING`` or
``PREFETCHING``) wait for it; an acquire that waits counts as
:attr:`SpillStats.prefetch_late`.

The worker only overlaps its caller if the two run on different CPUs.  A
thread that drives spilled training runs its call inside
:meth:`SpillManager.driving`: when the split pays — one such thread, two
or more CPUs, single-threaded BLAS, not a pool worker; the rule lives in
:func:`repro.runtime.placement.split_cpus` — the worker is pinned to the
last CPU and the driver runs on the others.  Other callers (serving, a
lone executor) leave every mask alone.

The manager is thread-safe: under the concurrent runtime several trials
share the same arenas, and an acquire that cannot make room (everything
else pinned) waits on a condition until pins or prefetches clear — with a
timeout that turns a would-be deadlock into a loud
:class:`~repro.exceptions.MemoryBudgetError`.  That condition's one lock
guards every record, ledger charge and the in-flight transfer slot; a
prefetch claims the slot under it, and :meth:`SpillManager.close` waits for
the slot to clear before it shuts the transfer worker down.
"""

from __future__ import annotations

import enum
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, MemoryBudgetError
from repro.memory.arena import DeviceArena
from repro.runtime.placement import split_cpus
from repro.runtime.pool import ThreadWorkerPool
from repro.telemetry import NULL_TELEMETRY

#: ``(model_id, shard_index)`` — the key of one managed shard
ShardKey = Tuple[str, int]

#: returns the live device-side arrays of a shard (params + optimizer state),
#: in a stable order — re-evaluated at each stash/restore
ArraysFn = Callable[[], List[np.ndarray]]


class ResidencyState(str, enum.Enum):
    """Where a shard's bytes currently live."""

    RESIDENT = "resident"
    #: off the arena ledger; the transfer worker is writing it back to host
    EVICTING = "evicting"
    EVICTED = "evicted"
    PREFETCHING = "prefetching"


#: states whose bytes the transfer worker is moving; leases, registrations
#: and forgets wait them out
_IN_TRANSFER = (ResidencyState.PREFETCHING, ResidencyState.EVICTING)
#: states charged to an arena
_CHARGED = (ResidencyState.RESIDENT, ResidencyState.PREFETCHING)


@dataclass
class ShardResidency:
    """Book-keeping for one registered shard (internal to the manager)."""

    key: ShardKey
    device: str
    nbytes: int
    arrays_fn: ArraysFn
    state: ResidencyState = ResidencyState.EVICTED
    pins: int = 0
    last_use: int = 0
    #: a failed prefetch or deferred write-back, raised by the next acquire
    transfer_error: Optional[BaseException] = None
    #: the live arrays may differ from the host copy (or there is none)
    dirty: bool = True
    #: copies of the arrays as of the last dirty eviction; ``None`` until the
    #: first one, after a re-registration and after a failed write-back (the
    #: live arrays are then the only, canonical, bytes)
    host: Optional[List[np.ndarray]] = field(default=None, repr=False, compare=False)


@dataclass
class SpillStats:
    """Counters the spill manager accumulates (see ``docs/memory.md``)."""

    demand_fetches: int = 0
    prefetches_issued: int = 0
    prefetches_completed: int = 0
    #: arena releases; ``clean_evictions`` of them copied nothing
    evictions: int = 0
    clean_evictions: int = 0
    bytes_fetched: int = 0
    bytes_evicted: int = 0
    acquire_waits: int = 0
    #: acquires that found their shard in transfer (landing, or being
    #: written back after a prefetch evicted it) and waited for it
    prefetch_late: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and benchmarks)."""
        return dict(vars(self))


# --------------------------------------------------------------------------- #
# The manager
# --------------------------------------------------------------------------- #
class SpillManager:
    """Owns shard residency across a set of device arenas (see module docstring).

    Example::

        manager = SpillManager({"dev0": 64 << 20})
        manager.register(("mlp", 0), "dev0", nbytes, arrays_fn)
        with manager.lease(("mlp", 0)):
            ...  # shard is resident and pinned
        manager.close()

    The manager builds everything it runs on: one :class:`DeviceArena` per
    ``{name: bytes}`` entry of ``budgets`` and, with ``prefetch=True``, the
    transfer worker that
    :meth:`close` shuts down (placed beside the thread in :meth:`driving`).
    Evicted shards' host copies live on their :class:`ShardResidency`
    records.

    ``scrub_evicted=True`` fills evicted float arrays with NaN after
    stashing them — any use that skips re-acquisition then fails loudly
    instead of silently training on stale weights (the exactness tests run
    with this on).

    Raises:
        ConfigurationError: on empty budgets, unknown arenas/keys or
            invalid registration.
        MemoryBudgetError: when a shard cannot fit its arena, or an acquire
            times out waiting for pinned occupants to clear.
    """

    def __init__(
        self,
        budgets: Dict[str, int],
        *,
        prefetch: bool = False,
        scrub_evicted: bool = False,
        acquire_timeout_seconds: float = 60.0,
        telemetry=None,
    ):
        if not budgets:
            raise ConfigurationError("a SpillManager needs at least one arena")
        self.arenas: Dict[str, DeviceArena] = {
            name: DeviceArena(name, nbytes) for name, nbytes in budgets.items()
        }
        self.scrub_evicted = bool(scrub_evicted)
        self.acquire_timeout_seconds = float(acquire_timeout_seconds)
        self.stats = SpillStats()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._records: Dict[ShardKey, ShardResidency] = {}
        #: entered directly (a C-level lock) on the lease path; waits and
        #: notifications go through the condition built on it
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._clock = 0
        #: each model's announced access sequence, consumed by its acquires
        self._upcoming: Dict[str, Deque[ShardKey]] = {}
        #: the transfer worker (``None`` without prefetch or once closed) and
        #: whether its one transfer slot is taken — both under ``_lock``
        self._pool: Optional[ThreadWorkerPool] = ThreadWorkerPool(1) if prefetch else None
        self._inflight = False

    @contextmanager
    def driving(self) -> Iterator[None]:
        """Run the block as the thread whose compute the transfers overlap.

        With a transfer worker, the block runs under
        :func:`~repro.runtime.placement.split_cpus`: the worker on a CPU
        of its own, the calling thread on the rest, when the split applies;
        every mask is back on exit.  Without a worker it just runs.
        """
        if self._pool is None:
            yield
            return
        with split_cpus(self._pin_transfers):
            yield

    def _pin_transfers(self, mask: Set[int]) -> None:
        # Queued on the one transfer thread, so every transfer submitted
        # after it runs under ``mask``.  Under the lock, so close() cannot
        # shut the pool down between the check and the submit.
        with self._lock:
            if self._pool is not None:
                self._pool.submit(os.sched_setaffinity, 0, mask)

    def bind_telemetry(self, telemetry, name: str = "spill") -> None:
        """Attach a recorder after construction and publish residency metrics.

        Registers a collector named ``name`` whose snapshot folds the
        :class:`SpillStats` counters together with the live
        ``resident_bytes``/``registered_bytes`` occupancy — the absorption
        path for components (backends, routers) that build their manager
        before telemetry is wired in.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            self.telemetry.register_collector(
                name,
                lambda: {
                    **self.stats.as_dict(),
                    "resident_bytes": self.resident_bytes(),
                    "registered_bytes": self.registered_bytes(),
                },
            )

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    @property
    def arena_names(self) -> List[str]:
        """Arena names in registration order (index ``i`` = device ``i``)."""
        return list(self.arenas)

    def register(self, key: ShardKey, device: str, nbytes: int, arrays_fn: ArraysFn) -> None:
        """Register (or re-register) a shard with its device and byte size.

        Re-registration is how resumed trials re-attach: the arrays callback
        is refreshed, a device change (a later cohort placing the model
        differently) first evicts the shard from its old arena, and the
        shard is marked dirty — the new arrays may hold new bytes.  An
        evicted shard's host copy is first restored into the arrays it was
        registered with (as :meth:`forget` does), then dropped, so it can
        never be copied over the new ones.  If that restore raises (the old
        ``arrays_fn`` broke), the copy is kept and the next acquire restores
        it through the new ``arrays_fn``: re-registering a broken shard with
        a working accessor is how it is repaired.  A shard starts
        ``EVICTED`` — conceptually host-resident — and is charged to its
        arena on first acquire.
        """
        if device not in self.arenas:
            raise ConfigurationError(
                f"unknown arena {device!r}; manager has {self.arena_names}"
            )
        if nbytes < 0:
            raise ConfigurationError(f"shard size must be non-negative, got {nbytes}")
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self._records[key] = ShardResidency(
                    key=key, device=device, nbytes=int(nbytes), arrays_fn=arrays_fn
                )
                return
            # Let any in-flight transfer land before rewriting the record —
            # re-routing device/nbytes/arrays_fn under a live copy would
            # corrupt the arena ledgers (and the copy itself).
            self._wait_out_transfer_locked(record)
            if record.pins > 0:
                raise ConfigurationError(f"cannot re-register pinned shard {key!r}")
            if record.device != device or record.nbytes != nbytes:
                if record.state is ResidencyState.RESIDENT:
                    self._evict_locked(record)
                record.device = device
                record.nbytes = int(nbytes)
            try:
                if record.state is ResidencyState.EVICTED:
                    self._copy_into_live_arrays(record, record.host)
                record.host = None
            except Exception:  # noqa: BLE001 - the copy stays for the new arrays
                pass
            record.arrays_fn = arrays_fn
            record.dirty = True

    def forget(self, key: ShardKey) -> None:
        """Drop a shard from management, restoring its bytes first.

        An evicted shard's canonical values live in its host copy; they are
        copied back into the live arrays so the model object remains valid
        after the manager lets go (e.g. at trial teardown).  The host copy
        goes with the record.  If that restore raises (a broken
        ``arrays_fn``), the shard stays registered with its copy: repair it
        by re-registering (see :meth:`register`) and forget it again.
        """
        with self._lock:
            record = self._records.get(key)
            if record is None:
                return
            self._wait_out_transfer_locked(record)
            # Checked *after* any wait: another thread may have pinned the
            # shard the moment its transfer finished.
            if record.pins > 0:
                raise ConfigurationError(f"cannot forget pinned shard {key!r}")
            if record.state is ResidencyState.RESIDENT:
                self.arenas[record.device].release(self._arena_key(record))
            else:
                self._copy_into_live_arrays(record, record.host)
            del self._records[key]
            self._cond.notify_all()

    def forget_model(self, model_id: str) -> None:
        """Forget every shard of ``model_id`` and drop its schedule.

        Raises what :meth:`forget` raises, with the shards before the
        failing one already forgotten; call it again after the repair.
        """
        with self._lock:
            for key in [k for k in self._records if k[0] == model_id]:
                self.forget(key)
            self._upcoming.pop(model_id, None)

    def registered(self) -> List[ShardKey]:
        """Keys currently under management."""
        with self._lock:
            return sorted(self._records)

    def residency(self, key: ShardKey) -> ResidencyState:
        """The shard's current residency state.

        Read without the lock: a single state read is a snapshot either way,
        and what a caller does with it (:meth:`prefetch`, :meth:`acquire`)
        checks the state again under the lock.
        """
        return self._record(key).state

    def resident_keys(self) -> List[ShardKey]:
        """Keys whose bytes are currently on a device (resident or landing).

        ``PREFETCHING`` shards count: their arena charge is already taken,
        so for occupancy purposes they are on-device; ``EVICTING`` shards
        have handed theirs back and do not.  Used by the serving router to
        report which whole models are hot.
        """
        with self._lock:
            return sorted(
                record.key
                for record in self._records.values()
                if record.state in _CHARGED
            )

    def resident_bytes(self) -> int:
        """Total bytes currently charged to arenas by managed shards."""
        with self._lock:
            return sum(
                record.nbytes
                for record in self._records.values()
                if record.state in _CHARGED
            )

    def registered_bytes(self) -> int:
        """Total bytes under management, resident or not.

        When this exceeds the arenas' combined capacity the working set is
        over-committed — exactly the regime spilling exists for; the ratio
        is the router's head-line residency metric.
        """
        with self._lock:
            return sum(record.nbytes for record in self._records.values())

    # ------------------------------------------------------------------ #
    # Leasing
    # ------------------------------------------------------------------ #
    def acquire(self, key: ShardKey, *, write: bool = True) -> None:
        """Pin the shard, restoring it from host first if necessary.

        ``write=True`` (the default, always safe) marks the shard dirty, so
        its next eviction copies it to host; a caller that only reads the
        shard's arrays while pinned passes ``write=False``.  Blocks while
        other occupants are pinned or the shard is in transfer; raises
        :class:`MemoryBudgetError` after ``acquire_timeout_seconds``.
        """
        deadline = time.monotonic() + self.acquire_timeout_seconds
        late = False
        with self._lock:
            record = self._record(key)
            while True:
                if record.transfer_error is not None:
                    # A failed transfer lost nothing (a failed prefetch
                    # leaves the host copy canonical, a failed write-back
                    # the live arrays); surface the error to the user
                    # instead of silently demand-fetching around it.
                    error = record.transfer_error
                    record.transfer_error = None
                    raise error
                if record.state is ResidencyState.RESIDENT:
                    record.pins += 1
                    if write:
                        record.dirty = True
                    self._note_use(record)
                    return
                if record.state in _IN_TRANSFER:
                    if not late:
                        late = True
                        self.stats.prefetch_late += 1
                    self._wait_locked(deadline, key)
                    continue
                arena = self.arenas[record.device]
                if record.nbytes > arena.capacity_bytes:
                    raise MemoryBudgetError(
                        f"shard {key!r} needs {record.nbytes} bytes but arena "
                        f"{arena.name!r} holds only {arena.capacity_bytes}"
                    )
                if not self._make_room_locked(record, arena):
                    self.stats.acquire_waits += 1
                    self._wait_locked(deadline, key)
                    continue
                arena.allocate(self._arena_key(record), record.nbytes)
                try:
                    with self.telemetry.span(
                        "spill.fetch", cat="memory", key=str(key), bytes=record.nbytes
                    ):
                        self._restore_locked(record)
                except BaseException:
                    # The shard stays evicted with its host copy; hand the
                    # charge back so a repaired shard can be fetched again.
                    arena.release(self._arena_key(record))
                    raise
                record.state = ResidencyState.RESIDENT
                record.pins += 1
                if write:
                    record.dirty = True
                self._note_use(record)
                self.stats.demand_fetches += 1
                self.stats.bytes_fetched += record.nbytes
                self._cond.notify_all()
                return

    def release(self, key: ShardKey) -> None:
        """Unpin the shard (it stays resident until pressure evicts it)."""
        with self._lock:
            record = self._record(key)
            if record.pins <= 0:
                raise ConfigurationError(f"release without acquire for shard {key!r}")
            record.pins -= 1
            if record.pins == 0:
                self._cond.notify_all()

    @contextmanager
    def lease(self, key: ShardKey, *, write: bool = True) -> Iterator[None]:
        """``with manager.lease(key):`` — acquire on entry, release on exit.

        Any caller that mutates the shard's arrays inside the lease must
        keep the default ``write=True`` (see :meth:`acquire`).  The
        ``spill.lease`` span covers the acquire too: a failed acquire or a
        raising body ends it with the exception's type as its ``error``.
        """
        tel = self.telemetry
        token = tel.begin("spill.lease", cat="memory", key=str(key))
        try:
            self.acquire(key, write=write)
            try:
                yield
            finally:
                self.release(key)
        except BaseException as error:
            if token is not None:
                token.attrs["error"] = type(error).__name__
            raise
        finally:
            tel.end(token)

    def announce(self, model_id: str, sequence: Sequence[ShardKey]) -> None:
        """Replace ``model_id``'s upcoming access sequence (see module docstring).

        Each acquire of one of the model's shards consumes that shard's
        first announced occurrence.
        """
        with self._lock:
            self._upcoming[model_id] = deque(sequence)

    # ------------------------------------------------------------------ #
    # Prefetch
    # ------------------------------------------------------------------ #
    def prefetch(self, key: ShardKey) -> bool:
        """Start an async restore of an evicted shard; ``True`` if begun.

        Opportunistic: returns ``False`` (without waiting) when the manager
        has no transfer worker (built without prefetch, or closed), a
        transfer is already in flight, the shard is not evicted, or room
        cannot be made without touching pinned shards.  Dirty shards evicted
        to make room are written back by the same transfer, before the
        restore (``EVICTING`` until then).  The transfer overlaps the
        caller's compute; a later :meth:`acquire` joins on it.
        """
        victims: List[ShardResidency] = []
        with self._lock:
            if self._pool is None or self._inflight:
                return False
            record = self._records.get(key)
            if record is None or record.state is not ResidencyState.EVICTED:
                return False
            arena = self.arenas[record.device]
            if record.nbytes > arena.capacity_bytes:
                return False
            if not self._make_room_locked(record, arena, victims):
                return False
            arena.allocate(self._arena_key(record), record.nbytes)
            record.state = ResidencyState.PREFETCHING
            record.transfer_error = None
            self.stats.prefetches_issued += 1
            self._inflight = True
            pool, payload = self._pool, record.host
        # Handed over after the lock is released: submitting under it
        # measurably delays the lock's other users (serve_fleet p50).  The
        # claimed slot keeps close() from shutting the pool down first.
        pool.submit(self._transfer, record, payload, victims)
        return True

    def _transfer(
        self,
        record: ShardResidency,
        payload: Optional[List[np.ndarray]],
        victims: List[ShardResidency],
    ) -> None:
        # Runs on the transfer thread: each copy outside the lock, each
        # outcome published in one locked block.  An EVICTING victim is
        # touched by nothing else until it is published EVICTED.
        for victim in victims:
            failure: Optional[BaseException] = None
            try:
                with self.telemetry.span(
                    "spill.evict", cat="memory", key=str(victim.key), bytes=victim.nbytes
                ):
                    self._write_back(victim)
            except BaseException as exc:  # noqa: BLE001 - surfaced by the next acquire
                failure = exc
            with self._lock:
                victim.transfer_error = failure
                victim.state = ResidencyState.EVICTED
                self._cond.notify_all()
        error: Optional[BaseException] = None
        try:
            with self.telemetry.span(
                "spill.prefetch", cat="memory", key=str(record.key), bytes=record.nbytes
            ):
                self._copy_into_live_arrays(record, payload)
        except BaseException as exc:  # noqa: BLE001 - surfaced by the next acquire
            error = exc
        with self._lock:
            self._inflight = False
            if error is None:
                record.state = ResidencyState.RESIDENT
                record.dirty = payload is None
                self.stats.prefetches_completed += 1
                self.stats.bytes_fetched += record.nbytes
            else:
                # Keep the error to re-raise at the next acquire — a silent
                # failure here would train on stale weights.  The host copy
                # is still on the record, so a repaired shard can restore.
                record.transfer_error = error
                self.arenas[record.device].release(self._arena_key(record))
                record.state = ResidencyState.EVICTED
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the transfer worker (if any), after a transfer in flight.

        Safe to call repeatedly.  Afterwards :meth:`prefetch` returns
        ``False`` before staging anything and acquires demand-fetch.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            # A prefetch that claimed the slot submits after releasing the
            # lock; its transfer finishes before the pool goes away.
            self._cond.wait_for(lambda: not self._inflight, self.acquire_timeout_seconds)
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def evict(self, key: ShardKey) -> None:
        """Explicitly push one unpinned resident shard to host (mostly for tests)."""
        with self._lock:
            record = self._record(key)
            if record.state is not ResidencyState.RESIDENT:
                raise ConfigurationError(f"shard {key!r} is not resident")
            if record.pins > 0:
                raise ConfigurationError(f"cannot evict pinned shard {key!r}")
            self._evict_locked(record)
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Internals (call with the condition's lock held)
    # ------------------------------------------------------------------ #
    def _record(self, key: ShardKey) -> ShardResidency:
        record = self._records.get(key)
        if record is None:
            raise ConfigurationError(f"shard {key!r} is not registered")
        return record

    @staticmethod
    def _arena_key(record: ShardResidency) -> str:
        model_id, shard_index = record.key
        return f"{model_id}/shard{shard_index}/resident"

    def _note_use(self, record: ShardResidency) -> None:
        self._clock += 1
        record.last_use = self._clock
        queue = self._upcoming.get(record.key[0])
        if queue:
            try:
                queue.remove(record.key)
            except ValueError:
                pass

    def _next_use(self, key: ShardKey) -> float:
        queue = self._upcoming.get(key[0])
        if queue:
            for position, upcoming in enumerate(queue):
                if upcoming == key:
                    return float(position)
        return float("inf")

    def _wait_locked(self, deadline: float, key: ShardKey) -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not self._cond.wait(timeout=remaining):
            pinned = [
                r.key for r in self._records.values() if r.pins > 0
            ]
            raise MemoryBudgetError(
                f"timed out waiting to make {key!r} resident; pinned shards: "
                f"{pinned or 'none'} — the budget is too tight for the "
                f"concurrent working set"
            )

    def _wait_out_transfer_locked(self, record: ShardResidency) -> None:
        deadline = time.monotonic() + self.acquire_timeout_seconds
        while record.state in _IN_TRANSFER:
            self._wait_locked(deadline, record.key)

    def _make_room_locked(
        self,
        record: ShardResidency,
        arena: DeviceArena,
        deferred: Optional[List[ShardResidency]] = None,
    ) -> bool:
        """Evict unpinned resident shards until ``record`` fits.

        ``False``, evicting nothing, when even every candidate would not
        make room.  With ``deferred`` (a prefetch's list), dirty victims
        are only released to ``EVICTING`` and appended, for the transfer
        job to write back; clean ones are evicted here, as they copy nothing.
        """
        candidates = [
            r
            for r in self._records.values()
            if r is not record
            and r.device == record.device
            and r.state is ResidencyState.RESIDENT
            and r.pins == 0
        ]
        if record.nbytes > arena.free_bytes + sum(r.nbytes for r in candidates):
            return False
        while record.nbytes > arena.free_bytes:
            # Needed furthest in the future, then least recently used.
            victim = max(
                candidates, key=lambda r: (self._next_use(r.key), -r.last_use, r.key)
            )
            candidates.remove(victim)
            if deferred is not None and victim.dirty:
                self._release_locked(victim, ResidencyState.EVICTING)
                deferred.append(victim)
            else:
                self._evict_locked(victim)
        return True

    def _evict_locked(self, record: ShardResidency) -> None:
        # The demand path (acquire, evict, register): a dirty shard's copy to
        # host is made here, under the manager lock — one memcpy.  Dirty
        # victims of a prefetch skip this: the transfer worker copies them,
        # off the lock, while they are EVICTING.  A clean shard already has
        # its bytes on host and copies nothing.
        with self.telemetry.span(
            "spill.evict", cat="memory", key=str(record.key), bytes=record.nbytes
        ):
            if not record.dirty:
                self.stats.clean_evictions += 1
            self._write_back(record)
            self._release_locked(record, ResidencyState.EVICTED)

    def _release_locked(self, record: ShardResidency, state: ResidencyState) -> None:
        self.arenas[record.device].release(self._arena_key(record))
        record.state = state
        self.stats.evictions += 1
        self.stats.bytes_evicted += record.nbytes

    def _write_back(self, record: ShardResidency) -> None:
        # The one copy to host, called by _evict_locked (under the lock) and
        # by the transfer job (for an EVICTING shard, nobody else's).  A dirty
        # shard's live arrays go into its host copy — in place, once the
        # first eviction has allocated it; the copy is detached meanwhile,
        # so a failure leaves ``host=None`` and the live arrays canonical.
        # The scrub runs only after a complete copy.
        arrays = record.arrays_fn()
        if record.dirty:
            host, record.host = record.host, None
            if host is None:
                host = [np.array(a, copy=True) for a in arrays]
            else:
                for stored, live in self._paired(record, host, arrays):
                    np.copyto(stored, live, casting="no")
            record.host = host
            record.dirty = False
        if self.scrub_evicted:
            for array in arrays:
                if np.issubdtype(array.dtype, np.floating):
                    array.fill(np.nan)

    def _restore_locked(self, record: ShardResidency) -> None:
        self._copy_into_live_arrays(record, record.host)
        record.dirty = record.host is None

    @staticmethod
    def _copy_into_live_arrays(
        record: ShardResidency, payload: Optional[List[np.ndarray]]
    ) -> None:
        if payload is None:
            # First fetch: the live arrays already hold the canonical values
            # (models are built in host memory); only the ledger changes.
            return
        for stored, live in SpillManager._paired(record, payload, record.arrays_fn()):
            np.copyto(live, stored, casting="no")

    @staticmethod
    def _paired(
        record: ShardResidency, host: List[np.ndarray], live: List[np.ndarray]
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        if len(live) != len(host):
            raise ConfigurationError(
                f"shard {record.key!r}: stash holds {len(host)} arrays but the "
                f"live shard exposes {len(live)} — arrays_fn must be stable "
                "across an eviction"
            )
        return zip(host, live)

    def __repr__(self) -> str:
        with self._lock:
            resident = sum(
                1 for r in self._records.values() if r.state is ResidencyState.RESIDENT
            )
            return (
                f"SpillManager({len(self._records)} shards, {resident} resident, "
                f"arenas={self.arena_names})"
            )
