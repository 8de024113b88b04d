"""Invariants of the spill manager under random operation sequences.

A hypothesis state machine drives one :class:`~repro.memory.SpillManager`
(1–2 arenas, 2–5 float32 shards no larger than the smallest arena,
``scrub_evicted=True``, ``prefetch=True``) through register / acquire /
release / lease-and-write / lease-and-read (``write=False``) / prefetch /
evict / forget (after which the shard's owner writes it, as a model used
outside the manager would) / re-register on the other arena / re-register
with new arrays (a rebuilt model, read onto its device first and evicted
after) / close, plus an acquire from a second thread that must wake when
the machine's pins go.  A prefetch that evicts a dirty shard leaves it
``EVICTING`` until the transfer worker has written it back; the machine
counts that state as off-device throughout.  After every step it checks
what spilled training relies on:

* each arena's ``used_bytes`` is within its capacity and equals the bytes of
  its ``RESIDENT`` and ``PREFETCHING`` shards (an ``EVICTING`` shard's
  charge went back when it was claimed);
* a pinned shard is ``RESIDENT`` (so it was never evicted), and every
  resident shard — every leased one in particular — holds exactly the
  expected values: scrub NaNs are never visible through a lease;
* the residency states partition the registered keys into on-device
  (``resident_keys``) and off-device (``EVICTED`` or ``EVICTING``);
* every ``EVICTED`` shard that has been on a device since it was
  registered is all NaN (the scrub runs on clean evictions too, and after
  a deferred write-back's copy);
* the ``SpillStats`` counters are monotone;
* ``bytes_fetched - bytes_evicted`` equals the resident bytes plus the bytes
  the machine forgot while resident;
* an explicit eviction is clean (``clean_evictions`` rises, nothing is
  copied) exactly when the shard's host copy exists and no writing lease or
  registration touched it since that copy was made.  The machine models
  this itself from the residency it observes: any eviction leaves a current
  host copy, and a restore from it makes the live arrays current again.

The manager's own lock is held while an invariant reads, so a transfer
finishing on the worker thread cannot tear the snapshot.  Threaded tests
follow: a ``close()`` that arrives between a prefetch claiming the
transfer slot and submitting its job lets that restore land; with the
transfer job held back, an ``EVICTING`` shard is never chosen as a victim
again and an acquire of it waits for its write-back; and several threads,
each holding at most one pin, lease and write shards on shared arenas —
every acquire returns, and the values are exact afterwards.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import ConfigurationError
from repro.memory import ResidencyState, SpillManager

FLOAT = np.dtype(np.float32).itemsize
DEVICES = ("dev0", "dev1")
#: long enough that a correct manager never times out on a loaded machine;
#: a waiter that is never woken fails after this long
WAIT_SECONDS = 5.0
#: states whose arena charge is held (the rest are off-device)
CHARGED = (ResidencyState.RESIDENT, ResidencyState.PREFETCHING)
OFF_DEVICE = (ResidencyState.EVICTED, ResidencyState.EVICTING)


def _settle(manager: SpillManager) -> None:
    """Wait until no transfer is in flight (the machine issues no new ones)."""
    deadline = time.monotonic() + WAIT_SECONDS
    while any(
        manager.residency(key) in (ResidencyState.PREFETCHING, ResidencyState.EVICTING)
        for key in manager.registered()
    ):
        assert time.monotonic() < deadline, "a transfer never finished"
        time.sleep(1e-4)


class SpillMachine(RuleBasedStateMachine):
    @initialize(
        capacities=st.lists(st.integers(4, 12), min_size=1, max_size=2),
        sizes=st.lists(st.integers(1, 12), min_size=2, max_size=5),
        placement=st.lists(st.integers(0, 1), min_size=5, max_size=5),
    )
    def build(self, capacities, sizes, placement):
        self.capacity = {
            name: floats * FLOAT for name, floats in zip(DEVICES, capacities)
        }
        self.manager = SpillManager(
            self.capacity, prefetch=True, scrub_evicted=True,
            acquire_timeout_seconds=WAIT_SECONDS,
        )
        smallest = min(capacities)
        self.keys = [("m", index) for index in range(len(sizes))]
        self.live = {}        # key -> the shard's one live array
        self.expected = {}    # key -> the values a lease must see
        self.device = {}      # key -> arena, for registered keys
        self.pins = {}        # key -> pins the machine holds
        self.on_device = {}   # key -> non-EVICTED when last observed
        self.has_copy = {}    # key -> evicted since it was registered
        self.written = {}     # key -> written or registered since its host copy
        for index, (key, floats) in enumerate(zip(self.keys, sizes)):
            values = np.arange(min(floats, smallest), dtype=np.float32) + 10 * index
            self.live[key] = values.copy()
            self.expected[key] = values
            self.pins[key] = 0
            self._register(key, DEVICES[placement[index] % len(self.capacity)])
        self.forgotten_resident_bytes = 0
        self.closed = False
        self.last_stats = self.manager.stats.as_dict()

    def teardown(self):
        self.manager.close()

    # ------------------------------------------------------------------ #
    def _nbytes(self, key):
        return self.live[key].nbytes

    def _register(self, key, device):
        live = self.live[key]
        self.manager.register(key, device, live.nbytes, lambda: [live])
        self.device[key] = device
        self.written[key] = True
        # (Re-)registration drops any host copy, after restoring an evicted
        # shard's old arrays from it: the live arrays are canonical.
        self.has_copy[key] = False
        self.on_device[key] = self.manager.residency(key) is not ResidencyState.EVICTED

    def _observe(self):
        """Fold residency changes since the last look into the model."""
        for key in self.device:
            state = self.manager.residency(key)
            if state in OFF_DEVICE:
                if self.on_device[key]:  # an eviction leaves a current host copy
                    self.on_device[key] = False
                    self.has_copy[key] = True
                    self.written[key] = False
            elif not self.on_device[key]:
                self._arrived(key)

    def _arrived(self, key):
        """The shard came on device, restored from its host copy if it has one."""
        self.on_device[key] = True
        if self.has_copy[key]:
            self.written[key] = False

    def _acquired(self, key, write=True):
        if not self.on_device[key]:
            self._arrived(key)
        if write:
            self.written[key] = True

    def _key(self, index):
        return self.keys[index % len(self.keys)]

    def _blocked(self, key):
        """Whether acquiring ``key`` must wait for the machine's own pins.

        Resident and landing shards pin at once; an evicted (or evicting)
        one fits when its arena minus the *pinned* bytes there can hold it
        (unpinned occupants are evicted, a landing restore becomes
        evictable).
        """
        if self.manager.residency(key) in CHARGED:
            return False
        device = self.device[key]
        pinned = sum(
            self._nbytes(other) for other in self.device
            if other != key and self.pins[other] and self.device[other] == device
        )
        return self._nbytes(key) > self.capacity[device] - pinned

    # ------------------------------------------------------------------ #
    @rule(index=st.integers(0, 4), device=st.integers(0, 1))
    def register(self, index, device):
        key = self._key(index)
        if key in self.device:
            return
        self._register(key, DEVICES[device % len(self.capacity)])

    @precondition(lambda self: len(self.capacity) == 2)
    @rule(index=st.integers(0, 4))
    def reregister_on_the_other_arena(self, index):
        key = self._key(index)
        if key not in self.device:
            return
        other = DEVICES[1 - DEVICES.index(self.device[key])]
        if self.pins[key]:
            with pytest.raises(ConfigurationError):
                self._register(key, other)
            return
        self._register(key, other)  # a resident shard is evicted first

    @rule(index=st.integers(0, 4))
    def acquire(self, index):
        key = self._key(index)
        if key not in self.device:
            with pytest.raises(ConfigurationError):
                self.manager.acquire(key)
            return
        if self._blocked(key):
            return  # the cross-thread rule covers waiting acquires
        self._observe()
        self.manager.acquire(key)
        self._acquired(key)
        self.pins[key] += 1

    @rule(index=st.integers(0, 4))
    def release(self, index):
        key = self._key(index)
        if key in self.device and self.pins[key]:
            self.manager.release(key)
            self.pins[key] -= 1
        else:
            with pytest.raises(ConfigurationError):
                self.manager.release(key)

    @rule(index=st.integers(0, 4), delta=st.integers(1, 3))
    def lease_and_write(self, index, delta):
        key = self._key(index)
        if key not in self.device or self._blocked(key):
            return
        live = self.live[key]
        self._observe()
        with self.manager.lease(key):
            self._acquired(key)
            assert self.manager.residency(key) is ResidencyState.RESIDENT
            assert np.array_equal(live, self.expected[key])
            live += np.float32(delta)
            self.expected[key] = live.copy()

    @rule(index=st.integers(0, 4))
    def lease_and_read(self, index):
        key = self._key(index)
        if key not in self.device or self._blocked(key):
            return
        self._observe()
        with self.manager.lease(key, write=False):
            self._acquired(key, write=False)
            assert self.manager.residency(key) is ResidencyState.RESIDENT
            assert np.array_equal(self.live[key], self.expected[key])

    @rule(index=st.integers(0, 4))
    def prefetch(self, index):
        key = self._key(index)
        staging = ("evictions", "bytes_evicted", "prefetches_issued")
        before = [getattr(self.manager.stats, name) for name in staging]
        state = self.manager.residency(key) if key in self.device else None
        started = self.manager.prefetch(key)
        if self.closed or state is not ResidencyState.EVICTED:
            # Refused before staging anything: no evictions made room.  (A
            # restore already in flight may land meanwhile.)
            assert not started
            assert [getattr(self.manager.stats, name) for name in staging] == before
        if started:
            assert self.manager.residency(key) in (
                ResidencyState.PREFETCHING, ResidencyState.RESIDENT,
            )

    @rule(index=st.integers(0, 4))
    def evict(self, index):
        key = self._key(index)
        if key not in self.device:
            return
        _settle(self.manager)
        if self.pins[key] or self.manager.residency(key) is not ResidencyState.RESIDENT:
            with pytest.raises(ConfigurationError):
                self.manager.evict(key)
            return
        self._evict_and_check(key)

    def _evict_and_check(self, key):
        self._observe()
        clean = self.has_copy[key] and not self.written[key]
        before = self.manager.stats.clean_evictions
        self.manager.evict(key)
        assert self.manager.stats.clean_evictions == before + clean, (
            "an eviction copies exactly when the shard was written since its host copy"
        )
        assert np.isnan(self.live[key]).all(), "scrub must poison the evicted shard"

    @rule(index=st.integers(0, 4))
    def forget(self, index):
        key = self._key(index)
        if key not in self.device:
            return
        _settle(self.manager)
        if self.pins[key]:
            with pytest.raises(ConfigurationError):
                self.manager.forget(key)
            return
        if self.manager.residency(key) is ResidencyState.RESIDENT:
            self.forgotten_resident_bytes += self._nbytes(key)
        self.manager.forget(key)
        del self.device[key]
        # The model object stays valid once the manager lets go ...
        assert np.array_equal(self.live[key], self.expected[key])
        # ... and its owner may train it on: a later registration must see
        # these bytes, not a host copy left over from before.
        self.live[key] += np.float32(1)
        self.expected[key] = self.live[key].copy()

    @rule(index=st.integers(0, 4), delta=st.integers(1, 3))
    def reregister_with_new_arrays(self, index, delta):
        """A resumed trial re-attaches a rebuilt model: same key, new bytes.

        The shard is read onto its device first — clean, if it has a host
        copy — so only the re-registration can tell the manager that the
        eviction that follows (other models' leases, in a trainer) must copy.
        """
        key = self._key(index)
        if key not in self.device or self.pins[key] or self._blocked(key):
            return
        self._observe()
        with self.manager.lease(key, write=False):
            self._acquired(key, write=False)
        self.expected[key] = self.expected[key] + np.float32(delta)
        self.live[key] = self.expected[key].copy()
        self._register(key, self.device[key])
        self._evict_and_check(key)

    @rule(index=st.integers(0, 4))
    def acquire_from_another_thread(self, index):
        """A waiter blocked by the machine's pins wakes when they go."""
        key = self._key(index)
        if key not in self.device or not self._blocked(key):
            return
        waits = self.manager.stats.acquire_waits
        outcome = []

        def acquire():
            try:
                self.manager.acquire(key)
                outcome.append("ok")
            except Exception as error:  # noqa: BLE001 - reported below
                outcome.append(error)

        self._observe()
        waiter = threading.Thread(target=acquire)
        waiter.start()
        deadline = time.monotonic() + WAIT_SECONDS
        while self.manager.stats.acquire_waits == waits and time.monotonic() < deadline:
            time.sleep(1e-4)
        for other in list(self.device):
            if self.device[other] == self.device[key] and other != key:
                while self.pins[other]:
                    self.manager.release(other)
                    self.pins[other] -= 1
        waiter.join(timeout=3 * WAIT_SECONDS)
        assert outcome == ["ok"], outcome
        self._acquired(key)
        self.pins[key] += 1  # pins are not owned by threads; the machine releases it

    @rule()
    def close(self):
        self.manager.close()
        self.closed = True

    # ------------------------------------------------------------------ #
    @invariant()
    def ledgers_match_residency(self):
        with self.manager._cond:
            assert self.manager.registered() == sorted(self.device)
            state = {key: self.manager.residency(key) for key in self.device}
            for name, arena in self.manager.arenas.items():
                charged = sum(
                    self._nbytes(key) for key in self.device
                    if self.device[key] == name and state[key] in CHARGED
                )
                assert arena.used_bytes == charged, name
                assert arena.used_bytes <= arena.capacity_bytes
            # on-device (resident, prefetching) and off-device (evicted,
            # evicting) partition the registered set
            on_device = set(self.manager.resident_keys())
            off_device = {key for key, s in state.items() if s in OFF_DEVICE}
            assert on_device.isdisjoint(off_device)
            assert on_device | off_device == set(self.device)

    @invariant()
    def pinned_and_resident_shards_hold_the_expected_values(self):
        with self.manager._cond:
            for key in self.device:
                state = self.manager.residency(key)
                if self.pins[key]:
                    assert state is ResidencyState.RESIDENT, key
                if state is ResidencyState.RESIDENT:
                    assert np.array_equal(self.live[key], self.expected[key]), key

    @invariant()
    def evicted_shards_are_scrubbed(self):
        with self.manager._cond:
            self._observe()
            for key in self.device:
                if self.manager.residency(key) is ResidencyState.EVICTED and self.has_copy[key]:
                    assert np.isnan(self.live[key]).all(), key

    @invariant()
    def counters_are_monotone_and_balance(self):
        with self.manager._cond:
            stats = self.manager.stats.as_dict()
            resident = sum(
                self._nbytes(key) for key in self.device
                if self.manager.residency(key) is ResidencyState.RESIDENT
            )
        for name, value in stats.items():
            assert value >= self.last_stats[name], name
        self.last_stats = stats
        assert (
            stats["bytes_fetched"] - stats["bytes_evicted"]
            == resident + self.forgotten_resident_bytes
        )


SpillMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)
TestSpillInvariants = SpillMachine.TestCase


def test_close_in_the_submit_gap_lets_the_restore_land():
    """A prefetch claims the restore slot under the lock and hands the job
    to the transfer pool after releasing it.  A ``close()`` arriving in that
    gap must let the restore land, not shut the pool under it (which would
    refuse the job and strand the staged shard)."""
    a = np.arange(4, dtype=np.float32)
    manager = SpillManager(
        {"dev0": 64}, prefetch=True, scrub_evicted=True,
        acquire_timeout_seconds=WAIT_SECONDS,
    )
    manager.register(("m", 0), "dev0", a.nbytes, lambda: [a])
    with manager.lease(("m", 0)):
        pass
    manager.evict(("m", 0))
    pool, in_gap = manager._pool, threading.Event()
    submit = pool.submit

    def submit_late(*args):  # the prefetching thread is preempted in the gap
        in_gap.wait(WAIT_SECONDS)
        return submit(*args)

    pool.submit = submit_late
    started = []
    prefetcher = threading.Thread(target=lambda: started.append(manager.prefetch(("m", 0))))
    closer = threading.Thread(target=manager.close)
    prefetcher.start()
    deadline = time.monotonic() + WAIT_SECONDS
    while manager.residency(("m", 0)) is not ResidencyState.PREFETCHING:
        assert time.monotonic() < deadline, "the prefetch never claimed the slot"
        time.sleep(1e-4)
    closer.start()
    while manager._pool is not None:
        assert time.monotonic() < deadline, "close() never took the pool"
        time.sleep(1e-4)
    in_gap.set()
    prefetcher.join(timeout=WAIT_SECONDS)
    closer.join(timeout=3 * WAIT_SECONDS)
    assert not prefetcher.is_alive() and not closer.is_alive()
    assert started == [True]
    assert manager.residency(("m", 0)) is ResidencyState.RESIDENT
    assert np.array_equal(a, np.arange(4, dtype=np.float32))


def test_an_evicting_shard_is_waited_for_and_never_chosen_again():
    """A prefetch that evicts a dirty shard only claims it: the shard turns
    ``EVICTING`` with its arena charge handed back, and the transfer job
    copies it to host (then scrubs it) before the restore.  Held back here,
    that job leaves a window in which a demand eviction must pick another
    victim and an acquire of the shard must wait, then see its exact bytes."""
    floats = 4
    nbytes = floats * FLOAT
    manager = SpillManager(
        {"dev0": 2 * nbytes}, policy="lru", prefetch=True, scrub_evicted=True,
        acquire_timeout_seconds=WAIT_SECONDS,
    )
    live = {("m", i): np.full(floats, 10.0 * i, dtype=np.float32) for i in range(4)}
    for key, array in live.items():
        manager.register(key, "dev0", nbytes, lambda a=array: [a])
    a, b, c, d = sorted(live)
    with manager.lease(a):  # written, so a prefetch must copy it to host
        live[a] += 1.0
    with manager.lease(b, write=False):
        pass
    expected = {key: array.copy() for key, array in live.items()}

    gate = threading.Event()
    submit = manager._pool.submit
    manager._pool.submit = lambda fn, *args: submit(
        lambda: (gate.wait(WAIT_SECONDS), fn(*args))
    )
    try:
        assert manager.prefetch(c)  # LRU victim: a, claimed for the job
        assert manager.residency(a) is ResidencyState.EVICTING
        assert manager.arenas["dev0"].used_bytes == 2 * nbytes  # b + c
        assert np.array_equal(live[a], expected[a]), "the scrub waits for the copy"
        with manager.lease(d, write=False):  # must evict b, not a again
            assert manager.residency(b) is ResidencyState.EVICTED
            assert manager.residency(a) is ResidencyState.EVICTING
        seen = []
        waiter = threading.Thread(
            target=lambda: (manager.acquire(a), seen.append(live[a].copy()))
        )
        waiter.start()
        deadline = time.monotonic() + WAIT_SECONDS
        while manager.stats.prefetch_late == 0 and waiter.is_alive():
            assert time.monotonic() < deadline, "the acquire neither waited nor returned"
            time.sleep(1e-4)
        assert seen == [], "an acquire of an EVICTING shard must wait for its write-back"
    finally:
        gate.set()
    waiter.join(timeout=3 * WAIT_SECONDS)
    manager.close()
    assert not waiter.is_alive()
    assert len(seen) == 1 and np.array_equal(seen[0], expected[a])
    assert manager.residency(a) is ResidencyState.RESIDENT
    assert np.array_equal(live[a], expected[a])
    charged = sum(
        nbytes for key in live
        if manager.residency(key) in CHARGED
    )
    assert manager.arenas["dev0"].used_bytes == charged
    manager.release(a)
    manager.forget_model("m")
    for key, array in live.items():
        assert np.array_equal(array, expected[key]), key


def test_threads_holding_one_pin_each_always_progress():
    """Four threads share two arenas that hold two of their eight shards
    each; every thread leases (and writes) one shard at a time and prefetches
    its next.  Pins release without needing memory, so every acquire
    returns, and each shard ends holding exactly its writes."""
    floats, threads, rounds = 64, 4, 60
    nbytes = floats * FLOAT
    manager = SpillManager(
        {"dev0": 2 * nbytes, "dev1": 2 * nbytes}, policy="lru", prefetch=True,
        scrub_evicted=True, acquire_timeout_seconds=WAIT_SECONDS,
    )
    live = {}
    for worker in range(threads):
        for shard in range(2):
            key = (f"t{worker}", shard)
            array = live[key] = np.full(floats, worker * 100 + shard, dtype=np.float32)
            manager.register(key, DEVICES[(worker + shard) % 2], nbytes, lambda a=array: [a])
    expected = {key: array.copy() for key, array in live.items()}
    failures = []

    def work(worker):
        order = [(f"t{worker}", step % 2) for step in range(rounds)]
        try:
            for step, key in enumerate(order):
                if step + 1 < rounds:
                    manager.prefetch(order[step + 1])
                with manager.lease(key):
                    if not np.array_equal(live[key], expected[key]):
                        failures.append(f"{key}: lease saw stale values")
                    live[key] += 1.0
                    expected[key] += 1.0
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(f"t{worker}: {type(error).__name__}: {error}")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=6 * WAIT_SECONDS)
    finally:
        sys.setswitchinterval(previous)
        manager.close()
    assert not any(thread.is_alive() for thread in pool)
    assert failures == []
    for arena in manager.arenas.values():
        assert arena.peak_bytes <= arena.capacity_bytes
    for worker in range(threads):
        manager.forget_model(f"t{worker}")
    assert manager.registered() == []
    assert all(arena.used_bytes == 0 for arena in manager.arenas.values())
    for key, array in live.items():
        assert np.array_equal(array, expected[key]), key
