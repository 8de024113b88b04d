"""Invariants of the serving scheduler under random operation sequences.

A hypothesis state machine drives one :class:`~repro.serving.DynamicBatcher`
with 1–3 queues through submit / take / cancel / close and checks, after
every step, what every front-end built on it relies on:

* every admitted request is handed out exactly once **or** failed with a
  typed error — never both, never neither once serving stopped;
* FIFO within a queue, whole requests only, ``rows <= max_batch_size``, and
  a batch is as full as FIFO order allows;
* nothing is dispatched at or after its deadline;
* the pick is the ready queue with the smallest ``(pass, name)``;
* per-queue pass values are monotone and a re-entering queue starts at the
  scheduler's virtual time;
* ``next_batch()`` returns ``None`` only when closed and empty.

The machine never sleeps: a take only runs when a zero-window queue holds a
live request or the scheduler is closed (both dispatch immediately), and
requests expire by carrying an already-past absolute deadline.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

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

from repro.exceptions import (
    ConfigurationError,
    RequestTimeoutError,
    ServerOverloadedError,
    ServingError,
)
from repro.serving import ModelEntry, DynamicBatcher, InferenceRequest

QUEUE_NAMES = ("a", "b", "c")

def make_request(rows=1, deadline=None, tag=(0, 0)):
    """One queued request; ``tag`` rides in the payload to identify it."""
    return InferenceRequest(
        arrays={"tag": np.tile(np.array([tag]), (rows, 1))},
        rows=rows, submitted=time.monotonic(), deadline=deadline,
    )


queue_specs = st.lists(
    st.tuples(
        st.integers(1, 4),             # max_batch_size
        st.integers(1, 8),             # max_queue
        st.sampled_from([0.0, 0.0, 60.0]),  # fill window (s): none, or never-ending
        st.sampled_from([1.0, 2.0]),   # weight
    ),
    min_size=1,
    max_size=3,
)


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.batcher = DynamicBatcher()
        self.queues = []
        self.admitted = {}      # queue name -> requests in admission order
        self.handed = set()     # ids of requests returned in a batch
        self.failed = set()     # ids of requests the scheduler failed
        self.counts = {}        # queue name -> expected outcome counters
        self.last_pass = {}
        self.closed = False

    @initialize(specs=queue_specs)
    def declare_queues(self, specs):
        for name, (batch, depth, window, weight) in zip(QUEUE_NAMES, specs):
            queue = ModelEntry(
                name, max_batch_size=batch, max_queue=depth, max_wait=window,
                weight=weight,
            )
            self.batcher.add_entry(queue)
            self.queues.append(queue)
            self.admitted[name] = []
            self.counts[name] = {"rejected": 0, "timed_out": 0, "failed": 0}
            self.last_pass[name] = queue.pass_value
        with pytest.raises(ConfigurationError):
            self.batcher.add_entry(ModelEntry("a", max_batch_size=1, max_queue=1))

    # ------------------------------------------------------------------ #
    def _outstanding(self, queue):
        """Admitted requests of ``queue`` neither handed out nor failed."""
        return [
            request for request in self.admitted[queue.name]
            if id(request) not in self.handed and id(request) not in self.failed
        ]

    def _live(self, queue):
        now = time.monotonic()
        return [r for r in self._outstanding(queue) if not r.expired(now)]

    def _ready(self, queue):
        """Whether ``queue``'s batch dispatches now: the scheduler is closed,
        the queue has no fill window, or its live requests cannot grow the
        batch any further."""
        live = self._live(queue)
        if not live or self.closed or queue.max_wait == 0:
            return bool(live)
        rows = 0
        for request in live:
            if rows + request.rows > queue.max_batch_size:
                return True
            rows += request.rows
        return rows >= queue.max_batch_size

    def _note_expired(self):
        """Account for what the next take will expire (past deadlines)."""
        now = time.monotonic()
        for queue in self.queues:
            for request in self._outstanding(queue):
                if request.expired(now):
                    self.failed.add(id(request))
                    self.counts[queue.name]["timed_out"] += 1

    # ------------------------------------------------------------------ #
    @rule(
        index=st.integers(0, 2),
        arrivals=st.lists(
            st.tuples(
                st.integers(1, 4), st.sampled_from([None, None, "past", "future"])
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def submit(self, index, arrivals):
        queue = self.queues[index % len(self.queues)]
        for rows, deadline in arrivals:
            self._submit_one(queue, rows, deadline)

    def _submit_one(self, queue, rows, deadline):
        now = time.monotonic()
        stamp = {None: None, "past": now - 1.0, "future": now + 3600.0}[deadline]
        request = make_request(rows, deadline=stamp)
        was_empty = not queue.requests
        if rows > queue.max_batch_size:
            with pytest.raises(ConfigurationError):
                self.batcher.submit(queue, request)
        elif self.closed:
            with pytest.raises(ServingError):
                self.batcher.submit(queue, request)
        elif len(queue.requests) >= queue.max_queue:
            with pytest.raises(ServerOverloadedError):
                self.batcher.submit(queue, request)
            self.counts[queue.name]["rejected"] += 1
        else:
            self.batcher.submit(queue, request)
            self.admitted[queue.name].append(request)
            if was_empty:
                # re-entering the ready set: caught up to the virtual time
                assert queue.pass_value >= self.batcher._virtual_time
            return
        assert not request.response.done()  # never admitted, never touched

    def _take_returns_at_once(self):
        return self.closed or any(
            queue.max_wait == 0 and self._live(queue) for queue in self.queues
        )

    @precondition(_take_returns_at_once)
    @rule(times=st.integers(1, 6))
    def take(self, times):
        for _ in range(times):
            if self._take_returns_at_once():
                self._take_one()

    def _take_one(self):
        ready = [queue for queue in self.queues if self._ready(queue)]
        fair = min(ready, key=lambda queue: (queue.pass_value, queue.name), default=None)
        self._note_expired()
        work = self.batcher.next_batch()
        if work is None:
            # only when closed and empty
            assert self.closed
            assert not any(self._outstanding(queue) for queue in self.queues)
            return
        queue, batch = work.entry, work.requests
        assert queue is fair, (queue.name, fair and fair.name)
        assert batch, "an assignment carries at least one request"
        # Dispatched for a reason: closed, no window, or a batch that cannot
        # grow (the queued rows already fill or overflow it).
        queued_rows = work.rows + sum(request.rows for request in queue.requests)
        assert self.closed or queue.max_wait == 0 or queued_rows >= queue.max_batch_size
        # Whole requests, within the row limit, FIFO: exactly the head of
        # what was outstanding.
        assert work.rows == sum(request.rows for request in batch)
        assert work.rows <= queue.max_batch_size
        assert batch == self._outstanding(queue)[: len(batch)]
        for request in batch:
            assert id(request) not in self.handed
            assert not request.response.done()
            assert request.deadline is None or request.deadline > time.monotonic()
            self.handed.add(id(request))
        # ...and as full as FIFO order allows.
        if queue.requests:
            assert work.rows + queue.requests[0].rows > queue.max_batch_size
        assert work.depth == self.batcher.pending

    # The stopping rules wait for some traffic to have built up first, so
    # most of a run is submits and takes.
    @precondition(lambda self: sum(map(len, self.admitted.values())) >= 4)
    @rule(roll=st.integers(0, 3))
    def cancel(self, roll):
        if roll:
            return
        expected = {queue.name: self._outstanding(queue) for queue in self.queues}
        cancelled = self.batcher.cancel_pending(ServingError("stopped"))
        assert cancelled == sum(len(requests) for requests in expected.values())
        for name, requests in expected.items():
            self.counts[name]["failed"] += len(requests)
            for request in requests:
                self.failed.add(id(request))
                with pytest.raises(ServingError, match="stopped"):
                    request.response.result(timeout=0)

    @precondition(lambda self: sum(map(len, self.admitted.values())) >= 8)
    @rule(roll=st.integers(0, 3))
    def close(self, roll):
        if roll == 0:
            self.batcher.close()
            self.closed = True

    # ------------------------------------------------------------------ #
    @invariant()
    def every_request_has_exactly_one_fate(self):
        assert not self.handed & self.failed
        outstanding = 0
        for queue in self.queues:
            waiting = self._outstanding(queue)
            assert list(queue.requests) == waiting
            outstanding += len(waiting)
            for request in self.admitted[queue.name]:
                if id(request) in self.failed:
                    with pytest.raises((RequestTimeoutError, ServingError)):
                        request.response.result(timeout=0)
                else:
                    assert not request.response.done()
        assert self.batcher.pending == outstanding
        # The deadline index tracks exactly the queued requests that have one.
        assert len(self.batcher._expirable) == sum(
            request.deadline is not None
            for queue in self.queues for request in queue.requests
        )

    @invariant()
    def counters_match(self):
        counters = self.batcher.registry.counters()
        for queue in self.queues:
            for key, value in self.counts[queue.name].items():
                assert counters.get(f"serving.{queue.name}.{key}", 0.0) == value, (
                    queue.name, key,
                )

    @invariant()
    def pass_values_are_monotone(self):
        for queue in self.queues:
            assert queue.pass_value >= self.last_pass[queue.name]
            self.last_pass[queue.name] = queue.pass_value


SchedulerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)
TestSchedulerInvariants = SchedulerMachine.TestCase


def test_concurrent_submitters_and_workers_hand_out_every_request_once():
    """More threads than cores, a short switch interval: every admitted
    request reaches exactly one worker, in FIFO order within each batch."""
    batcher = DynamicBatcher()
    entries = [
        ModelEntry("now", max_batch_size=4, max_queue=10_000),
        ModelEntry("soon", max_batch_size=3, max_queue=10_000, max_wait=0.001),
        ModelEntry("wide", max_batch_size=8, max_queue=10_000, weight=2.0),
    ]
    for entry in entries:
        batcher.add_entry(entry)
    per_submitter, submitters, workers = 300, 3, 5
    seen = Counter()
    batches = []
    lock = threading.Lock()

    def submit(offset):
        for index in range(per_submitter):
            entry = entries[(index + offset) % len(entries)]
            batcher.submit(entry, make_request(tag=(offset, index)))

    def work():
        while (assignment := batcher.next_batch()) is not None:
            tags = [tuple(request.arrays["tag"][0]) for request in assignment.requests]
            with lock:
                seen.update(tags)
                batches.append(tags)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        threads += [threading.Thread(target=submit, args=(k,)) for k in range(submitters)]
        for thread in threads:
            thread.start()
        for thread in threads[workers:]:
            thread.join(timeout=30.0)
        batcher.close()
        for thread in threads[:workers]:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == per_submitter * submitters and set(seen.values()) == {1}
    assert batcher.pending == 0
    # FIFO: within a batch, each submitter's requests are in the order that
    # submitter enqueued them (across batches, workers race to report).
    for tags in batches:
        for offset in range(submitters):
            indices = [index for who, index in tags if who == offset]
            assert indices == sorted(indices)
