"""Load generation from ONE thread, through the async ``submit()`` API.

Sixteen client threads on two cores measure the OS scheduler, not the
server, so both phases here run on the calling thread:

* :func:`burst` — an offline batch: a closed loop with one caller and a
  bounded number of requests in flight;
* :func:`open_loop` — independent users: request *i* is due at
  ``start + i / rate`` whatever the server is doing, and its latency runs
  from when it was **due** to ``PendingResponse.completed_at``, so a stall
  is charged to every request it delays.  How late the generator itself
  ran is returned next to the latencies.

``submit(i)`` sends request ``i`` and returns its ``PendingResponse``;
``sampler`` is ``(count, rng)``: how many answered responses to keep for the
output check and the generator that picks them.  A
request that raises at submit (rejected) or at ``result()`` (timed out,
failed) counts as failed and gets no latency sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: how long a collector waits for one response before calling it failed
RESULT_TIMEOUT_S = 30.0


@dataclass
class PhaseResult:
    """What one phase sent and what came back, reduced to arrays.

    The ``PendingResponse`` objects are dropped as soon as the phase has
    been collected: tens of thousands of live responses make the cyclic GC's
    full passes long enough to show up as generator lateness.
    """

    sent: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: per answered request: its index and the four instants of its life
    index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    due: np.ndarray = field(default_factory=lambda: np.empty(0))
    sent_at: np.ndarray = field(default_factory=lambda: np.empty(0))
    submitted: np.ndarray = field(default_factory=lambda: np.empty(0))
    completed: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: traced phases only: per request (service start, lease s, forward s)
    service: Optional[np.ndarray] = None
    #: (request index, response rows) of the sampled responses
    samples: List[Tuple[int, Any]] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return len(self.index)

    def latencies_ms(self) -> np.ndarray:
        """Due -> completed, for every answered request."""
        return (self.completed - self.due) * 1e3

    def lateness_ms(self) -> np.ndarray:
        """Due -> actually sent: the generator's own delay."""
        return (self.sent_at - self.due) * 1e3


def _wait(result: PhaseResult, pending: List[tuple]) -> List[tuple]:
    """Wait for every pending response; return the answered records."""
    answered = []
    for record in pending:
        try:
            record[4].result(timeout=RESULT_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - any failure is a failed op
            result.failed += 1
        else:
            answered.append(record)
    return answered


def _reduce(result: PhaseResult, answered: List[tuple], sampler) -> None:
    """Turn answered records into arrays and keep the sampled responses."""
    if not answered:
        return
    result.index = np.array([r[0] for r in answered], dtype=np.int64)
    result.due = np.array([r[1] for r in answered])
    result.sent_at = np.array([r[2] for r in answered])
    result.submitted = np.array([r[3] for r in answered])
    result.completed = np.array([r[4].completed_at for r in answered])
    if hasattr(answered[0][4], "bench_service"):
        result.service = np.array([r[4].bench_service for r in answered])
    count, rng = sampler
    for pick in rng.choice(len(answered), size=min(count, len(answered)), replace=False):
        result.samples.append((answered[pick][0], answered[pick][4].result()))


def _send(result: PhaseResult, pending: List[tuple], submit, index: int,
          due: Optional[float] = None) -> None:
    """Submit request ``index`` now; a burst's requests are due when sent."""
    sent = time.monotonic()
    try:
        response = submit(index)
    except Exception:  # noqa: BLE001 - rejected at admission
        result.failed += 1
    else:
        pending.append(
            (index, sent if due is None else due, sent, time.monotonic(), response))
    result.sent += 1


def burst(
    submit: Callable[[int], Any], first: int, count: int, window: int, sampler
) -> PhaseResult:
    """Send ``count`` requests as fast as ``window`` requests in flight allow."""
    result = PhaseResult()
    pending: List[tuple] = []
    clock = time.monotonic
    head = 0
    started = clock()
    for index in range(first, first + count):
        if len(pending) - head >= window:
            # Wait for the oldest outstanding request; later ones may already
            # be done (models answer independently), so ``window`` is a bound.
            try:
                pending[head][4].result(timeout=RESULT_TIMEOUT_S)
            except Exception:  # noqa: BLE001 - counted in _wait
                pass
            head += 1
        _send(result, pending, submit, index)
    answered = _wait(result, pending)
    result.wall_s = clock() - started
    _reduce(result, answered, sampler)
    return result


def open_loop(
    submit: Callable[[int], Any], first: int, rate: float, seconds: float, sampler
) -> PhaseResult:
    """Send ``rate x seconds`` requests on schedule; never wait for replies."""
    result = PhaseResult()
    pending: List[tuple] = []
    clock = time.monotonic
    count = int(rate * seconds)
    interval = 1.0 / rate
    started = clock()
    index = 0
    while index < count:
        now = clock()
        due = started + index * interval
        if due > now:
            # Sleeping (not spinning) hands the GIL to the serving threads.
            time.sleep(due - now)
            now = clock()
        # Everything due by now goes out; a late wake-up sends a clump,
        # each request still timed from its own due time.
        while index < count and started + index * interval <= now:
            _send(result, pending, submit, first + index, due=started + index * interval)
            index += 1
    answered = _wait(result, pending)
    result.wall_s = clock() - started
    _reduce(result, answered, sampler)
    return result
