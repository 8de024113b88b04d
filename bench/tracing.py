"""Spans recorded from outside the program, around public callables.

:class:`Tracer` swaps timing wrappers in for the callables listed in
``_TARGETS`` (and back out again, so untraced and traced cycles can
alternate inside one run).  Each call becomes a span — id, parent id,
name, layer, start, end, thread, and the *op* (selection index or request
id) the calling thread was working on — kept in memory and written to
``bench/out/trace-<workload>.jsonl`` when the run ends.

A span's *self time* is its duration minus the part its child spans cover;
children run on the parent's thread, nested and one after another, so that
part is the sum of their durations.

Serving needs one more link: a request is submitted on the generator
thread and answered on a worker thread inside a batch it shares with other
requests.  Spans wrapped with ``service=True`` (lease and forward) open a
*service group* on their thread; the wrapper around
``PendingResponse.set_result`` stamps the group onto each response it
completes, which is how ``loadgen`` splits a request's latency into queue
wait, lease, forward and completion.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: (module, class or None, attribute, span name, layer, service)
_TARGETS: List[Tuple[str, Any, str, str, str, bool]] = [
    ("repro.api.experiment", "Experiment", "run", "Experiment.run", "experiment", False),
    ("repro.api.backends.shard_parallel", "ShardParallelBackend", "prepare", "backend.prepare", "backend", False),
    ("repro.api.backends.shard_parallel", "ShardParallelBackend", "train_many", "backend.train_many", "backend", False),
    ("repro.api.backends.shard_parallel", "ShardParallelBackend", "teardown", "backend.teardown", "backend", False),
    ("repro.api.backends.shard_parallel", "ShardParallelBackend", "finalize_snapshot", "backend.finalize_snapshot", "backend", False),
    ("repro.api.runtime.concurrent", "ConcurrentBackend", "__init__", "runtime.start", "runtime", False),
    ("repro.api.runtime.concurrent", "ConcurrentBackend", "train_many", "runtime.train_many", "runtime", False),
    ("repro.api.runtime.concurrent", "ConcurrentBackend", "close", "runtime.close", "runtime", False),
    ("repro.training.sharded_trainer", "ShardParallelTrainer", "train_epoch", "trainer.train_epoch", "training", False),
    ("repro.training.sharded_trainer", "ShardedModelExecutor", "run_forward", "executor.run_forward", "training", False),
    ("repro.training.sharded_trainer", "ShardedModelExecutor", "compute_loss", "executor.compute_loss", "training", False),
    ("repro.training.sharded_trainer", "ShardedModelExecutor", "run_backward", "executor.run_backward", "training", False),
    ("repro.data.dataloader", "DataLoader", "__iter__", "data.next", "data", False),
    ("repro.optim.optimizer", "Optimizer", "step", "optim.step", "optim", False),
    ("repro.optim.optimizer", "Optimizer", "step_params", "optim.step_params", "optim", False),
    ("repro.memory.spill", "SpillManager", "acquire", "memory.acquire", "memory", True),
    ("repro.memory.spill", "SpillManager", "release", "memory.release", "memory", False),
    ("repro.memory.spill", "SpillManager", "prefetch", "memory.prefetch", "memory", False),
    ("repro.api.backends.shard_parallel", None, "save_checkpoint", "checkpoint.save", "checkpoint", False),
    ("repro.api.backends.shard_parallel", None, "load_checkpoint", "checkpoint.load", "checkpoint", False),
    ("repro.serving.registry", None, "save_checkpoint", "checkpoint.save", "checkpoint", False),
    ("repro.serving.registry", None, "load_checkpoint", "checkpoint.load", "checkpoint", False),
    ("repro.serving.registry", "ModelRegistry", "publish", "registry.publish", "registry", False),
    ("repro.serving.registry", "ModelRegistry", "load", "registry.load", "registry", False),
    ("repro.serving.server", "ModelServer", "submit", "server.submit", "server", False),
    ("repro.serving.router", "FleetRouter", "submit", "router.submit", "router", False),
    ("repro.serving.replica", "Replica", "infer", "replica.infer", "replica", True),
    # FleetRouter runs the model's forward itself; training never calls the
    # whole-model forward (it runs blocks), so this span is serving-only.
    ("repro.models.base", "ShardableModel", "forward", "replica.forward", "replica", True),
]

_MISSING = object()


class Span(NamedTuple):
    """One timed call (times are ``time.monotonic()`` seconds)."""

    id: int
    parent: int  # 0 for a span with no wrapped caller on its thread
    name: str
    layer: str
    start: float
    end: float
    thread: int
    op: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spill_counters(manager) -> Dict[str, float]:
    """A ``SpillManager``'s public counters as ``memory.*`` per-layer values."""
    stats = manager.stats.as_dict()
    fetched = stats["prefetches_completed"] + stats["demand_fetches"]
    values: Dict[str, float] = {f"memory.{key}": value for key, value in stats.items()}
    values["memory.prefetch_hit_ratio"] = (
        stats["prefetches_completed"] / fetched if fetched else 0.0)
    values["memory.peak_resident_bytes"] = max(
        arena.peak_bytes for arena in manager.arenas.values())
    return values


class Tracer:
    """Installs the wrappers and keeps the spans (see module docstring)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: SpillManager instances seen by the lease wrappers (for their stats)
        self.managers: Dict[int, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def set_op(self, op: Any) -> None:
        """Name the op (selection index, request id) this thread works on."""
        self._local.op = op

    def install(self) -> None:
        """Swap the timing wrappers in (idempotent)."""
        if self._installed:
            return
        for module_name, class_name, attr, name, layer, service in _TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            # An inherited method is wrapped on the subclass and deleted
            # again at uninstall, leaving the base class untouched.
            previous = owner.__dict__.get(attr, _MISSING)
            if attr == "__iter__":
                wrapped = self._wrap_iter(getattr(owner, attr), name, layer)
            else:
                wrapped = self._wrap(getattr(owner, attr), name, layer, service)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, previous))
        batcher = importlib.import_module("repro.serving.batcher")
        original = batcher.PendingResponse.set_result
        batcher.PendingResponse.set_result = self._wrap_set_result(original)
        self._installed.append((batcher.PendingResponse, "set_result", original))

    def uninstall(self) -> None:
        """Put the original callables back."""
        for owner, attr, previous in reversed(self._installed):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._installed = []

    # ------------------------------------------------------------------ #
    def _wrap(self, fn: Callable, name: str, layer: str, service: bool) -> Callable:
        local, spans, ids, managers = self._local, self.spans, self._ids, self.managers
        # The clock PendingResponse.completed_at is stamped with.
        clock = time.monotonic
        tracks_manager = layer == "memory"

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            if service and getattr(local, "group_closed", True):
                local.group_closed = False
                local.group_start = start
                local.group_lease = 0.0
                local.group_forward = 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if service:
                    # A forward nested in another service span (Replica.infer
                    # calling the model's forward) is counted once.
                    if layer == "memory":
                        local.group_lease += end - start
                    elif parent == 0:
                        local.group_forward += end - start
                if tracks_manager:
                    managers[id(args[0])] = args[0]
                spans.append(Span(
                    span_id, parent, name, layer, start, end,
                    threading.get_ident(), getattr(local, "op", None),
                ))

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_iter(self, fn: Callable, name: str, layer: str) -> Callable:
        """Wrap ``__iter__`` so each ``__next__`` of its iterator is a span."""
        tracer = self

        class TimedIterator:
            def __init__(self, inner):
                self._next = tracer._wrap(inner.__next__, name, layer, False)

            def __iter__(self):
                return self

            def __next__(self):
                return self._next()

        def wrapper(loader):
            return TimedIterator(fn(loader))

        return wrapper

    def _wrap_set_result(self, original: Callable) -> Callable:
        local = self._local

        def set_result(response, value):
            if hasattr(local, "group_start"):
                response.bench_service = (
                    local.group_start,
                    local.group_lease,
                    local.group_forward,
                )
                local.group_closed = True
            return original(response, value)

        return set_result

    # ------------------------------------------------------------------ #
    def self_times(self, key: str = "layer") -> Dict[str, float]:
        """Self seconds summed per layer (``key="layer"``) or per span name."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent:
                covered[span.parent] += span.seconds
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[getattr(span, key)] += span.seconds - covered.get(span.id, 0.0)
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every span called ``name``."""
        return [span.seconds for span in self.spans if span.name == name]

    def write(self, path, extra_lines=()) -> None:
        """Write the spans, then ``extra_lines`` (request records), as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                op_json = "null" if span.op is None else f'"{span.op}"'
                handle.write(
                    f'{{"span":{span.id},"parent":{span.parent},"name":"{span.name}",'
                    f'"layer":"{span.layer}","start":{span.start:.7f},"end":{span.end:.7f},'
                    f'"thread":{span.thread},"op":{op_json}}}\n'
                )
            handle.writelines(extra_lines)
