"""Sharded execution with exact gradient equivalence.

:class:`ShardedModelExecutor` runs one model *shard by shard*, the way a
model-parallel system would: the autograd graph is cut at every shard
boundary, shards keep their own activation stashes, and gradients are handed
across boundaries explicitly during the backward pass.  Because only the
graph structure changes — not the arithmetic — the resulting parameter
gradients are identical to whole-model backpropagation, which is the paper's
"exact replication of model training output" desideratum (D3) and what the
parity tests/benchmark verify.

:class:`ShardParallelTrainer` layers the multi-model part on top: it drives
several executors at shard-task granularity in a Hydra-like interleaved
order over a set of simulated devices, so the examples can show real
training happening under shard parallelism.

Both opt into *spilled* execution through a
:class:`~repro.memory.spill.SpillManager` (see ``docs/memory.md``): bound
executors lease each shard around every use (forward / loss / backward +
update) instead of assuming residency, announce their access schedule for
schedule-aware eviction, and apply the optimizer *per shard* while it is
pinned — which is bit-identical to a whole-model step because each
scalar's update depends only on its own value, gradient, state, and the
shared step counter.  A shard's parameters are a contiguous range of the
optimizer's flat buffers, so that update is one sweep and a spill moves
one array per kind.  Forward and loss leases only read (``write=False``), so a
shard that has not been updated since its last trip to host is evicted
without a copy; the backward lease, which runs the update, writes.

While a task computes, the shard that is needed next is prefetched.  A
lone executor names its own next shard.  The trainer knows better: its
sweep runs one task per model in turn, so the next lease belongs to the
*next model's* task, and each task prefetches that shard instead (passed
down as ``prefetch=``).  A spilled trainer's epoch runs inside the
manager's :meth:`~repro.memory.spill.SpillManager.driving`, so the
transfers it starts run beside it, not in turns with it on one core.  A
lone executor's ``train_step`` is too short to move for: changing the
calling thread's CPU mask around every 1–2 ms step measured slower than
leaving it alone.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, Generator, Iterator, List, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataloader import Batch, DataLoader
from repro.exceptions import ConfigurationError, SchedulingError
from repro.models.base import ShardableModel
from repro.optim.optimizer import Optimizer
from repro.sharding.order import FORWARD, LOSS, batch_order, staggered_device
from repro.telemetry import NULL_TELEMETRY
from repro.training.metrics import MetricTracker
from repro.training.trainer import TrainingReport

if TYPE_CHECKING:  # type-only: executors are handed a manager and never build one
    from repro.memory.spill import ShardKey, SpillManager


#: what a task of a fully-resident executor runs under: nothing to lease
_RESIDENT = nullcontext()
#: what a finished sweep returns in place of its next lease
_DONE = object()


def _detach_state(state: Any) -> Any:
    """Detach a boundary state from the upstream graph, re-enabling gradients.

    Supports a single tensor or a tuple/list of tensors (non-tensor entries
    pass through unchanged, e.g. attention masks carried as numpy arrays).
    """
    if isinstance(state, Tensor):
        detached = state.detach()
        detached.requires_grad = True
        return detached
    if isinstance(state, (tuple, list)):
        return type(state)(_detach_state(item) for item in state)
    return state


def _state_tensors(state: Any) -> List[Tensor]:
    if isinstance(state, Tensor):
        return [state]
    if isinstance(state, (tuple, list)):
        tensors: List[Tensor] = []
        for item in state:
            tensors.extend(_state_tensors(item))
        return tensors
    return []


@dataclass
class _ShardContext:
    """Activation stash for one shard of one in-flight mini-batch."""

    boundary_input: Any = None
    output: Any = None


class ShardedModelExecutor:
    """Executes one shardable model as a pipeline of graph-disconnected shards."""

    def __init__(self, model: ShardableModel, boundaries: Sequence[Tuple[int, int]]):
        self.model = model
        self.boundaries = [tuple(b) for b in boundaries]
        self._validate_boundaries()
        #: one mini-batch's ``(kind, shard)`` tasks in execution order — the
        #: order the cost model's ``build_task_graph`` compiles too
        self.order = batch_order(self.num_shards, updates=False)
        self._contexts: List[_ShardContext] = []
        self._loss: Optional[Tensor] = None
        self._memory: Optional["SpillManager"] = None
        self._memory_optimizer: Optional[Optimizer] = None
        self._memory_model_id: Optional[str] = None
        self._advance_pending = False
        self.telemetry = NULL_TELEMETRY

    def _validate_boundaries(self) -> None:
        expected = 0
        for start, stop in self.boundaries:
            if start != expected or stop <= start:
                raise SchedulingError(
                    f"invalid shard boundaries {self.boundaries} for model "
                    f"{self.model.model_name!r}"
                )
            expected = stop
        if expected != self.model.num_blocks():
            raise SchedulingError(
                f"boundaries cover {expected} blocks but model has {self.model.num_blocks()}"
            )

    @property
    def num_shards(self) -> int:
        return len(self.boundaries)

    # ------------------------------------------------------------------ #
    # Spilled execution (opt-in)
    # ------------------------------------------------------------------ #
    def bind_memory(
        self,
        manager: "SpillManager",
        optimizer: Optional[Optimizer] = None,
        model_id: Optional[str] = None,
        device_of: Optional[Callable[[int], str]] = None,
    ) -> None:
        """Route every shard access through a spill manager.

        Registers each shard with its arena (``device_of`` maps shard index
        to arena name; default: round-robin over the manager's arenas) and
        its byte footprint — parameter bytes plus the optimizer's per-scalar
        state bytes.  From then on forward/loss/backward lease the shard
        (restoring it from host when evicted), the next shard is prefetched
        while the current one computes, and the optimizer update runs *per
        shard* inside its backward lease — the only lease that writes — so
        no more than one of this model's shards needs to be resident per
        device at a time.

        ``optimizer=None`` binds the executor for *inference only* (every
        serving replica that leases: spilled replicas and fleet members):
        shards carry just their parameter bytes, :meth:`forward_only` leases
        them as usual, and a backward pass raises instead of silently
        training without per-shard updates.
        """
        model_id = model_id if model_id is not None else self.model.model_name
        names = manager.arena_names
        if device_of is None:
            device_of = lambda shard_index: names[shard_index % len(names)]  # noqa: E731
        # One param-shaped state array per optimizer state key, so charging
        # ``count × param.nbytes`` stays honest for float64 parameters too.
        state_arrays = 0 if optimizer is None else len(optimizer.state_keys)
        for shard_index in range(self.num_shards):
            params = self.shard_parameters(shard_index)
            nbytes = sum(p.data.nbytes for p in params) * (1 + state_arrays)
            manager.register(
                (model_id, shard_index),
                device_of(shard_index),
                nbytes,
                self._shard_arrays_fn(params, optimizer),
            )
        self._memory = manager
        self._memory_optimizer = optimizer
        self._memory_model_id = model_id

    @staticmethod
    def _shard_arrays_fn(params: List, optimizer: Optional[Optimizer]):
        """A shard's live arrays, in a stable order.

        Trained, a shard is a contiguous range of its optimizer's flat
        buffers: one slice of parameter values, then one per state key.
        Bound for inference only, it is each parameter's own array.
        """
        if optimizer is None:
            return lambda: [param.data for param in params]
        arrays = optimizer.buffers.arrays(params)
        return lambda: arrays

    @property
    def updates_inline(self) -> bool:
        """Whether optimizer updates happen per shard inside ``run_backward``."""
        return self._memory is not None and self._memory_optimizer is not None

    def shard_key(self, shard_index: int) -> ShardKey:
        """The spill manager's key for one shard of a bound executor."""
        return (self._memory_model_id, shard_index)

    def _announce_schedule(self) -> None:
        """Declare this batch's access order — one slot per task of
        :attr:`order`, the loss's lease of the final shard included: every
        acquire consumes one announced slot, so without it the
        schedule-aware policy would see the final shard as hop-less right
        before its backward and evict exactly the shard needed next."""
        self._memory.announce(
            self._memory_model_id, [self.shard_key(shard) for _, shard in self.order]
        )

    def _leased(
        self,
        shard_index: int,
        write: bool,
        then: Optional[int] = None,
        prefetch: Optional[ShardKey] = None,
    ) -> ContextManager[None]:
        """Context holding one shard for the duration of a task.

        Nothing to hold for a fully-resident executor.  With a bound spill
        manager the shard is leased (restored from host if evicted; ``write``
        says whether the task changes its arrays), and the fetch of
        ``prefetch`` — by default this model's shard ``then``, the one the
        chain needs next, if it exists — is kicked off first so it overlaps
        this task's compute.
        """
        if self._memory is None:
            return _RESIDENT
        if prefetch is None and then is not None and 0 <= then < self.num_shards:
            prefetch = self.shard_key(then)
        return self._spilled_lease(self.shard_key(shard_index), write, prefetch)

    @contextmanager
    def _spilled_lease(
        self, key: ShardKey, write: bool, prefetch: Optional[ShardKey]
    ) -> Iterator[None]:
        with self._memory.lease(key, write=write):
            if prefetch is not None:
                self._memory.prefetch(prefetch)
            yield

    # ------------------------------------------------------------------ #
    # Fine-grained task API (mirrors the scheduler's FORWARD/BACKWARD/UPDATE)
    # ------------------------------------------------------------------ #
    def begin_batch(self) -> None:
        """Reset per-batch activation stashes."""
        self._contexts = [_ShardContext() for _ in self.boundaries]
        self._loss = None
        if self._memory is not None:
            self._advance_pending = True
            self._announce_schedule()

    def end_batch(self) -> None:
        """Drop the activation stashes and loss of the finished batch.

        The boundary inputs/outputs (and through them whatever autograd
        state survived the backward pass) would otherwise stay alive until
        the next ``begin_batch``, keeping one batch's worth of activation
        memory resident between optimisation steps.
        """
        self._contexts = []
        self._loss = None

    def run_task(
        self, kind: str, shard_index: int, batch: Batch, prefetch: Optional[ShardKey] = None
    ) -> Any:
        """Execute one ``(kind, shard)`` entry of :attr:`order`.

        ``prefetch`` (spilled execution only) names the shard whose restore
        should overlap this task; by default it is this model's next shard.
        """
        if kind == FORWARD:
            return self.run_forward(shard_index, batch, prefetch)
        if kind == LOSS:
            return self.compute_loss(batch)
        return self.run_backward(shard_index, prefetch)

    def run_forward(
        self, shard_index: int, batch: Batch, prefetch: Optional[ShardKey] = None
    ) -> Any:
        """Forward pass of one shard; stores the boundary input and output."""
        with self._leased(shard_index, write=False, then=shard_index + 1, prefetch=prefetch):
            context = self._contexts[shard_index]
            if shard_index == 0:
                state: Any = None
            else:
                upstream = self._contexts[shard_index - 1].output
                state = _detach_state(upstream)
            context.boundary_input = state
            context.output = self._run_blocks(shard_index, state, batch)
            return context.output

    def _run_blocks(self, shard_index: int, state: Any, batch: Batch) -> Any:
        """Run one shard's blocks on the upstream boundary ``state``."""
        start, stop = self.boundaries[shard_index]
        for block_index in range(start, stop):
            state = self.model.run_block(block_index, state, batch)
        return state

    def compute_loss(self, batch: Batch) -> Tensor:
        """Loss on the final shard's output (graph still attached to that shard only)."""
        # Leased in case the loss head reads parameters of the final shard.
        with self._leased(self.num_shards - 1, write=False):
            self._loss = self.model.compute_loss(self._contexts[-1].output, batch)
            return self._loss

    def run_backward(self, shard_index: int, prefetch: Optional[ShardKey] = None) -> None:
        """Backward pass of one shard, consuming the downstream boundary gradient.

        Under a spill manager the shard's optimizer update runs inline before
        the lease ends — the only window in which its parameters, gradients,
        and optimizer state are all guaranteed resident — so this lease
        writes.
        """
        if self._memory is not None and self._memory_optimizer is None:
            raise SchedulingError(
                "this executor was bound for inference only (bind_memory "
                "without an optimizer); spilled backward passes need the "
                "optimizer registered so per-shard updates can run inline"
            )
        with self._leased(shard_index, write=True, then=shard_index - 1, prefetch=prefetch):
            context = self._contexts[shard_index]
            if shard_index == self.num_shards - 1:
                if self._loss is None:
                    raise SchedulingError("compute_loss must run before the last shard's backward")
                self._loss.backward()
            else:
                downstream_input = self._contexts[shard_index + 1].boundary_input
                boundary_grads = [
                    tensor.grad for tensor in _state_tensors(downstream_input)
                ]
                output_tensors = _state_tensors(context.output)
                if len(boundary_grads) != len(output_tensors):
                    raise SchedulingError(
                        "boundary gradient structure does not match shard output structure"
                    )
                pending = [
                    (tensor, grad)
                    for tensor, grad in zip(output_tensors, boundary_grads)
                    if grad is not None
                ]
                for position, (tensor, grad) in enumerate(pending):
                    # Multi-tensor boundary states may share a subgraph: only the
                    # last backward may free contexts, or the earlier passes would
                    # silently detach the shared portion for the later ones.
                    tensor.backward(grad, retain_graph=position < len(pending) - 1)
            if self.updates_inline:
                if self._advance_pending:
                    self._memory_optimizer.advance_step()
                    self._advance_pending = False
                self._memory_optimizer.step_params(self.shard_parameters(shard_index))

    def shard_parameters(self, shard_index: int) -> List:
        """Parameters owned by the blocks of one shard."""
        start, stop = self.boundaries[shard_index]
        params: List = []
        for block_index in range(start, stop):
            params.extend(self.model.block_parameters(block_index))
        return params

    # ------------------------------------------------------------------ #
    # Whole-step convenience
    # ------------------------------------------------------------------ #
    def train_step(self, batch: Batch, optimizer: Optimizer) -> float:
        """One full sharded optimisation step (forward chain, loss, backward chain, update).

        Under a bound spill manager the update happens per shard inside each
        backward lease (bit-identical arithmetic; see :meth:`bind_memory`),
        so no whole-model ``optimizer.step`` runs here.
        """
        if self._memory is not None and self._memory_optimizer is None:
            raise ConfigurationError(
                "this executor was bound for inference only (bind_memory "
                "without an optimizer); it cannot run training steps"
            )
        if self._memory is not None and optimizer is not self._memory_optimizer:
            raise ConfigurationError(
                "train_step received a different optimizer than bind_memory; "
                "spilled updates must go through the registered optimizer"
            )
        with self.telemetry.span("step", cat="training", model=self.model.model_name):
            return self._train_step_impl(batch, optimizer)

    def _train_step_impl(self, batch: Batch, optimizer: Optimizer) -> float:
        """The uninstrumented step body (E16 benchmarks this directly)."""
        self.begin_batch()
        self.model.zero_grad()
        for kind, shard_index in self.order:
            self.run_task(kind, shard_index, batch)
        if not self.updates_inline:
            optimizer.step()
        loss_value = self._loss.item()
        self.end_batch()
        return loss_value

    def forward_only(self, batch: Batch) -> Any:
        """Sharded inference under ``no_grad`` (no autograd graph is built).

        Output values are bit-identical to the graph-building forward — only
        the recording is skipped — and with a bound spill manager only the
        forward chain is announced, so schedule-aware eviction never plans
        for a backward pass that will not happen.  The chain's state lives
        in this call, not in the per-batch stashes, so several threads may
        run it at once (a fleet's workers serving two batches of one model).
        """
        forward = [shard for kind, shard in self.order if kind == FORWARD]
        if self._memory is not None:
            self._memory.announce(
                self._memory_model_id, [self.shard_key(shard) for shard in forward]
            )
        state: Any = None
        with no_grad():
            for shard_index in forward:
                with self._leased(shard_index, write=False, then=shard_index + 1):
                    state = self._run_blocks(shard_index, state, batch)
        return state


@dataclass
class _ModelSlot:
    """Book-keeping for one model managed by the shard-parallel trainer."""

    model_id: str
    executor: ShardedModelExecutor
    optimizer: Optimizer
    loader: DataLoader
    report: TrainingReport
    tracker: MetricTracker = field(default_factory=MetricTracker)


class ShardParallelTrainer:
    """Hydra-style interleaved training of several sharded models.

    ``num_devices`` simulated devices execute shard tasks; shard ``i`` of
    model ``j`` is pinned to device ``staggered_device(i, j, num_devices)``
    (:mod:`repro.sharding.order`), the scheduler's staggered placement.  The
    trainer walks mini-batches of all models concurrently, issuing each
    model's :attr:`ShardedModelExecutor.order` one task per sweep in a
    round-robin over models — the numerical results are independent of the
    interleaving because models share no state, which is exactly why
    Hydra's fine-grained schedule is safe.

    With ``memory_manager`` set, every registered model executes *spilled*:
    shards are leased through the manager around each task (each shard
    charges its device's arena), optimizer updates happen per shard inside the
    backward lease, and idle shards are evicted to host memory under
    memory pressure — which is how models whose resident bytes exceed every
    device budget still train, bit-identically to fully-resident runs.
    """

    def __init__(
        self,
        num_devices: int = 2,
        memory_manager: Optional["SpillManager"] = None,
        telemetry=None,
    ):
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        self.num_devices = int(num_devices)
        self.memory = memory_manager
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._slots: List[_ModelSlot] = []

    def add_model(
        self,
        model: ShardableModel,
        optimizer: Optimizer,
        loader: DataLoader,
        boundaries: Sequence[Tuple[int, int]],
        model_id: Optional[str] = None,
    ) -> None:
        """Register a model (with its sharding boundaries) for interleaved training."""
        executor = ShardedModelExecutor(model, boundaries)
        executor.telemetry = self.telemetry
        model_id = model_id or model.model_name
        if self.memory is not None:
            names = self.memory.arena_names
            slot_index = len(self._slots)
            executor.bind_memory(
                self.memory,
                optimizer,
                model_id=model_id,
                device_of=lambda shard: names[self.device_of(slot_index, shard) % len(names)],
            )
        self._slots.append(
            _ModelSlot(
                model_id=model_id,
                executor=executor,
                optimizer=optimizer,
                loader=loader,
                report=TrainingReport(model_id=model_id),
            )
        )

    @property
    def num_models(self) -> int:
        return len(self._slots)

    def device_of(self, model_index: int, shard_index: int) -> int:
        """Device of one shard: the scheduler's staggered round-robin placement."""
        return staggered_device(shard_index, model_index, self.num_devices)

    def train_epoch(self, epoch: int = 0) -> Dict[str, Dict[str, float]]:
        """Run one epoch for every registered model, interleaving shard tasks.

        A spilled cohort runs inside the manager's ``driving()`` (see the
        module docstring); the caller's CPU mask is back on return.
        """
        if not self._slots:
            raise SchedulingError("no models registered")
        with self.memory.driving() if self.memory is not None else nullcontext():
            sweeps = []
            for slot in self._slots:
                slot.loader.set_epoch(epoch)
                sweeps.append(self._sweep_slots(slot, iter(slot.loader), epoch))
            # Round-robin over the models still in flight, one slot per sweep.
            # Each entry is [sweep, the shard that model leases next]; every
            # task prefetches the shard the next model in the round leases
            # next, not its own next shard — by the time this model runs
            # again, the other models' leases have evicted that.
            running = [[sweep, next(sweep, _DONE)] for sweep in sweeps]
            while running:
                running = [entry for entry in running if entry[1] is not _DONE]
                for index, entry in enumerate(running):
                    try:
                        entry[1] = entry[0].send(self._next_lease(running, index))
                    except StopIteration:
                        entry[1] = _DONE

        results: Dict[str, Dict[str, float]] = {}
        for slot in self._slots:
            epoch_metrics = slot.tracker.end_epoch()
            slot.report.epochs.append(epoch_metrics)
            results[slot.model_id] = epoch_metrics
        return results

    @staticmethod
    def _next_lease(running: List[list], index: int) -> Optional[ShardKey]:
        """The shard the first later model in the round leases next.

        ``None`` when no other model leases one (a one-model cohort, or the
        rest have finished): the executor then prefetches its own next
        shard.  A fully-resident executor ignores the key.
        """
        count = len(running)
        for step in range(1, count):
            key = running[(index + step) % count][1]
            if key is not None and key is not _DONE:
                return key
        return None

    def _sweep_slots(
        self, slot: _ModelSlot, batches: Iterator[Batch], epoch: int
    ) -> Generator[Optional[ShardKey], Optional[ShardKey], None]:
        """One model's epoch as a generator that pauses after each sweep slot.

        Its suspended position is the model's cursor into the executor's
        order.  A slot is either starting a batch (``begin_batch`` and
        ``zero_grad``) or one forward/backward task; the loss rides in the
        final forward's slot, and the whole-model optimizer step, batch
        teardown and the next batch's fetch in the final backward's.  Each
        pause yields the key of the shard the model leases next (``None``
        once its epoch is over) and receives the shard the task it resumes
        into should prefetch (``None``: the executor's own next shard).
        """
        tel = self.telemetry
        executor = slot.executor
        first = (slot.model_id, executor.order[0][1])
        batch = next(batches, None)
        while batch is not None:
            # Interleaved steps of different models overlap in time, so they
            # use begin/end tokens (flat spans), not the nesting context manager.
            token = tel.begin("step", cat="training", model=slot.model_id, epoch=epoch)
            executor.begin_batch()
            executor.model.zero_grad()
            for kind, shard_index in executor.order:
                if kind == LOSS:
                    slot.tracker.update(loss=executor.compute_loss(batch).item())
                else:
                    prefetch = yield (slot.model_id, shard_index)
                    executor.run_task(kind, shard_index, batch, prefetch=prefetch)
            # Spilled executors already updated each shard inside its
            # backward lease (the only window it is resident).
            if not executor.updates_inline:
                slot.optimizer.step()
            # Free the finished batch's activation stashes before the next
            # fetch so peak memory spans one batch, not two.
            executor.end_batch()
            tel.end(token)
            batch = next(batches, None)
            # The next resumption starts a batch and leases nothing, so the
            # prefetch sent in here is dropped.
            yield None if batch is None else first

    def fit(self, num_epochs: int = 1) -> Dict[str, TrainingReport]:
        """Train every registered model for ``num_epochs`` epochs."""
        for epoch in range(num_epochs):
            self.train_epoch(epoch)
        return {slot.model_id: slot.report for slot in self._slots}
