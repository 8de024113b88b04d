"""Task-selection policies.

When a device becomes idle and several shard tasks are ready for it, the
policy decides which runs first.  The paper does not pin down a specific
rule, so the reproduction ships several and ablates them (experiment E8):

* :func:`fifo_policy` — submission order.
* :func:`backward_first_policy` — prefer backward/update work, then the
  oldest in-flight mini-batch; drains in-progress batches before admitting
  new ones, bounding activation memory.
* :func:`critical_path_policy` — prefer the task with the longest chain of
  dependent work remaining (HEFT-style upward rank); this is the default for
  the shard-parallel (Hydra) strategy.
* :func:`model_round_robin_policy_factory` — fairness across models (avoids
  starving any single model's progress, useful with early-stopping model
  selection); stateful, so each simulation builds its own.
* :func:`random_policy_factory` — a seeded random baseline for the ablation;
  each instance owns its generator.

:func:`get_policy` builds any of them by name.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.cluster.simulator import SimTask, fifo_policy
from repro.exceptions import ConfigurationError

_KIND_PRIORITY = {"update": 0, "backward": 1, "forward": 2}


def backward_first_policy(device: str, ready: List[SimTask]) -> SimTask:
    """Prefer updates, then backwards, then forwards; break ties by age."""
    def priority(task: SimTask):
        kind = str(task.tags.get("kind", "forward"))
        epoch = int(task.tags.get("epoch", 0))
        batch = int(task.tags.get("batch", 0))
        return (_KIND_PRIORITY.get(kind, 3), epoch, batch)

    best = min(range(len(ready)), key=lambda i: (priority(ready[i]), i))
    return ready[best]


def critical_path_policy(device: str, ready: List[SimTask]) -> SimTask:
    """Prefer the ready task with the largest remaining downstream work.

    Requires the strategy to have stored an upward-rank estimate in
    ``tags["priority"]`` (see :mod:`repro.scheduler.ranking`); tasks without a
    priority are treated as rank 0.  Ties break towards older mini-batches and
    then submission order, so the policy is fully deterministic.
    """
    def key(index: int):
        task = ready[index]
        return (
            -float(task.tags.get("priority", 0.0)),
            int(task.tags.get("epoch", 0)),
            int(task.tags.get("batch", 0)),
            index,
        )

    best = min(range(len(ready)), key=key)
    return ready[best]


def model_round_robin_policy_factory() -> Callable[[str, List[SimTask]], SimTask]:
    """Create a stateful policy that rotates across models per device."""
    last_model: Dict[str, str] = {}

    def policy(device: str, ready: List[SimTask]) -> SimTask:
        previous = last_model.get(device)
        models = sorted({str(task.tags.get("model", "")) for task in ready})
        chosen_model = models[0]
        if previous in models and len(models) > 1:
            index = (models.index(previous) + 1) % len(models)
            chosen_model = models[index]
        elif previous is not None and previous not in models:
            chosen_model = models[0]
        for task in ready:
            if str(task.tags.get("model", "")) == chosen_model:
                last_model[device] = chosen_model
                return task
        return ready[0]

    return policy


def random_policy_factory(seed: int = 0) -> Callable[[str, List[SimTask]], SimTask]:
    """Create a seeded random task-selection policy."""
    rng = np.random.default_rng(seed)

    def policy(device: str, ready: List[SimTask]) -> SimTask:
        return ready[int(rng.integers(0, len(ready)))]

    return policy


_POLICIES: Dict[str, Callable] = {
    "fifo": lambda: fifo_policy,
    "backward_first": lambda: backward_first_policy,
    "critical_path": lambda: critical_path_policy,
    "model_round_robin": model_round_robin_policy_factory,
    "random": random_policy_factory,
}


def get_policy(name: str, **kwargs) -> Callable[[str, List[SimTask]], SimTask]:
    """Instantiate a policy by name (``fifo``, ``backward_first``, ``model_round_robin``, ``random``)."""
    if name not in _POLICIES:
        raise ConfigurationError(f"unknown policy {name!r}; available: {sorted(_POLICIES)}")
    return _POLICIES[name](**kwargs)
