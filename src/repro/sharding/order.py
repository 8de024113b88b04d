"""The two schedule decisions the cost model and the real engine share.

Hydra's schedule is made of *(model, shard, pass, mini-batch)* tasks.  Two
facts about it are true no matter who executes it — the simulator
(:mod:`repro.scheduler`) against a clock or the numpy engine
(:mod:`repro.training`) against real arrays — so each is defined once, here:

* :func:`batch_order` — the order one model's shard tasks run in within a
  mini-batch (the only order its dependencies allow);
* :func:`staggered_device` — which device slot shard ``i`` of job ``j``
  computes on when a cohort is spread shard-parallel.

Nothing ``repro.sharding`` imports touches ``repro.cluster`` or
``repro.scheduler``, so the training path reads these without loading the
simulator.
"""

from __future__ import annotations

from typing import List, Tuple

FORWARD, LOSS, BACKWARD, UPDATE = "forward", "loss", "backward", "update"


def batch_order(num_shards: int, updates: bool = True) -> List[Tuple[str, int]]:
    """``(kind, shard_index)`` steps of one mini-batch, in execution order.

    Forward chain ``0 .. n-1``, the loss on the final shard's output, the
    backward chain ``n-1 .. 0``, then (``updates=True``) one optimizer update
    per shard.  The engine passes ``updates=False``: it applies updates
    inside the backward step (spilled) or once after the chain (resident).
    """
    forward = [(FORWARD, index) for index in range(num_shards)]
    backward = [(BACKWARD, index) for index in reversed(range(num_shards))]
    update = [(UPDATE, index) for index in range(num_shards)] if updates else []
    return forward + [(LOSS, num_shards - 1)] + backward + update


def staggered_device(shard_index: int, job_index: int, num_devices: int) -> int:
    """Device slot of shard ``i`` of job ``j``: ``(i + j) mod D``.

    Offsetting each job by its index puts early- and late-pipeline shards of
    different models on every device, which is what lets one model's
    backward fill another model's forward bubble.
    """
    return (shard_index + job_index) % num_devices
