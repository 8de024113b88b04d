"""Optimizer base class."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.flat import FlatBuffers
from repro.nn.parameter import Parameter

#: elements per update chunk.  Adam's update streams six arrays of this
#: length (values, gradient, two moments, two scratch rows: 768 KiB of
#: float32), so its ≈15 passes over a chunk run out of L2, not memory.
_CHUNK = 32_768


class _Scratch(threading.local):
    """Two ``_CHUNK``-element rows per dtype for one thread's updates.

    Every temporary of an update lives here, so a step allocates nothing,
    and all of a thread's optimizers share the rows (an update never
    yields mid-chunk).
    """

    def __init__(self) -> None:
        self.rows: Dict[np.dtype, np.ndarray] = {}

    def get(self, dtype: np.dtype) -> np.ndarray:
        rows = self.rows.get(dtype)
        if rows is None:
            rows = self.rows[dtype] = np.empty((2, _CHUNK), dtype=dtype)
        return rows


_scratch = _Scratch()


class Optimizer:
    """Base class: holds parameters and their state in flat buffers.

    Construction moves the parameters into :class:`~repro.nn.flat.FlatBuffers`,
    which keep one zero-initialised buffer per name in ``state_keys`` (the
    moments a subclass keeps per scalar) once training starts;
    ``state[id(param)][key]`` is a view into them.
    ``state_bytes_per_parameter`` reports the extra bytes of state each
    trained float32 scalar needs (0 for plain SGD, 8 for Adam); the cluster
    memory model charges it to the device that owns a shard.
    """

    state_keys: Tuple[str, ...] = ()

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.step_count = 0
        self.buffers = FlatBuffers(self.parameters, self.state_keys)
        self.state: Dict[int, Dict[str, np.ndarray]] = self.buffers.state

    @property
    def state_bytes_per_parameter(self) -> int:
        return 4 * len(self.state_keys)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently stored on the parameters.

        Updates write the parameters and state in place and never rebind
        ``param.data`` or mutate ``param.grad``.

        Equivalent to :meth:`advance_step` followed by :meth:`step_params`
        over every parameter — spilled execution uses those two halves
        directly to update one shard at a time while it is resident, which
        is bit-identical because each scalar's update depends only on its
        own value, gradient, state and the shared step count.
        """
        self.advance_step()
        self.step_params(self.parameters)

    def advance_step(self) -> None:
        """Begin a new optimisation step (bumps the shared step counter).

        Must run exactly once per mini-batch before any :meth:`step_params`
        call of that batch (Adam's bias correction reads the counter).
        """
        self.step_count += 1

    def step_params(self, parameters: Iterable[Parameter]) -> None:
        """Update just ``parameters`` using their current gradients.

        Parameters without a gradient are skipped, and their state is left
        untouched.  The rest merge into contiguous runs of the flat buffers
        (one per shard of a built-in model), and each run is updated in
        ``_CHUNK``-element slices.  The update is elementwise, so updating a
        model shard by shard — or chunk by chunk — yields bit-identical
        results to one whole-model step.  The step counter is *not*
        advanced — callers group updates under one :meth:`advance_step`.
        """
        for group, start, stop in self.buffers.runs(parameters, with_grad=True):
            work, scratch = _scratch.get(group.data.dtype)
            moments = [group.state[key] for key in self.state_keys]
            for low in range(start, stop, _CHUNK):
                high = min(low + _CHUNK, stop)
                size = high - low
                self._update(
                    group.data[low:high], group.grad[low:high], work[:size], scratch[:size],
                    *(moment[low:high] for moment in moments),
                )

    def _update(
        self, data: np.ndarray, grad: np.ndarray, work: np.ndarray, scratch: np.ndarray,
        *moments: np.ndarray,
    ) -> None:  # pragma: no cover - interface
        """Update one chunk in place: ``data`` and ``moments`` (one slice per
        ``state_keys`` entry) are written, ``grad`` is read-only, and
        ``work``/``scratch`` are free for temporaries."""
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Serialisable snapshot of hyper-parameters and step count."""
        return {"lr": self.lr, "step_count": self.step_count}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lr={self.lr}, params={len(self.parameters)})"
