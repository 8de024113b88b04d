"""Flat parameter storage: each kind of per-scalar training state in one array.

A trained parameter carries several arrays — its values, its gradient and
whatever the optimizer keeps for it (Adam's two moments, SGD's velocity).
:class:`FlatBuffers` stores each *kind* contiguously instead: per dtype, one
1-D buffer of values, one of gradients and one per optimizer state key, with
every parameter owning the same ``[start, stop)`` range in each (ZeRO/FSDP's
flattened parameters).  ``Parameter.data`` becomes a view into the values
buffer, and backward accumulates a parameter's gradient into its range of
the gradient buffer (:meth:`FlatBuffers.grad_view`).

Parameters keep the order they are given in, so a run of consecutive
parameters — a model shard, since every built-in model's blocks own
consecutive parameters — is one slice per kind: an optimizer updates it in
one sweep and the spill manager moves it as one array per kind.

Optimizers build these buffers, so a model that is only served (no
optimizer) keeps one array per parameter and allocates nothing here.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.parameter import Parameter


class FlatGroup:
    """One dtype's buffers, all 1-D: ``data``, and — once materialized —
    ``grad`` and ``state[key]``."""

    __slots__ = ("data", "grad", "state")

    def __init__(self, dtype: np.dtype, size: int):
        self.data = np.empty(size, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.state: Dict[str, np.ndarray] = {}


#: a contiguous range of one group's buffers
Run = Tuple[FlatGroup, int, int]


class FlatBuffers:
    """Contiguous values, gradients and state for a list of parameters.

    Construction copies every parameter's values into its group's ``data``
    buffer, rebinds ``param.data`` to that range and points
    ``param._flat`` here.  The gradient and state buffers are allocated,
    zeroed, on first use (:meth:`materialize`: the first gradient backward
    produces for one of the parameters, the first update, the first
    :meth:`arrays` or a checkpoint load).  Allocated with the optimizer,
    they sat below the first sweep's activations, and glibc returned the
    freed heap top to the OS after every sweep, so training page-faulted
    it back in each time.  From then on :meth:`grad_view` and
    ``state[id(param)][key]`` are the parameter-shaped views of its range
    of the gradient and state buffers.

    Values must be written in place (``np.copyto(param.data, ...)``):
    rebinding ``param.data`` would detach the parameter from the buffers
    its optimizer updates, so the next :meth:`runs` over it raises.  The
    buffers keep no reference to the parameters, so a model is freed as
    soon as nothing else holds it.
    """

    def __init__(self, parameters: Sequence[Parameter], state_keys: Sequence[str] = ()):
        self._state_keys = tuple(state_keys)
        sizes: Dict[np.dtype, int] = {}
        layout: List[Tuple[Parameter, np.dtype, int]] = []
        for param in parameters:
            dtype = param.data.dtype
            start = sizes.get(dtype, 0)
            layout.append((param, dtype, start))
            sizes[dtype] = start + param.data.size
        groups = {dtype: FlatGroup(dtype, size) for dtype, size in sizes.items()}
        self.groups: List[FlatGroup] = list(groups.values())
        self.state: Dict[int, Dict[str, np.ndarray]] = {}
        self._grad_views: Dict[int, np.ndarray] | None = None
        #: id(param) -> (group, start, stop, the values view param.data must be)
        self._slots: Dict[int, Tuple[FlatGroup, int, int, np.ndarray]] = {}
        for param, dtype, start in layout:
            if id(param) in self._slots:
                raise ValueError(f"parameter {param!r} is listed twice")
            group = groups[dtype]
            stop = start + param.data.size
            view = group.data[start:stop].reshape(param.data.shape)
            view[...] = param.data
            param.data = view
            param._flat = self
            self._slots[id(param)] = (group, start, stop, view)

    def materialize(self) -> None:
        """Allocate the zeroed gradient and state buffers and their views (once)."""
        if self._grad_views is not None:
            return
        for group in self.groups:
            size, dtype = group.data.size, group.data.dtype
            group.grad = np.zeros(size, dtype=dtype)
            group.state = {key: np.zeros(size, dtype=dtype) for key in self._state_keys}
        self._grad_views = {}
        for key, (group, start, stop, view) in self._slots.items():
            self._grad_views[key] = group.grad[start:stop].reshape(view.shape)
            self.state[key] = {
                name: buffer[start:stop].reshape(view.shape)
                for name, buffer in group.state.items()
            }

    def grad_view(self, param: Parameter) -> np.ndarray:
        """``param``'s range of the gradient buffer, shaped like the parameter."""
        if self._grad_views is None:
            self.materialize()
        return self._grad_views[id(param)]

    def _slot(self, param: Parameter) -> Tuple[FlatGroup, int, int, np.ndarray]:
        slot = self._slots.get(id(param))
        if slot is None:
            raise ValueError(f"{param!r} is not held by these buffers")
        if param.data is not slot[3]:
            raise ValueError(
                f"{param!r}.data was rebound away from its flat buffer; write "
                "new values in place (np.copyto(param.data, values))"
            )
        return slot

    def runs(self, parameters: Sequence[Parameter], with_grad: bool = False) -> List[Run]:
        """``parameters``' ranges, merged into maximal contiguous runs.

        With ``with_grad``, only over the parameters that have a gradient:
        one whose ``grad`` is ``None`` is left out (so it splits the run it
        sits in), and a gradient assigned from outside — any array other
        than the parameter's gradient view — is copied into the view first
        (cast to the parameter's dtype), so the buffer holds every gradient
        the runs cover; the assigned array itself is not touched.
        """
        runs: List[list] = []
        last = None
        for param in parameters:
            grad = param.grad
            if with_grad and grad is None:
                continue
            group, start, stop, _ = self._slot(param)
            if with_grad:
                view = self.grad_view(param)
                if grad is not view:
                    np.copyto(view, grad)
            if last is not None and last[0] is group and last[2] == start:
                last[2] = stop
            else:
                last = [group, start, stop]
                runs.append(last)
        return [tuple(run) for run in runs]

    def arrays(self, parameters: Sequence[Parameter]) -> List[np.ndarray]:
        """One array per kind (values, then each state key) per run of ``parameters``."""
        self.materialize()
        arrays: List[np.ndarray] = []
        for group, start, stop in self.runs(parameters):
            arrays.append(group.data[start:stop])
            arrays.extend(buffer[start:stop] for buffer in group.state.values())
        return arrays
