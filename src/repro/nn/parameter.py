"""Trainable parameter tensors."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by :class:`Module`.

    Parameters always require gradients and always store float32 data unless
    explicitly constructed from float64 (used by the gradient-parity tests).

    ``_flat`` is ``None`` until an optimizer moves the parameter into flat
    buffers (:class:`repro.nn.flat.FlatBuffers`), which backward then
    accumulates its gradient into.
    """

    _flat = None

    def __init__(self, data, name: str | None = None):
        array = np.asarray(data.data if isinstance(data, Tensor) else data)
        if not np.issubdtype(array.dtype, np.floating):
            array = array.astype(np.float32)
        super().__init__(array, requires_grad=True, name=name)

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"Parameter(shape={self.shape}, dtype={self.dtype}{label})"
