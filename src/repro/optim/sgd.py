"""Stochastic gradient descent with optional momentum and weight decay."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.parameter import Parameter
from repro.optim.optimizer import Optimizer


class SGD(Optimizer):
    """Classic SGD: ``p -= lr * (grad + weight_decay * p)`` with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.state_keys = ("velocity",) if momentum > 0 else ()
        super().__init__(parameters, lr)

    def _update(self, data, grad, work, scratch, *moments) -> None:
        # Ufunc-for-ufunc identical to the allocating
        # `p -= lr * (momentum*vel + grad + wd*p)` formulation.
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=scratch)
            grad = np.add(grad, scratch, out=work)
        if moments:  # with momentum, the one moment is the velocity
            (velocity,) = moments
            np.multiply(velocity, self.momentum, out=velocity)
            np.add(velocity, grad, out=velocity)
            grad = velocity
        np.multiply(grad, self.lr, out=work)
        np.subtract(data, work, out=data)
