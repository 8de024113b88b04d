"""Adam and AdamW optimizers (AdamW is what BERT fine-tuning uses)."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.nn.parameter import Parameter
from repro.optim.optimizer import Optimizer

#: added to the denominator of every update (the usual Adam epsilon)
_EPS = 1e-8


class Adam(Optimizer):
    """Adam with bias-corrected first and second moments."""

    state_keys = ("m", "v")

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        weight_decay: float = 0.0,
    ):
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.weight_decay = float(weight_decay)
        super().__init__(parameters, lr)

    def _update(self, data, grad, work, scratch, m, v) -> None:
        # Every numpy operation applies the same ufunc to the same operands
        # as the allocating formulation (`m = beta1*m + (1-beta1)*grad`, ...),
        # elementwise, so updates are bit-exact whatever the chunking.
        if self.weight_decay and self._couples_weight_decay():
            np.multiply(data, self.weight_decay, out=scratch)
            grad = np.add(grad, scratch, out=work)
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        np.add(m, scratch, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(grad, grad, out=scratch)
        np.multiply(scratch, 1.0 - self.beta2, out=scratch)
        np.add(v, scratch, out=v)
        update = np.divide(m, 1.0 - self.beta1 ** self.step_count, out=work)  # m_hat
        denom = np.divide(v, 1.0 - self.beta2 ** self.step_count, out=scratch)  # v_hat
        np.sqrt(denom, out=denom)
        np.add(denom, _EPS, out=denom)
        np.divide(update, denom, out=update)
        if self.weight_decay and not self._couples_weight_decay():
            np.multiply(data, self.weight_decay, out=scratch)
            np.add(update, scratch, out=update)
        np.multiply(update, self.lr, out=update)
        np.subtract(data, update, out=data)

    def _couples_weight_decay(self) -> bool:
        """Adam couples L2 into the gradient; AdamW decays weights directly."""
        return True


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def _couples_weight_decay(self) -> bool:
        return False
