"""The :class:`Module` base class: parameter registration and traversal."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.parameter import Parameter


class Module:
    """Base class for all neural-network layers and models.

    Assigning a :class:`Parameter` or another :class:`Module` as an attribute
    registers it, so :meth:`parameters`, :meth:`state_dict` and friends see
    the full tree without extra bookkeeping from subclasses.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            object.__setattr__(self, name, value)
        elif isinstance(value, Module):
            self._modules[name] = value
            object.__setattr__(self, name, value)
        else:
            object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under a non-attribute-safe name."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` for the whole subtree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the subtree."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter's data keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values produced by :meth:`state_dict`.

        Values are written into each parameter's existing array, never
        rebound: an optimizer's flat buffers keep viewing them.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            if name not in own:
                continue
            param = own[name]
            values = np.asarray(values)
            if values.shape != param.data.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {values.shape} does not match {param.data.shape}"
                )
            np.copyto(param.data, values, casting="unsafe")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = []
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            child_lines.append(f"  ({name}): {child_repr}")
        header = type(self).__name__
        if not child_lines:
            return f"{header}()"
        return f"{header}(\n" + "\n".join(child_lines) + "\n)"
