"""The :class:`Tensor` class: a numpy array plus an autograd graph node."""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.exceptions import AutogradError


class _GradMode(threading.local):
    """Per-thread graph-recording switch; every new thread starts enabled."""

    enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Whether this thread's new operations are recorded onto the autograd graph."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording on the calling thread only (e.g. for evaluation).

    Other threads keep recording: a trial evaluating under ``no_grad`` must
    not switch the graph off for a peer that is mid-forward.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _ops():
    """Late import of the op library to avoid a circular module dependency."""
    from repro.autograd import ops
    return ops


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: Sentinel left in ``_ctx`` when backward() releases a node's context, so a
#: second backward through the freed graph raises instead of silently
#: producing wrong (missing) gradients.
_FREED = object()


class Tensor:
    """A multi-dimensional array that supports reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Floating-point data defaults to
        ``float32`` (matching typical GPU training precision) unless the
        input array is already ``float64``.
    requires_grad:
        If ``True``, gradients with respect to this tensor are accumulated
        into :attr:`grad` during :meth:`backward`.
    name:
        Optional identifier used in error messages and debugging output.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_ctx")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        if isinstance(data, Tensor):
            data = data.data
        came_from_ndarray = isinstance(data, (np.ndarray, np.generic))
        array = np.asarray(data)
        if not came_from_ndarray and array.dtype == np.float64:
            # Python lists / scalars default to float32 (GPU training precision);
            # explicit float64 numpy arrays are preserved for high-precision checks.
            array = array.astype(np.float32)
        if array.dtype == np.float16:
            array = array.astype(np.float32)
        elif array.dtype not in (np.float32, np.float64):
            if np.issubdtype(array.dtype, np.floating):
                array = array.astype(np.float32)
            elif np.issubdtype(array.dtype, np.integer) or array.dtype == np.bool_:
                # Integer tensors (e.g. token ids, labels) are kept as int64.
                array = array.astype(np.int64)
            else:
                raise TypeError(f"unsupported tensor dtype: {array.dtype}")
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self.name = name
        self._ctx = None
        if self.requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise AutogradError("only floating-point tensors can require gradients")

    @staticmethod
    def _wrap(data: np.ndarray, requires_grad: bool = False,
              name: Optional[str] = None) -> "Tensor":
        """Fast-path constructor for arrays our own ops already produced.

        Skips the dtype-coercion rules of ``__init__`` (the array is known to
        carry a supported dtype) and always builds a plain :class:`Tensor`,
        never a subclass.  This is what every op output, ``detach()``,
        ``copy()`` and shard-boundary hand-off goes through on the hot path.
        """
        tensor = Tensor.__new__(Tensor)
        tensor.data = data
        tensor.grad = None
        tensor.requires_grad = requires_grad
        tensor.name = name
        tensor._ctx = None
        return tensor

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the autograd graph."""
        return Tensor._wrap(self.data, requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        """Return a deep copy (data copied, graph not carried over)."""
        return Tensor._wrap(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    def astype(self, dtype) -> "Tensor":
        array = self.data.astype(dtype)
        if array.dtype == self.data.dtype or array.dtype in (np.float32, np.float64):
            return Tensor._wrap(array, requires_grad=False, name=self.name)
        # Unusual target dtypes keep the full coercion rules (f16 -> f32, ...).
        return Tensor(array, requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Autograd
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None, retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1.0 and may only be omitted for scalar outputs
        (e.g. a loss value).

        Unless ``retain_graph`` is true, each node's recorded context (its
        saved forward activations and parent links) is released as soon as
        the backward pass has consumed it, so activation memory is freed
        eagerly instead of living until the whole graph is garbage-collected.
        Pass ``retain_graph=True`` to keep the graph intact (e.g. for
        gradient checking or when backpropagating twice through shared
        subgraphs).
        """
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor that does not require grad")
        if self._ctx is _FREED:
            raise AutogradError(
                "backward through a graph whose saved state was already freed; "
                "pass retain_graph=True to the first backward() call to "
                "backpropagate through it again"
            )
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient is only valid for scalar tensors"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise AutogradError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        ordering = self._topological_order()
        # In-flight gradient per graph node, plus the ids of buffers this
        # backward pass allocated itself.  Owned buffers can be accumulated
        # into in place; everything else (op outputs, views, caller-supplied
        # arrays) may be aliased elsewhere and must never be mutated.
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: Set[int] = set()
        self.grad = _accumulate_grad(self.grad, grad, id(self), owned)

        for node in ordering:
            ctx = node._ctx
            if ctx is None:
                continue
            node_grad = grads.pop(id(node), None)
            if ctx is _FREED:
                if node_grad is None:
                    continue
                raise AutogradError(
                    "backward through a graph whose saved state was already freed; "
                    "pass retain_graph=True to the first backward() call to "
                    "backpropagate through it again"
                )
            if node_grad is not None:
                parent_grads = ctx.propagate(node_grad)
                for parent, parent_grad in zip(ctx.parents, parent_grads):
                    if parent is None or parent_grad is None:
                        continue
                    if not parent.requires_grad:
                        continue
                    parent_grad = np.asarray(parent_grad)
                    if parent_grad.shape != parent.data.shape:
                        raise AutogradError(
                            f"{type(ctx).__name__} produced gradient of shape "
                            f"{parent_grad.shape} for input of shape {parent.data.shape}"
                        )
                    if parent._ctx is not None:
                        key = id(parent)
                        grads[key] = _accumulate_grad(
                            grads.get(key), parent_grad, key, owned
                        )
                    else:
                        _accumulate_leaf(parent, parent_grad, owned)
            if not retain_graph:
                # Release saved activations and parent links eagerly
                # (PyTorch's retain_graph=False behaviour).
                node._ctx = _FREED

    def _topological_order(self) -> List["Tensor"]:
        """Return graph nodes reachable from ``self`` in reverse topological order."""
        visited: Set[int] = set()
        order: List[Tensor] = []

        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            ctx = node._ctx
            if ctx is not None and ctx is not _FREED:
                for parent in ctx.parents:
                    if parent is not None and id(parent) not in visited:
                        stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32))

    @staticmethod
    def ones(*shape: int) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32))

    @staticmethod
    def full(shape: Sequence[int], value: float) -> "Tensor":
        return Tensor(np.full(shape, value, dtype=np.float32))

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None) -> "Tensor":
        from repro.utils.rng import get_rng
        generator = rng if rng is not None else get_rng()
        return Tensor(generator.normal(0.0, 1.0, size=shape).astype(np.float32))

    @staticmethod
    def arange(n: int) -> "Tensor":
        return Tensor(np.arange(n, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # Arithmetic operators (delegate to the op library)
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _ops().add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return _ops().add(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return _ops().sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _ops().sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _ops().mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return _ops().mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _ops().div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _ops().div(other, self)

    def __neg__(self) -> "Tensor":
        return _ops().neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return _ops().pow(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return _ops().matmul(self, other)

    def __getitem__(self, index) -> "Tensor":
        return _ops().getitem(self, index)

    # ------------------------------------------------------------------ #
    # Math / shape methods
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        return _ops().matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _ops().sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _ops().mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _ops().max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _ops().reshape(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        return _ops().transpose(self, axes if axes else None)

    def exp(self) -> "Tensor":
        return _ops().exp(self)

    def log(self) -> "Tensor":
        return _ops().log(self)

    def sqrt(self) -> "Tensor":
        return _ops().sqrt(self)

    def tanh(self) -> "Tensor":
        return _ops().tanh(self)

    def relu(self) -> "Tensor":
        return _ops().relu(self)

    def sigmoid(self) -> "Tensor":
        return _ops().sigmoid(self)

    def softmax(self, axis: int = -1) -> "Tensor":
        return _ops().softmax(self, axis=axis)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return _ops().log_softmax(self, axis=axis)

    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag}{label})"


def _accumulate_grad(
    existing: Optional[np.ndarray],
    update: np.ndarray,
    slot: int,
    owned: Set[int],
) -> np.ndarray:
    """Sum gradients into an accumulation slot, in place when we own the buffer.

    The first contribution is stored as-is (the array may be an op output
    that is also handed to another parent, so it must not be mutated).  The
    second contribution allocates a fresh sum — from then on the slot's
    buffer is exclusively ours and further contributions are added with
    ``np.add(..., out=...)`` without allocating.  The grouping
    ``((g1 + g2) + g3) + ...`` is identical to the allocating path, so
    accumulated gradients are bit-for-bit unchanged.
    """
    if existing is None:
        return update
    if slot in owned:
        np.add(existing, update, out=existing)
        return existing
    owned.add(slot)
    return existing + update


def _accumulate_leaf(leaf: Tensor, update: np.ndarray, owned: Set[int]) -> None:
    """Sum a gradient into a leaf's ``.grad``.

    A parameter in an optimizer's flat buffers keeps its gradient in its
    gradient view (:mod:`repro.nn.flat`): the first contribution is copied
    in, later ones are added in place — the ``((g1 + g2) + g3)`` grouping of
    :func:`_accumulate_grad`, so the sums are bit-for-bit unchanged.  A
    contribution of another dtype, or a ``.grad`` assigned from outside,
    takes the :func:`_accumulate_grad` path (the optimizer copies that
    result into the view before it steps).
    """
    flat = getattr(leaf, "_flat", None)
    existing = leaf.grad
    if flat is not None and update.dtype == leaf.data.dtype:
        view = flat.grad_view(leaf)
        if existing is None:
            np.copyto(view, update)
            leaf.grad = view
            return
        if existing is view:
            np.add(view, update, out=view)
            return
    leaf.grad = _accumulate_grad(existing, update, id(leaf), owned)
