"""Differentiable primitive operations and their functional wrappers.

Every class here is a :class:`~repro.autograd.function.Function` subclass
whose ``forward`` works on raw numpy arrays and whose ``backward`` returns
one gradient per input.  The lowercase functions at the bottom are the public
functional API used by :class:`~repro.autograd.tensor.Tensor` methods and by
the :mod:`repro.nn` layers.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd.function import Function, unbroadcast
from repro.exceptions import ShapeError


# --------------------------------------------------------------------------- #
# Elementwise arithmetic
# --------------------------------------------------------------------------- #
class Add(Function):
    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return a + b

    def backward(self, grad_output):
        return (
            unbroadcast(grad_output, self.a_shape) if self.needs_input_grad[0] else None,
            unbroadcast(grad_output, self.b_shape) if self.needs_input_grad[1] else None,
        )


class Sub(Function):
    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return a - b

    def backward(self, grad_output):
        return (
            unbroadcast(grad_output, self.a_shape) if self.needs_input_grad[0] else None,
            unbroadcast(-grad_output, self.b_shape) if self.needs_input_grad[1] else None,
        )


class Mul(Function):
    def forward(self, a, b):
        # Python scalars are kept as scalars: `np.asarray(0.5)` would create
        # a 0-d float64 array whose dtype "wins" numpy promotion, silently
        # upcasting the whole downstream backward pass (gradients, GEMMs) to
        # float64.  Weak scalar promotion keeps gradients in the tensor dtype.
        self.save_for_backward(
            a if np.isscalar(a) else np.asarray(a),
            b if np.isscalar(b) else np.asarray(b),
        )
        return a * b

    def backward(self, grad_output):
        a, b = self.saved_tensors
        grad_a = unbroadcast(grad_output * b, np.shape(a)) if self.needs_input_grad[0] else None
        grad_b = unbroadcast(grad_output * a, np.shape(b)) if self.needs_input_grad[1] else None
        return grad_a, grad_b


class Div(Function):
    def forward(self, a, b):
        # See Mul: scalars stay scalars so backward keeps the tensor dtype.
        self.save_for_backward(
            a if np.isscalar(a) else np.asarray(a),
            b if np.isscalar(b) else np.asarray(b),
        )
        return a / b

    def backward(self, grad_output):
        a, b = self.saved_tensors
        grad_a = unbroadcast(grad_output / b, np.shape(a)) if self.needs_input_grad[0] else None
        grad_b = (
            unbroadcast(-grad_output * a / (b * b), np.shape(b))
            if self.needs_input_grad[1]
            else None
        )
        return grad_a, grad_b


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad_output):
        return (-grad_output,)


class Pow(Function):
    """Elementwise power with a constant (non-differentiated) exponent."""

    def forward(self, a, exponent: float = 2.0):
        self.exponent = float(exponent)
        self.save_for_backward(np.asarray(a))
        return a ** self.exponent

    def backward(self, grad_output):
        (a,) = self.saved_tensors
        return (grad_output * self.exponent * a ** (self.exponent - 1.0),)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_output):
        (out,) = self.saved_tensors
        return (grad_output * out,)


class Log(Function):
    def forward(self, a):
        self.save_for_backward(np.asarray(a))
        return np.log(a)

    def backward(self, grad_output):
        (a,) = self.saved_tensors
        return (grad_output / a,)


class Sqrt(Function):
    def forward(self, a):
        out = np.sqrt(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_output):
        (out,) = self.saved_tensors
        return (grad_output / (2.0 * out),)


# --------------------------------------------------------------------------- #
# Matrix multiplication
# --------------------------------------------------------------------------- #
def _stacked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` where ``b`` is a 2-D matrix shared across ``a``'s batch dims.

    numpy dispatches ``(B, ..., M, K) @ (K, N)`` as one GEMM call per batch
    row; collapsing the leading dimensions issues a single large GEMM, which
    is meaningfully faster on every BLAS.  Each output element is the same
    row-times-column dot product either way (the reduction axis and its
    blocking are unchanged), so the result is bit-identical.
    """
    if a.ndim <= 2 or b.ndim != 2:
        return a @ b
    lead = a.shape[:-1]
    flat = a.reshape(-1, a.shape[-1]) @ b
    return flat.reshape(*lead, b.shape[1])


class MatMul(Function):
    """Batched matrix multiplication following numpy ``@`` semantics."""

    def forward(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        if a.ndim < 1 or b.ndim < 1:
            raise ShapeError("matmul requires at least 1-dimensional operands")
        self.save_for_backward(a, b)
        return _stacked_matmul(a, b)

    def backward(self, grad_output):
        a, b = self.saved_tensors
        grad_a = grad_b = None
        if self.needs_input_grad[0]:
            if b.ndim == 1:
                grad_a = np.outer(grad_output, b) if a.ndim > 1 else grad_output * b
            else:
                grad_a = _stacked_matmul(grad_output, np.swapaxes(b, -1, -2))
            grad_a = unbroadcast(np.asarray(grad_a), a.shape)
        if self.needs_input_grad[1]:
            if a.ndim == 1:
                grad_b = np.outer(a, grad_output) if b.ndim > 1 else a * grad_output
            else:
                grad_b = np.swapaxes(a, -1, -2) @ grad_output
            grad_b = unbroadcast(np.asarray(grad_b), b.shape)
        return grad_a, grad_b


class LinearFunction(Function):
    """Fused affine map ``y = x @ W.T + b`` in a single graph node.

    Replaces the three-op composition ``matmul(x, transpose(W)) + b`` with
    one :class:`Function`, saving two graph nodes, the pre-bias matmul
    output, and the transpose bookkeeping per layer call.  Forward and
    backward execute exactly the numpy operations the composition executes
    (same operands, same reduction order), so both outputs and gradients are
    bit-for-bit identical to the unfused path — verified by
    ``tests/test_fused_kernels.py``.
    """

    def forward(self, x, weight, bias=None):
        x = np.asarray(x)
        weight = np.asarray(weight)
        self.save_for_backward(x, weight)
        out = _stacked_matmul(x, weight.T)
        if bias is None:
            self.bias_shape = None
            return out
        bias = np.asarray(bias)
        self.bias_shape = bias.shape
        # The layer's own bias (same dtype, one entry per output column) is
        # tested first, without numpy's general promotion/broadcast helpers.
        if ((bias.dtype == out.dtype and bias.shape == out.shape[-1:])
                or (np.result_type(out.dtype, bias.dtype) == out.dtype
                    and np.broadcast_shapes(out.shape, bias.shape) == out.shape)):
            # Same rounding as `out + bias`, one fewer allocation.
            out += bias
        else:
            # Promoting or out-broadcasting bias: match the composition.
            out = out + bias
        return out

    def backward(self, grad_output):
        x, weight = self.saved_tensors
        grad_x = grad_w = grad_b = None
        if self.needs_input_grad[0]:
            grad_x = _stacked_matmul(grad_output, weight)
        if self.needs_input_grad[1]:
            # The composition's gradient is ``(x^T @ g).T``; the GEMM writes
            # it through a transposed view of a buffer laid out like the
            # weight, so the result is C-contiguous (the layout the flat
            # gradient buffer copies fastest) with the same products and
            # reduction order.
            if x.ndim == 1:
                grad_w = np.outer(grad_output, x)
            elif x.ndim == 2:
                grad_w = np.empty(weight.shape, dtype=np.result_type(x, grad_output))
                np.matmul(x.T, grad_output, out=grad_w.T)
            else:
                per_row = np.empty(
                    x.shape[:-2] + weight.shape, dtype=np.result_type(x, grad_output)
                )
                np.matmul(np.swapaxes(x, -1, -2), grad_output,
                          out=np.swapaxes(per_row, -1, -2))
                grad_w = per_row.sum(axis=tuple(range(per_row.ndim - 2)))
        if len(self.needs_input_grad) > 2 and self.needs_input_grad[2]:
            grad_b = unbroadcast(grad_output, self.bias_shape)
        if len(self.needs_input_grad) == 2:
            return grad_x, grad_w
        return grad_x, grad_w, grad_b


class AttentionCore(Function):
    """Fused scaled-dot-product attention: ``softmax(q @ k^T * scale) @ v``.

    One graph node instead of the five-op composition (two matmuls, a
    transpose, the scale multiply, softmax).  Every GEMM and ufunc is issued
    on the same operands in the same order as the composition, so outputs
    and all three gradients are bit-for-bit identical; the pre-softmax score
    matrix is not stashed, which removes one ``(B, H, S, S)`` buffer per
    layer from the backward-pass working set.  Used on the unmasked /
    no-dropout fast path of :class:`~repro.nn.attention.MultiHeadSelfAttention`.
    """

    def forward(self, q, k, v, scale: float = 1.0):
        q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
        scores = q @ np.swapaxes(k, -1, -2)
        np.multiply(scores, scale, out=scores)  # same rounding as `scores * scale`
        # Exact Softmax.forward sequence, reusing the owned buffer.
        shifted = np.subtract(scores, np.max(scores, axis=-1, keepdims=True), out=scores)
        exps = np.exp(shifted, out=shifted)
        weights = np.divide(exps, np.sum(exps, axis=-1, keepdims=True), out=exps)
        self.scale = float(scale)
        self.save_for_backward(q, k, v, weights)
        return weights @ v

    def backward(self, grad_output):
        q, k, v, weights = self.saved_tensors
        d_weights = grad_output @ np.swapaxes(v, -1, -2)
        d_v = np.swapaxes(weights, -1, -2) @ grad_output
        # Exact Softmax.backward sequence...
        work = d_weights * weights
        dot = np.sum(work, axis=-1, keepdims=True)
        np.subtract(d_weights, dot, out=work)
        np.multiply(weights, work, out=work)
        # ...then the scale multiply's backward, folded into the same buffer.
        np.multiply(work, self.scale, out=work)
        d_q = work @ k
        d_k = np.swapaxes(np.swapaxes(q, -1, -2) @ work, -1, -2)
        return d_q, d_k, d_v


class LayerNormFunction(Function):
    """Single-pass layer normalisation over the last axis, with affine.

    One graph node instead of the nine-op composition
    ``(x - mean) / sqrt(var + eps) * weight + bias``.  Every intermediate is
    computed with the identical numpy expressions (and the identical
    gradient-accumulation grouping) the composition produces, so outputs and
    all three gradients are bit-for-bit equal to the unfused path.
    """

    def forward(self, x, weight, bias, eps: float = 1e-5):
        x = np.asarray(x)
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        std = np.sqrt(variance + eps)
        normalised = centered / std
        self.save_for_backward(centered, std, normalised, np.asarray(weight))
        self.bias_shape = np.shape(bias)
        out = normalised * weight
        bias = np.asarray(bias)
        if (np.result_type(out.dtype, bias.dtype) == out.dtype
                and np.broadcast_shapes(out.shape, bias.shape) == out.shape):
            np.add(out, bias, out=out)  # same rounding as `out + bias`
        else:
            out = out + bias
        return out

    def backward(self, grad_output):
        centered, std, normalised, weight = self.saved_tensors
        width = centered.shape[-1]
        grad_x = grad_w = grad_b = None
        if self.needs_input_grad[1]:
            grad_w = unbroadcast(grad_output * normalised, weight.shape)
        if self.needs_input_grad[2]:
            grad_b = unbroadcast(grad_output, self.bias_shape)
        if self.needs_input_grad[0]:
            # Mirrors the composed graph's backward exactly: Div, Sqrt, Mean,
            # Mul and Sub backwards in topological order, with the composed
            # accumulation grouping ((d_div + d_sq) + d_sq into `centered`,
            # then + the mean term into `x`).  Intermediates reuse their own
            # buffers (`out=` on arrays this backward allocated), which keeps
            # the ufunc sequence — and therefore every bit — unchanged.
            grad_n = grad_output * weight
            work = -grad_n
            np.multiply(work, centered, out=work)
            np.divide(work, std * std, out=work)
            d_std = work.sum(axis=-1, keepdims=True)
            d_var = np.divide(d_std, 2.0 * std, out=d_std)
            d_sq = np.broadcast_to(d_var, centered.shape) / width
            d_sq_c = np.multiply(d_sq, centered, out=d_sq)
            d_centered = np.divide(grad_n, std, out=grad_n)
            grad_c = d_centered + d_sq_c
            grad_c += d_sq_c
            d_mean = (-grad_c).sum(axis=-1, keepdims=True)
            grad_x = np.broadcast_to(d_mean, centered.shape) / width
            np.add(grad_c, grad_x, out=grad_x)
        return grad_x, grad_w, grad_b


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
class ReLU(Function):
    def forward(self, a):
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad_output):
        (mask,) = self.saved_tensors
        return (grad_output * mask,)


class Tanh(Function):
    def forward(self, a):
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_output):
        (out,) = self.saved_tensors
        work = out * out
        np.subtract(1.0, work, out=work)
        np.multiply(grad_output, work, out=work)
        return (work,)


class Sigmoid(Function):
    def forward(self, a):
        a = np.asarray(a)
        if not np.issubdtype(a.dtype, np.floating):
            out = 1.0 / (1.0 + np.exp(-a))
        else:
            # 1 / (1 + exp(-a)) with the intermediate buffer reused in place:
            # identical ufunc sequence, three fewer allocations.
            out = np.negative(a)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            np.divide(1.0, out, out=out)
        self.save_for_backward(out)
        return out

    def backward(self, grad_output):
        (out,) = self.saved_tensors
        return (grad_output * out * (1.0 - out),)


class GELU(Function):
    """Gaussian Error Linear Unit using the tanh approximation (as in BERT)."""

    _COEFF = 0.7978845608028654  # sqrt(2 / pi)

    def forward(self, a):
        a = np.asarray(a)
        if not np.issubdtype(a.dtype, np.floating):
            a = a.astype(np.float64)
        # `_COEFF * (a + 0.044715 * a*a*a)` followed by `0.5 * a * (1 + tanh)`
        # with intermediates folded into owned buffers.  The cube is computed
        # as two multiplies (as in PyTorch's tanh-GELU) rather than libm
        # `pow(a, 3)`: ~100x faster under numpy and equal to within 1 ulp.
        inner = a * a
        np.multiply(inner, a, out=inner)
        np.multiply(inner, 0.044715, out=inner)
        np.add(inner, a, out=inner)
        np.multiply(inner, self._COEFF, out=inner)
        tanh_inner = np.tanh(inner, out=inner)
        self.save_for_backward(a, tanh_inner)
        out = tanh_inner + 1.0
        np.multiply(out, 0.5 * a, out=out)
        return out

    def backward(self, grad_output):
        # Identical grouping to
        #   sech2 = 1 - tanh^2; d_inner = COEFF * (1 + 3*0.044715*a^2)
        #   grad  = 0.5*(1 + tanh) + 0.5*a * sech2 * d_inner
        # with intermediates folded into owned buffers.
        a, tanh_inner = self.saved_tensors
        sech2 = tanh_inner ** 2
        np.subtract(1.0, sech2, out=sech2)
        d_inner = a ** 2
        np.multiply(d_inner, 3.0 * 0.044715, out=d_inner)
        np.add(d_inner, 1.0, out=d_inner)
        np.multiply(d_inner, self._COEFF, out=d_inner)
        grad = tanh_inner + 1.0
        np.multiply(grad, 0.5, out=grad)
        term = 0.5 * a
        np.multiply(term, sech2, out=term)
        np.multiply(term, d_inner, out=term)
        np.add(grad, term, out=grad)
        np.multiply(grad_output, grad, out=grad)
        return (grad,)


class Softmax(Function):
    def forward(self, a, axis: int = -1):
        self.axis = axis
        # The shifted/exp/normalised intermediates share one buffer (we own
        # it); the ufunc sequence and therefore the values are unchanged.
        shifted = a - np.max(a, axis=axis, keepdims=True)
        if not np.issubdtype(shifted.dtype, np.floating):
            shifted = shifted.astype(np.float64)
        exps = np.exp(shifted, out=shifted)
        out = np.divide(exps, np.sum(exps, axis=axis, keepdims=True), out=exps)
        self.save_for_backward(out)
        return out

    def backward(self, grad_output):
        (out,) = self.saved_tensors
        # Same `out * (grad - sum(grad*out))` arithmetic with the big
        # intermediate reused in place (`grad_output` itself is never mutated).
        work = grad_output * out
        dot = np.sum(work, axis=self.axis, keepdims=True)
        np.subtract(grad_output, dot, out=work)
        np.multiply(out, work, out=work)
        return (work,)


class LogSoftmax(Function):
    def forward(self, a, axis: int = -1):
        self.axis = axis
        shifted = a - np.max(a, axis=axis, keepdims=True)
        if not np.issubdtype(shifted.dtype, np.floating):
            shifted = shifted.astype(np.float64)
        log_sum = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
        out = np.subtract(shifted, log_sum, out=shifted)  # we own `shifted`
        self.save_for_backward(np.exp(out))
        return out

    def backward(self, grad_output):
        (softmax_out,) = self.saved_tensors
        summed = np.sum(grad_output, axis=self.axis, keepdims=True)
        work = softmax_out * summed
        np.subtract(grad_output, work, out=work)
        return (work,)


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #
def _normalize_axis(axis, ndim: int) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


class Sum(Function):
    def forward(self, a, axis=None, keepdims: bool = False):
        a = np.asarray(a)
        self.input_shape = a.shape
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        return a.sum(axis=self.axis, keepdims=keepdims)

    def backward(self, grad_output):
        grad = np.asarray(grad_output)
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, self.input_shape).copy(),)


class Mean(Function):
    def forward(self, a, axis=None, keepdims: bool = False):
        a = np.asarray(a)
        self.input_shape = a.shape
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        if self.axis is None:
            self.count = a.size
        else:
            self.count = int(np.prod([a.shape[i] for i in self.axis]))
        return a.mean(axis=self.axis, keepdims=keepdims)

    def backward(self, grad_output):
        grad = np.asarray(grad_output)
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, self.input_shape).copy() / self.count,)


class Max(Function):
    def forward(self, a, axis=None, keepdims: bool = False):
        a = np.asarray(a)
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        out = a.max(axis=self.axis, keepdims=True)
        mask = (a == out)
        # Split gradient equally among ties, matching a subgradient choice
        # that keeps the parity experiments deterministic.
        self.save_for_backward(mask / mask.sum(axis=self.axis, keepdims=True))
        if not keepdims and self.axis is not None:
            out = np.squeeze(out, axis=self.axis)
        elif not keepdims and self.axis is None:
            out = out.reshape(())
        return out

    def backward(self, grad_output):
        (weights,) = self.saved_tensors
        grad = np.asarray(grad_output)
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (weights * grad,)


# --------------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------------- #
class Reshape(Function):
    def forward(self, a, shape: Tuple[int, ...] = ()):
        a = np.asarray(a)
        self.input_shape = a.shape
        return a.reshape(shape)

    def backward(self, grad_output):
        return (np.asarray(grad_output).reshape(self.input_shape),)


class Transpose(Function):
    def forward(self, a, axes: Optional[Tuple[int, ...]] = None):
        a = np.asarray(a)
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        self.axes = tuple(axes)
        return np.transpose(a, self.axes)

    def backward(self, grad_output):
        inverse = np.argsort(self.axes)
        return (np.transpose(np.asarray(grad_output), inverse),)


def _index_may_repeat(index) -> bool:
    """Whether an index could select the same element twice (needs add.at)."""
    if isinstance(index, tuple):
        return any(_index_may_repeat(item) for item in index)
    return not (index is None or index is Ellipsis
                or isinstance(index, (int, np.integer, slice)))


class GetItem(Function):
    def forward(self, a, index=None):
        a = np.asarray(a)
        self.input_shape = a.shape
        self.input_dtype = a.dtype
        self.index = index
        return a[index]

    def backward(self, grad_output):
        grad = np.zeros(self.input_shape, dtype=np.result_type(self.input_dtype, np.float32))
        if _index_may_repeat(self.index):
            np.add.at(grad, self.index, grad_output)
        else:
            # Basic (slice/int) indexing selects disjoint positions, so the
            # scatter-add degenerates to one assignment into fresh zeros —
            # identical values, far faster than `np.add.at`.
            grad[self.index] = grad_output
        return (grad,)


class Concat(Function):
    """Concatenate along an axis; gradients are split back to the inputs."""

    def forward(self, *arrays, axis: int = 0):
        arrays = [np.asarray(a) for a in arrays]
        self.axis = axis
        self.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad_output):
        splits = np.cumsum(self.sizes)[:-1]
        pieces = np.split(np.asarray(grad_output), splits, axis=self.axis)
        return tuple(
            piece if needed else None
            for piece, needed in zip(pieces, self.needs_input_grad)
        )


class Embedding(Function):
    """Row gather: ``weight[indices]`` with scatter-add backward."""

    def forward(self, weight, indices=None):
        weight = np.asarray(weight)
        self.indices = np.asarray(indices)
        self.weight_shape = weight.shape
        return weight[self.indices]

    def backward(self, grad_output):
        grad = np.zeros(self.weight_shape, dtype=np.asarray(grad_output).dtype)
        np.add.at(grad, self.indices, grad_output)
        return (grad,)


class Where(Function):
    """``np.where`` with a constant condition (condition is not differentiated)."""

    def forward(self, a, b, condition=None):
        self.condition = np.asarray(condition, dtype=bool)
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return np.where(self.condition, a, b)

    def backward(self, grad_output):
        grad_a = grad_b = None
        if self.needs_input_grad[0]:
            grad_a = unbroadcast(grad_output * self.condition, self.a_shape)
        if self.needs_input_grad[1]:
            grad_b = unbroadcast(grad_output * (~self.condition), self.b_shape)
        return grad_a, grad_b


class DropoutOp(Function):
    """Inverted dropout with an externally supplied keep mask."""

    def forward(self, a, mask=None, keep_prob: float = 1.0):
        self.mask = np.asarray(mask)
        self.keep_prob = float(keep_prob)
        return a * self.mask / self.keep_prob

    def backward(self, grad_output):
        return (grad_output * self.mask / self.keep_prob,)


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
class CrossEntropyWithLogits(Function):
    """Fused log-softmax + negative log-likelihood over integer class targets.

    ``logits`` has shape (N, C); ``targets`` is an int array of shape (N,).
    ``ignore_index`` rows contribute zero loss and zero gradient.
    """

    def forward(self, logits, targets=None, ignore_index: int = -100):
        logits = np.asarray(logits)
        targets = np.asarray(targets)
        if logits.ndim != 2:
            raise ShapeError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
        if targets.shape != (logits.shape[0],):
            raise ShapeError(
                f"targets shape {targets.shape} incompatible with logits shape {logits.shape}"
            )
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        valid = targets != ignore_index
        safe_targets = np.where(valid, targets, 0)
        picked = log_probs[np.arange(logits.shape[0]), safe_targets]
        count = int(valid.sum()) or 1
        loss = -(picked * valid).sum() / count
        self.save_for_backward(np.exp(log_probs), safe_targets, valid)
        self.count = count
        return np.asarray(loss, dtype=logits.dtype)

    def backward(self, grad_output):
        probs, targets, valid = self.saved_tensors
        grad = probs.copy()
        grad[np.arange(grad.shape[0]), targets] -= 1.0
        grad *= valid[:, None]
        grad /= self.count
        return (grad * grad_output,)


class MSELoss(Function):
    """Mean squared error between predictions and constant targets."""

    def forward(self, predictions, targets=None):
        predictions = np.asarray(predictions)
        targets = np.asarray(targets)
        if predictions.shape != targets.shape:
            raise ShapeError(
                f"mse shapes differ: {predictions.shape} vs {targets.shape}"
            )
        diff = predictions - targets
        self.save_for_backward(diff)
        return np.asarray((diff ** 2).mean(), dtype=predictions.dtype)

    def backward(self, grad_output):
        (diff,) = self.saved_tensors
        return (grad_output * 2.0 * diff / diff.size,)


# --------------------------------------------------------------------------- #
# Functional API
# --------------------------------------------------------------------------- #
def add(a, b):
    return Add.apply(a, b)


def sub(a, b):
    return Sub.apply(a, b)


def mul(a, b):
    return Mul.apply(a, b)


def div(a, b):
    return Div.apply(a, b)


def neg(a):
    return Neg.apply(a)


def pow(a, exponent: float):  # noqa: A001 - mirrors the Tensor.__pow__ operator
    return Pow.apply(a, exponent=exponent)


def exp(a):
    return Exp.apply(a)


def log(a):
    return Log.apply(a)


def sqrt(a):
    return Sqrt.apply(a)


def matmul(a, b):
    return MatMul.apply(a, b)


def linear(x, weight, bias=None):
    """Fused affine map ``x @ weight.T + bias`` (one graph node)."""
    if bias is None:
        return LinearFunction.apply(x, weight)
    return LinearFunction.apply(x, weight, bias)


def layer_norm(x, weight, bias, eps: float = 1e-5):
    """Fused layer normalisation over the last axis with affine transform."""
    return LayerNormFunction.apply(x, weight, bias, eps=eps)


def attention_core(q, k, v, scale: float = 1.0):
    """Fused ``softmax(q @ k^T * scale) @ v`` (one graph node)."""
    return AttentionCore.apply(q, k, v, scale=scale)


def relu(a):
    return ReLU.apply(a)


def tanh(a):
    return Tanh.apply(a)


def sigmoid(a):
    return Sigmoid.apply(a)


def gelu(a):
    return GELU.apply(a)


def softmax(a, axis: int = -1):
    return Softmax.apply(a, axis=axis)


def log_softmax(a, axis: int = -1):
    return LogSoftmax.apply(a, axis=axis)


def sum(a, axis=None, keepdims: bool = False):  # noqa: A001 - functional mirror of Tensor.sum
    return Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims: bool = False):
    return Mean.apply(a, axis=axis, keepdims=keepdims)


def max(a, axis=None, keepdims: bool = False):  # noqa: A001
    return Max.apply(a, axis=axis, keepdims=keepdims)


def reshape(a, shape: Sequence[int]):
    return Reshape.apply(a, shape=tuple(shape))


def transpose(a, axes: Optional[Sequence[int]] = None):
    return Transpose.apply(a, axes=tuple(axes) if axes is not None else None)


def getitem(a, index):
    return GetItem.apply(a, index=index)


def concat(tensors: Sequence, axis: int = 0):
    return Concat.apply(*tensors, axis=axis)


def embedding(weight, indices):
    indices = indices.data if hasattr(indices, "data") else np.asarray(indices)
    return Embedding.apply(weight, indices=indices)


def where(condition, a, b):
    condition = condition.data if hasattr(condition, "data") else np.asarray(condition)
    return Where.apply(a, b, condition=condition)


def dropout(a, mask, keep_prob: float):
    return DropoutOp.apply(a, mask=mask, keep_prob=keep_prob)


def cross_entropy(logits, targets, ignore_index: int = -100):
    targets = targets.data if hasattr(targets, "data") else np.asarray(targets)
    return CrossEntropyWithLogits.apply(logits, targets=targets, ignore_index=ignore_index)


def mse_loss(predictions, targets):
    targets = targets.data if hasattr(targets, "data") else np.asarray(targets)
    return MSELoss.apply(predictions, targets=targets)
