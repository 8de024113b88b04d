"""Exactness tests for the fused hot-path kernels and in-place updates.

The performance overhaul (fused linear/layernorm/attention kernels, in-place
optimizers, in-place gradient accumulation) is only admissible because it
keeps the arithmetic of the unfused, allocating formulations — the paper's
exact-replication desideratum D3.  These tests pin that contract down to the
bit level: every fused kernel must produce byte-identical outputs *and*
gradients to the composition of primitive ops it replaced, and the in-place
optimizers must match their allocating reference updates exactly.

The one documented exception is softmax-cross-entropy's backward: the fused
op computes ``(probs - onehot) / n`` where the composition computes
``probs/n - onehot/n`` — algebraically identical, one final-ulp rounding
apart — so its forward is compared bitwise and its backward to float64-tight
tolerance.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, ops
from repro.data import DataLoader
from repro.models import BertConfig, BertForSpanPrediction, FeedForwardConfig, FeedForwardNetwork
from repro.nn import LayerNorm, Linear
from repro.optim import SGD, Adam, AdamW
from repro.training import ShardedModelExecutor


def _tensors(*arrays):
    return tuple(Tensor(a, requires_grad=True) for a in arrays)


def _assert_identical(label, a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, (label, a.dtype, b.dtype)
    assert np.array_equal(a, b), (
        f"{label}: max abs diff {np.abs(a.astype(np.float64) - b.astype(np.float64)).max():.3e}"
    )


class TestFusedLinearParity:
    """ops.linear == matmul(x, W.T) + b, bit for bit, values and gradients."""

    @pytest.mark.parametrize("shape", [(5, 7), (4, 6, 7), (2, 3, 4, 7)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_bitwise_parity_with_composition(self, shape, bias):
        rng = np.random.default_rng(hash((shape, bias)) % 2**32)
        x_data = rng.normal(size=shape).astype(np.float32)
        w_data = rng.normal(size=(9, shape[-1])).astype(np.float32)
        b_data = rng.normal(size=(9,)).astype(np.float32)
        grad = rng.normal(size=shape[:-1] + (9,)).astype(np.float32)

        x1, w1, b1 = _tensors(x_data, w_data, b_data)
        composed = x1.matmul(w1.T) + b1 if bias else x1.matmul(w1.T)
        composed.backward(grad)

        x2, w2, b2 = _tensors(x_data, w_data, b_data)
        fused = ops.linear(x2, w2, b2 if bias else None)
        fused.backward(grad)

        _assert_identical("output", composed.data, fused.data)
        _assert_identical("grad_x", x1.grad, x2.grad)
        _assert_identical("grad_w", w1.grad, w2.grad)
        if bias:
            _assert_identical("grad_b", b1.grad, b2.grad)

    # (input shape, output features): the bench models' layers — MLP 512x3
    # at batch 4, MLP 256x3 at batch 32, BERT-tiny at batch 16 x 48 tokens.
    @pytest.mark.parametrize("x_shape, out_features", [
        ((4, 512), 512), ((32, 64), 256), ((32, 256), 256), ((32, 256), 10),
        ((16, 48, 32), 32), ((16, 48, 32), 64), ((16, 48, 64), 32), ((16, 48, 32), 2),
        ((7,), 5),
    ])
    def test_weight_gradient_is_c_contiguous_and_exact(self, x_shape, out_features):
        rng = np.random.default_rng(sum(x_shape) + out_features)
        x_data = rng.normal(size=x_shape).astype(np.float32)
        w_data = rng.normal(size=(out_features, x_shape[-1])).astype(np.float32)
        grad = rng.normal(size=x_shape[:-1] + (out_features,)).astype(np.float32)

        x1, w1 = _tensors(x_data, w_data)
        x1.matmul(w1.T).backward(grad)
        x2, w2 = _tensors(x_data, w_data)
        ops.linear(x2, w2).backward(grad)

        assert w2.grad.flags.c_contiguous
        _assert_identical("grad_w", w1.grad, w2.grad)

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        x, w, b = _tensors(
            rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5,))
        )
        check_gradients(lambda *t: ops.linear(*t).sum(), [x, w, b])

    def test_linear_module_uses_fused_kernel(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert type(out._ctx).__name__ == "LinearFunction"


class TestFusedLayerNormParity:
    """ops.layer_norm == (x-mean)/sqrt(var+eps)*w + b, bit for bit."""

    @staticmethod
    def _composed(x, weight, bias, eps):
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalised = centered / (variance + eps).sqrt()
        return normalised * weight + bias

    @pytest.mark.parametrize("shape", [(4, 8), (2, 5, 8), (2, 3, 4, 8)])
    def test_bitwise_parity_with_composition(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        x_data = (rng.normal(size=shape) * 3.0).astype(np.float32)
        w_data = rng.normal(size=(8,)).astype(np.float32)
        b_data = rng.normal(size=(8,)).astype(np.float32)
        grad = rng.normal(size=shape).astype(np.float32)

        x1, w1, b1 = _tensors(x_data, w_data, b_data)
        composed = self._composed(x1, w1, b1, 1e-5)
        composed.backward(grad)

        x2, w2, b2 = _tensors(x_data, w_data, b_data)
        fused = ops.layer_norm(x2, w2, b2, eps=1e-5)
        fused.backward(grad)

        _assert_identical("output", composed.data, fused.data)
        _assert_identical("grad_x", x1.grad, x2.grad)
        _assert_identical("grad_w", w1.grad, w2.grad)
        _assert_identical("grad_b", b1.grad, b2.grad)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        x, w, b = _tensors(
            rng.normal(size=(3, 6)), rng.normal(size=(6,)), rng.normal(size=(6,))
        )
        check_gradients(lambda *t: ops.layer_norm(*t).sum(), [x, w, b])

    def test_layernorm_module_uses_fused_kernel(self):
        layer = LayerNorm(6)
        out = layer(Tensor(np.random.default_rng(0).normal(size=(2, 6)).astype(np.float32)))
        assert type(out._ctx).__name__ == "LayerNormFunction"


class TestAttentionCoreParity:
    """ops.attention_core == softmax(q @ k^T * scale) @ v, bit for bit."""

    def test_bitwise_parity_with_composition(self):
        rng = np.random.default_rng(7)
        shape = (3, 2, 16, 8)
        q_data, k_data, v_data = (rng.normal(size=shape).astype(np.float32) for _ in range(3))
        grad = rng.normal(size=shape).astype(np.float32)
        # A python float, as in MultiHeadSelfAttention (a numpy float64
        # scalar would upcast the composed path's arithmetic to float64).
        scale = 1.0 / float(np.sqrt(8.0))

        q1, k1, v1 = _tensors(q_data, k_data, v_data)
        composed = ops.softmax(q1.matmul(k1.transpose(0, 1, 3, 2)) * scale, axis=-1).matmul(v1)
        composed.backward(grad)

        q2, k2, v2 = _tensors(q_data, k_data, v_data)
        fused = ops.attention_core(q2, k2, v2, scale=scale)
        fused.backward(grad)

        _assert_identical("output", composed.data, fused.data)
        _assert_identical("grad_q", q1.grad, q2.grad)
        _assert_identical("grad_k", k1.grad, k2.grad)
        _assert_identical("grad_v", v1.grad, v2.grad)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        q, k, v = _tensors(*(rng.normal(size=(2, 3, 4)) for _ in range(3)))
        check_gradients(lambda *t: ops.attention_core(*t, scale=0.5).sum(), [q, k, v])

    def test_all_valid_mask_matches_no_mask(self):
        """An all-True attention mask must be a bitwise no-op."""
        from repro.nn import MultiHeadSelfAttention

        x_data = np.random.default_rng(3).normal(size=(2, 5, 8)).astype(np.float32)
        layer = MultiHeadSelfAttention(8, 2, dropout=0.0, rng=np.random.default_rng(4))
        out_none = layer(Tensor(x_data))
        out_mask = layer(Tensor(x_data), attention_mask=np.ones((2, 5), dtype=bool))
        _assert_identical("masked output", out_none.data, out_mask.data)


class TestSoftmaxCrossEntropyParity:
    """The fused CE op versus log_softmax + gather + mean."""

    def _case(self, n=6, c=5, seed=11):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, c)).astype(np.float32)
        targets = rng.integers(0, c, size=(n,))
        return logits, targets

    def test_forward_bitwise_parity(self):
        logits_data, targets = self._case()
        fused = ops.cross_entropy(Tensor(logits_data), targets)

        picked = ops.log_softmax(Tensor(logits_data), axis=-1)[
            np.arange(len(targets)), targets
        ]
        composed = -picked.mean()
        _assert_identical("loss", composed.data, fused.data)

    def test_backward_matches_composition_tightly(self):
        # (probs - onehot)/n vs probs/n - onehot/n: algebraically equal,
        # different final rounding — compared at float64-tight tolerance.
        logits_data, targets = self._case()
        t1 = Tensor(logits_data.astype(np.float64), requires_grad=True)
        ops.cross_entropy(t1, targets).backward()
        t2 = Tensor(logits_data.astype(np.float64), requires_grad=True)
        (-ops.log_softmax(t2, axis=-1)[np.arange(len(targets)), targets].mean()).backward()
        np.testing.assert_allclose(t1.grad, t2.grad, rtol=0, atol=1e-15)

    def test_gradcheck(self):
        logits_data, targets = self._case(4, 3, seed=12)
        (logits,) = _tensors(logits_data)
        check_gradients(lambda t: ops.cross_entropy(t, targets), [logits])


class TestShardedParityAfterOverhaul:
    """Sharded execution still replicates whole-model training exactly."""

    def test_mlp_gradients_bitwise_identical(self):
        config = FeedForwardConfig.tiny()
        rng = np.random.default_rng(0)
        batch = _make_batch(
            features=rng.normal(size=(16, config.input_dim)).astype(np.float32),
            label=rng.integers(0, config.num_classes, size=(16,)).astype(np.int64),
        )
        whole = FeedForwardNetwork(config, seed=3)
        sharded = FeedForwardNetwork(config, seed=3)

        loss = whole.loss_on_batch(batch)
        whole.zero_grad()
        loss.backward()

        executor = ShardedModelExecutor(sharded, [(0, 1), (1, 3)])
        executor.begin_batch()
        sharded.zero_grad()
        for index in range(executor.num_shards):
            executor.run_forward(index, batch)
        sharded_loss = executor.compute_loss(batch)
        for index in reversed(range(executor.num_shards)):
            executor.run_backward(index)

        _assert_identical("loss", loss.data, sharded_loss.data)
        for (name, p_whole), (_, p_sharded) in zip(
            whole.named_parameters(), sharded.named_parameters()
        ):
            _assert_identical(name, p_whole.grad, p_sharded.grad)

    def test_transformer_gradients_bitwise_identical(self):
        config = BertConfig.tiny(vocab_size=32, seq_len=12)
        rng = np.random.default_rng(1)
        batch = _make_batch(
            input_ids=rng.integers(0, 32, size=(4, 12)).astype(np.int64),
            attention_mask=np.ones((4, 12), dtype=bool),
            start_position=rng.integers(0, 12, size=(4,)).astype(np.int64),
            end_position=rng.integers(0, 12, size=(4,)).astype(np.int64),
        )
        whole = BertForSpanPrediction(config, seed=5)
        sharded = BertForSpanPrediction(config, seed=5)

        loss = whole.loss_on_batch(batch)
        whole.zero_grad()
        loss.backward()

        executor = ShardedModelExecutor(sharded, [(0, 2), (2, 4)])
        executor.begin_batch()
        sharded.zero_grad()
        for index in range(executor.num_shards):
            executor.run_forward(index, batch)
        executor.compute_loss(batch)
        for index in reversed(range(executor.num_shards)):
            executor.run_backward(index)

        for (name, p_whole), (_, p_sharded) in zip(
            whole.named_parameters(), sharded.named_parameters()
        ):
            _assert_identical(name, p_whole.grad, p_sharded.grad)


class TestGraphFreeing:
    """Eager context freeing must fail loudly, never corrupt gradients."""

    def test_second_backward_through_freed_graph_raises(self):
        from repro.exceptions import AutogradError

        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        with pytest.raises(AutogradError, match="retain_graph"):
            y.backward()
        assert np.allclose(x.grad, [2.0, 4.0])  # first pass untouched

    def test_retain_graph_allows_repeated_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * x).sum()
        y.backward(retain_graph=True)
        y.backward()
        assert np.allclose(x.grad, [4.0, 8.0])

    def test_partially_freed_shared_subgraph_raises(self):
        from repro.exceptions import AutogradError

        x = Tensor([1.0, 2.0], requires_grad=True)
        shared = x * 3.0
        a = shared.sum()
        b = (shared * 2.0).sum()
        a.backward()  # frees shared's context
        with pytest.raises(AutogradError, match="freed"):
            b.backward()


class TestInPlaceOptimizerParity:
    """The flat, chunked, in-place updates match the allocating per-parameter formulas."""

    @staticmethod
    def _reference_adam(params, grads, lr, betas, eps, weight_decay, decoupled, steps):
        beta1, beta2 = betas
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        params = [p.copy() for p in params]
        for step in range(1, steps + 1):
            for i, grad in enumerate(grads):
                if weight_decay and not decoupled:
                    grad = grad + weight_decay * params[i]
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad
                v[i] = beta2 * v[i] + (1.0 - beta2) * (grad * grad)
                m_hat = m[i] / (1.0 - beta1 ** step)
                v_hat = v[i] / (1.0 - beta2 ** step)
                update = m_hat / (np.sqrt(v_hat) + eps)
                if weight_decay and decoupled:
                    update = update + weight_decay * params[i]
                params[i] = params[i] - lr * update
        return params

    @pytest.mark.parametrize("decoupled", [False, True])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_matches_allocating_reference(self, decoupled, weight_decay):
        from repro.nn import Parameter

        rng = np.random.default_rng(8)
        datas = [rng.normal(size=s).astype(np.float32) for s in [(6, 4), (4,), (2, 3)]]
        grads = [rng.normal(size=d.shape).astype(np.float32) for d in datas]
        params = [Parameter(d.copy()) for d in datas]
        cls = AdamW if decoupled else Adam
        optimizer = cls(params, lr=1e-2, weight_decay=weight_decay)
        for _ in range(5):
            for param, grad in zip(params, grads):
                param.grad = grad.copy()
            optimizer.step()
        expected = self._reference_adam(
            datas, grads, 1e-2, (0.9, 0.999), 1e-8, weight_decay, decoupled, steps=5
        )
        for param, exp in zip(params, expected):
            _assert_identical("param", param.data, exp)

    def test_sgd_momentum_matches_allocating_reference(self):
        from repro.nn import Parameter

        rng = np.random.default_rng(9)
        data = rng.normal(size=(5, 3)).astype(np.float32)
        grad = rng.normal(size=(5, 3)).astype(np.float32)
        param = Parameter(data.copy())
        optimizer = SGD([param], lr=0.1, momentum=0.9, weight_decay=0.01)
        expected = data.copy()
        velocity = np.zeros_like(expected)
        for _ in range(4):
            param.grad = grad.copy()
            optimizer.step()
            g = grad + 0.01 * expected
            velocity = 0.9 * velocity + g
            expected = expected - 0.1 * velocity
        _assert_identical("param", param.data, expected)

    @staticmethod
    def _reference_sgd(params, grads, lr, momentum, weight_decay, steps):
        params = [p.copy() for p in params]
        velocity = [np.zeros_like(p) for p in params]
        for _ in range(steps):
            for i, grad in enumerate(grads):
                grad = grad + weight_decay * params[i]
                velocity[i] = momentum * velocity[i] + grad
                params[i] = params[i] - lr * velocity[i]
        return params

    # Sizes 30 000 + 5 000 + ...: the second parameter straddles the first
    # 32 768-element chunk boundary, so the sweep splits it in two.
    _SHAPES = [(100, 300), (50, 100), (17,), (40, 900), (3, 5)]

    @pytest.mark.parametrize("kind", ["adam", "adamw", "sgd-momentum"])
    def test_chunked_flat_update_matches_per_parameter_reference(self, kind):
        from repro.nn import Parameter

        rng = np.random.default_rng(21)
        datas = [rng.normal(size=s).astype(np.float32) for s in self._SHAPES]
        grads = [rng.normal(size=s).astype(np.float32) for s in self._SHAPES]
        params = [Parameter(d.copy()) for d in datas]
        if kind == "sgd-momentum":
            optimizer = SGD(params, lr=0.05, momentum=0.9, weight_decay=0.01)
        else:
            optimizer = (AdamW if kind == "adamw" else Adam)(params, lr=1e-2, weight_decay=0.01)
        # Parameter 2 has no gradient in the last step: it splits the flat
        # buffer into two runs, is skipped, and its moments stay as step 2
        # left them.
        skipped = 2
        for step in range(3):
            if step == 2:
                moments_before = {
                    key: view.copy() for key, view in optimizer.state[id(params[skipped])].items()
                }
            for i, (param, grad) in enumerate(zip(params, grads)):
                param.grad = None if (i, step) == (skipped, 2) else grad.copy()
            optimizer.step()

        def reference(steps):
            if kind == "sgd-momentum":
                return self._reference_sgd(datas, grads, 0.05, 0.9, 0.01, steps=steps)
            return self._reference_adam(
                datas, grads, 1e-2, (0.9, 0.999), 1e-8, 0.01, kind == "adamw", steps=steps
            )

        for i, exp in enumerate(reference(3)):
            if i != skipped:
                _assert_identical(f"param {i}", params[i].data, exp)
        _assert_identical("skipped param", params[skipped].data, reference(2)[skipped])
        for key, moment in optimizer.state[id(params[skipped])].items():
            assert moment.any()
            _assert_identical(f"skipped {key}", moment, moments_before[key])
        # Values and state are views of one flat buffer per kind.
        group = optimizer.buffers.groups[0]
        for param in params:
            assert np.shares_memory(param.data, group.data)
            for key, moment in optimizer.state[id(param)].items():
                assert np.shares_memory(moment, group.state[key])

    def test_backward_accumulates_into_the_gradient_view(self):
        from repro.nn import Parameter

        rng = np.random.default_rng(4)
        param = Parameter(rng.normal(size=(3, 4)).astype(np.float32))
        optimizer = Adam([param], lr=1e-3)
        terms = [rng.normal(size=(3, 4)).astype(np.float32) for _ in range(3)]
        # Three uses of one leaf: the contributions sum ((g1 + g2) + g3).
        total = sum((param * Tensor(t)).sum() for t in terms)
        total.backward()
        assert param.grad is optimizer.buffers.grad_view(param)
        _assert_identical("grad", param.grad, (terms[0] + terms[1]) + terms[2])

    def test_rebound_parameter_data_is_refused(self):
        from repro.nn import Parameter

        param = Parameter(np.ones((3,), dtype=np.float32))
        optimizer = Adam([param], lr=1e-3)
        param.data = np.zeros((3,), dtype=np.float32)
        param.grad = np.ones((3,), dtype=np.float32)
        with pytest.raises(ValueError, match="rebound"):
            optimizer.step()

    def test_step_leaves_param_grad_untouched(self):
        from repro.nn import Parameter

        param = Parameter(np.ones((3,), dtype=np.float32))
        grad = np.full((3,), 0.25, dtype=np.float32)
        param.grad = grad
        Adam([param], lr=1e-3).step()
        assert param.grad is grad
        _assert_identical("grad", grad, np.full((3,), 0.25, dtype=np.float32))


def _make_batch(**arrays):
    from repro.data.dataloader import Batch

    return Batch({name: np.asarray(values) for name, values in arrays.items()})


class TestCompressedCheckpoint:
    def test_compressed_roundtrip_and_smaller(self, tmp_path):
        from repro.training import load_checkpoint, save_checkpoint

        model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=2)
        plain = save_checkpoint(model, tmp_path / "plain.npz", metadata={"epoch": 1})
        compressed = save_checkpoint(
            model, tmp_path / "small.npz", metadata={"epoch": 1}, compressed=True
        )
        assert compressed.stat().st_size < plain.stat().st_size

        clone = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=9)
        metadata = load_checkpoint(clone, compressed)
        assert int(metadata["epoch"]) == 1
        for (name, p_model), (_, p_clone) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            _assert_identical(name, p_model.data, p_clone.data)
