"""Tests for the analytical cost model and profiler."""

import numpy as np
import pytest

from repro.models import BertConfig, FeedForwardConfig
from repro.profiling import (
    FLOAT32_BYTES,
    BlockCost,
    ModelProfile,
    attention_cost,
    bytes_for_params,
    embedding_cost,
    layer_norm_cost,
    linear_cost,
    transformer_layer_cost,
)


class TestPrimitiveCosts:
    def test_linear_cost_formulas(self):
        cost = linear_cost("fc", 128, 256, tokens_per_sample=1)
        assert cost.param_count == 128 * 256 + 256
        assert cost.param_bytes == cost.param_count * FLOAT32_BYTES
        assert cost.forward_flops_per_sample == 2.0 * 128 * 256
        assert cost.activation_bytes_per_sample == 256 * FLOAT32_BYTES

    def test_linear_cost_without_bias(self):
        assert linear_cost("fc", 10, 10, bias=False).param_count == 100

    def test_linear_cost_scales_with_tokens(self):
        single = linear_cost("fc", 64, 64, tokens_per_sample=1)
        many = linear_cost("fc", 64, 64, tokens_per_sample=16)
        assert many.forward_flops_per_sample == 16 * single.forward_flops_per_sample
        assert many.param_count == single.param_count

    def test_embedding_cost_includes_extra_tables(self):
        cost = embedding_cost("emb", 1000, 64, seq_len=32, extra_tables=(512, 2))
        assert cost.param_count == (1000 + 512 + 2) * 64

    def test_layer_norm_cost(self):
        cost = layer_norm_cost("ln", 128, tokens_per_sample=4)
        assert cost.param_count == 256
        assert cost.activation_bytes_per_sample == 128 * 4 * FLOAT32_BYTES

    def test_attention_cost_params(self):
        cost = attention_cost("attn", 64, seq_len=16)
        assert cost.param_count == 4 * (64 * 64 + 64)

    def test_attention_flops_grow_quadratically_with_seq_len(self):
        short = attention_cost("attn", 64, seq_len=64)
        long = attention_cost("attn", 64, seq_len=256)
        projection = 4 * 2.0 * 64 * 64
        # Remove the linear-in-seq projection part, the rest must scale ~16x.
        short_scores = short.forward_flops_per_sample - projection * 64
        long_scores = long.forward_flops_per_sample - projection * 256
        assert long_scores == pytest.approx(16 * short_scores)

    def test_transformer_layer_aggregates_parts(self):
        cost = transformer_layer_cost("layer", 64, 256, seq_len=32)
        expected_params = (
            4 * (64 * 64 + 64) + (64 * 256 + 256) + (256 * 64 + 64) + 2 * 2 * 64
        )
        assert cost.param_count == expected_params

    def test_backward_flops_multiplier(self):
        cost = linear_cost("fc", 32, 32)
        assert cost.backward_flops_per_sample == pytest.approx(2.0 * cost.forward_flops_per_sample)

    def test_scaled_multiplies_per_sample_quantities(self):
        cost = linear_cost("fc", 32, 32).scaled(8)
        base = linear_cost("fc", 32, 32)
        assert cost.forward_flops_per_sample == 8 * base.forward_flops_per_sample
        assert cost.param_count == base.param_count

    def test_bytes_for_params(self):
        assert bytes_for_params(10) == 40
        assert bytes_for_params(10, bytes_per_param=2) == 20


class TestModelProfile:
    def _profile(self):
        blocks = [linear_cost(f"b{i}", 64, 64) for i in range(4)]
        return ModelProfile(model_name="toy", blocks=blocks)

    def test_totals(self):
        profile = self._profile()
        assert profile.total_params == 4 * (64 * 64 + 64)
        assert profile.total_param_bytes == profile.total_params * FLOAT32_BYTES
        assert len(profile) == 4

    def test_block_memory_includes_optimizer_state(self):
        profile = self._profile()
        block = profile.blocks[0]
        expected = (
            block.param_bytes
            + block.param_count * profile.optimizer_bytes_per_param
            + block.activation_bytes_per_sample * 2
        )
        assert profile.block_memory_bytes(0, batch_size=2) == expected

    def test_range_memory_and_flops(self):
        profile = self._profile()
        assert profile.range_memory_bytes(0, 4) == sum(
            profile.block_memory_bytes(i) for i in range(4)
        )
        assert profile.range_forward_flops(1, 3, batch_size=2) == pytest.approx(
            2 * (profile.blocks[1].forward_flops_per_sample + profile.blocks[2].forward_flops_per_sample)
        )

    def test_total_memory_scales_with_batch(self):
        profile = self._profile()
        assert profile.total_memory_bytes(4) > profile.total_memory_bytes(1)

    def test_iteration_and_indexing(self):
        profile = self._profile()
        assert profile[0].name == "b0"
        assert [b.name for b in profile] == ["b0", "b1", "b2", "b3"]


class TestHeadlineNumbers:
    def test_bert_large_does_not_fit_one_v100_at_paper_batch(self):
        """The paper's premise: BERT-Large fine-tuning exceeds a 16 GB device."""
        profile = BertConfig.bert_large().profile(seq_len=384)
        total = profile.total_memory_bytes(batch_size=32)
        assert total > 16 * 1024 ** 3

    def test_mlp_fits_easily_on_one_device(self):
        profile = FeedForwardConfig.paper_1_2m().profile()
        assert profile.total_memory_bytes(batch_size=32) < 1 * 1024 ** 3

    def test_bert_base_smaller_than_large(self):
        base = BertConfig.bert_base().profile(seq_len=384)
        large = BertConfig.bert_large().profile(seq_len=384)
        assert base.total_params < large.total_params
        assert base.total_forward_flops() < large.total_forward_flops()
