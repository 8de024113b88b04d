"""Cost models and profiling: how much memory/compute each model block needs."""

from repro.profiling.cost_model import (
    BlockCost,
    ModelProfile,
    linear_cost,
    embedding_cost,
    layer_norm_cost,
    attention_cost,
    transformer_layer_cost,
    bytes_for_params,
    FLOAT32_BYTES,
)

__all__ = [
    "BlockCost",
    "ModelProfile",
    "linear_cost",
    "embedding_cost",
    "layer_norm_cost",
    "attention_cost",
    "transformer_layer_cost",
    "bytes_for_params",
    "FLOAT32_BYTES",
]
