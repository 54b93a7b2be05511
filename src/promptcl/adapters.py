"""Bottleneck adapters and the per-stage trainable-parameter mask.

An adapter is a two-layer squeeze (d -> adapter_dim -> d) with a ReLU in
the middle. Up-projection weights and both biases start at exactly zero,
so a freshly attached adapter is a no-op and the encoder output matches
the adapter-free network bit for bit until training moves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeds import normal_init, seeded_rng
from .tensor import Tensor, linear
from .vit import ModelConfig


@dataclass
class AdapterLayer:
    down_w: Tensor
    down_b: Tensor
    up_w: Tensor
    up_b: Tensor
    frozen: bool = False


class AdapterStack:
    """One adapter per encoder block from ``adapter_start`` through ``layers``."""

    def __init__(self, layers: dict[int, AdapterLayer], start: int):
        self.layers = layers
        self.start = start

    def __len__(self) -> int:
        return len(self.layers)

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for layer in sorted(self.layers):
            a = self.layers[layer]
            out[f"adapter.l{layer:02d}.down_w"] = a.down_w
            out[f"adapter.l{layer:02d}.down_b"] = a.down_b
            out[f"adapter.l{layer:02d}.up_w"] = a.up_w
            out[f"adapter.l{layer:02d}.up_b"] = a.up_b
        return out

    def set_frozen(self, frozen: bool) -> None:
        for a in self.layers.values():
            a.frozen = frozen

    @property
    def frozen(self) -> bool:
        return all(a.frozen for a in self.layers.values())


def attach_adapters(config: ModelConfig) -> AdapterStack:
    """Build zero-initialised adapters for blocks adapter_start..layers."""
    if not 1 <= config.adapter_start <= config.layers:
        raise ValueError(
            f"attach_adapters: adapter_start {config.adapter_start} outside [1, {config.layers}]"
        )
    d, dp = config.embed_dim, config.adapter_dim
    layers: dict[int, AdapterLayer] = {}
    for layer in range(config.adapter_start, config.layers + 1):
        rng = seeded_rng(config.seed, "adapter", layer)
        layers[layer] = AdapterLayer(
            down_w=Tensor(normal_init(rng, (d, dp)), requires_grad=True),
            down_b=Tensor(np.zeros(dp), requires_grad=True),
            up_w=Tensor(np.zeros((dp, d)), requires_grad=True),
            up_b=Tensor(np.zeros(d), requires_grad=True),
        )
    return AdapterStack(layers, config.adapter_start)


def adapter_forward(x: Tensor, adapter: AdapterLayer) -> Tensor:
    return linear(linear(x, adapter.down_w, adapter.down_b, relu=True), adapter.up_w, adapter.up_b)


def compute_trainable_mask(
    stage: int,
    pool,
    bank,
    adapters: AdapterStack | None,
    backbone,
    ca_unfrozen: bool = False,
) -> dict[str, bool]:
    """Boolean trainability per parameter name for one training stage.

    Backbone weights follow the encoder's ``frozen`` flag (only flipped by
    pretraining and the fine-tuning baseline). Adapters train in stage 1
    alone unless ``ca_unfrozen`` re-opens them. Prompts and heads follow
    their per-entry frozen flags, which the freezing step maintains.
    """
    if stage < 1:
        raise ValueError(f"compute_trainable_mask: stage must be >= 1, got {stage}")
    mask: dict[str, bool] = {}
    for name in backbone.named():
        mask[name] = not backbone.frozen
    if adapters is not None:
        adapters_on = stage == 1 or ca_unfrozen
        for name in adapters.named():
            mask[name] = adapters_on
    for e in pool.entries:
        mask[f"prompt.{e.class_id:04d}"] = not e.frozen
    for e in bank.entries:
        mask[f"head.{e.class_id:04d}.w"] = not e.frozen
        mask[f"head.{e.class_id:04d}.b"] = not e.frozen
    return mask


def trainable_param_count(mask: dict[str, bool], named: dict[str, Tensor]) -> int:
    return sum(named[name].size for name, on in mask.items() if on)
