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


@dataclass
class AdapterLayer:
    down_w: Tensor
    down_b: Tensor
    up_w: Tensor
    up_b: Tensor


class AdapterStack:
    """One adapter per encoder block from ``adapter_start`` through ``layers``."""

    def __init__(self, layers: dict[int, AdapterLayer]):
        self.layers = layers

    def __len__(self) -> int:
        return len(self.layers)

    def named(self) -> dict[str, Tensor]:
        return {
            f"adapter.l{layer:02d}.{name}": getattr(a, name)
            for layer, a in sorted(self.layers.items()) for name in a.__dataclass_fields__
        }


def attach_adapters(config) -> AdapterStack:
    """Build zero-initialised adapters for blocks adapter_start..layers of a ``ModelConfig``."""
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
    return AdapterStack(layers)


def adapter_forward(x: Tensor, adapter: AdapterLayer, residual: Tensor,
                    pad_rows: int | None = None) -> Tensor:
    """``residual`` (in a block, the MLP output) plus the adapter branch of ``x``,
    joined in the up-projection's ``linear``; ``pad_rows`` as in ``linear``."""
    hidden = linear(x, adapter.down_w, adapter.down_b, relu=True, pad_rows=pad_rows)
    return linear(hidden, adapter.up_w, adapter.up_b, residual=residual, pad_rows=pad_rows)


def compute_trainable_mask(
    stage: int,
    pool,
    bank,
    adapters: AdapterStack | None,
    backbone,
    ca_unfrozen: bool = False,
) -> dict[str, bool]:
    """Boolean trainability per parameter name for one training stage.

    Backbone weights follow the encoder's ``frozen`` flag (cleared only by
    the fine-tuning baseline). Adapters train in stage 1 alone unless
    ``ca_unfrozen`` re-opens them. Prompts and heads follow their
    per-entry frozen flags, which the freezing step maintains.
    """
    if stage < 1:
        raise ValueError(f"compute_trainable_mask: stage must be >= 1, got {stage}")
    mask = dict.fromkeys(backbone.named(), not backbone.frozen)
    if adapters is not None:
        mask.update(dict.fromkeys(adapters.named(), stage == 1 or ca_unfrozen))
    for container in (pool, bank):
        mask.update((name, not e.frozen) for name, _, e in container.named_entries())
    return mask
