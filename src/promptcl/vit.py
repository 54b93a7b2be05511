"""A tiny pre-norm Vision Transformer that prompts can be spliced into.

Patch tokens run alone through the first ``prompt_layer`` blocks; the
per-class prompt tokens are then concatenated in front and the remaining
blocks process the combined sequence. Prompts never receive positional
embeddings. Blocks from ``adapter_start`` upward may carry a bottleneck
adapter wired in parallel with the MLP branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import AdapterLayer, adapter_forward
from .prompts import PromptPool
from .seeds import check_fields, seeded_rng, trunc_normal
from .tensor import (
    Tensor,
    concat,
    expand_leading,
    layer_norm_affine,
    linear,
    multi_head_attention,
    narrow,
)

MLP_RATIO = 4


@dataclass
class ModelConfig:
    embed_dim: int = field(default=32, metadata={"help": "token embedding width"})
    layers: int = field(default=4, metadata={"help": "number of transformer blocks"})
    heads: int = field(default=4, metadata={"help": "attention heads per block"})
    image_side: int = field(default=16, metadata={"help": "input image side length"})
    patch_side: int = field(default=4, metadata={"help": "patch side length"})
    prompt_layer: int = field(default=2, metadata={"help": "prompts join after this many blocks"})
    adapter_start: int = field(default=3, metadata={"help": "first adapted block (1-indexed)"})
    adapter_dim: int = field(default=8, metadata={"help": "adapter bottleneck width"})
    seed: int = 0  # not a file key: build_run_config passes the run's seed

    def __post_init__(self):
        check_fields(self, ("heads", "image_side", "patch_side"))
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.image_side % self.patch_side != 0:
            raise ValueError(
                f"image_side {self.image_side} not divisible by patch_side {self.patch_side}"
            )
        if not 1 <= self.prompt_layer < self.layers:
            raise ValueError(
                f"prompt_layer must lie in [1, layers), got {self.prompt_layer} with layers {self.layers}"
            )
        if not 1 <= self.adapter_start <= self.layers:
            raise ValueError(
                f"adapter_start must lie in [1, layers], got {self.adapter_start} with layers {self.layers}"
            )
        if not 1 <= self.adapter_dim < self.embed_dim:
            raise ValueError(
                f"adapter_dim must lie in [1, embed_dim), got {self.adapter_dim} with embed_dim {self.embed_dim}"
            )

    @property
    def grid_side(self) -> int:
        return self.image_side // self.patch_side

    @property
    def n_patches(self) -> int:
        return self.grid_side * self.grid_side


@dataclass
class BlockParams:
    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class EncoderParams:
    """Every backbone weight: patch projection, positions, blocks, final norm.

    Created with ``frozen=True``; nothing in the incremental protocol is
    allowed to update these. Only the fine-tuning baseline clears the flag;
    the one-off pretraining pass trains them through its own mask.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        d = config.embed_dim
        hidden = MLP_RATIO * d
        p2 = config.patch_side * config.patch_side
        rng = seeded_rng(config.seed, "backbone")

        def w(shape):
            return Tensor(trunc_normal(rng, shape), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape), requires_grad=True)

        self.patch_w = w((p2, d))
        self.patch_b = zeros((d,))
        self.pos = w((config.n_patches, d))
        self.blocks: list[BlockParams] = []
        for _ in range(config.layers):
            self.blocks.append(
                BlockParams(
                    ln1_g=ones((d,)), ln1_b=zeros((d,)),
                    wq=w((d, d)), bq=zeros((d,)),
                    wk=w((d, d)), bk=zeros((d,)),
                    wv=w((d, d)), bv=zeros((d,)),
                    wo=w((d, d)), bo=zeros((d,)),
                    ln2_g=ones((d,)), ln2_b=zeros((d,)),
                    w1=w((d, hidden)), b1=zeros((hidden,)),
                    w2=w((hidden, d)), b2=zeros((d,)),
                )
            )
        self.final_ln_g = ones((d,))
        self.final_ln_b = zeros((d,))
        self.frozen = True

    def named(self) -> dict[str, Tensor]:
        out = {
            "backbone.patch_w": self.patch_w,
            "backbone.patch_b": self.patch_b,
            "backbone.pos": self.pos,
        }
        for i, block in enumerate(self.blocks, start=1):
            for name, t in block.named().items():
                out[f"backbone.l{i:02d}.{name}"] = t
        out["backbone.final_ln_g"] = self.final_ln_g
        out["backbone.final_ln_b"] = self.final_ln_b
        return out


def patchify(images, params: EncoderParams) -> Tensor:
    """Cut a batch of (B, H, W) images into non-overlapping patches and embed them.

    Returns (B, N, d) token embeddings; the (N, d) positions join inside
    the projection's ``linear`` as its residual.
    """
    cfg = params.config
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] != cfg.image_side or arr.shape[2] != cfg.image_side:
        raise ValueError(
            f"patchify: expected a batch of images of side {cfg.image_side}, got array shape {arr.shape}"
        )
    b = arr.shape[0]
    g, p = cfg.grid_side, cfg.patch_side
    # (B, g, p, g, p) -> (B, g, g, p, p) -> (B, N, p*p), patches in row-major grid order
    patches = arr.reshape(b, g, p, g, p).transpose(0, 1, 3, 2, 4).reshape(b, cfg.n_patches, p * p)
    return linear(Tensor(patches), params.patch_w, params.patch_b, residual=params.pos)


def _attention(x: Tensor, block: BlockParams, heads: int, residual: Tensor,
               rows: tuple[int, int] | None = None) -> Tensor:
    """``residual`` plus multi-head self-attention over ``x``.

    With ``rows`` = ``(start, stop)``, only the tokens ``start..stop-1``
    ask queries (all tokens still give keys and values), and ``residual``
    has that many rows.
    """
    pad = None if rows is None else x.shape[-2]
    q = linear(x if rows is None else narrow(x, -2, *rows), block.wq, block.bq, pad_rows=pad)
    k = linear(x, block.wk, block.bk)
    v = linear(x, block.wv, block.bv)
    return linear(multi_head_attention(q, k, v, heads), block.wo, block.bo, residual=residual, pad_rows=pad)


def _mlp(x: Tensor, block: BlockParams, residual: Tensor, pad_rows: int | None = None) -> Tensor:
    """``residual`` plus the two-layer ReLU MLP of ``x``."""
    hidden = linear(x, block.w1, block.b1, relu=True, pad_rows=pad_rows)
    return linear(hidden, block.w2, block.b2, residual=residual, pad_rows=pad_rows)


def sab_forward(x: Tensor, block: BlockParams, heads: int, adapter: AdapterLayer | None = None,
                rows: tuple[int, int] | None = None) -> Tensor:
    """One pre-norm block; the adapter branch reads the un-normalised
    post-attention residual, and its up-projection adds the MLP's output
    as its ``linear``'s residual, so the block records no separate sum.

    With ``rows`` = ``(start, stop)``, such as the prompt rows the logits
    read, the block returns only the output tokens ``start..stop-1`` and
    computes nothing that only the other tokens' outputs need: those
    tokens still feed the keys and values. The input gradients of its
    row-restricted linears are computed at the full token count (see
    ``linear``'s ``pad_rows``), so every bit matches the full block's.
    """
    pad = None if rows is None else x.shape[-2]
    residual = x if rows is None else narrow(x, -2, *rows)
    x_o = _attention(layer_norm_affine(x, block.ln1_g, block.ln1_b), block, heads, residual, rows)
    y_o = _mlp(layer_norm_affine(x_o, block.ln2_g, block.ln2_b), block, residual=x_o, pad_rows=pad)
    return y_o if adapter is None else adapter_forward(x_o, adapter, y_o, pad_rows=pad)


def encoder_forward(images, prompt_pool: PromptPool | None, params: EncoderParams, adapters=None,
                    rows: tuple[int, int] | None = None):
    """Run the full encoder on a (B, H, W) batch and split the output sequence.

    Returns ``(o_P, o_I)``: the (B, n, d) prompt output rows (n = 0 when no
    prompts are registered) and the (B, N, d) patch output rows, both after
    the final layer norm. With ``rows`` = ``(start, stop)``, the last block
    and the final norm run on tokens ``start..stop-1`` of the n prompt rows
    followed by the N patch rows: ``o_P`` holds those rows and ``o_I`` is
    None. The range must hold two rows or more, since one row would use
    matrix-vector products, whose bits differ; ``forward_logits`` picks it.
    """
    cfg = params.config
    stack = None if prompt_pool is None else prompt_pool.stacked()
    x = patchify(images, params)
    n = 0 if stack is None else stack.shape[0]
    if n and stack.shape[-1] != cfg.embed_dim:
        raise ValueError(
            f"encoder_forward: prompt dim {stack.shape[-1]} does not match embed_dim {cfg.embed_dim}"
        )
    if rows is not None and not (0 <= rows[0] and rows[0] + 2 <= rows[1] <= n + cfg.n_patches):
        raise ValueError(f"encoder_forward: rows {rows} are not two or more of the {n + cfg.n_patches} tokens")
    adapter_layers = {} if adapters is None else adapters.layers

    for layer in range(1, cfg.prompt_layer + 1):
        x = sab_forward(x, params.blocks[layer - 1], cfg.heads, adapter_layers.get(layer))
    if n:
        x = concat([expand_leading(stack, x.shape[0]), x], axis=-2)
    for layer in range(cfg.prompt_layer + 1, cfg.layers + 1):
        block_rows = rows if layer == cfg.layers else None
        x = sab_forward(x, params.blocks[layer - 1], cfg.heads, adapter_layers.get(layer), rows=block_rows)
    x = layer_norm_affine(x, params.final_ln_g, params.final_ln_b)
    if rows is not None:
        return x, None
    return narrow(x, -2, 0, n), narrow(x, -2, n, n + cfg.n_patches)
