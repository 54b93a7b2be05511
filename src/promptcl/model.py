"""The assembled model: backbone + adapters + prompt pool + classifier bank."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import AdapterStack, attach_adapters
from .prompts import ClassifierBank, PromptPool, classify, head_positions
from .tensor import Tensor, no_grad, stable_sigmoid, step_workspace
from .vit import EncoderParams, ModelConfig, encoder_forward


@dataclass
class ModelState:
    config: ModelConfig
    backbone: EncoderParams
    adapters: AdapterStack | None
    pool: PromptPool
    bank: ClassifierBank


def build_model(config: ModelConfig, use_adapters: bool = True) -> ModelState:
    return ModelState(
        config=config,
        backbone=EncoderParams(config),
        adapters=attach_adapters(config) if use_adapters else None,
        pool=PromptPool(config.embed_dim, seed=config.seed),
        bank=ClassifierBank(config.embed_dim, seed=config.seed),
    )


def named_params(state: ModelState) -> dict[str, Tensor]:
    out = dict(state.backbone.named())
    if state.adapters is not None:
        out.update(state.adapters.named())
    out.update(state.pool.named())
    out.update(state.bank.named())
    return out


def forward_logits(state: ModelState, images, class_ids=None) -> Tensor:
    """Logits for the requested classes (default: all known, bank order).

    This picks the rows the last encoder block runs on: the smallest
    range of pool positions that holds every requested class, and the
    next token too when that is one row (the next prompt or, past the
    pool's end, the first patch row; ``classify`` reads no logit there),
    since one row would use matrix-vector products, whose bits differ.
    """
    if state.pool.class_ids != state.bank.class_ids:
        raise ValueError(
            f"forward_logits: pool order {state.pool.class_ids} diverged from "
            f"bank order {state.bank.class_ids}"
        )
    n = len(state.pool.entries)
    if not n:
        raise ValueError("forward_logits: no classes registered yet")
    picks = head_positions(state.bank, class_ids)
    start, stop = (min(picks), max(picks) + 1) if picks else (0, n)  # classify rejects no picks
    rows = (start, max(stop, start + 2))
    o_P, _ = encoder_forward(images, state.pool, state.backbone, state.adapters, rows=rows)
    return classify(o_P, state.bank, class_ids, start)


def predict_probs(state: ModelState, images, class_ids=None, batch_size: int = 64) -> np.ndarray:
    """Sigmoid probabilities for a (B, H, W) batch, evaluated without recording to the tape.

    The chunks of ``batch_size`` images run one after another in one step
    workspace of their own; each chunk is a step, so that a chunk that
    outgrew the arena leaves the next one a large enough arena.

    The result has one column per class; no images give no rows.
    """
    if batch_size < 1:
        raise ValueError(f"predict_probs: batch_size must be >= 1, got {batch_size}")
    arr = np.asarray(images, dtype=np.float64)
    chunks = [np.empty((0, len(state.bank.class_ids if class_ids is None else class_ids)))]
    with no_grad(), step_workspace() as workspace:
        for start in range(0, arr.shape[0], batch_size):
            images = arr[start:start + batch_size]
            chunks.append(stable_sigmoid(forward_logits(state, images, class_ids).data))
            workspace.reset()
    return np.concatenate(chunks, axis=0)
