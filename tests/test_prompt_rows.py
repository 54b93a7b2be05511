"""The last encoder block run on the prompt rows only gives the full path's bits.

``forward_logits`` asks ``encoder_forward`` for the prompt rows only. With
two or more prompts the last block then computes its queries, attention
output, MLP, adapter and the final norm on those rows alone, and pads
the adjoints of its linears' input-gradient products back to the full
token count. Its logits and every leaf gradient must equal, byte for
byte, those of the full path (``encoder_forward(..., patch_rows=True)``
followed by ``classify``) on the same leaves.
"""

import contextlib

import numpy as np
import pytest

from promptcl import tensor
from promptcl.adapters import compute_trainable_mask
from promptcl.model import build_model, forward_logits, named_params, predict_probs
from promptcl.prompts import add_class_prompts, classify, freeze_previous
from promptcl.tensor import Tensor, backward, no_grad, reset_tape, stable_sigmoid, step_workspace, zero_grads
from promptcl.vit import ModelConfig, encoder_forward

CONFIGS = {
    "default": ModelConfig(),
    # acceptance criterion 4's model
    "small": ModelConfig(embed_dim=8, layers=2, heads=2, image_side=8, patch_side=4,
                         prompt_layer=1, adapter_start=2, adapter_dim=3),
}
MASKS = ("stage-1", "stage-2", "pretraining", "fine_tuning")
PROMPT_COUNTS = range(1, 29)


def build(config: ModelConfig, case: str, n: int):
    """A model with ``n`` prompts and the trainable mask of one training case."""
    state = build_model(config, use_adapters=case in ("stage-1", "stage-2"))
    if state.adapters is not None:
        # fresh adapters are no-ops with zero up-projections; open the branch
        rng = np.random.default_rng(n)
        for a in state.adapters.layers.values():
            a.up_w.data = 0.1 * rng.normal(size=a.up_w.shape)
            a.up_b.data = 0.1 * rng.normal(size=a.up_b.shape)
    if case == "stage-2":
        add_class_prompts(state.pool, state.bank, list(range(n // 2)), stage=1)
        freeze_previous(state.pool, state.bank, 2)
        add_class_prompts(state.pool, state.bank, list(range(n // 2, n)), stage=2)
        return state, compute_trainable_mask(2, state.pool, state.bank, state.adapters, state.backbone)
    add_class_prompts(state.pool, state.bank, list(range(n)), stage=1)
    if case == "pretraining":
        return state, dict.fromkeys(named_params(state), True)
    state.backbone.frozen = case != "fine_tuning"
    return state, compute_trainable_mask(1, state.pool, state.bank, state.adapters, state.backbone)


def full_path_logits(state, images) -> Tensor:
    o_P, _ = encoder_forward(images, state.pool, state.backbone, state.adapters, patch_rows=True)
    return classify(o_P, state.bank)


def logits_and_grads(state, mask, images, target, forward, workspace):
    """Logit bytes and leaf-gradient bytes of one step of ``forward``, as ``_fit`` runs it."""
    named = named_params(state)
    for name, t in named.items():
        t.requires_grad = mask[name]
    try:
        with step_workspace() if workspace else contextlib.nullcontext():
            reset_tape()
            zero_grads(named.values())
            logits = forward(state, images)
            out = logits.data.tobytes()  # the backward pass recycles it in a workspace
            backward((logits * Tensor(target)).sum())
            reset_tape()
    finally:
        for t in named.values():
            t.requires_grad = True
    return out, {name: t.grad.tobytes() for name, t in named.items() if t.grad is not None}


@pytest.mark.parametrize("mode", ["plain", "workspace", "poisoned"])
@pytest.mark.parametrize("case", MASKS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_prompt_rows_path_is_byte_identical_to_the_full_path(monkeypatch, config, case, mode):
    monkeypatch.setattr(tensor, "_POISON", mode == "poisoned")
    cfg = CONFIGS[config]
    for n in PROMPT_COUNTS:
        if case == "stage-2" and n < 2:
            continue  # stage 2 needs a class from each stage
        state, mask = build(cfg, case, n)
        rng = np.random.default_rng(100 + n)
        images = rng.random((3, cfg.image_side, cfg.image_side))
        target = rng.normal(size=(3, n))
        rows = logits_and_grads(state, mask, images, target, forward_logits, mode != "plain")
        full = logits_and_grads(state, mask, images, target, full_path_logits, mode != "plain")
        assert rows[0] == full[0], f"logits differ at {n} prompts"
        assert rows[1].keys() == full[1].keys() == {k for k, on in mask.items() if on}
        differ = sorted(k for k in full[1] if rows[1][k] != full[1][k])
        assert not differ, f"{n} prompts: gradients of {differ} differ"


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_predict_probs_equals_the_full_path(config, chunk):
    cfg = CONFIGS[config]
    images = np.random.default_rng(chunk).random((70, cfg.image_side, cfg.image_side))
    for n in (1, 2, 4, 12, 28):
        state, _ = build(cfg, "stage-1", n)
        with no_grad():
            full = np.concatenate([stable_sigmoid(full_path_logits(state, images[s:s + chunk]).data)
                                   for s in range(0, len(images), chunk)])
        assert predict_probs(state, images, batch_size=chunk).tobytes() == full.tobytes(), n
