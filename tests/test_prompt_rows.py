"""The last encoder block run on the prompt rows the logits read gives the full path's bits.

``forward_logits`` asks ``encoder_forward`` for the rows the logits read:
the smallest range of pool positions that holds every requested class,
which starts at an offset when the older classes are not read. A one-row
range widens into the next token, the next prompt or, past the pool's
end, the first patch row. For every pool size the last block then
computes its queries, attention output, MLP, adapter and the final norm
on those rows alone, and pads the adjoints of its linears'
input-gradient products back to the full token count. Its logits and
every leaf gradient must equal, byte for byte, those of the full path
(``encoder_forward`` without a row range, followed by
``classify(o_P, bank, class_ids)``) on the same leaves.
"""

import contextlib

import numpy as np
import pytest

from promptcl import tensor, vit
from promptcl.adapters import compute_trainable_mask
from promptcl.model import build_model, forward_logits, named_params, predict_probs
from promptcl.prompts import add_class_prompts, classify, freeze_previous
from promptcl.tensor import (
    Tensor,
    backward,
    narrow,
    no_grad,
    reset_tape,
    stable_sigmoid,
    step_workspace,
    zero_grads,
)
from promptcl.vit import ModelConfig, encoder_forward

CONFIGS = {
    "default": ModelConfig(),
    # acceptance criterion 4's model
    "small": ModelConfig(embed_dim=8, layers=2, heads=2, image_side=8, patch_side=4,
                         prompt_layer=1, adapter_start=2, adapter_dim=3),
}
MASKS = ("stage-1", "stage-2", "pretraining", "fine_tuning")
PROMPT_COUNTS = range(1, 29)
# Pool positions a step reads, for n prompts; None reads every class.
READS = {
    "every": lambda n: None,
    "newest-stage": lambda n: range(n // 2, n),  # a suffix from an offset, as a stage-2 step reads
    "first": lambda n: [0],
    "middle": lambda n: [n // 2],
    "last": lambda n: [n - 1],
    "pair": lambda n: [n // 4 + 2, n // 4] if n >= 3 else None,  # not adjacent, columns reversed; needs 3 prompts
}


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


def read_ids(state, read: str):
    """The class ids of one read on ``state``'s pool, or None for every class."""
    positions = READS[read](len(state.bank))
    return None if positions is None else [state.bank.class_ids[p] for p in positions]


def full_path_logits(state, images, class_ids=None) -> Tensor:
    o_P, _ = encoder_forward(images, state.pool, state.backbone, state.adapters)
    return classify(o_P, state.bank, class_ids)


def logits_and_grads(state, mask, images, target, forward, class_ids, workspace):
    """Logit bytes and leaf-gradient bytes of one step of ``forward``, as ``_fit`` runs it."""
    named = named_params(state)
    for name, t in named.items():
        t.requires_grad = mask[name]
    try:
        with step_workspace() if workspace else contextlib.nullcontext():
            reset_tape()
            zero_grads(named.values())
            logits = forward(state, images, class_ids)
            out = logits.data.tobytes()  # the backward pass recycles it in a workspace
            backward((logits * Tensor(target)).sum())
            reset_tape()
    finally:
        for t in named.values():
            t.requires_grad = True
    return out, {name: t.grad.tobytes() for name, t in named.items() if t.grad is not None}


@pytest.mark.parametrize("mode", ["plain", "workspace", "poisoned"])
@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("case", MASKS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_prompt_rows_path_is_byte_identical_to_the_full_path(monkeypatch, config, case, read, mode):
    monkeypatch.setattr(tensor, "_POISON", mode == "poisoned")
    cfg = CONFIGS[config]
    for n in PROMPT_COUNTS:
        if case == "stage-2" and n < 2:
            continue  # stage 2 needs a class from each stage
        state, mask = build(cfg, case, n)
        class_ids = read_ids(state, read)
        rng = np.random.default_rng(100 + n)
        images = rng.random((3, cfg.image_side, cfg.image_side))
        target = rng.normal(size=(3, n if class_ids is None else len(class_ids)))
        rows = logits_and_grads(state, mask, images, target, forward_logits, class_ids, mode != "plain")
        full = logits_and_grads(state, mask, images, target, full_path_logits, class_ids, mode != "plain")
        assert rows[0] == full[0], f"logits differ at {n} prompts"
        unread = {name for name, _, e in state.bank.named_entries()
                  if class_ids is not None and e.class_id not in class_ids}
        assert rows[1].keys() == full[1].keys() == {k for k, on in mask.items() if on} - unread
        differ = sorted(k for k in full[1] if rows[1][k] != full[1][k])
        assert not differ, f"{n} prompts: gradients of {differ} differ"


@pytest.mark.parametrize("read", ["every", "newest-stage", "pair"])
@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_predict_probs_equals_the_full_path(config, chunk, read):
    cfg = CONFIGS[config]
    images = np.random.default_rng(chunk).random((70, cfg.image_side, cfg.image_side))
    for n in (1, 2, 4, 12, 28):
        state, _ = build(cfg, "stage-1", n)
        class_ids = read_ids(state, read)
        with no_grad():
            full = np.concatenate([stable_sigmoid(full_path_logits(state, images[s:s + chunk], class_ids).data)
                                   for s in range(0, len(images), chunk)])
        probs = predict_probs(state, images, class_ids=class_ids, batch_size=chunk)
        assert probs.tobytes() == full.tobytes(), n


@pytest.mark.parametrize("n", [1, 4])
def test_unknown_and_empty_class_lists_keep_their_errors(n):
    state, _ = build(CONFIGS["default"], "stage-1", n)
    images = np.zeros((2, 16, 16))
    with pytest.raises(ValueError, match=r"^classify: no head for class 99$"):
        forward_logits(state, images, class_ids=[99])
    with pytest.raises(ValueError, match=r"^classify: no head for class 99$"):
        forward_logits(state, images, class_ids=[0, 99])
    with pytest.raises(ValueError, match=r"^row_readout: need one weight and one bias per row, got 0 rows"):
        forward_logits(state, images, class_ids=[])


def test_a_one_class_model_cuts_no_patch_rows(monkeypatch):
    # The full path cut 1 prompt row and the 16 patch rows, which nothing read,
    # in the same number of narrows, so count the rows, not the tape entries.
    narrowed = []

    def recording_narrow(x, axis, start, stop):
        narrowed.append(stop - start)
        return narrow(x, axis, start, stop)

    state, _ = build(CONFIGS["default"], "stage-1", 1)
    monkeypatch.setattr(vit, "narrow", recording_narrow)
    forward_logits(state, np.zeros((8, 16, 16)))
    reset_tape()
    assert narrowed == [2, 2]  # the last block's residual and query rows
