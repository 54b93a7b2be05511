"""Bottleneck adapters and the per-stage trainability mask."""

import numpy as np
import pytest

from helpers import gradcheck
from promptcl import (
    AdapterLayer,
    EncoderParams,
    ModelConfig,
    PromptPool,
    Tensor,
    add_class_prompts,
    attach_adapters,
    build_model,
    build_task_stream,
    compute_trainable_mask,
    freeze_previous,
    train_stage,
)
from promptcl.adapters import adapter_forward
from promptcl.prompts import ClassifierBank
from test_training import micro_config, micro_dataset, stage_mask


def hand_adapter():
    return AdapterLayer(
        down_w=Tensor(np.array([[1.0], [1.0]]), requires_grad=True),
        down_b=Tensor(np.zeros(1), requires_grad=True),
        up_w=Tensor(np.array([[1.0, -1.0]]), requires_grad=True),
        up_b=Tensor(np.zeros(2), requires_grad=True),
    )


def test_adapter_forward_hand_values():
    a = hand_adapter()
    residual = Tensor(np.array([[0.5, -1.5]]))
    out = adapter_forward(Tensor(np.array([[2.0, 3.0]])), a, residual)
    assert np.allclose(out.data, [[5.5, -6.5]], atol=1e-15)
    out = adapter_forward(Tensor(np.array([[-2.0, -3.0]])), a, residual)
    assert np.array_equal(out.data, residual.data)


def test_adapter_gradients():
    a = hand_adapter()
    a.down_w.data = np.array([[0.3], [-0.7]])
    a.up_w.data = np.array([[0.4, 0.9]])
    r = np.random.default_rng(2)
    x = Tensor(r.normal(size=(3, 2)), requires_grad=True)
    residual = Tensor(r.normal(size=(3, 2)), requires_grad=True)
    for param in (a.down_w, a.up_w, x, residual):
        assert gradcheck(lambda: (adapter_forward(x, a, residual) ** 2.0).sum(), param) <= 1e-4


def wide_config():
    return ModelConfig(
        embed_dim=8, layers=12, heads=2, image_side=8, patch_side=4,
        prompt_layer=2, adapter_start=4, adapter_dim=3, seed=0,
    )


def test_attach_covers_tail_layers():
    stack = attach_adapters(wide_config())
    assert len(stack) == 9
    assert sorted(stack.layers) == list(range(4, 13))
    for a in stack.layers.values():
        assert np.all(a.up_w.data == 0.0)
        assert np.all(a.up_b.data == 0.0)
        assert np.all(a.down_b.data == 0.0)
        assert np.any(a.down_w.data != 0.0)
        assert a.down_w.shape == (8, 3) and a.up_w.shape == (3, 8)


def test_attach_is_seed_deterministic_and_per_layer():
    s1 = attach_adapters(wide_config())
    s2 = attach_adapters(wide_config())
    assert np.array_equal(s1.layers[4].down_w.data, s2.layers[4].down_w.data)
    assert not np.array_equal(s1.layers[4].down_w.data, s1.layers[5].down_w.data)


def test_adapter_names():
    stack = attach_adapters(wide_config())
    names = set(stack.named())
    assert "adapter.l04.down_w" in names and "adapter.l12.up_b" in names
    assert len(names) == 9 * 4


def mask_fixture(stage, ca_unfrozen=False, backbone_frozen=True, freeze_stage=None):
    cfg = ModelConfig(
        embed_dim=8, layers=2, heads=2, image_side=8, patch_side=4,
        prompt_layer=1, adapter_start=2, adapter_dim=3, seed=0,
    )
    backbone = EncoderParams(cfg)
    backbone.frozen = backbone_frozen
    adapters = attach_adapters(cfg)
    pool, bank = PromptPool(8, 0), ClassifierBank(8, 0)
    add_class_prompts(pool, bank, [0, 1], stage=1)
    if stage >= 2:
        add_class_prompts(pool, bank, [2], stage=2)
    if freeze_stage:
        freeze_previous(pool, bank, freeze_stage)
    return cfg, backbone, adapters, pool, bank


def test_mask_first_stage_trains_adapters_prompts_heads():
    cfg, backbone, adapters, pool, bank = mask_fixture(stage=1)
    mask = compute_trainable_mask(1, pool, bank, adapters, backbone)
    assert not any(mask[n] for n in backbone.named())
    assert all(mask[n] for n in adapters.named())
    assert mask["prompt.0000"] and mask["head.0001.w"] and mask["head.0001.b"]


def test_mask_later_stage_locks_adapters_and_old_entries():
    cfg, backbone, adapters, pool, bank = mask_fixture(stage=2, freeze_stage=2)
    mask = compute_trainable_mask(2, pool, bank, adapters, backbone)
    assert not any(mask[n] for n in adapters.named())
    assert not mask["prompt.0000"] and not mask["head.0000.w"]
    assert mask["prompt.0002"] and mask["head.0002.w"] and mask["head.0002.b"]


def test_mask_ca_unfrozen_reopens_adapters():
    cfg, backbone, adapters, pool, bank = mask_fixture(stage=2, freeze_stage=2)
    mask = compute_trainable_mask(2, pool, bank, adapters, backbone, ca_unfrozen=True)
    assert all(mask[n] for n in adapters.named())


def test_mask_follows_backbone_flag_and_rejects_bad_stage():
    cfg, backbone, adapters, pool, bank = mask_fixture(stage=1, backbone_frozen=False)
    mask = compute_trainable_mask(1, pool, bank, adapters, backbone)
    assert all(mask[n] for n in backbone.named())
    with pytest.raises(ValueError):
        compute_trainable_mask(0, pool, bank, adapters, backbone)


def test_trainable_param_count_formula():
    # A later stage adding c classes trains exactly c * (2 d + 1) scalars;
    # stage 1 also trains the adapter, d * dp + dp + dp * d + d of them.
    ds = micro_dataset()
    cfg = micro_config(epochs=1, inc_classes=1)
    state = build_model(cfg.model)
    stream = build_task_stream(ds, cfg.base_classes, cfg.inc_classes)
    counts = []
    for task in stream.tasks[:2]:
        add_class_prompts(state.pool, state.bank, task.class_ids, task.index)
        counts.append(train_stage(state, task, ds, cfg, stage_mask(state, task.index, cfg))["trainable_params"])
    d, dp = cfg.model.embed_dim, cfg.model.adapter_dim
    assert counts == [(2 * d * dp + dp + d) + 2 * (2 * d + 1), 1 * (2 * d + 1)]
