"""Encoder: patch embedding, block arithmetic, prompt routing, adapter hook."""

import math

import numpy as np
import pytest

from helpers import gradcheck, layer_norm
from promptcl import (
    AdapterLayer,
    AdapterStack,
    BlockParams,
    EncoderParams,
    ModelConfig,
    PromptPool,
    Tensor,
    add_class_prompts,
    attach_adapters,
    backward,
    encoder_forward,
    patchify,
    reset_tape,
    sab_forward,
)
from promptcl import vit
from promptcl.prompts import ClassifierBank
from promptcl.tensor import add, layer_norm_affine, mlp, narrow

EPS = 1e-5  # layer-norm epsilon used throughout the encoder


def small_config(**overrides) -> ModelConfig:
    base = dict(
        embed_dim=8, layers=2, heads=2, image_side=8, patch_side=4,
        prompt_layer=1, adapter_start=2, adapter_dim=3, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def identity_block(d: int) -> BlockParams:
    eye = lambda: Tensor(np.eye(d))
    zeros = lambda n=d: Tensor(np.zeros(n))
    return BlockParams(
        ln1_g=Tensor(np.ones(d)), ln1_b=zeros(),
        wq=eye(), bq=zeros(), wk=eye(), bk=zeros(), wv=eye(), bv=zeros(),
        wo=eye(), bo=zeros(),
        ln2_g=Tensor(np.ones(d)), ln2_b=zeros(),
        w1=eye(), b1=zeros(), w2=eye(), b2=zeros(),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(image_side=10)  # not divisible by patch_side
    with pytest.raises(ValueError):
        small_config(embed_dim=9)  # not divisible by heads
    with pytest.raises(ValueError):
        small_config(prompt_layer=2)  # must be < layers
    with pytest.raises(ValueError):
        small_config(adapter_start=3)  # beyond last layer
    with pytest.raises(ValueError):
        small_config(adapter_dim=8)  # must shrink


def test_patchify_shapes_and_batch_consistency():
    params = EncoderParams(small_config())
    one = np.arange(64, dtype=np.float64).reshape(1, 8, 8) / 64.0
    single = patchify(one, params)
    batch = patchify(np.concatenate([one, one * 0.5]), params)
    assert single.shape == (1, 4, 8)
    assert batch.shape == (2, 4, 8)
    assert np.allclose(batch.data[0], single.data[0], atol=1e-15)


def test_patchify_zero_image_gives_positions():
    # Zero pixels kill the projection term, leaving bias + positional table.
    params = EncoderParams(small_config())
    out = patchify(np.zeros((1, 8, 8)), params)
    expected = params.pos.data + params.patch_b.data
    assert np.allclose(out.data[0], expected, atol=1e-15)


def test_patchify_patch_order_is_row_major():
    params = EncoderParams(small_config())
    img = np.zeros((1, 8, 8))
    img[0, 0:4, 4:8] = 1.0  # second cell of the first grid row
    out = patchify(img, params).data[0]
    lit = Tensor(np.ones((1, 16))) @ params.patch_w
    expected_row1 = lit.data[0] + params.patch_b.data + params.pos.data[1]
    assert np.allclose(out[1], expected_row1, atol=1e-12)
    # remaining tokens match the zero-pixel embedding
    base = params.patch_b.data + params.pos.data
    for idx in (0, 2, 3):
        assert np.allclose(out[idx], base[idx], atol=1e-15)


def test_patchify_rejects_wrong_side():
    params = EncoderParams(small_config())
    with pytest.raises(ValueError):
        patchify(np.zeros((1, 7, 8)), params)


def test_encoder_takes_batches_only():
    params = EncoderParams(small_config())
    with pytest.raises(ValueError, match="batch"):
        patchify(np.zeros((8, 8)), params)
    with pytest.raises(ValueError, match="batch"):
        encoder_forward(np.zeros((8, 8)), None, params)


def test_block_hand_value_single_token():
    # One token, identity projections: attention returns the normalised
    # token itself, the MLP is relu o identity, residuals add up.
    d = 2
    block = identity_block(d)
    x = Tensor(np.array([[1.0, 3.0]]))
    a = 1.0 / math.sqrt(1.0 + EPS)
    x_o = np.array([1.0 - a, 3.0 + a])
    centered = x_o - x_o.mean()
    inv = 1.0 / math.sqrt(centered.var() + EPS)
    h2 = centered * inv
    y = x_o + np.maximum(h2, 0.0)
    out = sab_forward(x, block, heads=1)
    assert np.allclose(out.data, [y], atol=1e-12)


def test_block_adapter_joins_residual():
    d = 2
    block = identity_block(d)
    adapter = AdapterLayer(
        down_w=Tensor(np.array([[1.0], [1.0]])),
        down_b=Tensor(np.zeros(1)),
        up_w=Tensor(np.array([[1.0, -1.0]])),
        up_b=Tensor(np.zeros(2)),
    )
    x = Tensor(np.array([[1.0, 3.0]]))
    plain = sab_forward(x, block, heads=1)
    with_adapter = sab_forward(x, block, heads=1, adapter=adapter)
    a = 1.0 / math.sqrt(1.0 + EPS)
    x_o = np.array([1.0 - a, 3.0 + a])
    pre = x_o.sum()  # down-projection with all-ones weights
    bump = np.array([max(pre, 0.0), -max(pre, 0.0)])
    assert np.allclose(with_adapter.data - plain.data, [bump], atol=1e-12)


def chained_adapter_block(x, block, heads, adapter, rows):
    """``sab_forward`` with the adapter branch summed onto the MLP output by a separate ``add``."""
    pad = None if rows is None else x.shape[-2]
    residual = x if rows is None else narrow(x, -2, *rows)
    x_o = vit._attention(layer_norm_affine(x, block.ln1_g, block.ln1_b), block, heads, residual, rows)
    y_o = vit._mlp(layer_norm_affine(x_o, block.ln2_g, block.ln2_b), block, residual=x_o, pad_rows=pad)
    return add(y_o, mlp(x_o, adapter.down_w, adapter.down_b, adapter.up_w, adapter.up_b, pad_rows=pad))


@pytest.mark.parametrize("rows", [None, (1, 4)], ids=["all-rows", "row-range"])
@pytest.mark.parametrize("frozen", [False, True], ids=["trained", "frozen-as-in-desk-stage-3"])
def test_block_adapter_join_gives_the_bytes_of_a_separate_add(rows, frozen):
    cfg = ModelConfig()
    r = np.random.default_rng(17)
    block = EncoderParams(cfg).blocks[2]
    adapter = attach_adapters(cfg).layers[3]
    adapter.up_w.data = 0.1 * r.normal(size=adapter.up_w.shape)  # trained: the branch is open
    adapter.up_b.data = 0.1 * r.normal(size=adapter.up_b.shape)
    x0 = r.normal(size=(7, 6, cfg.embed_dim))
    leaves = list(block.named().values()) + [adapter.down_w, adapter.down_b, adapter.up_w, adapter.up_b]
    for t in leaves:
        t.requires_grad = not frozen
    runs = []
    for forward in (sab_forward, chained_adapter_block):
        x = Tensor(x0, requires_grad=True)
        for t in leaves:
            t.grad = None
        out = forward(x, block, cfg.heads, adapter, rows=rows)
        runs.append([out.data.tobytes()])
        backward((out * Tensor(np.cos(np.arange(out.size)).reshape(out.shape))).sum())
        runs[-1] += [None if t.grad is None else t.grad.tobytes() for t in [x] + leaves]
    assert runs[0] == runs[1]
    assert runs[0][1] is not None and (runs[0][-1] is None) == frozen


def test_multi_head_matches_single_head_with_block_diagonal_values():
    # With diagonal weights the head split is exact: two heads on a 4-dim
    # token equal one head when queries/keys only mix inside each half.
    cfg = small_config()
    params = EncoderParams(cfg)
    imgs = np.linspace(-1, 1, 64).reshape(1, 8, 8)
    o_P, o_I = encoder_forward(imgs, None, params)
    assert o_P.shape == (1, 0, 8)
    assert o_I.shape == (1, 4, 8)


def test_encoder_batch_matches_loop():
    cfg = small_config()
    params = EncoderParams(cfg)
    pool = PromptPool(cfg.embed_dim, seed=1)
    bank = ClassifierBank(cfg.embed_dim, seed=1)
    add_class_prompts(pool, bank, [0, 1, 2], stage=1)
    rng = np.random.default_rng(3)
    imgs = rng.normal(size=(3, 8, 8))
    o_P_b, o_I_b = encoder_forward(imgs, pool, params)
    for i in range(3):
        o_P, o_I = encoder_forward(imgs[i:i + 1], pool, params)
        assert np.allclose(o_P_b.data[i], o_P.data[0], atol=1e-12)
        assert np.allclose(o_I_b.data[i], o_I.data[0], atol=1e-12)


def test_prompts_skip_early_layers():
    # Layers up to the insertion depth never see prompts: patch outputs at
    # that depth are identical with and without a populated pool.
    cfg = small_config(layers=3, prompt_layer=2)
    params = EncoderParams(cfg)
    rng = np.random.default_rng(5)
    imgs = rng.normal(size=(1, 8, 8))

    x_plain = patchify(imgs, params)
    for layer in range(1, cfg.prompt_layer + 1):
        x_plain = sab_forward(x_plain, params.blocks[layer - 1], cfg.heads)

    pool = PromptPool(cfg.embed_dim, seed=9)
    bank = ClassifierBank(cfg.embed_dim, seed=9)
    add_class_prompts(pool, bank, [4, 7], stage=1)
    o_P, o_I = encoder_forward(imgs, pool, params)
    assert o_P.shape == (1, 2, cfg.embed_dim)
    # and the deep run with an empty pool reuses exactly that prefix
    o_P0, o_I0 = encoder_forward(imgs, None, params)
    x_check = x_plain
    for layer in range(cfg.prompt_layer + 1, cfg.layers + 1):
        x_check = sab_forward(x_check, params.blocks[layer - 1], cfg.heads)
    x_check = layer_norm(x_check) * params.final_ln_g + params.final_ln_b
    assert np.allclose(o_I0.data[0], x_check.data[0], atol=1e-12)


def test_prompt_dim_mismatch_rejected():
    cfg = small_config()
    params = EncoderParams(cfg)
    pool = PromptPool(5)
    add_class_prompts(pool, ClassifierBank(5), [0, 1], stage=1)
    with pytest.raises(ValueError, match="prompt dim 5"):
        encoder_forward(np.zeros((1, 8, 8)), pool, params)


@pytest.mark.parametrize("rows", [(-1, 1), (0, 7), (5, 7),  # outside the 2 + 4 tokens
                                  (2, 1), (3, 3),  # reversed or empty
                                  (0, 1), (1, 2), (5, 6)])  # one row: matrix-vector products differ in bits
def test_a_token_range_outside_the_sequence_or_of_one_row_is_rejected(rows):
    cfg = small_config()
    params = EncoderParams(cfg)
    pool = PromptPool(cfg.embed_dim)
    add_class_prompts(pool, ClassifierBank(cfg.embed_dim), [0, 1], stage=1)
    with pytest.raises(ValueError, match=r"are not two or more of the 6 tokens"):
        encoder_forward(np.zeros((1, 8, 8)), pool, params, rows=rows)


@pytest.mark.parametrize("rows", [(1, 3), (2, 6), (0, 6)])
def test_a_token_range_may_run_into_the_patch_rows(rows):
    cfg = small_config()
    params = EncoderParams(cfg)
    pool = PromptPool(cfg.embed_dim, seed=3)
    add_class_prompts(pool, ClassifierBank(cfg.embed_dim, seed=3), [0, 1], stage=1)
    imgs = np.random.default_rng(5).normal(size=(3, 8, 8))
    o_P, o_I = encoder_forward(imgs, pool, params)
    picked, none = encoder_forward(imgs, pool, params, rows=rows)
    assert none is None
    assert picked.data.tobytes() == np.concatenate([o_P.data, o_I.data], axis=1)[:, slice(*rows)].tobytes()


def test_zero_init_adapters_do_not_change_outputs():
    cfg = small_config(layers=3, prompt_layer=1, adapter_start=2)
    params = EncoderParams(cfg)
    pool = PromptPool(cfg.embed_dim, seed=2)
    bank = ClassifierBank(cfg.embed_dim, seed=2)
    add_class_prompts(pool, bank, [0, 1], stage=1)
    adapters = attach_adapters(cfg)
    rng = np.random.default_rng(11)
    imgs = rng.normal(size=(4, 8, 8))
    o_P_a, o_I_a = encoder_forward(imgs, pool, params, adapters)
    o_P_p, o_I_p = encoder_forward(imgs, pool, params, None)
    assert np.max(np.abs(o_P_a.data - o_P_p.data)) <= 1e-12
    assert np.max(np.abs(o_I_a.data - o_I_p.data)) <= 1e-12


def test_prompt_rows_permute_with_pool_order():
    # Reordering the prompt pool permutes output rows and leaves values
    # intact: attention has no positional signal on prompt rows.
    cfg = small_config()
    params = EncoderParams(cfg)
    pool = PromptPool(cfg.embed_dim, seed=4)
    bank = ClassifierBank(cfg.embed_dim, seed=4)
    add_class_prompts(pool, bank, [0, 1, 2, 3], stage=1)
    rng = np.random.default_rng(21)
    imgs = rng.normal(size=(1, 8, 8))
    o_P, o_I = encoder_forward(imgs, pool, params)
    perm = [2, 0, 3, 1]
    shuffled = pool.reordered(perm)
    o_P_s, o_I_s = encoder_forward(imgs, shuffled, params)
    assert np.max(np.abs(o_P_s.data[0] - o_P.data[0][perm])) <= 1e-10
    assert np.max(np.abs(o_I_s.data[0] - o_I.data[0])) <= 1e-10


def test_encoder_gradients_match_finite_differences():
    cfg = small_config()
    params = EncoderParams(cfg)
    pool = PromptPool(cfg.embed_dim, seed=6)
    bank = ClassifierBank(cfg.embed_dim, seed=6)
    add_class_prompts(pool, bank, [0], stage=1)
    rng = np.random.default_rng(8)
    imgs = rng.normal(size=(1, 8, 8))
    weights = rng.normal(size=(1, 1, cfg.embed_dim))

    def scalar():
        o_P, _ = encoder_forward(imgs, pool, params)
        return (o_P * Tensor(weights, requires_grad=False)).sum()

    prompt = pool.entry(0).vector
    assert gradcheck(scalar, prompt) <= 1e-4
    assert gradcheck(scalar, params.blocks[1].wq) <= 1e-4
    assert gradcheck(scalar, params.blocks[0].w1) <= 1e-4
    assert gradcheck(scalar, params.final_ln_g) <= 1e-4


def test_backbone_named_parameter_census():
    cfg = small_config()
    named = EncoderParams(cfg).named()
    per_block = 16
    assert len(named) == 3 + per_block * cfg.layers + 2
    assert "backbone.l01.wq" in named and "backbone.l02.b2" in named
    assert named["backbone.patch_w"].shape == (16, 8)
    assert named["backbone.pos"].shape == (4, 8)


# -- tape budget ------------------------------------------------------------


@pytest.mark.parametrize("stage_mask, budget", [(False, 58), (True, 41)])
def test_forward_and_loss_tape_budget(stage_mask, budget):
    # Fused linear / mlp / affine-norm / attention / readout ops keep one
    # step's tape short; the unfused chains recorded 275 and 164 entries
    # here, a separate add for the positions and each adapter branch 67
    # and 47, and two linears per MLP and adapter branch 64 and 45.
    from promptcl import RunConfig, asl_loss, build_model, compute_trainable_mask, forward_logits
    from promptcl.model import named_params
    from promptcl.tensor import active_tape

    state = build_model(ModelConfig())
    add_class_prompts(state.pool, state.bank, [0, 1, 2, 3], stage=1)
    if stage_mask:
        mask = compute_trainable_mask(1, state.pool, state.bank, state.adapters, state.backbone)
        for name, param in named_params(state).items():
            param.requires_grad = mask[name]
    images = np.random.default_rng(0).random((8, 16, 16))
    asl_loss(forward_logits(state, images), np.zeros((8, 4)), RunConfig().asl)
    assert len(active_tape()) <= budget


def test_tape_length_does_not_grow_with_prompt_count():
    # The pool stacks its prompts with one concat and one reshape, however
    # many there are; one reshape per prompt gave 12 prompts 8 more entries.
    from promptcl import RunConfig, asl_loss, build_model, forward_logits
    from promptcl.tensor import active_tape

    def entries(n_classes: int) -> int:
        reset_tape()
        state = build_model(ModelConfig())
        add_class_prompts(state.pool, state.bank, list(range(n_classes)), stage=1)
        images = np.random.default_rng(0).random((8, 16, 16))
        asl_loss(forward_logits(state, images), np.zeros((8, n_classes)), RunConfig().asl)
        return len(active_tape())

    assert entries(4) == entries(12)
