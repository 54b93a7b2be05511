"""The step workspace: reused buffers change no bit, and a buffer goes back only when unreferenced.

``training._fit`` runs its steps in ``tensor.step_workspace()``. The
workspace must give the same losses and parameters, to the byte, as the
loop without it; with ``tensor._POISON`` set, every buffer it takes back
is filled with NaN, so a read of memory that was handed back too early
shows up as NaN instead of as plausible numbers.
"""

import contextlib
import inspect
import json
import math
import os
import statistics
import subprocess
import sys
import types

import numpy as np
import pytest

import step_pairs
import test_tensor
import test_training
from helpers import (
    peak_sites,
    reference_attention,
    reference_layer_norm_affine,
    reference_linear,
    reference_mlp,
    step_times,
    twelve_prompt_step,
)
from promptcl import ModelConfig, model, tensor, training, vit
from promptcl.adapters import compute_trainable_mask
from promptcl.losses import asl_loss, mask_to_task
from promptcl.model import build_model, forward_logits, named_params, predict_probs
from promptcl.prompts import add_class_prompts, freeze_previous
from promptcl.protocol import build_task_stream
from promptcl.tensor import (
    Tensor,
    active_tape,
    backward,
    layer_norm_affine,
    linear,
    mlp,
    multi_head_attention,
    narrow,
    no_grad,
    reset_tape,
    stable_sigmoid,
    step_workspace,
)
from test_training import micro_config, micro_dataset, stage_mask


def fit_case(case):
    """Run one ``_fit`` loop; return its per-step loss bytes and its final parameter bytes."""
    losses = []

    def recording_backward(root):
        losses.append(root.data.tobytes())
        return backward(root)

    ds = micro_dataset()
    cfg = micro_config(epochs=2, batch_size=11, ortho_weight=0.1 if case == "ortho" else 0.0)
    state = build_model(cfg.model, use_adapters=case != "pretraining")
    stream = build_task_stream(ds, 2, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "backward", recording_backward)
        if case == "pretraining":
            images = ds.train_images
            training.simulate_pretraining(state, ds, cfg)
        else:
            add_class_prompts(state.pool, state.bank, stream.tasks[0].class_ids, stage=1)
            task = stream.tasks[0]
            if case == "stage-2":
                training.train_stage(state, task, ds, cfg, stage_mask(state, 1, cfg))
                task = stream.tasks[1]
                add_class_prompts(state.pool, state.bank, task.class_ids, stage=2)
                freeze_previous(state.pool, state.bank, 2)
            images = ds.train_images[task.train_indices]
            mask = compute_trainable_mask(task.index, state.pool, state.bank, state.adapters, state.backbone)
            labels = mask_to_task(ds.train_labels[task.train_indices], task.class_ids)
            training._fit(state, images, labels, task.class_ids, mask, cfg.epochs, cfg, (0, case))
    assert images.shape[0] % cfg.batch_size != 0  # the loop ends each epoch on a remainder batch
    return losses, {name: t.data.tobytes() for name, t in named_params(state).items()}


@pytest.mark.parametrize("poison", [False, True], ids=["plain", "poisoned"])
@pytest.mark.parametrize("case", ["stage-1", "stage-2", "pretraining", "ortho"])
def test_fit_with_and_without_the_workspace_is_byte_identical(monkeypatch, case, poison):
    monkeypatch.setattr(tensor, "_POISON", poison)
    pooled_losses, pooled_params = fit_case(case)
    monkeypatch.setattr(training, "step_workspace", contextlib.nullcontext)
    plain_losses, plain_params = fit_case(case)
    assert len(pooled_losses) >= 2 * 2
    assert pooled_losses == plain_losses
    assert pooled_params == plain_params


def plain_tests(module):
    """The module's test functions that take no argument or only ``tmp_path``."""
    return [fn for name, fn in sorted(vars(module).items())
            if name.startswith("test_") and set(inspect.signature(fn).parameters) <= {"tmp_path"}]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # as on the diverging-pretraining test
@pytest.mark.parametrize("test", plain_tests(test_training), ids=lambda fn: fn.__name__)
def test_training_tests_pass_with_poisoned_buffers(monkeypatch, tmp_path, test):
    monkeypatch.setattr(tensor, "_POISON", True)
    test(**({"tmp_path": tmp_path} if "tmp_path" in inspect.signature(test).parameters else {}))


@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("gamma_trainable", [True, False])
@pytest.mark.parametrize("rows", [[3, 0, 4], [2]])
def test_fused_ops_stay_byte_identical_in_a_poisoned_workspace(monkeypatch, batch, heads, gamma_trainable, rows):
    monkeypatch.setattr(tensor, "_POISON", True)
    arrays = test_tensor.block_arrays(batch, heads)
    plain = [test_tensor._block_and_readout(ops, arrays, heads, rows, gamma_trainable)
             for ops in (test_tensor.FUSED, test_tensor.UNFUSED)]
    with step_workspace():
        test_tensor.test_fused_ops_are_byte_identical_to_unfused_chain(batch, heads, gamma_trainable, rows)
        pooled = [test_tensor._block_and_readout(ops, arrays, heads, rows, gamma_trainable)
                  for ops in (test_tensor.FUSED, test_tensor.UNFUSED)]
    for (outs, grads), (p_outs, p_grads) in zip(plain, pooled):
        assert [o.tobytes() for o in outs] == [o.tobytes() for o in p_outs]
        assert {k: None if g is None else g.tobytes() for k, g in grads.items()} == \
               {k: None if g is None else g.tobytes() for k, g in p_grads.items()}


def tiled_cases(lead, r):
    """``(name, op, chain, leaves, wants)`` per case: the fused op on a dict of leaf arrays, its
    unfused chain (None where only a one-shot run of the op itself gives the reference) and
    the leaves that take a gradient."""
    rows, d, hidden = 6, 8, 32
    a = {"x": r.normal(size=lead + (rows, d)), "w1": 0.3 * r.normal(size=(d, hidden)),
         "b1": 0.1 * r.normal(size=hidden), "w2": 0.3 * r.normal(size=(hidden, d)), "b2": 0.1 * r.normal(size=d),
         "res": r.normal(size=lead + (rows, d)), "pos": r.normal(size=(rows, d)),
         "w1n": 0.3 * r.normal(size=(d, 1)), "b1n": 0.1 * r.normal(size=1), "w2n": 0.3 * r.normal(size=(1, d)),
         "w2w": 0.3 * r.normal(size=(hidden, 12)), "b2w": 0.1 * r.normal(size=12),
         "q": r.normal(size=lead + (4, d)), "k": r.normal(size=lead + (rows, d)), "v": r.normal(size=lead + (rows, d)),
         "g": 1.0 + 0.1 * r.normal(size=d), "be": 0.1 * r.normal(size=d)}
    one = lambda op: lambda p: op(p["x"], p["w1"], p["b1"])
    two = lambda op: lambda p: op(p["x"], p["w1"], p["b1"], p["w2"], p["b2"], residual=p["res"])
    every = ("x", "w1", "b1", "w2", "b2", "res")
    cases = [
        ("linear", one(linear), one(reference_linear), a, ("x", "w1", "b1")),
        ("linear-input", one(linear), one(reference_linear), a, ("x",)),
        ("linear-weights", one(linear), one(reference_linear), a, ("w1", "b1")),
        ("linear-padded", lambda p: linear(narrow(p["x"], -2, 0, 3), p["w1"], p["b1"], pad_rows=rows),
         None, a, ("x", "w1", "b1")),
        ("mlp", two(mlp), two(reference_mlp), a, every),
        ("mlp-frozen", two(mlp), two(reference_mlp), a, ("x", "res")),  # as in a desk stage-3 step
        ("mlp-weights", two(mlp), two(reference_mlp), a, ("w1", "b1", "w2", "b2")),
        ("mlp-second-layer", two(mlp), two(reference_mlp), a, ("w2", "b2", "res")),  # only the rebuild keeps x
        ("mlp-second-layer-and-input", two(mlp), two(reference_mlp), a, ("x", "w2")),  # the rebuilt tile's mask
        ("mlp-first-layer", two(mlp), two(reference_mlp), a, ("w1", "b1")),  # the kept mask
        ("mlp-widening", lambda p: mlp(p["x"], p["w1"], p["b1"], p["w2w"], p["b2w"]),
         lambda p: reference_mlp(p["x"], p["w1"], p["b1"], p["w2w"], p["b2w"]), a, ("x", "w1", "b1", "w2w", "b2w")),
        ("mlp-suffix-residual",
         lambda p: mlp(p["x"], p["w1"], p["b1"], p["w2"], p["b2"], residual=p["pos"]),
         lambda p: reference_mlp(p["x"], p["w1"], p["b1"], p["w2"], p["b2"], residual=p["pos"]),
         a, ("x", "w1", "b1", "w2", "b2", "pos")),
        ("mlp-one-wide", lambda p: mlp(p["x"], p["w1n"], p["b1n"], p["w2n"], p["b2"]),
         lambda p: reference_mlp(p["x"], p["w1n"], p["b1n"], p["w2n"], p["b2"]), a, ("x", "w1n", "b1n", "w2n")),
        ("mlp-one-wide-second-layer", lambda p: mlp(p["x"], p["w1n"], p["b1n"], p["w2n"], p["b2"]),
         lambda p: reference_mlp(p["x"], p["w1n"], p["b1n"], p["w2n"], p["b2"]), a, ("w2n",)),
    ]
    for wants in (("x", "w1", "b1", "w2", "b2"), ("x", "w2")):
        cases.append((f"mlp-padded-{len(wants)}",
                      lambda p: mlp(narrow(p["x"], -2, 0, 3), p["w1"], p["b1"], p["w2"], p["b2"], pad_rows=rows),
                      None, a, wants))
    # a layer norm's output read by a linear or an mlp, which rebuild it from its recipe when a
    # weight trains and the norm is recorded; and their padded forms, on fewer rows than pad_rows
    normed = lambda op, norm, x=lambda p: p["x"]: lambda p: op({**p, "x": norm(x(p), p["g"], p["be"])})
    narrowed = lambda p: narrow(p["x"], -2, 0, 3)
    padded_linear = lambda p: linear(p["x"], p["w1"], p["b1"], pad_rows=rows)
    padded_mlp = lambda p: mlp(p["x"], p["w1"], p["b1"], p["w2"], p["b2"], pad_rows=rows)
    for kind, fused, chain, weights in [("linear", one(linear), one(reference_linear), ("w1", "b1")),
                                        ("mlp", two(mlp), two(reference_mlp), ("w1", "b1", "w2", "b2"))]:
        cases += [(f"norm-{kind}", normed(fused, layer_norm_affine), normed(chain, reference_layer_norm_affine),
                   a, ("x", "g", "be") + weights + ("res",) * (kind == "mlp")),
                  (f"norm-{kind}-weights", normed(fused, layer_norm_affine),
                   normed(chain, reference_layer_norm_affine), a, ("g", "be") + weights),
                  (f"norm-{kind}-last-weight", normed(fused, layer_norm_affine),
                   normed(chain, reference_layer_norm_affine), a, ("x", weights[-2])),
                  (f"norm-{kind}-input", normed(fused, layer_norm_affine),
                   normed(chain, reference_layer_norm_affine), a, ("x",))]
    cases += [("norm-linear-padded", normed(padded_linear, layer_norm_affine, narrowed), None, a,
               ("x", "g", "be", "w1", "b1")),
              ("norm-mlp-padded", normed(padded_mlp, layer_norm_affine, narrowed), None, a,
               ("x", "g", "be", "w1", "b1", "w2", "b2"))]
    for heads in (1, 4):
        attend = lambda op, heads=heads: lambda p: op(p["q"], p["k"], p["v"], heads)
        cases += [(f"attention-{heads}-heads", attend(multi_head_attention), attend(reference_attention),
                   a, ("q", "k", "v")),
                  (f"attention-{heads}-heads-keys", attend(multi_head_attention), attend(reference_attention),
                   a, ("k",))]
    return cases


def grads_of(op, arrays, wants, r):
    """The output bytes of ``op`` and the bytes of its wanted leaves' gradients."""
    p = {name: Tensor(v, requires_grad=name in wants) for name, v in arrays.items()}
    out = op(p)
    data = out.data.tobytes()  # a step workspace recycles it in backward
    backward((out * Tensor(r.normal(size=out.shape))).sum())
    reset_tape()
    return [data] + [p[name].grad.tobytes() for name in wants]


TILED_BATCHES = (1, 7, 8, 9, 15, 16, 17, 64, 65)  # one item, and either side of a tile's end


@pytest.mark.parametrize("lead", [(b,) for b in TILED_BATCHES] + [(b, 2) for b in TILED_BATCHES], ids=str)
def test_tiled_pullbacks_give_the_bytes_of_their_chains_in_a_poisoned_workspace(monkeypatch, lead):
    # linear's pullback, mlp and the attention pullback make their batch-,
    # hidden- and score-sized temporaries 8 items of the first axis at a
    # time (9, 15, 17 and 65 leave a ragged last tile); each tile must keep
    # the bytes of the whole batch's products, sums and softmax rows, and a
    # weight-gradient sum carried from tile to tile the bytes of the whole
    # stack's. When w2 trains, mlp's pullback rebuilds each tile of the
    # hidden layer and its mask from x, with w1 trained or frozen, and the
    # weight-gradient stack that gw2 and gw1 share is sized by the larger of
    # the two (mlp-widening). A padded linear or mlp has no chain: it must
    # give the bytes of one whole-batch tile. A one-wide hidden layer, whose
    # bias sum NumPy makes pairwise, runs in one tile. A linear or mlp on a
    # recorded layer norm's output rebuilds that output a tile at a time
    # from the norm's recipe when a weight trains (norm-*).
    for name, op, chain, arrays, wants in tiled_cases(lead, np.random.default_rng(math.prod(lead))):
        with monkeypatch.context() as mp, step_workspace():
            mp.setattr(tensor, "_POISON", True)
            tiled = grads_of(op, arrays, wants, np.random.default_rng(1))
        with monkeypatch.context() as mp:
            if chain is None:
                mp.setattr(tensor, "_TILE", 1 << 20)
            want = grads_of(chain or op, arrays, wants, np.random.default_rng(1))
        assert tiled == want, name


def test_a_tensor_held_past_its_step_keeps_its_values(monkeypatch):
    monkeypatch.setattr(tensor, "_POISON", True)
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    w, b = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
    with step_workspace() as ws:
        held = linear(x, w, b)
        address = held.data.ctypes.data
        reset_tape()
        again = linear(x, w, b)
        assert not np.shares_memory(held.data, again.data)  # the next step works around it
        assert np.array_equal(held.data, np.full((4, 2), 3.0))
        view = held.data[1:]
        del held
        reset_tape()
        assert np.array_equal(view, np.full((3, 2), 3.0))  # a view keeps the buffer too
        del view, again
        reset_tape()
        reused = ws.take((4, 2))  # once nothing references it, it goes back, poisoned
        assert reused.ctypes.data == address and np.isnan(reused).all()


def shared_mlps(op, case, x, w0, w1, b0, b1, u, ub, c):
    """A loss whose MLPs get an adjoint they must not write to."""
    if case == "shared-by-add":  # one writeable g serves both summands
        return ((op(x, w0, b0, u, ub) + op(x, w1, b1, u, ub)) * c).sum()
    return op(x, w0, b0, u, ub).sum()  # g is a read-only broadcast


@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "poisoned-workspace"])
@pytest.mark.parametrize("case", ["shared-by-add", "read-only-sum"])
def test_an_mlp_leaves_a_shared_or_read_only_adjoint_alone(monkeypatch, case, pooled):
    monkeypatch.setattr(tensor, "_POISON", True)
    r = np.random.default_rng(3)
    arrays = [r.normal(size=shape) for shape in [(2, 5, 4), (4, 3), (4, 3), (3,), (3,), (3, 3), (3,)]]
    c = Tensor(r.normal(size=(5, 3)))
    grads = []
    for op in (mlp, reference_mlp):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with step_workspace() if pooled and op is mlp else contextlib.nullcontext():
            backward(shared_mlps(op, case, *leaves, c))
            reset_tape()
        grads.append([t.grad.tobytes() for t in leaves if t.grad is not None])
    assert len(grads[0]) == (7 if case == "shared-by-add" else 5)
    assert grads[0] == grads[1]


@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "workspace"])
def test_backward_consumes_a_step_only_once(pooled):
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with step_workspace() if pooled else contextlib.nullcontext():
        loss = linear(x, Tensor(np.ones((3, 1))), Tensor(np.zeros(1))).sum()
        backward(loss)
        with pytest.raises(ValueError, match="called twice"):
            backward(loss)
        unrun = linear(x, Tensor(np.ones((3, 1))), Tensor(np.zeros(1))).sum()
        reset_tape()
        with pytest.raises(ValueError, match="consumed or reset"):
            backward(unrun)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_handed_back_neighbours_merge_and_lower_the_top():
    ws = tensor._Workspace()
    a, b, c = (ws.take((10,)) for _ in range(3))  # 16 elements each, 64-byte aligned
    view = b[2:5]
    del a, b  # b lives on in its view
    assert (ws.top, ws.holes) == (48, {0: 16})
    del view  # one 32-element hole below c
    d = ws.take((30,))
    assert d.ctypes.data == ws.arena.ctypes.data
    assert (ws.top, ws.holes) == (48, {})
    del c  # the top comes down to the end of d
    assert ws.top == 32
    del d
    assert (ws.top, ws.holes, ws.need) == (0, {}, 48)


def test_a_step_that_outgrows_the_arena_gets_a_large_enough_one_next(monkeypatch):
    monkeypatch.setattr(tensor._Workspace, "RESERVE", 64)
    ws = tensor._Workspace()
    inside, spilled = ws.take((6, 8)), ws.take((6, 8))
    assert np.may_share_memory(inside, ws.arena) and not np.may_share_memory(spilled, ws.arena)
    assert ws.need == 96
    ws.reset()
    assert all(np.may_share_memory(ws.take((6, 8)), ws.arena) for _ in range(2))


def test_a_nested_workspace_gives_the_outer_one_back_on_exit():
    with step_workspace():
        outer = tensor._WORKSPACE
        with step_workspace():
            assert tensor._WORKSPACE is not outer
        assert tensor._WORKSPACE is outer
    assert tensor._WORKSPACE is None


def eval_model(n_classes):
    state = build_model(ModelConfig())
    add_class_prompts(state.pool, state.bank, list(range(n_classes)), stage=1)
    r = np.random.default_rng(n_classes)
    for t in named_params(state).values():  # heads and adapters start at zero
        t.data = t.data + 0.1 * r.normal(size=t.shape)
    return state, r.normal(size=(70, 16, 16))


@pytest.mark.parametrize("poison", [False, True], ids=["plain", "poisoned"])
@pytest.mark.parametrize("n_classes", [1, 5])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_predict_probs_in_its_workspace_gives_the_bytes_of_plain_chunks(monkeypatch, poison, n_classes, batch):
    monkeypatch.setattr(tensor, "_POISON", poison)
    state, images = eval_model(n_classes)
    with no_grad():
        plain = [stable_sigmoid(forward_logits(state, images[s:s + batch]).data)
                 for s in range(0, len(images), batch)]
    assert predict_probs(state, images, batch_size=batch).tobytes() == np.concatenate(plain).tobytes()


def test_predict_probs_inside_a_step_leaves_the_step_intact(monkeypatch):
    monkeypatch.setattr(tensor, "_POISON", True)
    state, images = eval_model(5)
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    with step_workspace():
        y = linear(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))
        probs = predict_probs(state, images, batch_size=32)
        assert np.array_equal(y.data, np.full((4, 2), 3.0))
        backward(y.sum())
        reset_tape()
    assert np.isfinite(probs).all()
    assert np.array_equal(x.grad, np.full((4, 3), 2.0))


def test_fit_drops_the_workspace_when_it_returns_or_raises():
    ds = micro_dataset()
    cfg = micro_config(epochs=1)
    state = build_model(cfg.model)
    task = build_task_stream(ds, 2, 2).tasks[0]
    add_class_prompts(state.pool, state.bank, task.class_ids, stage=1)
    mask = compute_trainable_mask(1, state.pool, state.bank, state.adapters, state.backbone)
    images = ds.train_images[task.train_indices]
    labels = mask_to_task(ds.train_labels[task.train_indices], task.class_ids)
    training._fit(state, images, labels, task.class_ids, mask, 1, cfg, (0, "x"))
    assert tensor._WORKSPACE is None
    labels[-1, 0] = 2.0  # asl_loss rejects the batch that holds it, after its forward pass
    with pytest.raises(ValueError, match="0/1"):
        training._fit(state, images, labels, task.class_ids, mask, 1, cfg, (0, "x"))
    assert tensor._WORKSPACE is None
    assert len(active_tape()) == 0
    assert tensor._RECORDING == [True]
    assert all(t.requires_grad for t in named_params(state).values())


# Each step's high-water mark in float64 elements. Where it is reached
# (PEAK_SITES below checks it): stage 1 and desk stage 3 in the forward
# pass, in block 4's attention, as it takes its whole-batch scores (stage 1)
# or transposed keys (desk stage 3); pretraining in the forward pass, in
# block 4's mlp, as it takes one tile's hidden layer. Keeping every linear's
# input for its pullback, a ReLU's float output instead of its one-byte
# mask, an mlp's hidden layer when w2 trains instead of rebuilding it
# from x, or a layer norm's output that a trained weight reads instead of
# rebuilding it from the norm's recipe exceeds it. A tape that held every
# op's output and its pullbacks' input tensors took 2,333,056 on the first
# two steps; whole-batch linear
# pullback temporaries took 1,470,464, 1,413,120 and 2,936,832; the MLP's
# hidden layer and the attention pullback's score-sized buffers made for the
# whole batch, not in tiles, took 1,241,088, 1,028,096 and 2,686,976; the
# hidden layer kept whole for w2's gradient, and a stack for each of gw1 and
# gw2, took 1,143,808, 925,696 and 2,646,016; 16-item tiles for mlp and the
# attention pullback, with linear's pullback made whole or, for its padded
# product and its weight-gradient stacks above 1 MB, in 8-item slices, took
# 1,115,136, 925,696 and 1,990,656; 8-item tiles for every fused op, with
# each layer norm's output kept whole by the q, k and v linears and the mlp
# that read it, took 1,093,632, 925,696 and 1,929,216. The desk stage-3 step
# reads 4 of the 12 prompt rows, and its last block runs on those 4 alone;
# running it on all 12 took 1,183,744.
TWELVE_PROMPT_NEED = {1: 1_093_632, 3: 925_696, "pretraining": 1_642_496}


def step_need(monkeypatch, stage, n_prompts=12):
    """The workspace ``need`` of one ``twelve_prompt_step(stage, n_prompts)`` run by ``_fit``."""
    needs = []

    def recording_backward(root):
        backward(root)
        needs.append(tensor._WORKSPACE.need)

    monkeypatch.setattr(training, "backward", recording_backward)
    cfg, state, class_ids, mask, images, labels = twelve_prompt_step(stage, n_prompts)
    training._fit(state, images, labels, class_ids, mask, 1, cfg, (0, "workspace-need"))
    assert len(needs) == 1
    return needs[0]


@pytest.mark.parametrize("stage", [1, 3, "pretraining"], ids=["stage-1", "desk-stage-3", "pretraining"])
def test_a_twelve_prompt_step_takes_no_more_workspace_than_before(monkeypatch, stage):
    assert step_need(monkeypatch, stage) <= TWELVE_PROMPT_NEED[stage]


def test_step_times_gives_a_positive_time_for_each_block_of_fits_steps(monkeypatch):
    # It times each step from one of _fit's reset_tape calls to the next:
    # one a step, and one more when _fit returns.
    calls = []
    reset = training.reset_tape
    monkeypatch.setattr(training, "reset_tape", lambda: (calls.append(None), reset())[1])
    times = step_times("pretraining", 8, 2, warmup=3)
    assert len(times) == 2 and all(t > 0 for t in times)
    assert len(calls) == 3 + 5 * 2 + 1


def test_step_pairs_alternates_two_trees_in_fresh_processes(capsys):
    # The script behind the step timings that CHANGES.md cites: one tree
    # against itself, two pairs of one 5-step block at batch 2.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert step_pairs.main([root, root, "--batch", "2", "--pairs", "2", "--blocks", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pair  1 (before first)", "pair  2 (after first)"]
    assert lines[2].startswith("before: median ") and lines[3].startswith("after: median ")
    assert lines[4].startswith("after faster in ") and " of 2 pairs" in lines[4]


def test_a_one_prompt_step_runs_its_last_block_on_two_tokens(monkeypatch):
    # The one prompt row and the first patch row; the whole last block on
    # all 17 tokens took 933,376, whole-batch MLP and attention-pullback
    # temporaries 650,496, and the adapters' hidden layers kept whole for
    # their w2's gradient 557,312. The need is reached in the forward pass,
    # as block 4's attention takes its transposed keys.
    assert step_need(monkeypatch, 1, n_prompts=1) <= 531_200


# (op, block, shape of the buffer it takes) where each step of
# test_a_twelve_prompt_step_takes_no_more_workspace_than_before peaks
PEAK_SITES = {1: ("multi_head_attention", 4, (64, 4, 12, 28)),
              3: ("multi_head_attention", 4, (64, 4, 8, 28)),
              "pretraining": ("mlp", 4, (8, 12, 128))}


@pytest.mark.parametrize("stage", [1, 3, "pretraining"], ids=["stage-1", "desk-stage-3", "pretraining"])
def test_each_twelve_prompt_step_peaks_where_its_comment_says(monkeypatch, stage):
    with peak_sites(monkeypatch) as sites:
        need = step_need(monkeypatch, stage)
    site = sites[-1]
    assert site.need == need
    assert (site.op, site.block, site.shape) == PEAK_SITES[stage], site
    assert sum(site.lent.values()) <= need
    if stage == "pretraining":  # every w2 trains: an mlp lends its output, no hidden layer and no mask
        batch, tokens, width = 64, 28, ModelConfig().embed_dim
        assert all(n <= batch * tokens * width for (op, _), n in site.lent.items() if op == "mlp"), site.lent


def test_a_linear_pullback_takes_no_buffer_of_its_inputs_shape_but_its_input_gradient(monkeypatch):
    # A linear reads its kept input a tile at a time, as mlp does: one on a
    # layer norm's output (every q, k and v projection) rebuilds it into one
    # tile's buffer, not into a whole-batch one. In a pretraining step every
    # weight trains, so each of those pullbacks rebuilds its input.
    x_shapes, taken, strays, pulled = {}, [], [], []
    take, pull, vit_linear = tensor._Workspace.take, tensor._pull, vit.linear

    def spying_linear(x, *args, **kwargs):
        out = vit_linear(x, *args, **kwargs)
        x_shapes[out.key] = x.shape
        return out

    def spying_take(ws, shape, dtype=np.float64):
        buf = take(ws, shape, dtype)
        taken.append((tuple(shape), buf.ctypes.data))
        return buf

    def watched(key, pullback):
        """``pullback``, noting each buffer of x's shape it takes that it does not return as x's gradient."""
        def run(g):
            start = len(taken)
            grads = pullback(g)
            pulled.append(key)
            strays.extend(shape for shape, address in taken[start:] if shape == x_shapes[key]
                          and (grads[0] is None or address != grads[0].ctypes.data))
            return grads
        return run

    def spying_pull(key, routes, pullback, adjoint):
        return pull(key, routes, watched(key, pullback) if key in x_shapes else pullback, adjoint)

    monkeypatch.setattr(vit, "linear", spying_linear)
    monkeypatch.setattr(tensor._Workspace, "take", spying_take)
    monkeypatch.setattr(tensor, "_pull", spying_pull)
    step_need(monkeypatch, "pretraining")
    blocks = ModelConfig().layers
    assert len(pulled) == 1 + 4 * blocks  # the patch embedding, and q, k, v and the output projection
    assert strays == []


def held_tensors(kind=Tensor):
    """Every tensor (or object of ``kind``) the tape holds: in its entries and in its pullbacks'
    closures, nested ones included."""
    held, seen = [], set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, kind):
            held.append(obj)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif isinstance(obj, types.FunctionType):
            visit(obj.__defaults__ or ())
            for cell in obj.__closure__ or ():
                with contextlib.suppress(ValueError):  # a cell not yet filled
                    visit(cell.cell_contents)

    visit(active_tape()._entries)
    return held


@contextlib.contextmanager
def computed_tensors(monkeypatch):
    """Collect every tensor an op returns while the block runs."""
    outputs = []
    record = tensor._record

    def collecting_record(*args):
        outputs.append(record(*args))
        return outputs[-1]

    with monkeypatch.context() as mp:
        mp.setattr(tensor, "_record", collecting_record)
        yield outputs


@pytest.mark.parametrize("ops", ["fused", "unfused"])
def test_after_a_blocks_forward_pass_the_tape_holds_no_tensor_an_op_computed(monkeypatch, ops):
    held = []

    def walking_backward(root):
        held.extend(held_tensors())
        backward(root)

    arrays = test_tensor.block_arrays(7, 4)
    monkeypatch.setattr(test_tensor, "backward", walking_backward)
    with computed_tensors(monkeypatch) as outputs:
        test_tensor._block_and_readout(test_tensor.FUSED if ops == "fused" else test_tensor.UNFUSED,
                                       arrays, 4, [3, 0, 4], True)
    assert len(outputs) >= 8 and held  # the leaves that take a gradient
    computed = {id(t) for t in outputs}
    assert [t for t in held if id(t) in computed] == []


@pytest.mark.parametrize("stage", [1, 3], ids=["stage-1", "desk-stage-3"])
def test_after_a_training_steps_forward_pass_the_tape_holds_no_tensor_an_op_computed(monkeypatch, stage):
    cfg, state, class_ids, mask, images, labels = twelve_prompt_step(stage)
    for name, t in named_params(state).items():
        t.requires_grad = mask[name]
    with computed_tensors(monkeypatch) as outputs:
        loss = asl_loss(forward_logits(state, images[:5], class_ids), labels[:5], cfg.asl)
    held = held_tensors()
    assert len(active_tape()) > 40 and loss in outputs
    computed = {id(t) for t in outputs}
    assert [t for t in held if id(t) in computed] == []


@pytest.mark.parametrize("wants", [("x", "w1", "b1", "w2", "b2"), ("x", "w2"), ("w2",)], ids="-".join)
def test_an_mlp_whose_second_layer_trains_keeps_no_hidden_sized_buffer(wants):
    # Its pullback rebuilds the hidden layer and the ReLU mask from x, one
    # tile at a time, instead of keeping either for the whole batch.
    r = np.random.default_rng(9)
    shapes = {"x": (5, 6, 8), "w1": (8, 32), "b1": (32,), "w2": (32, 8), "b2": (8,)}
    p = {name: Tensor(r.normal(size=shape), requires_grad=name in wants) for name, shape in shapes.items()}
    out = mlp(p["x"], p["w1"], p["b1"], p["w2"], p["b2"])
    held = held_tensors(np.ndarray)
    reset_tape()
    assert any(a is p["x"].data for a in held)
    hidden = math.prod(out.shape[:-1]) * shapes["w1"][1]
    assert [(a.dtype, a.shape) for a in held if a.size >= hidden] == []


@pytest.mark.parametrize("op", ["linear", "mlp"])
def test_a_trained_weight_on_a_layer_norms_output_keeps_no_array_of_it(op):
    # The linear or mlp keeps the norm's recipe, whose normalised rows the
    # norm's own pullback keeps anyway, so the output's array goes back once
    # its caller drops it.
    r = np.random.default_rng(4)
    x, gamma, beta = (Tensor(r.normal(size=shape), requires_grad=True) for shape in [(5, 6, 8), (8,), (8,)])
    w1, b1, w2, b2 = (Tensor(r.normal(size=shape), requires_grad=True) for shape in [(8, 32), (32,), (32, 8), (8,)])
    y = layer_norm_affine(x, gamma, beta)
    out = linear(y, w1, b1) if op == "linear" else mlp(y, w1, b1, w2, b2)
    held = held_tensors(np.ndarray)
    reset_tape()
    assert out.shape == (5, 6, 32 if op == "linear" else 8)
    assert [a.shape for a in held if np.shares_memory(a, y.data)] == []
    assert y.recipe(0, 5, np.empty_like(y.data)).tobytes() == y.data.tobytes()


def test_only_a_recorded_layer_norms_output_carries_a_recipe():
    # An unrecorded norm's pullback keeps nothing: a recipe would keep its
    # normalised rows alive for nothing.
    r = np.random.default_rng(6)
    arrays = [r.normal(size=shape) for shape in [(3, 4, 8), (8,), (8,)]]
    assert layer_norm_affine(*map(Tensor, arrays)).recipe is None
    with no_grad():
        assert layer_norm_affine(*(Tensor(a, requires_grad=True) for a in arrays)).recipe is None
    recorded = layer_norm_affine(Tensor(arrays[0]), Tensor(arrays[1], requires_grad=True), Tensor(arrays[2]))
    reset_tape()
    assert recorded.recipe(0, 3, np.empty_like(recorded.data)).tobytes() == recorded.data.tobytes()
    assert recorded.recipe(1, 3, np.empty((2, 4, 8))).tobytes() == recorded.data[1:].tobytes()


FUSED_AND_SHAPE_OPS = {"linear", "mlp", "layer_norm_affine", "multi_head_attention",
                      "concat", "narrow", "reshape", "expand_leading"}


@pytest.mark.parametrize("stage", [1, 3, "pretraining"], ids=["stage-1", "desk-stage-3", "pretraining"])
def test_a_training_steps_encoder_records_only_fused_and_shape_ops(monkeypatch, stage):
    # The patch positions and the adapter branch join the residual stream inside
    # the linear or mlp that ends them, as attention and the MLP do: no add is
    # recorded. The MLP and the adapter branch are one mlp entry each.
    cfg, state, class_ids, mask, images, labels = twelve_prompt_step(stage)
    for name, t in named_params(state).items():
        t.requires_grad = mask[name]
    ops = []
    encoder_forward = model.encoder_forward

    def recording_encoder_forward(*args, **kwargs):
        before = len(active_tape())
        out = encoder_forward(*args, **kwargs)
        ops.extend(pullback.__qualname__.split(".")[0] for _, _, pullback in active_tape()._entries[before:])
        return out

    monkeypatch.setattr(model, "encoder_forward", recording_encoder_forward)
    forward_logits(state, images[:5], class_ids)
    reset_tape()
    assert "linear" in ops and set(ops) <= FUSED_AND_SHAPE_OPS, ops


@pytest.mark.parametrize("op", ["linear", "mlp"])
def test_a_frozen_linear_chain_hands_back_what_no_pullback_reads(monkeypatch, op):
    # With frozen weights the pullback of a linear, or of an mlp, reads
    # neither its input nor its output (an mlp keeps only its ReLU mask),
    # so each intermediate goes back once the caller drops it.
    monkeypatch.setattr(tensor, "_POISON", True)
    r = np.random.default_rng(5)
    x0, target = r.normal(size=(3, 6, 8)), r.normal(size=(3, 6, 8))
    weights, biases = [0.4 * r.normal(size=(8, 8)) for _ in range(4)], [r.normal(size=8) for _ in range(4)]
    up, up_b = 0.4 * r.normal(size=(8, 8)), r.normal(size=8)
    grads = []
    for fused in (True, False):
        x = Tensor(x0, requires_grad=True)
        bs = [Tensor(b, requires_grad=True) for b in biases]
        with step_workspace() if fused else contextlib.nullcontext() as ws:
            hs = [x]
            for w, b in zip(weights, bs):
                if op == "linear":
                    hs.append((linear if fused else reference_linear)(hs[-1], Tensor(w), b))
                else:
                    hs.append((mlp if fused else reference_mlp)(hs[-1], Tensor(w), b, Tensor(up), Tensor(up_b)))
            loss = (hs[-1] * Tensor(target)).sum()
            if ws is not None:
                lent = len(ws.lent)
                del hs
                assert len(ws.lent) == lent - 4
            backward(loss)
            reset_tape()
        grads.append([t.grad.tobytes() for t in [x, *bs]])
    assert grads[0] == grads[1]


@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "workspace"])
def test_a_tensor_recorded_before_reset_tape_takes_a_gradient_after_it_as_a_leaf_does(pooled):
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with step_workspace() if pooled else contextlib.nullcontext():
        y = x * 2.0  # recorded on the tape that reset_tape() clears
        reset_tape()
        backward((y * y).sum())
        reset_tape()
    assert np.array_equal(y.grad, 2.0 * y.data)
    assert x.grad is None


@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "workspace"])
def test_after_backward_the_tape_is_empty_and_a_tensor_recorded_before_it_takes_a_gradient_as_a_leaf_does(pooled):
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with step_workspace() if pooled else contextlib.nullcontext():
        y = x * 2.0  # recorded on the tape that the first backward consumes
        backward((y * 3.0).sum())
        assert len(active_tape()) == 0
        backward((y * y).sum())
        reset_tape()
    assert np.array_equal(y.grad, 2.0 * y.data)
    assert np.array_equal(x.grad, np.full((2, 3), 6.0))


def dying_tensors_step():
    """The gradients of x and of 64 new leaves, from a loss whose recorded tensors die as it
    is built, and whether a leaf took the address of a recorded tensor dropped before it."""
    x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(4, 3), requires_grad=True)
    target = Tensor(np.full((4, 3), 0.5))
    loss, leaves, dropped, reused = None, [], set(), False
    for i in range(64):
        y = x * float(i + 1)
        term = (y * y).sum()
        dropped.add(id(y))
        del y
        w = Tensor(np.full((4, 3), float(i)), requires_grad=True)
        reused |= id(w) in dropped
        leaves.append(w)
        term = term + (w * target).sum()
        loss = term if loss is None else loss + term
    backward(loss)
    reset_tape()
    return [t.grad.tobytes() for t in [x, *leaves]], reused


@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "workspace"])
def test_adjoints_stay_right_when_new_leaves_reuse_dropped_tensors_addresses(monkeypatch, pooled):
    with step_workspace() if pooled else contextlib.nullcontext():
        got, reused = dying_tensors_step()
    with step_workspace() if pooled else contextlib.nullcontext(), computed_tensors(monkeypatch):
        want, _ = dying_tensors_step()  # every recorded tensor alive: no address is reused
    assert reused
    assert got == want


FAULT_PROBE = """
import json, resource, sys
from promptcl import ModelConfig, RunConfig, SyntheticSpec, build_model, build_task_stream, generate_dataset, training
from promptcl.adapters import compute_trainable_mask
from promptcl.prompts import add_class_prompts

faults = []
reset_tape = training.reset_tape

def counted_reset():
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    reset_tape()

training.reset_tape = counted_reset
cfg = RunConfig(model=ModelConfig(), batch_size=64, base_classes=4, inc_classes=4, epochs=4)
ds = generate_dataset(SyntheticSpec(), 1)
state = build_model(cfg.model)
task = build_task_stream(ds, 4, 4).tasks[0]
add_class_prompts(state.pool, state.bank, task.class_ids, stage=1)
mask = compute_trainable_mask(1, state.pool, state.bank, state.adapters, state.backbone)
training.train_stage(state, task, ds, cfg, mask)
json.dump({"n": int(task.train_indices.size), "faults": faults}, sys.stdout)
"""


def run_probe(source):
    """Run ``source`` in a fresh process without allocator tuning, one BLAS thread and no huge pages."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES", "LD_PRELOAD"))}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0")
    proc = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout)


def test_steady_training_steps_stay_under_the_page_fault_budget():
    # The loop without the workspace faulted 3,900-4,700 pages in per
    # steady step of this stage; the budget is a quarter of the low end.
    probe = run_probe(FAULT_PROBE)
    steps = np.diff(probe["faults"])  # faults between the starts of consecutive steps
    steady = steps[len(steps) // 4:]
    assert probe["n"] > 64 and len(steady) >= 15
    assert statistics.median(steady) < 3900 / 4, steps.tolist()


STAGES_PROBE = """
import json, resource, sys
from promptcl import ModelConfig, RunConfig, SyntheticSpec, generate_dataset, run_benchmark, training

stages, evals = [], []
reset_tape, train_stage, evaluate_session = training.reset_tape, training.train_stage, training.evaluate_session

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def counted_reset():
    stages[-1].append(faults())
    reset_tape()

def marked_stage(*args, **kwargs):
    stages.append([])
    return train_stage(*args, **kwargs)

def counted_evaluation(*args, **kwargs):
    before = faults()
    out = evaluate_session(*args, **kwargs)
    evals.append(faults() - before)
    return out

training.reset_tape, training.train_stage = counted_reset, marked_stage
training.evaluate_session = counted_evaluation
cfg = RunConfig(model=ModelConfig(), batch_size=64, base_classes=4, inc_classes=4, epochs=4)
run_benchmark(cfg, generate_dataset(SyntheticSpec(), 1))
json.dump({"stages": stages, "evals": evals}, sys.stdout)
"""


def test_steady_steps_of_every_desk_stage_fault_no_pages_in():
    # Before every array of a step came from the workspace, the steady
    # steps of the three stages faulted 416, 416 and 0 pages in (which
    # stage churns depends on glibc's dynamic thresholds, which the
    # evaluations between the stages move), and each evaluation about 5,000.
    probe = run_probe(STAGES_PROBE)
    assert len(probe["stages"]) == 3 and len(probe["evals"]) == 3
    for stage in probe["stages"]:
        steps = np.diff(stage)  # a step's faults, the first step's arena included
        steady = steps[len(steps) // 4:]
        assert len(steady) >= 15
        assert statistics.median(steady) <= 8, steps.tolist()
