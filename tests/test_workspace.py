"""The step workspace: reused buffers change no bit, and a buffer used after its step shows.

``training._fit`` runs its steps in ``tensor.step_workspace()``. The
workspace must give the same losses and parameters, to the byte, as the
loop without it; with ``tensor._POISON`` set, every buffer it takes back
is filled with NaN, so a tensor read after its buffer was recycled shows
up as NaN instead of as plausible numbers.
"""

import contextlib
import inspect
import json
import os
import statistics
import subprocess
import sys

import numpy as np
import pytest

import test_tensor
import test_training
from promptcl import ModelConfig, RunConfig, tensor, training
from promptcl.adapters import compute_trainable_mask
from promptcl.losses import mask_to_task
from promptcl.model import build_model, forward_logits, named_params, predict_probs
from promptcl.prompts import add_class_prompts, freeze_previous
from promptcl.protocol import build_task_stream
from promptcl.tensor import (
    Tensor,
    active_tape,
    backward,
    linear,
    no_grad,
    reset_tape,
    stable_sigmoid,
    step_workspace,
)
from test_training import micro_config, micro_dataset


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
                training.train_stage(state, task, ds, cfg)
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


def test_a_tensor_held_past_its_step_is_detected(monkeypatch):
    monkeypatch.setattr(tensor, "_POISON", True)
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    w, b = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
    with step_workspace():
        held = linear(x, w, b)
        assert np.array_equal(held.data, np.full((4, 2), 3.0))
        reset_tape()
        assert np.isnan(held.data).all()  # the step's buffers went back to the workspace
        again = linear(x, w, b)
        assert np.shares_memory(held.data, again.data)  # ... and the next step reuses them
    unpooled = linear(x, w, b)  # outside a workspace nothing is recycled
    reset_tape()
    assert np.array_equal(unpooled.data, np.full((4, 2), 3.0))


def test_backward_replays_a_step_only_once_inside_the_workspace():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with step_workspace():
        loss = linear(x, Tensor(np.ones((3, 1))), Tensor(np.zeros(1))).sum()
        backward(loss)
        with pytest.raises(ValueError, match="already replayed"):
            backward(loss)
        reset_tape()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_handed_back_neighbours_merge_and_lower_the_top():
    ws = tensor._Workspace()
    a, b, c = (ws.take((10,)) for _ in range(3))  # 16 elements each, 64-byte aligned
    ws.give(a)
    ws.give(b)  # one 32-element hole below c
    d = ws.take((30,))
    assert np.may_share_memory(d, a) and np.may_share_memory(d, b)
    assert ws.top == 48
    ws.give(c)  # the top comes down to the end of d
    assert ws.top == 32
    ws.give(d)
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


def test_a_twelve_prompt_step_takes_no_more_workspace_than_before(monkeypatch):
    # 2,424,704 float64 elements (18.5 MiB): this step's high-water mark
    # measured at commit f51be57, whose attention ran its heads one after
    # another on contiguous per-head copies.
    needs = []

    def recording_backward(root):
        backward(root)
        needs.append(tensor._WORKSPACE.need)

    monkeypatch.setattr(training, "backward", recording_backward)
    cfg = RunConfig(model=ModelConfig(), batch_size=64)
    state = build_model(cfg.model)
    class_ids = list(range(12))
    add_class_prompts(state.pool, state.bank, class_ids, stage=1)
    mask = compute_trainable_mask(1, state.pool, state.bank, state.adapters, state.backbone)
    r = np.random.default_rng(0)
    images = r.normal(size=(64, cfg.model.image_side, cfg.model.image_side))
    labels = (r.random((64, len(class_ids))) < 0.3).astype(np.float64)
    training._fit(state, images, labels, class_ids, mask, 1, cfg, (0, "workspace-need"))
    assert len(needs) == 1
    assert needs[0] <= 2_424_704


FAULT_PROBE = """
import json, resource, sys
from promptcl import ModelConfig, RunConfig, SyntheticSpec, build_model, build_task_stream, generate_dataset, training
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
training.train_stage(state, task, ds, cfg)
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
