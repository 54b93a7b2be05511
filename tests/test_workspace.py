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
import os
import statistics
import subprocess
import sys
import types

import numpy as np
import pytest

import test_tensor
import test_training
from helpers import reference_linear
from promptcl import ModelConfig, RunConfig, tensor, training
from promptcl.adapters import compute_trainable_mask
from promptcl.losses import asl_loss, mask_to_task
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


def relu_linears(lin, case, x, w0, w1, b0, b1, c):
    """A loss whose ReLU linears get an adjoint they must not mask in place."""
    if case == "shared-by-add":  # one writeable g serves both summands
        return ((lin(x, w0, b0, relu=True) + lin(x, w1, b1, relu=True)) * c).sum()
    return lin(x, w0, b0, relu=True).sum()  # g is a read-only broadcast


@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "poisoned-workspace"])
@pytest.mark.parametrize("case", ["shared-by-add", "read-only-sum"])
def test_a_relu_linear_leaves_a_shared_or_read_only_adjoint_alone(monkeypatch, case, pooled):
    monkeypatch.setattr(tensor, "_POISON", True)
    r = np.random.default_rng(3)
    arrays = [r.normal(size=shape) for shape in [(2, 5, 4), (4, 3), (4, 3), (3,), (3,)]]
    c = Tensor(r.normal(size=(5, 3)))
    grads = []
    for lin in (linear, reference_linear):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with step_workspace() if pooled and lin is linear else contextlib.nullcontext():
            backward(relu_linears(lin, case, *leaves, c))
            reset_tape()
        grads.append([t.grad.tobytes() for t in leaves if t.grad is not None])
    assert len(grads[0]) == (5 if case == "shared-by-add" else 3)
    assert grads[0] == grads[1]


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


def twelve_prompt_step(stage):
    """The default model with 12 prompts at batch 64: a stage-1 step training all of them, or
    the desk's stage-3 step (4 prompts and heads per stage, the older ones and the adapters frozen)."""
    cfg = RunConfig(model=ModelConfig(), batch_size=64)
    state = build_model(cfg.model)
    if stage == 1:
        class_ids = list(range(12))
        add_class_prompts(state.pool, state.bank, class_ids, stage=1)
    else:
        for s in (1, 2, 3):
            class_ids = list(range(4 * s - 4, 4 * s))
            add_class_prompts(state.pool, state.bank, class_ids, stage=s)
            freeze_previous(state.pool, state.bank, s)
    mask = compute_trainable_mask(stage, state.pool, state.bank, state.adapters, state.backbone)
    r = np.random.default_rng(0)
    images = r.normal(size=(64, cfg.model.image_side, cfg.model.image_side))
    labels = (r.random((64, len(class_ids))) < 0.3).astype(np.float64)
    return cfg, state, class_ids, mask, images, labels


# Each step's high-water mark in float64 elements. Keeping every linear's
# input for its pullback, or a ReLU's float output instead of its one-byte
# mask, exceeds it; a tape that held every op's output and its pullbacks'
# input tensors took 2,333,056 on both steps.
TWELVE_PROMPT_NEED = {1: 1_470_464, 3: 1_413_120}


@pytest.mark.parametrize("stage", [1, 3], ids=["stage-1", "desk-stage-3"])
def test_a_twelve_prompt_step_takes_no_more_workspace_than_before(monkeypatch, stage):
    needs = []

    def recording_backward(root):
        backward(root)
        needs.append(tensor._WORKSPACE.need)

    monkeypatch.setattr(training, "backward", recording_backward)
    cfg, state, class_ids, mask, images, labels = twelve_prompt_step(stage)
    training._fit(state, images, labels, class_ids, mask, 1, cfg, (0, "workspace-need"))
    assert len(needs) == 1
    assert needs[0] <= TWELVE_PROMPT_NEED[stage]


def held_tensors():
    """Every tensor the tape holds: in its entries and in its pullbacks' closures, nested ones included."""
    held, seen = [], set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Tensor):
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


@pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
def test_a_frozen_linear_chain_hands_back_what_no_pullback_reads(monkeypatch, relu):
    # With frozen weights a linear's pullback reads neither its input nor
    # its output, so each intermediate goes back once the caller drops it.
    monkeypatch.setattr(tensor, "_POISON", True)
    r = np.random.default_rng(5)
    x0, target = r.normal(size=(3, 6, 8)), r.normal(size=(3, 6, 8))
    weights, biases = [0.4 * r.normal(size=(8, 8)) for _ in range(4)], [r.normal(size=8) for _ in range(4)]
    grads = []
    for lin in (linear, reference_linear):
        x = Tensor(x0, requires_grad=True)
        bs = [Tensor(b, requires_grad=True) for b in biases]
        with step_workspace() if lin is linear else contextlib.nullcontext() as ws:
            hs = [x]
            for w, b in zip(weights, bs):
                hs.append(lin(hs[-1], Tensor(w), b, relu=relu))
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
