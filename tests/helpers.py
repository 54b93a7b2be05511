"""Independent oracles shared by the test suite.

Everything here is written as a stand-alone reference: naive loops and
textbook formulas, no imports from the package's own metric or autodiff
internals beyond the public Tensor entry points they are meant to
cross-check, and the tape's ``_record``, through which ``exp``, ``maximum``
and the unfused ``softmax`` and ``layer_norm`` below put their pullbacks on it.
It also holds ``failing_open``, which makes a write fail half way,
``twelve_prompt_step``, the training steps whose workspace the tests
bound, ``step_times``, a steady-step timer for them, and ``peak_sites``, a
spy on the step workspace that tells where a step's high-water mark is
reached.
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from promptcl import (ModelConfig, RunConfig, Tensor, add_class_prompts, backward, build_model,
                      compute_trainable_mask, concat, freeze_previous, model, named_params, narrow,
                      reset_tape, tensor, training, vit)


def finite_difference_gradient(f, theta, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``theta``.

    ``f`` receives a plain ndarray of the same shape as ``theta`` and must
    return a float. Cost is two evaluations per coordinate; meant as an
    independent check on the analytic reverse pass, not for training.
    """
    base = theta.data if isinstance(theta, Tensor) else np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        probe = base.copy().reshape(-1)
        probe[i] = saved + eps
        hi = f(probe.reshape(base.shape))
        probe[i] = saved - eps
        lo = f(probe.reshape(base.shape))
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def scaled_max_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute difference relative to the gradient's own scale.

    The scale floor keeps coordinates with near-zero true gradients from
    amplifying finite-difference rounding noise.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(numeric).max(initial=0.0), np.abs(analytic).max(initial=0.0), 1e-4)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def gradcheck(make_scalar, param: Tensor, eps: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare reverse-mode and central-difference gradients of one array.

    ``make_scalar`` rebuilds the scalar output from scratch; it is called
    once per probe with ``param.data`` already set to the probe point.
    Returns the scaled error (asserting is the caller's job).
    """
    saved = param.data.copy()

    def f(values: np.ndarray) -> float:
        param.data = values
        reset_tape()
        out = make_scalar()
        val = float(out.data)
        reset_tape()
        return val

    numeric = finite_difference_gradient(f, saved, eps)
    param.data = saved
    reset_tape()
    out = make_scalar()
    param.grad = None
    backward(out)
    analytic = param.grad if param.grad is not None else np.zeros_like(saved)
    reset_tape()
    param.grad = None
    return scaled_max_error(analytic, numeric)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return tensor._record((a,), out, lambda g: (g * out,))


def maximum(a: Tensor, floor: float) -> Tensor:
    ad, floor = a.data, float(floor)
    return tensor._record((a,), np.maximum(ad, floor), lambda g: (g * (ad > floor),))


# -- unfused references for the fused tensor ops ---------------------------
#
# Each builds the chain of primitive ops that the fused op replaced; the
# fused op must match it byte for byte, outputs and gradients alike.
# ``softmax`` and ``layer_norm`` are the chain's two unfused last-axis ops,
# written as the literal NumPy expressions the fused ops compute in place.


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, shift-stabilised."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return tensor._record((a,), out, lambda g: ((g - (g * out).sum(axis=-1, keepdims=True)) * out,))


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean, unit variance (population)."""
    xc = a.data - a.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    out = xc * inv

    def pullback(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * out).mean(axis=-1, keepdims=True)
        return ((g - gm - out * gy) * inv,)

    return tensor._record((a,), out, pullback)


def reference_linear(x: Tensor, w: Tensor, b: Tensor, residual=None) -> Tensor:
    out = x @ w + b
    return out if residual is None else out + residual


def reference_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, residual=None) -> Tensor:
    return reference_linear(maximum(reference_linear(x, w1, b1), 0.0), w2, b2, residual)


def reference_layer_norm_affine(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    return layer_norm(x) * gamma + beta


def reference_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """``q`` (..., Tq, d) attends over ``k`` and ``v`` (..., T, d); Tq may be below T."""
    dh = q.shape[-1] // heads
    scale = 1.0 / np.sqrt(dh)
    outs = []
    for h in range(heads):
        qs = narrow(q, -1, h * dh, (h + 1) * dh)
        ks = narrow(k, -1, h * dh, (h + 1) * dh)
        vs = narrow(v, -1, h * dh, (h + 1) * dh)
        attn = softmax((qs @ ks.transpose_last()) * scale)
        outs.append(attn @ vs)
    return outs[0] if heads == 1 else concat(outs, axis=-1)


def reference_readout(x: Tensor, rows, weights, biases) -> Tensor:
    cols = []
    for i, w, b in zip(rows, weights, biases):
        row = narrow(x, -2, i, i + 1)
        cols.append((row * w).sum(axis=-1) + b)
    return cols[0] if len(cols) == 1 else concat(cols, axis=-1)


# -- brute-force metric references --------------------------------------


def ap_reference(scores, labels) -> float:
    """All-points average precision by explicit rank walking.

    Sort by descending score, break ties by ascending original index,
    then average precision-at-rank over the positives.
    """
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / sum(labels)


def forgetting_reference(matrix) -> float:
    """Definitional forgetting: best historical score minus final score,
    averaged over every task but the last."""
    n = len(matrix)
    if n == 1:
        return 0.0
    total = 0.0
    for task in range(n - 1):
        column = [matrix[t][task] for t in range(task, n)]
        total += max(column) - matrix[n - 1][task]
    return total / (n - 1)


def bce_reference(logits, targets) -> float:
    """Plain mean binary cross entropy over every cell."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    total = 0.0
    for z, y in zip(logits.ravel(), targets.ravel()):
        p = 1.0 / (1.0 + math.exp(-z))
        total += -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    return total / logits.size


def f1_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


# -- failing writes ---------------------------------------------------------


class HalfWritten:
    """A file whose first write stops half way through, with a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def failing_open(target):
    """``open`` that gives a ``HalfWritten`` file for a temporary file beside ``target``
    (``seeds.replacing`` names it ``<target>.<pid>.tmp``); patch it in as a module's ``open``."""
    def opener(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return HalfWritten(fh) if os.fspath(path).startswith(os.fspath(target) + ".") else fh
    return opener


# -- training steps: their inputs and their times -----------------------------


def twelve_prompt_step(stage, n_prompts=12, batch=64):
    """The default model with 12 prompts at batch 64: a stage-1 step training all of them, the
    desk's stage-3 step (4 prompts and heads per stage, the older ones and the adapters frozen),
    or a pretraining step, which trains every weight of the adapter-free model. The stage-1 and
    pretraining steps take another prompt count through ``n_prompts``; every step takes another
    batch size through ``batch``."""
    cfg = RunConfig(model=ModelConfig(), batch_size=batch)
    state = build_model(cfg.model, use_adapters=stage != "pretraining")
    if stage == 3:
        for s in (1, 2, 3):
            class_ids = list(range(4 * s - 4, 4 * s))
            add_class_prompts(state.pool, state.bank, class_ids, stage=s)
            freeze_previous(state.pool, state.bank, s)
    else:
        class_ids = list(range(n_prompts))
        add_class_prompts(state.pool, state.bank, class_ids, stage=1)
    if stage == "pretraining":
        mask = dict.fromkeys(named_params(state), True)
    else:
        mask = compute_trainable_mask(stage, state.pool, state.bank, state.adapters, state.backbone)
    r = np.random.default_rng(0)
    images = r.normal(size=(batch, cfg.model.image_side, cfg.model.image_side))
    labels = (r.random((batch, len(class_ids))) < 0.3).astype(np.float64)
    return cfg, state, class_ids, mask, images, labels


def step_times(stage, batch: int, blocks: int, warmup: int = 3) -> list[float]:
    """The mean time, in seconds, of one step in each of ``blocks`` blocks of 5 steps of
    ``twelve_prompt_step(stage, batch=batch)``, after ``warmup`` steps.

    The steps are ``training._fit``'s own, all in one step workspace (an
    epoch is one step on the same batch), timed from one step's
    ``reset_tape`` to the next: forward, loss, backward and Adam.
    """
    cfg, state, class_ids, mask, images, labels = twelve_prompt_step(stage, batch=batch)
    starts = []  # each step's start, then the loop's end
    reset = training.reset_tape

    def timed_reset():
        starts.append(time.perf_counter())
        reset()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "reset_tape", timed_reset)
        training._fit(state, images, labels, class_ids, mask, warmup + 5 * blocks, cfg, (0, "step-times"))
    steps = np.diff(starts)[warmup:]
    return [float(steps[5 * i:5 * i + 5].mean()) for i in range(blocks)]


# -- where a step workspace peaks ------------------------------------------


@dataclass
class PeakSite:
    """The ``take`` that raised a step workspace's ``need``, and what was lent then.

    A site names an op as ``"mlp"``, ``"mlp pullback"``, ``"backward"`` (the
    adjoint sums) and so on, with the encoder block (from 1) it ran in, or
    None outside a block.
    """

    need: int  # the high-water mark it reached, in float64 elements
    op: str
    block: int | None
    shape: tuple[int, ...]  # of the buffer it took
    lent: dict[tuple[str, int | None], int]  # elements lent per (op, block), that buffer included


def _op(frame) -> str:
    """The op whose code runs in ``frame`` or outward of it (reading only code objects:
    a frame's ``f_locals`` would keep its arrays alive and move the buffers)."""
    while frame.f_code.co_filename != tensor.__file__ or frame.f_code.co_name.startswith("_"):
        frame = frame.f_back
    qualname = frame.f_code.co_qualname
    return qualname.split(".")[0] + (" pullback" if qualname.endswith("pullback") else "")


@contextlib.contextmanager
def peak_sites(monkeypatch):
    """Spy on every step workspace while the block runs; yield the list of its ``PeakSite``\\ s.

    A site is appended whenever a ``take`` raises the ``need`` of the step it
    runs in, so the last site of a step is where that step peaks. The block
    of a take is the ``sab_forward`` that runs it, or in a backward pass the
    block that recorded the tape entry whose pullback runs it.
    """
    sites, owners = [], {}
    number, block_of_key, current = {}, {}, [None]  # block number by id of its params; the running block
    take, record, pull = tensor._Workspace.take, tensor.GradTape.record, tensor._pull
    encoder_forward, sab_forward = model.encoder_forward, vit.sab_forward

    def spying_take(ws, shape, dtype=np.float64):
        need = ws.need
        buf = take(ws, shape, dtype)
        owner = owners[next(reversed(ws.lent))] = (_op(sys._getframe(1)), current[0])
        if ws.need > need:
            lent = collections.Counter()
            for key, (_, _, size) in ws.lent.items():
                lent[owners.get(key, ("?", None))] += size
            sites.append(PeakSite(ws.need, *owner, tuple(shape), dict(lent)))
        return buf

    def spying_record(tape, out, inputs, pullback):
        record(tape, out, inputs, pullback)
        block_of_key[out.key] = current[0]

    def in_block(block, run, *args, **kwargs):
        outer, current[0] = current[0], block
        try:
            return run(*args, **kwargs)
        finally:
            current[0] = outer

    def spying_encoder_forward(images, prompt_pool, params, *args, **kwargs):
        number.update({id(b): k for k, b in enumerate(params.blocks, start=1)})
        return encoder_forward(images, prompt_pool, params, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(tensor._Workspace, "take", spying_take)
        mp.setattr(tensor.GradTape, "record", spying_record)
        mp.setattr(tensor, "_pull", lambda key, *args: in_block(block_of_key.get(key), pull, key, *args))
        mp.setattr(model, "encoder_forward", spying_encoder_forward)
        mp.setattr(vit, "sab_forward", lambda x, block, *args, **kwargs:
                   in_block(number.get(id(block)), sab_forward, x, block, *args, **kwargs))
        yield sites
