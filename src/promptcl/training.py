"""Stage training loop, evaluation, pretraining, and the benchmark driver.

One optimizer instance lives for exactly one stage, built over only the
parameters the stage's trainable mask allows; moments for everything
else are simply never created. Batch order, init draws and the data all
come from seeded generators, so a whole benchmark run is a deterministic
function of its RunConfig and datasets.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

import numpy as np

from .adapters import compute_trainable_mask, trainable_param_count
from .checkpoint import file_digest, load_checkpoint, params_digest, save_checkpoint
from .datagen import Dataset
from .losses import asl_loss, mask_to_task
from .metrics import AccuracyMatrix, SessionMetrics, cf1_of1, per_class_ap
from .model import ModelState, build_model, forward_logits, named_params, predict_probs
from .prompts import (
    ClassifierBank,
    PromptPool,
    add_class_prompts,
    freeze_previous,
    load_semantic_embeddings,
    orthogonality_penalty,
)
from .protocol import RunConfig, Task, TaskStream, build_task_stream
from .reporting import REPORT_FORMAT, Report
from .seeds import seeded_rng
from .tensor import backward, reset_tape, step_workspace, zero_grads


class Adam:
    """Adam over an explicit name -> tensor map; nothing else gets state."""

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            # In place, with the ufuncs and operand order of
            # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
            # p = p - lr * (m / c1) / (sqrt(v / c2) + eps).
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            delta = np.multiply(lr, m / c1)
            den = np.sqrt(v / c2)
            den += self.eps
            delta /= den
            p.data -= delta


def cosine_lr(base: float, step: int, total_steps: int) -> float:
    """Cosine decay from ``base`` at step 0 towards zero at the last step."""
    if total_steps <= 1:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


def _fit(state: ModelState, images, labels, class_ids, mask, epochs: int, cfg: RunConfig,
         seed_parts, what: str = "training") -> dict:
    """Shared minibatch loop for stages and pretraining.

    ``what`` names the loop ("stage 2", "pretraining") in errors. The
    steps run in a ``step_workspace``. Whether it returns or raises, the
    workspace is dropped, the tape is left empty and every parameter
    trainable again.
    """
    n = images.shape[0]
    if n == 0:
        raise ValueError("training: no samples for this task")
    named = named_params(state)
    try:
        for name, t in named.items():
            t.requires_grad = mask[name]
        trainables = {name: t for name, t in named.items() if mask[name]}
        if not trainables:
            raise ValueError("training: the trainable mask selects no parameters")
        opt = Adam(trainables)
        batch = min(cfg.batch_size, n)
        steps_per_epoch = math.ceil(n / batch)
        total_steps = epochs * steps_per_epoch
        order_rng = seeded_rng(*seed_parts)
        step = 0
        last_loss = float("nan")
        with step_workspace():
            for _ in range(epochs):
                perm = order_rng.permutation(n)
                for start in range(0, n, batch):
                    pick = perm[start:start + batch]
                    reset_tape()
                    zero_grads(trainables.values())
                    logits = forward_logits(state, images[pick], class_ids=class_ids)
                    loss = asl_loss(logits, labels[pick], cfg.asl)
                    if cfg.ortho_weight > 0.0:
                        loss = loss + cfg.ortho_weight * orthogonality_penalty(state.pool)
                    last_loss = loss.item()
                    if not math.isfinite(last_loss):
                        raise ValueError(f"{what}: loss is {last_loss} at step {step}")
                    backward(loss)
                    opt.step(cosine_lr(cfg.lr, step, total_steps))
                    step += 1
    finally:
        reset_tape()
        for t in named.values():
            t.requires_grad = True
    return {"steps": step, "last_loss": last_loss, "trainable_params": trainable_param_count(mask, named)}


def train_stage(state: ModelState, task: Task, dataset: Dataset, cfg: RunConfig, mask=None) -> dict:
    """Train one incremental stage on the task's image subset."""
    if task.train_indices.size == 0:
        raise ValueError(f"train_stage: task {task.index} has zero training samples")
    if mask is None:
        mask = compute_trainable_mask(
            task.index, state.pool, state.bank, state.adapters, state.backbone,
            ca_unfrozen=cfg.ca_unfrozen,
        )
    images = dataset.train_images[task.train_indices]
    labels = mask_to_task(dataset.train_labels[task.train_indices], task.class_ids)
    return _fit(
        state, images, labels, task.class_ids, mask, cfg.epochs, cfg,
        (cfg.seed, "stage-batches", task.index), f"stage {task.index}",
    )


def simulate_pretraining(state: ModelState, pretrain: Dataset, cfg: RunConfig) -> dict:
    """Train the whole backbone once on a stand-in dataset, then freeze it.

    Temporary prompts and heads for the pretraining classes provide the
    readout; they are discarded afterwards, leaving an empty pool and an
    encoder that never trains again (the fine-tuning baseline excepted).
    """
    if state.pool.entries:
        raise ValueError("simulate_pretraining: must run before any incremental stage")
    donor = ModelState(
        config=state.config,
        backbone=state.backbone,
        adapters=None,
        pool=PromptPool(state.config.embed_dim, seed=state.config.seed),
        bank=ClassifierBank(state.config.embed_dim, seed=state.config.seed),
    )
    class_ids = list(range(pretrain.n_classes))
    add_class_prompts(donor.pool, donor.bank, class_ids, stage=1)
    state.backbone.frozen = True  # the all-true mask below trains it regardless
    return _fit(
        donor, pretrain.train_images, pretrain.train_labels.astype(np.float64), class_ids,
        dict.fromkeys(named_params(donor), True), cfg.pretrain_epochs, cfg,
        (cfg.seed, "pretrain-batches"), "pretraining",
    )


def evaluate_session(state: ModelState, dataset: Dataset, stream: TaskStream, upto_stage: int,
                     threshold: float = 0.5, batch_size: int = 64):
    """Score the full test split over all classes learned so far.

    Returns the session metrics plus the per-task mean-AP row that feeds
    the accuracy matrix.
    """
    learned = stream.cumulative_ids(upto_stage)
    if state.bank.class_ids != learned:
        raise ValueError(
            f"evaluate_session: model knows {state.bank.class_ids} but stage {upto_stage} "
            f"expects {learned}"
        )
    probs = predict_probs(state, dataset.test_images, class_ids=learned, batch_size=batch_size)
    labels = mask_to_task(dataset.test_labels, learned)
    ap_by_col = per_class_ap(probs, labels)
    if not ap_by_col:
        raise ValueError("evaluate_session: no class has a positive test label")
    ap_by_id = {learned[col]: ap for col, ap in ap_by_col.items()}
    cf1, of1 = cf1_of1(probs, labels, threshold)
    metrics = SessionMetrics(
        session=upto_stage,
        class_ids=list(learned),
        per_class_ap_by_id=ap_by_id,
        map=float(np.mean(list(ap_by_col.values()))),
        cf1=cf1,
        of1=of1,
    )
    row = []
    for task in stream.tasks[:upto_stage]:
        aps = [ap_by_id[c] for c in task.class_ids if c in ap_by_id]
        if not aps:
            raise ValueError(f"evaluate_session: task {task.index} has no scoreable class")
        row.append(float(np.mean(aps)))
    return metrics, row


def run_benchmark(cfg: RunConfig, dataset: Dataset, pretrain: Dataset | None = None,
                  out_dir=None, backbone_from: ModelState | None = None) -> Report:
    """Drive the full incremental protocol and assemble the report.

    ``pretrain`` triggers the one-off backbone pretraining inline;
    ``backbone_from`` instead adopts the (already trained, frozen)
    backbone of a loaded checkpoint. After every stage the model is saved
    to and reloaded from a checkpoint container, so the container format
    is load-bearing, not decorative.
    """
    t_start = time.perf_counter()
    semantic = None
    if cfg.method == "p2l_ca_plus":
        if not cfg.semantic_path:
            raise ValueError("run_benchmark: p2l_ca_plus needs a semantic embedding table")
        semantic = load_semantic_embeddings(cfg.semantic_path)
        missing = [c for c in range(dataset.n_classes) if c not in semantic.vectors]
        if missing:
            raise ValueError(f"run_benchmark: embedding table lacks classes {missing}")
    stream = build_task_stream(dataset, cfg.base_classes, cfg.inc_classes)

    fine_tuning = cfg.method == "fine_tuning"
    state = build_model(cfg.model, use_adapters=cfg.use_adapters and not fine_tuning)

    pretrain_seconds = 0.0
    if backbone_from is not None:
        if pretrain is not None:
            raise ValueError("run_benchmark: give either a pretraining dataset or a donor backbone")
        if backbone_from.config != cfg.model:
            raise ValueError("run_benchmark: donor backbone was built for a different model config")
        # Copy the donor's weights into this run's own backbone: the run
        # trains it (fine_tuning), and the donor belongs to the caller.
        donor = backbone_from.backbone.named()
        for name, t in state.backbone.named().items():
            t.data = donor[name].data.copy()
    elif pretrain is not None:
        t0 = time.perf_counter()
        simulate_pretraining(state, pretrain, cfg)
        pretrain_seconds = time.perf_counter() - t0
    if fine_tuning:
        state.backbone.frozen = False

    tmp = None
    if out_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="promptcl-run-")
        out_dir = tmp.name
    os.makedirs(out_dir, exist_ok=True)

    matrix = AccuracyMatrix()
    sessions = []
    freeze_audit = []
    stage_seconds = []
    try:
        for task in stream.tasks:
            stage = task.index
            add_class_prompts(state.pool, state.bank, task.class_ids, stage, semantic=semantic)
            if not fine_tuning:
                freeze_previous(state.pool, state.bank, stage, freeze_prompts=not cfg.prompts_unfrozen)
            mask = compute_trainable_mask(stage, state.pool, state.bank, state.adapters,
                                          state.backbone, ca_unfrozen=cfg.ca_unfrozen)
            named = named_params(state)
            frozen_names = sorted(name for name, on in mask.items() if not on)
            digest_before = params_digest(named, frozen_names)

            t0 = time.perf_counter()
            stats = train_stage(state, task, dataset, cfg, mask=mask)
            stage_seconds.append(time.perf_counter() - t0)

            digest_after = params_digest(named_params(state), frozen_names)
            freeze_audit.append({
                "session": stage,
                "frozen_arrays": len(frozen_names),
                "digest_before": digest_before,
                "digest_after": digest_after,
            })

            ckpt_path = os.path.join(out_dir, f"stage_{stage:02d}.npz")
            save_checkpoint(ckpt_path, state)
            state = load_checkpoint(ckpt_path)

            metrics, row = evaluate_session(state, dataset, stream, stage,
                                            cfg.threshold, cfg.batch_size)
            matrix.add_row(row)
            record = metrics.to_dict()
            record.update({
                "new_class_ids": list(task.class_ids),
                "n_train_samples": int(task.train_indices.size),
                "trainable_params": stats["trainable_params"],
                "steps": stats["steps"],
                "per_task_map": row,
            })
            sessions.append(record)

        final_ckpt = os.path.join(out_dir, f"stage_{len(stream.tasks):02d}.npz")
        payload = {
            "format": REPORT_FORMAT,
            "method": cfg.method,
            "config": cfg.to_dict(),
            "dataset": {
                "spec_hash": dataset.spec_hash,
                "n_classes": dataset.n_classes,
                "n_train": int(dataset.train_images.shape[0]),
                "n_test": int(dataset.test_images.shape[0]),
            },
            "pretrained": pretrain is not None or backbone_from is not None,
            "sessions": sessions,
            "accuracy_matrix": matrix.rows,
            "last_map": sessions[-1]["map"],
            "avg_map": float(np.mean([s["map"] for s in sessions])),
            "final_cf1": sessions[-1]["cf1"],
            "final_of1": sessions[-1]["of1"],
            "forgetting": matrix.forgetting(),
            "freeze_audit": freeze_audit,
            "rules": {
                "positive_free_classes": "skipped",
                "forgetting_scores": "per_task_map",
                "threshold": cfg.threshold,
            },
            "hashes": {
                "config": Report.config_hash(cfg.to_dict()),
                "final_checkpoint": file_digest(final_ckpt),
            },
        }
        timing = {
            "pretrain_seconds": pretrain_seconds,
            "stage_seconds": stage_seconds,
            "total_seconds": time.perf_counter() - t_start,
        }
        return Report(payload=payload, timing=timing)
    finally:
        if tmp is not None:
            tmp.cleanup()
