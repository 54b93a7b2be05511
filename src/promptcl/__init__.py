"""Rehearsal-free multi-label class-incremental learning, desk scale.

A tiny from-scratch Vision Transformer learns a growing set of classes:
each class gets its own prompt token and linear readout, bottleneck
adapters bridge the domain gap in the first stage, and everything learned
earlier is frozen afterwards. Ships with its own reverse-mode autodiff
core, an asymmetric multi-label loss, incremental-learning metrics, a
synthetic dataset generator and a benchmark CLI.

Typical API use::

    from promptcl import (ModelConfig, RunConfig, SyntheticSpec,
                          generate_dataset, run_benchmark)

    data = generate_dataset(SyntheticSpec(), seed=1)
    cfg = RunConfig(model=ModelConfig(), base_classes=4, inc_classes=4)
    report = run_benchmark(cfg, data)
    print(report.payload["last_map"])
"""

from .adapters import AdapterLayer, AdapterStack, attach_adapters, compute_trainable_mask
from .checkpoint import load_checkpoint, params_digest, save_checkpoint
from .datagen import (
    Dataset,
    ShiftParams,
    SyntheticSpec,
    apply_domain_shift,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .losses import AslConfig, asl_loss, mask_to_task
from .metrics import average_precision, cf1_of1, forgetting, per_class_ap
from .model import ModelState, build_model, forward_logits, named_params, predict_probs
from .prompts import (
    ClassifierBank,
    PromptPool,
    add_class_prompts,
    classify,
    freeze_previous,
    load_semantic_embeddings,
    orthogonality_penalty,
)
from .protocol import RunConfig, Task, TaskStream, build_task_stream, split_class_ids
from .reporting import Report, load_report, render_report, write_report
from .tensor import (
    GradTape,
    Tensor,
    backward,
    concat,
    expand_leading,
    layer_norm_affine,
    linear,
    multi_head_attention,
    narrow,
    no_grad,
    reset_tape,
    row_readout,
    zero_grads,
)
from .training import (
    Adam,
    cosine_lr,
    evaluate_session,
    run_benchmark,
    simulate_pretraining,
    train_stage,
)
from .vit import (
    BlockParams,
    EncoderParams,
    ModelConfig,
    encoder_forward,
    patchify,
    sab_forward,
)

__version__ = "0.1.0"
