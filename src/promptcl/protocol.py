"""Class-incremental task streams and the run configuration.

Classes are ordered lexicographically by name and dealt into disjoint
tasks: the first task takes ``base_classes`` of them (or ``inc_classes``
when the base is zero) and every later task takes ``inc_classes`` more.
A training image belongs to a task when it shows at least one of that
task's classes; images may therefore recur across tasks. Evaluation
after stage t covers the whole test split, restricted to the classes
learned so far.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import AslConfig
from .seeds import check_fields
from .vit import ModelConfig

METHODS = ("p2l_ca", "p2l_ca_plus", "fine_tuning")


@dataclass
class Task:
    index: int                # 1-based stage number
    class_ids: list[int]
    train_indices: np.ndarray


@dataclass
class TaskStream:
    tasks: list[Task]

    def __len__(self) -> int:
        return len(self.tasks)

    def cumulative_ids(self, upto_stage: int) -> list[int]:
        ids: list[int] = []
        for task in self.tasks[:upto_stage]:
            ids.extend(task.class_ids)
        return ids


def split_class_ids(n_classes: int, base: int, inc: int) -> list[list[int]]:
    """Deal class indices 0..n-1 into per-task groups."""
    if inc < 1:
        raise ValueError(f"split_class_ids: inc_classes must be >= 1, got {inc}")
    if not 0 <= base <= n_classes:
        raise ValueError(f"split_class_ids: base_classes {base} outside [0, {n_classes}]")
    first = base if base > 0 else inc
    if first > n_classes or (n_classes - first) % inc != 0:
        raise ValueError(
            f"split_class_ids: {n_classes} classes cannot be split as base {base} plus "
            f"increments of {inc}"
        )
    groups = [list(range(first))]
    for start in range(first, n_classes, inc):
        groups.append(list(range(start, start + inc)))
    return groups


def build_task_stream(dataset, base: int, inc: int) -> TaskStream:
    """Order classes by name, group them, and index the training images."""
    order = np.argsort(np.array(dataset.class_names))
    groups = split_class_ids(dataset.n_classes, base, inc)
    tasks = []
    for i, group in enumerate(groups, start=1):
        ids = sorted(int(order[g]) for g in group)
        present = dataset.train_labels[:, ids].sum(axis=1) > 0
        tasks.append(Task(index=i, class_ids=ids, train_indices=np.flatnonzero(present)))
    return TaskStream(tasks=tasks)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    asl: AslConfig = field(default_factory=AslConfig)
    base_classes: int = field(default=4, metadata={"help": "classes in the first task (0 means inc_classes)"})
    inc_classes: int = field(default=4, metadata={"help": "classes added by each later task"})
    method: str = field(default="p2l_ca", metadata={"help": " | ".join(METHODS)})
    lr: float = field(
        default=4e-4, metadata={"help": "initial Adam learning rate (cosine-decayed per stage)"}
    )
    epochs: int = field(default=20, metadata={"help": "epochs per incremental stage"})
    batch_size: int = field(
        default=64, metadata={"help": "minibatch size (capped by the task's sample count)"}
    )
    pretrain_epochs: int = field(default=15, metadata={"help": "epochs for the one-off backbone pretraining"})
    threshold: float = field(default=0.5, metadata={"help": "probability threshold for CF1/OF1"})
    seed: int = field(default=0, metadata={"help": "master seed for init, batching and data order"})
    use_adapters: bool = field(default=True, metadata={"help": "attach bottleneck adapters"})
    ca_unfrozen: bool = field(
        default=False, metadata={"help": "ablation: keep adapters trainable in every stage"}
    )
    prompts_unfrozen: bool = field(default=False, metadata={"help": "ablation: keep old prompts trainable"})
    ortho_weight: float = field(
        default=0.0, metadata={"help": "weight of the prompt orthogonality penalty (0 disables)"}
    )
    semantic_path: str = field(
        default="",
        metadata={"help": "embedding table for p2l_ca_plus prompt init", "key": "semantic_embeddings"},
    )

    def __post_init__(self):
        check_fields(self, ("epochs", "batch_size", "pretrain_epochs"))
        if self.method not in METHODS:
            raise ValueError(f"RunConfig: unknown method {self.method!r}, choose from {METHODS}")
        if self.lr <= 0:
            raise ValueError(f"RunConfig: lr must be > 0, got {self.lr}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"RunConfig: threshold must lie in (0, 1), got {self.threshold}")
        if self.ortho_weight < 0:
            raise ValueError(f"RunConfig: ortho_weight must be >= 0, got {self.ortho_weight}")

    def to_dict(self) -> dict:
        return asdict(self)
