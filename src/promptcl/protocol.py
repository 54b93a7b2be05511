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

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import AslConfig
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
    n_classes: int

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
    return TaskStream(tasks=tasks, n_classes=dataset.n_classes)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    asl: AslConfig = field(default_factory=AslConfig)
    base_classes: int = 4
    inc_classes: int = 4
    method: str = "p2l_ca"
    lr: float = 4e-4
    epochs: int = 20
    batch_size: int = 64
    pretrain_epochs: int = 15
    threshold: float = 0.5
    seed: int = 0
    use_adapters: bool = True
    ca_unfrozen: bool = False
    prompts_unfrozen: bool = False
    ortho_weight: float = 0.0
    semantic_path: str = ""

    def __post_init__(self):
        for name in ("lr", "threshold", "ortho_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"RunConfig: {name} must be finite, got {getattr(self, name)}")
        if self.method not in METHODS:
            raise ValueError(f"RunConfig: unknown method {self.method!r}, choose from {METHODS}")
        if self.lr <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError(
                f"RunConfig: bad optimizer settings lr={self.lr} epochs={self.epochs} "
                f"batch_size={self.batch_size}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"RunConfig: threshold must lie in (0, 1), got {self.threshold}")
        if self.ortho_weight < 0:
            raise ValueError(f"RunConfig: ortho_weight must be >= 0, got {self.ortho_weight}")

    def to_dict(self) -> dict:
        out = {
            "model": self.model.to_dict(),
            "asl": self.asl.to_dict(),
            "base_classes": self.base_classes,
            "inc_classes": self.inc_classes,
            "method": self.method,
            "lr": self.lr,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "pretrain_epochs": self.pretrain_epochs,
            "threshold": self.threshold,
            "seed": self.seed,
            "use_adapters": self.use_adapters,
            "ca_unfrozen": self.ca_unfrozen,
            "prompts_unfrozen": self.prompts_unfrozen,
            "ortho_weight": self.ortho_weight,
            "semantic_path": self.semantic_path,
        }
        return out
