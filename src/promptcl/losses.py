"""Asymmetric multi-label loss and the current-task label mask.

The loss focuses positives and negatives differently: with focusing
powers (gamma_pos, gamma_neg) and probabilities p = sigmoid(logit)
clamped into [eps, 1 - eps],

    L = -mean_j [ y_j (1 - p_j)^gamma_pos log p_j
                  + (1 - y_j) p_j^gamma_neg log(1 - p_j) ]

averaged over every (sample, class) cell it is given. Callers restrict
the columns to the classes of the task being trained before calling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeds import check_fields
from .tensor import Tensor


@dataclass
class AslConfig:
    gamma_pos: float = field(default=0.0, metadata={"help": "positive focusing power of the asymmetric loss"})
    gamma_neg: float = field(default=4.0, metadata={"help": "negative focusing power of the asymmetric loss"})
    clamp_eps: float = field(default=1e-7, metadata={"help": "probability clamp for the loss"})

    def __post_init__(self):
        check_fields(self)
        if self.gamma_pos < 0 or self.gamma_neg < 0:
            raise ValueError(
                f"AslConfig: focusing powers must be non-negative, got ({self.gamma_pos}, {self.gamma_neg})"
            )
        if not 0.0 < self.clamp_eps < 0.5:
            raise ValueError(f"AslConfig: clamp_eps must lie in (0, 0.5), got {self.clamp_eps}")


def asl_loss(logits: Tensor, targets, config: AslConfig) -> Tensor:
    """Scalar asymmetric loss over a (batch, classes) block of logits."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError(f"asl_loss: targets shape {t.shape} does not match logits {logits.shape}")
    if t.size == 0:
        raise ValueError("asl_loss: empty logit block")
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValueError("asl_loss: targets must be 0/1")
    y = Tensor(t)
    p = logits.sigmoid().clamp(config.clamp_eps, 1.0 - config.clamp_eps)
    pos = y * (1.0 - p) ** config.gamma_pos * p.log()
    neg = (1.0 - y) * p ** config.gamma_neg * (1.0 - p).log()
    return -((pos + neg).mean())


def mask_to_task(labels, task_class_ids) -> np.ndarray:
    """Select the label columns of the given classes, in the given order.

    Label columns are indexed by class id, which matches the dataset's
    lexicographic class ordering.
    """
    arr = np.asarray(labels)
    ids = list(task_class_ids)
    if not ids:
        raise ValueError("mask_to_task: empty class list")
    if arr.ndim != 2:
        raise ValueError(f"mask_to_task: labels must be 2-D (samples, classes), got shape {arr.shape}")
    bad = [c for c in ids if not 0 <= c < arr.shape[1]]
    if bad:
        raise ValueError(f"mask_to_task: class ids {bad} outside label width {arr.shape[1]}")
    return arr[:, ids].copy()
