"""Multi-label evaluation: average precision, F1 summaries, forgetting.

Average precision is the all-points form: walk the ranking from the
highest score down and average the precision observed at each positive.
Ties rank by ascending sample index, which a stable sort on negated
scores gives for free.
"""

from __future__ import annotations

import numpy as np


def average_precision(scores, labels) -> float:
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise ValueError(f"average_precision: {s.size} scores vs {y.size} labels")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("average_precision: labels must be 0/1")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("average_precision: no positive labels")
    order = np.argsort(-s, kind="stable")
    ranked = y[order]
    hits = np.cumsum(ranked)
    ranks = np.arange(1, ranked.size + 1)
    return float((hits[ranked == 1] / ranks[ranked == 1]).sum() / n_pos)


def per_class_ap(scores, labels) -> dict[int, float]:
    """AP per class column; columns without positives are left out."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 2 or s.shape != y.shape:
        raise ValueError(f"per_class_ap: need matching 2-D arrays, got {s.shape} and {y.shape}")
    out: dict[int, float] = {}
    for c in range(s.shape[1]):
        if y[:, c].sum() > 0:
            out[c] = average_precision(s[:, c], y[:, c])
    return out


def cf1_of1(scores, labels, threshold: float = 0.5) -> tuple[float, float]:
    """Macro (per-class) and micro (pooled) F1 after thresholding.

    Scores at or above the threshold count as predicted positive. A class
    with no predictions and no positives contributes F1 = 0.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 2 or s.shape != y.shape:
        raise ValueError(f"cf1_of1: need matching 2-D arrays, got {s.shape} and {y.shape}")
    pred = s >= threshold
    truth = y == 1
    tp = (pred & truth).sum(axis=0).astype(np.float64)
    fp = (pred & ~truth).sum(axis=0).astype(np.float64)
    fn = (~pred & truth).sum(axis=0).astype(np.float64)
    denom = 2 * tp + fp + fn
    f1 = np.divide(2 * tp, denom, out=np.zeros_like(denom), where=denom > 0)
    cf1 = float(f1.mean())
    pooled = 2 * tp.sum() + fp.sum() + fn.sum()
    of1 = float(2 * tp.sum() / pooled) if pooled > 0 else 0.0
    return cf1, of1


def forgetting(matrix) -> float:
    """Average drop from each old task's best score to its final score.

    ``matrix[t][t']`` (0-indexed, lower-triangular) is the score on task
    t' measured after stage t. The best score includes the final stage,
    so the measure is non-negative and zero when nothing degraded.
    Single-stage runs have nothing to forget and score 0.
    """
    rows = [list(map(float, row)) for row in matrix]
    n = len(rows)
    if n == 0:
        raise ValueError("forgetting: empty matrix")
    for t, row in enumerate(rows):
        if len(row) != t + 1:
            raise ValueError(f"forgetting: row {t} has {len(row)} entries, expected {t + 1}")
    if n == 1:
        return 0.0
    drops = []
    for task in range(n - 1):
        best = max(rows[t][task] for t in range(task, n))
        drops.append(best - rows[n - 1][task])
    return float(np.mean(drops))
