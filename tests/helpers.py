"""Independent oracles shared by the test suite.

Everything here is written as a stand-alone reference: naive loops and
textbook formulas, no imports from the package's own metric or autodiff
internals beyond the public Tensor entry points they are meant to
cross-check, and the tape's ``_record``, through which ``exp``, ``maximum``
and the unfused ``softmax`` and ``layer_norm`` below put their pullbacks on it.
"""

from __future__ import annotations

import math

import numpy as np

from promptcl import Tensor, backward, concat, narrow, reset_tape, tensor


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
