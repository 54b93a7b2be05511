"""Dense float64 tensors with a tape-based reverse-mode gradient engine.

The rules are deliberately small enough to audit by hand: one global
Wengert tape, gradient accumulation into leaf ``.grad`` buffers, and
broadcasting that is only allowed when one operand's shape is a trailing
suffix of the other's (leading axes act as batch dimensions). Anything
fancier is rejected with an error naming the op and both shapes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray
Pullback = Callable[[Array], tuple]


class GradTape:
    """Ordered record of executed primitives, replayed newest-first."""

    def __init__(self) -> None:
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Pullback]] = []
        self._produced: set[int] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: "Tensor", inputs: tuple["Tensor", ...], pullback: Pullback) -> None:
        self._entries.append((out, inputs, pullback))
        self._produced.add(id(out))

    def produced(self, t: "Tensor") -> bool:
        return id(t) in self._produced

    def clear(self) -> None:
        self._entries.clear()
        self._produced.clear()


_TAPE = GradTape()
_RECORDING = [True]


def active_tape() -> GradTape:
    return _TAPE


def reset_tape() -> None:
    _TAPE.clear()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation mode)."""
    _RECORDING.append(False)
    try:
        yield
    finally:
        _RECORDING.pop()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return subtract(self, _coerce(other))

    def __rsub__(self, other):
        return subtract(_coerce(other), self)

    def __mul__(self, other):
        return multiply(self, _coerce(other))

    def __rmul__(self, other):
        return multiply(_coerce(other), self)

    def __neg__(self):
        return negate(self)

    def __matmul__(self, other):
        return matmul(self, _coerce(other))

    def __pow__(self, exponent):
        return power(self, exponent)

    # -- unary / shape ops as methods ---------------------------------

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sigmoid(self):
        return sigmoid(self)

    def relu(self):
        return maximum(self, 0.0)

    def maximum(self, floor: float):
        return maximum(self, floor)

    def clamp(self, lo: float, hi: float):
        return clamp(self, lo, hi)

    def softmax(self):
        return softmax(self)

    def layer_norm(self, eps: float = 1e-5):
        return layer_norm(self, eps)

    def sum(self, axis: int | None = None):
        return reduce_sum(self, axis)

    def mean(self, axis: int | None = None):
        return reduce_mean(self, axis)

    def transpose_last(self):
        return transpose_last(self)

    def reshape(self, shape: tuple[int, ...]):
        return reshape(self, shape)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _record(inputs: tuple[Tensor, ...], out_data: Array, pullback: Pullback) -> Tensor:
    if _RECORDING[-1] and any(t.requires_grad for t in inputs):
        out = Tensor(out_data, requires_grad=True)
        _TAPE.record(out, inputs, pullback)
        return out
    return Tensor(out_data)


def _check_suffix_shapes(op: str, a: Tensor, b: Tensor) -> None:
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if len(small) == len(big) or big[len(big) - len(small):] != small:
        raise ValueError(
            f"{op}: shapes {sa} and {sb} do not match "
            "(operands must be equal-shaped or one a trailing suffix of the other)"
        )


def _unbroadcast(g: Array | None, shape: tuple[int, ...]) -> Array | None:
    """Sum a gradient over the leading batch axes it was broadcast across."""
    if g is None or g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra)))


# -- elementwise binary ops -------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_shapes("add", a, b)
    out = a.data + b.data

    def pullback(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _record((a, b), out, pullback)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_shapes("subtract", a, b)
    out = a.data - b.data

    def pullback(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
        return ga, gb

    return _record((a, b), out, pullback)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_shapes("multiply", a, b)
    out = a.data * b.data

    def pullback(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _record((a, b), out, pullback)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    pa, pb = a.shape[:-2], b.shape[:-2]
    if pa != pb and pa != () and pb != ():
        raise ValueError(f"matmul: batch prefixes disagree for shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def pullback(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _record((a, b), out, pullback)


# -- elementwise unary ops --------------------------------------------


def negate(a: Tensor) -> Tensor:
    return _record((a,), -a.data, lambda g: (-g if a.requires_grad else None,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record((a,), out, lambda g: (g * out if a.requires_grad else None,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError(f"log: input contains non-positive values (min {a.data.min()!r})")
    out = np.log(a.data)
    return _record((a,), out, lambda g: (g / a.data if a.requires_grad else None,))


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    out = a.data ** exponent

    def pullback(g):
        if not a.requires_grad:
            return (None,)
        if exponent == 0.0:
            return (np.zeros_like(a.data),)
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _record((a,), out, pullback)


def maximum(a: Tensor, floor: float) -> Tensor:
    floor = float(floor)
    out = np.maximum(a.data, floor)

    def pullback(g):
        return (g * (a.data > floor) if a.requires_grad else None,)

    return _record((a,), out, pullback)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ValueError(f"clamp: need lo < hi, got {lo} and {hi}")
    out = np.clip(a.data, lo, hi)

    def pullback(g):
        if not a.requires_grad:
            return (None,)
        return (g * ((a.data > lo) & (a.data < hi)),)

    return _record((a,), out, pullback)


def stable_sigmoid(x: Array) -> Array:
    """Logistic function of a plain array, overflow-free for large ``|x|``."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = stable_sigmoid(a.data)

    def pullback(g):
        return (g * out * (1.0 - out) if a.requires_grad else None,)

    return _record((a,), out, pullback)


def _softmax(x: Array) -> Array:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_pullback(g: Array, out: Array) -> Array:
    inner = (g * out).sum(axis=-1, keepdims=True)
    return (g - inner) * out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, shift-stabilised."""
    out = _softmax(a.data)
    return _record((a,), out, lambda g: (_softmax_pullback(g, out) if a.requires_grad else None,))


def _normalize(x: Array, eps: float) -> tuple[Array, Array]:
    """Last-axis standardisation and the reciprocal deviation it divided by."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def _normalize_pullback(g: Array, out: Array, inv: Array) -> Array:
    gm = g.mean(axis=-1, keepdims=True)
    gy = (g * out).mean(axis=-1, keepdims=True)
    return (g - gm - out * gy) * inv


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean, unit variance (population)."""
    out, inv = _normalize(a.data, eps)
    return _record((a,), out, lambda g: (_normalize_pullback(g, out, inv) if a.requires_grad else None,))


# -- reductions and shape ops -----------------------------------------


def _normalize_axis(op: str, axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ValueError(f"{op}: axis {axis} out of range for {ndim}-D tensor")
    return axis % ndim


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        out = a.data.sum()

        def pullback(g):
            return (np.broadcast_to(g, a.shape) if a.requires_grad else None,)

    else:
        ax = _normalize_axis("sum", axis, a.ndim)
        out = a.data.sum(axis=ax)

        def pullback(g):
            if not a.requires_grad:
                return (None,)
            return (np.broadcast_to(np.expand_dims(g, ax), a.shape),)

    return _record((a,), out, pullback)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    if a.size == 0:
        raise ValueError("mean: cannot reduce an empty tensor")
    if axis is None:
        n = a.size
        out = a.data.mean()

        def pullback(g):
            return (np.broadcast_to(g / n, a.shape) if a.requires_grad else None,)

    else:
        ax = _normalize_axis("mean", axis, a.ndim)
        n = a.shape[ax]
        out = a.data.mean(axis=ax)

        def pullback(g):
            if not a.requires_grad:
                return (None,)
            return (np.broadcast_to(np.expand_dims(g / n, ax), a.shape),)

    return _record((a,), out, pullback)


def transpose_last(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ValueError(f"transpose_last: tensor must be at least 2-D, got shape {a.shape}")
    out = np.swapaxes(a.data, -1, -2).copy()

    def pullback(g):
        return (np.swapaxes(g, -1, -2) if a.requires_grad else None,)

    return _record((a,), out, pullback)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape).copy()

    def pullback(g):
        return (g.reshape(a.shape) if a.requires_grad else None,)

    return _record((a,), out, pullback)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    ndim = tensors[0].ndim
    ax = _normalize_axis("concat", axis, ndim)
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or other[:ax] + other[ax + 1:] != base[:ax] + base[ax + 1:]:
            raise ValueError(
                f"concat: shape {t.shape} incompatible with {tensors[0].shape} along axis {axis}"
            )
    out = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def pullback(g):
        grads = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * ndim
                index[ax] = slice(int(start), int(stop))
                grads.append(g[tuple(index)])
            else:
                grads.append(None)
        return tuple(grads)

    return _record(tuple(tensors), out, pullback)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Slice ``[start:stop]`` along one axis (a copy, not a view)."""
    ax = _normalize_axis("narrow", axis, a.ndim)
    dim = a.shape[ax]
    if not 0 <= start <= stop <= dim:
        raise ValueError(f"narrow: range [{start}:{stop}] invalid for axis {axis} of shape {a.shape}")
    index = [slice(None)] * a.ndim
    index[ax] = slice(start, stop)
    index = tuple(index)
    out = a.data[index].copy()

    def pullback(g):
        if not a.requires_grad:
            return (None,)
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _record((a,), out, pullback)


def expand_leading(a: Tensor, n: int) -> Tensor:
    """Replicate a tensor across a new leading batch axis of length ``n``."""
    if n < 1:
        raise ValueError(f"expand_leading: batch size must be positive, got {n}")
    out = np.broadcast_to(a.data, (n,) + a.shape).copy()

    def pullback(g):
        return (g.sum(axis=0) if a.requires_grad else None,)

    return _record((a,), out, pullback)


# -- fused ops ---------------------------------------------------------
#
# Each op below is one tape entry standing in for a chain of the
# primitives above, and reproduces that chain's results bit for bit:
# forward and pullback run the same NumPy expressions on operands of the
# same memory layout, and an input read through several slices gets its
# adjoint exactly as the chain's sum of zero-padded slice gradients gave it.


def _write_slice(buf: Array, index: tuple, part: Array, alone: bool) -> None:
    """Add one slice's gradient into an input's zero-filled adjoint buffer.

    Slices written with ``+=`` in reverse tape order sum exactly as the
    zero-padded slice gradients of a chain of slicing ops did. A lone
    slice (``alone``) is copied in instead: the chain never summed it, so
    a -0.0 in it stays -0.0.
    """
    if alone:
        buf[index] = part
    else:
        buf[index] += part


def linear(x: Tensor, w: Tensor, b: Tensor, residual: Tensor | None = None,
           relu: bool = False) -> Tensor:
    """``x @ w + b``, plus ``residual`` when given, then ReLU when asked."""
    if x.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:] or x.shape[-1] != w.shape[0]:
        raise ValueError(
            f"linear: shapes x {x.shape}, w {w.shape}, b {b.shape} do not chain "
            "(need x (..., n, k), w (k, m), b (m,))"
        )
    out = x.data @ w.data
    out += b.data
    inputs = (x, w, b)
    if residual is not None:
        if residual.shape != out.shape:
            raise ValueError(f"linear: residual {residual.shape} does not match output {out.shape}")
        out += residual.data
        inputs += (residual,)
    if relu:
        np.maximum(out, 0.0, out=out)

    def pullback(g):
        if relu:
            g = g * (out > 0.0)
        gx = g @ np.swapaxes(w.data, -1, -2) if x.requires_grad else None
        gw = _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape) if w.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        if residual is None:
            return gx, gw, gb
        return gx, gw, gb, (g if residual.requires_grad else None)

    return _record(inputs, out, pullback)


def layer_norm_affine(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """``layer_norm(a) * gamma + beta`` with per-feature scale and shift."""
    if gamma.shape != a.shape[-1:] or beta.shape != a.shape[-1:]:
        raise ValueError(
            f"layer_norm_affine: gamma {gamma.shape} and beta {beta.shape} must both be "
            f"the last axis of {a.shape}"
        )
    norm, inv = _normalize(a.data, eps)
    out = norm * gamma.data
    out += beta.data

    def pullback(g):
        ga = _normalize_pullback(g * gamma.data, norm, inv) if a.requires_grad else None
        gg = _unbroadcast(g * norm, gamma.shape) if gamma.requires_grad else None
        gb = _unbroadcast(g, beta.shape) if beta.requires_grad else None
        return ga, gg, gb

    return _record((a, gamma, beta), out, pullback)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention over ``heads`` equal slices of the last axis.

    ``q``, ``k`` and ``v`` are (..., T, d); head ``h`` reads features
    ``[h*d/heads, (h+1)*d/heads)`` and writes the same slice of the output.
    The heads run one after another on contiguous copies of their slices.
    """
    if q.ndim < 2 or k.shape != q.shape or v.shape != q.shape:
        raise ValueError(
            f"multi_head_attention: q {q.shape}, k {k.shape}, v {v.shape} must share one (..., T, d) shape"
        )
    d = q.shape[-1]
    if heads < 1 or d % heads != 0:
        raise ValueError(f"multi_head_attention: width {d} not divisible into {heads} heads")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    slices = [(Ellipsis, slice(h * dh, (h + 1) * dh)) for h in range(heads)]

    def operands(sl):
        # contiguous per-head copies; rebuilt in the pullback, not kept
        return q.data[sl].copy(), np.swapaxes(k.data[sl], -1, -2).copy(), v.data[sl].copy()

    out = np.empty(q.shape)
    attns = []
    for sl in slices:
        qs, kt, vs = operands(sl)
        s = qs @ kt
        s *= scale
        attns.append(_softmax(s))
        out[sl] = attns[-1] @ vs

    def pullback(g):
        gq, gk, gv = (np.zeros(t.shape) if t.requires_grad else None for t in (q, k, v))
        alone = heads == 1
        for sl, attn in zip(reversed(slices), reversed(attns)):
            qs, kt, vs = operands(sl)
            go = g[sl]
            if gv is not None:
                _write_slice(gv, sl, np.swapaxes(attn, -1, -2) @ go, alone)
            if gq is not None or gk is not None:
                gs = _softmax_pullback(go @ np.swapaxes(vs, -1, -2), attn) * scale
                if gq is not None:
                    _write_slice(gq, sl, gs @ np.swapaxes(kt, -1, -2), alone)
                if gk is not None:
                    _write_slice(gk, sl, np.swapaxes(np.swapaxes(qs, -1, -2) @ gs, -1, -2), alone)
        return gq, gk, gv

    return _record((q, k, v), out, pullback)


def row_readout(x: Tensor, rows: Sequence[int], weights: Sequence[Tensor],
                biases: Sequence[Tensor]) -> Tensor:
    """Column ``j`` is ``x[..., rows[j], :] . weights[j] + biases[j]``.

    ``x`` is (..., n, d), each weight (d,) and each bias a scalar; the
    result is (..., len(rows)).
    """
    m = len(rows)
    if m == 0 or len(weights) != m or len(biases) != m:
        raise ValueError(
            f"row_readout: need one weight and one bias per row, got {m} rows, "
            f"{len(weights)} weights, {len(biases)} biases"
        )
    if x.ndim < 2:
        raise ValueError(f"row_readout: input must be at least 2-D, got shape {x.shape}")
    n, d = x.shape[-2:]
    for i, w, b in zip(rows, weights, biases):
        if not 0 <= i < n or w.shape != (d,) or b.shape != ():
            raise ValueError(
                f"row_readout: row {i} of {n}, weight {w.shape}, bias {b.shape} do not fit input {x.shape}"
            )
    picked = x.data[..., list(rows), :]
    out = (picked * np.stack([w.data for w in weights])).sum(axis=-1)
    out += np.array([b.data for b in biases])
    order = range(m - 1, -1, -1)

    def pullback(g):
        gx = np.zeros(x.shape) if x.requires_grad else None
        grads = []
        for j in order:
            col = g[..., j:j + 1]
            w, b = weights[j], biases[j]
            grads.append(_unbroadcast(col, ()) if b.requires_grad else None)
            grads.append(
                _unbroadcast(col[..., None] * picked[..., j:j + 1, :], w.shape) if w.requires_grad else None
            )
            if gx is not None:
                row = (Ellipsis, slice(rows[j], rows[j] + 1), slice(None))
                _write_slice(gx, row, col[..., None] * w.data, m == 1)
        return (gx, *grads)

    inputs = (x,) + tuple(t for j in order for t in (biases[j], weights[j]))
    return _record(inputs, out, pullback)


# -- reverse pass ------------------------------------------------------


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into ``.grad`` of every reachable leaf.

    The root must hold a single element. Repeating the call without
    clearing grads accumulates again (the tape is replayed, not consumed).
    """
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    adjoint: dict[int, Array] = {id(root): np.ones_like(root.data)}
    for out, inputs, pullback in reversed(_TAPE._entries):
        g = adjoint.pop(id(out), None)
        if g is None:
            continue
        for t, gt in zip(inputs, pullback(g)):
            if gt is None:
                continue
            if _TAPE.produced(t):
                acc = adjoint.get(id(t))
                adjoint[id(t)] = gt if acc is None else acc + gt
            elif t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad = t.grad + gt


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# -- numerical oracle --------------------------------------------------


def finite_difference_gradient(f, theta, eps: float = 1e-5) -> Array:
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
