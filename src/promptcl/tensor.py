"""Dense float64 tensors with a tape-based reverse-mode gradient engine.

The rules are deliberately small enough to audit by hand: one global
Wengert tape, gradient accumulation into leaf ``.grad`` buffers, and
broadcasting that is only allowed when one operand's shape is a trailing
suffix of the other's (leading axes act as batch dimensions). Anything
fancier is rejected with an error naming the op and both shapes.

Each recorded op gets a key that is never given again, and its tape
entry holds that key, each input's producer key (or, for an input no op
on this tape produced, the tensor itself) and its pullback. A pullback
holds only the arrays and flags it reads, never a tensor, and a ReLU
keeps a one-byte mask instead of its output. So a recorded tensor lives
only as long as its caller holds it, and its array only as long as a
pullback will read it.

A training loop may run its steps inside ``step_workspace()``: every
array an op computes for one step, and every buffer its backward pass
works in, then comes from memory the workspace keeps. An array goes back
to the workspace, for later ops and steps to reuse, the moment nothing
references it; the backward pass consumes the tape, so that each op's
arrays go back as soon as its pullback has run.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray
Pullback = Callable[[Array], tuple]


class GradTape:
    """Ordered record of executed primitives, replayed newest-first.

    An entry is ``(key, routes, pullback)``: the key given to the op's
    output and, per input, the key of the entry that produced it, the
    input itself when no entry on this tape did (a leaf, or a tensor
    recorded before the last ``clear``), or None when it takes no gradient.
    Keys are not ids: an output the caller dropped may die before the
    backward pass, and a new tensor may then get its address.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[int, tuple[int | Tensor | None, ...], Pullback]] = []
        self._next = self._first = 1  # the next key to give; keys from _first on are on the tape

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: "Tensor", inputs: tuple["Tensor", ...], pullback: Pullback) -> None:
        routes = tuple(None if not t.requires_grad else t.key if t.key >= self._first else t
                       for t in inputs)
        out.key = self._next
        self._next += 1
        self._entries.append((out.key, routes, pullback))

    def clear(self) -> None:
        self._entries.clear()
        self._first = self._next


_TAPE = GradTape()
_RECORDING = [True]


class _Workspace:
    """Float64 buffers that one training loop's steps, or one evaluation's chunks, reuse.

    Buffers are cut, 64-byte aligned, from one arena that is reserved once
    and whose pages are touched only as steps use them, so every step
    finds last step's memory still mapped. A request takes the smallest
    hole that holds it, else memory at the top. A buffer goes back the
    moment nothing references it (no view, tensor, tape entry or closure):
    it becomes a hole, merged with the holes beside it, and a hole that
    reaches the top lowers the top instead. A step that outgrows the arena
    gets plain arrays for the rest, and the next step a large enough arena.
    """

    RESERVE = 8 << 20  # elements (64 MB of address space, resident only where used)

    def __init__(self) -> None:
        self.arena = np.empty(self.RESERVE)
        self.top = 0    # arena elements below the highest buffer lent
        self.need = 0   # this step's high-water mark, counting what the arena had no room for
        self.spill = 0  # elements lent as plain arrays because the arena was full
        self.holes: dict[int, int] = {}   # start -> end of each hole below the top
        self.starts: dict[int, int] = {}  # end -> start of the same holes
        self.lent: dict[int, tuple] = {}  # id -> (weakref to a live buffer, its offset or -1, its length)
        self.replayed = False

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> Array:
        n = math.prod(shape)
        size = -(-n * np.dtype(dtype).itemsize // 64) * 8
        fits = [(end - start, start) for start, end in self.holes.items() if end - start >= size]
        if fits:
            start = min(fits)[1]
            end = self.holes.pop(start)
            del self.starts[end]
            if start + size < end:
                self.holes[start + size] = end
                self.starts[end] = start + size
        elif self.top + size <= self.arena.size:
            start = self.top
            self.top += size
        else:
            start = -1
            self.spill += size
        self.need = max(self.need, self.top + self.spill)
        # the base of every view of it, so that it lives exactly as long as they do
        buf = np.empty(n, dtype) if start < 0 else np.frombuffer(self.arena.data, dtype, n, 8 * start)
        ref = weakref.ref(buf, self.give)
        self.lent[id(ref)] = (ref, start, size)
        return buf.reshape(shape)

    def give(self, ref: weakref.ref) -> None:
        """Take back a buffer nothing references any more (a weakref callback: it must not raise)."""
        _, start, size = self.lent.pop(id(ref))
        if start < 0:
            self.spill -= size
            return
        end = start + size
        if _POISON:
            self.arena[start:end] = math.nan
        if start in self.starts:
            start = self.starts.pop(start)
            del self.holes[start]
        if end in self.holes:
            del self.starts[self.holes[end]]
            end = self.holes.pop(end)
        if end == self.top:
            self.top = start
        else:
            self.holes[start] = end
            self.starts[end] = start

    def reset(self) -> None:
        """Begin a step: its high-water mark starts from what is still lent."""
        if self.need > self.arena.size:
            self.arena = np.empty(self.need)
            for key, (ref, start, size) in self.lent.items():  # what the old arena holds counts as spilled
                if start >= 0:
                    self.lent[key] = (ref, -1, size)
                    self.spill += size
            self.top = 0
            self.holes.clear()
            self.starts.clear()
        self.need = self.top + self.spill
        self.replayed = False


_WORKSPACE: _Workspace | None = None
_POISON = False  # tests set it: every buffer handed back is filled with NaN


@contextmanager
def step_workspace():
    """Run a training loop's steps, or an evaluation's chunks, on reused buffers.

    Inside, every op takes its arrays from the workspace (see
    ``_Workspace``), and each array goes back to it once nothing
    references it, for a later op or step to reuse. A tensor held past
    its step keeps its values. On exit the workspace it replaced, if any,
    is active again.
    """
    global _WORKSPACE
    outer, _WORKSPACE = _WORKSPACE, _Workspace()
    try:
        yield _WORKSPACE
    finally:
        _WORKSPACE.lent.clear()  # its callbacks refer back to it: let it go now
        _WORKSPACE = outer


def _empty(shape: tuple[int, ...], dtype=np.float64) -> Array:
    """An uninitialised buffer, from the workspace while one is active."""
    return np.empty(shape, dtype) if _WORKSPACE is None else _WORKSPACE.take(shape, dtype)


def _zeros(shape: tuple[int, ...]) -> Array:
    buf = _empty(shape)
    buf.fill(0.0)
    return buf


def active_tape() -> GradTape:
    return _TAPE


def reset_tape() -> None:
    _TAPE.clear()
    if _WORKSPACE is not None:
        _WORKSPACE.reset()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation mode)."""
    _RECORDING.append(False)
    try:
        yield
    finally:
        _RECORDING.pop()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.key = 0  # set by the tape when an op records this tensor as its output

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


def _recorded(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` goes on the tape."""
    return _RECORDING[-1] and any(t.requires_grad for t in inputs)


def _record(inputs: tuple[Tensor, ...], out_data: Array, pullback: Pullback) -> Tensor:
    """The output tensor; recorded, with its pullback, when any input takes a gradient."""
    if _recorded(inputs):
        out = Tensor(out_data, requires_grad=True)
        _TAPE.record(out, inputs, pullback)
        return out
    return Tensor(out_data)


def _grad_shape(t: Tensor) -> tuple[int, ...] | None:
    """``t``'s shape when it takes a gradient, else None (a scalar's shape is the falsy ``()``)."""
    return t.shape if t.requires_grad else None


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


def _unbroadcast(g: Array, shape: tuple[int, ...] | None) -> Array | None:
    """Sum a gradient over the leading batch axes it was broadcast across (None for no ``shape``)."""
    if shape is None:
        return None
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra)))


# -- elementwise binary ops -------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_shapes("add", a, b)
    out = np.add(a.data, b.data, out=_empty(max(a.shape, b.shape, key=len)))
    sa, sb = _grad_shape(a), _grad_shape(b)
    return _record((a, b), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_shapes("subtract", a, b)
    out = a.data - b.data
    sa, sb = _grad_shape(a), _grad_shape(b)

    def pullback(g):
        return _unbroadcast(g, sa), (None if sb is None else _unbroadcast(-g, sb))

    return _record((a, b), out, pullback)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_shapes("multiply", a, b)
    out = a.data * b.data
    sa, sb = _grad_shape(a), _grad_shape(b)
    ad = a.data if sb is not None else None
    bd = b.data if sa is not None else None

    def pullback(g):
        ga = None if sa is None else _unbroadcast(g * bd, sa)
        gb = None if sb is None else _unbroadcast(g * ad, sb)
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
    sa, sb = _grad_shape(a), _grad_shape(b)
    ad = a.data if sb is not None else None
    bd = b.data if sa is not None else None

    def pullback(g):
        ga = None if sa is None else _unbroadcast(g @ np.swapaxes(bd, -1, -2), sa)
        gb = None if sb is None else _unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb)
        return ga, gb

    return _record((a, b), out, pullback)


# -- elementwise unary ops --------------------------------------------
#
# Recorded only when ``a`` takes a gradient, so their pullbacks need not ask.


def negate(a: Tensor) -> Tensor:
    return _record((a,), -a.data, lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record((a,), out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError(f"log: input contains non-positive values (min {a.data.min()!r})")
    ad = a.data
    return _record((a,), np.log(ad), lambda g: (g / ad,))


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    ad = a.data
    out = ad ** exponent

    def pullback(g):
        if exponent == 0.0:
            return (np.zeros_like(ad),)
        return (g * exponent * ad ** (exponent - 1.0),)

    return _record((a,), out, pullback)


def maximum(a: Tensor, floor: float) -> Tensor:
    floor = float(floor)
    ad = a.data
    return _record((a,), np.maximum(ad, floor), lambda g: (g * (ad > floor),))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ValueError(f"clamp: need lo < hi, got {lo} and {hi}")
    ad = a.data
    return _record((a,), np.clip(ad, lo, hi), lambda g: (g * ((ad > lo) & (ad < hi)),))


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
    return _record((a,), out, lambda g: (g * out * (1.0 - out),))


# The helpers below compute in place, into ``out`` or ``into`` when given
# (which may be the input itself): each in-place ufunc computes what the
# expression it stands for computed, so the bytes are the same.


def _row_max(x: Array) -> Array:
    """``x.max(axis=-1, keepdims=True)``, as a running maximum over the columns.

    On short rows that is several times faster than the reduction, and a
    maximum is exact in any order. Of two tied zeros it may pick the other
    sign, which ``_softmax`` loses in ``exp``.
    """
    if x.shape[-1] < 2:
        return x.max(axis=-1, keepdims=True)
    top = np.maximum(x[..., 0:1], x[..., 1:2])
    for j in range(2, x.shape[-1]):
        np.maximum(top, x[..., j:j + 1], out=top)
    return top


def _softmax(x: Array, out: Array | None = None) -> Array:
    """``exp(x - max) / sum`` over the last axis."""
    e = np.subtract(x, _row_max(x), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_pullback(g: Array, out: Array, into: Array | None = None,
                      scratch: Array | None = None) -> Array:
    """``(g - sum(g * out)) * out`` over the last axis."""
    inner = np.multiply(g, out, out=scratch).sum(axis=-1, keepdims=True)
    res = np.subtract(g, inner, out=into)
    res *= out
    return res


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, shift-stabilised."""
    out = _softmax(a.data)
    return _record((a,), out, lambda g: (_softmax_pullback(g, out),))


def _normalize(x: Array, eps: float, out: Array | None = None,
               scratch: Array | None = None) -> tuple[Array, Array]:
    """Last-axis standardisation ``(x - mu) * inv`` and the reciprocal deviation ``inv``."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = np.subtract(x, mu, out=out)
    var = np.multiply(xc, xc, out=scratch).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xc *= inv
    return xc, inv


def _normalize_pullback(g: Array, out: Array, inv: Array, into: Array | None = None,
                        scratch: Array | None = None) -> Array:
    """``(g - mean(g) - out * mean(g * out)) * inv`` over the last axis."""
    gm = g.mean(axis=-1, keepdims=True)
    gy = np.multiply(g, out, out=scratch).mean(axis=-1, keepdims=True)
    res = np.subtract(g, gm, out=into)
    res -= np.multiply(out, gy, out=scratch)
    res *= inv
    return res


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean, unit variance (population)."""
    out, inv = _normalize(a.data, eps)
    return _record((a,), out, lambda g: (_normalize_pullback(g, out, inv),))


# -- reductions and shape ops -----------------------------------------


def _normalize_axis(op: str, axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ValueError(f"{op}: axis {axis} out of range for {ndim}-D tensor")
    return axis % ndim


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.shape
    if axis is None:
        out = a.data.sum()

        def pullback(g):
            return (np.broadcast_to(g, shape),)

    else:
        ax = _normalize_axis("sum", axis, a.ndim)
        out = a.data.sum(axis=ax)

        def pullback(g):
            return (np.broadcast_to(np.expand_dims(g, ax), shape),)

    return _record((a,), out, pullback)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    if a.size == 0:
        raise ValueError("mean: cannot reduce an empty tensor")
    shape = a.shape
    if axis is None:
        n = a.size
        out = a.data.mean()

        def pullback(g):
            return (np.broadcast_to(g / n, shape),)

    else:
        ax = _normalize_axis("mean", axis, a.ndim)
        n = a.shape[ax]
        out = a.data.mean(axis=ax)

        def pullback(g):
            return (np.broadcast_to(np.expand_dims(g / n, ax), shape),)

    return _record((a,), out, pullback)


def transpose_last(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ValueError(f"transpose_last: tensor must be at least 2-D, got shape {a.shape}")
    out = np.swapaxes(a.data, -1, -2).copy()
    return _record((a,), out, lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape).copy()
    before = a.shape
    return _record((a,), out, lambda g: (g.reshape(before),))


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
    sizes = [t.shape[ax] for t in tensors]
    base[ax] = sum(sizes)
    out = np.concatenate([t.data for t in tensors], axis=ax, out=_empty(tuple(base)))
    offsets = np.cumsum([0] + sizes)
    wanted = [t.requires_grad for t in tensors]

    def pullback(g):
        grads = []
        for want, start, stop in zip(wanted, offsets[:-1], offsets[1:]):
            if want:
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
    out = _empty(a.shape[:ax] + (stop - start,) + a.shape[ax + 1:])
    out[...] = a.data[index]
    shape = a.shape

    def pullback(g):
        full = _zeros(shape)
        full[index] = g
        return (full,)

    return _record((a,), out, pullback)


def expand_leading(a: Tensor, n: int) -> Tensor:
    """Replicate a tensor across a new leading batch axis of length ``n``."""
    if n < 1:
        raise ValueError(f"expand_leading: batch size must be positive, got {n}")
    out = _empty((n,) + a.shape)
    out[...] = a.data
    return _record((a,), out, lambda g: (g.sum(axis=0),))


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


def _input_grad(g: Array, w: Array, shape: tuple[int, ...], pad_rows: int | None) -> Array:
    """``g @ w.T`` into a new buffer of ``shape``, computed on ``pad_rows`` rows when given."""
    wt = np.swapaxes(w, -1, -2)
    rows = shape[-2]
    if pad_rows is None or pad_rows == rows:
        return np.matmul(g, wt, out=_empty(shape))
    lead = shape[:-2]
    padded = _empty(lead + (pad_rows, g.shape[-1]))
    padded[..., :rows, :] = g
    padded[..., rows:, :] = 0.0
    full = np.matmul(padded, wt, out=_empty(lead + (pad_rows, shape[-1])))
    gx = _empty(shape)
    gx[...] = full[..., :rows, :]
    return gx


def linear(x: Tensor, w: Tensor, b: Tensor, residual: Tensor | None = None,
           relu: bool = False, pad_rows: int | None = None) -> Tensor:
    """``x @ w + b``, plus ``residual`` when given, then ReLU when asked.

    With ``pad_rows``, the input gradient ``g @ w.T`` is computed on the
    adjoint zero-padded to that many rows and cut back to ``x``'s rows:
    BLAS picks its kernel by row count, so the rows of ``x`` then get the
    bits they would get as the leading rows of a ``pad_rows``-row input
    whose other rows have zero adjoint.
    """
    if x.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:] or x.shape[-1] != w.shape[0]:
        raise ValueError(
            f"linear: shapes x {x.shape}, w {w.shape}, b {b.shape} do not chain "
            "(need x (..., n, k), w (k, m), b (m,))"
        )
    if pad_rows is not None and pad_rows < x.shape[-2]:
        raise ValueError(f"linear: pad_rows {pad_rows} is fewer than the rows of x {x.shape}")
    inputs = (x, w, b)
    shape = x.shape[:-1] + w.shape[1:]
    if residual is not None:
        if residual.shape != shape:
            raise ValueError(f"linear: residual {residual.shape} does not match output {shape}")
        inputs += (residual,)
    out = np.matmul(x.data, w.data, out=_empty(shape))
    out += b.data
    if residual is not None:
        out += residual.data
    mask = None
    if relu:
        np.maximum(out, 0.0, out=out)
        if _recorded(inputs):  # a byte per element, where the output would keep eight
            mask = np.greater(out, 0.0, out=_empty(shape, np.bool_))
    xs, ws, bs = x.shape, w.shape, _grad_shape(b)
    wd = w.data if x.requires_grad else None
    xd = x.data if w.requires_grad else None
    rg = None if residual is None else residual.requires_grad

    def pullback(g):
        if mask is not None:  # masked in place unless backward shares g (see there)
            g = np.multiply(g, mask, out=g if g.flags.writeable else _empty(g.shape))
        gx = None if wd is None else _input_grad(g, wd, xs, pad_rows)
        gw = None
        if xd is not None:
            gw = _unbroadcast(np.matmul(np.swapaxes(xd, -1, -2), g, out=_empty(xs[:-2] + ws)), ws)
        gb = _unbroadcast(g, bs)
        if rg is None:
            return gx, gw, gb
        return gx, gw, gb, (g if rg else None)

    return _record(inputs, out, pullback)


def layer_norm_affine(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """``layer_norm(a) * gamma + beta`` with per-feature scale and shift."""
    if gamma.shape != a.shape[-1:] or beta.shape != a.shape[-1:]:
        raise ValueError(
            f"layer_norm_affine: gamma {gamma.shape} and beta {beta.shape} must both be "
            f"the last axis of {a.shape}"
        )
    out = _empty(a.shape)
    norm, inv = _normalize(a.data, eps, out=_empty(a.shape), scratch=out)
    gd = gamma.data
    np.multiply(norm, gd, out=out)
    out += beta.data
    need_a, sg, sb = a.requires_grad, _grad_shape(gamma), _grad_shape(beta)

    def pullback(g):
        ga = gg = None
        tmp = _empty(norm.shape)
        if need_a:
            ga = np.multiply(g, gd, out=_empty(norm.shape))
            _normalize_pullback(ga, norm, inv, into=ga, scratch=tmp)
        if sg is not None:
            gg = _unbroadcast(np.multiply(g, norm, out=tmp), sg)
        return ga, gg, _unbroadcast(g, sb)

    return _record((a, gamma, beta), out, pullback)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention over ``heads`` equal slices of the last axis.

    ``k`` and ``v`` are (..., T, d) and ``q`` is (..., Tq, d) with Tq <= T:
    the Tq queries attend to all T keys. Head ``h`` reads features
    ``[h*d/heads, (h+1)*d/heads)`` and writes the same slice of the output.

    All heads run in one stacked product per step, forward and backward,
    on (..., heads, rows, d/heads) views of the operands. A stacked
    ``matmul`` calls the same per-matrix BLAS routine whatever its batch
    axes hold, so each head gets the bits of a product on a contiguous copy
    of its slice, except where BLAS reads a view with other bits: the
    transposed keys are therefore copied to (..., heads, d/heads, T), and
    one-feature heads, which BLAS reads as strided vectors, are copied too.
    """
    if (q.ndim < 2 or k.shape != v.shape or k.ndim != q.ndim or q.shape[-2] > k.shape[-2]
            or q.shape[:-2] + q.shape[-1:] != k.shape[:-2] + k.shape[-1:]):
        raise ValueError(
            f"multi_head_attention: q {q.shape}, k {k.shape}, v {v.shape} must be (..., Tq, d), "
            "(..., T, d) and (..., T, d) with Tq <= T"
        )
    d = q.shape[-1]
    if d == 0:
        raise ValueError("multi_head_attention: width 0 leaves no features to attend over")
    if heads < 1 or d % heads != 0:
        raise ValueError(f"multi_head_attention: width {d} not divisible into {heads} heads")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    lead, keys = q.shape[:-2], k.shape[-2]
    head_t, scores = lead + (heads, dh, keys), lead + (heads, q.shape[-2], keys)

    def split(a: Array) -> Array:
        """The (..., heads, rows, dh) view of a (..., rows, d) array."""
        return np.swapaxes(a.reshape(a.shape[:-1] + (heads, dh)), -2, -3)

    def keys_t() -> Array:
        # rebuilt in the pullback, not kept
        kt = _empty(head_t)
        kt[...] = np.swapaxes(split(kd), -1, -2)
        return kt

    qh, vh, kd = split(q.data), split(v.data), k.data
    if dh == 1:  # one-feature heads are vectors to BLAS, whose bits depend on their stride
        qh, vh = qh.copy(), vh.copy()
    kt = keys_t()
    attn = np.matmul(qh, kt, out=_empty(scores))
    del kt  # handed back here, so that the output may reuse its memory
    attn *= scale
    _softmax(attn, out=attn)
    out = _empty(q.shape)
    np.matmul(attn, vh, out=split(out))
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad
    q_shape, kv_shape = q.shape, k.shape

    def pullback(g):
        go = split(g)
        gq = gk = gv = None
        if need_v:
            gv = _empty(kv_shape)
            np.matmul(np.swapaxes(attn, -1, -2), go, out=split(gv))
        if need_q or need_k:
            gs = np.matmul(go, np.swapaxes(vh, -1, -2), out=_empty(scores))
            tmp = _empty(scores)
            _softmax_pullback(gs, attn, into=gs, scratch=tmp)
            del tmp  # before the buffers below are taken, so that they may reuse it
            gs *= scale
            kt = keys_t()
            if need_q:
                gq = _empty(q_shape)
                np.matmul(gs, np.swapaxes(kt, -1, -2), out=split(gq))
            if need_k:
                np.matmul(np.swapaxes(qh, -1, -2), gs, out=kt)
            del gs  # before gk is taken, so that it may reuse it
            if need_k:
                gk = _empty(kv_shape)
                split(gk)[...] = np.swapaxes(kt, -1, -2)
        if heads > 1:  # as summing zero-padded per-head slices does, turn a -0.0 into 0.0
            for grad in (gq, gk, gv):
                if grad is not None:
                    grad += 0.0
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
    wd = np.stack([w.data for w in weights])
    out = (picked * wd).sum(axis=-1)
    out += np.array([b.data for b in biases])
    order = range(m - 1, -1, -1)
    sx = _grad_shape(x)
    wants = [(biases[j].requires_grad, weights[j].requires_grad) for j in range(m)]

    def pullback(g):
        gx = None if sx is None else _zeros(sx)
        grads = []
        for j in order:
            col = g[..., j:j + 1]
            want_b, want_w = wants[j]
            grads.append(_unbroadcast(col, ()) if want_b else None)
            grads.append(_unbroadcast(col[..., None] * picked[..., j:j + 1, :], (d,)) if want_w else None)
            if gx is not None:
                row = (Ellipsis, slice(rows[j], rows[j] + 1), slice(None))
                _write_slice(gx, row, col[..., None] * wd[j], m == 1)
        return (gx, *grads)

    inputs = (x,) + tuple(t for j in order for t in (biases[j], weights[j]))
    return _record(inputs, out, pullback)


# -- reverse pass ------------------------------------------------------


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into ``.grad`` of every reachable leaf.

    The root must hold a single element. Adjoints are routed by the keys
    the tape entries hold (see ``GradTape``), so a recorded tensor the
    caller dropped before this call still passes its adjoint on. Outside a
    step workspace the tape is replayed, so a repeated call accumulates
    again. Inside one it is consumed: each entry is dropped before its
    pullback runs, so that the arrays its pullback holds (only those it
    reads: a ReLU's one-byte mask, not its output) go back once that has
    run, and a second call raises.

    A pullback may overwrite its ``g`` exactly when ``g`` is writeable: a
    returned ``g``, or a view of it, may serve several inputs, so it is
    stored read-only.
    """
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    adjoint = {root.key: np.ones_like(root.data)}
    if _WORKSPACE is None:
        for entry in reversed(_TAPE._entries):
            _pull(*entry, adjoint)
        return
    if _WORKSPACE.replayed:
        raise ValueError("backward: in a step workspace the tape is replayed once, "
                         "after the reset_tape() that began the step (already replayed?)")
    _WORKSPACE.replayed = True
    while _TAPE:
        _pull(*_TAPE._entries.pop(), adjoint)


def _pull(key: int, routes: tuple[int | Tensor | None, ...], pullback: Pullback,
          adjoint: dict[int, Array]) -> None:
    """Run one tape entry's pullback, if its output has an adjoint, and pass the results on."""
    g = adjoint.pop(key, None)
    if g is None:
        return
    for route, gt in zip(routes, pullback(g)):
        if gt is None:
            continue
        if isinstance(route, int):
            acc = adjoint.get(route)
            if acc is not None:
                gt = np.add(acc, gt, out=_empty(gt.shape))
            elif np.may_share_memory(gt, g):
                gt = gt.view()
                gt.flags.writeable = False
            adjoint[route] = gt
        elif route.requires_grad:
            if route.grad is None:
                route.grad = np.zeros_like(route.data)
            np.add(route.grad, gt, out=route.grad)


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
