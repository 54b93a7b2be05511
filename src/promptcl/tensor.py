"""Dense float64 tensors with a tape-based reverse-mode gradient engine.

The rules are deliberately small enough to audit by hand: one global
Wengert tape, gradient accumulation into leaf ``.grad`` buffers, and
broadcasting that is only allowed when one operand's shape is a trailing
suffix of the other's (leading axes act as batch dimensions). Anything
fancier is rejected with an error naming the op and both shapes.

A training loop may run its steps inside ``step_workspace()``: every
array one step computes, and every buffer its backward pass works in,
then comes from memory the workspace keeps, and ``reset_tape()`` hands
them back for the next step instead of freeing them.
"""

from __future__ import annotations

import math
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


class _Workspace:
    """Float64 buffers that one training loop's steps, or one evaluation's chunks, reuse.

    Buffers are cut, 64-byte aligned, from one arena that is reserved once
    and whose pages are touched only as steps use them, so every step
    finds last step's memory still mapped. A request takes the smallest
    hole that holds it, else memory at the top. A buffer handed back
    during the step becomes a hole, merged with the holes beside it; a
    hole that reaches the top lowers the top instead. ``reset`` hands
    back everything at once. A step that outgrows the arena gets plain
    arrays for the rest, and the next step a large enough arena.

    The backward pass hands back each recorded op's arrays once its
    pullback has run (no earlier op's pullback reads them), and each of its
    own buffers once no stored adjoint lives in it, so it works mostly in
    memory the forward pass has finished with.
    """

    RESERVE = 8 << 20  # elements (64 MB of address space, resident only where used)

    def __init__(self) -> None:
        self.arena = np.empty(self.RESERVE)
        self.top = 0    # arena elements below the highest buffer lent this step
        self.need = 0   # this step's high-water mark, counting what the arena had no room for
        self.spill = 0  # elements lent as plain arrays because the arena was full
        self.holes: dict[int, int] = {}   # start -> end of each hole below the top
        self.starts: dict[int, int] = {}  # end -> start of the same holes
        self.lent: dict[int, tuple[Array, int, int]] = {}  # id -> (buffer, its offset or -1, its length)
        self.log: list[Array] = []        # buffers handed out this step, in order
        self.ends: list[int] = []         # len(log) when each tape entry was recorded
        self.refs: dict[int, int] = {}    # id -> stored adjoints living in the buffer
        self.replayed = False

    def take(self, shape: tuple[int, ...]) -> Array:
        n = math.prod(shape)
        size = -(-n // 8) * 8
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
        buf = np.empty(shape) if start < 0 else self.arena[start:start + n].reshape(shape)
        self.lent[id(buf)] = (buf, start, size)
        self.log.append(buf)
        return buf

    def give(self, buf: Array) -> None:
        held = self.lent.pop(id(buf), None)
        if held is None:
            return
        if _POISON:
            buf.fill(np.nan)
        _, start, size = held
        if start < 0:
            self.spill -= size
            return
        end = start + size
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

    def exclusive(self, g: Array) -> bool:
        """Whether ``g`` is a buffer of this workspace that no stored adjoint uses."""
        return id(g) in self.lent and not self.refs.get(id(g))

    def reset(self) -> None:
        if _POISON:
            for buf, _, _ in self.lent.values():
                buf.fill(np.nan)
        if self.need > self.arena.size:
            self.arena = np.empty(self.need)
        self.top = self.need = self.spill = 0
        self.holes.clear()
        self.starts.clear()
        self.lent.clear()
        self.log.clear()
        self.ends.clear()
        self.refs.clear()
        self.replayed = False

    def retire(self, entry: int) -> None:
        """Hand back the arrays tape entry ``entry`` took in the forward pass."""
        for buf in self.log[self.ends[entry - 1] if entry else 0:self.ends[entry]]:
            self.give(buf)

    # -- liveness of the backward pass's buffers --------------------------

    def owner(self, gt: Array, g: Array, g_owner: Array | None, mark: int) -> Array | None:
        """The lent buffer whose memory a pullback's result ``gt`` lies in, if any.

        A pullback returns a buffer it took, a view of one, or its incoming
        adjoint ``g`` or a view of it (``add``, ``concat``, ``reshape``);
        ``mark`` is the length of ``log`` when it started.
        """
        if id(gt) in self.lent:
            return gt
        if g_owner is not None and np.may_share_memory(gt, g):
            return g_owner
        for buf in self.log[mark:]:
            if np.may_share_memory(gt, buf):
                return buf
        return None

    def hold(self, buf: Array | None) -> None:
        if buf is not None:
            self.refs[id(buf)] = self.refs.get(id(buf), 0) + 1

    def drop(self, buf: Array | None) -> None:
        if buf is not None:
            self.refs[id(buf)] -= 1

    def sweep(self, mark: int, *done: Array | None) -> None:
        """Hand back the buffers taken since ``mark``, and ``done``, that no stored adjoint uses."""
        for buf in (*self.log[mark:], *done):
            if buf is not None and not self.refs.get(id(buf)):
                self.give(buf)


_WORKSPACE: _Workspace | None = None
_POISON = False  # tests set it: every buffer handed back is filled with NaN


@contextmanager
def step_workspace():
    """Run a training loop's steps, or an evaluation's chunks, on reused buffers.

    Inside, every op takes its arrays from the workspace (see
    ``_Workspace``), and an array of one step is reused by the next: no
    tensor may be used after the ``reset_tape()`` (or ``reset()`` of the
    yielded workspace) that ends its step. On exit the workspace it
    replaced, if any, is active again.
    """
    global _WORKSPACE
    outer, _WORKSPACE = _WORKSPACE, _Workspace()
    try:
        yield _WORKSPACE
    finally:
        _WORKSPACE = outer


def _recorded(inputs: tuple["Tensor", ...]) -> bool:
    return _RECORDING[-1] and any(t.requires_grad for t in inputs)


def _empty(shape: tuple[int, ...]) -> Array:
    """An uninitialised buffer, from the workspace while one is active."""
    return np.empty(shape) if _WORKSPACE is None else _WORKSPACE.take(shape)


def _zeros(shape: tuple[int, ...]) -> Array:
    buf = _empty(shape)
    buf.fill(0.0)
    return buf


def _release(*bufs: Array) -> None:
    """Hand finished temporaries back to the workspace before their step ends."""
    if _WORKSPACE is not None:
        for buf in bufs:
            _WORKSPACE.give(buf)


def workspace_mark() -> int:
    """Where the active workspace's step stands, for ``release_since``."""
    return 0 if _WORKSPACE is None else len(_WORKSPACE.log)


def release_since(mark: int, keep: Tensor) -> None:
    """Hand back every buffer taken since ``mark`` but ``keep``'s, when ``keep`` is unrecorded.

    For a caller whose ops since ``mark`` all led to ``keep``: then none
    of them was recorded either, and once ``keep`` exists nothing reads
    their arrays.
    """
    if _WORKSPACE is not None and not keep.requires_grad:
        for buf in _WORKSPACE.log[mark:]:
            if not np.may_share_memory(buf, keep.data):
                _WORKSPACE.give(buf)


def release(t: Tensor) -> None:
    """Hand an unrecorded tensor's array back once its caller and every pullback are done with it."""
    if not t.requires_grad:
        _release(t.data)


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
    if _recorded(inputs):
        out = Tensor(out_data, requires_grad=True)
        _TAPE.record(out, inputs, pullback)
        if _WORKSPACE is not None:
            _WORKSPACE.ends.append(len(_WORKSPACE.log))
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
    out = np.add(a.data, b.data, out=_empty(max(a.shape, b.shape, key=len)))

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
    return _record((a,), out, lambda g: (_softmax_pullback(g, out) if a.requires_grad else None,))


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
    sizes = [t.shape[ax] for t in tensors]
    base[ax] = sum(sizes)
    out = np.concatenate([t.data for t in tensors], axis=ax, out=_empty(tuple(base)))
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
    out = _empty(a.shape[:ax] + (stop - start,) + a.shape[ax + 1:])
    out[...] = a.data[index]

    def pullback(g):
        if not a.requires_grad:
            return (None,)
        full = _zeros(a.shape)
        full[index] = g
        return (full,)

    return _record((a,), out, pullback)


def expand_leading(a: Tensor, n: int) -> Tensor:
    """Replicate a tensor across a new leading batch axis of length ``n``."""
    if n < 1:
        raise ValueError(f"expand_leading: batch size must be positive, got {n}")
    out = _empty((n,) + a.shape)
    out[...] = a.data

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
    _release(padded, full)
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
    if relu:
        np.maximum(out, 0.0, out=out)

    def pullback(g):
        if relu:  # masked in place when backward holds the only use of g
            mine = _WORKSPACE is not None and _WORKSPACE.exclusive(g)
            g = np.multiply(g, out > 0.0, out=g if mine else _empty(g.shape))
        gx = _input_grad(g, w.data, x.shape, pad_rows) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            xt = np.swapaxes(x.data, -1, -2)
            gw = _unbroadcast(np.matmul(xt, g, out=_empty(x.shape[:-2] + w.shape)), w.shape)
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
    out = _empty(a.shape)
    norm, inv = _normalize(a.data, eps, out=_empty(a.shape), scratch=out)
    np.multiply(norm, gamma.data, out=out)
    out += beta.data
    if not _recorded((a, gamma, beta)):
        _release(norm)  # only the pullback reads it

    def pullback(g):
        ga = gg = None
        tmp = _empty(a.shape)
        if a.requires_grad:
            ga = np.multiply(g, gamma.data, out=_empty(a.shape))
            _normalize_pullback(ga, norm, inv, into=ga, scratch=tmp)
        if gamma.requires_grad:
            gg = _unbroadcast(np.multiply(g, norm, out=tmp), gamma.shape)
        gb = _unbroadcast(g, beta.shape) if beta.requires_grad else None
        return ga, gg, gb

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
        kt[...] = np.swapaxes(split(k.data), -1, -2)
        return kt

    qh, vh = split(q.data), split(v.data)
    if dh == 1:  # one-feature heads are vectors to BLAS, whose bits depend on their stride
        qh, vh = qh.copy(), vh.copy()
    kt = keys_t()
    attn = np.matmul(qh, kt, out=_empty(scores))
    _release(kt)
    del kt  # a plain array is freed here, so that the output may reuse its memory
    attn *= scale
    _softmax(attn, out=attn)
    out = _empty(q.shape)
    np.matmul(attn, vh, out=split(out))
    if not _recorded((q, k, v)):
        _release(attn)  # only the pullback reads it

    def pullback(g):
        go = split(g)
        gq = gk = gv = None
        if v.requires_grad:
            gv = _empty(v.shape)
            np.matmul(np.swapaxes(attn, -1, -2), go, out=split(gv))
        if q.requires_grad or k.requires_grad:
            gs = np.matmul(go, np.swapaxes(vh, -1, -2), out=_empty(scores))
            tmp = _empty(scores)
            _softmax_pullback(gs, attn, into=gs, scratch=tmp)
            _release(tmp)  # before the buffers below are taken, so that they may reuse it
            gs *= scale
            kt = keys_t()
            if q.requires_grad:
                gq = _empty(q.shape)
                np.matmul(gs, np.swapaxes(kt, -1, -2), out=split(gq))
            if k.requires_grad:
                np.matmul(np.swapaxes(qh, -1, -2), gs, out=kt)
            _release(gs)  # before gk is taken, so that it may reuse it
            if k.requires_grad:
                gk = _empty(k.shape)
                split(gk)[...] = np.swapaxes(kt, -1, -2)
            _release(kt)
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
    out = (picked * np.stack([w.data for w in weights])).sum(axis=-1)
    out += np.array([b.data for b in biases])
    order = range(m - 1, -1, -1)

    def pullback(g):
        gx = _zeros(x.shape) if x.requires_grad else None
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
    clearing grads accumulates again (the tape is replayed, not consumed),
    except inside a step workspace, where the replay hands each op's arrays
    back and a second call raises.
    """
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    ws = _WORKSPACE
    if ws is not None:
        if ws.replayed or len(ws.ends) != len(_TAPE):
            raise ValueError("backward: in a step workspace the tape is replayed once, "
                             "after the reset_tape() that began the step (already replayed?)")
        ws.replayed = True
    # id(tensor) -> (adjoint, the workspace buffer it lives in or None)
    adjoint: dict[int, tuple[Array, Array | None]] = {id(root): (np.ones_like(root.data), None)}
    for i in range(len(_TAPE) - 1, -1, -1):
        out, inputs, pullback = _TAPE._entries[i]
        popped = adjoint.pop(id(out), None)
        if popped is None:
            if ws is not None:
                ws.retire(i)
            continue
        g, g_owner = popped
        if ws is not None:
            ws.drop(g_owner)
            mark, done = len(ws.log), [g_owner]
        for t, gt in zip(inputs, pullback(g)):
            if gt is None:
                continue
            if _TAPE.produced(t):
                acc = adjoint.get(id(t))
                if acc is None:
                    owner = None if ws is None else ws.owner(gt, g, g_owner, mark)
                else:
                    gt = owner = np.add(acc[0], gt, out=_empty(gt.shape))
                    if ws is not None:
                        ws.drop(acc[1])
                        done.append(acc[1])
                adjoint[id(t)] = (gt, owner)
                if ws is not None:
                    ws.hold(owner)
            elif t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                np.add(t.grad, gt, out=t.grad)
        if ws is not None:
            ws.retire(i)
            ws.sweep(mark, *done)


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
