"""Dense float64 tensors with a tape-based reverse-mode gradient engine.

The rules are deliberately small enough to audit by hand: one global
Wengert tape, gradient accumulation into leaf ``.grad`` buffers, and
broadcasting that is only allowed when one operand's shape is a trailing
suffix of the other's (leading axes act as batch dimensions). Anything
fancier is rejected with an error naming the op and both shapes.

Each recorded op gets a key that is never given again, and its tape
entry holds that key, each input's producer key (or, for an input no op
on this tape produced, the tensor itself) and its pullback. A pullback
holds only the arrays and flags it reads, never a tensor. A ReLU keeps a
one-byte mask instead of its output, or nothing at all where ``mlp``'s
pullback rebuilds its hidden layer, tile by tile, from the input it keeps
for the first layer's weight gradient. A ``linear`` or ``mlp`` whose
weight trains keeps its input, except a recorded layer norm's output:
of that it keeps the recipe, and both rebuild it a tile at a time
through one helper, ``_kept_input``, with the forward's two elementwise
expressions, from the normalised rows the norm's own pullback keeps and
the affine's arrays. So a recorded tensor lives only as long as its
caller holds it, and its array only as long as a pullback will read it.

A training loop may run its steps inside ``step_workspace()``: every
array an op computes for one step, and every buffer its backward pass
works in, then comes from memory the workspace keeps. An array goes back
to the workspace, for later ops and steps to reuse, the moment nothing
references it. The backward pass consumes the tape, in a workspace or
not, so that each op's arrays go back as soon as its pullback has run.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray
Pullback = Callable[[Array], tuple]
LN_EPS = 1e-5  # added to the variance in every layer norm


class GradTape:
    """Ordered record of executed primitives, consumed newest-first.

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

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> Array:
        n = math.prod(shape)
        size = -(-n * (8 if dtype is np.float64 else np.dtype(dtype).itemsize) // 64) * 8
        start, room = -1, 0  # the smallest hole that holds it, the lowest of equal ones
        for at, end in self.holes.items():
            if size <= end - at and (start < 0 or end - at < room or end - at == room and at < start):
                start, room = at, end - at
        if start >= 0:
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
    __slots__ = ("data", "requires_grad", "grad", "key", "recipe")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.key = 0  # set by the tape when an op records this tensor as its output
        self.recipe: Callable[[int, int, Array], Array] | None = None  # see layer_norm_affine

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

    def log(self):
        return log(self)

    def sigmoid(self):
        return sigmoid(self)

    def clamp(self, lo: float, hi: float):
        return clamp(self, lo, hi)

    def sum(self, axis: int | None = None):
        return reduce_sum(self, axis)

    def mean(self, axis: int | None = None):
        return reduce_mean(self, axis)

    def transpose_last(self):
        return transpose_last(self)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _recorded(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` goes on the tape."""
    return _RECORDING[-1] and any(t.requires_grad for t in inputs)


def _record(inputs: tuple[Tensor, ...], out_data: Array, pullback: Pullback) -> Tensor:
    """The output tensor; recorded, with its pullback, when any input takes a gradient."""
    if _RECORDING[-1] and any(t.requires_grad for t in inputs):  # _recorded(inputs), inline
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
    out = a.data + b.data
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


def _row_mean(x: Array) -> Array:
    """``x.mean(axis=-1, keepdims=True)``: the sum and the division it makes, without its Python wrapper."""
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= x.shape[-1]
    return mean


def _normalize(x: Array, out: Array | None = None, scratch: Array | None = None) -> tuple[Array, Array]:
    """Last-axis standardisation ``(x - mu) * inv`` and the reciprocal deviation ``inv``."""
    mu = _row_mean(x)
    xc = np.subtract(x, mu, out=out)
    var = _row_mean(np.multiply(xc, xc, out=scratch))
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xc *= inv
    return xc, inv


def _normalize_pullback(g: Array, out: Array, inv: Array, into: Array | None = None,
                        scratch: Array | None = None) -> Array:
    """``(g - mean(g) - out * mean(g * out)) * inv`` over the last axis."""
    gm = _row_mean(g)
    gy = _row_mean(np.multiply(g, out, out=scratch))
    res = np.subtract(g, gm, out=into)
    res -= np.multiply(out, gy, out=scratch)
    res *= inv
    return res


# -- reductions and shape ops -----------------------------------------


def _normalize_axis(op: str, axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ValueError(f"{op}: axis {axis} out of range for {ndim}-D tensor")
    return axis % ndim


def _spread(g: Array, ax: int | None, shape: tuple[int, ...]) -> Array:
    """A reduction's adjoint broadcast back over the axis it removed (every axis for None)."""
    return np.broadcast_to(g if ax is None else np.expand_dims(g, ax), shape)


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    ax, shape = None if axis is None else _normalize_axis("sum", axis, a.ndim), a.shape
    return _record((a,), a.data.sum(axis=ax), lambda g: (_spread(g, ax, shape),))


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    if a.size == 0:
        raise ValueError("mean: cannot reduce an empty tensor")
    ax, shape = None if axis is None else _normalize_axis("mean", axis, a.ndim), a.shape
    n = a.size if ax is None else shape[ax]
    return _record((a,), a.data.mean(axis=ax), lambda g: (_spread(g / n, ax, shape),))


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
# Only for operands that do not alias: with q, k and v one tensor, the
# attention adjoint sums gq + gk + gv in another order than the chain.


_TILE = 8  # items of the first axis in one tile of a fused op's batch-wide temporaries


def _items(a: Array) -> Array:
    """``a`` as a stack of items along its first axis: a 2-D array is one item."""
    return a if a.ndim > 2 else a[None]


def _tiles(items: int, *sums: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """A fused op's tile length over ``items`` items of the first axis, and each tile's bounds: ``_TILE``,
    or every item when one of the ``sums`` that ``_running_sum`` carries from tile to tile has one element
    (NumPy sums a stack of those pairwise, not in order)."""
    tile = max(1, items if any(math.prod(s) == 1 for s in sums) else min(_TILE, items))
    return tile, [(s, min(s + tile, items)) for s in range(0, items, tile)]


def _pads(tile: int, item: tuple[int, ...], pad_rows: int | None, *widths: int) -> list[Array] | None:
    """A tile of ``item``-shaped adjoints zero-padded to ``pad_rows`` rows, then room for each product of a
    chain of ``_tile_grads`` calls, ``widths`` wide, that pads the next one's adjoint (a row of a product
    reads no other row, so its added rows may hold products of zero rows); None when no row is added."""
    if pad_rows is None or pad_rows == item[-2]:
        return None
    bufs = [_zeros((tile,) + item[:-2] + (pad_rows, item[-1]))]
    return bufs + [_empty(bufs[0].shape[:-1] + (width,)) for width in widths]


def _running_sum(stack: Array, acc: Array, first: bool) -> None:
    """Sum ``stack[1:]`` over its first axis into ``acc``, after what ``acc`` holds unless ``first``: NumPy
    sums a stack over its first axis strictly in order, so a sum carried through the slot ``stack[0]``
    from one part of a stack into the next gives the bytes of the whole stack's sum."""
    if not first:
        stack[0] = acc
    np.add.reduce(stack[1 if first else 0:], axis=0, out=acc)


def _tile_grads(g: Array, w: Array | None, gx: Array | None, pads: list[Array] | None, x: Array | None,
                gw: Array | None, flat: Array | None, first: bool) -> None:
    """A layer's pullback on a tile ``g`` of items of ``x @ w``'s adjoint: ``g @ w.T`` into ``gx``, made on
    the padded rows of ``pads[0]`` when given (a stacked ``matmul`` makes the same per-item BLAS call whatever
    its batch holds, so each item keeps the bits of the whole batch's product), and ``x.T @ g`` into ``gw``,
    summed over its leading axes by ``_running_sum`` and stacked in ``flat``: a 1-D buffer with room for one
    more matrix of ``gw``'s shape than the tile makes (other sums may share it). Each only when given."""
    if gx is not None and pads is None:
        np.matmul(g, w.T, out=gx)
    elif gx is not None:
        n, rows = len(g), g.shape[-2]
        pads[0][:n, ..., :rows, :] = g
        gx[...] = np.matmul(pads[0][:n], w.T, out=pads[1][:n])[..., :rows, :]
    if gw is not None:
        stack = flat[:(1 + math.prod(g.shape[:-2])) * gw.size].reshape((-1,) + gw.shape)
        np.matmul(x.swapaxes(-1, -2), g, out=stack[1:].reshape(g.shape[:-2] + gw.shape))
        _running_sum(stack, gw, first)


def _kept_input(x: Tensor) -> Callable[[int], Callable[[int, int], Array]]:
    """How a pullback reads items ``[s:e]`` of its input ``x``: called with its tile length, a reader that
    rebuilds them into one tile's buffer by a recorded layer norm's ``recipe``, so that the norm's output
    goes back once its caller drops it, or slices them from any other ``x``, whose array it keeps."""
    recipe, xi = x.recipe, _items(x.data)
    if recipe is None:
        return lambda tile: lambda s, e: xi[s:e]
    item = xi.shape[1:]  # the reader below holds no array of x

    def reader(tile: int) -> Callable[[int, int], Array]:
        buf = _empty((tile,) + item)
        return lambda s, e: recipe(s, e, buf[:e - s])

    return reader


def _check_linear(op: str, xs: tuple[int, ...], w: Tensor, b: Tensor) -> None:
    if len(xs) < 2 or w.ndim != 2 or b.shape != w.shape[1:] or xs[-1] != w.shape[0]:
        raise ValueError(
            f"{op}: shapes x {xs}, w {w.shape}, b {b.shape} do not chain "
            "(need x (..., n, k), w (k, m), b (m,))"
        )


def _check_joins(op: str, x: Tensor, shape: tuple[int, ...], residual: Tensor | None,
                 pad_rows: int | None) -> None:
    if pad_rows is not None and pad_rows < x.shape[-2]:
        raise ValueError(f"{op}: pad_rows {pad_rows} is fewer than the rows of x {x.shape}")
    if residual is not None and (residual.ndim > len(shape)
                                 or shape[len(shape) - residual.ndim:] != residual.shape):
        raise ValueError(f"{op}: residual {residual.shape} is not a trailing suffix of output {shape}")


def linear(x: Tensor, w: Tensor, b: Tensor, residual: Tensor | None = None,
           pad_rows: int | None = None) -> Tensor:
    """``x @ w + b``, plus ``residual`` when given.

    ``residual`` may be the output's shape or a trailing suffix of it, with
    the bytes of ``add(x @ w + b, residual)``; the pullback keeps its shape.

    With ``pad_rows``, the input gradient ``g @ w.T`` is computed on the
    adjoint zero-padded to that many rows and cut back to ``x``'s rows:
    BLAS picks its kernel by row count, so the rows of ``x`` then get the
    bits they would get as the leading rows of a ``pad_rows``-row input
    whose other rows have zero adjoint. The pullback runs in tiles of the
    first axis with the whole batch's bytes (see ``_tiles`` and
    ``_tile_grads``), so that no batch-wide temporary sets a training
    step's peak. When ``w`` takes a gradient the pullback keeps ``x``, or,
    when ``x`` is a recorded layer norm's output, its ``recipe``, and reads
    each tile of ``x`` through ``_kept_input``, rebuilding it with that.
    """
    _check_linear("linear", x.shape, w, b)
    shape = x.shape[:-1] + w.shape[1:]
    _check_joins("linear", x, shape, residual, pad_rows)
    joined = residual is not None
    inputs = (x, w, b, residual) if joined else (x, w, b)
    out = _affine(x.data, w.data, b.data, _empty(shape), residual.data if joined else None)
    xs, ws, bs = x.shape, w.shape, _grad_shape(b)
    wd = w.data if x.requires_grad else None
    kept = _kept_input(x) if w.requires_grad else None
    rs = _grad_shape(residual) if joined else None

    def pullback(g):
        gi = _items(g)
        tile, bounds = _tiles(len(gi), ws)
        gx, pads = (None, None) if wd is None else (_empty(xs), _pads(tile, gi.shape[1:], pad_rows, xs[-1]))
        read = None if kept is None else kept(tile)
        gw = None if kept is None else _zeros(ws)  # zeros for an empty batch, else overwritten
        flat = None if kept is None else _empty(((1 + tile * math.prod(gi.shape[1:-2])) * math.prod(ws),))
        for s, e in bounds:
            _tile_grads(gi[s:e], wd, None if gx is None else _items(gx)[s:e], pads,
                        None if read is None else read(s, e), gw, flat, s == 0)
        return (gx, gw, _unbroadcast(g, bs)) + ((_unbroadcast(g, rs),) if joined else ())

    return _record(inputs, out, pullback)


def _affine(x: Array, w: Array, b: Array, out: Array, residual: Array | None = None) -> Array:
    """``x @ w + b`` (+ ``residual`` when given) into ``out``: a forward product of ``linear`` or ``mlp``."""
    np.matmul(x, w, out=out)
    out += b
    if residual is not None:
        out += residual
    return out


def _relu_layer(x: Array, w: Array, b: Array, out: Array) -> Array:
    """``maximum(x @ w + b, 0)`` into ``out``: one tile of ``mlp``'s hidden layer, made or rebuilt."""
    return np.maximum(_affine(x, w, b, out), 0.0, out=out)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, residual: Tensor | None = None,
        pad_rows: int | None = None) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2``, plus ``residual`` when given, as one tape entry.

    It has the bytes of ``linear(maximum(linear(x, w1, b1), 0), w2, b2,
    residual)``, with ``residual`` and ``pad_rows`` as in ``linear``, but
    never holds the whole batch's hidden layer: forward and pullback run in
    tiles of the first axis, as ``linear``'s pullback does (see ``_tiles``),
    two ``_tile_grads`` steps to a tile. When ``w2`` takes a gradient the pullback
    keeps ``x`` (which ``w1``'s gradient reads too) and rebuilds each tile
    of the hidden layer, and its ReLU mask, with the forward's own
    expressions on the same tile bounds; else it keeps only the ReLU's
    one-byte mask, and that only when the gradient passes through the
    ReLU. Where ``x`` is a recorded layer norm's output, it keeps that
    output's ``recipe`` instead of ``x`` and, through ``_kept_input`` as
    ``linear`` does, rebuilds each tile of ``x`` with it, for both readers.
    """
    hidden_shape, width = x.shape[:-1] + w1.shape[1:], w1.shape[-1]
    _check_linear("mlp", x.shape, w1, b1)
    _check_linear("mlp", hidden_shape, w2, b2)
    shape = x.shape[:-1] + w2.shape[1:]
    _check_joins("mlp", x, shape, residual, pad_rows)
    joined = residual is not None
    inputs = (x, w1, b1, w2, b2, residual) if joined else (x, w1, b1, w2, b2)
    recorded = _recorded(inputs)
    through = recorded and (x.requires_grad or w1.requires_grad or b1.requires_grad)
    rebuild = recorded and w2.requires_grad
    xi = _items(x.data)
    tile, bounds = _tiles(len(xi), (width,))  # gw1 and gw2 have one element only if gb1, (width,), has
    # the ReLU's mask: a byte per element, where the layer keeps eight
    mask = _empty(hidden_shape, np.bool_) if through and not rebuild else None
    out = _empty(shape)
    hi = _empty((tile,) + xi.shape[1:-1] + (width,))
    ri = None if not joined else _items(np.broadcast_to(residual.data, shape))
    for s, e in bounds:
        h = _relu_layer(xi[s:e], w1.data, b1.data, hi[:e - s])
        if mask is not None:
            np.greater(h, 0.0, out=_items(mask)[s:e])
        _affine(h, w2.data, b2.data, _items(out)[s:e], None if ri is None else ri[s:e])
    xs, w1s, b1s, w2s, b2s = x.shape, w1.shape, _grad_shape(b1), w2.shape, _grad_shape(b2)
    gx_wanted, gw1_wanted = x.requires_grad, w1.requires_grad
    kept = _kept_input(x) if gw1_wanted or rebuild else None
    w1d = w1.data if gx_wanted or rebuild else None
    b1d = b1.data if rebuild else None
    w2d = w2.data if through else None
    rs = _grad_shape(residual) if joined else None

    def pullback(g):
        gb2 = _unbroadcast(g, b2s)
        gx = gw1 = gb1 = gw2 = None
        if through or rebuild:
            gi = _items(g)
            rows = gi.shape[1:-1]  # of one item
            per, rows_per = math.prod(rows[:-1]), math.prod(rows)
            gx = _empty(xs) if gx_wanted else None
            gw1 = _zeros(w1s) if gw1_wanted else None  # zeros for an empty batch, else overwritten
            gb1 = None if b1s is None else _zeros(b1s)
            gw2 = _zeros(w2s) if rebuild else None
            # one tile's rebuilt x and hidden layer, hidden adjoint (with a slot 0 that carries
            # its sum from tile to tile) and weight-gradient stack, which gw2 and gw1 share
            read = None if kept is None else kept(tile)
            hs = _empty((tile,) + rows + (width,)) if rebuild else None
            ghs = _empty((1 + tile * rows_per, width)) if through else None
            flat = None if read is None else _empty(((1 + tile * per) * max(math.prod(w1s), math.prod(w2s)),))
            pads = _pads(tile, rows + g.shape[-1:], pad_rows, width, *(xs[-1:] if gx_wanted else ())) \
                if through else None
            for s, e in bounds:
                xt = None if read is None else read(s, e)
                h = _relu_layer(xt, w1d, b1d, hs[:e - s]) if rebuild else None
                gh = ghs[1:1 + (e - s) * rows_per].reshape((e - s,) + rows + (width,)) if through else None
                _tile_grads(gi[s:e], w2d, gh, pads, h, gw2, flat, s == 0)
                if not through:
                    continue
                # the ReLU's mask: kept, or 1.0 and 0.0 written over the rebuilt tile,
                # which multiply as True and False do
                np.multiply(gh, _items(mask)[s:e] if mask is not None else np.greater(h, 0.0, out=h), out=gh)
                gxt = None if gx is None else _items(gx)[s:e]
                _tile_grads(gh, w1d, gxt, pads and pads[1:], xt, gw1, flat, s == 0)
                if gb1 is not None:
                    _running_sum(ghs[:1 + (e - s) * rows_per], gb1, s == 0)
        return (gx, gw1, gb1, gw2, gb2) + ((_unbroadcast(g, rs),) if joined else ())

    return _record(inputs, out, pullback)


def layer_norm_affine(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``layer_norm(a) * gamma + beta`` with per-feature scale and shift.

    A recorded output carries its ``recipe``: a function that rebuilds
    items ``[s:e]`` of the output into a given buffer with the forward's
    own expressions, from the normalised rows its own pullback keeps
    anyway and the affine's arrays. A ``linear`` or ``mlp`` whose weight
    takes a gradient keeps that instead of the output, so the output's
    array goes back once its caller drops it. An unrecorded output carries
    none: it would keep the normalised rows, which nothing else reads
    then, alive.
    """
    if gamma.shape != a.shape[-1:] or beta.shape != a.shape[-1:]:
        raise ValueError(
            f"layer_norm_affine: gamma {gamma.shape} and beta {beta.shape} must both be "
            f"the last axis of {a.shape}"
        )
    out = _empty(a.shape)
    norm, inv = _normalize(a.data, out=_empty(a.shape), scratch=out)
    gd, bd, ni = gamma.data, beta.data, _items(norm)

    def recipe(s: int, e: int, into: Array) -> Array:
        """Items ``[s:e]`` of the output, made into ``into``."""
        np.multiply(ni[s:e], gd, out=into)
        into += bd
        return into

    recipe(0, len(ni), _items(out))
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

    y = _record((a, gamma, beta), out, pullback)
    if y.requires_grad:
        y.recipe = recipe
    return y


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
    The pullback makes its score-sized temporaries in tiles of the first
    axis (see ``_tiles``).
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
    lead, keys = q.shape[:-2] or (1,), k.shape[-2]  # the leading axes of the operands' items
    head_t, scores = lead + (heads, dh, keys), lead + (heads, q.shape[-2], keys)

    def split(a: Array) -> Array:
        """The (..., heads, rows, dh) view of a (..., rows, d) array's items (see ``_items``)."""
        return np.swapaxes(_items(a).reshape(lead + (a.shape[-2], heads, dh)), -2, -3)

    qh, vh, kh = split(q.data), split(v.data), split(k.data)
    if dh == 1:  # one-feature heads are vectors to BLAS, whose bits depend on their stride
        qh, vh = qh.copy(), vh.copy()
    kt = _empty(head_t)
    kt[...] = np.swapaxes(kh, -1, -2)
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
            gq = _empty(q_shape) if need_q else None
            gk = _empty(kv_shape) if need_k else None
            # one tile's score-sized buffers: the scores' adjoint, the softmax scratch
            # and the transposed keys
            tile, bounds = _tiles(len(go))
            gs_t, tmp_t = _empty((tile,) + scores[1:]), _empty((tile,) + scores[1:])
            kt_t = _empty((tile,) + head_t[1:])
            for s, e in bounds:
                gs, kt = gs_t[:e - s], kt_t[:e - s]
                np.matmul(go[s:e], np.swapaxes(vh[s:e], -1, -2), out=gs)
                _softmax_pullback(gs, attn[s:e], into=gs, scratch=tmp_t[:e - s])
                gs *= scale
                kt[...] = np.swapaxes(kh[s:e], -1, -2)
                if need_q:
                    np.matmul(gs, np.swapaxes(kt, -1, -2), out=split(gq)[s:e])
                if need_k:
                    np.matmul(np.swapaxes(qh[s:e], -1, -2), gs, out=kt)
                    split(gk)[s:e] = np.swapaxes(kt, -1, -2)
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
    # row-major, as the chain's concatenated columns are: indexing lays the picked rows out
    # outermost, and a later sum over the whole output would add in another order
    out = np.ascontiguousarray((picked * wd).sum(axis=-1))
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
            if gx is not None:  # summed in reverse tape order as the chain's zero-padded slice gradients
                row = (Ellipsis, slice(rows[j], rows[j] + 1), slice(None))
                if m == 1:  # copied: the chain never summed a lone slice, so a -0.0 stays -0.0
                    gx[row] = col[..., None] * wd[j]
                else:
                    gx[row] += col[..., None] * wd[j]
        return (gx, *grads)

    inputs = (x,) + tuple(t for j in order for t in (biases[j], weights[j]))
    return _record(inputs, out, pullback)


# -- reverse pass ------------------------------------------------------


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into ``.grad`` of every reachable leaf.

    The root must hold a single element. Adjoints are routed by the keys
    the tape entries hold (see ``GradTape``), so a recorded tensor the
    caller dropped before this call still passes its adjoint on. The tape
    is consumed, inside a step workspace or outside one: each entry is
    dropped before its pullback runs, so that the arrays its pullback holds
    (only those it reads: a ReLU's one-byte mask, not its output) go back
    once that has run. At the end the tape is cleared, so a tensor recorded
    before this call and used after it takes a gradient as a leaf does,
    and a second call on a root whose tape was consumed or reset raises.
    A root no op recorded (as under ``no_grad``) reaches no leaf.

    A pullback may overwrite its ``g`` exactly when ``g`` is writeable: a
    returned ``g``, or a view of it, may serve several inputs, so it is
    stored read-only.
    """
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    if 0 < root.key < _TAPE._first:
        raise ValueError("backward: the tape that recorded this root was consumed or reset "
                         "(backward called twice?)")
    adjoint = {root.key: np.ones_like(root.data)}
    while _TAPE:
        _pull(*_TAPE._entries.pop(), adjoint)
    _TAPE.clear()  # not reset_tape(): the step's high-water mark stands


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
