"""Generated programs against the tape engine: every way of running one gives the same bytes.

Hypothesis draws small programs over the public ops: a few leaves of
random shapes, each op reading operands picked from the values so far
(so some are read twice), some values dropped as the forward pass goes
and the rest dropped before ``backward``, bar a few held past it. Each
program runs outside a step workspace, in one, and in a
``tensor._POISON`` one; with every value held to the end (so no dropped
tensor's address is reused); and in a poisoned workspace whose fused ops
run in tiles of 2 items. Every op's output, the loss, the held values
and every leaf gradient must be the same bytes each way.
A directional finite difference checks the gradients of the plain run,
and a held value takes a second ``backward``'s gradient as a leaf does.

Programs whose fused ops keep their operands apart (no tensor, and no
readout row, read twice by one op) and pad no rows also run with each
fused op replaced by its unfused chain from ``tests/helpers.py``; every
op's output, the loss, the held values and every leaf gradient must be
the same bytes as the fused run's. With an operand read twice, a fused op
sums that operand's gradients in another order than its chain does, so
those programs are left out of this check.
"""

import contextlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_attention,
    reference_layer_norm_affine,
    reference_linear,
    reference_mlp,
    reference_readout,
)
from promptcl import (
    Tensor,
    backward,
    concat,
    expand_leading,
    layer_norm_affine,
    linear,
    mlp,
    multi_head_attention,
    narrow,
    no_grad,
    reset_tape,
    row_readout,
    tensor,
)
from promptcl.tensor import active_tape, add, multiply, reduce_mean, reduce_sum, reshape, subtract

D = 4  # the feature width: weights are (D, D), and 1, 2 or 4 heads divide it
BIG = 512  # no op makes a value larger than this


class Ops(NamedTuple):
    """The five fused ops a program calls, or their chains, and whether it keeps their operands apart:
    no operand, and no readout row, read twice by one op, and no ``pad_rows``."""
    linear: Callable
    mlp: Callable
    layer_norm_affine: Callable
    attention: Callable
    readout: Callable
    apart: bool


FUSED = Ops(linear, mlp, layer_norm_affine, multi_head_attention, row_readout, apart=False)
APART = FUSED._replace(apart=True)
CHAINS = Ops(reference_linear, reference_mlp, reference_layer_norm_affine, reference_attention, reference_readout,
             apart=True)


def pick(pool, c, ok=lambda t: True):
    """The live value that ``c`` picks among those ``ok`` accepts, or None."""
    found = [t for t in pool if t is not None and ok(t)]
    return found[c % len(found)] if found else None


def featured(t):
    return t.ndim >= 2 and t.shape[-1] == D


def shaped(shape):
    return lambda t: t.shape == shape


def suffix_of(a):
    """Whether a value may meet ``a`` in an elementwise op: equal, or one a trailing suffix of the other."""
    def ok(t):
        small, big = sorted((t.shape, a.shape), key=len)
        return big[len(big) - len(small):] == small and (len(small) < len(big) or t.shape == a.shape)
    return ok


def picker(ops):
    """``pick`` that, when ``ops.apart``, passes over the operands picked so far."""
    picked = []

    def take(pool, c, ok=lambda t: True):
        picked.append(pick(pool, c, lambda t: ok(t) and not (ops.apart and any(t is a for a in picked))))
        return picked[-1]

    return take


def suffix_of_output(x):
    """Whether a value may be the residual of an op whose output is shaped like ``x``."""
    return lambda t: t.ndim <= x.ndim and x.shape[x.ndim - t.ndim:] == t.shape


def op_linear(pool, c, ops):
    take = picker(ops)
    x, w, b = take(pool, c[0], featured), take(pool, c[1], shaped((D, D))), take(pool, c[2], shaped((D,)))
    if None in (x, w, b):
        return None
    residual = take(pool, c[3], suffix_of_output(x)) if c[4] & 1 else None
    if c[4] & 4 and not ops.apart:
        return linear(x, w, b, residual=residual, pad_rows=x.shape[-2] + c[5] % 4)
    return ops.linear(x, w, b, residual=residual)


def op_mlp(pool, c, ops):
    take = picker(ops)
    x, w1, b1 = take(pool, c[0], featured), take(pool, c[1], shaped((D, D))), take(pool, c[2], shaped((D,)))
    w2, b2 = take(pool, c[1] >> 4, shaped((D, D))), take(pool, c[2] >> 4, shaped((D,)))
    if None in (x, w1, b1, w2, b2):
        return None
    residual = take(pool, c[3], suffix_of_output(x)) if c[4] & 1 else None
    if c[4] & 4 and not ops.apart:
        return mlp(x, w1, b1, w2, b2, residual=residual, pad_rows=x.shape[-2] + c[5] % 4)
    return ops.mlp(x, w1, b1, w2, b2, residual=residual)


def op_layer_norm_affine(pool, c, ops):
    take = picker(ops)
    x, gamma, beta = take(pool, c[0], featured), take(pool, c[1], shaped((D,))), take(pool, c[2], shaped((D,)))
    return None if None in (x, gamma, beta) else ops.layer_norm_affine(x, gamma, beta)


def op_attention(pool, c, ops):
    take = picker(ops)
    k = take(pool, c[0], featured)
    v = take(pool, c[1], shaped(k.shape))
    q = take(pool, c[2], lambda t: featured(t) and t.shape[:-2] == k.shape[:-2] and t.shape[-2] <= k.shape[-2])
    return None if None in (v, q) else ops.attention(q, k, v, (1, 2, 4)[c[3] % 3])


def op_row_readout(pool, c, ops):
    take = picker(ops)
    x = take(pool, c[0], featured)
    rows = [(c[1] >> 4 * j) % x.shape[-2] for j in range(1 + c[2] % 3)]
    if ops.apart:  # a row read twice sums its gradients in another order than the chain's slices
        rows = list(dict.fromkeys(rows))
    weights = [take(pool, c[3] >> 4 * j, shaped((D,))) for j in range(len(rows))]
    biases = [take(pool, c[4] >> 4 * j, shaped(())) for j in range(len(rows))]
    return None if None in weights + biases else ops.readout(x, rows, weights, biases)


def op_concat(pool, c, ops):
    a = pick(pool, c[0], lambda t: t.ndim >= 1)
    ax = c[1] % a.ndim
    fits = lambda t: t.ndim == a.ndim and t.shape[:ax] + t.shape[ax + 1:] == a.shape[:ax] + a.shape[ax + 1:]
    parts = [a] + [pick(pool, c[3] >> 4 * j, fits) for j in range(1 + c[2] % 3)]
    if sum(t.size for t in parts) > BIG:
        return None
    return concat(parts, axis=ax - a.ndim if c[4] & 1 else ax)


def op_narrow(pool, c, ops):
    a = pick(pool, c[0], lambda t: t.ndim >= 1)
    ax = c[1] % a.ndim
    start = c[2] % a.shape[ax]
    return narrow(a, ax, start, start + 1 + c[3] % (a.shape[ax] - start))


def op_expand_leading(pool, c, ops):
    a = pick(pool, c[0], lambda t: t.ndim <= 3)
    n = 1 + c[1] % 3
    return None if a.size * n > BIG else expand_leading(a, n)


def op_reshape(pool, c, ops):
    a = pick(pool, c[0])
    if a.ndim >= 2 and c[1] & 1:
        return reshape(a, (a.shape[0] * a.shape[1],) + a.shape[2:])
    return reshape(a, (1,) + a.shape) if a.ndim <= 3 else None


def elementwise(op):
    def run(pool, c, ops):
        a = pick(pool, c[0])
        b = pick(pool, c[1], suffix_of(a))
        return op(b, a) if c[2] & 1 else op(a, b)
    return run


def reduction(op):
    def run(pool, c, ops):
        a = pick(pool, c[0])
        axis = c[1] % (a.ndim + 1)
        return op(a, None if axis == a.ndim else axis - a.ndim if c[2] & 1 else axis)
    return run


# the fused ops, whose pullbacks hold the most rules, are drawn three times as often
OPS = [op_linear, op_mlp, op_layer_norm_affine, op_attention, op_row_readout] * 3 + [
    op_concat, op_narrow, op_expand_leading, op_reshape, elementwise(add), elementwise(subtract),
    elementwise(multiply), reduction(reduce_sum), reduction(reduce_mean),
    "leaf", "leaf",  # a new leaf mid-program, shaped like a value picked so far, made as one is dropped
]
choices = st.lists(st.integers(0, 1 << 12), min_size=6, max_size=6)
dropping = st.integers(0, 3).map(lambda n: n == 3)  # whether an op lets go of an earlier value


@st.composite
def programs(draw, ops=FUSED):
    lead = draw(st.sampled_from([(), (1,), (3,), (5,), (3, 2)]))
    leaves = [lead + (draw(st.integers(1, 4)), D) for _ in range(draw(st.integers(1, 3)))]
    leaves += [(D, D)] * draw(st.integers(1, 2)) + [(D,)] * draw(st.integers(1, 2)) + [()]
    if ops.apart:  # enough distinct weights for an mlp, and heads for a three-row readout
        leaves += [(D, D)] + [(D,), ()] * 2
    return {
        "fused": ops,
        "seed": draw(st.integers(0, 1 << 16)),
        "leaves": [(shape, draw(st.integers(0, 3)) > 0) for shape in leaves],
        "ops": draw(st.lists(st.tuples(st.sampled_from(OPS), choices, dropping), min_size=1, max_size=12)),
        "terms": draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)),
        "held": draw(st.lists(st.integers(0, 1 << 12), max_size=3)),
    }


def forward(program, step=0.0, kept=None, chains=False):
    """The leaves, their directions, the values made (None where dropped), the output bytes and the loss.

    A leaf's values move by ``step`` along its direction (zero where it
    takes no gradient). Every op's output also goes into ``kept``, when
    given, so that none dies. With ``chains``, the fused ops run as their
    unfused chains.
    """
    assert program["fused"].apart or not chains
    ops = CHAINS if chains else program["fused"]
    leaves, dirs = [], []

    def leaf(shape, requires_grad, seed):
        r = np.random.default_rng(seed)
        data, u = r.normal(size=shape), r.normal(size=shape) if requires_grad else np.zeros(shape)
        dirs.append(u)
        return data + step * u if step else data, requires_grad

    pool = [Tensor(*leaf(shape, rg, program["seed"] + i)) for i, (shape, rg) in enumerate(program["leaves"])]
    leaves.extend(pool)
    made, outs = [], []  # the pool's indices of op outputs
    for op, c, drop in program["ops"]:
        new = leaf(pick(pool, c[0]).shape, c[1] % 4 > 0, c[2]) if op == "leaf" else None
        if (drop or new) and len(made) > 1:  # let go of a value made before the last
            pool[made[c[5] % (len(made) - 1)]] = None
        if new:  # made right after the drop, so that it may take the dropped tensor's address
            leaves.append(Tensor(*new))
        out = leaves[-1] if new else op(pool, c, ops)
        if out is not None:
            outs.append(out.data.tobytes())
            pool.append(out)
            if not new:
                made.append(len(pool) - 1)
                if kept is not None:
                    kept.append(out)
        del out
    made = [pool[i] for i in made]
    r = np.random.default_rng((program["seed"], 1 << 20))  # the targets
    loss = None
    for i, t in enumerate(made):
        kind = program["terms"][i % len(program["terms"])]
        if t is None or kind == 3 and i < len(made) - 1:  # the last value made is always in the loss
            continue
        term = (reduce_sum(t) if kind == 1 else reduce_mean(t) if kind == 2
                else reduce_sum(multiply(t, Tensor(r.normal(size=t.shape)))))
        loss = term if loss is None else add(loss, term)
    return leaves, dirs, made, outs, loss


def run(program, mode):
    """Every byte of one run of ``program``: op outputs, loss, held values and leaf gradients.

    Mode ``chains`` runs it as ``plain`` does, with the fused ops' chains.
    """
    saved = tensor._POISON, tensor._TILE
    tensor._POISON = mode in ("poisoned", "tiled")
    if mode == "tiled":
        tensor._TILE = 2
    try:
        with contextlib.nullcontext() if mode in ("plain", "held", "chains") else tensor.step_workspace() as ws:
            reset_tape()
            kept = [] if mode == "held" else None
            leaves, _, made, outs, loss = forward(program, kept=kept, chains=mode == "chains")
            held = [t for t in (made[h % len(made)] for h in program["held"] if made) if t is not None]
            del made  # every value not held goes before backward
            if loss is not None:
                backward(loss)
                outs.append(loss.data.tobytes())
            assert len(active_tape()) == 0
            result = {"outs": outs, "grads": [None if t.grad is None else t.grad.tobytes() for t in leaves],
                      "held": [t.data.tobytes() for t in held], "second": second_backward(held)}
            del leaves, loss, held, kept
            if ws is not None:
                assert not ws.lent, "a buffer is still lent after the program let go of every value"
    finally:
        tensor._POISON, tensor._TILE = saved
    assert tensor._WORKSPACE is None and len(active_tape()) == 0
    return result


def second_backward(held):
    """A held value recorded before the first backward takes a second one's gradient as a leaf does."""
    recorded = list({id(t): t for t in held if t.requires_grad}.values())
    if not recorded:
        return []
    loss = None
    for t in recorded:
        term = reduce_sum(multiply(t, t))
        loss = term if loss is None else add(loss, term)
    backward(loss)
    for t in recorded:
        assert t.grad is not None and np.array_equal(t.grad, 2.0 * t.data)
    return [t.grad.tobytes() for t in recorded]


def directional_derivative_error(program, grads):
    """How far ``grads`` miss a central difference of the loss along the leaves' directions."""
    def loss_at(step):
        with no_grad():
            loss = forward(program, step)[4]
        return 0.0 if loss is None else float(loss.data)

    eps = 1e-6
    numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
    terms = [np.frombuffer(g).reshape(u.shape) * u for g, u in zip(grads, forward(program)[1]) if g is not None]
    analytic = sum(float(t.sum()) for t in terms)
    return abs(numeric - analytic) / (1.0 + sum(float(np.abs(t).sum()) for t in terms))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(programs())
def test_a_generated_program_gives_the_same_bytes_every_way_it_runs(program):
    want = run(program, "plain")
    for mode in ("workspace", "poisoned", "tiled"):
        assert run(program, mode) == want, mode
    held = run(program, "held")
    assert (held["outs"], held["grads"]) == (want["outs"], want["grads"]), "held"
    assert directional_derivative_error(program, want["grads"]) < 1e-6


# Two linears and a two-row readout whose whole-output sum added column by
# column while the readout kept the layout indexing gives: the generator
# reached it in some processes and not in others, so it runs in every one.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(programs(APART))
@example(program={
    "fused": APART, "seed": 0,
    "leaves": [((3, 1, D), False)] * 2 + [((3, 3, D), False)] + [((D, D), False)] * 2 + [((D,), False), ((), False)]
              + [((D, D), False)] + [((D,), False), ((), False)] * 2,
    "ops": [(op_linear, [248, 0, 0, 0, 0, 0], False), (op_linear, [0] * 6, False),
            (op_row_readout, [6, 1, 1, 0, 0, 0], False)],
    "terms": [1], "held": []})
def test_a_generated_program_gives_the_bytes_of_its_unfused_chains(program):
    assert run(program, "chains") == run(program, "plain")


# The first draws of programs() in a fresh process that loads the suite's
# conftest.py as pytest does, printed one per line with each op named by
# its place in OPS; the argument names the modules it loads first.
FIRST_DRAWS = """
import importlib, sys
import conftest
for name in filter(None, sys.argv[1].split(",")):
    importlib.import_module(name)
from hypothesis import given, settings
from test_tape_programs import OPS, programs

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(programs())
def draw(program):
    print(repr({**program, "fused": None, "ops": [(OPS.index(op), c, d) for op, c, d in program["ops"]]}))

draw()
"""


def test_the_generated_programs_do_not_depend_on_the_modules_loaded_before_them(tmp_path):
    # Collecting perfbench/test_perfbench.py loads the benchmark's run.py and
    # layertrace.py, and Hypothesis drew from their constants: the programs
    # of a whole-suite run differed, from the third on, from those of this
    # file run alone. conftest.py fixes that pool.
    tests = Path(__file__).resolve().parent
    script = tmp_path / "first_draws.py"
    script.write_text(FIRST_DRAWS)
    path = [str(tests), str(tests.parent / "perfbench"), str(tests.parent / "src")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def draws(modules):
        out = subprocess.run([sys.executable, str(script), modules], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True).stdout
        return out.splitlines()

    alone = draws("")
    assert len(alone) == 40
    assert draws("layertrace,run") == alone
