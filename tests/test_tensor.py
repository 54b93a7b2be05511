"""Autodiff core: frozen hand values, finite-difference checks, tape rules."""

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    gradcheck,
    reference_attention,
    reference_layer_norm_affine,
    reference_linear,
    reference_readout,
    scaled_max_error,
)
from promptcl import (
    Tensor,
    backward,
    concat,
    expand_leading,
    finite_difference_gradient,
    layer_norm_affine,
    linear,
    multi_head_attention,
    narrow,
    no_grad,
    reset_tape,
    row_readout,
    zero_grads,
)
from promptcl import tensor
from promptcl.tensor import active_tape, step_workspace


def t(values, requires_grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


# -- frozen forward values ------------------------------------------------


def test_layer_norm_two_point_row():
    # mean 2, population variance 1: normalized row is +/- 1/sqrt(1 + eps).
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    out = t([[1.0, 3.0]]).layer_norm()
    assert np.allclose(out.data, [[-expected, expected]], rtol=0, atol=1e-15)


def test_softmax_uniform_and_shift_invariance():
    out = t([[0.0, 0.0, 0.0, 0.0]]).softmax()
    assert np.allclose(out.data, 0.25, atol=1e-15)
    shifted = t([[1000.0, 1001.0]]).softmax()
    plain = t([[0.0, 1.0]]).softmax()
    assert np.allclose(shifted.data, plain.data, atol=1e-12)


def test_softmax_row_max_gives_the_bytes_of_the_max_reduction():
    # _softmax takes each row's max by a running maximum over the columns;
    # it must give every byte that the literal reduction gives, with tied
    # zeros of either sign, infinities and NaNs in the rows.
    def literal(x):
        e = x - x.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        return e

    r = np.random.default_rng(0)
    for cols in range(1, 65):
        x = r.normal(size=(4, 9, cols))
        x[:, 0] = r.choice([0.0, -0.0], size=cols)  # a tie of signed zeros at the max
        x[:, 1] = -np.abs(x[:, 1])
        x[:, 1, r.permutation(cols)[:2]] = r.choice([0.0, -0.0], size=min(2, cols))
        x[:, 2, r.integers(cols)] = -np.inf
        x[:, 3] = -np.inf
        x[:, 4, r.integers(cols)] = np.nan
        x[:, 5] = np.nan
        x[:, 6, r.integers(cols)] = np.inf
        x[:, 7] = 3.0  # an exact tie of the whole row
        with np.errstate(invalid="ignore"):
            want = literal(x).tobytes()
            got = [tensor._softmax(x).tobytes(), tensor._softmax(x, out=x.copy()).tobytes()]
            into = x.copy()
            got.append(tensor._softmax(into, out=into).tobytes())
        assert got == [want] * 3, f"{cols} columns"


def test_log_softmax_gradient_hand_value():
    # d/dx log softmax(x)[0] at x = (0, 0) is (1 - 1/2, -1/2) = (0.5, -0.5).
    x = t([0.0, 0.0])
    out = narrow(x.softmax().log(), axis=-1, start=0, stop=1)
    backward(out)
    assert np.allclose(x.grad, [0.5, -0.5], atol=1e-12)


def test_finite_difference_matches_square():
    numeric = finite_difference_gradient(lambda v: float(v**2), np.array(3.0))
    assert abs(float(numeric) - 6.0) <= 1e-6


def test_sigmoid_extremes_stay_finite():
    out = t([[-800.0, 0.0, 800.0]]).sigmoid()
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data, [[0.0, 0.5, 1.0]], atol=1e-12)


def test_relu_and_maximum():
    out = t([[-2.0, 0.0, 3.0]]).relu()
    assert np.array_equal(out.data, [[0.0, 0.0, 3.0]])


def test_matmul_forward():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_clamp_forward():
    out = t([[-1.0, 0.5, 2.0]]).clamp(0.0, 1.0)
    assert np.array_equal(out.data, [[0.0, 0.5, 1.0]])


# -- finite-difference sweep over every differentiable op -----------------


def rng_for(seed):
    return np.random.default_rng(seed)


OP_CASES = {
    "add_broadcast": lambda p, r: (p + t(r.normal(size=(4,)), False)).sum(),
    "sub": lambda p, r: (p - t(r.normal(size=(3, 4)), False)).sum(),
    "mul_broadcast": lambda p, r: (p * t(r.normal(size=(4,)), False)).mean(),
    "matmul": lambda p, r: (p @ t(r.normal(size=(4, 2)), False)).sum(),
    "neg": lambda p, r: (-p).sum(),
    "exp": lambda p, r: p.exp().sum(),
    "log": lambda p, r: (p.exp() + 1.0).log().sum(),
    "power": lambda p, r: (p**3.0).sum(),
    "sigmoid": lambda p, r: p.sigmoid().sum(),
    "softmax": lambda p, r: (p.softmax() * t(r.normal(size=(3, 4)), False)).sum(),
    "layer_norm": lambda p, r: (p.layer_norm() * t(r.normal(size=(3, 4)), False)).sum(),
    "mean_axis": lambda p, r: (p.mean(axis=-1) * t(r.normal(size=(3,)), False)).sum(),
    "sum_axis": lambda p, r: (p.sum(axis=0) * t(r.normal(size=(4,)), False)).mean(),
    "transpose": lambda p, r: (p.transpose_last() @ p).sum(),
    "reshape": lambda p, r: (p.reshape((2, 6)) * t(r.normal(size=(2, 6)), False)).sum(),
    "concat": lambda p, r: concat([p, p * 2.0], axis=-1).sum(),
    "narrow": lambda p, r: narrow(p, axis=-1, start=1, stop=3).sum(),
    "expand_leading": lambda p, r: (
        expand_leading(p, 5) * t(r.normal(size=(5, 3, 4)), False)
    ).sum(),
    "maximum": lambda p, r: p.maximum(0.1).sum(),
    "clamp": lambda p, r: p.clamp(-0.5, 0.5).sum(),
    # the fused ops, with p feeding every differentiable input
    "linear": lambda p, r: (
        linear(p, p.transpose_last(), p.sum(axis=-1)) * t(r.normal(size=(3, 3)), False)
    ).sum(),
    "linear_residual_relu": lambda p, r: (
        linear(p, p.transpose_last(), p.sum(axis=-1), residual=p @ p.transpose_last(), relu=True)
        * t(r.normal(size=(3, 3)), False)
    ).sum(),
    "layer_norm_affine": lambda p, r: (
        layer_norm_affine(p, p.mean(axis=0), p.sum(axis=0)) * t(r.normal(size=(3, 4)), False)
    ).sum(),
    "multi_head_attention": lambda p, r: (
        multi_head_attention(p, p * t(r.normal(size=(3, 4)), False), p.exp(), heads=2)
        * t(r.normal(size=(3, 4)), False)
    ).sum(),
    "multi_head_attention_fewer_queries": lambda p, r: (
        multi_head_attention(narrow(p, -2, 0, 2), p * t(r.normal(size=(3, 4)), False), p.exp(), heads=2)
        * t(r.normal(size=(2, 4)), False)
    ).sum(),
    "row_readout": lambda p, r: (
        row_readout(p, [2, 0, 2], [p.mean(axis=0), t(r.normal(size=(4,)), False), p.sum(axis=0)],
                    [p.sum(), t(0.3, False), t(-0.1)])
        * t(r.normal(size=(3,)), False)
    ).sum(),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradient_matches_finite_difference(name):
    build = OP_CASES[name]
    for seed in range(3):
        r = rng_for(seed)
        param = t(r.normal(size=(3, 4)) + (0.6 if name == "maximum" else 0.0))
        frozen = rng_for(seed)
        frozen.normal(size=(3, 4))  # advance to match param draw
        err = gradcheck(lambda: build(param, rng_for(seed + 1000)), param)
        assert err <= 1e-4, f"{name} seed {seed}: scaled error {err}"


FUSED = (linear, layer_norm_affine, multi_head_attention, row_readout)
UNFUSED = (reference_linear, reference_layer_norm_affine, reference_attention, reference_readout)


def _block_and_readout(ops, arrays, heads, rows, gamma_trainable, queries=None):
    """Pre-norm transformer block plus per-row readout, on fresh leaves.

    With ``queries``, only the first ``queries`` tokens attend (to all
    tokens) and the block outputs only their rows.
    """
    lin, norm_affine, attention, readout = ops
    p = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    p["gamma"].requires_grad = gamma_trainable
    h = norm_affine(p["x"], p["gamma"], p["beta"])
    h_q, x_q = (h, p["x"]) if queries is None else (narrow(h, -2, 0, queries), narrow(p["x"], -2, 0, queries))
    q, k, v = lin(h_q, p["wq"], p["bq"]), lin(h, p["wk"], p["bk"]), lin(h, p["wv"], p["bv"])
    x_o = lin(attention(q, k, v, heads), p["wo"], p["bo"], residual=x_q)
    hidden = lin(norm_affine(x_o, p["gamma"], p["beta"]), p["w1"], p["b1"], relu=True)
    y = lin(hidden, p["w2"], p["b2"], residual=x_o)
    logits = readout(y, rows, [p[f"head{j}_w"] for j in range(len(rows))],
                     [p[f"head{j}_b"] for j in range(len(rows))])
    loss = (logits * Tensor(arrays["target"][..., :len(rows)])).sum()
    outs = [y.data.copy(), logits.data.copy(), loss.data.copy()]  # a step workspace recycles them in backward
    backward(loss)
    reset_tape()
    return outs, {name: leaf.grad for name, leaf in p.items()}


def block_arrays(batch, heads):
    """Inputs and weights of ``_block_and_readout`` for one parameter case."""
    r = rng_for(batch * 10 + heads)
    n, d = 5, 8
    arrays = {"x": r.normal(size=(batch, n, d)), "gamma": 1.0 + 0.1 * r.normal(size=d),
              "beta": 0.1 * r.normal(size=d), "target": r.normal(size=(batch, 3))}
    for name, shape in (("q", (d, d)), ("k", (d, d)), ("v", (d, d)), ("o", (d, d)),
                        ("1", (d, 4 * d)), ("2", (4 * d, d))):
        arrays[f"w{name}"] = 0.3 * r.normal(size=shape)
        arrays[f"b{name}"] = 0.1 * r.normal(size=shape[1])
    for j in range(3):
        arrays[f"head{j}_w"] = r.normal(size=d)
        arrays[f"head{j}_b"] = np.float64(r.normal())
    return arrays


@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("gamma_trainable", [True, False])
@pytest.mark.parametrize("rows", [[3, 0, 4], [2]])
def test_fused_ops_are_byte_identical_to_unfused_chain(batch, heads, gamma_trainable, rows):
    arrays = block_arrays(batch, heads)
    fused_outs, fused_grads = _block_and_readout(FUSED, arrays, heads, rows, gamma_trainable)
    plain_outs, plain_grads = _block_and_readout(UNFUSED, arrays, heads, rows, gamma_trainable)
    for fused, plain in zip(fused_outs, plain_outs):
        assert fused.tobytes() == plain.tobytes()
    assert (fused_grads["gamma"] is None) == (not gamma_trainable)
    for name, plain in plain_grads.items():
        fused = fused_grads[name]
        if plain is None:
            assert fused is None, name
        else:
            assert fused.shape == plain.shape and fused.tobytes() == plain.tobytes(), name


@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("gamma_trainable", [True, False])
def test_fused_attention_with_fewer_queries_is_byte_identical_to_unfused_chain(batch, heads, gamma_trainable):
    arrays = block_arrays(batch, heads)
    rows = [2, 0]
    fused_outs, fused_grads = _block_and_readout(FUSED, arrays, heads, rows, gamma_trainable, queries=3)
    plain_outs, plain_grads = _block_and_readout(UNFUSED, arrays, heads, rows, gamma_trainable, queries=3)
    assert fused_outs[0].shape == (batch, 3, 8)
    for fused, plain in zip(fused_outs, plain_outs):
        assert fused.tobytes() == plain.tobytes()
    assert fused_grads.keys() == plain_grads.keys()
    for name, plain in plain_grads.items():
        fused = fused_grads[name]
        if plain is None:
            assert fused is None, name
        else:
            assert fused.shape == plain.shape and fused.tobytes() == plain.tobytes(), name


def _attention_and_grads(attention, arrays, heads, needs):
    """Output and q/k/v gradients of ``(attention(q, k, v) * target).sum()``.

    ``needs`` says which of q, k and v require grad; the others get None.
    """
    q, k, v = (Tensor(arrays[name], requires_grad=need) for name, need in zip("qkv", needs))
    out = attention(q, k, v, heads)
    data = out.data.copy()  # a step workspace recycles it in backward
    if any(needs):
        backward((out * Tensor(arrays["target"])).sum())
    reset_tape()
    return data, [x.grad for x in (q, k, v)]


@pytest.mark.parametrize("heads", [1, 2, 4, 8, 32])
@pytest.mark.parametrize("lead", [(), (7,), (2, 3)], ids=["2d", "batch", "two-batch-axes"])
@pytest.mark.parametrize("queries", [20, 2, 1])
def test_fused_attention_matches_the_unfused_chain_in_every_layout(monkeypatch, heads, lead, queries):
    # Width 32 at every head count, so 32 heads are one feature wide; every
    # subset of q, k and v requires grad; in and out of a poisoned workspace.
    r = rng_for(heads * 100 + len(lead) * 10 + queries)
    keys, d = 20, 32
    arrays = {"q": r.normal(size=lead + (queries, d)), "k": r.normal(size=lead + (keys, d)),
              "v": r.normal(size=lead + (keys, d)), "target": r.normal(size=lead + (queries, d))}
    for poisoned in (False, True):
        monkeypatch.setattr(tensor, "_POISON", poisoned)
        for needs in itertools.product([False, True], repeat=3):
            with step_workspace() if poisoned else contextlib.nullcontext():
                fused, fused_grads = _attention_and_grads(multi_head_attention, arrays, heads, needs)
                plain, plain_grads = _attention_and_grads(reference_attention, arrays, heads, needs)
            assert fused.shape == lead + (queries, d) and fused.tobytes() == plain.tobytes()
            for name, need, got, want in zip("qkv", needs, fused_grads, plain_grads):
                if not need:
                    assert got is None and want is None, name
                else:
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, needs)


@pytest.mark.parametrize("rows, pad_rows, k, m", [(4, 20, 128, 32), (24, 40, 32, 32), (3, 3, 32, 128)])
@pytest.mark.parametrize("relu", [False, True])
def test_linear_pad_rows_gives_the_leading_rows_of_the_padded_input(rows, pad_rows, k, m, relu):
    # The input gradient of a rows-row input equals, bit for bit, the
    # leading rows of the gradient of a pad_rows-row input whose other rows
    # get zero adjoint. A plain rows-row product differs for some row counts
    # and widths (the first two cases, with OpenBLAS).
    r = rng_for(rows)
    x_all, w, b = r.normal(size=(3, pad_rows, k)), r.normal(size=(k, m)), r.normal(size=m)
    target = r.normal(size=(3, rows, m))

    def input_grad(x_data, **kwargs):
        x = t(x_data)
        out = linear(x, t(w), t(b), relu=relu, **kwargs)
        backward((narrow(out, -2, 0, rows) * t(target, False)).sum())
        reset_tape()
        return x.grad

    full = input_grad(x_all)
    padded = input_grad(x_all[:, :rows], pad_rows=pad_rows)
    assert padded.tobytes() == np.ascontiguousarray(full[:, :rows]).tobytes()
    with pytest.raises(ValueError, match="pad_rows"):
        linear(t(x_all), t(w), t(b), pad_rows=pad_rows - 1)


def test_fused_ops_record_one_tape_entry_each():
    x = t(np.ones((2, 3, 4)))
    w, b, ones = t(np.ones((4, 4))), t(np.zeros(4)), t(np.ones(4))
    for make in (
        lambda: linear(x, w, b),
        lambda: linear(x, w, b, residual=x, relu=True),
        lambda: layer_norm_affine(x, ones, b),
        lambda: multi_head_attention(x, x, x, heads=2),
        lambda: row_readout(x, [0, 2], [b, ones], [t(0.0), t(1.0)]),
    ):
        reset_tape()
        make()
        assert len(active_tape()) == 1


def test_fused_ops_reject_mismatched_shapes():
    x = t(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="linear"):
        linear(x, t(np.zeros((3, 4))), t(np.zeros(4)))
    with pytest.raises(ValueError, match="residual"):
        linear(x, t(np.zeros((4, 4))), t(np.zeros(4)), residual=t(np.zeros((2, 4))))
    with pytest.raises(ValueError, match="layer_norm_affine"):
        layer_norm_affine(x, t(np.ones(3)), t(np.zeros(4)))
    with pytest.raises(ValueError, match="multi_head_attention"):
        multi_head_attention(x, x, x, heads=3)
    empty = t(np.zeros((2, 3, 0)))
    with pytest.raises(ValueError, match="multi_head_attention: width 0"):
        multi_head_attention(empty, empty, empty, heads=1)
    assert multi_head_attention(narrow(x, -2, 0, 1), x, x, heads=2).shape == (2, 1, 4)
    with pytest.raises(ValueError, match="row_readout"):
        row_readout(x, [3], [t(np.zeros(4))], [t(0.0)])
    with pytest.raises(ValueError, match="row_readout"):
        row_readout(x, [0, 1], [t(np.zeros(4))], [t(0.0)])


def test_power_zero_exponent_has_zero_grad():
    x = t([[2.0, 3.0]])
    backward((x**0.0).sum())
    assert np.array_equal(x.grad, [[0.0, 0.0]])


# -- tape discipline -------------------------------------------------------


def test_backward_twice_doubles_leaf_grads():
    x = t([[1.0, 2.0]])
    out = (x * x).sum()
    backward(out)
    first = x.grad.copy()
    backward(out)
    assert np.allclose(x.grad, 2.0 * first, atol=1e-15)


def test_zero_grads_then_backward_starts_fresh():
    x = t([1.0, 2.0])
    out = (x * 3.0).sum()
    backward(out)
    zero_grads([x])
    assert x.grad is None
    backward(out)
    assert np.array_equal(x.grad, [3.0, 3.0])


def test_no_grad_skips_recording():
    x = t([1.0, 2.0])
    with no_grad():
        out = (x * x).sum()
    backward(out)  # nothing recorded: leaf grads untouched
    assert x.grad is None


def test_backward_requires_scalar():
    x = t([[1.0, 2.0]])
    with pytest.raises(ValueError):
        backward(x * 2.0)


def test_constant_graph_backward_is_noop_on_leaves():
    x = t([1.0, 2.0], requires_grad=False)
    out = (x * 2.0).sum()
    backward(out)
    assert x.grad is None


# -- shape and domain errors ----------------------------------------------


def test_broadcast_requires_suffix_shape():
    a = t(np.zeros((4, 3)))
    b = t(np.zeros((4, 1)))
    with pytest.raises(ValueError) as exc:
        _ = a + b
    assert "(4, 3)" in str(exc.value) and "(4, 1)" in str(exc.value)


def test_mismatched_matmul_reports_op_and_shapes():
    a = t(np.zeros((2, 3)))
    b = t(np.zeros((4, 2)))
    with pytest.raises(ValueError) as exc:
        _ = a @ b
    msg = str(exc.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4, 2)" in msg


def test_matmul_requires_2d():
    with pytest.raises(ValueError):
        _ = t([1.0, 2.0]) @ t([[1.0], [2.0]])


def test_log_rejects_non_positive():
    with pytest.raises(ValueError):
        t([[1.0, 0.0]]).log()
    with pytest.raises(ValueError):
        t([[-1.0]]).log()


def test_clamp_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        t([1.0]).clamp(1.0, 0.0)


def test_concat_rejects_mismatched_other_axes():
    with pytest.raises(ValueError):
        concat([t(np.zeros((2, 3))), t(np.zeros((3, 3)))], axis=-1)


def test_narrow_rejects_out_of_range():
    with pytest.raises(ValueError):
        narrow(t(np.zeros((2, 3))), axis=-1, start=2, stop=4)


# -- broadcasting gradient shape ------------------------------------------


def test_broadcast_grad_sums_leading_axes():
    bias = t(np.ones(4))
    full = t(np.ones((5, 4)), requires_grad=False)
    backward((full + bias).sum())
    assert np.array_equal(bias.grad, [5.0, 5.0, 5.0, 5.0])


def test_batched_matmul_grads():
    a = t(np.arange(12, dtype=np.float64).reshape(2, 2, 3) / 10.0)
    b = t(np.arange(12, dtype=np.float64).reshape(2, 3, 2) / 10.0)
    err_a = gradcheck(lambda: (a @ b).sum(), a)
    err_b = gradcheck(lambda: (a @ b).sum(), b)
    assert err_a <= 1e-4 and err_b <= 1e-4


# -- determinism and property checks --------------------------------------


def test_forward_backward_deterministic():
    def run():
        reset_tape()
        x = t(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        out = (x.softmax().log() * -1.0).mean()
        backward(out)
        return out.data.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(values):
    reset_tape()
    out = t([values]).softmax()
    assert np.allclose(out.data.sum(), 1.0, atol=1e-12)
    assert np.all(out.data >= 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
)
def test_addition_gradient_is_ones_for_both(lhs, rhs):
    reset_tape()
    a, b = t(lhs), t(rhs)
    backward((a + b).sum())
    assert np.array_equal(a.grad, np.ones(4))
    assert np.array_equal(b.grad, np.ones(4))


@pytest.mark.parametrize("q_shape, k_shape, v_shape", [
    ((2, 4, 4), (2, 3, 4), (2, 3, 4)),  # more queries than keys
    ((2, 3, 6), (2, 3, 4), (2, 3, 4)),  # query width differs
    ((2, 2, 4), (2, 3, 4), (2, 3, 6)),  # value width differs
    ((2, 2, 4), (2, 3, 4), (2, 2, 4)),  # keys and values differ in length
    ((3, 2, 4), (2, 3, 4), (2, 3, 4)),  # leading dims differ
    ((2, 4), (2, 3, 4), (2, 3, 4)),     # ranks differ
])
def test_attention_rejects_mismatched_query_key_value_shapes(q_shape, k_shape, v_shape):
    q, k, v = (t(np.zeros(shape)) for shape in (q_shape, k_shape, v_shape))
    with pytest.raises(ValueError) as err:
        multi_head_attention(q, k, v, heads=2)
    message = str(err.value)
    assert message.startswith("multi_head_attention")
    for shape in (q_shape, k_shape, v_shape):
        assert str(shape) in message
