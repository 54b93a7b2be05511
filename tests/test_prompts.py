"""Prompt pool, classifier bank, freezing, semantic init, orthogonality."""

import re

import numpy as np
import pytest

from helpers import gradcheck
from promptcl import (
    ClassifierBank,
    PromptPool,
    Tensor,
    add_class_prompts,
    backward,
    classify,
    freeze_previous,
    load_semantic_embeddings,
    orthogonality_penalty,
)
from promptcl.prompts import semantic_projection


def fresh(dim=4, seed=0):
    return PromptPool(dim, seed), ClassifierBank(dim, seed)


def test_add_orders_ascending_and_tracks_stage():
    pool, bank = fresh()
    add_class_prompts(pool, bank, [7, 2, 5], stage=1)
    add_class_prompts(pool, bank, [9, 0], stage=2)
    assert pool.class_ids == [2, 5, 7, 0, 9]
    assert bank.class_ids == pool.class_ids
    assert [e.stage_added for e in pool.entries] == [1, 1, 1, 2, 2]
    assert all(not e.frozen for e in pool.entries)


def test_add_rejects_duplicates_and_divergence():
    pool, bank = fresh()
    add_class_prompts(pool, bank, [1], stage=1)
    with pytest.raises(ValueError):
        add_class_prompts(pool, bank, [1], stage=2)
    with pytest.raises(ValueError):
        add_class_prompts(pool, bank, [3, 3], stage=2)
    stray = ClassifierBank(4, 0)
    with pytest.raises(ValueError):
        add_class_prompts(pool, stray, [4], stage=2)


def test_add_copies_the_callers_array_so_training_leaves_it_alone():
    from promptcl.training import Adam

    pool, bank = fresh()
    v, w = np.full(4, 0.5), np.full(4, 0.5)
    pool.add(0, 1, vector=v)
    bank.add(0, 1, weight=w)
    params = {"v": pool.entry(0).vector, "w": bank.entry(0).weight}
    for t in params.values():
        t.grad = np.ones(4)
    Adam(params).step(0.1)
    assert np.allclose(params["v"].data, 0.4)
    assert np.array_equal(v, np.full(4, 0.5)) and np.array_equal(w, np.full(4, 0.5))


@pytest.mark.parametrize("shape", [(3,), (5,), (1, 4), ()])
def test_add_rejects_a_vector_of_the_wrong_shape(shape):
    for container, key in ((PromptPool(4), "vector"), (ClassifierBank(4), "weight")):
        name = type(container).__name__
        with pytest.raises(ValueError, match=rf"{name}\.add: class 7 shape {re.escape(str(shape))} is not \(4,\)"):
            container.add(7, 1, **{key: np.zeros(shape)})
        assert len(container) == 0


def test_initialization_is_seed_deterministic_per_class():
    pool_a, bank_a = fresh(seed=5)
    pool_b, bank_b = fresh(seed=5)
    add_class_prompts(pool_a, bank_a, [3, 1], stage=1)
    add_class_prompts(pool_b, bank_b, [1], stage=1)
    add_class_prompts(pool_b, bank_b, [3], stage=2)
    # class identity, not insertion order, decides the draw
    assert np.array_equal(pool_a.entry(1).vector.data, pool_b.entry(1).vector.data)
    assert np.array_equal(pool_a.entry(3).vector.data, pool_b.entry(3).vector.data)
    assert np.array_equal(bank_a.entry(3).weight.data, bank_b.entry(3).weight.data)
    assert float(bank_a.entry(3).bias.data) == 0.0


def test_freeze_previous_only_touches_older_stages():
    pool, bank = fresh()
    add_class_prompts(pool, bank, [0, 1], stage=1)
    add_class_prompts(pool, bank, [2, 3], stage=2)
    freeze_previous(pool, bank, current_stage=2)
    assert [e.frozen for e in pool.entries] == [True, True, False, False]
    assert [e.frozen for e in bank.entries] == [True, True, False, False]
    freeze_previous(pool, bank, current_stage=2)  # idempotent
    assert [e.frozen for e in pool.entries] == [True, True, False, False]


def test_freeze_previous_can_spare_prompts():
    pool, bank = fresh()
    add_class_prompts(pool, bank, [0], stage=1)
    add_class_prompts(pool, bank, [1], stage=2)
    freeze_previous(pool, bank, current_stage=2, freeze_prompts=False)
    assert not pool.entry(0).frozen
    assert bank.entry(0).frozen


def test_classify_hand_value():
    pool, bank = fresh(dim=2)
    add_class_prompts(pool, bank, [0], stage=1)
    bank.entry(0).weight.data = np.array([3.0, -1.0])
    bank.entry(0).bias.data = np.array(0.5)
    o_P = Tensor(np.array([[1.0, 2.0]]))
    logits = classify(o_P, bank)
    assert logits.shape == (1,)
    assert abs(float(logits.data[0]) - 1.5) <= 1e-15


def test_classify_columns_follow_requested_order():
    pool, bank = fresh(dim=2)
    add_class_prompts(pool, bank, [0, 1, 2], stage=1)
    for i, e in enumerate(bank.entries):
        e.weight.data = np.array([1.0, 0.0]) * (i + 1)
        e.bias.data = np.array(0.0)
    o_P = Tensor(np.array([[1.0, 9.0], [1.0, 9.0], [1.0, 9.0]]))
    all_logits = classify(o_P, bank)
    assert np.allclose(all_logits.data, [1.0, 2.0, 3.0], atol=1e-15)
    subset = classify(o_P, bank, class_ids=[2, 0])
    assert np.allclose(subset.data, [3.0, 1.0], atol=1e-15)


def test_classify_validates_rows_and_ids():
    pool, bank = fresh(dim=2)
    add_class_prompts(pool, bank, [0, 1], stage=1)
    # a read row outside o_P: past its end, or before ``start``
    with pytest.raises(ValueError, match="row 1 of 1"):
        classify(Tensor(np.zeros((1, 2))), bank)
    with pytest.raises(ValueError, match="row -1 of 2"):
        classify(Tensor(np.zeros((2, 2))), bank, class_ids=[0], start=1)
    with pytest.raises(ValueError, match="no head for class 5"):
        classify(Tensor(np.zeros((2, 2))), bank, class_ids=[5])
    # a row past the last head, such as a patch row, is allowed and never read
    assert classify(Tensor(np.zeros((3, 2))), bank).shape == (2,)


def test_classify_batched():
    pool, bank = fresh(dim=2)
    add_class_prompts(pool, bank, [0, 1], stage=1)
    bank.entry(0).weight.data = np.array([1.0, 0.0])
    bank.entry(1).weight.data = np.array([0.0, 1.0])
    for e in bank.entries:
        e.bias.data = np.array(0.0)
    o_P = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]))
    logits = classify(o_P, bank)
    assert logits.shape == (2, 2)
    assert np.allclose(logits.data, [[1.0, 4.0], [5.0, 8.0]], atol=1e-15)


def test_classify_gradients():
    pool, bank = fresh(dim=3)
    add_class_prompts(pool, bank, [0, 1], stage=1)
    o_P = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
    w = bank.entry(1).weight
    assert gradcheck(lambda: classify(o_P, bank).sum(), w) <= 1e-4
    assert gradcheck(lambda: classify(o_P, bank).sum(), o_P) <= 1e-4


# -- orthogonality ---------------------------------------------------------


def test_orthogonality_penalty_values():
    pool, bank = fresh(dim=2)
    add_class_prompts(pool, bank, [0, 1], stage=1)
    pool.entry(0).vector.data = np.array([1.0, 0.0])
    pool.entry(1).vector.data = np.array([0.0, 2.0])
    assert abs(float(orthogonality_penalty(pool).data)) <= 1e-15
    pool.entry(1).vector.data = np.array([3.0, 0.0])  # parallel -> cos = 1 both ways
    assert abs(float(orthogonality_penalty(pool).data) - 2.0) <= 1e-12


def test_orthogonality_penalty_single_prompt_is_zero():
    pool, bank = fresh(dim=2)
    add_class_prompts(pool, bank, [0], stage=1)
    assert abs(float(orthogonality_penalty(pool).data)) <= 1e-15


def test_orthogonality_penalty_rejects_zero_norm_and_empty():
    pool, bank = fresh(dim=2)
    with pytest.raises(ValueError):
        orthogonality_penalty(pool)
    add_class_prompts(pool, bank, [0], stage=1)
    pool.entry(0).vector.data = np.zeros(2)
    with pytest.raises(ValueError):
        orthogonality_penalty(pool)


def test_orthogonality_penalty_gradient():
    pool, bank = fresh(dim=3)
    add_class_prompts(pool, bank, [0, 1, 2], stage=1)
    v = pool.entry(1).vector
    assert gradcheck(lambda: orthogonality_penalty(pool), v) <= 1e-4


# -- semantic initialization -------------------------------------------------


def test_semantic_projection_identity_and_isometry():
    assert np.array_equal(semantic_projection(4, 4, 0), np.eye(4))
    proj = semantic_projection(16, 4, 3)
    assert proj.shape == (4, 16)
    assert np.allclose(proj @ proj.T, np.eye(4), atol=1e-10)


def test_semantic_init_uses_projected_vectors():
    pool, bank = fresh(dim=3)
    emb = {0: np.array([0.5, -1.0, 2.0])}
    add_class_prompts(pool, bank, [0], stage=1, semantic=emb)
    assert np.allclose(pool.entry(0).vector.data, [0.5, -1.0, 2.0], atol=1e-15)


def test_semantic_init_validates_missing_rows():
    pool, bank = fresh(dim=3)
    emb = {0: np.zeros(3)}
    with pytest.raises(ValueError):
        add_class_prompts(pool, bank, [0, 1], stage=1, semantic=emb)


def test_semantic_init_takes_the_table_width_from_its_vectors():
    pool, bank = fresh(dim=3)
    emb = {4: np.arange(5.0), 9: np.ones(5)}
    add_class_prompts(pool, bank, [], stage=1, semantic={})  # nothing to add, nothing to index
    assert pool.class_ids == [] and bank.class_ids == []
    add_class_prompts(pool, bank, [9, 4], stage=1, semantic=emb)
    proj = semantic_projection(5, 3, pool.seed)
    for cid in (4, 9):
        assert np.array_equal(pool.entry(cid).vector.data, proj @ emb[cid])


def test_load_semantic_embeddings_round_trip(tmp_path):
    path = tmp_path / "emb.tsv"
    lines = ["# comment", ""]
    for cid in range(20):
        values = ",".join(str(0.1 * cid + 0.01 * j) for j in range(6))
        lines.append(f"{cid}\t{values}")
    path.write_text("\n".join(lines) + "\n")
    emb = load_semantic_embeddings(path)
    assert sorted(emb) == list(range(20)) and all(v.shape == (6,) for v in emb.values())
    assert np.allclose(emb[19][0], 1.9, atol=1e-12)


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("0\t1.0,2.0\nnot a row\n", 2),
        ("0\t1.0,2.0\n0\t3.0,4.0\n", 2),
        ("0\t1.0,2.0\n1\t1.0\n", 2),
        ("x\t1.0\n", 1),
        ("0\t1.0,abc\n", 1),
        ("0\t1.0,2.0\n1\tnan,1\n", 2),
        ("0\tinf,1\n", 1),
        ("0\t1.0,2.0\n# note\n1\t1e999,-inf\n", 3),
    ],
)
def test_load_semantic_embeddings_errors_cite_line(tmp_path, body, lineno):
    path = tmp_path / "bad.tsv"
    path.write_text(body)
    with pytest.raises(ValueError) as exc:
        load_semantic_embeddings(path)
    assert f"line {lineno}" in str(exc.value)


def test_load_semantic_embeddings_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError):
        load_semantic_embeddings(path)


def test_named_parameters_use_class_ids():
    pool, bank = fresh()
    add_class_prompts(pool, bank, [12, 3], stage=1)
    assert set(pool.named()) == {"prompt.0003", "prompt.0012"}
    assert set(bank.named()) == {"head.0003.w", "head.0003.b", "head.0012.w", "head.0012.b"}
