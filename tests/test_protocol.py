"""Task arithmetic, stream construction, run configuration."""

from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptcl import (
    AslConfig,
    ModelConfig,
    RunConfig,
    ShiftParams,
    SyntheticSpec,
    build_task_stream,
    generate_dataset,
    split_class_ids,
)


def test_split_arithmetic_frozen_cases():
    assert len(split_class_ids(80, 40, 10)) == 5
    assert len(split_class_ids(80, 0, 10)) == 8
    assert len(split_class_ids(20, 4, 2)) == 9


def test_split_group_sizes():
    groups = split_class_ids(20, 4, 2)
    assert [len(g) for g in groups] == [4] + [2] * 8
    assert groups[0] == [0, 1, 2, 3]
    assert groups[-1] == [18, 19]
    no_base = split_class_ids(6, 0, 3)
    assert [len(g) for g in no_base] == [3, 3]


def test_split_validation():
    with pytest.raises(ValueError):
        split_class_ids(10, 4, 4)  # remainder 6 not divisible by 4
    with pytest.raises(ValueError):
        split_class_ids(10, 12, 2)
    with pytest.raises(ValueError):
        split_class_ids(10, 4, 0)
    with pytest.raises(ValueError):
        split_class_ids(10, -1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 40), st.integers(1, 12))
def test_split_partition_property(n, base, inc):
    try:
        groups = split_class_ids(n, base, inc)
    except ValueError:
        return
    flat = [c for g in groups for c in g]
    assert flat == list(range(n))  # disjoint, complete, ordered
    assert all(groups)


def tiny_dataset():
    spec = SyntheticSpec(n_classes=6, image_side=8, stamp_side=4, n_train=60,
                         n_test=40, min_labels=1, max_labels=2, min_positive=5,
                         stamp_seed=3)
    return generate_dataset(spec, seed=1)


def test_stream_tasks_are_disjoint_and_cumulative():
    ds = tiny_dataset()
    stream = build_task_stream(ds, base=2, inc=2)
    assert len(stream) == 3
    seen = []
    for task in stream.tasks:
        assert not set(task.class_ids) & set(seen)
        seen.extend(task.class_ids)
    assert sorted(seen) == list(range(6))
    assert stream.cumulative_ids(2) == stream.tasks[0].class_ids + stream.tasks[1].class_ids


def test_stream_membership_needs_a_positive_label():
    ds = tiny_dataset()
    stream = build_task_stream(ds, base=2, inc=2)
    for task in stream.tasks:
        rows = ds.train_labels[task.train_indices][:, task.class_ids]
        assert (rows.sum(axis=1) > 0).all()
        outside = np.setdiff1d(np.arange(ds.train_images.shape[0]), task.train_indices)
        if outside.size:
            assert (ds.train_labels[outside][:, task.class_ids].sum(axis=1) == 0).all()


def test_stream_follows_name_order():
    ds = tiny_dataset()
    # names are already sorted, so ids come out ascending per task
    stream = build_task_stream(ds, base=2, inc=2)
    assert stream.tasks[0].class_ids == [0, 1]
    assert stream.tasks[2].class_ids == [4, 5]
    # scramble the names: the argsort of names decides the dealing order
    ds.class_names[:] = ["f", "e", "d", "c", "b", "a"]
    scrambled = build_task_stream(ds, base=2, inc=2)
    assert scrambled.tasks[0].class_ids == [4, 5]  # names "a", "b"
    assert scrambled.tasks[2].class_ids == [0, 1]


def test_images_may_recur_across_tasks():
    ds = tiny_dataset()
    stream = build_task_stream(ds, base=2, inc=2)
    sets = [set(t.train_indices.tolist()) for t in stream.tasks]
    total = sum(len(s) for s in sets)
    assert total > len(set().union(*sets))  # multi-label images overlap


def test_run_config_defaults_and_validation():
    cfg = RunConfig()
    assert cfg.method == "p2l_ca" and cfg.base_classes == 4 and cfg.inc_classes == 4
    assert cfg.asl.gamma_neg == 4.0
    with pytest.raises(ValueError):
        RunConfig(method="banana")
    with pytest.raises(ValueError):
        RunConfig(lr=0.0)
    with pytest.raises(ValueError):
        RunConfig(threshold=1.0)
    with pytest.raises(ValueError):
        RunConfig(ortho_weight=-0.1)


FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (ModelConfig, AslConfig, RunConfig, ShiftParams, SyntheticSpec)
    for f in fields(cls)
    if get_type_hints(cls)[f.name] is float
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_configs_reject_non_finite_floats(cls, name, value):
    with pytest.raises(ValueError, match=f"^{cls.__name__}: {name} must be finite"):
        cls(**{name: value})


def test_run_config_round_trips_to_dict():
    cfg = RunConfig(model=ModelConfig(embed_dim=8, layers=2, heads=2, image_side=8,
                                      patch_side=4, prompt_layer=1, adapter_start=2,
                                      adapter_dim=3),
                    base_classes=2, inc_classes=2, epochs=3)
    d = cfg.to_dict()
    assert d["model"]["embed_dim"] == 8
    assert d["epochs"] == 3
    rebuilt = RunConfig(model=ModelConfig(**d["model"]),
                        **{k: v for k, v in d.items() if k not in ("model", "asl")})
    assert rebuilt.to_dict() == d
