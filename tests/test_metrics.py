"""Metric oracles: exhaustive AP cross-check, F1 fixtures, forgetting."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ap_reference, f1_counts, forgetting_reference
from promptcl import average_precision, cf1_of1, forgetting, per_class_ap


# -- average precision ------------------------------------------------------


def test_ap_frozen_cases():
    assert average_precision([0.9, 0.1], [1, 0]) == 1.0
    assert average_precision([0.9, 0.1], [0, 1]) == 0.5
    assert abs(average_precision([0.8, 0.6, 0.4], [1, 0, 1]) - 5.0 / 6.0) <= 1e-15


def test_ap_perfect_and_inverted_rankings():
    y = [1, 1, 0, 0]
    assert average_precision([4.0, 3.0, 2.0, 1.0], y) == 1.0
    # both positives ranked last: precision 1/3 and 2/4
    assert abs(average_precision([1.0, 2.0, 3.0, 4.0], y) - (1 / 3 + 2 / 4) / 2) <= 1e-15


def test_ap_ties_rank_by_sample_index():
    # equal scores: index 0 ranks first, so [1,0] under ties is perfect
    assert average_precision([0.5, 0.5], [1, 0]) == 1.0
    assert average_precision([0.5, 0.5], [0, 1]) == 0.5


def test_ap_exhaustive_against_reference():
    # every 0/1 label vector up to length 8 with at least one positive,
    # against deterministic pseudo-random scores (with repeats to force ties)
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        scores = np.round(rng.random(n), 1)  # coarse grid: plenty of ties
        for bits in itertools.product((0, 1), repeat=n):
            if sum(bits) == 0:
                continue
            got = average_precision(scores, list(bits))
            want = ap_reference(scores, bits)
            assert abs(got - want) <= 1e-12, (n, scores.tolist(), bits)


def test_ap_validation():
    with pytest.raises(ValueError):
        average_precision([0.5], [0])  # no positives
    with pytest.raises(ValueError):
        average_precision([0.5, 0.2], [1])
    with pytest.raises(ValueError):
        average_precision([0.5], [2])


def test_per_class_ap_skips_positive_free_columns():
    scores = np.array([[0.9, 0.2], [0.1, 0.8]])
    labels = np.array([[1, 0], [0, 0]])
    aps = per_class_ap(scores, labels)
    assert set(aps) == {0}
    assert aps[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_ap_matches_reference_on_random_instances(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    labels = (rng.random(n) < 0.5).astype(int)
    if labels.sum() == 0:
        labels[int(rng.integers(n))] = 1
    got = average_precision(scores, labels)
    assert abs(got - ap_reference(scores, labels)) <= 1e-12
    assert 0.0 < got <= 1.0


# -- F1 summaries -------------------------------------------------------------


def test_cf1_of1_fixture_two_thirds():
    # class 0: TP=1 FP=1 FN=0; class 1: TP=1 FP=0 FN=1
    scores = np.array([[0.9, 0.8], [0.7, 0.2], [0.1, 0.3]])
    labels = np.array([[1, 1], [0, 1], [0, 0]])
    cf1, of1 = cf1_of1(scores, labels, threshold=0.5)
    assert abs(cf1 - (f1_counts(1, 1, 0) + f1_counts(1, 0, 1)) / 2) <= 1e-15
    assert abs(cf1 - 2.0 / 3.0) <= 1e-15
    assert abs(of1 - f1_counts(2, 1, 1)) <= 1e-15
    assert abs(of1 - 2.0 / 3.0) <= 1e-15


def test_threshold_boundary_counts_as_positive():
    cf1, of1 = cf1_of1(np.array([[0.5]]), np.array([[1]]), threshold=0.5)
    assert cf1 == 1.0 and of1 == 1.0


def test_empty_class_contributes_zero_f1():
    scores = np.array([[0.9, 0.1], [0.8, 0.2]])
    labels = np.array([[1, 0], [1, 0]])
    cf1, of1 = cf1_of1(scores, labels)
    assert abs(cf1 - 0.5) <= 1e-15  # (1.0 + 0.0) / 2
    assert of1 == 1.0


def test_all_negative_predictions_and_labels():
    cf1, of1 = cf1_of1(np.array([[0.1]]), np.array([[0]]))
    assert cf1 == 0.0 and of1 == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_micro_f1_matches_pooled_counts(n, c, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, c))
    labels = (rng.random((n, c)) < 0.5).astype(int)
    _, of1 = cf1_of1(scores, labels)
    pred = scores >= 0.5
    tp = int((pred & (labels == 1)).sum())
    fp = int((pred & (labels == 0)).sum())
    fn = int((~pred & (labels == 1)).sum())
    assert abs(of1 - f1_counts(tp, fp, fn)) <= 1e-12


# -- forgetting ----------------------------------------------------------------


def test_forgetting_frozen_example():
    assert abs(forgetting([[0.90], [0.85, 0.88]]) - 0.05) <= 1e-15


def test_forgetting_single_stage_is_zero():
    assert forgetting([[0.7]]) == 0.0


def test_forgetting_monotone_improvement_is_zero():
    assert forgetting([[0.5], [0.6, 0.7], [0.7, 0.8, 0.9]]) == 0.0


def test_forgetting_ignores_last_task_column():
    # only the first task can be forgotten in a two-stage run
    assert abs(forgetting([[0.9], [0.4, 0.2]]) - 0.5) <= 1e-15


def test_forgetting_validation():
    with pytest.raises(ValueError):
        forgetting([])
    with pytest.raises(ValueError):
        forgetting([[0.5, 0.6]])
    with pytest.raises(ValueError):
        forgetting([[0.5], [0.6]])


def test_forgetting_matches_reference_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rows = [rng.random(t + 1).tolist() for t in range(n)]
        got = forgetting(rows)
        assert abs(got - forgetting_reference(rows)) <= 1e-12
        assert got >= 0.0
