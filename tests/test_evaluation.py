"""Metrics, splitting, sentence overlap, and injection."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtstack import (
    DegenerateDataset,
    Document,
    InvalidConfig,
    SplitSpec,
    auroc,
    bootstrap_auroc_ci,
    consistent_sentence_proportion,
    evaluate_scores,
    inject_human_sentences,
    normalize_sentence,
    split_dataset,
    tpr_at_fpr,
)

from conftest import make_doc

# Independent oracles ------------------------------------------------------


def brute_force_auroc(scores, labels):
    """O(P * N) pairwise definition: wins plus half-credit ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def scan_tpr_at_fpr(scores, labels, max_fpr):
    """Try every candidate threshold; keep the best TPR with FPR <= cap."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    best = 0.0
    for threshold in sorted(set(scores)) + [-math.inf]:
        fpr = sum(1 for s in neg if s > threshold) / len(neg)
        if fpr <= max_fpr:
            best = max(best, sum(1 for s in pos if s > threshold) / len(pos))
    return best


score_label_sets = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=2,
    max_size=40,
).filter(lambda rows: {y for _, y in rows} == {0, 1})


# --------------------------------------------------------------------------
# AUROC


def test_auroc_hand_example():
    # Pairs: (0.9, 0.8) win, (0.9, 0.2) win, (0.3, 0.8) loss, (0.3, 0.2) win.
    assert auroc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75


def test_auroc_perfect_and_inverted():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auroc_all_tied_is_half():
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auroc_tie_gives_exact_half_credit():
    # One win, one tie out of two pairs: 1.5 / 2.
    assert auroc([0.7, 0.7, 0.4], [1, 0, 0]) == 0.75


@given(score_label_sets)
@settings(max_examples=300)
def test_auroc_matches_brute_force_exactly(rows):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    assert auroc(scores, labels) == brute_force_auroc(scores, labels)


@given(score_label_sets)
@settings(max_examples=200)
def test_auroc_antisymmetry(rows):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    assert auroc(scores, labels) + auroc([-s for s in scores], labels) == 1.0


@given(score_label_sets)
@settings(max_examples=200)
def test_auroc_invariant_to_monotone_transform(rows):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    transformed = [3.0 * s + 1.5 for s in scores]
    assert auroc(scores, labels) == auroc(transformed, labels)


def test_auroc_validation():
    with pytest.raises(InvalidConfig):
        auroc([], [])
    with pytest.raises(InvalidConfig):
        auroc([0.5], [1, 0])
    with pytest.raises(InvalidConfig):
        auroc([0.5, float("inf")], [1, 0])
    with pytest.raises(InvalidConfig):
        auroc([0.5, 0.4], [1, 2])
    with pytest.raises(DegenerateDataset):
        auroc([0.5, 0.4], [1, 1])


# --------------------------------------------------------------------------
# TPR at capped FPR


def test_tpr_at_fpr_hand_example():
    scores = [0.95, 0.8, 0.6, 0.4, 0.9, 0.7, 0.5, 0.3]
    labels = [1, 1, 1, 1, 0, 0, 0, 0]
    # cap 0.25 over 4 negatives admits one: threshold 0.7, positives above
    # it are 0.95 and 0.8.
    assert tpr_at_fpr(scores, labels, 0.25) == 0.5
    # cap 0 admits none: threshold 0.9, only 0.95 clears it.
    assert tpr_at_fpr(scores, labels, 0.0) == 0.25


def test_tpr_at_fpr_strictness_with_ties():
    # Positive tied with the threshold negative is NOT caught (strict >).
    assert tpr_at_fpr([0.9, 0.9, 0.1], [1, 0, 0], 0.0) == 0.0


@given(score_label_sets, st.sampled_from([0.0, 0.005, 0.05, 0.1, 0.25, 0.5]))
@settings(max_examples=300)
def test_tpr_matches_threshold_scan(rows, cap):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    assert tpr_at_fpr(scores, labels, cap) == scan_tpr_at_fpr(scores, labels, cap)


@given(score_label_sets)
@settings(max_examples=100)
def test_tpr_monotone_in_cap(rows):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    caps = [0.0, 0.05, 0.2, 0.5]
    values = [tpr_at_fpr(scores, labels, c) for c in caps]
    assert values == sorted(values)


def test_tpr_cap_validation():
    with pytest.raises(InvalidConfig):
        tpr_at_fpr([0.5, 0.4], [1, 0], 1.0)
    with pytest.raises(InvalidConfig):
        tpr_at_fpr([0.5, 0.4], [1, 0], -0.1)


# --------------------------------------------------------------------------
# bootstrap CI


def test_bootstrap_ci_brackets_point_estimate():
    rng = np.random.default_rng(0)
    pos = rng.normal(1.0, 1.0, 60)
    neg = rng.normal(0.0, 1.0, 60)
    point = auroc(np.r_[pos, neg], [1] * 60 + [0] * 60)
    lo, hi = bootstrap_auroc_ci(pos, neg, n_boot=500, rng=np.random.default_rng(1))
    assert lo <= point <= hi
    assert 0.0 <= lo <= hi <= 1.0


def test_bootstrap_ci_deterministic_under_rng():
    pos, neg = [0.9, 0.7, 0.8], [0.2, 0.4, 0.3]
    a = bootstrap_auroc_ci(pos, neg, n_boot=200, rng=np.random.default_rng(5))
    b = bootstrap_auroc_ci(pos, neg, n_boot=200, rng=np.random.default_rng(5))
    assert a == b


def test_bootstrap_ci_degenerate_separation_collapses():
    lo, hi = bootstrap_auroc_ci([0.9, 0.9], [0.1, 0.1], n_boot=50)
    assert lo == hi == 1.0


def test_bootstrap_ci_validation():
    with pytest.raises(DegenerateDataset):
        bootstrap_auroc_ci([], [0.5])
    with pytest.raises(InvalidConfig):
        bootstrap_auroc_ci([0.5], [0.4], n_boot=0)


@pytest.mark.parametrize(
    "bad", [[0.5, math.nan], [0.5, math.inf], [0.5, -math.inf], [[0.1, 0.2]]], ids=["nan", "inf", "-inf", "2d"]
)
@pytest.mark.parametrize("side", ["pos", "neg"])
def test_bootstrap_ci_rejects_bad_scores_before_drawing(bad, side):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    args = (bad, [0.3, 0.4]) if side == "pos" else ([0.3, 0.4], bad)
    with pytest.raises(InvalidConfig):
        bootstrap_auroc_ci(*args, n_boot=5, rng=rng)
    assert rng.bit_generator.state == state


def reference_bootstrap_auroc_ci(pos_scores, neg_scores, n_boot, level, rng):
    """The resample loop, each resample scored by the pairwise definition."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    labels = np.r_[np.ones(pos.size, dtype=np.int64), np.zeros(neg.size, dtype=np.int64)]
    stats = np.empty(n_boot)
    for b in range(n_boot):
        ps = pos[rng.integers(0, pos.size, pos.size)]
        ns = neg[rng.integers(0, neg.size, neg.size)]
        stats[b] = brute_force_auroc(np.r_[ps, ns].tolist(), labels)
    lo, hi = np.quantile(stats, [(1 - level) / 2, 1 - (1 - level) / 2])
    return float(lo), float(hi)


tied_scores = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
untied_scores = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(
    st.sampled_from([tied_scores, untied_scores]).flatmap(
        lambda scores: st.tuples(st.lists(scores, min_size=1, max_size=30), st.lists(scores, min_size=1, max_size=30))
    ),
    st.integers(min_value=1, max_value=50),
    st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_bootstrap_ci_matches_resample_and_rank_loop_bit_for_bit(classes, n_boot, level, seed):
    pos, neg = classes
    fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = bootstrap_auroc_ci(pos, neg, n_boot=n_boot, level=level, rng=fast_rng)
    assert fast == reference_bootstrap_auroc_ci(pos, neg, n_boot, level, ref_rng)
    # Same draws in the same order: both generators end in the same state.
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


# --------------------------------------------------------------------------
# splitting


def docs_with_labels(labels):
    return [
        Document.from_text(f"d{i}", f"Sentence number {i} stands alone.", label=y)
        for i, y in enumerate(labels)
    ]


def test_split_8_docs_2_1_1():
    docs = docs_with_labels([1, 1, 1, 1, 0, 0, 0, 0])
    train, val, test = split_dataset(docs, SplitSpec(seed=0))
    assert (len(train), len(val), len(test)) == (4, 2, 2)
    # Stratified: each split is half machine.
    assert sum(d.label for d in train) == 2
    assert sum(d.label for d in val) == 1
    assert sum(d.label for d in test) == 1


def test_split_disjoint_exhaustive_deterministic():
    docs = docs_with_labels([1, 0] * 10)
    a = split_dataset(docs, SplitSpec(seed=3))
    b = split_dataset(docs, SplitSpec(seed=3))
    assert [[d.id for d in part] for part in a] == [[d.id for d in part] for part in b]
    ids = [d.id for part in a for d in part]
    assert sorted(ids) == sorted(d.id for d in docs)
    c = split_dataset(docs, SplitSpec(seed=4))
    assert [[d.id for d in part] for part in a] != [[d.id for d in part] for part in c]


def test_split_all_train_ratio():
    docs = docs_with_labels([1, 0, 1, 0])
    train, val, test = split_dataset(docs, SplitSpec(ratios=(1.0, 0.0, 0.0)))
    assert len(train) == 4 and not val and not test


def test_split_handles_unlabeled_stratum():
    docs = docs_with_labels([1, 0, None, None, 1, 0, None, None])
    train, val, test = split_dataset(docs, SplitSpec(seed=1))
    assert len(train) + len(val) + len(test) == 8
    assert sum(1 for d in train if d.label is None) == 2


def test_split_spec_validation():
    with pytest.raises(InvalidConfig):
        SplitSpec(ratios=(1.0, 1.0))
    with pytest.raises(InvalidConfig):
        SplitSpec(ratios=(-1.0, 1.0, 1.0))
    with pytest.raises(DegenerateDataset):
        split_dataset([], SplitSpec())


# --------------------------------------------------------------------------
# sentence normalization and overlap


def test_normalize_sentence():
    assert normalize_sentence(" The  Cat\tsat. ") == "the cat sat"
    assert normalize_sentence("DONE!!!") == "done"
    assert normalize_sentence("Hi…") == "hi"
    assert normalize_sentence("already clean") == "already clean"


def test_consistent_sentence_proportion_hand_example():
    human = [make_doc(["Aa bb.", "Cc dd."], doc_id="h")]
    machine = [make_doc(["Aa bb.", "Xx yy."], doc_id="m")]
    assert consistent_sentence_proportion(human, machine) == 0.5


def test_overlap_ignores_case_whitespace_and_terminators():
    human = [make_doc(["The cat sat."], doc_id="h")]
    machine = [Document.from_text("m", "THE   CAT SAT! Other words.")]
    assert consistent_sentence_proportion(human, machine) == 0.5


def test_overlap_invariant_to_human_duplication():
    human = [make_doc(["Aa bb.", "Cc dd."], doc_id="h")]
    machine = [make_doc(["Aa bb.", "Xx yy.", "Zz ww."], doc_id="m")]
    once = consistent_sentence_proportion(human, machine)
    assert consistent_sentence_proportion(human * 3, machine) == once


def test_overlap_requires_non_empty():
    human = [make_doc(["Aa bb."], doc_id="h")]
    with pytest.raises(DegenerateDataset):
        consistent_sentence_proportion([], human)
    with pytest.raises(DegenerateDataset):
        consistent_sentence_proportion(human, [])


# --------------------------------------------------------------------------
# injection


def test_inject_zero_is_identity():
    doc = make_doc(["Aa bb.", "Cc dd."], doc_id="m", label=1)
    assert inject_human_sentences(doc, ["Hh ii."], 0, random.Random(0)) is doc


def test_inject_replaces_exact_count():
    doc = make_doc([f"Machine line {i} runs." for i in range(5)], doc_id="m", label=1)
    pool = ["Human words here.", "More human words."]
    out = inject_human_sentences(doc, pool, 2, random.Random(3))
    assert out.id == doc.id and out.label == doc.label
    assert out.n_sentences == doc.n_sentences
    changed = [
        i for i, (a, b) in enumerate(zip(doc.sentence_texts(), out.sentence_texts())) if a != b
    ]
    assert len(changed) == 2
    for i in changed:
        assert out.sentence_texts()[i] in pool


def test_inject_preserves_separators():
    text = "First machine line.   Second machine line. Third machine line."
    doc = Document.from_text("m", text, label=1)
    out = inject_human_sentences(doc, ["Human sentence instead."], 1, random.Random(1))
    # The triple-space separator between sentences 1 and 2 must survive.
    assert ".   " in out.text


def test_inject_deterministic_per_seed():
    doc = make_doc([f"Machine line {i} runs." for i in range(6)], doc_id="m", label=1)
    pool = ["Human one.", "Human two.", "Human three."]
    a = inject_human_sentences(doc, pool, 3, random.Random(9)).text
    b = inject_human_sentences(doc, pool, 3, random.Random(9)).text
    assert a == b


def test_inject_validation():
    doc = make_doc(["Aa bb.", "Cc dd."], doc_id="m", label=1)
    with pytest.raises(InvalidConfig):
        inject_human_sentences(doc, [], 1, random.Random(0))
    with pytest.raises(InvalidConfig):
        inject_human_sentences(doc, ["Hh ii."], 2, random.Random(0))
    with pytest.raises(InvalidConfig):
        inject_human_sentences(doc, ["Hh ii."], -1, random.Random(0))


# --------------------------------------------------------------------------
# reports


def test_evaluate_scores_report_fields():
    report = evaluate_scores([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], seed=5)
    assert report.auroc == 1.0
    assert report.n_pos == 2 and report.n_neg == 2
    assert set(report.tpr_at_fpr) == {0.005, 0.05}
    payload = json.loads(report.to_json())
    assert payload["auroc"] == 1.0
    assert payload["tpr_at_fpr"] == {"0.005": 1.0, "0.05": 1.0}
    assert payload["seed"] == 5
