"""Two-pass stacked inference and the filtered training loop."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtstack import (
    DegenerateDataset,
    Detector,
    Document,
    FilterConfig,
    InvalidConfig,
    NGramLMDetector,
    NGramLogRegModel,
    StackedDetector,
    Span,
    SynthSpec,
    TrainConfig,
    bin_log_likelihood,
    grad_update,
    human_sentence_pool,
    inject_human_sentences,
    score_corpus,
    stacked_infer_detail,
    synth_corpus,
    tokenize,
    train_hard_em,
    train_plain,
)

from mgtstack.detectors import _BOS, _bucket_ids, _bucket_memo, _units
from mgtstack.retention import compute_mask
from mgtstack.segmentation import group_subsequences, group_texts, reconstruct
from mgtstack import stacked
from mgtstack.stacked import first_pass

from conftest import MapDetector, make_doc

SENTS = ["Aa zz.", "Bb qq.", "Cc xx.", "Dd vv.", "Ee ww.", "Ff zz."]


def detector_for(doc: Document, scores: list[float], k: int = 1) -> MapDetector:
    """MapDetector scoring each k-group of ``doc`` by position."""
    subseq = group_subsequences(doc, k)
    texts = group_texts(doc, subseq)
    assert len(texts) == len(scores)
    return MapDetector(dict(zip(texts, scores)), default=0.77)


# --------------------------------------------------------------------------
# inference


def test_two_pass_call_pattern_and_reconstruction():
    doc = make_doc(SENTS)
    scores = [0.9, 0.002, 0.8, 0.001, 0.7, 0.6]
    base = detector_for(doc, scores)
    sd = StackedDetector(base, FilterConfig(r_e=0.01, tau=0.5, k=1))
    res = stacked_infer_detail(sd, doc)
    # budget = floor(0.5 * 6) = 3; the two sub-floor scores drop.
    assert res.mask.bits == (1, 0, 1, 0, 1, 1)
    assert res.n_groups == 6
    assert res.n_filtered == 2
    # First pass scored each group, second pass the retained concatenation.
    assert base.calls[:6] == doc.sentence_texts()
    assert base.calls[6] == "Aa zz. Cc xx. Ee ww. Ff zz."
    assert len(base.calls) == res.n_groups + 1
    assert res.score == 0.77  # the default: second-pass text is new


def test_total_scored_chars_at_most_double():
    doc = make_doc(SENTS)
    base = detector_for(doc, [0.9, 0.002, 0.8, 0.001, 0.7, 0.6])
    sd = StackedDetector(base, FilterConfig(tau=0.5, k=1))
    stacked_infer_detail(sd, doc)
    assert sum(len(c) for c in base.calls) <= 2 * len(doc.text)


def test_tau_zero_skips_first_pass_entirely():
    doc = make_doc(SENTS)
    base = MapDetector({doc.text: 0.42})
    sd = StackedDetector(base, FilterConfig(tau=0.0, k=1))
    res = stacked_infer_detail(sd, doc)
    assert base.calls == [doc.text]
    assert res.score == 0.42
    assert res.n_filtered == 0
    assert res.mask.bits == (1,) * 6


def test_budget_zero_from_few_groups_skips_first_pass():
    # Three groups at tau = 0.25: floor(0.75) = 0, so no first pass either.
    doc = make_doc(SENTS[:3])
    base = MapDetector({doc.text: 0.9})
    sd = StackedDetector(base, FilterConfig(tau=0.25, k=1))
    assert stacked_infer_detail(sd, doc).score == 0.9
    assert base.calls == [doc.text]


def test_all_retained_second_pass_sees_original_text():
    # Odd inter-sentence whitespace survives when nothing is dropped, because
    # the second pass is handed the document text itself, not a re-join.
    text = "Aa zz.   Bb qq.  Cc xx. Dd vv."
    doc = Document.from_text("d", text)
    base = MapDetector(default=0.95)  # every group looks machine-ish
    sd = StackedDetector(base, FilterConfig(tau=0.5, k=1))
    res = stacked_infer_detail(sd, doc)
    assert res.n_filtered == 0
    assert base.calls[-1] == text


def test_single_sentence_document():
    doc = make_doc(["Only one here."])
    base = MapDetector({doc.text: 0.3})
    sd = StackedDetector(base, FilterConfig())
    res = stacked_infer_detail(sd, doc)
    assert res.n_groups == 1
    assert res.score == 0.3
    assert base.calls == [doc.text]


def test_grouping_respects_k():
    doc = make_doc(SENTS)  # 6 sentences, k = 3 -> 2 groups
    base = MapDetector(default=0.002)
    sd = StackedDetector(base, FilterConfig(r_e=0.01, tau=0.5, k=3))
    res = stacked_infer_detail(sd, doc)
    assert res.n_groups == 2
    # budget = 1, both groups sub-floor; the lower (score, index) pair drops.
    assert res.mask.bits == (0, 1)


def test_first_pass_ignores_labels():
    text = " ".join(SENTS)
    base = detector_for(Document.from_text("d", text), [0.9, 0.002, 0.8, 0.001, 0.7, 0.6])
    cfg = FilterConfig(tau=0.5, k=1)
    masks = {
        first_pass(base, [Document.from_text("d", text, label=label)], cfg)[0][1].bits
        for label in (None, 0, 1)
    }
    assert len(masks) == 1


def test_stacked_detector_is_a_detector():
    sd = StackedDetector(MapDetector())
    assert isinstance(sd, Detector)
    assert sd.cfg == FilterConfig()
    doc = make_doc(SENTS)
    assert sd.score(doc.text) == score_corpus(sd.base, [doc], sd.cfg)[0].score


def test_stacked_score_on_raw_text():
    base = MapDetector(default=0.25)
    sd = StackedDetector(base, FilterConfig(tau=0.0))
    assert sd.score("Some text here. More text there.") == 0.25


def test_single_document_calls_match_the_corpus_engine():
    docs = [make_doc(SENTS, "a"), make_doc(SENTS[:3], "b"), make_doc(SENTS[2:], "c")]
    table = {s: (0.001 if i % 2 else 0.9) for i, s in enumerate(SENTS)}
    cfg = FilterConfig(tau=0.5, k=1)
    sd = StackedDetector(MapDetector(table), cfg)
    results = score_corpus(sd.base, docs, cfg)
    assert [r.n_filtered for r in results] == [3, 1, 2]
    assert results == [stacked_infer_detail(sd, doc) for doc in docs]
    assert [r.score for r in results] == [sd.score(doc.text) for doc in docs]
    assert [r.mask for r in results] == [first_pass(sd.base, [doc], cfg)[0][1] for doc in docs]


def test_corpus_engine_batches_each_pass():
    # Pass 1 scores every group of every filtering document before pass 2
    # scores any retained text; a zero-budget document only shows up in pass 2.
    docs = [make_doc(SENTS, "a"), make_doc(SENTS[:1], "b"), make_doc(SENTS[:4], "c")]
    base = MapDetector({"Bb qq.": 0.001}, default=0.9)
    results = score_corpus(base, docs, FilterConfig(tau=0.5, k=1))
    assert base.calls[:10] == SENTS + SENTS[:4]
    assert base.calls[10:] == ["Aa zz. Cc xx. Dd vv. Ee ww. Ff zz.", docs[1].text, "Aa zz. Cc xx. Dd vv."]
    assert [r.n_filtered for r in results] == [1, 0, 1]
    assert score_corpus(base, [], FilterConfig()) == []


def reference_result(base, doc: Document, cfg: FilterConfig) -> tuple:
    """The two-pass rule for one document, written out step by step."""
    subseq = group_subsequences(doc, cfg.k)
    n = len(subseq)
    if cfg.budget(n) == 0:
        return base.score(doc.text), n, 0, (1,) * n
    mask = compute_mask([base.score(t) for t in group_texts(doc, subseq)], cfg)
    retained = doc.text if all(mask) else reconstruct(doc, subseq, mask)
    return base.score(retained), n, mask.n_filtered, mask.bits


@pytest.fixture(scope="module")
def engine_corpus():
    spec = SynthSpec(n_docs=30, seed=3, sentences_per_doc=(4, 15))
    pool = human_sentence_pool(spec, 40, 5)
    rng = random.Random(1)
    docs = [
        inject_human_sentences(d, pool, 2, rng) if d.label == 1 else d
        for d in synth_corpus(spec)
    ]
    lm = NGramLMDetector.fit(synth_corpus(SynthSpec(n_docs=40, seed=4)))
    # Light smoothing and more text, so higher-order groups fall under r_e
    # and retained texts have joins whose context crosses dropped groups.
    lm_docs = synth_corpus(SynthSpec(n_docs=200, seed=4))
    train = [(d, d.label) for d in synth_corpus(SynthSpec(n_docs=40, seed=5))]
    bigram, _ = train_plain(
        NGramLogRegModel.new(n=2, hash_buckets=2**12), train, TrainConfig(epochs=8, lr=1.0, batch_size=8)
    )
    texts = sorted({t for k in (1, 3) for d in docs for t in group_texts(d, group_subsequences(d, k))})
    table = {t: (0.001 if i % 3 == 0 else 0.9) for i, t in enumerate(texts)}
    lm2, lm3 = (NGramLMDetector.fit(lm_docs, n=n, lam=0.01) for n in (2, 3))
    bases = {"lm": lm, "lm2": lm2, "lm3": lm3, "bigram": bigram, "map": MapDetector(table, default=0.6)}
    return docs, bases


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("tau", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("base_name", ["lm", "lm2", "lm3", "bigram", "map"])
def test_score_corpus_matches_per_document_reference(engine_corpus, base_name, tau, k):
    docs, bases = engine_corpus
    base = bases[base_name]
    cfg = FilterConfig(r_e=0.01, tau=tau, k=k)
    got = [(r.score, r.n_groups, r.n_filtered, r.mask.bits) for r in score_corpus(base, docs, cfg)]
    assert got == [reference_result(base, doc, cfg) for doc in docs]
    if tau == 0.5:
        assert sum(row[2] for row in got) > 0  # the filter actually engaged


# Words whose casefold is longer than they are (İ -> i + U+0307, ß -> ss,
# ﬁ -> fi), so token offsets in the casefolded text drift from the original.
HYP_WORDS = ["aa", "bb", "cc", "dd", "İstanbul", "Straße", "ﬁne", "don't", "x9"]
hyp_sentences = st.one_of(
    st.sampled_from(["...", "!?", "…", "?!."]),  # no tokens at all
    st.builds(
        lambda words, end: " ".join(words) + end,
        st.lists(st.sampled_from(HYP_WORDS), min_size=1, max_size=5),
        st.sampled_from([".", "!", "?"]),
    ),
)
hyp_docs = st.lists(hyp_sentences, min_size=1, max_size=12).map(
    lambda sentences: Document.from_text("h", " ".join(sentences))
)
HYP_LMS = {
    n: NGramLMDetector.fit(
        [
            Document.from_text("m1", "aa bb aa. İstanbul aa bb! Bb aa ﬁne.", label=1),
            Document.from_text("m2", "Aa bb x9 aa. Don't aa bb.", label=1),
            Document.from_text("h1", "cc dd Straße. Dd cc dd? Cc don't.", label=0),
            Document.from_text("h2", "Straße cc. Dd dd cc x9.", label=0),
        ],
        n=n,
    )
    for n in (1, 2, 3)
}


def reference_terms(n, lam, counts, tokens, context=()):
    """Per-token terms of one class's raw n-gram counts, computed one position
    at a time: P(w|ctx) = (c(ctx,w)+lam)/(c(ctx)+lam*V), V = vocabulary + 1."""
    m = n - 1
    history = [_BOS] * m + list(context[len(context) - m :])
    padded = history[len(history) - m :] + list(tokens)
    lam_v = lam * (len({gram[-1] for gram in counts}) + 1)
    log = math.log

    def context_count(ctx):
        return sum(c for gram, c in counts.items() if gram[:-1] == ctx)

    return [
        log(counts.get(gram, 0) + lam) - log(context_count(gram[:-1]) + lam_v)
        for gram in zip(*(padded[j:] for j in range(n)))
    ]


# Every token the fit documents hold, some seen by one class only
# ("i", "stanbul" from İstanbul; "strasse"), plus one no document holds.
TERM_TOKENS = sorted({t for w in HYP_WORDS for t in tokenize(w)}) + ["zz"]


@settings(max_examples=300, deadline=None)
@given(
    order=st.sampled_from(list(HYP_LMS)),
    tokens=st.lists(st.sampled_from(TERM_TOKENS), max_size=10),
    context=st.lists(st.sampled_from(TERM_TOKENS), max_size=4),
)
def test_lm_term_tables_match_reference_bit_for_bit(order, tokens, context):
    # Contexts both shorter and longer than n - 1, for orders 1 to 3.
    det = HYP_LMS[order]
    for counts, memo in zip((det.machine, det.human), det._memo):
        assert memo.terms(tokens, context) == reference_terms(det.n, det.lam, counts, tokens, context)
        assert memo.terms(tokens) == reference_terms(det.n, det.lam, counts, tokens)


@pytest.mark.parametrize("order", sorted(HYP_LMS))
def test_lm_unseen_ngrams_leave_term_tables_unchanged(order):
    # An unseen n-gram's term is its context's; looking it up stores nothing.
    det = HYP_LMS[order]
    sizes = [len(memo) for memo in det._memo]
    text = "qq rr. Ss qq aa! Zz bb cc qq."  # mostly words neither class has seen
    det.score(text)
    det.log_ratio(text)
    det.score_two_pass(["qq rr.", "Ss qq aa!", "Zz bb cc qq."], FilterConfig(r_e=0.3, tau=0.5, k=1))
    assert [len(memo) for memo in det._memo] == sizes


@settings(max_examples=300, deadline=None)
@given(
    doc=hyp_docs,
    order=st.sampled_from(list(HYP_LMS)),
    r_e=st.sampled_from([0.01, 0.3, 0.49]),
    tau=st.sampled_from([0.25, 0.5, 0.75]),
    k=st.integers(1, 3),
)
def test_lm_score_once_matches_reference_bit_for_bit(doc, order, r_e, tau, k):
    base, cfg = HYP_LMS[order], FilterConfig(r_e=r_e, tau=tau, k=k)
    got = [(r.score, r.n_groups, r.n_filtered, r.mask.bits) for r in score_corpus(base, [doc], cfg)]
    assert got == [reference_result(base, doc, cfg)]


@settings(max_examples=200, deadline=None)
@given(doc=hyp_docs, k=st.integers(1, 3))
def test_group_tokens_concatenate_to_document_tokens(doc, k):
    # What lets the score-once route rebuild a retained text's tokens, and a
    # kept-everything document's, from its groups' tokens.
    groups = group_texts(doc, group_subsequences(doc, k))
    assert [t for g in groups for t in tokenize(g)] == tokenize(doc.text)


@pytest.mark.parametrize("tau, k", [(0.25, 3), (0.5, 1)])
def test_lm_base_scores_each_group_once_and_no_retained_text(engine_corpus, monkeypatch, tau, k):
    # A silent fallback to the two-batch route would also score every
    # retained text, and a kept-everything document's own text.
    docs, bases = engine_corpus
    calls: list[str] = []
    score = NGramLMDetector.score
    monkeypatch.setattr(NGramLMDetector, "score", lambda self, text, **kw: calls.append(text) or score(self, text, **kw))
    cfg = FilterConfig(tau=tau, k=k)
    expected = []
    for d in docs:
        subseq = group_subsequences(d, k)
        expected += [d.text] if cfg.budget(len(subseq)) == 0 else group_texts(d, subseq)
    assert len(expected) > len(docs)
    for name in ("lm", "lm2", "lm3"):
        calls.clear()
        score_corpus(bases[name], docs, cfg)
        assert calls == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lm_score_once_on_hand_built_spans(n):
    # Spans other than the splitter's: whole-text equality when everything
    # is kept rests on the Document invariant, not on split_sentences.
    text = "aa bb, cc dd; aa cc? bb"
    doc = Document("d", text, sentences=(Span(0, 6), Span(7, 13), Span(14, 20), Span(21, 23)))
    base = HYP_LMS[n]
    filtered = 0
    for tau, r_e in ((0.5, 0.0), (0.5, 0.49), (0.75, 0.49)):
        cfg = FilterConfig(r_e=r_e, tau=tau, k=1)
        got = score_corpus(base, [doc], cfg)[0]
        assert (got.score, got.n_groups, got.n_filtered, got.mask.bits) == reference_result(base, doc, cfg)
        filtered += got.n_filtered
    assert filtered > 0
    assert score_corpus(base, [doc], FilterConfig(r_e=0.0, tau=0.5, k=1))[0].score == base.score(text)


# Gaps a Document may hold between its sentences and around them: char-mode
# n-grams read them, word mode breaks at each.
GAPS = [" ", "  ", "\n\n", "\t", "\u00a0", "\u2003"]


@st.composite
def gapped_docs(draw):
    sentences = draw(st.lists(hyp_sentences, min_size=1, max_size=8))
    text = draw(st.sampled_from(["", *GAPS]))
    spans = []
    for i, sentence in enumerate(sentences):
        if i:
            text += draw(st.sampled_from(GAPS))
        spans.append(Span(len(text), len(text) + len(sentence)))
        text += sentence
    text += draw(st.sampled_from(["", *GAPS]))
    return Document("g", text, sentences=tuple(spans))


@settings(max_examples=300, deadline=None)
@given(doc=gapped_docs(), feature_mode=st.sampled_from(["word", "char"]), n=st.integers(1, 3), k=st.integers(1, 3))
def test_cut_ids_of_a_group_piece_are_the_groups_own(doc, feature_mode, n, k):
    # Cut where the logistic route cuts, at group boundaries: the whole
    # text's ids are its own, and each group's piece holds, as a multiset,
    # the ids of the group's text.
    model = NGramLogRegModel.new(n, feature_mode, 2**20)
    memo = _bucket_memo(model.hash_buckets, model.hash_seed)
    spans = doc.sentences
    groups = group_subsequences(doc, k)
    cuts = [0, *(c for lo, hi in groups for c in (spans[lo].start, spans[hi - 1].end)), len(doc.text)]
    ids, pieces = model._cut_ids(doc.text, cuts)
    assert ids == _bucket_ids(_units(doc.text, feature_mode), feature_mode, n, memo)
    assert len(pieces) == len(groups)
    for a, b, piece in zip(cuts[1::2], cuts[2::2], pieces):
        assert sorted(piece) == sorted(_bucket_ids(_units(doc.text[a:b], feature_mode), feature_mode, n, memo))


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(gapped_docs(), min_size=1, max_size=4),
    feature_mode=st.sampled_from(["word", "char"]),
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    weight_seed=st.integers(0, 2**32 - 1),
    r_e=st.sampled_from([0.01, 0.3, 0.49]),
    tau=st.sampled_from([0.0, 0.5, 0.75]),
    chunk=st.sampled_from([1, 3, 512]),
)
def test_logreg_score_corpus_matches_reference_bit_for_bit(docs, feature_mode, n, k, weight_seed, r_e, tau, chunk):
    # The logistic route featurizes each document once and takes its groups'
    # n-grams out of the document's.  Chunks of 1 or 3 groups make a corpus
    # span several chunks.
    weights = np.random.default_rng(weight_seed).normal(0.0, 1.5, 16)
    model = NGramLogRegModel(n, feature_mode, 16, weights, 0.0)
    cfg = FilterConfig(r_e=r_e, tau=tau, k=k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stacked, "_SCORE_CHUNK", chunk)
        results = score_corpus(model, docs, cfg)
    got = [(r.score.hex(), r.n_groups, r.n_filtered, r.mask.bits) for r in results]
    expected = [(score.hex(), *rest) for score, *rest in (reference_result(model, d, cfg) for d in docs)]
    assert got == expected


# --------------------------------------------------------------------------
# training


def small_corpus(n_docs=40, seed=11):
    docs = synth_corpus(SynthSpec(n_docs=n_docs, seed=seed))
    return [(doc, doc.label) for doc in docs]


def test_tau_zero_training_is_bitwise_plain():
    data = small_corpus()
    base = NGramLogRegModel.new(hash_buckets=2**12)
    tc = TrainConfig(epochs=2, lr=0.2, batch_size=8, tau=0.0, seed=3)
    em_model, em_trace = train_hard_em(base, data, tc)
    pl_model, pl_trace = train_plain(base, data, tc)
    assert np.array_equal(em_model.weights, pl_model.weights)
    assert em_model.bias == pl_model.bias
    assert [r.mean_q for r in em_trace.epochs] == [r.mean_q for r in pl_trace.epochs]
    assert all(r.filtered_fraction == 0.0 for r in em_trace.epochs)


def test_zero_epochs_returns_base_unchanged():
    data = small_corpus()
    base = NGramLogRegModel.new(hash_buckets=2**12)
    model, trace = train_hard_em(base, data, TrainConfig(epochs=0))
    assert model is base
    assert trace.epochs == ()


def test_m_step_does_not_decrease_objective_under_frozen_masks():
    # One explicit EM step with the masks held fixed: the ascent property of
    # the inner update, checked directly on masked texts.
    data = small_corpus()
    base = NGramLogRegModel.new(hash_buckets=2**12)
    tc = TrainConfig(epochs=1, lr=0.2, batch_size=16, seed=0)
    model, _ = train_hard_em(base, data, tc)
    first = first_pass(model, [doc for doc, _ in data], tc.filter_config())
    masked = [(text, y) for (text, _), (_, y) in zip(first, data)]
    before = bin_log_likelihood(model, masked)
    after = bin_log_likelihood(grad_update(model, masked, 1e-3), masked)
    assert after >= before


def test_training_separates_toy_classes():
    data = small_corpus(n_docs=60, seed=2)
    base = NGramLogRegModel.new(hash_buckets=2**12)
    tc = TrainConfig(epochs=10, lr=1.0, batch_size=16, seed=1)
    model, trace = train_hard_em(base, data, tc)
    correct = sum(1 for doc, y in data if (model.score(doc.text) >= 0.5) == bool(y))
    assert correct == len(data)
    assert len(trace.epochs) == 10
    assert [r.epoch for r in trace.epochs] == list(range(10))
    for rec in trace.epochs:
        assert rec.wall_seconds >= 0.0
        assert 0.0 <= rec.filtered_fraction <= tc.tau + 1e-9


def test_filtered_fraction_positive_when_filtering_engages():
    # A detector trained to near-certainty pushes human-looking groups under
    # r_e, so later epochs actually filter.
    data = small_corpus(n_docs=60, seed=2)
    base = NGramLogRegModel.new(hash_buckets=2**12)
    tc = TrainConfig(epochs=6, lr=1.0, batch_size=16, seed=1, r_e=0.2, tau=0.4, k=1)
    _, trace = train_hard_em(base, data, tc)
    assert trace.epochs[-1].filtered_fraction > 0.0


def test_training_requires_both_classes():
    docs = synth_corpus(SynthSpec(n_docs=20, seed=0))
    machine_only = [(d, 1) for d in docs]
    base = NGramLogRegModel.new(hash_buckets=256)
    with pytest.raises(DegenerateDataset):
        train_hard_em(base, machine_only, TrainConfig(epochs=1))
    with pytest.raises(DegenerateDataset):
        train_hard_em(base, [], TrainConfig(epochs=1))


def test_training_rejects_bad_labels():
    doc = make_doc(["Aa zz."])
    base = NGramLogRegModel.new(hash_buckets=256)
    with pytest.raises(InvalidConfig):
        train_hard_em(base, [(doc, 1), (doc, 2)], TrainConfig(epochs=1))


def test_training_rejects_untrainable_base():
    data = small_corpus(n_docs=10)
    lm = NGramLMDetector.fit([d for d, _ in data])
    for train in (train_hard_em, train_plain):
        with pytest.raises(InvalidConfig):
            train(lm, data, TrainConfig(epochs=1))


def test_training_is_seed_deterministic():
    data = small_corpus()
    base = NGramLogRegModel.new(hash_buckets=2**12)
    tc = TrainConfig(epochs=2, lr=0.3, batch_size=8, seed=7)
    m1, _ = train_hard_em(base, data, tc)
    m2, _ = train_hard_em(base, data, tc)
    assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias


def reference_hard_em(base, data, tc):
    """Hard EM written out step by step, with first_pass as its E-step."""
    cfg, rng, model = tc.filter_config(), random.Random(tc.seed), base
    trace = []
    for epoch in range(tc.epochs):
        order = list(range(len(data)))
        rng.shuffle(order)
        q_sum, n_batches, filtered, total = 0.0, 0, 0, 0
        for start in range(0, len(order), tc.batch_size):
            batch = order[start : start + tc.batch_size]
            first = first_pass(model, [data[i][0] for i in batch], cfg)
            masked = [(text, data[i][1]) for (text, _), i in zip(first, batch)]
            filtered += sum(mask.n_filtered for _, mask in first)
            total += sum(len(mask) for _, mask in first)
            q_sum += bin_log_likelihood(model, masked)
            n_batches += 1
            model = grad_update(model, masked, tc.lr)
        trace.append((epoch, (q_sum / n_batches).hex(), (filtered / total).hex()))
    return model, trace


@pytest.mark.parametrize("feature_mode, n, lr", [("word", 2, 1.0), ("char", 3, 0.01)])
def test_hard_em_matches_first_pass_reference(feature_mode, n, lr):
    # The E-step scores each document's stored pass-1 block with the current
    # weights; the trajectory must be the one first_pass gives, bit for bit.
    data = small_corpus(n_docs=60, seed=2)
    base = NGramLogRegModel.new(n=n, feature_mode=feature_mode, hash_buckets=4096)
    tc = TrainConfig(epochs=3, lr=lr, batch_size=16, seed=1, r_e=0.2, tau=0.4, k=1)
    model, trace = train_hard_em(base, data, tc)
    ref_model, ref_trace = reference_hard_em(base, data, tc)
    assert model.weights.tobytes() == ref_model.weights.tobytes()
    assert model.bias.hex() == ref_model.bias.hex()
    assert [(r.epoch, r.mean_q.hex(), r.filtered_fraction.hex()) for r in trace.epochs] == ref_trace
    assert trace.epochs[-1].filtered_fraction > 0.0
