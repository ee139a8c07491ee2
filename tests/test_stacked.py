"""Two-pass stacked inference and the filtered training loop."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

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
    score_batch,
    score_corpus,
    stacked_infer_detail,
    synth_corpus,
    tokenize,
    train_hard_em,
)

from mgtstack.detectors import _BOS, _ChunkFeaturizer, hashed_features
from mgtstack.retention import compute_mask
from mgtstack.segmentation import group_subsequences, group_texts, reconstruct
from mgtstack import detectors, stacked
from mgtstack.stacked import first_pass

from baselines import train_plain
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


class FlippedLM(NGramLMDetector):
    """An LM subclass that scores otherwise: the built-in routes must not
    score it from the base LM's terms."""

    def score(self, text):
        return 1.0 - super().score(text)


class FlippedLMWithKeywords(NGramLMDetector):
    def score(self, text, **kw):
        return 1.0 - super().score(text, **kw)


@pytest.mark.parametrize("cls", [FlippedLM, FlippedLMWithKeywords])
def test_detector_subclass_takes_the_two_batch_route(engine_corpus, cls):
    # A subclass is scored by its own score, one batch per pass.
    docs, bases = engine_corpus
    lm = bases["lm2"]
    sub = cls(lm.n, lm.lam, lm.machine, lm.human)
    cfg = FilterConfig(r_e=0.01, tau=0.5, k=1)
    got = [(r.score, r.n_groups, r.n_filtered, r.mask.bits) for r in score_corpus(sub, docs, cfg)]
    assert got == [reference_result(sub, doc, cfg) for doc in docs]
    assert sum(row[2] for row in got) > 0


@dataclass(frozen=True)
class FlippedLogReg(NGramLogRegModel):
    """A logistic subclass that scores otherwise: no route built for the base
    model's featurization may score it."""

    def score(self, text):
        return 1.0 - super().score(text)


def test_logreg_subclass_is_scored_by_its_own_score(engine_corpus):
    docs, _ = engine_corpus
    sub = FlippedLogReg(2, "word", 64, np.random.default_rng(3).normal(0.0, 0.05, 64), 0.1)
    texts = [doc.text for doc in docs]
    scores = [sub.score(text) for text in texts]
    assert 0.0 < min(scores) and max(scores) < 1.0
    own = [s.hex() for s in scores]
    assert [s.hex() for s in score_batch(sub, texts)] == own
    # With tau = 0 the wrapper collapses onto the detector's own score.
    cfg = FilterConfig(tau=0.0)
    assert [r.score.hex() for r in score_corpus(sub, docs, cfg)] == own
    assert [StackedDetector(sub, cfg).score(text).hex() for text in texts] == own


def test_training_takes_exactly_the_logistic_model():
    # The E-step's store is built from NGramLogRegModel's featurization, so
    # a subclass that scores otherwise cannot be trained through it.
    base = NGramLogRegModel.new(n=1, hash_buckets=64)
    sub = FlippedLogReg(base.n, base.feature_mode, base.hash_buckets, base.weights, base.bias)
    data = small_corpus(n_docs=10)
    with pytest.raises(InvalidConfig, match="FlippedLogReg"):
        train_hard_em(sub, data, TrainConfig(epochs=1))


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
    """Per-token terms of one class's raw n-gram counts, keyed by their
    tokens joined by "\x1f", computed one position at a time:
    P(w|ctx) = (c(ctx,w)+lam)/(c(ctx)+lam*V), V = vocabulary + 1."""
    padded = [_BOS] * (n - 1) + list(context) + list(tokens)
    lam_v = lam * (len({key.split("\x1f")[-1] for key in counts}) + 1)
    log = math.log
    terms = []
    for i in range(len(padded) - len(tokens), len(padded)):
        ctx = padded[i - n + 1 : i]
        ctx_count = sum(c for key, c in counts.items() if key.split("\x1f")[:-1] == ctx)
        terms.append(log(counts.get("\x1f".join(ctx + [padded[i]]), 0) + lam) - log(ctx_count + lam_v))
    return terms


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
    for ctx in (context, ()):
        machine, human = (reference_terms(det.n, det.lam, counts, tokens, ctx) for counts in (det.machine, det.human))
        assert det._memo.terms(tokens, ctx) == list(zip(machine, human))


@pytest.mark.parametrize("order", sorted(HYP_LMS))
def test_lm_unseen_ngrams_leave_term_tables_unchanged(order):
    # An unseen n-gram's term is its context's; looking it up stores nothing.
    det = HYP_LMS[order]
    sizes = len(det._memo), len(det._memo.unseen)
    text = "qq rr. Ss qq aa! Zz bb cc qq."  # mostly words neither class has seen
    det.score(text)
    det.log_ratio(text)
    (got,) = score_corpus(det, [Document.from_text("u", text)], FilterConfig(r_e=0.3, tau=0.5, k=1))
    assert got.n_groups == 3  # the budget is 1, so pass 1 looks up each group
    assert (len(det._memo), len(det._memo.unseen)) == sizes


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
    # Every term lookup of the LM route goes through _TermTable.terms.  A
    # silent fallback to the two-batch route, or a rescore of the retained
    # text, would look up a retained text, or a kept-everything document's
    # own text, whole and without context.
    docs, bases = engine_corpus
    calls: list[tuple[list[str], list[str]]] = []
    terms = detectors._TermTable.terms

    def recording_terms(self, tokens, context=()):
        calls.append((list(tokens), list(context)))
        return terms(self, tokens, context)

    cfg = FilterConfig(tau=tau, k=k)
    expected = []
    for d in docs:
        subseq = group_subsequences(d, k)
        expected += [d.text] if cfg.budget(len(subseq)) == 0 else group_texts(d, subseq)
    assert len(expected) > len(docs)
    monkeypatch.setattr(detectors._TermTable, "terms", recording_terms)
    rejoined = 0
    for name in ("lm", "lm2", "lm3"):
        calls.clear()
        results = score_corpus(bases[name], docs, cfg)
        # Each group once, and a zero-budget document whole, with no context.
        assert [tokens for tokens, context in calls if not context] == [tokenize(t) for t in expected]
        # Looked up again: only the first n - 1 tokens of a kept group that
        # follows retained tokens, with the last n - 1 of those as context.
        heads = [(tokens, context) for tokens, context in calls if context]
        assert heads == [h for d, r in zip(docs, results) for h in rejoined_heads(d, r, cfg, bases[name].n)]
        rejoined += len(heads)
    assert rejoined > 0


def rejoined_heads(doc: Document, result, cfg: FilterConfig, n: int) -> list[tuple[list[str], list[str]]]:
    """(head tokens, context) of each kept group of a filtering document
    whose first n - 1 tokens follow retained tokens."""
    if n == 1 or cfg.budget(result.n_groups) == 0:
        return []
    heads, retained = [], []
    for text, bit in zip(group_texts(doc, group_subsequences(doc, cfg.k)), result.mask.bits):
        tokens = tokenize(text) if bit else []
        if retained and tokens:
            heads.append((tokens[: n - 1], retained[1 - n :]))
        retained += tokens
    return heads


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


def owner_blocks(idx, counts, bounds) -> list[tuple[list[int], list[int]]]:
    return [(idx[a:b].tolist(), counts[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(gapped_docs(), min_size=1, max_size=4),
    feature_mode=st.sampled_from(["word", "char"]),
    n=st.integers(1, 3),
    k=st.integers(1, 3),
)
def test_chunk_featurizer_blocks_are_each_texts_and_groups_own(docs, feature_mode, n, k):
    # Cut where the logistic route cuts, at group boundaries, and featurize
    # the documents' joined pieces in one call and the groups' pieces in
    # another: each document's block is its own text's features, and each
    # group's block its own text's, so no n-gram crosses a document or
    # leaves a group.
    model = NGramLogRegModel.new(n, feature_mode, 2**20)
    featurize = _ChunkFeaturizer(model)
    cuts, group_spans = [], []
    for doc in docs:
        spans = doc.sentences
        groups = group_subsequences(doc, k)
        cuts.append([0, *(c for lo, hi in groups for c in (spans[lo].start, spans[hi - 1].end)), len(doc.text)])
        group_spans += [(doc.text, a, b) for a, b in zip(cuts[-1][1::2], cuts[-1][2::2])]
    parts = [featurize.parts(doc.text, c) for doc, c in zip(docs, cuts)]

    def own(text):  # __wrapped__ skips the text-level cache
        return tuple(a.tolist() for a in hashed_features.__wrapped__(text, feature_mode, n, 2**20, 0))

    assert owner_blocks(*featurize([list(chain.from_iterable(p)) for p in parts])) == [own(doc.text) for doc in docs]
    got = owner_blocks(*featurize([group for p in parts for group in p[1::2]]))
    assert got == [own(text[a:b]) for text, a, b in group_spans]


def test_logreg_batch_routes_stay_off_the_text_cache(engine_corpus):
    # Held-out scoring never reads or fills hashed_features' cache, whose
    # counters perfbench reads as the hit ratio of training.
    docs, _ = engine_corpus
    model = NGramLogRegModel(2, "word", 64, np.random.default_rng(3).normal(size=64), 0.1)
    before = hashed_features.cache_info()
    score_batch(model, [doc.text for doc in docs])
    score_corpus(model, docs, FilterConfig(r_e=0.3, tau=0.5, k=1))
    assert hashed_features.cache_info() == before


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
        mp.setattr(detectors, "_SCORE_CHUNK", chunk)
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
    with pytest.raises(InvalidConfig):
        train_hard_em(lm, data, TrainConfig(epochs=1))


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


def fold_corpus(n_docs=60, seed=2):
    """small_corpus with words whose casefold is longer than they are, so
    the E-step store cuts each piece's own fold, while first_pass folds each
    group's text."""
    folds = {"Sasa": "İstanbul", "sate": "Straße", "saso": "ﬁne"}
    data = []
    for doc, label in small_corpus(n_docs, seed):
        text = doc.text
        for word, fold_changing in folds.items():
            text = text.replace(word, fold_changing)
        data.append((Document(doc.id, text, label), label))
    return data


@pytest.mark.parametrize(
    "feature_mode, n, lr, corpus",
    [
        pytest.param("word", 2, 1.0, small_corpus, id="word-2-1.0"),
        pytest.param("char", 3, 0.01, small_corpus, id="char-3-0.01"),
        pytest.param("word", 2, 1.0, fold_corpus, id="folds-word-2-1.0"),
        pytest.param("char", 3, 0.01, fold_corpus, id="folds-char-3-0.01"),
    ],
)
def test_hard_em_matches_first_pass_reference(feature_mode, n, lr, corpus):
    # The E-step scores each document's stored pass-1 block with the current
    # weights; the trajectory must be the one first_pass gives, bit for bit.
    data = corpus(n_docs=60, seed=2)
    base = NGramLogRegModel.new(n=n, feature_mode=feature_mode, hash_buckets=4096)
    tc = TrainConfig(epochs=3, lr=lr, batch_size=16, seed=1, r_e=0.2, tau=0.4, k=1)
    model, trace = train_hard_em(base, data, tc)
    ref_model, ref_trace = reference_hard_em(base, data, tc)
    assert model.weights.tobytes() == ref_model.weights.tobytes()
    assert model.bias.hex() == ref_model.bias.hex()
    assert [(r.epoch, r.mean_q.hex(), r.filtered_fraction.hex()) for r in trace.epochs] == ref_trace
    assert trace.epochs[-1].filtered_fraction > 0.0
