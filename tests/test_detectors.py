"""Built-in detectors: hashed logistic regression and the LM ratio scorer."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgtstack import (
    DegenerateDataset,
    Detector,
    Document,
    FilterConfig,
    InvalidConfig,
    ModelFormatError,
    NGramLMDetector,
    NGramLogRegModel,
    NumericalError,
    TrainConfig,
    bin_log_likelihood,
    grad_update,
    hashed_features,
    load_model,
    save_model,
    score_batch,
    score_corpus,
    sigmoid,
    tokenize,
)
from mgtstack import detectors


def ref_hash64(data: bytes, seed: int) -> int:
    # Independent restatement of the hashing scheme, kept in the tests so an
    # accidental change to the production hash is caught.
    digest = hashlib.blake2b(data, digest_size=8, person=seed.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


# --------------------------------------------------------------------------
# sigmoid


def test_sigmoid_midpoint_and_saturation():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0
    assert abs(sigmoid(1.0) - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_sigmoid_symmetry_is_exact(z):
    assert sigmoid(-z) == 1.0 - sigmoid(z)


def test_sigmoid_nan_raises():
    with pytest.raises(NumericalError):
        sigmoid(float("nan"))


# --------------------------------------------------------------------------
# tokenizer and features


def test_tokenize():
    assert tokenize("Don't stop-now 3x!") == ["don't", "stop", "now", "3x"]
    assert tokenize("ABC abc") == ["abc", "abc"]
    assert tokenize("...") == []


# ASCII (control characters such as \x0b, \x0c and \x1c-\x1f included, which
# str.split() treats as whitespace), non-ASCII characters that casefold to
# ASCII (sharp s, the Kelvin sign, long s), ones that do not, and any other
# character.
TOKENIZE_TEXT = st.text(
    st.one_of(
        st.characters(max_codepoint=127),
        st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x1f"),
        st.sampled_from("ß\u212aſ"),
        st.sampled_from("İé“"),
        st.characters(),
    ),
    max_size=40,
)


@settings(max_examples=500)
@given(TOKENIZE_TEXT)
@example("Don't\x1cSTOP\x0bnow\x0c3x\x1f'a'")
@example("Straße \u212aelvin ſun")
@example("İstanbul “café”")
@example("what?is\u2019it\u2026\u2014no")
def test_tokenize_matches_regex_reference(text):
    assert tokenize(text) == re.findall(r"[a-z0-9']+", text.casefold())


def pairs(feats):
    """``(idx, counts)`` arrays as the (index, count) pairs the tests state."""
    idx, counts = feats
    return tuple(zip(idx.tolist(), counts.tolist()))


def test_hashed_features_frozen_indices():
    # blake2b(key, digest_size=8, person=seed)::little % buckets, frozen so a
    # scheme change cannot slip by.  zz -> 31, qq -> 2 at 64 buckets, seed 0.
    assert pairs(hashed_features("zz qq zz", "word", 1, 64, 0)) == ((2, 1), (31, 2))
    assert pairs(hashed_features("zz", "word", 1, 2**18, 0)) == ((57695, 1),)


def test_hashed_features_match_reference_hash():
    feats = dict(pairs(hashed_features("zz qq", "word", 2, 64, 0)))
    assert feats[ref_hash64(b"zz", 0) % 64] == 1
    assert feats[ref_hash64(b"qq", 0) % 64] == 1
    assert feats[ref_hash64(b"zz\x1fqq", 0) % 64] == 1
    assert len(feats) == 3


def test_hashed_features_seed_changes_layout():
    layouts = [pairs(hashed_features("zz qq zz", "word", 1, 64, seed)) for seed in (0, 1)]
    assert layouts[0] != layouts[1]


def test_hashed_features_char_mode():
    feats = dict(pairs(hashed_features("ab", "char", 2, 1024, 0)))
    expected_keys = {ref_hash64(b"a", 0) % 1024, ref_hash64(b"b", 0) % 1024, ref_hash64(b"ab", 0) % 1024}
    assert set(feats) == expected_keys
    # Non-ASCII: char n-grams run over the casefolded string, "éssé".
    grams = ["é", "s", "s", "é", "és", "ss", "sé", "éss", "ssé"]
    expected: dict[int, int] = {}
    for gram in grams:
        idx = ref_hash64(gram.encode("utf-8"), 3) % 64
        expected[idx] = expected.get(idx, 0) + 1
    assert dict(pairs(hashed_features("ÉßÉ", "char", 3, 64, 3))) == expected


def test_hashed_features_validation():
    with pytest.raises(InvalidConfig):
        hashed_features("x", "letters", 1, 64, 0)
    with pytest.raises(InvalidConfig):
        hashed_features("x", "word", 0, 64, 0)


@pytest.mark.parametrize(
    "n, hash_buckets, hash_seed",
    [(1.5, 64, 0), (1, 0, 0), (1, 64, -1), (True, 64, 0), (1, True, 0), (1, 64, True), (2, 2**60, 0), (2, 2**70, 0)],
    ids=[
        "fractional-n",
        "zero-buckets",
        "negative-seed",
        "true-n",
        "true-buckets",
        "true-seed",
        "buckets-2**60",
        "buckets-2**70",
    ],
)
def test_hashed_features_rejects_bad_layout(n, hash_buckets, hash_seed):
    # Direct callers get the same error as a model built with these values.
    # 2**60 buckets used to reach numpy (ValueError on allocation) and 2**70
    # a bare OverflowError from the id array.
    with pytest.raises(InvalidConfig):
        hashed_features("alpha beta gamma delta 0", "word", n, hash_buckets, hash_seed)
    with pytest.raises(InvalidConfig):
        NGramLogRegModel.new(n=n, hash_buckets=hash_buckets, hash_seed=hash_seed)


def reference_hashed_features(text, feature_mode, n, hash_buckets, hash_seed):
    # The per-n-gram loop that hashed every key with no memo, kept as the
    # reference the memoized, C-counted version must equal.
    units = tokenize(text) if feature_mode == "word" else text.casefold()
    join = "\x1f".join if feature_mode == "word" else "".join
    counts: dict[int, int] = {}
    for order in range(1, n + 1):
        for i in range(len(units) - order + 1):
            idx = ref_hash64(join(units[i : i + order]).encode("utf-8"), hash_seed) % hash_buckets
            counts[idx] = counts.get(idx, 0) + 1
    return tuple(sorted(counts.items()))


FEATURE_TEXT = st.text(alphabet=st.sampled_from("ab z'.İßﬁ\n"), max_size=24)
FEATURE_LAYOUT = {
    "feature_mode": st.sampled_from(["word", "char"]),
    "n": st.integers(1, 3),
    "hash_buckets": st.sampled_from([1, 2, 3, 7, 64, 2**18]),
    "hash_seed": st.sampled_from([0, 1, 3, 2**64 - 1]),
}


@settings(max_examples=300, deadline=None)
@given(text=FEATURE_TEXT, **FEATURE_LAYOUT)
@example(text="", feature_mode="word", n=3, hash_buckets=64, hash_seed=0)
@example(text="ab", feature_mode="word", n=3, hash_buckets=64, hash_seed=0)
@example(text="a", feature_mode="char", n=3, hash_buckets=64, hash_seed=0)
@example(text="İß ﬁ İß ﬁ", feature_mode="char", n=3, hash_buckets=7, hash_seed=1)
@example(text="İß ﬁ İß ﬁ", feature_mode="word", n=2, hash_buckets=2**18, hash_seed=3)
def test_hashed_features_match_reference_loop(text, feature_mode, n, hash_buckets, hash_seed):
    # __wrapped__ skips the text-level cache, so every example runs the code.
    got = hashed_features.__wrapped__(text, feature_mode, n, hash_buckets, hash_seed)
    assert pairs(got) == reference_hashed_features(text, feature_mode, n, hash_buckets, hash_seed)


@pytest.fixture
def fresh_bucket_memos():
    detectors._bucket_memo.cache_clear()
    yield
    detectors._bucket_memo.cache_clear()  # drop the memos built under a patched cap


class PerText:
    """A logistic model behind the bare detector contract, so the engine
    scores it text by text through ``hashed_features``."""

    def __init__(self, model: NGramLogRegModel) -> None:
        self.score = model.score


def test_bucket_memo_bound_changes_nothing(monkeypatch, fresh_bucket_memos):
    monkeypatch.setattr(detectors, "_BUCKET_MEMO_KEYS", 3)
    # Chunks of about 4 units make the batch routes' coders pass the bound,
    # and start over, between most chunks.
    monkeypatch.setattr(detectors, "_SCORE_CHUNK", 4)
    texts = ["İstanbul straße ﬁne day", "a b c d e f g", "", "the ﬁne straße again and again"]
    docs = [Document.from_text(str(i), f"{t}. Then ﬁne straße. And a b c. End {t}!") for i, t in enumerate(texts)]
    cfg = FilterConfig(r_e=0.3, tau=0.5, k=1)
    for mode in ("word", "char"):
        for buckets, seed in ((7, 0), (2**18, 5)):
            for text in texts * 2:
                got = hashed_features.__wrapped__(text, mode, 3, buckets, seed)
                assert pairs(got) == reference_hashed_features(text, mode, 3, buckets, seed)
                assert len(detectors._bucket_memo(buckets, seed)) <= 3
            weights = np.resize(np.random.default_rng(seed).normal(0.0, 0.5, 16), buckets)
            model = NGramLogRegModel(3, mode, buckets, weights, 0.1, seed)
            assert score_batch(model, texts * 2) == [model.score(t) for t in texts * 2]
            expected = [(r.score, r.mask) for r in score_corpus(PerText(model), docs * 2, cfg)]
            assert [(r.score, r.mask) for r in score_corpus(model, docs * 2, cfg)] == expected
    assert len(detectors._bucket_memo(7, 0)) == 3


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(st.text(max_size=12), min_size=1, max_size=8),
    hash_buckets=st.integers(1, 2**32 - 1),
    hash_seed=st.integers(0, 2**64 - 1),
)
def test_bucket_memo_matches_reference_hash(keys, hash_buckets, hash_seed):
    # A new key is hashed by a copy of the memo's keyed blake2b, a repeated
    # one is looked up: both give the reference bucket.
    memo = detectors._BucketMemo(hash_buckets, hash_seed)
    for key in keys * 2:
        assert memo[key] == ref_hash64(key.encode("utf-8"), hash_seed) % hash_buckets


def test_hashed_features_cache_counts_hits_and_misses():
    # perfbench/child.py reads these counters after every verb.
    text = "a text no other test hashes: qzx vvk"
    before = hashed_features.cache_info()
    first = hashed_features(text, "word", 2, 64, 11)
    mid = hashed_features.cache_info()
    assert hashed_features(text, "word", 2, 64, 11) is first
    after = hashed_features.cache_info()
    assert (mid.misses, mid.hits) == (before.misses + 1, before.hits)
    assert (after.misses, after.hits) == (mid.misses, mid.hits + 1)


def test_hashed_features_arrays_are_read_only():
    text = "a text only this test hashes: kqv zzx kqv"
    idx, counts = hashed_features(text, "char", 2, 64, 0)
    before = pairs((idx, counts))
    for array in (idx, counts):
        with pytest.raises(ValueError):
            array[0] = 5
    cached = hashed_features(text, "char", 2, 64, 0)
    assert cached[0] is idx and pairs(cached) == before


# --------------------------------------------------------------------------
# logistic-regression model


def test_zero_model_scores_half():
    model = NGramLogRegModel.new(hash_buckets=64)
    assert model.score("anything at all") == 0.5
    assert model.score("") == 0.5


def test_logit_is_weighted_count_sum():
    model = NGramLogRegModel.new(hash_buckets=64)
    feats = model.features("zz qq zz")
    weights = model.weights.copy()
    for idx, _ in pairs(feats):
        weights[idx] = 0.25
    model = NGramLogRegModel(
        n=1, feature_mode="word", hash_buckets=64, weights=weights, bias=-0.5
    )
    # logit = 0.25 * 2 (zz twice) + 0.25 * 1 (qq) + bias
    assert model.logit("zz qq zz") == pytest.approx(0.25 * 3 - 0.5, abs=1e-15)


def reference_logit(model, text):
    # The pair loop the array logit replaced: numpy-scalar products added to
    # the bias one by one in ascending index order.
    z = model.bias
    layout = (model.feature_mode, model.n, model.hash_buckets, model.hash_seed)
    for idx, cnt in reference_hashed_features(text, *layout):
        z += model.weights[idx] * cnt
    if not math.isfinite(z):
        raise NumericalError(f"non-finite logit for text of length {len(text)}")
    return float(z)


LOGIT_WEIGHT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1e308, -1e308])


@settings(max_examples=300, deadline=None)
@given(
    text=FEATURE_TEXT,
    **{**FEATURE_LAYOUT, "hash_buckets": st.sampled_from([1, 2, 3, 7])},
    weights=st.lists(LOGIT_WEIGHT, min_size=7, max_size=7),
    bias=st.floats(-2.0, 2.0) | st.sampled_from([-0.0, 1e308]),
)
@example(text="", feature_mode="word", n=3, hash_buckets=7, hash_seed=0, weights=[0.0] * 7, bias=-0.0)
@example(text="zz zz", feature_mode="word", n=1, hash_buckets=1, hash_seed=0, weights=[1e308] * 7, bias=0.0)
@example(text="ab ab", feature_mode="char", n=2, hash_buckets=7, hash_seed=1, weights=[-1e308] * 7, bias=0.0)
@example(text="a", feature_mode="char", n=1, hash_buckets=2, hash_seed=0, weights=[-0.0] * 7, bias=-0.0)
def test_logit_matches_pair_loop_reference(text, feature_mode, n, hash_buckets, hash_seed, weights, bias):
    model = NGramLogRegModel(n, feature_mode, hash_buckets, np.array(weights[:hash_buckets]), bias, hash_seed)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = reference_logit(model, text)
        except NumericalError:
            with pytest.raises(NumericalError):
                model.logit(text)
            return
        got = model.logit(text)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


BATCH_TEXT = FEATURE_TEXT | st.sampled_from(["", "?!. ...", "naïve café – ﬁne", "zz zz zz", "İstanbul ß"])


def batch_scores_or_error(score_all):
    """Scores as float.hex strings, or the NumericalError message."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return [s.hex() for s in score_all()]
        except NumericalError as exc:
            return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(BATCH_TEXT, max_size=12),
    **{**FEATURE_LAYOUT, "hash_buckets": st.sampled_from([16, 2**18])},
    weights=st.lists(st.floats(-4.0, 4.0) | st.sampled_from([-0.0, 1e308]), min_size=16, max_size=16),
    bias=st.floats(-2.0, 2.0) | st.sampled_from([-0.0]),
)
@example(texts=[], feature_mode="word", n=1, hash_buckets=16, hash_seed=0, weights=[0.5] * 16, bias=0.0)
@example(
    texts=["", "?!", "zz qq", "zz qq", "naïve café", ""],
    feature_mode="word",
    n=3,
    hash_buckets=16,
    hash_seed=0,
    weights=[float(i) - 7.5 for i in range(16)],
    bias=-0.0,
)
@example(
    texts=["ab", "ab ab", "ﬁ", "ab"],
    feature_mode="char",
    n=2,
    hash_buckets=2**18,
    hash_seed=1,
    weights=[1e308] * 16,
    bias=0.0,
)
def test_score_batch_matches_score(texts, feature_mode, n, hash_buckets, hash_seed, weights, bias):
    # 16 buckets make texts of one chunk share buckets; the batch keys must
    # still keep each text's counts apart.  Weights repeat every 16 buckets.
    tiled = np.resize(np.array(weights), hash_buckets)
    model = NGramLogRegModel(n, feature_mode, hash_buckets, tiled, bias, hash_seed)
    expected = batch_scores_or_error(lambda: [model.score(t) for t in texts])
    assert batch_scores_or_error(lambda: score_batch(model, texts)) == expected


@pytest.mark.parametrize("feature_mode, n", [("word", 2), ("char", 3)])
def test_score_batch_spans_chunks(feature_mode, n):
    # More texts than one chunk holds, with duplicates across the chunk seam.
    rng = np.random.default_rng(5)
    words = ["zz", "qq", "naïve", "x'y", "ok.", "ﬁn"]
    unique = [" ".join(rng.choice(words, size=int(rng.integers(0, 9)))) for _ in range(detectors._SCORE_CHUNK + 40)]
    texts = unique + unique[-60:]
    model = NGramLogRegModel(n, feature_mode, 16, rng.normal(size=16), 0.25)
    assert len(texts) > detectors._SCORE_CHUNK + 1
    assert [s.hex() for s in score_batch(model, texts)] == [model.score(t).hex() for t in texts]


def test_score_batch_raises_logits_error_for_first_bad_text():
    bad = hashed_features("zz", "word", 1, 2**18, 0)[0][0]
    assert bad not in hashed_features("ok fine", "word", 1, 2**18, 0)[0]
    weights = np.zeros(2**18)
    weights[bad] = math.inf
    model = NGramLogRegModel(1, "word", 2**18, weights, 0.0)
    texts = ["ok fine", "zz", "ok zz zz"]
    with pytest.raises(NumericalError) as per_text:
        model.logit("zz")
    with pytest.raises(NumericalError) as batch:
        score_batch(model, texts)
    assert str(batch.value) == str(per_text.value) == "non-finite logit for text of length 2"


# --------------------------------------------------------------------------
# the column kernel: every batch route's logits


KERNEL_VALUE = st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, 0.5, -1.25]) | st.floats(
    -4.0, 4.0, allow_nan=False
)


@st.composite
def ragged_blocks(draw):
    """A block of texts, ``(sizes, weights, bias, idx, counts)``: texts of 0,
    1 and many terms, or one long text among many one-word texts, which pads
    apart in its own band, over 8 buckets."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 5, 8, 9, 40, 200]), max_size=14))
    else:
        short = draw(st.integers(3, 80))
        sizes = draw(st.permutations([1] * short + [draw(st.integers(64, 600))]))
    weights = draw(st.lists(KERNEL_VALUE, min_size=8, max_size=8))
    terms = sum(sizes)
    idx = draw(st.lists(st.integers(0, 7), min_size=terms, max_size=terms))
    counts = draw(st.lists(st.integers(1, 3), min_size=terms, max_size=terms))
    return sizes, weights, draw(KERNEL_VALUE), idx, counts


def per_text_logits(model, idx, counts, bounds, lengths):
    """``_checked_logit`` of each text in turn, the reference ``_logits`` matches."""
    terms = model.weights[idx] * counts
    return [detectors._checked_logit(model.bias, terms[a:b].tolist(), n) for a, b, n in zip(bounds, bounds[1:], lengths)]


def hex_or_error(logits):
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return [z.hex() for z in logits()]
        except NumericalError as exc:
            return str(exc)


@settings(max_examples=300, deadline=None)
@given(block=ragged_blocks())
@example(block=([], [0.0] * 8, 0.0, [], []))
@example(block=([0, 2, 0], [-0.0] * 8, -0.0, [0, 1], [1, 2]))  # every logit -0.0
@example(block=([1, 0, 2, 1], [1e308] * 7 + [-1e308], 0.0, [7, 0, 0, 0], [1, 1, 1, 2]))  # 2e308 overflows
@example(block=([2, 1], [math.inf, -math.inf] + [0.0] * 6, 0.0, [0, 1, 0], [1, 1, 1]))  # inf - inf is NaN
@example(block=([1] * 9 + [300] + [1] * 9, [0.5] * 8, math.inf, list(range(8)) * 39 + [0] * 6, [1] * 318))
def test_column_kernel_matches_checked_logit_bit_for_bit(block):
    # A column that sums to -0.0, overflows, or meets inf and -inf must read
    # as the per-text route reads it, and the first bad text be the one named.
    sizes, weights, bias, idx, counts = block
    bounds = np.cumsum([0, *sizes])
    lengths = [100 + i for i in range(len(sizes))]  # names each text in an error
    model = NGramLogRegModel(1, "word", 8, np.array(weights), bias)
    idx, counts = np.array(idx, np.intp), np.array(counts, np.intp)
    expected = hex_or_error(lambda: per_text_logits(model, idx, counts, bounds, lengths))
    assert hex_or_error(lambda: model._logits(idx, counts, bounds, lengths)) == expected


def test_column_kernel_pads_a_long_text_apart_from_short_ones():
    # One 20000-term text among 1000 one-term texts: one height for all would
    # be 1001 x 20001 cells (160 MB).  Bands keep what the kernel allocates
    # within a small multiple of the 8 bytes per term and text.
    sizes = np.array([1] * 500 + [20000] + [1] * 500)
    bounds = np.cumsum([0, *sizes])
    idx, counts = np.arange(bounds[-1]) % 16, np.ones(bounds[-1], np.intp)
    model = NGramLogRegModel(1, "word", 16, np.linspace(-1.0, 1.0, 16), 0.25)
    lengths = [1] * sizes.size
    model._logits(idx, counts, bounds, lengths)  # numpy's one-time allocations stay out of the count
    tracemalloc.start()
    try:
        logits = model._logits(idx, counts, bounds, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * (bounds[-1] + sizes.size), peak
    assert [z.hex() for z in logits] == [z.hex() for z in per_text_logits(model, idx, counts, bounds, lengths)]


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (700, 1), (700, 3), (2, 900), (65, 40)])
def test_numpy_accumulate_adds_down_axis_0_in_order(shape):
    # _column_sums rests on this numpy property: np.add.accumulate down axis
    # 0 adds each column's values one at a time, top to bottom, in place or
    # not, as _running_sum does (np.add.reduce may add a column pairwise).
    # Magnitudes from 1e-8 to 1e8 make any other order change the bits.
    rng = np.random.default_rng(sum(shape))
    cells = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    expected = [detectors._running_sum(column[1:], column[0]).hex() for column in cells.T.tolist()]
    assert [z.hex() for z in np.add.accumulate(cells, axis=0)[-1]] == expected
    assert [z.hex() for z in np.add.accumulate(cells, out=cells)[-1]] == expected


def test_model_new_validation():
    with pytest.raises(InvalidConfig):
        NGramLogRegModel.new(n=0)
    with pytest.raises(InvalidConfig):
        NGramLogRegModel.new(feature_mode="bytes")
    with pytest.raises(InvalidConfig):
        NGramLogRegModel.new(hash_buckets=0)
    with pytest.raises(InvalidConfig):
        NGramLogRegModel.new(hash_buckets=True)
    with pytest.raises(InvalidConfig):
        NGramLogRegModel(n=1, feature_mode="word", hash_buckets=8, weights=np.zeros(4), bias=0.0)
    # weights are a 1-d float64 array; bias is a real number
    for weights in (np.zeros(8, dtype=np.int64), np.zeros(8, dtype=">f8"), np.zeros((8, 1)), [0.0] * 8):
        with pytest.raises(InvalidConfig):
            NGramLogRegModel(n=1, feature_mode="word", hash_buckets=8, weights=weights, bias=0.0)
    for bias in (True, "0.5", None, 10**400):
        with pytest.raises(InvalidConfig):
            NGramLogRegModel(n=1, feature_mode="word", hash_buckets=8, weights=np.zeros(8), bias=bias)


def test_bin_log_likelihood_zero_model_is_log_half():
    model = NGramLogRegModel.new(hash_buckets=64)
    batch = [("zz qq", 1), ("qq xx", 0)]
    assert bin_log_likelihood(model, batch) == -math.log(2.0)


def test_grad_update_zero_eta_is_identity():
    model = NGramLogRegModel.new(hash_buckets=64)
    rng = np.random.default_rng(0)
    model = NGramLogRegModel(
        n=1, feature_mode="word", hash_buckets=64, weights=rng.normal(size=64), bias=0.3
    )
    out = grad_update(model, [("zz qq", 1)], 0.0)
    assert np.array_equal(out.weights, model.weights) and out.bias == model.bias


def test_grad_update_does_not_mutate_input():
    model = NGramLogRegModel.new(hash_buckets=64)
    before = model.weights.copy()
    grad_update(model, [("zz qq", 1), ("vv ww", 0)], 0.5)
    assert np.array_equal(model.weights, before)


def test_grad_update_increases_likelihood():
    model = NGramLogRegModel.new(hash_buckets=256)
    batch = [("kaka kaka nana", 1), ("bobo dodo bobo", 0), ("kaka nana", 1), ("dodo bobo", 0)]
    for _ in range(30):
        model = grad_update(model, batch, 0.5)
    assert bin_log_likelihood(model, batch) > -math.log(2.0)
    assert model.score("kaka nana kaka") > 0.9
    assert model.score("bobo dodo") < 0.1


def finite_difference_grad(model, batch, indices):
    """Central finite differences of the mean batch log-likelihood."""
    eps = 1e-5
    grads = {}
    for idx in indices:
        w_plus = model.weights.copy()
        w_plus[idx] += eps
        w_minus = model.weights.copy()
        w_minus[idx] -= eps
        up = bin_log_likelihood(
            NGramLogRegModel(model.n, model.feature_mode, model.hash_buckets, w_plus, model.bias), batch
        )
        down = bin_log_likelihood(
            NGramLogRegModel(model.n, model.feature_mode, model.hash_buckets, w_minus, model.bias), batch
        )
        grads[idx] = (up - down) / (2 * eps)
    b_up = bin_log_likelihood(
        NGramLogRegModel(model.n, model.feature_mode, model.hash_buckets, model.weights, model.bias + eps),
        batch,
    )
    b_down = bin_log_likelihood(
        NGramLogRegModel(model.n, model.feature_mode, model.hash_buckets, model.weights, model.bias - eps),
        batch,
    )
    return grads, (b_up - b_down) / (2 * eps)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    model = NGramLogRegModel(
        n=1, feature_mode="word", hash_buckets=64, weights=rng.normal(scale=0.2, size=64), bias=0.1
    )
    batch = [("zz qq zz", 1), ("vv ww", 0), ("qq vv qq", 1)]
    touched = sorted({idx for text, _ in batch for idx, _ in pairs(model.features(text))})
    stepped = grad_update(model, batch, 1.0)
    analytic_w = stepped.weights - model.weights
    analytic_b = stepped.bias - model.bias
    numeric, numeric_b = finite_difference_grad(model, batch, touched)
    for idx in touched:
        assert analytic_w[idx] == pytest.approx(numeric[idx], rel=1e-5, abs=1e-9)
    assert analytic_b == pytest.approx(numeric_b, rel=1e-5, abs=1e-9)
    # Untouched coordinates hold an exactly zero gradient.
    untouched = np.ones(64, dtype=bool)
    untouched[touched] = False
    assert np.all(analytic_w[untouched] == 0.0)


def reference_grad_update(model, batch, eta):
    # The dense M-step: a full-length gradient per batch.  Kept as the
    # reference the sparse scatter in grad_update must equal bit for bit.
    grad_w = np.zeros(model.hash_buckets, dtype=np.float64)
    grad_b = 0.0
    for text, y in batch:
        resid = y - model.score(text)
        for idx, cnt in pairs(model.features(text)):
            grad_w[idx] += resid * cnt
        grad_b += resid
    grad_w /= len(batch)
    grad_b /= len(batch)
    if not np.isfinite(grad_w).all():
        bad = int(np.flatnonzero(~np.isfinite(grad_w))[0])
        raise NumericalError(f"non-finite gradient at feature index {bad}")
    if not math.isfinite(grad_b):
        raise NumericalError("non-finite bias gradient")
    return model.weights + eta * grad_w, model.bias + eta * grad_b


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    hash_buckets=st.sampled_from([1, 2, 5, 64]),
    n=st.integers(1, 2),
    batch=st.lists(
        st.tuples(st.text(alphabet=st.sampled_from("ab c"), max_size=12), st.integers(0, 1)),
        min_size=1,
        max_size=5,
    ),
    eta=st.sampled_from([0.0, 0.1, 0.5, 3.0]),
)
def test_sparse_grad_update_matches_dense_reference(data, hash_buckets, n, batch, eta):
    weight = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([0.0, -0.0])
    weights = np.array(data.draw(st.lists(weight, min_size=hash_buckets, max_size=hash_buckets)))
    bias = data.draw(st.floats(-2.0, 2.0))
    model = NGramLogRegModel(n=n, feature_mode="word", hash_buckets=hash_buckets, weights=weights, bias=bias)
    ref_w, ref_b = reference_grad_update(model, batch, eta)
    out = grad_update(model, batch, eta)
    assert out.weights.tobytes() == ref_w.tobytes()
    assert out.bias == ref_b
    assert model.weights.tobytes() == weights.tobytes()  # input untouched


@pytest.mark.parametrize("bad_score", [-1e308, float("nan")], ids=["overflow", "nan"])
def test_sparse_grad_update_names_the_dense_bad_index(monkeypatch, bad_score):
    # zz -> 31 and qq -> 2 at 64 buckets.  A score of -1e308 makes zz's
    # residual times its count of 2 overflow while qq stays finite; NaN
    # poisons both, so the lowest touched index is named.
    # The dense reference scores text by text, grad_update the whole batch.
    scores = {"zz qq zz": bad_score, "qq vv": 0.25}
    monkeypatch.setattr(NGramLogRegModel, "score", lambda self, text: scores[text])
    batch_scores = detectors._batch_scores
    monkeypatch.setattr(
        detectors, "_batch_scores", lambda m, b, *link: (*batch_scores(m, b, *link)[:3], [scores[t] for t, _ in b])
    )
    model = NGramLogRegModel.new(hash_buckets=64)
    batch = [("qq vv", 0), ("zz qq zz", 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as dense:
            reference_grad_update(model, batch, 0.1)
    with pytest.raises(NumericalError) as sparse:
        grad_update(model, batch, 0.1)
    assert str(sparse.value) == str(dense.value)
    assert "feature index" in str(sparse.value)


def test_batch_validation():
    model = NGramLogRegModel.new(hash_buckets=64)
    with pytest.raises(InvalidConfig):
        bin_log_likelihood(model, [])
    with pytest.raises(InvalidConfig):
        grad_update(model, [("x", 3)], 0.1)
    with pytest.raises(InvalidConfig):
        grad_update(model, [("x", 1)], -0.1)


@pytest.mark.parametrize("eta", ["0.1", True, None])
def test_grad_update_eta_must_be_a_real_number(eta):
    # A numeric string used to raise a bare TypeError, and True to step by 1.0.
    with pytest.raises(InvalidConfig, match="learning rate"):
        grad_update(NGramLogRegModel.new(hash_buckets=64), [("x", 1)], eta)


def test_train_config_validation():
    TrainConfig(epochs=0)  # no-op training is allowed
    with pytest.raises(InvalidConfig):
        TrainConfig(epochs=-1)
    with pytest.raises(InvalidConfig):
        TrainConfig(lr=0.0)
    with pytest.raises(InvalidConfig):
        TrainConfig(batch_size=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(tau=1.0)
    # True is an int to Python; a numeric string is not a number
    for kwargs in ({"epochs": True}, {"batch_size": True}, {"lr": "0.1"}, {"k": True}, {"tau": "0.1"}):
        with pytest.raises(InvalidConfig):
            TrainConfig(**kwargs)
    fc = TrainConfig(r_e=0.05, tau=0.3, k=2).filter_config()
    assert (fc.r_e, fc.tau, fc.k) == (0.05, 0.3, 2)


# --------------------------------------------------------------------------
# LM likelihood-ratio detector


def lm_corpus():
    return [
        Document.from_text("m1", "mm mm.", label=1),
        Document.from_text("h1", "hh.", label=0),
    ]


def test_lm_hand_computed_score():
    det = NGramLMDetector.fit(lm_corpus(), n=1, lam=0.1)
    # Machine table: count(mm) = 2, total 2, vocab 2 -> P_m(mm) = 2.1 / 2.2,
    # P_m(hh) = 0.1 / 2.2.  Human table: count(hh) = 1, total 1, vocab 2 ->
    # P_h(mm) = 0.1 / 1.2, P_h(hh) = 1.1 / 1.2.
    z_mm = math.log(2.1 / 2.2) - math.log(0.1 / 1.2)
    assert det.log_ratio("mm") == pytest.approx(z_mm, rel=1e-12)
    assert det.score("mm") == pytest.approx(sigmoid(z_mm), rel=1e-12)
    z_hh = math.log(0.1 / 2.2) - math.log(1.1 / 1.2)
    assert det.score("hh") == pytest.approx(sigmoid(z_hh), rel=1e-12)
    assert det.score("mm") > 0.5 > det.score("hh")


def test_lm_score_scales_with_sqrt_length():
    det = NGramLMDetector.fit(lm_corpus(), n=1, lam=0.1)
    z1 = det.log_ratio("mm")
    # Four identical tokens: the raw ratio is 4 z1, the score uses 4 z1 / 2.
    assert det.log_ratio("mm mm mm mm") == pytest.approx(4 * z1, rel=1e-12)
    assert det.score("mm mm mm mm") == pytest.approx(sigmoid(2 * z1), rel=1e-12)


def test_lm_empty_text_is_neutral():
    det = NGramLMDetector.fit(lm_corpus(), n=1, lam=0.1)
    assert det.score("...") == 0.5


def test_lm_identical_tables_score_half():
    docs = [
        Document.from_text("m1", "ss tt ss.", label=1),
        Document.from_text("h1", "ss tt ss.", label=0),
    ]
    det = NGramLMDetector.fit(docs, n=2, lam=0.5)
    for text in ("ss", "ss tt", "tt ss unknown"):
        assert det.score(text) == 0.5


def test_lm_swapped_symmetry_is_exact():
    det = NGramLMDetector.fit(lm_corpus(), n=1, lam=0.1)
    swapped = det.swapped()
    for text in ("mm", "hh", "mm hh mm", "unseen words here"):
        assert swapped.score(text) == 1.0 - det.score(text)


def test_lm_bigram_context_handling():
    docs = [
        Document.from_text("m1", "aa bb aa bb.", label=1),
        Document.from_text("h1", "bb aa bb aa.", label=0),
    ]
    det = NGramLMDetector.fit(docs, n=2, lam=0.1)
    # "aa bb" is the machine-typical transition, "bb aa" the human-typical
    # one; the bigram model must separate them.
    assert det.score("aa bb aa bb aa bb") > 0.5
    assert det.score("bb aa bb aa bb aa") < 0.5


def test_lm_term_tables_stay_out_of_model_identity(tmp_path):
    docs = [
        Document.from_text("m1", "mm nn mm. Nn mm.", label=1),
        Document.from_text("h1", "hh nn hh.", label=0),
    ]
    det = NGramLMDetector.fit(docs, n=2, lam=0.1)
    # The one table stores the n-grams each class alone has seen.
    assert "hh\x1fnn" in det._memo and "mm\x1fnn" in det._memo
    path = tmp_path / "lm.json"
    save_model(det, str(path))
    saved, shown, pickled = path.read_bytes(), repr(det), pickle.dumps(det)
    sizes = len(det._memo), len(det._memo.unseen)
    det.score("qq rr. Ss qq.")  # unseen words only
    assert (len(det._memo), len(det._memo.unseen)) == sizes
    det.score("mm nn hh nn mm")
    score_corpus(det, [Document.from_text("d", "mm nn. hh hh. nn mm.")], FilterConfig(r_e=0.3, tau=0.5, k=1))
    assert det == load_model(str(path))
    assert repr(det) == shown
    assert pickle.dumps(det) == pickled
    assert b"_memo" not in pickled  # the --jobs workers rebuild it
    save_model(det, str(path))
    assert path.read_bytes() == saved
    clone = pickle.loads(pickled)
    assert clone == det and clone._memo == det._memo


# Mixed signs, magnitudes from 1e-300 to 1e300, and zeros: sums whose
# rounding depends on the order the terms are added in.
sum_terms = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-300, 299),
    ),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(sum_terms, sum_terms), max_size=40))
def test_pair_sums_match_running_sum_of_each_column_bit_for_bit(pairs):
    # The LM's byte-identical scores rest on this addition order.
    machine, human = detectors._pair_sums(pairs)
    assert machine.hex() == detectors._running_sum(m for m, _ in pairs).hex()
    assert human.hex() == detectors._running_sum(h for _, h in pairs).hex()


def test_lm_fit_validation():
    with pytest.raises(DegenerateDataset):
        NGramLMDetector.fit([Document.from_text("m", "mm.", label=1)], n=1)
    with pytest.raises(InvalidConfig):
        NGramLMDetector.fit(lm_corpus(), n=0)
    with pytest.raises(InvalidConfig):
        NGramLMDetector.fit(lm_corpus(), lam=0.0)
    # Booleans pass isinstance(..., int) but would save as JSON true, which
    # the loader rejects.
    with pytest.raises(InvalidConfig):
        NGramLMDetector.fit(lm_corpus(), n=True)
    with pytest.raises(InvalidConfig):
        NGramLMDetector.fit(lm_corpus(), lam=True)
    with pytest.raises(InvalidConfig):
        NGramLMDetector.fit(lm_corpus(), n="2")
    # The constructor checks what fit and load_model hand it: keys are str
    # with n - 1 separators, counts are ints >= 0, tables are dicts.  Each
    # case breaks one rule of one of these valid models.
    NGramLMDetector(1, 0.1, {"a": 2}, {"b": 1})
    NGramLMDetector(2, 0.1, {"a\x1fb": 2}, {"b\x1fa": 1})
    for n, lam, machine, human in [
        (2, 0.1, {"a": 2}, {"b\x1fa": 1}),  # too few separators: never matches, all texts score 0.5
        (2, 0.1, {"a\x1fb": 2}, {"b\x1fa\x1fb": 1}),  # too many
        (1, 0.1, {"a\x1fb": 2}, {"b": 1}),  # a unigram key containing the separator
        (1, 0.1, {("a",): 2}, {"b": 1}),  # the old tuple key
        (1, 0.1, {1: 2}, {"b": 1}),
        (1, 0.1, {"a": -3}, {"b": 1}),
        (1, 0.1, {"a": 3.5}, {"b": 1}),
        (1, 0.1, {"a": True}, {"b": 1}),
        (1, 0.1, {"a": 2}, [("b", 1)]),
        (1, "0.1", {"a": 2}, {"b": 1}),
        (1, math.inf, {"a": 2}, {"b": 1}),
        (1, 10**400, {"a": 2}, {"b": 1}),
    ]:
        with pytest.raises(InvalidConfig):
            NGramLMDetector(n, lam, machine, human)


# --------------------------------------------------------------------------
# protocol helpers


def test_detectors_satisfy_protocol():
    assert isinstance(NGramLogRegModel.new(hash_buckets=8), Detector)
    assert isinstance(NGramLMDetector.fit(lm_corpus()), Detector)


def test_score_batch_falls_back_to_score():
    class One:
        def score(self, text):
            return 1.0

    assert score_batch(One(), ["a", "b"]) == [1.0, 1.0]


# --------------------------------------------------------------------------
# persistence


def test_logreg_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    model = NGramLogRegModel(
        n=2,
        feature_mode="char",
        hash_buckets=128,
        weights=rng.normal(size=128),
        bias=-0.75,
        hash_seed=9,
    )
    path = tmp_path / "m.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert isinstance(loaded, NGramLogRegModel)
    assert np.array_equal(loaded.weights, model.weights)
    assert (loaded.bias, loaded.n, loaded.feature_mode, loaded.hash_seed) == (
        model.bias,
        model.n,
        model.feature_mode,
        model.hash_seed,
    )
    for text in ("zz qq", "unseen tokens", ""):
        assert loaded.score(text) == model.score(text)


def test_lm_round_trip_preserves_scores(tmp_path):
    det = NGramLMDetector.fit(lm_corpus(), n=1, lam=0.1)
    path = tmp_path / "lm.json"
    save_model(det, str(path))
    loaded = load_model(str(path))
    assert isinstance(loaded, NGramLMDetector)
    for text in ("mm", "hh", "mm hh", "other"):
        assert loaded.score(text) == det.score(text)


# Field values a model file may hold that no model can be built from; each
# must be refused on load, not crash later at scoring time.
MALFORMED_LOGREG_FIELDS = {
    "n-fractional": {"n": 1.5},
    "n-zero": {"n": 0},
    "buckets-zero": {"hash_buckets": 0, "weights_b64": ""},
    "seed-negative": {"hash_seed": -1},
    "seed-fractional": {"hash_seed": 1.5},
    "seed-too-large": {"hash_seed": 2**64},
    "mode-unknown": {"feature_mode": "xyz"},
    "bias-string": {"bias": "0.5"},
    "bias-true": {"bias": True},
    "n-true": {"n": True},
    # one weight, so only the boolean stands between this file and a load
    "buckets-true": {"hash_buckets": True, "weights_b64": "AAAAAAAAAAA="},
    "seed-true": {"hash_seed": True},
    "dtype-int": {"weights_dtype": "<i8"},
    "dtype-big-endian": {"weights_dtype": ">f8"},
    "weights-number": {"weights_b64": 5},
    "weights-not-ascii": {"weights_b64": "é"},
}
MALFORMED_LM_FIELDS = {
    "lambda-zero": {"lambda": 0},
    "lambda-negative": {"lambda": -1},
    "lambda-nan": {"lambda": float("nan")},
    "n-zero": {"n": 0, "machine_ngrams": {}, "human_ngrams": {}},
    "n-true": {"n": True},
    "lambda-string": {"lambda": "0.1"},
    "lambda-true": {"lambda": True},
    "machine-ngrams-list": {"machine_ngrams": [["mm", 2]]},
    "human-ngrams-string": {"human_ngrams": "hh"},
    "lambda-inf": {"lambda": float("inf")},
    "n-string": {"n": "1"},
    "count-fractional": {"machine_ngrams": {"mm": 3.5}},
    "count-negative": {"human_ngrams": {"hh": -3}},
    "key-too-long": {"machine_ngrams": {"mm\x1fhh": 2}},
}


def with_fields(**fields):
    """Model-file mutation that overwrites top-level JSON fields."""

    def mutate(data: bytes) -> bytes:
        return json.dumps({**json.loads(data), **fields}).encode("utf-8")

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda data: data[: len(data) // 2],  # truncated
        lambda data: data.replace(b'"version":1', b'"version":99'),
        lambda data: data.replace(b"mgtstack-model", b"something-else"),
        lambda data: data.replace(b"ngram_logreg", b"mystery_kind"),
        lambda data: data.replace(b'"bias":', b'"wrong_field":'),
        *(
            pytest.param(with_fields(**fields), id=name)
            for name, fields in MALFORMED_LOGREG_FIELDS.items()
        ),
    ],
)
def test_corrupt_model_files_raise(tmp_path, mutate):
    model = NGramLogRegModel.new(hash_buckets=16)
    path = tmp_path / "m.json"
    save_model(model, str(path))
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(ModelFormatError):
        load_model(str(path))


@pytest.mark.parametrize("fields", MALFORMED_LM_FIELDS.values(), ids=MALFORMED_LM_FIELDS.keys())
def test_corrupt_lm_model_files_raise(tmp_path, fields):
    det = NGramLMDetector.fit(lm_corpus(), n=1, lam=0.1)
    path = tmp_path / "lm.json"
    save_model(det, str(path))
    path.write_bytes(with_fields(**fields)(path.read_bytes()))
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_corrupt_lm_counts_raise(tmp_path):
    det = NGramLMDetector.fit(lm_corpus(), n=1, lam=0.1)
    path = tmp_path / "lm.json"
    save_model(det, str(path))
    data = path.read_text("utf-8")
    for bad in ('"mm":-2', '"mm":true'):
        path.write_text(data.replace('"mm":2', bad), "utf-8")
        with pytest.raises(ModelFormatError):
            load_model(str(path))


# load(save(m)) == m for models of orders 1 to 3, scores bit-equal

_WORDS = st.sampled_from(["aa", "bb", "cc", "dd"])
_TEXTS = st.lists(st.lists(_WORDS, max_size=8).map(" ".join), min_size=1, max_size=4)


@st.composite
def lm_models(draw):
    docs = [
        Document.from_text(f"d{i}", " ".join(draw(st.lists(_WORDS, min_size=1, max_size=8))) + ".", label=i % 2)
        for i in range(draw(st.integers(2, 5)))
    ]
    return NGramLMDetector.fit(docs, n=draw(st.integers(1, 3)), lam=draw(st.floats(1e-3, 10.0)))


@st.composite
def logreg_models(draw):
    buckets = draw(st.integers(1, 16))
    weight = st.floats(-1e3, 1e3)  # includes -0.0 and subnormals
    return NGramLogRegModel(
        n=draw(st.integers(1, 3)),
        feature_mode=draw(st.sampled_from(["word", "char"])),
        hash_buckets=buckets,
        weights=np.array(draw(st.lists(weight, min_size=buckets, max_size=buckets)), dtype=np.float64),
        bias=draw(weight),
        hash_seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=80, deadline=None)
@given(model=st.one_of(lm_models(), logreg_models()), texts=_TEXTS)
def test_save_load_round_trip_is_exact(model, texts):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "m.json")
        save_model(model, path)
        loaded = load_model(path)
    assert type(loaded) is type(model)
    if isinstance(model, NGramLMDetector):
        assert loaded == model
    else:
        assert (loaded.n, loaded.feature_mode, loaded.hash_buckets, loaded.hash_seed) == (
            model.n,
            model.feature_mode,
            model.hash_buckets,
            model.hash_seed,
        )
        assert loaded.bias.hex() == model.bias.hex()
        assert loaded.weights.dtype == np.float64 and loaded.weights.tobytes() == model.weights.tobytes()
    for text in texts:
        assert loaded.score(text).hex() == model.score(text).hex()


def test_missing_model_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(str(tmp_path / "absent.json"))


def test_save_model_rejects_unknown_types(tmp_path):
    with pytest.raises(InvalidConfig):
        save_model(object(), str(tmp_path / "x.json"))
