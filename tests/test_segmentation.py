"""Sentence splitting, grouping, and reconstruction."""

from __future__ import annotations

import gc
import math
import pickle
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtstack import (
    Document,
    EmptyDocument,
    EmptyRetention,
    InvalidConfig,
    Span,
    group_subsequences,
    group_text,
    load_abbreviations,
    reconstruct,
    split_sentences,
)
from mgtstack.segmentation import group_texts
from mgtstack.synthdata import SynthSpec, synth_corpus

import baselines
from conftest import make_doc

# Words safe to build synthetic sentences from: none collides with the
# abbreviation guard list.
_WORDS = ("zz", "qq", "xx", "vv", "ww")


def texts_of(text: str) -> list[str]:
    return [text[s.start : s.end] for s in split_sentences(text)]


# --------------------------------------------------------------------------
# hand-checked splitting examples


def test_three_plain_sentences():
    assert texts_of("A. B? C!") == ["A.", "B?", "C!"]


def test_abbreviation_does_not_break():
    assert texts_of("Dr. Smith left. He returned.") == ["Dr. Smith left.", "He returned."]


def test_abbreviation_case_insensitive():
    assert texts_of("DR. Smith left. Onward.") == ["DR. Smith left.", "Onward."]


def test_ellipsis_breaks():
    assert texts_of("Wait… Really?") == ["Wait…", "Really?"]


def test_unterminated_tail_is_a_sentence():
    assert texts_of("One. two three") == ["One.", "two three"]


def test_terminator_needs_following_whitespace():
    # A version string is not a sentence boundary.
    assert texts_of("Use v1.2 daily. Then stop.") == ["Use v1.2 daily.", "Then stop."]


def test_quoted_terminators_do_not_break():
    text = 'He said "Stop. Now." and left. Fine.'
    assert texts_of(text) == ['He said "Stop. Now." and left.', "Fine."]


def test_curly_quotes_do_not_break():
    text = "He said “Stop. Now.” softly. Fine."
    assert texts_of(text) == ["He said “Stop. Now.” softly.", "Fine."]


def test_bracketed_terminators_do_not_break():
    assert texts_of("It works (really! truly!) well. Next.") == [
        "It works (really! truly!) well.",
        "Next.",
    ]


def test_abbreviation_inside_parens():
    assert texts_of("Results improved (cf. above) a lot. Done.") == [
        "Results improved (cf. above) a lot.",
        "Done.",
    ]


def test_multiple_spaces_between_sentences():
    text = "First one.   Second one."
    spans = split_sentences(text)
    assert [text[s.start : s.end] for s in spans] == ["First one.", "Second one."]


def test_leading_and_trailing_whitespace_excluded():
    text = "  Hello there.  "
    (span,) = split_sentences(text)
    assert text[span.start : span.end] == "Hello there."


def test_empty_text_raises():
    with pytest.raises(EmptyDocument):
        split_sentences("")
    with pytest.raises(EmptyDocument):
        split_sentences("   \n\t ")


def test_custom_abbreviations(tmp_path):
    path = tmp_path / "abbr.txt"
    path.write_text("# comment\nzzz.\n", encoding="utf-8")
    guard = load_abbreviations(str(path))
    assert "zzz." in guard and "# comment" not in guard
    # With the custom guard, "zzz." no longer ends a sentence.
    assert split_sentences("Call zzz. now.", guard) == (Span(0, 14),)
    assert len(split_sentences("Call zzz. now.")) == 2


def test_packaged_abbreviations_loaded_once():
    assert load_abbreviations() is load_abbreviations()
    assert "e.g." in load_abbreviations()


# --------------------------------------------------------------------------
# splitting invariants


# Pieces of texts to split: straight and curly quotes, nested and unbalanced
# brackets, leading quotes, terminators inside and after words, Unicode
# whitespace, characters whose casefold changes length, and words of the
# custom guard list below.
_PIECES = (
    *"ab c.!?…()[]{}\"“”'‘\n\t",
    *"\x1c\x85\xa0\u2009\u3000ßİ",
    "e.g.", "Dr.", "zz.", "'zz.", "‘qq.", "ss.", "v1.2",
    "ſt.", '""""""""""st.', "approximately.",
)
_GUARDS = (None, frozenset({"zz.", "qq.", "ss."}))
# Guards with an entry longer than any word, or with one that holds a space.
_WIDE_GUARDS = (frozenset({"zz.", "q" * 1000 + "."}), frozenset({"zz. qq.", "e.g."}))


@st.composite
def raw_texts(draw):
    text = "".join(draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=40)))
    if not text.strip():
        text = text + "a"
    return text


@given(raw_texts(), st.sampled_from(_GUARDS))
@settings(max_examples=500)
def test_spans_are_ordered_disjoint_and_cover_nonspace(text, guard):
    spans = split_sentences(text, guard)
    # The splitter's spans pass the constructor's check on hand-built spans.
    assert Document("d", text, sentences=spans).sentences == spans
    for span in spans[:-1]:  # only the last sentence may lack a terminator
        assert text[span.end - 1] in ".!?…" and text[span.end].isspace()
    prev_end = 0
    covered = set()
    for span in spans:
        assert span.start < span.end
        assert span.start >= prev_end
        assert not text[span.start].isspace()
        assert not text[span.end - 1].isspace()
        covered.update(range(span.start, span.end))
        prev_end = span.end
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert i in covered


@given(raw_texts())
@settings(max_examples=150)
def test_splitting_is_deterministic(text):
    assert split_sentences(text) == split_sentences(text)


@given(raw_texts(), st.sampled_from(_GUARDS + _WIDE_GUARDS))
@settings(max_examples=2000, deadline=None)
def test_split_matches_the_reference_scanner(text, guard):
    assert split_sentences(text, guard) == baselines.split_sentences(text, guard)


@pytest.mark.parametrize("unit", ["e.g.\xa0", "Dr.\u3000", "zz.\x85", '""""""""""st.\xa0'])
def test_text_without_ascii_space_splits_in_linear_time(unit):
    # Every period here ends a word followed by whitespace, none of it an
    # ASCII space, so each one is a candidate break whose word is looked up.
    # In the last unit the quotes run back past the longest guard entry, so
    # its word is scanned back past the window it is first read from.
    def seconds(size: int) -> float:
        text = unit * (size // len(unit))
        gc.disable()  # a collection costs time in the whole heap, not the text
        try:
            started = time.perf_counter()
            split_sentences(text)
            return time.perf_counter() - started
        finally:
            gc.enable()

    small = min(seconds(10**4) for _ in range(3))
    # Ten times the text takes about ten times as long; a lookup that walked
    # back further than the word would take about a hundred times as long.
    assert min(seconds(10**5) for _ in range(2)) < 30 * small


@st.composite
def word_docs(draw):
    n_sentences = draw(st.integers(min_value=1, max_value=12))
    sentences = []
    for _ in range(n_sentences):
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6))
        sentences.append(" ".join(words).capitalize() + ".")
    return make_doc(sentences)


@given(word_docs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=200)
def test_grouping_covers_every_sentence_once(doc, k):
    groups = group_subsequences(doc, k)
    assert len(groups) == math.ceil(doc.n_sentences / k)
    seen = []
    for lo, hi in groups:
        assert 1 <= hi - lo <= k
        seen.extend(range(lo, hi))
    assert seen == list(range(doc.n_sentences))


@given(word_docs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=200)
def test_reconstruct_all_ones_round_trips(doc, k):
    subseq = group_subsequences(doc, k)
    rebuilt = reconstruct(doc, subseq, [1] * len(subseq))
    # Fixture docs use single-space separators, so the round trip is exact
    # and re-splitting lands on the same sentences.
    assert rebuilt == doc.text
    assert Document.from_text("r", rebuilt).sentence_texts() == doc.sentence_texts()


# --------------------------------------------------------------------------
# grouping and reconstruction specifics


def test_group_shapes_seven_sentences_k3():
    doc = make_doc([f"Word {w}." for w in ("a", "b", "c", "d", "e", "f", "g")])
    assert group_subsequences(doc, 3) == ((0, 3), (3, 6), (6, 7))


def test_group_k1_is_per_sentence():
    doc = make_doc(["Aa zz.", "Bb qq.", "Cc xx."])
    subseq = group_subsequences(doc, 1)
    assert len(subseq) == 3
    assert group_texts(doc, subseq) == doc.sentence_texts()


def test_group_k_larger_than_doc():
    doc = make_doc(["Aa zz.", "Bb qq."])
    groups = group_subsequences(doc, 10)
    assert groups == ((0, 2),)
    assert group_text(doc, groups[0]) == doc.text


def test_group_invalid_k():
    doc = make_doc(["Aa zz."])
    for bad in (0, -1, 1.5):
        with pytest.raises(InvalidConfig):
            group_subsequences(doc, bad)


def test_group_text_preserves_internal_whitespace():
    text = "First here.  Second there. Third now."
    doc = Document.from_text("d", text)
    groups = group_subsequences(doc, 2)
    assert group_text(doc, groups[0]) == "First here.  Second there."


def test_reconstruct_drops_masked_groups():
    doc = make_doc(["Aa zz.", "Bb qq.", "Cc xx.", "Dd vv."])
    subseq = group_subsequences(doc, 1)
    assert reconstruct(doc, subseq, [1, 0, 1, 0]) == "Aa zz. Cc xx."


def test_reconstruct_all_zero_raises():
    doc = make_doc(["Aa zz.", "Bb qq."])
    subseq = group_subsequences(doc, 1)
    with pytest.raises(EmptyRetention):
        reconstruct(doc, subseq, [0, 0])


def test_reconstruct_length_mismatch_raises():
    doc = make_doc(["Aa zz.", "Bb qq."])
    subseq = group_subsequences(doc, 1)
    with pytest.raises(InvalidConfig):
        reconstruct(doc, subseq, [1])


# --------------------------------------------------------------------------
# Document


def test_document_label_validation():
    with pytest.raises(InvalidConfig):
        Document.from_text("d", "Hi there.", label=2)
    assert Document.from_text("d", "Hi there.", label=None).label is None


@pytest.mark.parametrize("make", [Document, Document.from_text])
@pytest.mark.parametrize("doc_id, text", [(5, "Hi."), ("a", 5), ("a", None), (None, "Hi.")])
def test_document_id_and_text_must_be_str(make, doc_id, text):
    with pytest.raises(InvalidConfig, match="strings"):
        make(doc_id, text)


def test_document_from_text_splits():
    doc = Document.from_text("d", "One zz. Two qq.", label=1)
    assert doc.n_sentences == 2
    assert doc.sentence_texts() == ["One zz.", "Two qq."]
    assert doc.label == 1


def test_document_equality_and_hash():
    # Equal iff id, text, label and spans agree; comparing splits unread
    # spans; the hash leaves spans out.
    text = "One zz. Two qq."
    spans = (Span(0, 7), Span(8, 15))
    lazy = Document.from_text("d", text, label=1)
    given_spans = Document("d", text, 1, sentences=spans)
    assert "sentences" not in vars(lazy)
    assert lazy == given_spans and hash(lazy) == hash(given_spans)
    assert vars(lazy)["sentences"] == spans
    one_span = Document("d", text, 1, sentences=(Span(0, 15),))
    assert one_span != given_spans and hash(one_span) == hash(given_spans)
    others = [("e", text, 1), ("d", "One zz. Two qq!", 1), ("d", text, 0), ("d", text, None)]
    assert all(Document(*fields) != given_spans for fields in others)
    assert given_spans != ("d", text, 1, spans)  # only a Document equals a Document


def test_pickling_keeps_spans_and_unread_documents():
    text = "One zz. Two qq. Three."
    split, unread = Document.from_text("d", text, 1), Document.from_text("d", text, 1)
    assert split.n_sentences == 3
    split_copy, unread_copy = pickle.loads(pickle.dumps(split)), pickle.loads(pickle.dumps(unread))
    assert "sentences" in vars(split_copy) and split_copy.sentences == split.sentences
    assert "sentences" not in vars(unread_copy)
    assert unread_copy == split_copy and "sentences" in vars(unread_copy)


def test_split_spans_of_a_corpus_fit_in_three_megabytes():
    # 8000 documents of 18 to 24 sentences: the spans as Span tuples took
    # about 20 MB, as flat offsets about 2 MB.
    docs = synth_corpus(SynthSpec(n_docs=8000, seed=31, sentences_per_doc=(18, 24), words_per_sentence=(3, 5)))
    gc.collect()
    tracemalloc.start()
    try:
        n_sentences = sum(doc.n_sentences for doc in docs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_sentences >= 8000 * 18
    assert held <= 3_000_000, f"{held / 1e6:.2f} MB for {n_sentences} sentences"


def test_document_empty_raises():
    with pytest.raises(EmptyDocument):
        Document.from_text("d", "  ")


@pytest.mark.parametrize("text", ["", "   "])
def test_document_with_spans_rejects_blank_text(text):
    # Hand-built spans do not bypass the blank-text rule of the lazy path.
    with pytest.raises(EmptyDocument):
        Document("d", text, sentences=())


@pytest.mark.parametrize("make", [Document, Document.from_text])
@pytest.mark.parametrize("text, offset", [("\ud800", 0), ("Hi \udfff there.", 3), ("Hi. \ud83d", 4)])
def test_document_rejects_id_or_text_utf8_cannot_encode(make, text, offset):
    # A lone surrogate could be neither hashed as UTF-8 nor saved.
    with pytest.raises(InvalidConfig, match=f"document 'd': text is not UTF-8 at offset {offset}$"):
        make("d", text)
    with pytest.raises(InvalidConfig, match=f"id is not UTF-8 at offset {offset}$"):
        make(text, "Hi there.")
    assert make("d", "Hi 😀 there.").text == "Hi \U0001f600 there."  # a pair is one character


def test_document_accepts_hand_built_spans_over_all_words():
    # Spans need not be the splitter's, only cover every non-space character.
    doc = Document("d", " aa bb, cc dd ", sentences=(Span(1, 7), Span(8, 13)))
    assert doc.sentence_texts() == ["aa bb,", "cc dd"]


@pytest.mark.parametrize(
    "spans",
    [
        (Span(0, 5), Span(8, 12)),  # skips ", "
        (Span(0, 4), Span(4, 12)),  # no space between spans: "cc" would split
        (Span(0, 7), Span(5, 12)),  # overlap
        (Span(0, 9),),  # "dd" after the last span
        (Span(0, 0), Span(0, 12)),  # empty span
        (Span(0, 13),),  # past the end
    ],
)
def test_document_rejects_spans_that_skip_or_split_text(spans):
    with pytest.raises(InvalidConfig):
        Document("d", "aa bb, cc dd", sentences=spans)
