"""JSONL corpus IO."""

from __future__ import annotations

import json

import pytest

from mgtstack import Document, InvalidConfig, load_corpus, save_corpus
from mgtstack.corpus import CorpusFormatError


def test_round_trip(tmp_path):
    docs = [
        Document.from_text("a", "First zz. Second qq.", label=1),
        Document.from_text("b", "Only one here.", label=0),
        Document.from_text("c", "No label here."),
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(str(path), docs)
    loaded = load_corpus(str(path))
    assert [(d.id, d.text, d.label) for d in loaded] == [(d.id, d.text, d.label) for d in docs]
    assert loaded[0].n_sentences == 2


def test_unlabeled_records_omit_label_field(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(str(path), [Document.from_text("a", "Hi there.")])
    record = json.loads(path.read_text(encoding="utf-8"))
    assert "label" not in record


def test_unicode_preserved(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(str(path), [Document.from_text("a", "Café halt früh.", label=0)])
    assert "Café" in path.read_text(encoding="utf-8")
    assert load_corpus(str(path))[0].text == "Café halt früh."


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "text": "Hi there."}\n\n\n{"id": "b", "text": "Bye now."}\n', "utf-8")
    assert [d.id for d in load_corpus(str(path))] == ["a", "b"]


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("{not json", "line 2"),
        ('{"id": "x"}', "text"),
        ('{"text": "Hi there."}', "id"),
        ('{"id": "x", "text": "Hi.", "label": 2}', "label"),
        ('{"id": "x", "text": "Hi.", "label": true}', "label"),
        ('{"id": "x", "text": "Hi.", "label": 1.0}', "label"),
        ('{"id": 5, "text": "Hi."}', "strings"),
        ('{"id": "x", "text": 5}', "strings"),
        ('{"id": "x", "text": ["Hi."]}', "strings"),
        ('{"id": 5, "text": "   "}', "strings"),
        ('{"id": "x", "text": "   "}', "no sentences"),
        ('{"id": "x", "text": ""}', "no sentences"),
        ('{"id": "x", "text": "Hi \\udc00 there."}', "not UTF-8 at offset 3"),
        ("[1, 2]", "object"),
    ],
)
def test_bad_lines_name_the_line(tmp_path, line, fragment):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "ok", "text": "Fine here."}\n' + line + "\n", "utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(str(path))
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_corpus_error_is_invalid_config():
    assert issubclass(CorpusFormatError, InvalidConfig)


def test_empty_file_is_empty_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", "utf-8")
    assert load_corpus(str(path)) == []
