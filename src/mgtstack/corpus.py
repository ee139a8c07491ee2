"""JSONL corpus reading and writing.

One UTF-8 JSON object per line: ``{"id": ..., "text": ..., "label": 0|1}``
with ``label`` optional.  Lines are LF separated; documents keep file order.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import EmptyDocument, InvalidConfig
from .segmentation import Document


class CorpusFormatError(InvalidConfig):
    """A corpus line is not valid JSON or is missing required fields."""


def _document_from_record(record: dict, lineno: int, abbreviations: frozenset[str] | None) -> Document:
    if not isinstance(record, dict):
        raise CorpusFormatError(f"line {lineno}: expected a JSON object")
    try:
        doc_id = record["id"]
        text = record["text"]
    except KeyError as exc:
        raise CorpusFormatError(f"line {lineno}: missing field {exc.args[0]!r}") from None
    try:
        return Document.from_text(doc_id, text, record.get("label"), abbreviations)
    except (InvalidConfig, EmptyDocument) as exc:
        raise CorpusFormatError(f"line {lineno}: {exc}") from None


def load_corpus(path: str, abbreviations: frozenset[str] | None = None) -> list[Document]:
    """Read a JSONL corpus.

    Each document splits into sentences, with ``abbreviations`` as its guard
    list, the first time its ``sentences`` are read, so a caller that reads
    only the texts never splits.  A blank text still fails here, naming its
    line.
    """
    docs: list[Document] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            docs.append(_document_from_record(record, lineno, abbreviations))
    return docs


def save_corpus(path: str, docs: Iterable[Document]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            record: dict = {"id": doc.id, "text": doc.text}
            if doc.label is not None:
                record["label"] = doc.label
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
