"""Deterministic sentence segmentation and fixed-size sentence grouping.

The splitter is rule based on purpose: downstream passes must be able to
re-split reconstructed text and land on exactly the same boundaries, so no
statistical tokenizer is used.  A sentence ends at ``.``, ``!``, ``?`` or
``…`` when the terminator is followed by whitespace (or end of text), is not
inside paired quotes or brackets, and, for periods, does not close a known
abbreviation.

Offsets are half-open ``[start, end)`` into the original string.  Spans never
include the whitespace between sentences, so joining span texts loses only
inter-sentence whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import NamedTuple, Sequence

from .errors import EmptyDocument, EmptyRetention, InvalidConfig

_TERMINATORS = frozenset(".!?…")
_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(")]}")
# Every character the scanner has to look at: terminators plus anything that
# changes quote/bracket state.  Keeping the scan on regex matches instead of
# single characters keeps segmentation cheap relative to detector scoring.
_SPECIAL_RE = re.compile(r'[.!?…()\[\]{}"“”]')
_TOKEN_TRIM = "\"'([{“‘"


class Span(NamedTuple):
    start: int
    end: int


@lru_cache(maxsize=8)
def _packaged_abbreviations() -> frozenset[str]:
    raw = resources.files("mgtstack.data").joinpath("abbreviations.txt").read_text("utf-8")
    return _parse_abbreviations(raw)


def _parse_abbreviations(raw: str) -> frozenset[str]:
    entries = set()
    for line in raw.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line.casefold())
    return frozenset(entries)


def load_abbreviations(path: str | None = None) -> frozenset[str]:
    """Load the abbreviation guard list, from ``path`` or the packaged default."""
    if path is None:
        return _packaged_abbreviations()
    with open(path, encoding="utf-8") as fh:
        return _parse_abbreviations(fh.read())


def _token_before(text: str, pos: int) -> str:
    # The word whose final character sits at pos, leading quotes stripped.
    a = pos
    while a > 0 and not text[a - 1].isspace():
        a -= 1
    return text[a : pos + 1].lstrip(_TOKEN_TRIM)


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> tuple[Span, ...]:
    """Split ``text`` into sentence spans.

    Raises EmptyDocument when the text holds no non-whitespace characters.
    The result is deterministic: equal inputs give equal spans.
    """
    if not text or text.isspace():
        raise EmptyDocument("text contains no sentences")
    guard = _packaged_abbreviations() if abbreviations is None else abbreviations

    n = len(text)
    breaks: list[int] = []  # index of the terminator that ends each sentence
    bracket_depth = 0
    curly_depth = 0
    in_dquote = False
    for match in _SPECIAL_RE.finditer(text):
        ch = match.group()
        pos = match.start()
        if ch in _OPENERS:
            bracket_depth += 1
        elif ch in _CLOSERS:
            bracket_depth = max(0, bracket_depth - 1)
        elif ch == '"':
            in_dquote = not in_dquote
        elif ch == "“":
            curly_depth += 1
        elif ch == "”":
            curly_depth = max(0, curly_depth - 1)
        else:  # terminator
            if bracket_depth or curly_depth or in_dquote:
                continue
            nxt = pos + 1
            if nxt < n and not text[nxt].isspace():
                continue
            if ch == "." and _token_before(text, pos).casefold() in guard:
                continue
            breaks.append(pos)

    spans: list[Span] = []
    cursor = 0
    for brk in breaks:
        start = cursor
        while start <= brk and text[start].isspace():
            start += 1
        if start <= brk:
            spans.append(Span(start, brk + 1))
        cursor = brk + 1
    # Whatever trails the last break is one final sentence, terminator or not.
    tail = text[cursor:]
    if tail and not tail.isspace():
        start = cursor
        while text[start].isspace():
            start += 1
        end = n
        while text[end - 1].isspace():
            end -= 1
        spans.append(Span(start, end))
    if not spans:
        raise EmptyDocument("text contains no sentences")
    return tuple(spans)


@dataclass(frozen=True)
class Document:
    """A text with precomputed sentence spans and an optional class label.

    ``label`` is 1 for machine-generated, 0 for human-written, None when
    unknown (e.g. detection input).  ``sentences`` are non-empty, in order,
    and separated by whitespace, and the text holds only whitespace outside
    them, as :func:`split_sentences` leaves it.  So no word crosses a span
    boundary, and the words of the groups, in order, are the document's.
    """

    id: str
    text: str
    label: int | None = None
    sentences: tuple[Span, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.label not in (None, 0, 1):
            raise InvalidConfig(f"label must be 0, 1 or None, got {self.label!r}")
        cursor = 0
        for i, (start, end) in enumerate(self.sentences):
            gap = self.text[cursor:start]
            if not cursor <= start < end <= len(self.text) or not (gap.isspace() or (i == 0 and not gap)):
                raise InvalidConfig(f"document {self.id!r}: sentence span {i} overlaps or skips text")
            cursor = end
        if self.text[cursor:].strip():
            raise InvalidConfig(f"document {self.id!r} has text after its last sentence span")

    @classmethod
    def from_text(
        cls,
        id: str,
        text: str,
        label: int | None = None,
        abbreviations: frozenset[str] | None = None,
    ) -> "Document":
        return cls(id=id, text=text, label=label, sentences=split_sentences(text, abbreviations))

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    def sentence_texts(self) -> list[str]:
        return [self.text[s.start : s.end] for s in self.sentences]


@dataclass(frozen=True)
class SubsequenceSet:
    """Contiguous sentence groups of a document, each holding at most k sentences.

    ``groups`` are half-open ranges over sentence indices; their union covers
    every sentence exactly once, in order.
    """

    doc_id: str
    k: int
    groups: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.groups)


def group_subsequences(doc: Document, k: int) -> SubsequenceSet:
    """Greedy left-to-right grouping into ceil(n_sentences / k) groups."""
    if not isinstance(k, int) or k < 1:
        raise InvalidConfig(f"group size k must be a positive integer, got {k!r}")
    n = doc.n_sentences
    if n == 0:
        raise EmptyDocument(f"document {doc.id!r} has no sentences")
    groups = tuple((i, min(i + k, n)) for i in range(0, n, k))
    return SubsequenceSet(doc_id=doc.id, k=k, groups=groups)


def group_text(doc: Document, group: tuple[int, int]) -> str:
    """Original text of one group, intra-group whitespace preserved."""
    lo, hi = group
    return doc.text[doc.sentences[lo].start : doc.sentences[hi - 1].end]


def group_texts(doc: Document, subseq: SubsequenceSet) -> list[str]:
    return [group_text(doc, g) for g in subseq.groups]


def reconstruct(doc: Document, subseq: SubsequenceSet, mask: Sequence[int]) -> str:
    """Concatenate the groups whose mask bit is 1, joined by single spaces.

    Raises EmptyRetention for an all-zero mask and InvalidConfig when the mask
    length does not match the group count.
    """
    if len(mask) != len(subseq.groups):
        raise InvalidConfig(
            f"mask length {len(mask)} != group count {len(subseq.groups)}"
        )
    kept = [group_text(doc, g) for g, bit in zip(subseq.groups, mask) if bit]
    if not kept:
        raise EmptyRetention(f"mask retains nothing for document {doc.id!r}")
    return " ".join(kept)
