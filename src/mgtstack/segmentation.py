"""Deterministic sentence segmentation and fixed-size sentence grouping.

The splitter is rule based on purpose: downstream passes must be able to
re-split reconstructed text and land on exactly the same boundaries, so no
statistical tokenizer is used.  A sentence ends at ``.``, ``!``, ``?`` or
``…`` when the terminator is followed by whitespace (or end of text), is not
inside paired quotes or brackets, and, for periods, does not close a known
abbreviation.

Offsets are half-open ``[start, end)`` into the original string.  Spans never
include the whitespace between sentences, so joining span texts loses only
inter-sentence whitespace.  A document's groups are half-open ``(lo, hi)``
ranges of sentence indices, in the same convention.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass
from functools import lru_cache
from importlib import resources
from typing import ClassVar, NamedTuple, Sequence

from .errors import EmptyDocument, EmptyRetention, InvalidConfig, _check_int

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


@dataclass(frozen=True, eq=False)
class Document:
    """A text with sentence spans and an optional class label.

    ``label`` is 1 for machine-generated, 0 for human-written, None when
    unknown (e.g. detection input).  ``sentences`` are non-empty, in order,
    and separated by whitespace, and the text holds only whitespace outside
    them, as :func:`split_sentences` leaves it.  So no word crosses a span
    boundary, and the words of the groups, in order, are the document's.

    Spans given to the constructor are checked there.  Without them the
    spans are lazy: the first read of ``sentences`` splits ``text`` with the
    abbreviation list given to :meth:`from_text` (the packaged one by
    default) and keeps the result, so a caller that reads only ``text``,
    such as the base detector's scoring, never splits.  A blank text raises
    EmptyDocument at construction, with or without spans, so every document
    has at least one sentence; an id or text that UTF-8 cannot encode raises
    InvalidConfig naming the offset.  Documents compare equal when their ids,
    texts, labels and spans are; pickling keeps unread spans unread.
    """

    id: str
    text: str
    label: int | None = None
    sentences: InitVar[tuple[Span, ...] | None] = None
    _abbreviations: ClassVar[frozenset[str] | None] = None

    def __post_init__(self, sentences: tuple[Span, ...] | None) -> None:
        if not isinstance(self.id, str) or not isinstance(self.text, str):
            kinds = f"{type(self.id).__name__} and {type(self.text).__name__}"
            raise InvalidConfig(f"document id and text must be strings, got {kinds}")
        if self.label is not None and (type(self.label) is not int or self.label not in (0, 1)):
            raise InvalidConfig(f"label must be 0, 1 or None, got {self.label!r}")
        if not self.text or self.text.isspace():
            raise EmptyDocument("text contains no sentences")
        if not (self.id.isascii() and self.text.isascii()):  # ASCII always encodes
            for name, value in (("id", self.id), ("text", self.text)):
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as exc:  # a lone surrogate, which no UTF-8 file can hold
                    raise InvalidConfig(f"document {self.id!r}: {name} is not UTF-8 at offset {exc.start}") from None
        if sentences is None:
            return
        cursor = 0
        for i, (start, end) in enumerate(sentences):
            gap = self.text[cursor:start]
            if not cursor <= start < end <= len(self.text) or not (gap.isspace() or (i == 0 and not gap)):
                raise InvalidConfig(f"document {self.id!r}: sentence span {i} overlaps or skips text")
            cursor = end
        if self.text[cursor:].strip():
            raise InvalidConfig(f"document {self.id!r} has text after its last sentence span")
        object.__setattr__(self, "sentences", sentences)

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: unread spans.
        if name != "sentences":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        spans = split_sentences(self.text, self._abbreviations)
        object.__setattr__(self, "sentences", spans)
        return spans

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.id, self.text, self.label, self.sentences) == (
            other.id,
            other.text,
            other.label,
            other.sentences,
        )

    def __hash__(self) -> int:
        return hash((self.id, self.text, self.label))

    @classmethod
    def from_text(
        cls,
        id: str,
        text: str,
        label: int | None = None,
        abbreviations: frozenset[str] | None = None,
    ) -> "Document":
        """A document whose spans :func:`split_sentences` gives on first read."""
        doc = cls(id, text, label)
        if abbreviations is not None:
            object.__setattr__(doc, "_abbreviations", abbreviations)
        return doc

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    def sentence_texts(self) -> list[str]:
        return [self.text[s.start : s.end] for s in self.sentences]


# The InitVar's class default would hide unread spans from __getattr__.
del Document.sentences


def group_subsequences(doc: Document, k: int) -> tuple[tuple[int, int], ...]:
    """Greedy left-to-right grouping into ceil(n_sentences / k) groups.

    Each group is a half-open ``(lo, hi)`` range of sentence indices holding
    at most k sentences; the ranges cover every sentence once, in order.
    """
    _check_int(k, "group size k")
    n = doc.n_sentences
    return tuple((i, min(i + k, n)) for i in range(0, n, k))


def group_text(doc: Document, group: tuple[int, int]) -> str:
    """Original text of one group, intra-group whitespace preserved."""
    lo, hi = group
    return doc.text[doc.sentences[lo].start : doc.sentences[hi - 1].end]


def group_texts(doc: Document, groups: Sequence[tuple[int, int]]) -> list[str]:
    return [group_text(doc, g) for g in groups]


def reconstruct(doc: Document, groups: Sequence[tuple[int, int]], mask: Sequence[int]) -> str:
    """Concatenate the groups whose mask bit is 1, joined by single spaces.

    Raises EmptyRetention for an all-zero mask and InvalidConfig when the mask
    length does not match the group count.
    """
    if len(mask) != len(groups):
        raise InvalidConfig(f"mask length {len(mask)} != group count {len(groups)}")
    kept = [group_text(doc, g) for g, bit in zip(groups, mask) if bit]
    if not kept:
        raise EmptyRetention(f"mask retains nothing for document {doc.id!r}")
    return " ".join(kept)
