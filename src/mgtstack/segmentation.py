"""Deterministic sentence segmentation and fixed-size sentence grouping.

The splitter is rule based on purpose: downstream passes must be able to
re-split reconstructed text and land on exactly the same boundaries, so no
statistical tokenizer is used.  A sentence ends at ``.``, ``!``, ``?`` or
``…`` when the terminator is followed by whitespace (or end of text), is not
inside paired quotes or brackets, and, for periods, does not close a known
abbreviation.

The scan finds candidates with a ``str.find`` loop per terminator, makes
one regex pass over quotes and brackets only for a text holding one, and
reads the word before a period from a window one character wider than the
longest guard entry (casefolding never shortens a word).

Offsets are half-open ``[start, end)`` into the original string, and a
document keeps them as one flat array.  Spans never include the whitespace
between sentences, so joining span texts loses only inter-sentence
whitespace.  A document's groups are half-open ``(lo, hi)`` ranges of
sentence indices, in the same convention.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect
from dataclasses import InitVar, dataclass
from functools import lru_cache
from importlib import resources
from typing import ClassVar, NamedTuple, Sequence

from .errors import EmptyDocument, EmptyRetention, InvalidConfig, _check_int

_TERMINATORS = ".!?…"
_QUOTES = '()[]{}"“”'
_QUOTE_RE = re.compile(r'[()\[\]{}"“”]')
_NONSPACE_RE = re.compile(r"\S")
_TOKEN_TRIM = "\"'([{“‘"


class Span(NamedTuple):
    start: int
    end: int


class _Offsets(array):
    """Sentence spans as flat ``start, end`` pairs.  They equal a tuple of
    the same spans, as the ``Span`` tuples they replace did."""

    __slots__ = ()

    def __eq__(self, other):
        return _spans(self) == other if isinstance(other, tuple) else array.__eq__(self, other)

    def __ne__(self, other):
        return _spans(self) != other if isinstance(other, tuple) else array.__ne__(self, other)


def _spans(offsets: array) -> tuple[Span, ...]:
    return tuple(map(Span, offsets[::2], offsets[1::2]))


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


@lru_cache(maxsize=8)
def _longest(guard: frozenset[str]) -> int:
    return max(map(len, guard), default=0)


def _quoted(text: str) -> list[int]:
    """Where the text enters and leaves paired quotes or brackets, in order:
    a terminator between edges ``2i`` and ``2i + 1`` is inside them."""
    edges: list[int] = []
    brackets, curly, straight = 0, 0, False
    for match in _QUOTE_RE.finditer(text):
        ch, was_inside = match.group(), bool(brackets or curly or straight)
        if ch == '"':
            straight = not straight
        elif ch in "“”":
            curly = curly + 1 if ch == "“" else max(0, curly - 1)
        else:
            brackets = brackets + 1 if ch in "([{" else max(0, brackets - 1)
        if was_inside != bool(brackets or curly or straight):
            edges.append(match.start())
    return edges


def _sentence_offsets(text: str, guard: frozenset[str] | None) -> _Offsets:
    """Flat ``start, end`` pairs of the sentences of ``text``, which must hold
    a non-whitespace character; ``guard`` None is the packaged list."""
    guard = _packaged_abbreviations() if guard is None else guard
    n = len(text)
    ends: list[int] = []  # one past each terminator that may end a sentence
    kinds = [ch for ch in _TERMINATORS if ch in text]
    for ch in kinds:
        i = text.find(ch)
        while i >= 0:
            i += 1
            if i == n or text[i].isspace():
                ends.append(i)
            i = text.find(ch, i)
    if len(kinds) > 1:
        ends.sort()
    if any(ch in text for ch in _QUOTES):
        edges = _quoted(text)
        ends = [e for e in ends if not bisect(edges, e) & 1]
    # Casefolding never shortens a word, so none longer than every entry is one.
    width = _longest(guard) + 1
    offsets: list[int] = []
    start = _NONSPACE_RE.search(text).start()
    for end in ends:
        if text[end - 1] == ".":
            window = text[end - width if end > width else 0 : end]
            word = window.rsplit(None, 1)[-1]
            if len(word) == len(window) and end > width and word[0] in _TOKEN_TRIM:
                a = end - width  # leading quotes may hide a short word's start
                while a > 0 and not text[a - 1].isspace():
                    a -= 1
                word = text[a:end]
            if word.lstrip(_TOKEN_TRIM).casefold() in guard:
                continue
        offsets += start, end
        start = end + 1  # the whitespace after the terminator
        if start < n and text[start].isspace():
            found = _NONSPACE_RE.search(text, start)
            start = found.start() if found else n
    # Whatever trails the last break is one final sentence, terminator or not.
    if start < n:
        offsets += start, start + len(text[start:].rstrip())
    return _Offsets("I" if n < 2**32 else "Q", offsets)  # four bytes an offset, up to 2**32 - 1


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> tuple[Span, ...]:
    """Split ``text`` into sentence spans.

    Raises EmptyDocument when the text holds no non-whitespace characters.
    The result is deterministic: equal inputs give equal spans.
    """
    if not text or text.isspace():
        raise EmptyDocument("text contains no sentences")
    return _spans(_sentence_offsets(text, abbreviations))


@dataclass(frozen=True, eq=False)
class Document:
    """A text with sentence spans and an optional class label.

    ``label`` is 1 for machine-generated, 0 for human-written, None when
    unknown (e.g. detection input).  ``sentences`` are non-empty, in order,
    and separated by whitespace, and the text holds only whitespace outside
    them, as :func:`split_sentences` leaves it.  So no word crosses a span
    boundary, and the words of the groups, in order, are the document's.

    Spans given to the constructor are checked there.  Without them the
    spans are lazy: the first read of ``sentences`` or ``n_sentences``
    splits ``text`` with the abbreviation list given to :meth:`from_text`
    (the packaged one by default) and keeps flat offsets, from which each
    read of ``sentences`` builds its tuple; a caller that reads only
    ``text``, as the base detector does, never splits.  A blank text raises
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
        cursor, flat = 0, []
        for i, (start, end) in enumerate(sentences):
            gap = self.text[cursor:start]
            if not cursor <= start < end <= len(self.text) or not (gap.isspace() or (i == 0 and not gap)):
                raise InvalidConfig(f"document {self.id!r}: sentence span {i} overlaps or skips text")
            cursor = end
            flat += start, end
        if self.text[cursor:].strip():
            raise InvalidConfig(f"document {self.id!r} has text after its last sentence span")
        self.__dict__["sentences"] = _Offsets("I" if len(self.text) < 2**32 else "Q", flat)

    @property
    def _offsets(self) -> _Offsets:
        # Kept under "sentences", the name the spans are given and read by.
        offsets = self.__dict__.get("sentences")
        if offsets is None:
            offsets = self.__dict__["sentences"] = _sentence_offsets(self.text, self._abbreviations)
        return offsets

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.id, self.text, self.label, self._offsets) == (other.id, other.text, other.label, other._offsets)

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
        return len(self._offsets) // 2

    def sentence_texts(self) -> list[str]:
        return [self.text[a:b] for a, b in _spans(self._offsets)]


# In place of the InitVar's class default: the spans, built on each read.
Document.sentences = property(lambda doc: _spans(doc._offsets), doc="The sentence spans, in order.")


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
    return doc.text[doc._offsets[2 * lo] : doc._offsets[2 * hi - 1]]


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
