"""Shared test fixtures and stub detectors."""

from __future__ import annotations

import subprocess

import pytest

from mgtstack import Document


class MapDetector:
    """Deterministic detector that scores by exact text lookup.

    Unknown texts get ``default``.  Every scored text is recorded in
    ``calls`` so tests can assert exactly what the wrapper fed it.
    """

    def __init__(self, table: dict[str, float] | None = None, default: float = 0.5):
        self.table = dict(table or {})
        self.default = default
        self.calls: list[str] = []

    def score(self, text: str) -> float:
        self.calls.append(text)
        return self.table.get(text, self.default)


class MarkerDetector:
    """Score = share of whitespace tokens equal to the marker word."""

    def __init__(self, marker: str = "zz"):
        self.marker = marker

    def score(self, text: str) -> float:
        tokens = [t.strip(".!?").casefold() for t in text.split()]
        if not tokens:
            return 0.5
        return sum(1 for t in tokens if t == self.marker) / len(tokens)


def make_doc(sentences: list[str], doc_id: str = "d", label: int | None = None) -> Document:
    """Document whose sentence list is exactly ``sentences`` (joined by single
    spaces; each element must already end with a terminator)."""
    doc = Document.from_text(doc_id, " ".join(sentences), label)
    assert doc.sentence_texts() == sentences, "fixture sentences did not survive splitting"
    return doc


@pytest.fixture
def map_detector():
    return MapDetector()


@pytest.fixture
def popens(monkeypatch):
    """``(events, fail_launches, interrupt_feeds)`` with ``subprocess.Popen``
    recording: events are ("launch" or "feed", process) pairs, in order.  A
    launch whose number is added to ``fail_launches`` raises OSError, and a
    feed whose number is added to ``interrupt_feeds`` raises
    KeyboardInterrupt before anything is sent."""
    events: list[tuple[str, subprocess.Popen]] = []
    fail_launches: set[int] = set()
    interrupt_feeds: set[int] = set()

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            if sum(kind == "launch" for kind, _ in events) + 1 in fail_launches:
                raise OSError("launch refused by the test")
            super().__init__(*args, **kwargs)
            events.append(("launch", self))

        def communicate(self, *args, **kwargs):
            events.append(("feed", self))
            if sum(kind == "feed" for kind, _ in events) in interrupt_feeds:
                raise KeyboardInterrupt
            return super().communicate(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return events, fail_launches, interrupt_feeds
