"""Seeded synthetic corpora for exercising and benchmarking detectors.

Documents are built from pseudo-word vocabularies: one exclusive pool per
class plus a shared pool.  Every document commits to a style: "strong" texts
lean on their class-exclusive words, "weak" ones mostly use shared words.
The weak stratum is what makes the task realistically hard; without it every
document would sit at a score extreme and measured AUROC would pin to 1.0
regardless of detector quality.

Everything is deterministic under the seed, including vocabulary layout,
style assignment, and word choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidConfig, _check_int
from .segmentation import Document

_ONSETS_HUMAN = ("b", "d", "g", "l", "f")
_ONSETS_MACHINE = ("m", "n", "p", "r", "k")
_ONSETS_SHARED = ("s", "t", "v", "z", "w")
_VOWELS = ("a", "e", "i", "o", "u")


def _word_pool(onsets: tuple[str, ...], size: int) -> list[str]:
    # Two-syllable pseudo-words; distinct onset sets keep the pools disjoint.
    syllables = [c + v for c in onsets for v in _VOWELS]
    words = []
    for a in syllables:
        for b in syllables:
            words.append(a + b)
            if len(words) == size:
                return words
    raise InvalidConfig(f"cannot build {size} words from {len(syllables)} syllables")


def _zipf_weights(size: int) -> list[float]:
    return [1.0 / (rank + 2.0) for rank in range(size)]


@dataclass(frozen=True)
class SynthSpec:
    """Corpus shape and signal-strength knobs.

    strong_frac / weak_frac set the per-token probability of drawing a
    class-exclusive word in each style; weak_prob is the share of weak-style
    documents per class.
    """

    n_docs: int = 200
    seed: int = 0
    balance: float = 0.5
    vocab_each: int = 40
    vocab_shared: int = 40
    sentences_per_doc: tuple[int, int] = (12, 15)
    words_per_sentence: tuple[int, int] = (6, 10)
    strong_frac: float = 0.82
    weak_frac: float = 0.10
    weak_prob: float = 0.35

    def __post_init__(self) -> None:
        _check_int(self.n_docs, "n_docs", 2)
        if not (0.0 < self.balance < 1.0):
            raise InvalidConfig("balance must be strictly between 0 and 1")
        lo, hi = self.sentences_per_doc
        if lo < 1 or hi < lo:
            raise InvalidConfig(f"bad sentences_per_doc range {self.sentences_per_doc!r}")
        lo, hi = self.words_per_sentence
        if lo < 1 or hi < lo:
            raise InvalidConfig(f"bad words_per_sentence range {self.words_per_sentence!r}")
        for frac in (self.strong_frac, self.weak_frac, self.weak_prob):
            if not (0.0 <= frac <= 1.0):
                raise InvalidConfig("style fractions must lie in [0, 1]")


@dataclass(frozen=True)
class _Vocab:
    human: list[str]
    machine: list[str]
    shared: list[str]


def _build_vocab(spec: SynthSpec) -> _Vocab:
    return _Vocab(
        human=_word_pool(_ONSETS_HUMAN, spec.vocab_each),
        machine=_word_pool(_ONSETS_MACHINE, spec.vocab_each),
        shared=_word_pool(_ONSETS_SHARED, spec.vocab_shared),
    )


def _sentence(
    rng: random.Random, spec: SynthSpec, exclusive: list[str], exclusive_frac: float, vocab: _Vocab
) -> str:
    n_words = rng.randint(*spec.words_per_sentence)
    shared_w = _zipf_weights(len(vocab.shared))
    excl_w = _zipf_weights(len(exclusive))
    words = []
    for _ in range(n_words):
        if rng.random() < exclusive_frac:
            words.append(rng.choices(exclusive, weights=excl_w, k=1)[0])
        else:
            words.append(rng.choices(vocab.shared, weights=shared_w, k=1)[0])
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _document(rng: random.Random, spec: SynthSpec, vocab: _Vocab, label: int, doc_id: str) -> Document:
    exclusive = vocab.machine if label == 1 else vocab.human
    frac = spec.weak_frac if rng.random() < spec.weak_prob else spec.strong_frac
    n_sent = rng.randint(*spec.sentences_per_doc)
    sentences = [_sentence(rng, spec, exclusive, frac, vocab) for _ in range(n_sent)]
    return Document.from_text(doc_id, " ".join(sentences), label)


def synth_corpus(spec: SynthSpec) -> list[Document]:
    """A labeled corpus with round(n_docs * balance) machine documents,
    interleaved deterministically."""
    rng = random.Random(spec.seed)
    vocab = _build_vocab(spec)
    n_machine = round(spec.n_docs * spec.balance)
    labels = [1] * n_machine + [0] * (spec.n_docs - n_machine)
    rng.shuffle(labels)
    docs = []
    for i, label in enumerate(labels):
        prefix = "m" if label == 1 else "h"
        docs.append(_document(rng, spec, vocab, label, f"{prefix}-{i:04d}"))
    return docs


def human_sentence_pool(spec: SynthSpec, count: int, seed: int) -> list[str]:
    """Strong-style human sentences, the kind a human would contribute verbatim.

    Used as the replacement pool when planting human sentences inside machine
    documents.
    """
    _check_int(count, "pool size")
    rng = random.Random(seed)
    vocab = _build_vocab(spec)
    return [
        _sentence(rng, spec, vocab.human, spec.strong_frac, vocab) for _ in range(count)
    ]
