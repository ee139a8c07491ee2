"""Detection metrics, dataset splitting, and corpus manipulation helpers.

AUROC is computed as the Mann-Whitney statistic (probability that a random
positive outranks a random negative, ties counted half) by counting, for each
positive, the once-sorted negatives below and tied with it.  2U is an exact
integer, so this matches the O(N^2) pairwise definition exactly.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDataset, InvalidConfig
from .segmentation import Document

_WS_RUN = re.compile(r"\s+")
_TERMINAL_PUNCT = ".!?…"


def _as_arrays(scores: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape:
        raise InvalidConfig("scores and labels must be equal-length 1-d sequences")
    if s.size == 0:
        raise InvalidConfig("scores must be non-empty")
    if not np.isfinite(s).all():
        raise InvalidConfig("scores must be finite")
    if not np.isin(y, (0, 1)).all():
        raise InvalidConfig("labels must be 0 or 1")
    if not (y == 1).any() or not (y == 0).any():
        raise DegenerateDataset("both classes are required")
    return s, y.astype(np.int64)


def _sorted_negatives(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The negatives' sort order, and for each positive the number of
    negatives below it (lo) and at or below it (hi).  Positive i adds
    lo[i] + hi[i] to 2U, the Mann-Whitney U with ties counted half."""
    order = np.argsort(neg, kind="mergesort")
    ordered = neg[order]
    return order, np.searchsorted(ordered, pos, side="left"), np.searchsorted(ordered, pos, side="right")


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """P(score of a positive > score of a negative) + 0.5 P(tie)."""
    s, y = _as_arrays(scores, labels)
    pos, neg = s[y == 1], s[y == 0]
    _, lo, hi = _sorted_negatives(pos, neg)
    return (int((lo + hi).sum()) / 2) / (pos.size * neg.size)


def tpr_at_fpr(scores: Sequence[float], labels: Sequence[int], max_fpr: float) -> float:
    """True-positive rate at the loosest threshold keeping FPR <= max_fpr.

    Classification is score > threshold (strict).  The threshold chosen is
    the smallest value admitting at most floor(max_fpr * n_neg) negatives,
    which is the (q+1)-th largest negative score.
    """
    if not (0.0 <= max_fpr < 1.0):
        raise InvalidConfig(f"max_fpr must be in [0, 1), got {max_fpr!r}")
    s, y = _as_arrays(scores, labels)
    pos = s[y == 1]
    neg = np.sort(s[y == 0])[::-1]
    q = math.floor(max_fpr * len(neg))
    threshold = neg[q]
    return float((pos > threshold).sum()) / len(pos)


def bootstrap_auroc_ci(
    pos_scores: Sequence[float],
    neg_scores: Sequence[float],
    n_boot: int = 1000,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap CI for AUROC, resampling each class independently.

    A resample's AUROC is its Mann-Whitney U, counted from the draws: with
    ``c`` the cumulative drawn count over the once-sorted negatives, positive
    i beats ``c[lo[i]]`` of them and ties ``c[hi[i]] - c[lo[i]]``.  2U is an
    exact integer, so the statistic is the float ``auroc`` gives the resample.
    """
    if n_boot < 1:
        raise InvalidConfig("n_boot must be positive")
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.ndim != 1 or neg.ndim != 1:
        raise InvalidConfig("scores must be 1-d sequences")
    if pos.size == 0 or neg.size == 0:
        raise DegenerateDataset("both classes are required")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise InvalidConfig("scores must be finite")
    rng = rng or np.random.default_rng(0)
    order, lo, hi = _sorted_negatives(pos, neg)
    rank = np.empty(neg.size, dtype=np.int64)
    rank[order] = np.arange(neg.size)
    c = np.zeros(neg.size + 1, dtype=np.int64)
    pairs = pos.size * neg.size
    stats = np.empty(n_boot)
    for b in range(n_boot):
        cp = np.bincount(rng.integers(0, pos.size, pos.size), minlength=pos.size)
        np.cumsum(np.bincount(rank[rng.integers(0, neg.size, neg.size)], minlength=neg.size), out=c[1:])
        stats[b] = (cp @ (c[lo] + c[hi]) / 2) / pairs
    ci_lo, ci_hi = np.quantile(stats, [(1 - level) / 2, 1 - (1 - level) / 2])
    return float(ci_lo), float(ci_hi)


# --------------------------------------------------------------------------
# dataset splitting


@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/val/test proportions, default 2:1:1."""

    ratios: tuple[float, float, float] = (2.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.ratios) != 3 or any(r < 0 for r in self.ratios) or sum(self.ratios) <= 0:
            raise InvalidConfig(f"ratios must be three non-negative numbers, got {self.ratios!r}")


def split_dataset(
    docs: Sequence[Document], spec: SplitSpec
) -> tuple[list[Document], list[Document], list[Document]]:
    """Seeded shuffle, then a contiguous cut per label stratum.

    Splits are disjoint, exhaustive, and deterministic under the seed.
    """
    if not docs:
        raise DegenerateDataset("cannot split an empty corpus")
    order = list(range(len(docs)))
    random.Random(spec.seed).shuffle(order)
    total = sum(spec.ratios)
    frac_train = spec.ratios[0] / total
    frac_val = spec.ratios[1] / total
    assignment: dict[int, int] = {}
    by_label: dict[object, list[int]] = {}
    for idx in order:
        by_label.setdefault(docs[idx].label, []).append(idx)
    for indices in by_label.values():
        n = len(indices)
        cut1 = math.floor(n * frac_train)
        cut2 = cut1 + math.floor(n * frac_val)
        for pos, idx in enumerate(indices):
            assignment[idx] = 0 if pos < cut1 else (1 if pos < cut2 else 2)
    splits: tuple[list[Document], list[Document], list[Document]] = ([], [], [])
    for idx in order:
        splits[assignment[idx]].append(docs[idx])
    return splits


# --------------------------------------------------------------------------
# sentence-level corpus measures


def normalize_sentence(text: str) -> str:
    """Casefold, collapse whitespace runs, strip terminal punctuation."""
    out = _WS_RUN.sub(" ", text.casefold()).strip()
    return out.rstrip(_TERMINAL_PUNCT).rstrip()


def consistent_sentence_proportion(
    human_docs: Sequence[Document], machine_docs: Sequence[Document]
) -> float:
    """Fraction of machine sentences whose normalized form occurs in the
    human corpus.  Invariant to human-side duplication and document order."""
    if not human_docs or not machine_docs:
        raise DegenerateDataset("both corpora must be non-empty")
    human_forms = {
        normalize_sentence(s) for doc in human_docs for s in doc.sentence_texts()
    }
    total = 0
    matched = 0
    for doc in machine_docs:
        for s in doc.sentence_texts():
            total += 1
            if normalize_sentence(s) in human_forms:
                matched += 1
    return matched / total


def inject_human_sentences(
    machine_doc: Document,
    human_pool: Sequence[str],
    count: int,
    rng: random.Random,
) -> Document:
    """Replace ``count`` uniformly chosen sentences with draws from the pool.

    Returns a re-split document with the same id and label; count = 0 is the
    identity.
    """
    if not isinstance(count, int) or count < 0:
        raise InvalidConfig(f"count must be a non-negative integer, got {count!r}")
    if count == 0:
        return machine_doc
    if not human_pool:
        raise InvalidConfig("human sentence pool is empty")
    n = machine_doc.n_sentences
    if count >= n:
        raise InvalidConfig(f"cannot replace {count} of {n} sentences")
    positions = sorted(rng.sample(range(n), count))
    replacements = {pos: human_pool[rng.randrange(len(human_pool))] for pos in positions}
    text = machine_doc.text
    parts: list[str] = []
    cursor = 0
    for i, span in enumerate(machine_doc.sentences):
        parts.append(text[cursor : span.start])
        parts.append(replacements.get(i, text[span.start : span.end]))
        cursor = span.end
    parts.append(text[cursor:])
    return Document.from_text(machine_doc.id, "".join(parts), machine_doc.label)


# --------------------------------------------------------------------------
# evaluation reports


@dataclass(frozen=True)
class EvalReport:
    auroc: float
    tpr_at_fpr: dict[float, float]
    n_pos: int
    n_neg: int
    detector_id: str = ""
    corpus_id: str = ""
    seed: int | None = None

    def to_json(self) -> str:
        payload = {
            "auroc": self.auroc,
            "tpr_at_fpr": {repr(k): v for k, v in sorted(self.tpr_at_fpr.items())},
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "detector_id": self.detector_id,
            "corpus_id": self.corpus_id,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


DEFAULT_FPR_CAPS = (0.005, 0.05)


def evaluate_scores(
    scores: Sequence[float],
    labels: Sequence[int],
    fpr_caps: Sequence[float] = DEFAULT_FPR_CAPS,
    detector_id: str = "",
    corpus_id: str = "",
    seed: int | None = None,
) -> EvalReport:
    s, y = _as_arrays(scores, labels)
    return EvalReport(
        auroc=auroc(s, y),
        tpr_at_fpr={float(k): tpr_at_fpr(s, y, k) for k in fpr_caps},
        n_pos=int(y.sum()),
        n_neg=int(len(y) - y.sum()),
        detector_id=detector_id,
        corpus_id=corpus_id,
        seed=seed,
    )


def require_labels(docs: Sequence[Document]) -> list[int]:
    """The documents' labels; raises DegenerateDataset naming the first unlabeled one."""
    for doc in docs:
        if doc.label is None:
            raise DegenerateDataset(f"corpus has unlabeled documents (first: {doc.id!r})")
    return [doc.label for doc in docs]
