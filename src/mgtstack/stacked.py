"""Two-pass stacked inference and hard-EM training.

One corpus-level engine, :func:`score_corpus`, serves every caller.  Pass 1
scores each sentence group of a document whose filter budget is non-zero and
applies the constrained retention rule to those scores; pass 2 scores the
retained text.  The latent retention mask is never read from labels, only
from first-pass scores.  A document with a zero budget skips pass 1 and is
scored as its own text, so with tau = 0 the wrapper collapses exactly onto
the base detector.  There are two routes:

* A base with a ``score_two_pass(group_texts, cfg)`` method (the n-gram LM)
  runs both passes itself, one document at a time: it scores each group
  once and builds the retained text's score from the kept groups' cached
  terms, bit for bit equal to scoring the reconstructed text.
* Every other base takes two batches: all groups of all documents in one
  ``score_batch`` call, then all retained texts in one more.  A document
  whose mask keeps every group is rescored as its own text, so degeneration
  is exact for any base detector.  A base with its own ``score_batch`` gets
  the whole list: the logistic detector counts the features of 512 texts
  with one ``np.unique``, an adapter sends them to one process launch.
  Either way each score equals the base's ``score`` of that text.

Training alternates a hard E-step (pass 1 over the current batch with the
current parameters) with a single gradient-ascent M-step on the retained
texts, masks held constant.  With tau = 0 nothing can be filtered and the
parameter trajectory is bitwise identical to plain training under the same
seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

from .detectors import (
    Detector,
    NGramLogRegModel,
    TrainConfig,
    bin_log_likelihood,
    grad_update,
    score_batch,
)
from .errors import DegenerateDataset, InvalidConfig
from .retention import FilterConfig, RetentionMask, compute_mask
from .segmentation import Document, group_subsequences, group_texts, reconstruct


@dataclass(frozen=True)
class StackedResult:
    score: float
    n_groups: int
    n_filtered: int
    mask: RetentionMask


def first_pass(
    base: Detector, docs: Sequence[Document], cfg: FilterConfig
) -> list[tuple[str, RetentionMask]]:
    """Pass 1 over a corpus: (retained text, mask) for each document.

    Label-agnostic by construction; this is the hard-EM E-step and the
    first batch of the two-batch inference route.
    """
    subseqs = [group_subsequences(doc, cfg.k) for doc in docs]
    filtering = [cfg.budget(len(subseq)) > 0 for subseq in subseqs]
    texts = [
        text
        for doc, subseq, on in zip(docs, subseqs, filtering)
        if on
        for text in group_texts(doc, subseq)
    ]
    scores = iter(score_batch(base, texts))
    out = []
    for doc, subseq, on in zip(docs, subseqs, filtering):
        if not on:
            # Nothing may be dropped, so the document skips pass 1 and pass 2
            # sees it untouched: the wrapper reduces to the base detector.
            out.append((doc.text, RetentionMask((1,) * len(subseq))))
            continue
        mask = compute_mask(list(islice(scores, len(subseq))), cfg)
        # A kept-everything mask means the retained text IS the document;
        # use the original so degeneration is exact for any base detector.
        out.append((doc.text if all(mask) else reconstruct(doc, subseq, mask), mask))
    return out


def score_corpus(
    base: Detector, docs: Sequence[Document], cfg: FilterConfig
) -> list[StackedResult]:
    """Two-pass stacked scores for a corpus, one result per document, in order."""
    if getattr(base, "score_two_pass", None) is None:
        first = first_pass(base, docs, cfg)
        scored = zip(score_batch(base, [text for text, _ in first]), (mask for _, mask in first))
    else:
        # One document at a time, so only its term lists are alive at once.
        scored = (_score_once(base, doc, cfg) for doc in docs)
    return [StackedResult(score, len(mask), mask.n_filtered, mask) for score, mask in scored]


def _score_once(base, doc: Document, cfg: FilterConfig) -> tuple[float, RetentionMask]:
    subseq = group_subsequences(doc, cfg.k)
    if cfg.budget(len(subseq)) == 0:
        return base.score(doc.text), RetentionMask((1,) * len(subseq))
    return base.score_two_pass(group_texts(doc, subseq), cfg)


@dataclass(frozen=True)
class StackedDetector:
    """A base detector wrapped with group filtering, never retrained.

    ``StackedDetector(base)`` uses the default filter settings.  Satisfies
    the detector contract itself, so it can be evaluated, benched, or nested
    anywhere a plain detector goes.  ``score`` splits raw text with the
    packaged abbreviations; corpora go through :func:`score_corpus`.
    """

    base: Detector
    cfg: FilterConfig = FilterConfig()

    def score(self, text: str) -> float:
        return score_corpus(self.base, [Document.from_text("", text)], self.cfg)[0].score


def stacked_infer_detail(sd: StackedDetector, doc: Document) -> StackedResult:
    """Two-pass stacked result for one document."""
    return score_corpus(sd.base, [doc], sd.cfg)[0]


# --------------------------------------------------------------------------
# hard-EM training


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_q: float
    filtered_fraction: float
    wall_seconds: float


@dataclass(frozen=True)
class TrainTrace:
    epochs: tuple[EpochRecord, ...] = field(default_factory=tuple)


LabeledDoc = tuple[Document, int]


def _check_training_data(base: NGramLogRegModel, data: Sequence[LabeledDoc]) -> None:
    if not isinstance(base, NGramLogRegModel):
        raise InvalidConfig(f"training needs an n-gram logistic model, got {type(base).__name__}")
    if not data:
        raise DegenerateDataset("training data is empty")
    labels = {y for _, y in data}
    if not labels <= {0, 1}:
        raise InvalidConfig(f"labels must be 0 or 1, got {sorted(labels - {0, 1})!r}")
    if labels != {0, 1}:
        raise DegenerateDataset("training data must contain both classes")


def _epoch_batches(
    n: int, batch_size: int, rng: random.Random
) -> list[list[int]]:
    order = list(range(n))
    rng.shuffle(order)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def train_hard_em(
    base: NGramLogRegModel, data: Sequence[LabeledDoc], tc: TrainConfig
) -> tuple[NGramLogRegModel, TrainTrace]:
    """Alternating mask estimation and gradient steps on the masked texts.

    Per batch: masks are recomputed with the current parameters (E-step,
    labels unseen), then one ascent step is taken on the mean log-likelihood
    of the retained texts (M-step, masks constant).  Returns the final model
    and a per-epoch trace of the objective and realized filtering rate.
    """
    _check_training_data(base, data)
    cfg = tc.filter_config()
    rng = random.Random(tc.seed)
    model = base
    records: list[EpochRecord] = []
    for epoch in range(tc.epochs):
        started = time.perf_counter()
        q_sum = 0.0
        n_batches = 0
        filtered = 0
        groups_total = 0
        for batch_idx in _epoch_batches(len(data), tc.batch_size, rng):
            first = first_pass(model, [data[i][0] for i in batch_idx], cfg)
            masked = [(text, data[i][1]) for (text, _), i in zip(first, batch_idx)]
            filtered += sum(mask.n_filtered for _, mask in first)
            groups_total += sum(len(mask) for _, mask in first)
            q_sum += bin_log_likelihood(model, masked)
            n_batches += 1
            model = grad_update(model, masked, tc.lr)
        records.append(
            EpochRecord(
                epoch=epoch,
                mean_q=q_sum / n_batches,
                filtered_fraction=filtered / groups_total if groups_total else 0.0,
                wall_seconds=time.perf_counter() - started,
            )
        )
    return model, TrainTrace(tuple(records))


def train_plain(
    base: NGramLogRegModel, data: Sequence[LabeledDoc], tc: TrainConfig
) -> tuple[NGramLogRegModel, TrainTrace]:
    """The same loop with no filtering: every step sees the full text.

    Kept as an explicit function so the tau = 0 equivalence can be checked
    end to end (same seed, bitwise-identical parameter trajectory).
    """
    _check_training_data(base, data)
    rng = random.Random(tc.seed)
    model = base
    records: list[EpochRecord] = []
    for epoch in range(tc.epochs):
        started = time.perf_counter()
        q_sum = 0.0
        n_batches = 0
        for batch_idx in _epoch_batches(len(data), tc.batch_size, rng):
            batch = [(data[i][0].text, data[i][1]) for i in batch_idx]
            q_sum += bin_log_likelihood(model, batch)
            n_batches += 1
            model = grad_update(model, batch, tc.lr)
        records.append(
            EpochRecord(
                epoch=epoch,
                mean_q=q_sum / n_batches,
                filtered_fraction=0.0,
                wall_seconds=time.perf_counter() - started,
            )
        )
    return model, TrainTrace(tuple(records))
