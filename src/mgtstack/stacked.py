"""Two-pass stacked inference and hard-EM training.

One corpus-level engine, :func:`score_corpus`, serves every caller.  Pass 1
scores each sentence group of a document whose filter budget is non-zero and
applies the constrained retention rule to those scores; pass 2 scores the
retained text.  The latent retention mask is never read from labels, only
from first-pass scores.  A document with a zero budget skips pass 1 and is
scored as its own text, so with tau = 0 the wrapper collapses exactly onto
the base detector.  There are three routes:

* A base with a ``score_two_pass(group_texts, cfg)`` method (the n-gram LM)
  runs both passes itself, one document at a time: it scores each group
  once and builds the retained text's score from the kept groups' cached
  terms, bit for bit equal to scoring the reconstructed text.
* An :class:`NGramLogRegModel` base featurizes each document once: a
  group's n-grams are those of the document inside it, and a document that
  keeps every group is scored from all of them.  Only one that drops a
  group, or has a zero budget, featurizes its retained text.  Each pass
  counts a chunk of at most about ``_SCORE_CHUNK`` texts with one
  ``np.unique``, and every score equals the base's ``score`` of that text,
  bit for bit.
* Every other base takes two batches: all groups of all documents in one
  ``score_batch`` call, then all retained texts in one more, so an adapter
  is launched once per pass.  A document whose mask keeps every group is
  rescored as its own text, so degeneration is exact for any base detector.

Training alternates a hard E-step (pass 1 over the current batch with the
current parameters) with a single gradient-ascent M-step on the retained
texts, masks held constant.  Each training document is featurized for the
E-step once per run, and every E-step scores its groups from that store.
With tau = 0 nothing can be filtered and the parameter trajectory is bitwise
identical to plain training under the same seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .detectors import (
    _SCORE_CHUNK,
    Detector,
    NGramLogRegModel,
    TrainConfig,
    _count_ids,
    bin_log_likelihood,
    grad_update,
    score_batch,
    sigmoid,
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


def _retain(
    doc: Document, groups: Sequence[tuple[int, int]], scores: list[float] | None, cfg: FilterConfig
) -> tuple[str, RetentionMask]:
    """A document's retained text and mask, from its group scores, or from
    None when its budget is zero."""
    if scores is None:
        # Nothing may be dropped, so the document skips pass 1 and pass 2
        # sees it untouched: the wrapper reduces to the base detector.
        return doc.text, RetentionMask((1,) * len(groups))
    mask = compute_mask(scores, cfg)
    # A kept-everything mask means the retained text IS the document;
    # use the original so degeneration is exact for any base detector.
    return (doc.text if all(mask) else reconstruct(doc, groups, mask)), mask


def first_pass(
    base: Detector, docs: Sequence[Document], cfg: FilterConfig
) -> list[tuple[str, RetentionMask]]:
    """Pass 1 over a corpus: (retained text, mask) for each document.

    Label-agnostic by construction; this is the first batch of the
    two-batch inference route, and the reference the hard-EM E-step, which
    scores from its store, matches bit for bit.
    """
    groups = [group_subsequences(doc, cfg.k) for doc in docs]
    filtering = [cfg.budget(len(g)) > 0 for g in groups]
    texts = [text for doc, g, on in zip(docs, groups, filtering) if on for text in group_texts(doc, g)]
    scores = iter(score_batch(base, texts))
    return [
        _retain(doc, g, list(islice(scores, len(g))) if on else None, cfg)
        for doc, g, on in zip(docs, groups, filtering)
    ]


def score_corpus(
    base: Detector, docs: Sequence[Document], cfg: FilterConfig
) -> list[StackedResult]:
    """Two-pass stacked scores for a corpus, one result per document, in order."""
    if type(base) is NGramLogRegModel:  # a subclass may score otherwise
        scored = _score_logreg(base, docs, cfg)
    elif getattr(base, "score_two_pass", None) is None:
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


def _featurized_chunks(model: NGramLogRegModel, docs: Sequence[Document], cfg: FilterConfig):
    """Pass-1 features for a logistic base, in chunks that give neither pass
    more than about ``_SCORE_CHUNK`` texts to count.

    A document with a non-zero budget is featurized once, by one
    ``_cut_ids`` call that cuts its text into pieces, gap, group, gap, ...,
    group, gap, whose cuts all touch whitespace, so each odd piece's ids
    are its group's.  Yields, per chunk, a ``(doc, groups, ids)`` row per
    document, ids being the whole text's (None for a zero budget), and the
    ``_count_ids`` block of the groups of every document with a non-zero
    budget, with their lengths.
    """
    rows, ids, sizes, lengths = [], [], [], []
    for i, doc in enumerate(docs, 1):
        groups = group_subsequences(doc, cfg.k)
        doc_ids = None
        if cfg.budget(len(groups)):
            spans = doc.sentences
            cuts = [0]
            for lo, hi in groups:
                cuts += spans[lo].start, spans[hi - 1].end
            cuts.append(len(doc.text))
            doc_ids, pieces = model._cut_ids(doc.text, cuts)
            for group_ids in pieces:
                ids += group_ids
                sizes.append(len(group_ids))
            lengths += (b - a for a, b in zip(cuts[1::2], cuts[2::2]))
        rows.append((doc, groups, doc_ids))
        if max(len(sizes), len(rows)) >= _SCORE_CHUNK or i == len(docs):
            yield rows, (*_count_ids(ids, sizes, model.hash_buckets), lengths)
            rows, ids, sizes, lengths = [], [], [], []


def _score_logreg(
    model: NGramLogRegModel, docs: Sequence[Document], cfg: FilterConfig
) -> list[tuple[float, RetentionMask]]:
    """Both passes for a logistic base, one ``np.unique`` per pass and chunk.

    A document that keeps every group is scored from its pass-1 ids; one
    that drops a group, or has a zero budget, featurizes its retained text.
    """
    out: list[tuple[float, RetentionMask]] = []
    for rows, block in _featurized_chunks(model, docs, cfg):
        scores = iter(map(sigmoid, model._logits(*block)))
        ids, sizes, lengths, masks = [], [], [], []
        for doc, groups, doc_ids in rows:
            text, mask = _retain(doc, groups, None if doc_ids is None else list(islice(scores, len(groups))), cfg)
            if doc_ids is None or not all(mask):
                doc_ids = model._ids(text)
            ids += doc_ids
            sizes.append(len(doc_ids))
            lengths.append(len(text))
            masks.append(mask)
        out += zip(map(sigmoid, model._logits(*_count_ids(ids, sizes, model.hash_buckets), lengths)), masks)
    return out


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


def _estep_store(model: NGramLogRegModel, docs: Sequence[Document], cfg: FilterConfig) -> tuple:
    """Every document's pass-1 block, featurized once per training run, since
    hashed features never depend on the weights.  Returns one ``_count_ids``
    block of all their groups, as arrays (idx and counts as uint32: a count
    of 2**32 would need a group of 4 G units), and ``first``: document i owns
    groups ``first[i]`` to ``first[i + 1]``, none when its budget is zero."""
    idx, counts, bounds, lengths, n_groups = [], [], [0], [], [0]
    for rows, (chunk_idx, chunk_counts, chunk_bounds, chunk_lengths) in _featurized_chunks(model, docs, cfg):
        idx.append(chunk_idx.astype(np.uint32))
        counts.append(chunk_counts.astype(np.uint32))
        start = bounds.pop()
        bounds += (start + b for b in chunk_bounds)
        lengths += chunk_lengths
        n_groups += (0 if doc_ids is None else len(groups) for _, groups, doc_ids in rows)
    block = (np.concatenate(idx), np.concatenate(counts), np.array(bounds), np.array(lengths))
    return block, np.cumsum(n_groups)


def train_hard_em(
    base: NGramLogRegModel, data: Sequence[LabeledDoc], tc: TrainConfig
) -> tuple[NGramLogRegModel, TrainTrace]:
    """Alternating mask estimation and gradient steps on the masked texts.

    Per batch: masks are recomputed with the current parameters (E-step,
    labels unseen), then one ascent step is taken on the mean log-likelihood
    of the retained texts (M-step, masks constant).  Returns the final model
    and a per-epoch trace of the objective and realized filtering rate.  The
    E-step gathers the current weights over each document's stored pass-1
    block: the same scores as :func:`first_pass`, bit for bit.
    """
    _check_training_data(base, data)
    cfg = tc.filter_config()
    rng = random.Random(tc.seed)
    model = base
    (idx, counts, bounds, lengths), first = _estep_store(model, [doc for doc, _ in data], cfg)
    records: list[EpochRecord] = []
    for epoch in range(tc.epochs):
        started = time.perf_counter()
        q_sum = 0.0
        n_batches = 0
        filtered = 0
        groups_total = 0
        for batch_idx in _epoch_batches(len(data), tc.batch_size, rng):
            masked = []
            for i in batch_idx:
                p, q = first[i], first[i + 1]
                scores = None
                if p < q:
                    logits = model._logits(idx, counts, bounds[p : q + 1].tolist(), lengths[p:q].tolist())
                    scores = list(map(sigmoid, logits))
                text, mask = _retain(data[i][0], group_subsequences(data[i][0], cfg.k), scores, cfg)
                masked.append((text, data[i][1]))
                filtered += mask.n_filtered
                groups_total += len(mask)
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
