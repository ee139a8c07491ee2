"""Two-pass stacked inference and hard-EM training.

One corpus-level engine, :func:`score_corpus`, serves every caller.  Pass 1
scores each sentence group of a document whose filter budget is non-zero and
applies the constrained retention rule to those scores; pass 2 scores the
retained text.  The latent retention mask is never read from labels, only
from first-pass scores.  A document with a zero budget skips pass 1 and is
scored as its own text, so with tau = 0 the wrapper collapses exactly onto
the base detector.  Every route reads one ``_cut`` row per document, which
says whether the document filters and where its groups lie.  The routes:

* An :class:`NGramLMDetector` base runs both passes here, one document at a
  time (``_score_lm``): each group's tokens are looked up once, and the
  retained text's score is built from the kept groups' terms, bit for bit
  equal to scoring the reconstructed text.
* An :class:`NGramLogRegModel` base cuts each document's units once.
  Pass 1 featurizes each group's units as a text of its own; pass 2
  featurizes each retained text, which for a document that keeps every
  group, or has a zero budget, is its pass-1 units joined in order.
  Documents go in chunks of about ``detectors._SCORE_CHUNK`` units; one
  ``_ChunkFeaturizer`` call per pass and chunk codes and counts the chunk's
  n-grams in numpy, and every score equals the base's ``score`` of that
  text, bit for bit.
* Every other base, a subclass of either built-in detector included, takes
  two batches: all groups of all documents in one ``score_batch`` call, then
  all retained texts in one more, so an adapter is launched once per pass,
  pass 2's process while pass 1 runs.
  A subclass is scored by its own ``score_batch``, or text by text with its
  own ``score``, never by a built-in route.
  A document whose mask keeps every group is rescored as its own text, so
  degeneration is exact for any base detector.

Training takes exactly an :class:`NGramLogRegModel`, since the E-step's
store is built from that type's featurization.  It alternates a hard E-step
(pass 1 over the current batch with the current parameters) with a single
gradient-ascent M-step on the retained texts, masks held constant.  Each
training document is featurized for the E-step once per run.  Each E-step
scores its batch's stored groups in one ``_logits`` call, and so do
``bin_log_likelihood`` and ``grad_update`` with the batch.  With tau = 0
nothing is filtered: the trajectory is bitwise plain training's, same seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Sequence

from .detectors import (
    Detector,
    NGramLMDetector,
    NGramLogRegModel,
    TrainConfig,
    _ChunkFeaturizer,
    _launch_ahead,
    _lr_score,
    _pieces,
    bin_log_likelihood,
    grad_update,
    score_batch,
    sigmoid,
)
from .errors import DegenerateDataset, InvalidConfig, np
from .retention import FilterConfig, RetentionMask, compute_mask
from .segmentation import Document, group_subsequences, reconstruct


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


def _cut(doc: Document, cfg: FilterConfig) -> tuple:
    """A ``(doc, groups, text, cuts)`` row.  A document with a non-zero
    budget is cut into pieces, gap, group, gap, ..., group, gap, whose cuts
    all touch whitespace, so each odd piece's n-grams are its group's; one
    with a zero budget has no cuts."""
    groups = group_subsequences(doc, cfg.k)
    if not cfg.budget(len(groups)):
        return doc, groups, doc.text, None
    offsets = doc._offsets
    cuts = [0, *(c for lo, hi in groups for c in (offsets[2 * lo], offsets[2 * hi - 1])), len(doc.text)]
    return doc, groups, doc.text, cuts


def first_pass(
    base: Detector, docs: Sequence[Document], cfg: FilterConfig
) -> list[tuple[str, RetentionMask]]:
    """Pass 1 over a corpus: (retained text, mask) for each document.

    Label-agnostic by construction; this is the first batch of the
    two-batch inference route, and the reference the hard-EM E-step, which
    scores from its store, matches bit for bit.
    """
    rows = [_cut(doc, cfg) for doc in docs]
    texts = [text[a:b] for *_, text, cuts in rows if cuts for a, b in zip(cuts[1::2], cuts[2::2])]
    scores = iter(score_batch(base, texts))
    return [
        _retain(doc, groups, None if cuts is None else list(islice(scores, len(groups))), cfg)
        for doc, groups, _, cuts in rows
    ]


def score_corpus(
    base: Detector, docs: Sequence[Document], cfg: FilterConfig
) -> list[StackedResult]:
    """Two-pass stacked scores for a corpus, one result per document, in order."""
    if type(base) is NGramLogRegModel:  # by exact type: a subclass may score otherwise
        scored = _score_logreg(base, docs, cfg)
    elif type(base) is NGramLMDetector:
        # One document at a time, so only its term lists are alive at once.
        scored = (_score_lm(base, doc, cfg) for doc in docs)
    else:
        with _launch_ahead():  # an adapter's pass-2 process starts while pass 1 runs
            first = first_pass(base, docs, cfg)
            scored = zip(score_batch(base, [text for text, _ in first]), (mask for _, mask in first))
    return [StackedResult(score, len(mask), mask.n_filtered, mask) for score, mask in scored]


def _score_lm(lm: NGramLMDetector, doc: Document, cfg: FilterConfig) -> tuple[float, RetentionMask]:
    """Both passes for an n-gram LM base.  Each group's tokens are looked up
    once; the retained text's score re-adds the kept groups' terms in order,
    looking up again only the first n-1 tokens of a kept group that follows
    retained tokens, whose context now reaches into them.  Bit for bit the
    LM's ``score`` of the retained text, or of the document's text when every
    group is kept (a Document holds only whitespace outside its spans)."""
    _, groups, text, cuts = _cut(doc, cfg)
    if cuts is None:
        return lm.score(text), RetentionMask((1,) * len(groups))
    terms = lm._memo.terms
    tokens = _pieces(text, cuts, "word")[1::2]
    pairs = [terms(group) for group in tokens]
    mask = compute_mask([_lr_score(p, len(p)) for p in pairs], cfg)
    reach = lm.n - 1  # tokens whose context can cross a join
    tail: list[str] = []  # the last n-1 retained tokens
    kept: list[tuple[float, float]] = []  # the retained text's term pairs
    for group, group_pairs, bit in zip(tokens, pairs, mask):
        if not bit:
            continue
        if tail and group:
            kept += terms(group[:reach], tail)
            group_pairs = group_pairs[reach:]
        kept += group_pairs
        if reach:
            tail = (tail + group[-reach:])[-reach:]
    return _lr_score(kept, len(kept)), mask


def _featurized_chunks(featurize: _ChunkFeaturizer, docs: Sequence[Document], cfg: FilterConfig):
    """Pass 1 for a logistic base, in the featurizer's chunks of documents,
    which bound what either pass featurizes at once.

    Yields, per chunk, its ``(row, parts)`` pairs of ``_cut`` rows and the
    counted block of the groups of every document with a non-zero budget,
    each group's piece featurized as a text of its own, with their lengths.
    """
    for chunk in featurize.chunks(_cut(doc, cfg) for doc in docs):
        block = featurize([group for (*_, cuts), parts in chunk if cuts for group in parts[1::2]])
        lengths = [b - a for (*_, cuts), _ in chunk if cuts for a, b in zip(cuts[1::2], cuts[2::2])]
        yield chunk, (*block, lengths)


def _score_logreg(
    model: NGramLogRegModel, docs: Sequence[Document], cfg: FilterConfig
) -> list[tuple[float, RetentionMask]]:
    """Both passes for a logistic base, one featurizer call per pass and chunk.

    Pass 2 counts every retained text of a chunk at once: a document that
    keeps every group, or has a zero budget, as its pass-1 units joined in
    order, which are its text's; one that drops a group from its retained
    text's units.
    """
    featurize = _ChunkFeaturizer(model)
    out: list[tuple[float, RetentionMask]] = []
    for chunk, block in _featurized_chunks(featurize, docs, cfg):
        scores = iter(map(sigmoid, model._logits(*block)))
        retained = [
            _retain(doc, groups, None if cuts is None else list(islice(scores, len(groups))), cfg)
            for (doc, groups, _, cuts), _ in chunk
        ]
        texts = [
            list(chain.from_iterable(parts)) if all(mask) else featurize.parts(text)[0]
            for (_, parts), (text, mask) in zip(chunk, retained)
        ]
        logits = model._logits(*featurize(texts), [len(text) for text, _ in retained])
        out += zip(map(sigmoid, logits), (mask for _, mask in retained))
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


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:  # starts[i] + 0..sizes[i] - 1, i by i
    return np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)


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
    if type(base) is not NGramLogRegModel:  # the E-step store is this type's featurization
        raise InvalidConfig(f"training needs an n-gram logistic model, got {type(base).__name__}")
    if not data:
        raise DegenerateDataset("training data is empty")
    labels = {y for _, y in data}
    if not labels <= {0, 1}:
        raise InvalidConfig(f"labels must be 0 or 1, got {sorted(labels - {0, 1})!r}")
    if labels != {0, 1}:
        raise DegenerateDataset("training data must contain both classes")


def _estep_store(model: NGramLogRegModel, docs: Sequence[Document], cfg: FilterConfig) -> tuple:
    """Every document's pass-1 block, featurized once per training run, since
    hashed features never depend on the weights.  Returns one counted
    block of all their groups, as arrays (idx and counts as uint32: a count
    of 2**32 would need a group of 4 G units), and ``first``: document i owns
    groups ``first[i]`` to ``first[i + 1]``, none when its budget is zero."""
    idx, counts, sizes, lengths, n_groups = [], [], [], [], [0]
    chunks = _featurized_chunks(_ChunkFeaturizer(model), docs, cfg)
    for rows, (chunk_idx, chunk_counts, chunk_bounds, chunk_lengths) in chunks:
        idx.append(chunk_idx.astype(np.uint32))
        counts.append(chunk_counts.astype(np.uint32))
        sizes += np.diff(chunk_bounds).tolist()
        lengths += chunk_lengths
        n_groups += (0 if cuts is None else len(groups) for (_, groups, _, cuts), _ in rows)
    block = (np.concatenate(idx), np.concatenate(counts), np.cumsum([0, *sizes]), np.array(lengths))
    return block, np.cumsum(n_groups)


def train_hard_em(
    base: NGramLogRegModel, data: Sequence[LabeledDoc], tc: TrainConfig
) -> tuple[NGramLogRegModel, TrainTrace]:
    """Alternating mask estimation and gradient steps on the masked texts.

    Per batch: masks are recomputed with the current parameters (E-step,
    labels unseen), then one ascent step is taken on the mean log-likelihood
    of the retained texts (M-step, masks constant).  Returns the final model
    and a per-epoch trace of the objective and realized filtering rate.  The
    E-step gathers its batch's stored pass-1 groups into one ``_logits``
    call: the same scores as :func:`first_pass`, bit for bit.
    """
    _check_training_data(base, data)
    cfg = tc.filter_config()
    (idx, counts, bounds, lengths), first = _estep_store(base, [doc for doc, _ in data], cfg)
    rng = random.Random(tc.seed)
    model, records = base, []
    for epoch in range(tc.epochs):
        started = time.perf_counter()
        order = list(range(len(data)))
        rng.shuffle(order)
        starts = range(0, len(data), tc.batch_size)
        q_sum, filtered, groups_total = 0.0, 0, 0
        for start in starts:
            batch, masked = order[start : start + tc.batch_size], []
            p, q = first[batch], first[np.add(batch, 1)]  # the batch's groups, and their terms
            groups, at = _ranges(p, q - p), _ranges(bounds[p], bounds[q] - bounds[p])
            block = idx[at], counts[at], np.append(0, np.cumsum(bounds[groups + 1] - bounds[groups])), lengths[groups]
            scores = iter(map(sigmoid, model._logits(*block)))  # one call for every group of the batch
            for i, n in zip(batch, (q - p).tolist()):  # E-step
                doc, label = data[i]
                text, mask = _retain(doc, group_subsequences(doc, cfg.k), list(islice(scores, n)) if n else None, cfg)
                masked.append((text, label))
                filtered += mask.n_filtered
                groups_total += len(mask)
            q_sum += bin_log_likelihood(model, masked)
            model = grad_update(model, masked, tc.lr)  # M-step
        fraction = filtered / groups_total if groups_total else 0.0
        records.append(EpochRecord(epoch, q_sum / len(starts), fraction, time.perf_counter() - started))
    return model, TrainTrace(tuple(records))
