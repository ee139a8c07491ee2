"""Detector scoring contract and the built-in detector family.

Every detector maps text to a score in [0, 1], where 1 means
machine-generated.  Three implementations live here:

* :class:`NGramLogRegModel`, a trainable logistic regression over hashed
  n-gram counts, updated by single full-batch gradient-ascent steps;
* :class:`NGramLMDetector`, a likelihood-ratio scorer built from two add-ized
  n-gram language models (machine vs human);
* :class:`ExternalDetector`, a line-protocol adapter around any executable.

Feature hashing uses a fixed keyed 64-bit hash (blake2b), never Python's
builtin ``hash``, so feature indices are identical across processes and
platforms.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import math
import re
import subprocess
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import (
    AdapterProtocolError,
    DegenerateDataset,
    InvalidConfig,
    ModelFormatError,
    NumericalError,
    _check_int,
    _real,
)
from .retention import FilterConfig, RetentionMask, compute_mask
from .segmentation import Document

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9']+")
# Every ASCII character _TOKEN_RE does not match, mapped to a space, so the
# tokens of an ASCII text are the words str.split() finds after translate.
# The '?' that stands in for each non-ASCII character is one of them.
_ASCII_BREAKS = str.maketrans({c: " " for c in map(chr, range(128)) if not _TOKEN_RE.match(c)})
_BOS = "\x02"  # context padding marker; the tokenizer can never emit it
_NGRAM_SEP = "\x1f"

MODEL_FORMAT = "mgtstack-model"
MODEL_VERSION = 1


# --------------------------------------------------------------------------
# scoring contract


@runtime_checkable
class Detector(Protocol):
    def score(self, text: str) -> float: ...


def score_batch(detector: Detector, texts: Sequence[str]) -> list[float]:
    """Score many texts, using the detector's own batch path when it has one."""
    batch = getattr(detector, "score_batch", None)
    if batch is not None:
        return list(batch(texts))
    return [detector.score(t) for t in texts]


def sigmoid(z: float) -> float:
    """Overflow-safe logistic function with exact sign symmetry.

    Built so that sigmoid(-z) == 1 - sigmoid(z) holds bit-for-bit, which keeps
    score symmetries (such as swapping LM count tables) exact rather than
    approximate.
    """
    if z != z:
        raise NumericalError("sigmoid of NaN")
    hi = 1.0 / (1.0 + math.exp(-abs(z)))
    return hi if z >= 0 else 1.0 - hi


def _softplus(z: float) -> float:
    # log(1 + e^z) without overflow
    if z > 35.0:
        return z
    return math.log1p(math.exp(z))


def tokenize(text: str) -> list[str]:
    """Casefolded word tokens, the maximal ``[a-z0-9']`` runs of the casefolded
    text: punctuation separates, apostrophes bind.  Found with translate and
    split: a non-ASCII character left after casefolding is a break, so it
    becomes '?' and then a space."""
    return _fold(text).split()


def _fold(text: str) -> str:
    # The casefolded text with every character that is not [a-z0-9'] a space.
    return text.casefold().encode("ascii", "replace").decode("ascii").translate(_ASCII_BREAKS)


# --------------------------------------------------------------------------
# hashed n-gram features


def _check_hashing(feature_mode: str, n: int, hash_buckets: int, hash_seed: int) -> None:
    """The rules for a hashed n-gram feature layout."""
    if feature_mode not in ("word", "char"):
        raise InvalidConfig(f"feature_mode must be 'word' or 'char', got {feature_mode!r}")
    _check_int(n, "n-gram order")
    # The bound keeps every bucket id, and score_batch's key
    # position * hash_buckets + bucket, inside np.intp.
    _check_int(hash_buckets, "hash_buckets", 1, 2**32)
    _check_int(hash_seed, "hash_seed", 0, 2**64)


# Keys one layout's bucket memo stores; past this, new keys are hashed on
# every lookup.  A word-bigram key costs about 130 bytes, so a full memo is
# about 17 MB.
_BUCKET_MEMO_KEYS = 2**17


class _BucketMemo(dict):
    """n-gram key -> bucket index for one hashing layout.

    The index is a pure function of the key, so the memo cannot change a
    feature vector; it only spares the hash for keys seen before.  A new key
    is hashed by a copy of one keyed blake2b, which costs less than keying
    a new one.
    """

    def __init__(self, hash_buckets: int, hash_seed: int) -> None:
        super().__init__()
        self.hash_buckets = hash_buckets
        self.keyed = hashlib.blake2b(digest_size=8, person=hash_seed.to_bytes(8, "little"))

    def __missing__(self, key: str) -> int:
        h = self.keyed.copy()
        h.update(key.encode("utf-8"))
        idx = int.from_bytes(h.digest(), "little") % self.hash_buckets
        if len(self) < _BUCKET_MEMO_KEYS:
            self[key] = idx
        return idx


_bucket_memo = lru_cache(maxsize=4)(_BucketMemo)  # one memo per layout; a process normally uses one


@lru_cache(maxsize=32768)
def hashed_features(
    text: str, feature_mode: str, n: int, hash_buckets: int, hash_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse hashed counts of the n-grams of orders 1..n of the casefolded word
    tokens (word mode) or casefolded string (char mode): two read-only
    ``np.intp`` arrays ``(idx, counts)``, idx strictly ascending.
    """
    _check_hashing(feature_mode, n, hash_buckets, hash_seed)
    ids = _bucket_ids(_units(text, feature_mode), feature_mode, n, _bucket_memo(hash_buckets, hash_seed))
    idx, counts = np.unique(np.array(ids, dtype=np.intp), return_counts=True)
    idx.flags.writeable = counts.flags.writeable = False
    return idx, counts


def _units(text: str, feature_mode: str) -> Sequence[str]:
    """The casefolded word tokens (word mode) or characters (char mode) of a text."""
    return tokenize(text) if feature_mode == "word" else text.casefold()


def _bucket_ids(units: Sequence[str], feature_mode: str, n: int, memo: _BucketMemo) -> list[int]:
    """The bucket id of every n-gram of orders 1..n of ``units``, unsorted and
    repeated, order by order and then by first unit; the one featurizer of
    the logistic model."""
    join = _NGRAM_SEP.join if feature_mode == "word" else "".join
    bucket = memo.__getitem__
    ids = list(map(bucket, units))
    for order in range(2, n + 1):
        ids.extend(map(bucket, map(join, zip(*(units[j:] for j in range(order))))))
    return ids


def _count_ids(ids: list[int], sizes: Sequence[int], hash_buckets: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each text's distinct bucket ids, ascending, and their counts, for texts
    whose ids run back to back in ``ids`` (``sizes[i]`` of them for text i),
    with one ``np.unique``; text i owns ``[bounds[i], bounds[i + 1])``.

    Each text's ids are offset by its position times ``hash_buckets``, so the
    sorted unique keys run text by text, and within a text by bucket index.
    """
    offsets = np.repeat(np.arange(len(sizes), dtype=np.intp) * hash_buckets, sizes)
    keys, counts = np.unique(np.array(ids, dtype=np.intp) + offsets, return_counts=True)
    position, idx = np.divmod(keys, hash_buckets)
    return idx, counts, np.searchsorted(position, np.arange(len(sizes) + 1)).tolist()


# --------------------------------------------------------------------------
# trainable logistic-regression detector


# Texts per np.unique in NGramLogRegModel.score_batch, and about the most
# either pass of the logistic stacked route counts per chunk of documents:
# one call per chunk keeps the fixed numpy cost off each short group text,
# and the bound keeps the chunk's key arrays small.
_SCORE_CHUNK = 512


def _checked_logit(bias: float, terms: Iterable[float], length: int) -> float:
    """bias + terms, added in index order (not np.sum/np.dot, whose order
    differs), for the one text the terms belong to, of ``length`` characters;
    a non-finite result is a NumericalError."""
    z = _running_sum(terms, bias)
    if not math.isfinite(z):
        raise NumericalError(f"non-finite logit for text of length {length}")
    return z


@dataclass(frozen=True)
class NGramLogRegModel:
    """Logistic regression over hashed n-gram counts.

    score(text) = sigmoid(w . phi(text) + b) where phi is the sparse hashed
    count vector.  Instances are immutable; gradient steps return new models.
    """

    n: int
    feature_mode: str
    hash_buckets: int
    weights: np.ndarray
    bias: float
    hash_seed: int = 0

    def __post_init__(self) -> None:
        _check_hashing(self.feature_mode, self.n, self.hash_buckets, self.hash_seed)
        w = self.weights
        if not isinstance(w, np.ndarray) or w.dtype != np.float64 or w.shape != (self.hash_buckets,):
            raise InvalidConfig(f"weights must be a float64 array of shape ({self.hash_buckets},)")
        object.__setattr__(self, "bias", _real(self.bias, "bias"))

    @classmethod
    def new(
        cls,
        n: int = 1,
        feature_mode: str = "word",
        hash_buckets: int = 2**18,
        hash_seed: int = 0,
    ) -> "NGramLogRegModel":
        _check_hashing(feature_mode, n, hash_buckets, hash_seed)  # before allocating the weights
        return cls(
            n=n,
            feature_mode=feature_mode,
            hash_buckets=hash_buckets,
            weights=np.zeros(hash_buckets, dtype=np.float64),
            bias=0.0,
            hash_seed=hash_seed,
        )

    def features(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        return hashed_features(text, self.feature_mode, self.n, self.hash_buckets, self.hash_seed)

    def logit(self, text: str) -> float:
        idx, counts = self.features(text)
        return _checked_logit(self.bias, (self.weights[idx] * counts).tolist(), len(text))

    def score(self, text: str) -> float:
        return sigmoid(self.logit(text))

    def _ids(self, text: str) -> list[int]:
        memo = _bucket_memo(self.hash_buckets, self.hash_seed)
        return _bucket_ids(_units(text, self.feature_mode), self.feature_mode, self.n, memo)

    def _cut_ids(self, text: str, cuts: Sequence[int]) -> tuple[list[int], list[list[int]]]:
        """The text's bucket ids, and the ids of the n-grams inside each odd
        piece 1, 3, ... of those that ``cuts`` (offsets from 0 to
        ``len(text)``) cut it into.  Units are found character by character,
        so when every cut touches whitespace, a piece's ids are, as a
        multiset, that piece's own ids."""
        word = self.feature_mode == "word"
        folded = _fold(text) if word else text.casefold()
        if len(folded) == len(text):  # every character folds to one, so the cuts hold
            parts = [folded[a:b] for a, b in zip(cuts, cuts[1:])]
            if word:
                parts = [part.split() for part in parts]
        else:
            parts = [_units(text[a:b], self.feature_mode) for a, b in zip(cuts, cuts[1:])]
        units = list(chain.from_iterable(parts)) if word else folded
        ids = _bucket_ids(units, self.feature_mode, self.n, _bucket_memo(self.hash_buckets, self.hash_seed))
        bounds = list(accumulate(map(len, parts), initial=0))
        pieces = []
        for lo, hi in zip(bounds[1::2], bounds[2::2]):
            piece: list[int] = []
            start = 0  # where the ids of each order begin
            for order in range(1, self.n + 1):
                piece += ids[start + lo : start + max(lo, hi - order + 1)]
                start += max(len(units) - order + 1, 0)
            pieces.append(piece)
        return ids, pieces

    def _logits(self, idx: np.ndarray, counts: np.ndarray, bounds: list[int], lengths: Sequence[int]) -> list[float]:
        """The logits of a run of texts of a ``_count_ids`` block, text i of
        ``lengths[i]`` characters owning ``bounds[i]:bounds[i + 1]``: the same
        products, added in the same order, as ``logit``."""
        start, stop = bounds[0], bounds[-1]
        terms = (self.weights[idx[start:stop]] * counts[start:stop]).tolist()
        texts = zip(bounds, bounds[1:], lengths)
        return [_checked_logit(self.bias, terms[a - start : b - start], n) for a, b, n in texts]

    def score_batch(self, texts: Sequence[str]) -> list[float]:
        """``[self.score(t) for t in texts]``, bit for bit, with one
        ``np.unique`` per chunk of texts rather than one per text.  It
        bypasses the text-level cache, which held-out texts hardly ever hit.
        """
        scores: list[float] = []
        for start in range(0, len(texts), _SCORE_CHUNK):
            chunk = texts[start : start + _SCORE_CHUNK]
            ids: list[int] = []
            sizes = []
            for text in chunk:
                text_ids = self._ids(text)
                ids += text_ids
                sizes.append(len(text_ids))
            block = _count_ids(ids, sizes, self.hash_buckets)
            scores += map(sigmoid, self._logits(*block, [len(text) for text in chunk]))
        return scores


LabeledText = tuple[str, int]


def _check_batch(batch: Sequence[LabeledText]) -> None:
    if not batch:
        raise InvalidConfig("batch must be non-empty")
    for _, y in batch:
        if y not in (0, 1):
            raise InvalidConfig(f"labels must be 0 or 1, got {y!r}")


def bin_log_likelihood(model: NGramLogRegModel, batch: Sequence[LabeledText]) -> float:
    """Mean binary log-likelihood of the batch under the model.

    Computed from logits, so it stays finite for any finite parameters.  This
    is the objective whose gradient grad_update ascends; mean (not sum) per
    batch, matching the documented update convention.
    """
    _check_batch(batch)
    total = 0.0
    for text, y in batch:
        z = model.logit(text)
        # log p = -softplus(-z), log(1-p) = -softplus(z)
        total += -_softplus(-z) if y == 1 else -_softplus(z)
    value = total / len(batch)
    if not math.isfinite(value):
        raise NumericalError("non-finite log-likelihood")
    return value


def grad_update(
    model: NGramLogRegModel, batch: Sequence[LabeledText], eta: float
) -> NGramLogRegModel:
    """One gradient-ascent step on the mean batch log-likelihood.

    The input model is left untouched; a new model is returned.  eta = 0
    reproduces the input parameters exactly.
    """
    _check_batch(batch)
    eta = _real(eta, "learning rate")
    if not math.isfinite(eta) or eta < 0:
        raise InvalidConfig(f"learning rate must be finite and >= 0, got {eta!r}")
    resid, feats = [], []
    for text, y in batch:
        resid.append(y - model.score(text))
        feats.append(model.features(text))
    idx, counts = (np.concatenate(a) for a in zip(*feats))
    # Only the touched indices of the dense gradient; bincount adds each
    # index's terms in batch order, as a dense sum does, so bits match it.
    touched, slot = np.unique(idx, return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below raise instead
        terms = np.repeat(resid, [i.size for i, _ in feats]) * counts
        grad_w = np.bincount(slot, terms, touched.size) / len(batch)
    grad_b = _running_sum(resid) / len(batch)
    if not np.isfinite(grad_w).all():
        bad = int(touched[~np.isfinite(grad_w)].min())
        raise NumericalError(f"non-finite gradient at feature index {bad}")
    if not math.isfinite(grad_b):
        raise NumericalError("non-finite bias gradient")
    # + 0.0 rather than a copy: the untouched entries are w + eta * 0.0, which
    # turns a -0.0 weight into 0.0 just as the dense sum did.
    weights = model.weights + 0.0
    weights[touched] = model.weights[touched] + eta * grad_w
    return replace(model, weights=weights, bias=model.bias + eta * grad_b)


@dataclass(frozen=True)
class TrainConfig:
    """Hard-EM training knobs: epochs T, step size, batching, and the
    filtering parameters reused by the E-step."""

    epochs: int = 5
    lr: float = 0.1
    batch_size: int = 32
    r_e: float = 0.01
    tau: float = 0.25
    k: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int(self.epochs, "epochs", 0)
        if not 0 < _real(self.lr, "lr") < math.inf:
            raise InvalidConfig(f"lr must be finite and positive, got {self.lr!r}")
        _check_int(self.batch_size, "batch_size")
        self.filter_config()  # validates r_e, tau, k

    def filter_config(self) -> FilterConfig:
        return FilterConfig(r_e=self.r_e, tau=self.tau, k=self.k)


# --------------------------------------------------------------------------
# n-gram language-model likelihood-ratio detector


class _TermTable(dict):
    """log P(gram[-1] | gram[:-1]) under one class's add-lambda smoothed counts,
    P(w|ctx) = (c(ctx,w)+lam)/(c(ctx)+lam*V) with V the distinct observed
    tokens + 1 slot for unseen, stored for the class's own n-grams and
    ``more``.  Any other n-gram has count 0, so its term depends on its context
    alone: ``unseen`` holds it per context, and a lookup of such an n-gram
    returns it without storing anything.  Bounded by the model, not the text."""

    def __init__(
        self, n: int, lam: float, ngrams: dict[tuple[str, ...], int], more: Iterable[tuple[str, ...]]
    ) -> None:
        self.n = n
        contexts: dict[tuple[str, ...], int] = {}
        vocab: set[str] = set()
        for gram, c in ngrams.items():
            contexts[gram[:-1]] = contexts.get(gram[:-1], 0) + c
            vocab.add(gram[-1])
        lam_v, log = lam * (len(vocab) + 1), math.log
        count, ctx_count = ngrams.get, contexts.get
        grams = ngrams.keys() | more
        super().__init__({g: log(count(g, 0) + lam) - log(ctx_count(g[:-1], 0) + lam_v) for g in grams})
        self.unseen = {ctx: log(0 + lam) - log(c + lam_v) for ctx, c in contexts.items()}
        self.unseen_default = log(0 + lam) - log(0 + lam_v)

    def __missing__(self, gram: tuple[str, ...]) -> float:
        return self.unseen.get(gram[:-1], self.unseen_default)

    def terms(self, tokens: Sequence[str], context: Sequence[str] = ()) -> list[float]:
        """log P(token | its n-1 predecessors) for each token, in order.  The first
        tokens' predecessors come from ``context`` (the text before ``tokens``),
        padded with BOS markers where it runs out."""
        m = self.n - 1
        if not m:  # nothing to pad: skipping the copies nearly halves a unigram call's cost
            return list(map(self.__getitem__, zip(tokens)))
        history = [_BOS] * m + list(context[len(context) - m :])
        padded = history[len(history) - m :] + list(tokens)
        return list(map(self.__getitem__, zip(*(padded[j:] for j in range(self.n)))))


def _running_sum(values: Iterable[float], start: float = 0.0) -> float:
    """Left-to-right float sum from ``start``.  Not ``sum()``: Python 3.12
    compensates float sums, and every score must add its terms in the same
    order on every route."""
    total = start
    for v in values:
        total += v
    return total


def _lr_score(machine: Sequence[float], human: Sequence[float]) -> float:
    """Length-stabilized likelihood-ratio score from per-token terms."""
    if not machine:
        return 0.5
    return sigmoid((_running_sum(machine) - _running_sum(human)) / math.sqrt(len(machine)))


def _count_ngrams(docs: Iterable[Document], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for doc in docs:
        padded = [_BOS] * (n - 1) + tokenize(doc.text)
        for i in range(n - 1, len(padded)):
            gram = tuple(padded[i - n + 1 : i + 1])
            counts[gram] = counts.get(gram, 0) + 1
    return counts


@dataclass(frozen=True)
class NGramLMDetector:
    """Score = sigmoid of the length-stabilized log-likelihood ratio.

    The ratio compares an n-gram LM fit on machine text against one fit on
    human text.  Before the sigmoid it is divided by sqrt(token count): under
    per-token accumulation that keeps the statistic's spread independent of
    text length, so one threshold means the same thing for a 3-sentence group
    and a full document, and paragraph-length inputs do not pin the sigmoid
    to exactly 0 or 1.  The raw sum is available via log_ratio.
    """

    n: int
    lam: float
    machine: dict[tuple[str, ...], int]  # n-gram counts of each class
    human: dict[tuple[str, ...], int]
    # Each class's term table also stores the other class's n-grams, which it
    # scores too.  Derived from the counts: not in eq, repr or pickle.
    _memo: tuple[_TermTable, _TermTable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_int(self.n, "n-gram order")
        lam = _real(self.lam, "lambda")
        if not 0 < lam < math.inf:
            raise InvalidConfig(f"lambda must be finite and positive, got {lam!r}")
        object.__setattr__(self, "lam", lam)
        for counts in (self.machine, self.human):
            if not isinstance(counts, dict) or not all(
                type(c) is int and c >= 0 and type(g) is tuple and len(g) == self.n and all(type(t) is str for t in g)
                for g, c in counts.items()
            ):
                raise InvalidConfig(f"n-gram counts must map {self.n}-tuples of str to ints >= 0")
        memo = (
            _TermTable(self.n, self.lam, self.machine, self.human),
            _TermTable(self.n, self.lam, self.human, self.machine),
        )
        object.__setattr__(self, "_memo", memo)

    def __reduce__(self) -> tuple:
        return type(self), (self.n, self.lam, self.machine, self.human)

    def _terms(self, tokens: Sequence[str], context: Sequence[str] = ()) -> tuple[list[float], list[float]]:
        return self._memo[0].terms(tokens, context), self._memo[1].terms(tokens, context)

    @classmethod
    def fit(cls, docs: Sequence[Document], n: int = 1, lam: float = 0.1) -> "NGramLMDetector":
        _check_int(n, "n-gram order")  # before counting with it
        human_docs = [d for d in docs if d.label == 0]
        machine_docs = [d for d in docs if d.label == 1]
        if not human_docs or not machine_docs:
            raise DegenerateDataset("LM fitting needs labeled documents of both classes")
        return cls(n, lam, machine=_count_ngrams(machine_docs, n), human=_count_ngrams(human_docs, n))

    def swapped(self) -> "NGramLMDetector":
        """The same detector with the class roles exchanged."""
        return replace(self, machine=self.human, human=self.machine)

    def log_ratio(self, text: str) -> float:
        """Unnormalized log M(text) - log H(text)."""
        machine, human = self._terms(tokenize(text))
        return _running_sum(machine) - _running_sum(human)

    def score(self, text: str, *, terms: list | None = None) -> float:
        """Likelihood-ratio score of ``text``.

        When ``terms`` is a list, ``(tokens, machine terms, human terms)`` of
        the text is appended to it, so a caller can score a concatenation of
        scored texts without scoring any token again.
        """
        tokens = tokenize(text)
        machine, human = self._terms(tokens)
        if terms is not None:
            terms.append((tokens, machine, human))
        return _lr_score(machine, human)

    def score_two_pass(self, group_texts: Sequence[str], cfg: FilterConfig) -> tuple[float, RetentionMask]:
        """Both passes of stacked inference over one document's groups.

        Each group is scored once; the retention rule turns the group scores
        into the mask.  The retained text's score re-adds the kept groups'
        terms in order, recomputing only the first n-1 terms of a kept group
        that follows retained tokens, whose context now reaches into them.
        The result equals ``score(" ".join(kept group texts))`` bit for bit,
        and ``score(document text)`` when every group is kept (a
        :class:`Document`'s text holds only whitespace outside its spans).
        """
        groups: list[tuple[list[str], list[float], list[float]]] = []
        mask = compute_mask([self.score(t, terms=groups) for t in group_texts], cfg)
        reach = self.n - 1  # tokens whose context can cross a join
        kept: list[str] = []
        kept_machine: list[float] = []
        kept_human: list[float] = []
        for (tokens, m, h), bit in zip(groups, mask):
            if not bit:
                continue
            head = tokens[:reach]
            if kept and head:
                head_m, head_h = self._terms(head, kept)
                m = head_m + m[len(head) :]
                h = head_h + h[len(head) :]
            kept += tokens
            kept_machine += m
            kept_human += h
        return _lr_score(kept_machine, kept_human), mask


# --------------------------------------------------------------------------
# external adapter


@dataclass(frozen=True)
class ExternalDetector:
    """Adapter around an external scoring executable.

    Protocol: one JSON-encoded text per stdin line; the child prints one
    decimal score per stdout line, same order, and exits 0.  Any deviation
    (bad exit, malformed line, count mismatch) fails the whole batch with
    AdapterProtocolError.  Out-of-range scores are clamped with a warning.
    """

    command: tuple[str, ...]
    timeout: float | None = None

    def __post_init__(self) -> None:
        if type(self.command) is not tuple or not self.command or not all(type(a) is str for a in self.command):
            raise InvalidConfig(f"adapter command must be a non-empty tuple of str, got {self.command!r}")
        if self.timeout is not None and not 0 < _real(self.timeout, "adapter timeout") < math.inf:
            raise InvalidConfig(f"adapter timeout must be finite and positive, got {self.timeout!r}")

    def score(self, text: str) -> float:
        return self.score_batch([text])[0]

    def score_batch(self, texts: Sequence[str]) -> list[float]:
        if not texts:
            return []
        payload = "".join(json.dumps(t) + "\n" for t in texts)
        try:
            proc = subprocess.run(
                list(self.command),
                input=payload,
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except OSError as exc:
            raise AdapterProtocolError(f"cannot launch adapter {self.command[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise AdapterProtocolError(f"adapter timed out after {self.timeout}s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise AdapterProtocolError(
                f"adapter exited with code {proc.returncode}: {tail[0]}"
            )
        lines = proc.stdout.splitlines()
        if len(lines) != len(texts):
            raise AdapterProtocolError(
                f"adapter returned {len(lines)} scores for {len(texts)} texts"
            )
        scores: list[float] = []
        for i, line in enumerate(lines):
            try:
                value = float(line.strip())
            except ValueError:
                raise AdapterProtocolError(f"adapter line {i + 1} is not a number: {line!r}") from None
            if value != value:
                raise AdapterProtocolError(f"adapter line {i + 1} is NaN")
            if value < 0.0 or value > 1.0:
                clamped = min(1.0, max(0.0, value))
                logger.warning(
                    "adapter score %r out of range on line %d, clamped to %r", value, i + 1, clamped
                )
                value = clamped
            scores.append(value)
        return scores


# --------------------------------------------------------------------------
# model persistence


def _lm_counts_to_json(ngrams: dict[tuple[str, ...], int]) -> dict[str, int]:
    return {_NGRAM_SEP.join(gram): c for gram, c in sorted(ngrams.items())}


def _lm_counts_from_json(raw: dict[str, int]) -> dict[tuple[str, ...], int]:
    return {tuple(key.split(_NGRAM_SEP)): c for key, c in raw.items()}


def save_model(model: NGramLogRegModel | NGramLMDetector, path: str) -> None:
    """Write a model to a versioned, self-describing JSON file.

    Weights are embedded as raw little-endian float64 bytes (base64), so a
    load(save(m)) round trip reproduces every score bit for bit.
    """
    if isinstance(model, NGramLogRegModel):
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": "ngram_logreg",
            "feature_mode": model.feature_mode,
            "n": model.n,
            "hash_buckets": model.hash_buckets,
            "hash_seed": model.hash_seed,
            "bias": model.bias,
            "weights_dtype": "<f8",
            "weights_b64": base64.b64encode(
                np.ascontiguousarray(model.weights, dtype="<f8").tobytes()
            ).decode("ascii"),
        }
    elif isinstance(model, NGramLMDetector):
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": "ngram_lm",
            "n": model.n,
            "lambda": model.lam,
            "machine_ngrams": _lm_counts_to_json(model.machine),
            "human_ngrams": _lm_counts_to_json(model.human),
        }
    else:
        raise InvalidConfig(f"cannot save model of type {type(model).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path: str) -> NGramLogRegModel | NGramLMDetector:
    """Load a model saved by save_model; raises ModelFormatError on anything off.

    The model's constructor checks every field: this only turns JSON into its
    arguments and reports whatever fails, in translation or in the
    constructor, as ModelFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"model file {path!r} is corrupt or truncated: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path!r} is not a recognized model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {payload.get('version')!r}, expected {MODEL_VERSION}"
        )
    kind = payload.get("kind")
    try:
        if kind == "ngram_logreg":
            if payload["weights_dtype"] != "<f8":  # the only layout save_model writes
                raise ModelFormatError(f"model file {path!r} has weights_dtype {payload['weights_dtype']!r}")
            raw = base64.b64decode(payload["weights_b64"], validate=True)
            return NGramLogRegModel(
                n=payload["n"],
                feature_mode=payload["feature_mode"],
                hash_buckets=payload["hash_buckets"],
                weights=np.frombuffer(raw, dtype="<f8").astype(np.float64),
                bias=payload["bias"],
                hash_seed=payload["hash_seed"],
            )
        if kind == "ngram_lm":
            return NGramLMDetector(
                payload["n"],
                payload["lambda"],
                machine=_lm_counts_from_json(payload["machine_ngrams"]),
                human=_lm_counts_from_json(payload["human_ngrams"]),
            )
    except (KeyError, TypeError, ValueError, AttributeError, InvalidConfig) as exc:
        raise ModelFormatError(f"model file {path!r} is missing or corrupt fields: {exc}") from None
    raise ModelFormatError(f"unknown model kind {kind!r}")
