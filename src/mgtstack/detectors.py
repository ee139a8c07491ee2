"""Detector scoring contract and the built-in detector family.

Every detector maps text to a score in [0, 1], where 1 means
machine-generated.  Three implementations live here:

* :class:`NGramLogRegModel`, a trainable logistic regression over hashed
  n-gram counts, updated by single full-batch gradient-ascent steps;
* :class:`NGramLMDetector`, a likelihood-ratio scorer built from two add-ized
  n-gram language models (machine vs human);
* :class:`ExternalDetector`, a line-protocol adapter around any executable.

:func:`score_batch` runs a built-in logistic model's batch route, picked by
exact type; any other detector is scored by its own ``score_batch`` or ``score``.

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
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from .errors import (
    AdapterProtocolError,
    DegenerateDataset,
    InvalidConfig,
    ModelFormatError,
    NumericalError,
    _check_int,
    _real,
    np,
)
from .retention import FilterConfig
from .segmentation import Document

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9']+")
# Every byte _TOKEN_RE does not match, mapped to a space, so the tokens of an
# ASCII text are the words str.split() finds after translate (on bytes, which
# costs less per call than on str).  The '?' for a non-ASCII character is one.
_ASCII_BREAKS = bytes(c if _TOKEN_RE.match(chr(c)) else 32 for c in range(256))
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
    """``[detector.score(t) for t in texts]``, through the detector's own
    ``score_batch`` if it has one.  A built-in logistic model (by exact type:
    a subclass may score otherwise) goes in chunks, each counted by one
    ``_ChunkFeaturizer`` call, bit for bit as its ``score``; this bypasses
    the text-level cache, which held-out texts hardly ever hit."""
    if type(detector) is NGramLogRegModel:
        featurize = _ChunkFeaturizer(detector)
        scores: list[float] = []
        for chunk in featurize.chunks((text, None) for text in texts):
            block = featurize([units for _, (units,) in chunk])
            scores += map(sigmoid, detector._logits(*block, [len(text) for (text, _), _ in chunk]))
        return scores
    batch = getattr(detector, "score_batch", None)
    return list(batch(texts)) if batch is not None else [detector.score(t) for t in texts]


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
    return text.casefold().encode("ascii", "replace").translate(_ASCII_BREAKS).decode("ascii")


# --------------------------------------------------------------------------
# hashed n-gram features


def _check_hashing(feature_mode: str, n: int, hash_buckets: int, hash_seed: int) -> None:
    """The rules for a hashed n-gram feature layout."""
    if feature_mode not in ("word", "char"):
        raise InvalidConfig(f"feature_mode must be 'word' or 'char', got {feature_mode!r}")
    _check_int(n, "n-gram order")
    # The bound keeps every bucket id, and a batch route's key
    # owner * hash_buckets + bucket, inside np.intp.
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


def _pieces(text: str, cuts: Sequence[int] | None, feature_mode: str) -> list[Sequence[str]]:
    """The units of each piece that ``cuts`` (offsets from 0 to ``len(text)``)
    cut the text into, or of the whole text.  Units are found character by
    character, so when every cut touches whitespace, the pieces' units run
    together are the text's."""
    if cuts is None:
        return [_units(text, feature_mode)]
    word = feature_mode == "word"
    folded = _fold(text) if word else text.casefold()
    if len(folded) == len(text):
        return [folded[a:b].split() if word else folded[a:b] for a, b in zip(cuts, cuts[1:])]
    # Some character folds to several, so the cuts miss: fold each piece.
    return [_units(text[a:b], feature_mode) for a, b in zip(cuts, cuts[1:])]


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


class _UnitCoder(dict):
    """One call's code of each distinct unit, with the unit and its bucket
    by code."""

    def __init__(self, memo: _BucketMemo) -> None:
        super().__init__()
        self.memo, self.grams, self.buckets = memo, [], []

    def __missing__(self, unit: str) -> int:
        self[unit] = code = len(self.grams)
        self.grams.append(unit)
        self.buckets.append(self.memo[unit])
        return code


class _GramCoder:
    """One call's id of each distinct order-o n-gram key ``(id of its first
    o - 1 units << 32) | code of its last unit``, with the n-gram and its
    bucket by id.  The keys are held sorted, ending in a sentinel no key
    reaches."""

    def __init__(self, prefix: "_UnitCoder | _GramCoder", units: _UnitCoder, join) -> None:
        self.prefix, self.units, self.join = prefix, units, join
        self.keys, self.ids = np.array([np.iinfo(np.int64).max]), np.array([-1])
        self.grams: list[str] = []
        self.buckets = np.empty(0, np.intp)

    def __len__(self) -> int:
        return len(self.grams)

    def code(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ids and buckets of ascending distinct keys: a new key gets the
        next id, and its n-gram is joined and looked up in the bucket memo
        once."""
        at = np.searchsorted(self.keys, keys)
        ids, new = self.ids[at], self.keys[at] != keys
        if new.any():
            fresh = keys[new]
            last = map(self.units.grams.__getitem__, (fresh & 0xFFFFFFFF).tolist())
            grams = list(map(self.join, zip(map(self.prefix.grams.__getitem__, (fresh >> 32).tolist()), last)))
            ids[new] = np.arange(len(self.grams), len(self.grams) + len(grams))
            self.keys, self.ids = np.insert(self.keys, at[new], fresh), np.insert(self.ids, at[new], ids[new])
            self.grams += grams
            new_buckets = np.fromiter(map(self.units.memo.__getitem__, grams), np.intp, len(grams))
            self.buckets = np.append(self.buckets, new_buckets)
        return ids, self.buckets[ids]


# About the most units (word tokens or characters), and the most texts, that
# one chunk of a batch route featurizes and counts: a call per chunk keeps
# numpy's fixed cost off each short text, and the bound keeps the chunk's
# arrays, and so the allocator's peak, small.  Twice this was slightly faster
# on short documents but left a higher peak RSS after a training run.
_SCORE_CHUNK = 2**13


class _ChunkFeaturizer:
    """The counted n-grams of orders 1..n of chunks of texts under one
    model's layout, for one call of a batch route.

    Each distinct unit (word token or character) gets an integer code once,
    through a dict, and each order's keys are built in numpy from the codes;
    one ``np.unique`` per order finds a chunk's distinct keys, and only a key
    new to the call is joined into its string and looked up in the layout's
    bucket memo.  Every n-gram has one owner, the text it lies in, and one
    more ``np.unique`` counts each text's buckets.  The coders start over
    between chunks once they hold ``_BUCKET_MEMO_KEYS`` keys; a bucket is a
    pure function of its key, so no feature changes.
    """

    def __init__(self, model: "NGramLogRegModel") -> None:
        self.n, self.feature_mode, self.hash_buckets = model.n, model.feature_mode, model.hash_buckets
        self.memo = _bucket_memo(model.hash_buckets, model.hash_seed)
        self.start()

    def start(self) -> None:
        """New, empty coders."""
        self.coders: list = [_UnitCoder(self.memo)]
        join = _NGRAM_SEP.join if self.feature_mode == "word" else "".join
        for _ in range(1, self.n):
            self.coders.append(_GramCoder(self.coders[-1], self.coders[0], join))

    def parts(self, text: str, cuts: Sequence[int] | None = None) -> list[list[int]]:
        """The unit codes of each of ``_pieces(text, cuts, feature_mode)``."""
        code = self.coders[0].__getitem__
        return [list(map(code, piece)) for piece in _pieces(text, cuts, self.feature_mode)]

    def chunks(self, rows: Iterable[tuple]) -> Iterator[list[tuple]]:
        """``(row, parts)`` for each row, which ends in a text and its cuts
        (or None), in runs that end once they hold ``_SCORE_CHUNK`` units or
        ``_SCORE_CHUNK`` rows.  The coders start over before a run once they
        hold ``_BUCKET_MEMO_KEYS`` keys, so never while the last run's codes
        are in use."""
        chunk, units = [], 0
        for row in rows:
            if not chunk and sum(map(len, self.coders)) > _BUCKET_MEMO_KEYS:
                self.start()
            parts = self.parts(*row[-2:])
            chunk.append((row, parts))
            units += sum(map(len, parts))
            if units >= _SCORE_CHUNK or len(chunk) >= _SCORE_CHUNK:
                yield chunk
                chunk, units = [], 0
        if chunk:
            yield chunk

    def __call__(self, texts: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The counted n-grams of orders 1..n of ``texts``, each a flat list
        of unit codes: text i's distinct buckets, ascending, and their counts
        are ``[bounds[i], bounds[i + 1])`` of ``(idx, counts, bounds)``.  An
        n-gram counts only for the one text its units all lie in."""
        if not any(texts):  # no unit, so no n-gram: a pass 1 without groups
            return np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(len(texts) + 1, np.intp)
        sizes = np.fromiter(map(len, texts), np.intp, len(texts))
        owner = np.repeat(np.arange(len(texts)), sizes)
        owner = np.append(owner, np.full(self.n, -1))  # so an n-gram running past the end is no text's
        code = np.fromiter(chain.from_iterable(texts), np.int64, owner.size - self.n)
        at, ids, buckets = np.arange(code.size), code, np.array(self.coders[0].buckets, np.intp)[code]
        keys = []
        for order, coder in enumerate(self.coders, 1):
            if order > 1:
                inside = owner[at] == owner[at + order - 1]
                at, ids = at[inside], ids[inside]
                grams, inverse = np.unique(ids << 32 | code[at + order - 1], return_inverse=True)
                ids, buckets = (a[inverse] for a in coder.code(grams))
            keys.append(owner[at] * self.hash_buckets + buckets)
        keys, counts = np.unique(np.concatenate(keys), return_counts=True)
        owner, idx = np.divmod(keys, self.hash_buckets)
        return idx, counts, np.searchsorted(owner, np.arange(len(texts) + 1))


# --------------------------------------------------------------------------
# trainable logistic-regression detector


def _checked_logit(bias: float, terms: Iterable[float], length: int) -> float:
    """bias + terms, added in index order (not np.sum/np.dot, whose order
    differs), for ``logit``'s one text, of ``length`` characters; a non-finite
    result is a NumericalError.  ``_logits`` matches it bit for bit."""
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

    def _logits(self, idx: np.ndarray, counts: np.ndarray, bounds: np.ndarray, lengths: Sequence[int]) -> list[float]:
        """Each text's ``_checked_logit``, bit for bit, by ``_column_sums``:
        text i, of ``lengths[i]`` characters, owns ``bounds[i]:bounds[i + 1]``
        of ``idx`` and ``counts``.  The first non-finite logit raises."""
        z = _column_sums(self.bias, self.weights[idx] * counts, bounds[1:] - bounds[:-1])
        if not np.isfinite(z).all():
            raise NumericalError(f"non-finite logit for text of length {lengths[np.flatnonzero(~np.isfinite(z))[0]]}")
        return z.tolist()


def _column_sums(bias: float, terms: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``bias`` plus text i's ``sizes[i]`` terms, in ``_running_sum``'s order:
    column i is the bias, the terms, then -0.0, which keeps every float, and
    ``np.add.accumulate`` adds down axis 0.  Where one height would more than
    double the cells, band b (2**(b-1) to 2**b - 1 terms) goes apart."""
    height = np.maximum.reduce(sizes, initial=0) + 1
    if sizes.size * height > 2 * (terms.size + sizes.size):
        band, z = np.frexp(sizes)[1], np.empty(sizes.size)
        for b in np.unique(band).tolist():
            texts = band == b
            z[texts] = _column_sums(bias, terms[np.repeat(texts, sizes)], sizes[texts])
        return z
    cells = np.full((height, sizes.size), -0.0)
    cells[0] = bias
    cells[1:].T[np.arange(1, height) <= sizes[:, None]] = terms
    return np.add.accumulate(cells, out=cells)[-1]


LabeledText = tuple[str, int]


def _check_batch(batch: Sequence[LabeledText]) -> None:
    if not batch:
        raise InvalidConfig("batch must be non-empty")
    for _, y in batch:
        if y not in (0, 1):
            raise InvalidConfig(f"labels must be 0 or 1, got {y!r}")


def _batch_scores(model: NGramLogRegModel, batch: Sequence[LabeledText], link=sigmoid) -> tuple:
    """The batch's block, each text's features looked up once, and ``link`` of each logit."""
    feats = [model.features(text) for text, _ in batch]
    idx, counts = (np.concatenate(a) for a in zip(*feats))
    bounds = np.cumsum([0, *(i.size for i, _ in feats)])
    return idx, counts, bounds, list(map(link, model._logits(idx, counts, bounds, [len(t) for t, _ in batch])))


def bin_log_likelihood(model: NGramLogRegModel, batch: Sequence[LabeledText]) -> float:
    """Mean binary log-likelihood of the batch under the model.

    Computed from logits, in one ``_logits`` call (never a subclass's
    ``logit``), so it stays finite for any finite parameters.  The objective
    grad_update ascends; mean (not sum) per batch, as documented.
    """
    _check_batch(batch)
    total = 0.0
    for (_, y), z in zip(batch, _batch_scores(model, batch, float)[3]):
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

    A new model; the input, scored in one ``_logits`` call (never by a
    subclass's ``score``), is left untouched.  eta = 0 keeps its parameters.
    """
    _check_batch(batch)
    eta = _real(eta, "learning rate")
    if not math.isfinite(eta) or eta < 0:
        raise InvalidConfig(f"learning rate must be finite and >= 0, got {eta!r}")
    idx, counts, bounds, scores = _batch_scores(model, batch)
    resid = [y - score for (_, y), score in zip(batch, scores)]
    # Only the touched indices of the dense gradient; bincount adds each
    # index's terms in batch order, as a dense sum does, so bits match it.
    touched, slot = np.unique(idx, return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below raise instead
        terms = np.repeat(resid, np.diff(bounds)) * counts
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


def _ngram_keys(tokens: Sequence[str], n: int, context: Sequence[str] = ()) -> Iterable[str]:
    """Each token's order-n key, in order: it and its n-1 predecessors, taken
    from ``context`` (the tokens before) and then BOS markers, joined by
    ``_NGRAM_SEP``.  A unigram's key is its token."""
    if n == 1:
        return tokens
    padded = ([_BOS] * (n - 1) + list(context[1 - n :]))[1 - n :] + list(tokens)
    return map(_NGRAM_SEP.join, zip(*(padded[j:] for j in range(n))))


def _class_terms(ngrams: dict[str, int], lam: float):
    """One class's add-lambda term log P(w|ctx) = log(c(ctx,w)+lam) - log(c(ctx)+lam*V),
    V the distinct observed tokens + 1 slot for unseen, as a function of c(ctx,w)
    and ctx (a key before its last separator); and the contexts the class has seen."""
    contexts: Counter[str] = Counter()
    for gram, c in ngrams.items():
        contexts[gram.rpartition(_NGRAM_SEP)[0]] += c
    vocab = {gram.rpartition(_NGRAM_SEP)[2] for gram in ngrams}
    lam_v, log, ctx_count = lam * (len(vocab) + 1), math.log, contexts.get
    return (lambda count, ctx: log(count + lam) - log(ctx_count(ctx, 0) + lam_v)), contexts


class _TermTable(dict):
    """The (machine, human) pair of add-lambda terms of each n-gram either class
    has seen.  Any other n-gram has count 0 in both, so its pair depends on its
    context alone: ``unseen`` holds it per context either class has seen, and a
    lookup of such an n-gram returns it without storing anything.  Bounded by
    the model, not the text."""

    def __init__(self, lm: NGramLMDetector) -> None:
        self.n, machine, human = lm.n, lm.machine, lm.human
        (m_term, m_ctx), (h_term, h_ctx) = _class_terms(machine, lm.lam), _class_terms(human, lm.lam)
        for gram in machine.keys() | human.keys():
            ctx = gram.rpartition(_NGRAM_SEP)[0]
            self[gram] = m_term(machine.get(gram, 0), ctx), h_term(human.get(gram, 0), ctx)
        self.unseen = {ctx: (m_term(0, ctx), h_term(0, ctx)) for ctx in m_ctx.keys() | h_ctx.keys()}
        self.unseen_default = (m_term(0, None), h_term(0, None))  # no context is None

    def __missing__(self, gram: str) -> tuple[float, float]:
        return self.unseen.get(gram.rpartition(_NGRAM_SEP)[0], self.unseen_default)

    def terms(self, tokens: Sequence[str], context: Sequence[str] = ()) -> list[tuple[float, float]]:
        """The (machine, human) terms of each token given its n-1 predecessors,
        in order, ``context`` as in ``_ngram_keys``."""
        return list(map(self.__getitem__, _ngram_keys(tokens, self.n, context)))


def _running_sum(values: Iterable[float], start: float = 0.0) -> float:
    """Left-to-right float sum from ``start``, the order ``_column_sums`` keeps
    for a block.  Not ``sum()``: Python 3.12 compensates float sums, and every
    score must add its terms in the same order on every route."""
    total = start
    for v in values:
        total += v
    return total


def _pair_sums(pairs: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Each column's _running_sum, in one loop over (machine, human) pairs."""
    machine = human = 0.0
    for m, h in pairs:
        machine += m
        human += h
    return machine, human


def _lr_score(pairs: Iterable[tuple[float, float]], length: int) -> float:
    """Length-stabilized likelihood-ratio score from ``length`` per-token term pairs."""
    if not length:
        return 0.5
    machine, human = _pair_sums(pairs)
    return sigmoid((machine - human) / math.sqrt(length))


def _count_ngrams(docs: Iterable[Document], n: int) -> dict[str, int]:
    return dict(Counter(chain.from_iterable(_ngram_keys(tokenize(doc.text), n) for doc in docs)))


@dataclass(frozen=True)
class NGramLMDetector:
    """Score = sigmoid of the length-stabilized log-likelihood ratio.

    The ratio compares an n-gram LM fit on machine text against one fit on
    human text.  Before the sigmoid it is divided by sqrt(token count): under
    per-token accumulation that keeps the statistic's spread independent of
    text length, so one threshold means the same thing for a 3-sentence group
    and a full document, and paragraph-length inputs do not pin the sigmoid
    to exactly 0 or 1.  The raw sum is available via log_ratio.

    ``machine`` and ``human`` count each class's n-grams by the key the model
    file stores: its n tokens joined by ``"\\x1f"``, BOS markers (``"\\x02"``)
    standing for tokens before the text; a unigram's key is its token.
    """

    n: int
    lam: float
    machine: dict[str, int]  # n-gram counts of each class
    human: dict[str, int]
    # Both classes' terms of every n-gram either has seen.  Derived from the
    # counts: not in eq, repr or pickle.
    _memo: _TermTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_int(self.n, "n-gram order")
        lam = _real(self.lam, "lambda")
        if not 0 < lam < math.inf:
            raise InvalidConfig(f"lambda must be finite and positive, got {lam!r}")
        object.__setattr__(self, "lam", lam)
        for counts in (self.machine, self.human):
            if not isinstance(counts, dict) or not all(
                type(c) is int and c >= 0 and type(g) is str and g.count(_NGRAM_SEP) == self.n - 1
                for g, c in counts.items()
            ):
                raise InvalidConfig(f"n-gram counts must map str keys of {self.n} tokens to ints >= 0")
        object.__setattr__(self, "_memo", _TermTable(self))

    def __reduce__(self) -> tuple:
        return type(self), (self.n, self.lam, self.machine, self.human)

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
        machine, human = _pair_sums(self._memo.terms(tokenize(text)))
        return machine - human

    def score(self, text: str) -> float:
        """Likelihood-ratio score of ``text``."""
        pairs = self._memo.terms(tokenize(text))
        return _lr_score(pairs, len(pairs))


# --------------------------------------------------------------------------
# external adapter


# A two-batch stacked route's hand-off, set per call of it by _launch_ahead: ()
# before its first adapter call, then (detector, waiting process) or None.
_AHEAD: ContextVar[tuple | None] = ContextVar("_AHEAD", default=None)


@contextmanager
def _launch_ahead():
    """Let the first adapter call within start the next call's process too,
    before it sends its own texts; one never fed is killed on exit."""
    token = _AHEAD.set(())
    try:
        yield
    finally:
        waiting = _AHEAD.get()
        _AHEAD.reset(token)
        if waiting:
            _reap(waiting[1])


def _reap(proc: subprocess.Popen) -> None:
    with proc:  # closes the pipes and waits
        proc.kill()


@dataclass(frozen=True)
class ExternalDetector:
    """Adapter around an external scoring executable.

    Protocol: one JSON-encoded text per stdin line; the child prints one
    decimal score per stdout line, same order, and exits 0.  Any deviation
    (bad exit, output that is not UTF-8, malformed line, count mismatch) fails
    the whole batch with AdapterProtocolError.  Out-of-range scores are
    clamped with a warning.  Each call launches one process, whose ``timeout``
    runs from when its texts are sent until it exits; a stacked route's pass 1
    starts pass 2's process before sending its own texts.
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
        ahead = _AHEAD.get()
        taken = bool(texts and ahead) and ahead[0] == self
        if ahead == () or taken:
            _AHEAD.set(None)  # pass 1 launches pass 2's process or none; pass 2 takes it
        if not texts:
            return []
        proc = ahead[1] if taken else self._launch()
        if ahead == ():
            try:
                _AHEAD.set((self, self._launch()))
            except BaseException:
                _reap(proc)
                raise
        return self._finish(proc, texts)

    def _launch(self) -> subprocess.Popen:
        pipe = subprocess.PIPE
        try:
            return subprocess.Popen(list(self.command), stdin=pipe, stdout=pipe, stderr=pipe)
        except OSError as exc:
            raise AdapterProtocolError(f"cannot launch adapter {self.command[0]!r}: {exc}") from exc

    def _finish(self, proc: subprocess.Popen, texts: Sequence[str]) -> list[float]:
        payload = "".join(json.dumps(t) + "\n" for t in texts).encode()
        try:
            out, err = proc.communicate(payload, timeout=self.timeout)
        except BaseException as exc:
            _reap(proc)
            if isinstance(exc, subprocess.TimeoutExpired):
                raise AdapterProtocolError(f"adapter timed out after {self.timeout}s") from exc
            raise
        if proc.returncode != 0:
            tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
            raise AdapterProtocolError(f"adapter exited with code {proc.returncode}: {tail[0]}")
        try:
            lines = out.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise AdapterProtocolError(f"adapter output is not UTF-8: {exc}") from None
        if len(lines) != len(texts):
            raise AdapterProtocolError(f"adapter returned {len(lines)} scores for {len(texts)} texts")
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
                logger.warning("adapter score %r out of range on line %d, clamped to %r", value, i + 1, clamped)
                value = clamped
            scores.append(value)
        return scores


# --------------------------------------------------------------------------
# model persistence


def save_model(model: NGramLogRegModel | NGramLMDetector, path: str) -> None:
    """Write a model to a versioned, self-describing JSON file.

    Weights are embedded as raw little-endian float64 bytes (base64), so a
    load(save(m)) round trip reproduces every score bit for bit.
    """
    if isinstance(model, NGramLogRegModel):
        fields = {
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
        fields = {
            "kind": "ngram_lm",
            "n": model.n,
            "lambda": model.lam,
            "machine_ngrams": model.machine,
            "human_ngrams": model.human,
        }
    else:
        raise InvalidConfig(f"cannot save model of type {type(model).__name__}")
    payload = {"format": MODEL_FORMAT, "version": MODEL_VERSION, **fields}
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
            return NGramLMDetector(payload["n"], payload["lambda"], payload["machine_ngrams"], payload["human_ngrams"])
    except (KeyError, TypeError, ValueError, AttributeError, InvalidConfig) as exc:
        raise ModelFormatError(f"model file {path!r} is missing or corrupt fields: {exc}") from None
    raise ModelFormatError(f"unknown model kind {kind!r}")
