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
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import (
    AdapterProtocolError,
    DegenerateDataset,
    InvalidConfig,
    ModelFormatError,
    NumericalError,
)
from .retention import FilterConfig, RetentionMask, compute_mask
from .segmentation import Document

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9']+")
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
    """Casefolded word tokens; punctuation separates, apostrophes bind."""
    return _TOKEN_RE.findall(text.casefold())


# --------------------------------------------------------------------------
# hashed n-gram features


def _hash64(data: bytes, seed: int) -> int:
    h = hashlib.blake2b(data, digest_size=8, person=seed.to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def _check_hashing(feature_mode: str, n: int, hash_buckets: int, hash_seed: int) -> None:
    """The rules for a hashed n-gram feature layout."""
    if feature_mode not in ("word", "char"):
        raise InvalidConfig(f"feature_mode must be 'word' or 'char', got {feature_mode!r}")
    # type() rather than isinstance(): True is an int, and would pass as 1
    if type(n) is not int or n < 1:
        raise InvalidConfig(f"n-gram order must be a positive integer, got {n!r}")
    if type(hash_buckets) is not int or hash_buckets < 1:
        raise InvalidConfig(f"hash_buckets must be a positive integer, got {hash_buckets!r}")
    if type(hash_seed) is not int or not 0 <= hash_seed < 2**64:
        raise InvalidConfig(f"hash_seed must be an integer in [0, 2**64), got {hash_seed!r}")


# Keys one layout's bucket memo stores; past this, new keys are hashed on
# every lookup.  A word-bigram key costs about 130 bytes, so a full memo is
# about 17 MB.
_BUCKET_MEMO_KEYS = 2**17


class _BucketMemo(dict):
    """n-gram key -> bucket index for one hashing layout.

    The index is a pure function of the key, so the memo cannot change a
    feature vector; it only spares ``_hash64`` for keys seen before.
    """

    def __init__(self, hash_buckets: int, hash_seed: int) -> None:
        super().__init__()
        self.hash_buckets = hash_buckets
        self.hash_seed = hash_seed

    def __missing__(self, key: str) -> int:
        idx = _hash64(key.encode("utf-8"), self.hash_seed) % self.hash_buckets
        if len(self) < _BUCKET_MEMO_KEYS:
            self[key] = idx
        return idx


_bucket_memo = lru_cache(maxsize=4)(_BucketMemo)  # one memo per layout; a process normally uses one


@lru_cache(maxsize=32768)
def hashed_features(
    text: str, feature_mode: str, n: int, hash_buckets: int, hash_seed: int
) -> tuple[tuple[int, int], ...]:
    """Sparse hashed counts of all n-grams of orders 1..n.

    Word mode runs over casefolded word tokens; char mode over the casefolded
    raw string.  Returns (bucket index, count) pairs sorted by index, so any
    accumulation over them is order-deterministic.
    """
    _check_hashing(feature_mode, n, hash_buckets, hash_seed)
    if feature_mode == "word":
        units: Sequence[str] = tokenize(text)
        join = _NGRAM_SEP.join
    else:
        units = text.casefold()
        join = "".join
    bucket = _bucket_memo(hash_buckets, hash_seed).__getitem__
    counts: Counter[int] = Counter()
    for order in range(1, n + 1):
        counts.update(map(bucket, map(join, zip(*(units[j:] for j in range(order))))))
    return tuple(sorted(counts.items()))


# --------------------------------------------------------------------------
# trainable logistic-regression detector


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
        if self.weights.shape != (self.hash_buckets,):
            raise InvalidConfig(
                f"weights length {self.weights.shape} != hash_buckets {self.hash_buckets}"
            )

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

    def features(self, text: str) -> tuple[tuple[int, int], ...]:
        return hashed_features(text, self.feature_mode, self.n, self.hash_buckets, self.hash_seed)

    def logit(self, text: str) -> float:
        z = self.bias
        w = self.weights
        for idx, cnt in self.features(text):
            z += w[idx] * cnt
        if not math.isfinite(z):
            raise NumericalError(f"non-finite logit for text of length {len(text)}")
        return float(z)

    def score(self, text: str) -> float:
        return sigmoid(self.logit(text))


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
    if not math.isfinite(eta) or eta < 0:
        raise InvalidConfig(f"learning rate must be finite and >= 0, got {eta!r}")
    grad: dict[int, float] = {}  # only the touched indices of the dense gradient
    grad_b = 0.0
    for text, y in batch:
        resid = y - model.score(text)
        for idx, cnt in model.features(text):
            grad[idx] = grad.get(idx, 0.0) + resid * cnt
        grad_b += resid
    touched = np.fromiter(grad, dtype=np.intp, count=len(grad))
    grad_w = np.fromiter(grad.values(), dtype=np.float64, count=len(grad)) / len(batch)
    grad_b /= len(batch)
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
        if not isinstance(self.epochs, int) or self.epochs < 0:
            raise InvalidConfig(f"epochs must be a non-negative integer, got {self.epochs!r}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise InvalidConfig(f"lr must be finite and positive, got {self.lr!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be a positive integer, got {self.batch_size!r}")
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
    alone: ``unseen`` holds it per context.  Bounded by the model, not the text."""

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

    def terms(self, tokens: Sequence[str], context: Sequence[str] = ()) -> list[float]:
        """log P(token | its n-1 predecessors) for each token, in order.  The first
        tokens' predecessors come from ``context`` (the text before ``tokens``),
        padded with BOS markers where it runs out."""
        m = self.n - 1
        history = [_BOS] * m + list(context[len(context) - m :])
        padded = history[len(history) - m :] + list(tokens)
        get, unseen, default = self.get, self.unseen.get, self.unseen_default
        return [
            t if (t := get(gram)) is not None else unseen(gram[:-1], default)
            for gram in zip(*(padded[j:] for j in range(self.n)))
        ]


def _running_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum.  Not ``sum()``: Python 3.12 compensates float
    sums, and every score must add its terms in the same order on every route."""
    total = 0.0
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
        if type(self.n) is not int or self.n < 1:
            raise InvalidConfig(f"n-gram order must be a positive integer, got {self.n!r}")
        if isinstance(self.lam, bool) or not (self.lam > 0 and math.isfinite(self.lam)):
            raise InvalidConfig(f"lambda must be finite and positive, got {self.lam!r}")
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
        if not isinstance(n, int) or n < 1:
            raise InvalidConfig(f"n-gram order must be a positive integer, got {n!r}")
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
        if not self.command:
            raise InvalidConfig("adapter command must be non-empty")
        if self.timeout is not None and not (math.isfinite(self.timeout) and self.timeout > 0):
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


def _lm_counts_from_json(raw: dict[str, int], n: int) -> dict[tuple[str, ...], int]:
    if not isinstance(raw, dict):
        raise ModelFormatError("n-gram counts must be a JSON object")
    counts: dict[tuple[str, ...], int] = {}
    for key, c in raw.items():
        gram = tuple(key.split(_NGRAM_SEP))
        if len(gram) != n or type(c) is not int or c < 0:
            raise ModelFormatError(f"corrupt n-gram entry {key!r}")
        counts[gram] = c
    return counts


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


def _json_number(value: object, name: str, path: str) -> float:
    if type(value) not in (int, float):  # float() would take "0.1" and true
        raise ModelFormatError(f"model file {path!r} has a non-numeric {name}: {value!r}")
    return float(value)


def load_model(path: str) -> NGramLogRegModel | NGramLMDetector:
    """Load a model saved by save_model; raises ModelFormatError on anything off."""
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
            raw = base64.b64decode(payload["weights_b64"].encode("ascii"), validate=True)
            weights = np.frombuffer(raw, dtype=payload["weights_dtype"]).astype(np.float64)
            return NGramLogRegModel(
                n=payload["n"],
                feature_mode=payload["feature_mode"],
                hash_buckets=payload["hash_buckets"],
                weights=weights,
                bias=_json_number(payload["bias"], "bias", path),
                hash_seed=payload["hash_seed"],
            )
        if kind == "ngram_lm":
            n = payload["n"]
            return NGramLMDetector(
                n,
                _json_number(payload["lambda"], "lambda", path),
                machine=_lm_counts_from_json(payload["machine_ngrams"], n),
                human=_lm_counts_from_json(payload["human_ngrams"], n),
            )
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
        raise ModelFormatError(f"model file {path!r} is missing or corrupt fields: {exc}") from None
    raise ModelFormatError(f"unknown model kind {kind!r}")
