"""Reference procedures that only tests call.

``train_plain`` is plain training, written out on its own: the tau = 0
hard-EM trajectory must equal it bit for bit.  ``naive_mask`` (drop every
group under 0.5) is the unconstrained rule the constrained one is compared
with, and ``random_mask`` is the seeded random rule used as an experimental
control.  ``split_sentences`` and ``_token_before`` are the sentence scanner
that walked every terminator, quote and bracket with one regex match each:
the library's offset scanner must give the same spans.
"""

from __future__ import annotations

import random
import re
import time
from typing import Sequence

from mgtstack import EmptyDocument, EpochRecord, InvalidConfig, RetentionMask, TrainTrace, bin_log_likelihood, grad_update
from mgtstack.errors import _check_int, _real
from mgtstack.retention import _force_retain, _validate_scores, snap_floor
from mgtstack.segmentation import _TOKEN_TRIM, Span, _packaged_abbreviations

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(")]}")
_SPECIAL_RE = re.compile(r'[.!?…()\[\]{}"“”]')


def train_plain(base, data, tc):
    """Every step sees the full texts: per epoch, shuffle the document order
    with ``random.Random(tc.seed)``, then one ascent step per batch."""
    texts = [(doc.text, label) for doc, label in data]
    rng, model, records = random.Random(tc.seed), base, []
    for epoch in range(tc.epochs):
        started = time.perf_counter()
        order = list(range(len(texts)))
        rng.shuffle(order)
        q_sum, n_batches = 0.0, 0
        for start in range(0, len(order), tc.batch_size):
            batch = [texts[i] for i in order[start : start + tc.batch_size]]
            q_sum += bin_log_likelihood(model, batch)
            n_batches += 1
            model = grad_update(model, batch, tc.lr)
        records.append(EpochRecord(epoch, q_sum / n_batches, 0.0, time.perf_counter() - started))
    return model, TrainTrace(tuple(records))


def naive_mask(scores: Sequence[float]) -> RetentionMask:
    """Unconstrained rule: keep a group iff its score is at least 0.5."""
    _validate_scores(scores)
    bits = [1 if s >= 0.5 else 0 for s in scores]
    return RetentionMask(tuple(_force_retain(bits, scores)))


def random_mask(n_groups: int, drop_ratio: float, seed: int) -> RetentionMask:
    """Drop exactly snap_floor(drop_ratio * n_groups) groups chosen uniformly,
    so a ratio matches the constrained rule's budget for the same tau."""
    _check_int(n_groups, "n_groups")
    drop_ratio = _real(drop_ratio, "drop_ratio")
    if not (0.0 <= drop_ratio < 1.0):
        raise InvalidConfig(f"drop_ratio must be in [0, 1), got {drop_ratio!r}")
    rng = random.Random(seed)
    dropped = set(rng.sample(range(n_groups), snap_floor(drop_ratio * n_groups)))
    return RetentionMask(tuple(0 if j in dropped else 1 for j in range(n_groups)))


def _token_before(text: str, pos: int) -> str:
    # The word whose final character sits at pos, leading quotes stripped.
    a = pos
    while a > 0 and not text[a - 1].isspace():
        a -= 1
    return text[a : pos + 1].lstrip(_TOKEN_TRIM)


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> tuple[Span, ...]:
    """Split ``text`` into sentence spans.

    Raises EmptyDocument when the text holds no non-whitespace characters.
    The result is deterministic: equal inputs give equal spans.
    """
    if not text or text.isspace():
        raise EmptyDocument("text contains no sentences")
    guard = _packaged_abbreviations() if abbreviations is None else abbreviations

    n = len(text)
    breaks: list[int] = []  # index of the terminator that ends each sentence
    bracket_depth = 0
    curly_depth = 0
    in_dquote = False
    for match in _SPECIAL_RE.finditer(text):
        ch = match.group()
        pos = match.start()
        if ch in _OPENERS:
            bracket_depth += 1
        elif ch in _CLOSERS:
            bracket_depth = max(0, bracket_depth - 1)
        elif ch == '"':
            in_dquote = not in_dquote
        elif ch == "“":
            curly_depth += 1
        elif ch == "”":
            curly_depth = max(0, curly_depth - 1)
        else:  # terminator
            if bracket_depth or curly_depth or in_dquote:
                continue
            nxt = pos + 1
            if nxt < n and not text[nxt].isspace():
                continue
            if ch == "." and _token_before(text, pos).casefold() in guard:
                continue
            breaks.append(pos)

    spans: list[Span] = []
    cursor = 0
    for brk in breaks:
        start = cursor
        while start <= brk and text[start].isspace():
            start += 1
        if start <= brk:
            spans.append(Span(start, brk + 1))
        cursor = brk + 1
    # Whatever trails the last break is one final sentence, terminator or not.
    tail = text[cursor:]
    if tail and not tail.isspace():
        start = cursor
        while text[start].isspace():
            start += 1
        end = n
        while text[end - 1].isspace():
            end -= 1
        spans.append(Span(start, end))
    if not spans:
        raise EmptyDocument("text contains no sentences")
    return tuple(spans)
