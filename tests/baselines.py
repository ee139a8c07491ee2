"""Reference procedures that only tests call.

``train_plain`` is plain training, written out on its own: the tau = 0
hard-EM trajectory must equal it bit for bit.  ``naive_mask`` (drop every
group under 0.5) is the unconstrained rule the constrained one is compared
with, and ``random_mask`` is the seeded random rule used as an experimental
control.
"""

from __future__ import annotations

import random
import time
from typing import Sequence

from mgtstack import EpochRecord, InvalidConfig, RetentionMask, TrainTrace, bin_log_likelihood, grad_update
from mgtstack.errors import _check_int, _real
from mgtstack.retention import _force_retain, _validate_scores, snap_floor


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
