"""Retention masks: which sentence groups survive into the second pass.

The constrained rule drops a group only when two conditions hold at once: its
score falls below the evidence floor ``r_e`` AND it belongs to the
``floor(tau * n)`` lowest-scoring groups.  The budget keeps the filter from
eating a document whose every group merely looks weak; the floor keeps it
from dropping groups that still carry machine evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidConfig, _check_int, _real


def snap_floor(x: float) -> int:
    """floor(x), with float noise at integer boundaries snapped to the
    intended value (0.3 * 10 must give 3, not 2)."""
    return math.floor(x + 1e-9)


@dataclass(frozen=True)
class FilterConfig:
    """Filtering knobs shared by inference and training.

    r_e: evidence floor; groups scoring at or above it are always retained.
    tau: maximum fraction of groups that may be dropped, in [0, 1).
    k: maximum sentences per group.
    """

    r_e: float = 0.01
    tau: float = 0.25
    k: int = 3

    def __post_init__(self) -> None:
        if not (0.0 <= _real(self.r_e, "r_e") < 0.5):
            raise InvalidConfig(f"r_e must be in [0, 0.5), got {self.r_e!r}")
        if not (0.0 <= _real(self.tau, "tau") < 1.0):
            raise InvalidConfig(f"tau must be in [0, 1), got {self.tau!r}")
        _check_int(self.k, "k")

    def budget(self, n_groups: int) -> int:
        """Maximum number of groups the constrained rule may drop:
        floor(tau * n_groups), snapped as in snap_floor."""
        return snap_floor(self.tau * n_groups)


@dataclass(frozen=True)
class RetentionMask:
    """Per-group keep/drop bits; at least one bit is always 1."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise InvalidConfig("mask must cover at least one group")
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidConfig("mask bits must be 0 or 1")
        if not any(self.bits):
            raise InvalidConfig("mask must retain at least one group")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]

    @property
    def n_filtered(self) -> int:
        return len(self.bits) - sum(self.bits)


def _validate_scores(scores: Sequence[float]) -> None:
    if len(scores) == 0:
        raise InvalidConfig("score vector must be non-empty")
    for s in scores:
        if not (0.0 <= s <= 1.0) or s != s:
            raise InvalidConfig(f"scores must lie in [0, 1], got {s!r}")


def _force_retain(bits: list[int], scores: Sequence[float]) -> list[int]:
    # Defensive: never hand an all-zero mask downstream.  Keep the strongest
    # group, lowest index on ties.
    if any(bits):
        return bits
    best = max(range(len(scores)), key=lambda j: (scores[j], -j))
    bits[best] = 1
    return bits


def compute_mask(scores: Sequence[float], cfg: FilterConfig) -> RetentionMask:
    """Constrained retention rule.

    A group j is dropped iff scores[j] < cfg.r_e and j is among the
    floor(tau * n) smallest scores (ties broken toward the lower index).
    """
    _validate_scores(scores)
    n = len(scores)
    budget = cfg.budget(n)
    bottom = sorted(range(n), key=lambda j: (scores[j], j))[:budget]
    bits = [1] * n
    for j in bottom:
        if scores[j] < cfg.r_e:
            bits[j] = 0
    return RetentionMask(tuple(_force_retain(bits, scores)))
