"""The package's public surface."""

from __future__ import annotations

import mgtstack

# Reference procedures that only tests call live in tests/baselines.py, and
# the one-text likelihood-ratio wrapper is gone: the simulator scores batches.
TEST_ONLY = ("likelihood_ratio_score", "naive_mask", "random_mask", "train_plain")


def test_every_public_name_resolves():
    assert len(set(mgtstack.__all__)) == len(mgtstack.__all__)
    assert [name for name in mgtstack.__all__ if not hasattr(mgtstack, name)] == []


def test_test_only_names_are_not_public():
    assert [name for name in TEST_ONLY if name in mgtstack.__all__ or hasattr(mgtstack, name)] == []
