"""Retention rules: constrained, naive, and random control."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtstack import FilterConfig, InvalidConfig, RetentionMask, compute_mask, naive_mask, random_mask

# Independent oracle: derive the drop set by pairwise rank counting instead
# of sorting.  A group is dropped iff it scores below r_e and fewer than
# budget groups precede it in the (score, index) order.


def oracle_mask(scores, r_e, tau):
    n = len(scores)
    budget = math.floor(tau * n + 1e-9)
    bits = [1] * n
    for j in range(n):
        rank = sum(1 for i in range(n) if (scores[i], i) < (scores[j], j))
        if rank < budget and scores[j] < r_e:
            bits[j] = 0
    if not any(bits):
        best = max(range(n), key=lambda j: (scores[j], -j))
        bits[best] = 1
    return tuple(bits)


# --------------------------------------------------------------------------
# FilterConfig


def test_defaults():
    cfg = FilterConfig()
    assert (cfg.r_e, cfg.tau, cfg.k) == (0.01, 0.25, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r_e": 0.5},
        {"r_e": -0.01},
        {"tau": 1.0},
        {"tau": -0.1},
        {"k": 0},
        {"k": 2.0},
        {"k": True},
        {"tau": "0.1"},
        {"r_e": "0.01"},
        {"drop_ratio": "0.1"},  # random_mask's ratio, by the same rule
        {"drop_ratio": None},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InvalidConfig):
        if "drop_ratio" in kwargs:
            random_mask(4, seed=0, **kwargs)
        else:
            FilterConfig(**kwargs)


@pytest.mark.parametrize(
    "tau, n, expected",
    [
        (0.25, 4, 1),
        (0.25, 5, 1),
        (0.25, 3, 0),
        (0.3, 10, 3),  # 0.3 * 10 is 2.999... in floats; the snap must yield 3
        (0.0, 100, 0),
        (0.9, 10, 9),
    ],
)
def test_budget(tau, n, expected):
    assert FilterConfig(tau=tau).budget(n) == expected


# --------------------------------------------------------------------------
# RetentionMask


def test_mask_basics():
    mask = RetentionMask((1, 0, 1))
    assert len(mask) == 3
    assert list(mask) == [1, 0, 1]
    assert mask[1] == 0
    assert mask.n_filtered == 1


@pytest.mark.parametrize("bits", [(), (0, 0), (1, 2), (1, -1)])
def test_mask_validation(bits):
    with pytest.raises(InvalidConfig):
        RetentionMask(bits)


# --------------------------------------------------------------------------
# constrained rule


def test_worked_example_defaults():
    # budget = floor(0.25 * 4) = 1; the single smallest score is 0.003 at
    # index 2, below r_e = 0.01, so exactly that group drops.
    assert compute_mask([0.005, 0.8, 0.003, 0.4], FilterConfig()).bits == (1, 1, 0, 1)


def test_low_scores_above_re_survive():
    # Bottom group scores 0.02 >= r_e: the budget is available but unused.
    assert compute_mask([0.02, 0.9, 0.5, 0.7], FilterConfig()).bits == (1, 1, 1, 1)


def test_budget_caps_drops():
    # All four scores sit below r_e but floor(0.25 * 4) = 1 allows one drop.
    mask = compute_mask([0.004, 0.003, 0.002, 0.001], FilterConfig())
    assert mask.bits == (1, 1, 1, 0)


def test_tau_zero_never_drops():
    cfg = FilterConfig(tau=0.0)
    assert compute_mask([0.0, 0.0, 0.0], cfg).bits == (1, 1, 1)


def test_tie_breaks_toward_lower_index():
    # Two identical minimal scores, budget for one drop: index 1 goes first.
    mask = compute_mask([0.5, 0.001, 0.001, 0.6], FilterConfig(tau=0.25))
    assert mask.bits == (1, 0, 1, 1)


def test_scores_validation():
    with pytest.raises(InvalidConfig):
        compute_mask([], FilterConfig())
    with pytest.raises(InvalidConfig):
        compute_mask([0.5, 1.5], FilterConfig())
    with pytest.raises(InvalidConfig):
        compute_mask([0.5, float("nan")], FilterConfig())


score_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
)
re_values = st.floats(min_value=0.0, max_value=0.49, allow_nan=False)
tau_values = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)


@given(score_lists, re_values, tau_values)
@settings(max_examples=400)
def test_matches_rank_counting_oracle(scores, r_e, tau):
    cfg = FilterConfig(r_e=r_e, tau=tau)
    assert compute_mask(scores, cfg).bits == oracle_mask(scores, r_e, tau)


@given(score_lists, re_values, tau_values)
@settings(max_examples=300)
def test_constrained_is_conservative(scores, r_e, tau):
    cfg = FilterConfig(r_e=r_e, tau=tau)
    mask = compute_mask(scores, cfg)
    # Never drops more than the budget, and only ever drops sub-floor scores.
    assert mask.n_filtered <= cfg.budget(len(scores))
    for bit, score in zip(mask, scores):
        if not bit:
            assert score < r_e
    # Every drop the constrained rule makes, the naive rule makes too.
    naive = naive_mask(scores)
    for c_bit, n_bit in zip(mask, naive):
        if c_bit == 0:
            assert n_bit == 0 or sum(naive.bits) == 1  # naive may force-retain


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=10,
        unique=True,
    ),
    re_values,
    tau_values,
    st.randoms(use_true_random=False),
)
@settings(max_examples=200)
def test_permutation_equivariance_without_ties(scores, r_e, tau, rng):
    cfg = FilterConfig(r_e=r_e, tau=tau)
    base = compute_mask(scores, cfg).bits
    perm = list(range(len(scores)))
    rng.shuffle(perm)
    permuted = compute_mask([scores[p] for p in perm], cfg).bits
    assert [base[p] for p in perm] == list(permuted)


# --------------------------------------------------------------------------
# naive rule


def test_naive_threshold():
    assert naive_mask([0.5, 0.49, 0.51, 0.0]).bits == (1, 0, 1, 0)


def test_naive_force_retains_best():
    assert naive_mask([0.1, 0.4, 0.3]).bits == (0, 1, 0)


# --------------------------------------------------------------------------
# random control


def test_random_mask_exact_count():
    mask = random_mask(10, 0.3, seed=7)
    assert len(mask) == 10
    assert mask.n_filtered == 3


def test_random_mask_deterministic_per_seed():
    assert random_mask(12, 0.5, seed=3).bits == random_mask(12, 0.5, seed=3).bits
    seen = {random_mask(12, 0.5, seed=s).bits for s in range(8)}
    assert len(seen) > 1


def test_random_mask_zero_ratio():
    assert random_mask(5, 0.0, seed=0).bits == (1, 1, 1, 1, 1)


def test_random_mask_validation():
    with pytest.raises(InvalidConfig):
        random_mask(0, 0.3, seed=0)
    with pytest.raises(InvalidConfig):
        random_mask(5, 1.0, seed=0)
