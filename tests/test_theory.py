"""Synthetic-world sampling, likelihood-ratio scoring, and the experiment grid."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtstack import (
    FilterSpec,
    InvalidConfig,
    InvalidFilterSpec,
    MixSpec,
    SentenceWorld,
    SimConfig,
    UnsupportedCombination,
    apply_theory_filter,
    categorical_world,
    filter_condition_ok,
    gaussian_world,
    likelihood_ratio_score,
    run_experiment,
    sample_texts,
    tv_distance,
    write_rows_csv,
)
from mgtstack import theory
from mgtstack.theory import CSV_COLUMNS

# Independent oracle: enumerate every way to place the human-like sentences
# and average the plain products of densities, all in probability space.


def enumeration_lr(values, world, k):
    n = len(values)
    if world.kind == "categorical":
        h = lambda v: world.h[int(v)]
        m = lambda v: world.m[int(v)]
    else:
        mu_h = np.asarray(world.mu_h)
        mu_m = np.asarray(world.mu_m)
        h = lambda v: math.exp(-0.5 * float(((v - mu_h) ** 2).sum()))
        m = lambda v: math.exp(-0.5 * float(((v - mu_m) ** 2).sum()))
    h_total = 1.0
    for v in values:
        h_total *= h(v)
    mix_total = 0.0
    for human_set in combinations(range(n), k):
        prod = 1.0
        for i in range(n):
            prod *= h(values[i]) if i in human_set else m(values[i])
        mix_total += prod
    mix_total /= math.comb(n, k)
    return math.log(mix_total) - math.log(h_total)


# --------------------------------------------------------------------------
# worlds and TV distance


def test_tv_categorical_hand_values():
    w = SentenceWorld.categorical((0.5, 0.5, 0.0), (0.0, 0.5, 0.5))
    assert tv_distance(w) == 0.5
    assert tv_distance(SentenceWorld.categorical((0.3, 0.7), (0.3, 0.7))) == 0.0
    assert tv_distance(SentenceWorld.categorical((1.0, 0.0), (0.0, 1.0))) == 1.0


def test_categorical_world_constructor():
    w = categorical_world(0.5)
    assert w.h == (0.75, 0.25) and w.m == (0.25, 0.75)
    assert tv_distance(w) == 0.5
    assert tv_distance(categorical_world(0.0)) == 0.0


def test_gaussian_world_round_trips_delta():
    for delta in (0.0, 0.1, 0.3, 0.5, 0.9):
        w = gaussian_world(delta, dim=3)
        assert tv_distance(w) == pytest.approx(delta, abs=1e-12)
        assert w.mu_h == (0.0, 0.0, 0.0)
        assert w.mu_m[1:] == (0.0, 0.0)
    assert gaussian_world(0.5, dim=1).dim == 1


def test_world_validation():
    with pytest.raises(InvalidConfig):
        SentenceWorld.categorical((0.5, 0.6), (0.5, 0.5))  # does not sum to 1
    with pytest.raises(InvalidConfig):
        SentenceWorld.categorical((1.5, -0.5), (0.5, 0.5))
    with pytest.raises(InvalidConfig):
        SentenceWorld.categorical((1.0,), (1.0,))  # needs 2+ symbols
    with pytest.raises(InvalidConfig):
        SentenceWorld.gaussian((0.0,), (0.0, 1.0))  # dim mismatch
    with pytest.raises(InvalidConfig):
        SentenceWorld(kind="poisson")
    with pytest.raises(InvalidConfig):
        categorical_world(1.5)
    with pytest.raises(InvalidConfig):
        gaussian_world(1.0)
    with pytest.raises(InvalidConfig):
        categorical_world(0.5).dim


# --------------------------------------------------------------------------
# MixSpec arithmetic


@pytest.mark.parametrize(
    "n, alpha, expected",
    [
        (10, 0.0, 0),
        (10, 0.3, 3),  # float noise case: (1 - 0.3) * 10 must ceil to 7
        (20, 0.3, 6),
        (10, 0.35, 3),  # floor(3.5)
        (3, 1.0 / 3.0, 1),
        (5, 0.9, 4),
    ],
)
def test_n_human_like(n, alpha, expected):
    assert MixSpec(n=n, alpha=alpha).n_human_like == expected


def test_mix_validation():
    with pytest.raises(InvalidConfig):
        MixSpec(n=0)
    with pytest.raises(InvalidConfig):
        MixSpec(n=5, alpha=1.0)
    with pytest.raises(InvalidConfig):
        MixSpec(n=5, rho=1.0)
    # True is an int to Python, and would pass as 1
    with pytest.raises(InvalidConfig):
        MixSpec(n=True)
    with pytest.raises(InvalidConfig):
        SimConfig(world=categorical_world(0.5), mix=MixSpec(n=4), trials=True)
    with pytest.raises(InvalidConfig):
        MixSpec(n=5, alpha="0.1")


# --------------------------------------------------------------------------
# sampling


def test_sample_shapes_and_masks():
    rng = np.random.default_rng(0)
    w = categorical_world(0.5)
    mix = MixSpec(n=8, alpha=0.25)
    values, mask = sample_texts(w, mix, "machine_mixed", rng, trials=50)
    assert values.shape == (50, 8) and mask.shape == (50, 8)
    assert (mask.sum(axis=1) == 2).all()  # 8 - ceil(6) = 2 human-like
    human_values, human_mask = sample_texts(w, mix, "human", rng, trials=10)
    assert human_mask.all()

    g = gaussian_world(0.4, dim=3)
    gv, gm = sample_texts(g, mix, "machine_mixed", rng, trials=20)
    assert gv.shape == (20, 8, 3)


def test_sample_positions_are_random():
    rng = np.random.default_rng(1)
    w = categorical_world(0.5)
    mix = MixSpec(n=6, alpha=0.5)
    _, mask = sample_texts(w, mix, "machine_mixed", rng, trials=200)
    patterns = {tuple(row) for row in mask}
    assert len(patterns) > 10  # uniformly placed, not a fixed prefix


def test_sample_categorical_frequencies():
    rng = np.random.default_rng(2)
    w = categorical_world(0.6)  # h = (0.8, 0.2)
    values, _ = sample_texts(w, MixSpec(n=10), "human", rng, trials=2000)
    freq0 = (values == 0).mean()
    assert abs(freq0 - 0.8) < 0.02


def test_sample_gaussian_means():
    rng = np.random.default_rng(3)
    w = gaussian_world(0.5, dim=2)
    values, _ = sample_texts(w, MixSpec(n=10), "machine_mixed", rng, trials=1000)
    mean = values.reshape(-1, 2).mean(axis=0)
    assert abs(mean[0] - w.mu_m[0]) < 0.05
    assert abs(mean[1]) < 0.05


def test_dependent_sampling_is_gaussian_only():
    rng = np.random.default_rng(0)
    with pytest.raises(UnsupportedCombination):
        sample_texts(categorical_world(0.5), MixSpec(n=5, rho=0.5), "human", rng, trials=10)


def test_dependent_sampling_correlates_adjacent_sentences():
    rng = np.random.default_rng(4)
    w = gaussian_world(0.0, dim=1)
    values, _ = sample_texts(w, MixSpec(n=2, rho=0.8), "human", rng, trials=4000)
    x1, x2 = values[:, 0, 0], values[:, 1, 0]
    corr = np.corrcoef(x1, x2)[0, 1]
    assert corr > 0.5
    # rho keeps the marginal mean in place even as it shrinks the variance.
    assert abs(x2.mean()) < 0.05

    iid, _ = sample_texts(w, MixSpec(n=2, rho=0.0), "human", np.random.default_rng(4), trials=4000)
    iid_corr = np.corrcoef(iid[:, 0, 0], iid[:, 1, 0])[0, 1]
    assert abs(iid_corr) < 0.08


def test_unknown_text_class_is_rejected():
    rng = np.random.default_rng(5)
    w, mix = categorical_world(0.5), MixSpec(n=7, alpha=0.3)
    with pytest.raises(InvalidConfig):
        sample_texts(w, mix, "martian", rng, trials=1)
    values, mask = sample_texts(w, mix, "machine_mixed", rng, trials=3)
    for fspec in (FilterSpec(), FilterSpec(alpha_s=0.2)):
        with pytest.raises(InvalidConfig):
            apply_theory_filter(values, mask, fspec, "martian", rng)


# --------------------------------------------------------------------------
# likelihood-ratio scoring


def test_lr_single_sentence_log2():
    w = SentenceWorld.categorical((1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0 / 3.0))
    score = likelihood_ratio_score(np.array([0]), w, MixSpec(n=1))
    assert score == pytest.approx(math.log(2.0), rel=1e-12)


def test_lr_alpha_zero_is_plain_sum():
    w = categorical_world(0.5)
    values = np.array([0, 1, 1, 0, 1])
    expected = sum(math.log(w.m[v]) - math.log(w.h[v]) for v in values)
    got = likelihood_ratio_score(values, w, MixSpec(n=5))
    assert got == pytest.approx(expected, rel=1e-12)


@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.05, max_value=0.6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_lr_exact_matches_enumeration_categorical(n, alpha, seed):
    rng = np.random.default_rng(seed)
    w = categorical_world(0.5)
    mix = MixSpec(n=n, alpha=alpha)
    values = rng.integers(0, 2, size=n)
    got = likelihood_ratio_score(values, w, mix, mode="exact")
    want = enumeration_lr(values, w, mix.n_human_like)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_lr_exact_matches_enumeration_gaussian(n, seed):
    rng = np.random.default_rng(seed)
    w = gaussian_world(0.4, dim=2)
    mix = MixSpec(n=n, alpha=0.4)
    values = rng.normal(size=(n, 2))
    got = likelihood_ratio_score(values, w, mix, mode="exact")
    want = enumeration_lr(values, w, mix.n_human_like)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_lr_mixture_matches_manual_factorization():
    w = categorical_world(0.5)
    mix = MixSpec(n=5, alpha=0.4)  # k = 5 - ceil(3) = 2, weight 0.4
    values = np.array([0, 0, 1, 0, 1])
    k_over_n = mix.n_human_like / mix.n
    expected = sum(
        math.log((1 - k_over_n) * w.m[v] + k_over_n * w.h[v]) - math.log(w.h[v]) for v in values
    )
    got = likelihood_ratio_score(values, w, mix, mode="mixture")
    assert got == pytest.approx(expected, rel=1e-12)


def test_lr_mixture_of_all_human_like_positions_is_zero():
    # Every position human-like (k = n): M is H, so the statistic is 0, as
    # the exact score and the enumeration oracle agree.
    w = categorical_world(0.5)
    values = np.random.default_rng(3).integers(0, 2, size=(6, 5))
    got = theory._lr_scores(values, w, 5, "mixture")
    assert got.tolist() == [0.0] * 6
    assert theory._lr_scores(values, w, 5, "exact") == pytest.approx(got, abs=1e-12)
    assert enumeration_lr(values[0], w, 5) == pytest.approx(0.0, abs=1e-12)


def test_filtering_down_to_human_like_sentences_scores_at_chance():
    # n = 20, alpha = 0.9: 18 human-like and 2 machine sentences, and
    # alpha_h = 0.1 removes the 2.  The 18 kept are all human-like, so both
    # classes score 0 and the AUROC is exactly 0.5.
    cfg = SimConfig(categorical_world(0.5), MixSpec(n=20, alpha=0.9), FilterSpec(alpha_h=0.1), trials=200)
    (row,) = run_experiment(cfg)
    assert (row["score_mode"], row["auroc"], row["ci_lo"], row["ci_hi"]) == ("mixture", 0.5, 0.5, 0.5)


def test_lr_auto_mode_switches_at_exact_limit():
    w = categorical_world(0.5)
    rng = np.random.default_rng(7)
    v12 = rng.integers(0, 2, size=12)
    mix12 = MixSpec(n=12, alpha=0.25)
    assert likelihood_ratio_score(v12, w, mix12, "auto") == likelihood_ratio_score(
        v12, w, mix12, "exact"
    )
    v13 = rng.integers(0, 2, size=13)
    mix13 = MixSpec(n=13, alpha=0.25)
    assert likelihood_ratio_score(v13, w, mix13, "auto") == likelihood_ratio_score(
        v13, w, mix13, "mixture"
    )


def test_lr_rejects_dependence_and_bad_shapes():
    w = categorical_world(0.5)
    with pytest.raises(UnsupportedCombination):
        likelihood_ratio_score(np.array([0, 1]), w, MixSpec(n=2, rho=0.5))
    with pytest.raises(InvalidConfig):
        likelihood_ratio_score(np.array([0, 1, 0]), w, MixSpec(n=2))
    with pytest.raises(InvalidConfig):
        likelihood_ratio_score(np.array([[0.0, 1.0]]), w, MixSpec(n=1))
    g = gaussian_world(0.4, dim=2)
    with pytest.raises(InvalidConfig):
        likelihood_ratio_score(np.zeros((3, 5)), g, MixSpec(n=3))
    with pytest.raises(InvalidConfig):
        likelihood_ratio_score(np.array([0, 1]), w, MixSpec(n=2), mode="psychic")


# --------------------------------------------------------------------------
# oracle filtering


def test_filter_spec_validation():
    with pytest.raises(InvalidConfig):
        FilterSpec(alpha_s=1.0)
    with pytest.raises(InvalidConfig):
        FilterSpec(alpha_s=0.6, alpha_h=0.5)
    assert FilterSpec().is_identity
    assert not FilterSpec(alpha_s=0.1).is_identity


def test_filter_condition():
    assert filter_condition_ok(0.5, FilterSpec(alpha_s=0.4, alpha_h=0.05))
    assert not filter_condition_ok(0.5, FilterSpec(alpha_s=0.4, alpha_h=0.2))
    assert not filter_condition_ok(0.0, FilterSpec())


def kept_positions(values, kept_values):
    """Per text, where each surviving sentence sat in the unfiltered text."""
    return [
        [int(np.flatnonzero((row == v).all(axis=-1))[0]) for v in kept_row]
        for row, kept_row in zip(values, kept_values)
    ]


def test_filter_machine_counts():
    rng = np.random.default_rng(0)
    w = gaussian_world(0.5, dim=1)  # continuous values: each sentence is identifiable
    mix = MixSpec(n=10, alpha=0.4)  # 4 human-like
    values, mask = sample_texts(w, mix, "machine_mixed", rng, trials=20)
    out_values, out_mask = apply_theory_filter(
        values, mask, FilterSpec(alpha_s=0.25, alpha_h=0.2), "machine_mixed", rng
    )
    # floor(2.5) = 2 human-like and floor(2.0) = 2 machine sentences removed.
    assert out_values.shape == (20, 6, 1) and out_mask.shape == (20, 6)
    assert (out_mask.sum(axis=1) == 2).all()
    # Survivors are original sentences, in order, with their labels.
    for row, positions in enumerate(kept_positions(values, out_values)):
        assert positions == sorted(set(positions))
        assert np.array_equal(out_mask[row], mask[row, positions])


def test_filter_rejects_a_batch_of_uneven_texts():
    rng = np.random.default_rng(6)
    w, mix = categorical_world(0.5), MixSpec(n=10, alpha=0.4)
    values, mask = sample_texts(w, mix, "machine_mixed", rng, trials=2)
    mask[1] = False  # the second text no longer holds 4 human-like sentences
    for text_class in ("machine_mixed", "human"):
        with pytest.raises(InvalidConfig):
            apply_theory_filter(values, mask, FilterSpec(alpha_s=0.2), text_class, rng)


def test_filter_human_counts():
    rng = np.random.default_rng(1)
    values, mask = sample_texts(categorical_world(0.5), MixSpec(n=10), "human", rng, trials=20)
    out_values, out_mask = apply_theory_filter(
        values, mask, FilterSpec(alpha_s=0.25, alpha_h=0.2), "human", rng
    )
    # Human texts lose the same total volume: 2 + 2 of 10.
    assert out_values.shape == (20, 6) and out_mask.shape == (20, 6)
    assert out_mask.all()


def test_filter_identity_returns_same_batch():
    rng = np.random.default_rng(2)
    values, mask = sample_texts(categorical_world(0.5), MixSpec(n=5), "human", rng, trials=4)
    out_values, out_mask = apply_theory_filter(values, mask, FilterSpec(), "human", rng)
    assert out_values is values and out_mask is mask


def test_filter_zero_removal_spec_draws_like_the_grid():
    # floor(0.05 * 10) = 0: nothing is removed, but a non-identity spec
    # advances rng by the one (trials, n) uniform draw the grid point makes.
    rng = np.random.default_rng(4)
    w = categorical_world(0.5)
    for text_class, alpha in (("machine_mixed", 0.3), ("human", 0.0)):
        values, mask = sample_texts(w, MixSpec(n=10, alpha=alpha), text_class, rng, trials=3)
        before = rng.bit_generator.state
        out_values, out_mask = apply_theory_filter(values, mask, FilterSpec(alpha_s=0.05), text_class, rng)
        assert np.array_equal(out_values, values) and np.array_equal(out_mask, mask)
        twin = np.random.default_rng()
        twin.bit_generator.state = before
        twin.random((3, 10))
        assert rng.bit_generator.state == twin.bit_generator.state
        before = rng.bit_generator.state
        out_values, out_mask = apply_theory_filter(values, mask, FilterSpec(), text_class, rng)
        assert out_values is values and out_mask is mask
        assert rng.bit_generator.state == before


def test_filter_overdraw_raises():
    rng = np.random.default_rng(3)
    w = categorical_world(0.5)
    # alpha = 0: no human-like sentences exist, but alpha_s asks to drop 2.
    batch = sample_texts(w, MixSpec(n=10, alpha=0.0), "machine_mixed", rng, trials=2)
    with pytest.raises(InvalidFilterSpec):
        apply_theory_filter(*batch, FilterSpec(alpha_s=0.2), "machine_mixed", rng)
    # alpha = 0.6 on n = 10 leaves 4 machine sentences; alpha_h = 0.5 wants 5.
    batch = sample_texts(w, MixSpec(n=10, alpha=0.6), "machine_mixed", rng, trials=2)
    with pytest.raises(InvalidFilterSpec):
        apply_theory_filter(*batch, FilterSpec(alpha_h=0.5), "machine_mixed", rng)


# --------------------------------------------------------------------------
# experiment driver


def test_run_experiment_grid_order_and_rows():
    cfg = SimConfig(world=categorical_world(0.5), mix=MixSpec(n=6), trials=120, seed=0)
    rows = run_experiment(cfg, sweep={"n": [5, 10], "alpha": [0.0, 0.3]})
    assert [(r["n"], r["alpha"]) for r in rows] == [(5, 0.0), (5, 0.3), (10, 0.0), (10, 0.3)]
    for row in rows:
        assert row["n_pos"] == row["n_neg"] == 120
        assert 0.0 <= row["ci_lo"] <= row["auroc"] <= row["ci_hi"] <= 1.0
        assert row["score_mode"] == "exact"
        assert row["score_model_mismatch"] is False
        assert row["filter_condition_violated"] is None
        assert row["seed"] == 0


def test_run_experiment_deterministic_and_parallel_invariant():
    cfg = SimConfig(world=categorical_world(0.5), mix=MixSpec(n=8), trials=150, seed=9)
    sweep = {"alpha": [0.0, 0.25, 0.5]}
    serial = run_experiment(cfg, sweep=sweep, jobs=1)
    again = run_experiment(cfg, sweep=sweep, jobs=1)
    parallel = run_experiment(cfg, sweep=sweep, jobs=2)
    assert serial == again == parallel


def test_run_experiment_uses_custom_world_when_delta_not_swept():
    # A 3-symbol world is not expressible by the 2-symbol constructor.  If
    # the driver rebuilt the world from its TV distance, this run would be
    # byte-identical to the constructor world's run under the same seed.
    w = SentenceWorld.categorical((0.6, 0.3, 0.1), (0.1, 0.3, 0.6))
    cfg = SimConfig(world=w, mix=MixSpec(n=4), trials=100, seed=1)
    (row,) = run_experiment(cfg)
    assert row["delta"] == pytest.approx(tv_distance(w))
    assert row["auroc"] > 0.5
    rebuilt = SimConfig(
        world=categorical_world(tv_distance(w)), mix=MixSpec(n=4), trials=100, seed=1
    )
    (rebuilt_row,) = run_experiment(rebuilt)
    assert rebuilt_row["auroc"] != row["auroc"]


@pytest.mark.parametrize("world", [categorical_world(0.5), gaussian_world(0.5, dim=2)])
def test_run_experiment_swept_delta_rebuilds_each_world(world):
    cfg = SimConfig(world=world, mix=MixSpec(n=10), trials=150, seed=4)
    rows = run_experiment(cfg, sweep={"delta": [0.0, 0.9]})
    assert [r["delta"] for r in rows] == [0.0, 0.9]
    assert abs(rows[0]["auroc"] - 0.5) < 0.1
    assert rows[1]["auroc"] > rows[0]["auroc"] + 0.3


def test_run_experiment_swept_delta_replaces_custom_world():
    # A swept delta always rebuilds the world with the kind's constructor,
    # even when the value equals the custom world's own TV distance.
    custom = SentenceWorld.categorical((0.7, 0.2, 0.1), (0.1, 0.2, 0.7))
    assert tv_distance(custom) == pytest.approx(0.6)
    rows = [
        run_experiment(SimConfig(world=w, mix=MixSpec(n=4), trials=100, seed=1), sweep={"delta": [0.6]})
        for w in (custom, categorical_world(0.6))
    ]
    assert rows[0] == rows[1]


def test_run_experiment_null_world_ci_covers_half():
    cfg = SimConfig(world=categorical_world(0.0), mix=MixSpec(n=10), trials=400, seed=2)
    (row,) = run_experiment(cfg)
    assert row["ci_lo"] <= 0.5 <= row["ci_hi"]
    assert abs(row["auroc"] - 0.5) < 0.06


def test_run_experiment_flags():
    g = gaussian_world(0.5, dim=2)
    cfg = SimConfig(world=g, mix=MixSpec(n=6, alpha=0.4, rho=0.3), trials=100, seed=0)
    (row,) = run_experiment(cfg)
    assert row["score_model_mismatch"] is True

    cfg = SimConfig(
        world=g,
        mix=MixSpec(n=10, alpha=0.5),
        filter=FilterSpec(alpha_s=0.2, alpha_h=0.1),
        trials=100,
        seed=0,
    )
    (row,) = run_experiment(cfg)
    assert row["filter_condition_violated"] is True  # 0.2 <= 3 * 0.1
    assert row["alpha_s"] == 0.2 and row["alpha_h"] == 0.1


def test_run_experiment_validation():
    cfg = SimConfig(world=categorical_world(0.5), mix=MixSpec(n=5), trials=99, seed=0)
    with pytest.raises(InvalidConfig):
        run_experiment(cfg)
    ok = SimConfig(world=categorical_world(0.5), mix=MixSpec(n=5), trials=100, seed=0)
    with pytest.raises(InvalidConfig):
        run_experiment(ok, sweep={"trials": [50]})
    with pytest.raises(InvalidConfig):
        run_experiment(ok, sweep={"banana": [1]})


def test_run_experiment_filter_overdraw_is_invalid(monkeypatch):
    cfg = SimConfig(
        world=categorical_world(0.5),
        mix=MixSpec(n=10, alpha=0.0),
        filter=FilterSpec(alpha_s=0.3),
        trials=100,
        seed=0,
    )
    with pytest.raises(InvalidFilterSpec):
        run_experiment(cfg)
    # Every point is checked before any runs: n = 5 removes floor(0.5) = 0
    # sentences and would run, but n = 20 asks for 2 of none.
    calls = []
    run_point = theory._run_point
    monkeypatch.setattr(theory, "_run_point", lambda task: calls.append(task) or run_point(task))
    cfg = SimConfig(world=categorical_world(0.5), mix=MixSpec(n=5), trials=100, seed=0)
    point = r"grid point n = 20, alpha = 0.0, alpha_s = 0.1, alpha_h = 0.0: alpha_s = 0.1 removes 2"
    with pytest.raises(InvalidFilterSpec, match=point):
        run_experiment(cfg, sweep={"n": [5, 20], "alpha_s": [0.0, 0.1]})
    assert calls == []
    run_experiment(cfg, sweep={"n": [5], "alpha_s": [0.0, 0.1]})
    assert len(calls) == 2


# --------------------------------------------------------------------------
# CSV and aggregation


def test_write_rows_csv_formats(tmp_path):
    cfg = SimConfig(world=categorical_world(0.5), mix=MixSpec(n=5), trials=100, seed=0)
    rows = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_rows_csv(rows, str(path))
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    as_map = dict(zip(CSV_COLUMNS, cells))
    assert as_map["delta"] == "0.5"
    assert as_map["score_model_mismatch"] == "false"
    assert as_map["filter_condition_violated"] == ""  # no filter -> None
    assert float(as_map["auroc"]) == rows[0]["auroc"]  # repr round trip


def test_write_rows_csv_to_path(tmp_path):
    cfg = SimConfig(world=categorical_world(0.5), mix=MixSpec(n=5), trials=100, seed=0)
    rows = run_experiment(cfg)
    path = tmp_path / "out.csv"
    path.write_text("stale\r\n" * 50, "utf-8")
    write_rows_csv(rows, str(path))
    # The file is replaced, not appended to, and ends each row in a bare "\n".
    data = path.read_bytes()
    assert data.count(b"\n") == len(rows) + 1 and b"\r" not in data
    assert data.startswith(",".join(CSV_COLUMNS).encode() + b"\n")

