"""Acceptance suite.

Eleven numbered criteria, one test each, in order: mask-rule enumeration,
metric oracles, tau=0 degeneration, gradient checks, the three simulation
directions, mixed-corpus enhancement, the random-filter control, the runtime
ratio, and byte determinism.  Every test prints one "criterion N: PASS/FAIL"
line (bypassing capture so the line shows up in plain pytest output) and
pins its tolerances and runtime bounds in the assertions themselves.

All randomness is seeded, so each criterion is a deterministic check: if it
passes once on a machine it passes every time (the two wall-clock bounds and
the timing ratio of criterion 10 are the only machine-dependent parts).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import sys
import time

import numpy as np
import pytest

from mgtstack import (
    FilterConfig,
    MixSpec,
    NGramLMDetector,
    NGramLogRegModel,
    SimConfig,
    StackedDetector,
    SynthSpec,
    TrainConfig,
    auroc,
    bin_log_likelihood,
    categorical_world,
    compute_mask,
    grad_update,
    human_sentence_pool,
    inject_human_sentences,
    random_mask,
    run_experiment,
    save_corpus,
    save_model,
    stacked_infer_detail,
    synth_corpus,
    tpr_at_fpr,
    train_hard_em,
    train_plain,
)
from mgtstack.cli import main as cli_main
from mgtstack.segmentation import group_subsequences, reconstruct


def _criterion(capsys, num: int, ok: bool, detail: str) -> None:
    """One visible pass/fail line per criterion, then the actual assert."""
    with capsys.disabled():
        sys.stdout.write(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})\n")
        sys.stdout.flush()
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: retention rule vs exhaustive enumeration


def _enum_mask(scores, r_e, tau):
    """Independent oracle: try every legal drop set.

    Maximize the number of drops (never beyond the budget, never at or above
    r_e), then prefer the lowest (score, index) pairs.  This is the rule
    restated in whole-subset terms rather than per-element ones.
    """
    n = len(scores)
    budget = math.floor(tau * n + 1e-9)
    eligible = [j for j in range(n) if scores[j] < r_e]
    best_key, best_drop = None, ()
    for r in range(min(budget, len(eligible)) + 1):
        for combo in itertools.combinations(eligible, r):
            key = (-r, tuple(sorted((scores[j], j) for j in combo)))
            if best_key is None or key < best_key:
                best_key, best_drop = key, combo
    dropped = set(best_drop)
    return tuple(0 if j in dropped else 1 for j in range(n))


def test_criterion_01_mask_rule_oracle(capsys):
    rng = random.Random(991)
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(10_000):
        n = rng.randint(1, 12)
        r_e = rng.uniform(0.0, 0.1)
        tau = rng.uniform(0.0, 0.5)
        if trial % 3 == 0:
            scores = [rng.uniform(0.0, 0.2) for _ in range(n)]
        elif trial % 3 == 1:
            # Two-decimal scores force plenty of exact ties.
            scores = [round(rng.uniform(0.0, 0.15), 2) for _ in range(n)]
        else:
            scores = [rng.random() for _ in range(n)]
        got = tuple(compute_mask(scores, FilterConfig(r_e=r_e, tau=tau, k=3)))
        if got != _enum_mask(scores, r_e, tau):
            mismatches += 1
    wall = time.perf_counter() - t0
    _criterion(
        capsys,
        1,
        mismatches == 0 and wall < 10.0,
        f"{mismatches} mismatches over 10000 random vectors, {wall:.2f}s < 10s",
    )


# ---------------------------------------------------------------------------
# criterion 2: metric implementations vs brute force


def _brute_auroc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    gt = (pos[:, None] > neg[None, :]).sum()
    eq = (pos[:, None] == neg[None, :]).sum()
    return (gt + 0.5 * eq) / (len(pos) * len(neg))


def _scan_tpr(scores, labels, cap):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    best = 0.0
    for t in np.unique(np.r_[s, -np.inf]):
        if (neg > t).mean() <= cap:
            best = max(best, (pos > t).mean())
    return best


def test_criterion_02_metric_oracles(capsys):
    rng = np.random.default_rng(881)
    t0 = time.perf_counter()
    auroc_bad = tpr_bad = 0
    for trial in range(1_000):
        n = int(rng.integers(2, 201))
        n_pos = int(rng.integers(1, n))
        labels = np.r_[np.ones(n_pos, int), np.zeros(n - n_pos, int)]
        rng.shuffle(labels)
        if trial % 2:
            scores = np.round(rng.random(n), 2)
        else:
            scores = rng.normal(size=n)
        auroc_bad += auroc(scores, labels) != _brute_auroc(scores, labels)
        cap = float(rng.choice([0.0, 0.005, 0.05, 0.1, 0.25, 0.8]))
        tpr_bad += tpr_at_fpr(scores, labels, cap) != _scan_tpr(scores, labels, cap)
    wall = time.perf_counter() - t0
    _criterion(
        capsys,
        2,
        auroc_bad == 0 and tpr_bad == 0 and wall < 30.0,
        f"auroc mismatches {auroc_bad}, tpr mismatches {tpr_bad} "
        f"over 1000 instances, {wall:.2f}s < 30s",
    )


# ---------------------------------------------------------------------------
# criterion 3: tau=0 degenerates to the plain pipeline, byte for byte


def test_criterion_03_degeneration_equivalence(capsys, tmp_path):
    docs = synth_corpus(SynthSpec(n_docs=200, seed=31))
    pairs = [(doc, doc.label) for doc in docs]
    tc = TrainConfig(epochs=3, lr=0.5, batch_size=32, r_e=0.01, tau=0.0, k=3, seed=13)
    base = NGramLogRegModel.new(n=1, feature_mode="word", hash_buckets=2**14)
    stacked_model, _ = train_hard_em(base, pairs, tc)
    plain_model, _ = train_plain(base, pairs, tc)

    path_a = tmp_path / "stacked.json"
    path_b = tmp_path / "plain.json"
    save_model(stacked_model, str(path_a))
    save_model(plain_model, str(path_b))
    bytes_equal = path_a.read_bytes() == path_b.read_bytes()

    sd = StackedDetector(stacked_model, FilterConfig(r_e=0.01, tau=0.0, k=3))
    scores_equal = all(
        stacked_infer_detail(sd, doc).score == plain_model.score(doc.text) for doc in docs
    )
    _criterion(
        capsys,
        3,
        bytes_equal and scores_equal,
        f"model files byte-identical: {bytes_equal}, "
        f"all 200 inference scores identical: {scores_equal}",
    )


# ---------------------------------------------------------------------------
# criterion 4: analytic gradient vs central finite differences


def test_criterion_04_gradient_correctness(capsys):
    rng = random.Random(447)
    worst = 0.0
    for _ in range(50):
        model = NGramLogRegModel.new(n=1, feature_mode="word", hash_buckets=64)
        weights = np.asarray(
            [rng.gauss(0.0, 0.3) for _ in range(64)], dtype=np.float64
        )
        model = dataclasses.replace(
            model, weights=weights, bias=rng.gauss(0.0, 0.3)
        )
        words = ["zz", "qq", "xx", "vv", "ww", "tt"]
        batch = [
            (
                " ".join(rng.choice(words) for _ in range(rng.randint(2, 6))),
                rng.randint(0, 1),
            )
            for _ in range(rng.randint(2, 5))
        ]
        updated = grad_update(model, batch, eta=1.0)
        analytic = np.r_[updated.weights - model.weights, updated.bias - model.bias]

        eps = 1e-5
        for idx in range(65):
            def nudged(sign):
                if idx < 64:
                    w = model.weights.copy()
                    w[idx] += sign * eps
                    return dataclasses.replace(model, weights=w)
                return dataclasses.replace(model, bias=model.bias + sign * eps)

            fd = (
                bin_log_likelihood(nudged(+1), batch)
                - bin_log_likelihood(nudged(-1), batch)
            ) / (2 * eps)
            err = abs(analytic[idx] - fd)
            bound = max(1e-5 * abs(fd), 1e-9)
            worst = max(worst, err / bound if bound else 0.0)
            assert err <= bound, f"coordinate {idx}: {analytic[idx]} vs {fd}"
    _criterion(
        capsys,
        4,
        worst <= 1.0,
        f"50 random models, per-coordinate error within 1e-5 relative "
        f"(worst fraction of bound used: {worst:.3f})",
    )


# ---------------------------------------------------------------------------
# criteria 5-7: simulation directions

SIM_SEED = 20260816


def test_criterion_05_detectability_grows_with_n(capsys):
    t0 = time.perf_counter()
    cfg = SimConfig(
        world=categorical_world(0.5),
        mix=MixSpec(n=5, alpha=0.0),
        trials=2000,
        seed=SIM_SEED,
    )
    rows = run_experiment(cfg, sweep={"n": (5, 10, 20, 50), "alpha": (0.0, 0.3, 0.6)}, jobs=2)
    wall = time.perf_counter() - t0
    by = {(r["alpha"], r["n"]): r for r in rows}

    monotone = all(
        by[(a, 5)]["auroc"] < by[(a, 10)]["auroc"] < by[(a, 20)]["auroc"] < by[(a, 50)]["auroc"]
        for a in (0.0, 0.3, 0.6)
    )
    clean, mixed = by[(0.0, 20)], by[(0.6, 20)]
    separated = clean["ci_lo"] > mixed["ci_hi"]
    _criterion(
        capsys,
        5,
        monotone and separated and wall < 120.0,
        f"auroc strictly increasing in n at alpha 0/0.3/0.6; at n=20 "
        f"alpha=0 CI [{clean['ci_lo']:.4f},{clean['ci_hi']:.4f}] clears "
        f"alpha=0.6 CI [{mixed['ci_lo']:.4f},{mixed['ci_hi']:.4f}]; {wall:.1f}s < 120s",
    )


def test_criterion_06_filtering_helps(capsys):
    t0 = time.perf_counter()
    cfg = SimConfig(
        world=categorical_world(0.5),
        mix=MixSpec(n=20, alpha=0.5),
        trials=2000,
        seed=SIM_SEED,
    )
    rows = run_experiment(cfg, sweep={"alpha_s": (0.0, 0.4)})
    wall = time.perf_counter() - t0
    plain, filtered = rows[0], rows[1]
    separated = filtered["ci_lo"] > plain["ci_hi"]
    _criterion(
        capsys,
        6,
        separated and wall < 120.0,
        f"alpha_s=0.4 CI [{filtered['ci_lo']:.4f},{filtered['ci_hi']:.4f}] clears "
        f"alpha_s=0 CI [{plain['ci_lo']:.4f},{plain['ci_hi']:.4f}]; {wall:.1f}s < 120s",
    )


def test_criterion_07_filter_condition(capsys):
    cfg = SimConfig(
        world=categorical_world(0.5),
        mix=MixSpec(n=20, alpha=0.5),
        trials=2000,
        seed=SIM_SEED,
    )
    rows = run_experiment(
        cfg, sweep={"alpha_s": (0.0, 0.4), "alpha_h": (0.0, 0.05, 0.3)}
    )
    by = {(r["alpha_s"], r["alpha_h"]): r for r in rows}
    unfiltered = by[(0.0, 0.0)]
    good = by[(0.4, 0.05)]
    bad = by[(0.4, 0.3)]

    # alpha_s=0.4 > 3 * alpha_h=0.05: the condition holds, and filtering must
    # not hurt (greater or equal, allowing the CI width of the baseline).
    holds = good["filter_condition_violated"] is False
    no_worse = good["auroc"] >= unfiltered["ci_lo"]
    # alpha_h=0.3 breaks the condition; only the flag is asserted.
    flagged = bad["filter_condition_violated"] is True
    _criterion(
        capsys,
        7,
        holds and no_worse and flagged,
        f"condition-satisfied point auroc {good['auroc']:.4f} vs unfiltered "
        f"{unfiltered['auroc']:.4f} (ci_lo {unfiltered['ci_lo']:.4f}), flag False; "
        f"alpha_h=0.3 flagged violated: {flagged}",
    )


# ---------------------------------------------------------------------------
# criteria 8-9: mixed-corpus enhancement and the random-filter control

MIX_SEEDS = (101, 202, 303, 404, 505)
MIX_COUNTS = (0, 1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def mixed_corpus_summary():
    """Seed-averaged AUROC of base, stacked, and random-filter detection.

    Machine documents get 0-5 sentences replaced with strongly human-flavored
    pool sentences; the base LM detector, the training-free stacked wrapper,
    and a random filter at the same realized drop ratio all score the same
    evaluation split.
    """
    fc = FilterConfig(r_e=0.01, tau=0.25, k=3)
    base_means = {c: 0.0 for c in MIX_COUNTS}
    stack_means = {c: 0.0 for c in MIX_COUNTS}
    rand_means = {c: 0.0 for c in MIX_COUNTS}

    for seed in MIX_SEEDS:
        spec = SynthSpec(
            n_docs=400,
            seed=seed,
            sentences_per_doc=(18, 24),
            strong_frac=0.55,
            weak_frac=0.06,
            weak_prob=0.5,
        )
        docs = synth_corpus(spec)
        humans = [d for d in docs if d.label == 0]
        machines = [d for d in docs if d.label == 1]
        train = humans[: len(humans) // 2] + machines[: len(machines) // 2]
        eval_h = humans[len(humans) // 2 :]
        eval_m = machines[len(machines) // 2 :]
        base = NGramLMDetector.fit(train)
        sd = StackedDetector(base, fc)
        pool = human_sentence_pool(
            dataclasses.replace(spec, strong_frac=0.9), 400, seed + 999
        )

        for c in MIX_COUNTS:
            rng = random.Random(seed * 1000 + c)
            eval_docs = eval_h + [
                inject_human_sentences(d, pool, c, rng) for d in eval_m
            ]
            labels = [d.label for d in eval_docs]
            base_scores = [base.score(d.text) for d in eval_docs]
            details = [stacked_infer_detail(sd, d) for d in eval_docs]
            stacked_scores = [r.score for r in details]
            random_scores = []
            for i, (d, res) in enumerate(zip(eval_docs, details)):
                subseq = group_subsequences(d, fc.k)
                ratio = res.n_filtered / res.n_groups if res.n_groups else 0.0
                rmask = random_mask(res.n_groups, ratio, seed * 7919 + c * 131 + i)
                random_scores.append(base.score(reconstruct(d, subseq, rmask)))
            base_means[c] += auroc(base_scores, labels) / len(MIX_SEEDS)
            stack_means[c] += auroc(stacked_scores, labels) / len(MIX_SEEDS)
            rand_means[c] += auroc(random_scores, labels) / len(MIX_SEEDS)
    return base_means, stack_means, rand_means


def test_criterion_08_mixed_corpus_enhancement(capsys, mixed_corpus_summary):
    base_means, stack_means, _ = mixed_corpus_summary
    degrades = all(base_means[c] > base_means[c + 1] for c in (1, 2, 3, 4))
    recovers = all(stack_means[c] >= base_means[c] for c in (3, 4, 5))
    base_str = " ".join(f"{c}:{base_means[c]:.4f}" for c in (1, 2, 3, 4, 5))
    gain_str = " ".join(
        f"{c}:+{stack_means[c] - base_means[c]:.4f}" for c in (3, 4, 5)
    )
    _criterion(
        capsys,
        8,
        degrades and recovers,
        f"base auroc by replacement count [{base_str}] strictly decreasing; "
        f"stacked gain at counts>=3 [{gain_str}] (5-seed means)",
    )


def test_criterion_09_random_filter_control(capsys, mixed_corpus_summary):
    _, stack_means, rand_means = mixed_corpus_summary
    dominated = all(rand_means[c] <= stack_means[c] for c in MIX_COUNTS)
    detail = " ".join(
        f"{c}:{rand_means[c]:.4f}<={stack_means[c]:.4f}" for c in (1, 3, 5)
    )
    _criterion(
        capsys,
        9,
        dominated,
        f"random filter never beats the learned mask at any count ({detail}, 5-seed means)",
    )


# ---------------------------------------------------------------------------
# criterion 10: runtime ratio


def test_criterion_10_runtime_bound(capsys, tmp_path):
    # Long sentences keep per-call bookkeeping small next to per-token model
    # work, and mostly strong-style human documents exercise the filter at
    # its budget, which is the workload the wrapper is built for.
    spec = SynthSpec(
        n_docs=1000,
        seed=22,
        balance=0.4,
        sentences_per_doc=(23, 26),
        words_per_sentence=(16, 22),
        strong_frac=0.55,
        weak_frac=0.06,
        weak_prob=0.1,
    )
    docs = synth_corpus(spec)
    base = NGramLMDetector.fit(
        synth_corpus(dataclasses.replace(spec, n_docs=100, seed=21))
    )
    model_path = tmp_path / "lm.json"
    save_model(base, str(model_path))

    pool = human_sentence_pool(dataclasses.replace(spec, strong_frac=0.9), 500, 777)
    rng = random.Random(42)
    docs = [
        inject_human_sentences(d, pool, rng.choice((1, 2, 3, 4, 5)), rng)
        if d.label == 1
        else d
        for d in docs
    ]
    corpus_path = tmp_path / "bench.jsonl"
    save_corpus(str(corpus_path), docs)

    ratios = {}
    for tau in ("0.25", "0.0"):
        out = tmp_path / f"bench_{tau}.json"
        code = cli_main(
            [
                "bench",
                "--corpus", str(corpus_path),
                "--model", str(model_path),
                "--tau", tau,
                "--repeats", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["n_docs"] == 1000
        ratios[tau] = payload["ratio"]

    within_bound = ratios["0.25"] <= 2.0
    degenerate_flat = 0.9 <= ratios["0.0"] <= 1.6
    _criterion(
        capsys,
        10,
        within_bound and degenerate_flat,
        f"1000-doc stacked/base ratio {ratios['0.25']:.3f} <= 2.0; "
        f"tau=0 ratio {ratios['0.0']:.3f} within [0.9, 1.6]",
    )


# ---------------------------------------------------------------------------
# criterion 11: byte determinism of every verb's primary outputs


def _strip_timing(trace_text: str) -> list[dict]:
    rows = [json.loads(line) for line in trace_text.splitlines()]
    for row in rows:
        row.pop("wall_seconds", None)
    return rows


def test_criterion_11_determinism(capsys, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(
        str(corpus), synth_corpus(SynthSpec(n_docs=40, seed=61, sentences_per_doc=(6, 9)))
    )
    outcomes = []

    for run_dir in ("one", "two"):
        out_dir = tmp_path / run_dir
        assert cli_main(
            [
                "train",
                "--corpus", str(corpus),
                "--out", str(out_dir),
                "--epochs", "2",
                "--hash-buckets", "4096",
                "--seed", "5",
            ]
        ) == 0
    model = tmp_path / "one" / "model.json"
    outcomes.append(
        (
            "train model",
            (tmp_path / "one" / "model.json").read_bytes()
            == (tmp_path / "two" / "model.json").read_bytes(),
        )
    )
    outcomes.append(
        (
            "train report",
            (tmp_path / "one" / "eval_val.json").read_bytes()
            == (tmp_path / "two" / "eval_val.json").read_bytes(),
        )
    )
    outcomes.append(
        (
            "train trace",
            _strip_timing((tmp_path / "one" / "trace.jsonl").read_text(encoding="utf-8"))
            == _strip_timing((tmp_path / "two" / "trace.jsonl").read_text(encoding="utf-8")),
        )
    )

    pairs = {
        "detect": ["detect", "--corpus", str(corpus), "--model", str(model), "--seed", "5"],
        "eval": ["eval", "--corpus", str(corpus), "--model", str(model), "--seed", "5"],
        "simulate": [
            "simulate",
            "--delta", "0.5",
            "--n", "5,10",
            "--trials", "150",
            "--seed", "5",
        ],
        "overlap": ["overlap", "--human", str(corpus), "--machine", str(corpus)],
    }
    for verb, argv in pairs.items():
        a = tmp_path / f"{verb}_a.out"
        b = tmp_path / f"{verb}_b.out"
        for dest in (a, b):
            assert cli_main(argv + ["--out", str(dest)]) == 0
        outcomes.append((verb, a.read_bytes() == b.read_bytes()))

    ok = all(flag for _, flag in outcomes)
    _criterion(
        capsys,
        11,
        ok,
        "byte-identical reruns: "
        + ", ".join(f"{name} {'yes' if flag else 'NO'}" for name, flag in outcomes),
    )
