"""Monte Carlo worlds for probing when mixed machine text is detectable.

A "world" fixes two sentence distributions: h (human) and m (machine), either
categorical over a finite symbol set or Gaussian with identity covariance.
Their total-variation distance delta controls how far apart the classes are.
A "mixed" machine text replaces a floor(alpha * n) share of its sentences
with draws from h, which is the mechanism that erodes detectability.

Texts are scored with the likelihood ratio log M(S) - log H(S) of the true
generative model, i.e. the best score any detector could compute.  For the
mixed class, M marginalizes over which positions are human-like: exactly
(every position subset, via a dynamic program) for small n, or with the
standard per-sentence mixture factorization for large n.  Both modes are
exposed; they agree in the exchangeable IID limit.

An oracle filter can strip a known share of human-like sentences (and a
share of machine ones) before scoring, which is how the benefit and the
breaking point of evidence filtering are mapped out.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product
from statistics import NormalDist
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import InvalidConfig, InvalidFilterSpec, UnsupportedCombination
from .evaluation import auroc, bootstrap_auroc_ci
from .retention import snap_floor

EXACT_N_MAX = 12  # exact position-subset scoring up to this many sentences

_NORMAL = NormalDist()


# --------------------------------------------------------------------------
# worlds


@dataclass(frozen=True)
class SentenceWorld:
    """A pair of sentence distributions, categorical or Gaussian."""

    kind: str
    h: tuple[float, ...] | None = None
    m: tuple[float, ...] | None = None
    mu_h: tuple[float, ...] | None = None
    mu_m: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "categorical":
            if self.h is None or self.m is None or len(self.h) != len(self.m) or len(self.h) < 2:
                raise InvalidConfig("categorical world needs h and m over the same symbols")
            for vec in (self.h, self.m):
                if any(p < 0 for p in vec) or abs(sum(vec) - 1.0) > 1e-9:
                    raise InvalidConfig(f"probabilities must be non-negative and sum to 1: {vec!r}")
        elif self.kind == "gaussian":
            if self.mu_h is None or self.mu_m is None or len(self.mu_h) != len(self.mu_m):
                raise InvalidConfig("gaussian world needs mean vectors of equal dimension")
            if len(self.mu_h) < 1:
                raise InvalidConfig("gaussian world needs dimension >= 1")
        else:
            raise InvalidConfig(f"world kind must be 'categorical' or 'gaussian', got {self.kind!r}")

    @classmethod
    def categorical(cls, h: Sequence[float], m: Sequence[float]) -> "SentenceWorld":
        return cls(kind="categorical", h=tuple(float(p) for p in h), m=tuple(float(p) for p in m))

    @classmethod
    def gaussian(cls, mu_h: Sequence[float], mu_m: Sequence[float]) -> "SentenceWorld":
        return cls(
            kind="gaussian",
            mu_h=tuple(float(x) for x in mu_h),
            mu_m=tuple(float(x) for x in mu_m),
        )

    @property
    def dim(self) -> int:
        if self.kind != "gaussian":
            raise InvalidConfig("dim is defined for gaussian worlds only")
        return len(self.mu_h)


def tv_distance(world: SentenceWorld) -> float:
    """Total variation between h and m.

    Categorical: half the L1 distance.  Gaussian with identity covariance:
    2 Phi(||mu_h - mu_m|| / 2) - 1.
    """
    if world.kind == "categorical":
        return 0.5 * sum(abs(a - b) for a, b in zip(world.h, world.m))
    gap = math.sqrt(sum((a - b) ** 2 for a, b in zip(world.mu_h, world.mu_m)))
    return 2.0 * _NORMAL.cdf(gap / 2.0) - 1.0


def categorical_world(delta: float) -> SentenceWorld:
    """Two-symbol world with overlapping support and TV distance exactly delta.

    Overlap matters: disjoint-support constructions give infinite
    log-likelihood ratios, which pin every score to +-inf and make AUROC
    saturate instead of varying smoothly with n.
    """
    if not (0.0 <= delta <= 1.0):
        raise InvalidConfig(f"delta must be in [0, 1], got {delta!r}")
    return SentenceWorld.categorical(
        h=((1.0 + delta) / 2.0, (1.0 - delta) / 2.0),
        m=((1.0 - delta) / 2.0, (1.0 + delta) / 2.0),
    )


def gaussian_world(delta: float, dim: int = 2) -> SentenceWorld:
    """Identity-covariance Gaussian world with TV distance delta; the mean
    gap sits on the first axis."""
    if not (0.0 <= delta < 1.0):
        raise InvalidConfig(f"delta must be in [0, 1) for gaussian worlds, got {delta!r}")
    if dim < 1:
        raise InvalidConfig(f"dim must be >= 1, got {dim!r}")
    gap = 2.0 * _NORMAL.inv_cdf((1.0 + delta) / 2.0)
    mu_m = (gap,) + (0.0,) * (dim - 1)
    return SentenceWorld.gaussian(mu_h=(0.0,) * dim, mu_m=mu_m)


# --------------------------------------------------------------------------
# mixing and filtering parameters


@dataclass(frozen=True)
class MixSpec:
    """Composition of one text: n sentences, an alpha share of them
    human-like, optional first-order dependence rho between sentences."""

    n: int
    alpha: float = 0.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidConfig(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 <= self.alpha < 1.0):
            raise InvalidConfig(f"alpha must be in [0, 1), got {self.alpha!r}")
        if not (0.0 <= self.rho < 1.0):
            raise InvalidConfig(f"rho must be in [0, 1), got {self.rho!r}")

    @property
    def n_human_like(self) -> int:
        # n - ceil((1 - alpha) * n), snapped: ceil(x) is -floor(-x).
        return self.n + snap_floor((self.alpha - 1.0) * self.n)


@dataclass(frozen=True)
class FilterSpec:
    """Oracle filtering shares: alpha_s of human-like sentences and alpha_h
    of machine sentences are removed from machine texts; human texts lose the
    same total volume, positions chosen uniformly."""

    alpha_s: float = 0.0
    alpha_h: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha_s < 1.0) or not (0.0 <= self.alpha_h < 1.0):
            raise InvalidConfig("filter shares must lie in [0, 1)")
        if self.alpha_s + self.alpha_h >= 1.0:
            raise InvalidConfig("alpha_s + alpha_h must be below 1")

    @property
    def is_identity(self) -> bool:
        return self.alpha_s == 0.0 and self.alpha_h == 0.0


def filter_condition_ok(alpha: float, fspec: FilterSpec) -> bool:
    """Approximate validity condition for filtering to help:
    alpha_s > ((1 + alpha) / (1 - alpha)) * alpha_h."""
    return fspec.alpha_s > ((1.0 + alpha) / (1.0 - alpha)) * fspec.alpha_h


@dataclass(frozen=True)
class SimConfig:
    world: SentenceWorld
    mix: MixSpec
    filter: FilterSpec | None = None
    trials: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.trials, int) or self.trials < 1:
            raise InvalidConfig(f"trials must be a positive integer, got {self.trials!r}")


# --------------------------------------------------------------------------
# sampling

TEXT_CLASSES = ("human", "machine_mixed")


def _check_class(text_class: str) -> None:
    if text_class not in TEXT_CLASSES:
        raise InvalidConfig(f"text_class must be one of {TEXT_CLASSES}, got {text_class!r}")


def _sample_fresh(
    world: SentenceWorld, human_mask: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Independent per-position draws; position i comes from h where
    human_mask[.., i] is True, from m elsewhere.  human_mask: (trials, n)."""
    trials, n = human_mask.shape
    if world.kind == "categorical":
        h = np.asarray(world.h)
        m = np.asarray(world.m)
        draws_h = rng.choice(len(h), size=(trials, n), p=h)
        draws_m = rng.choice(len(m), size=(trials, n), p=m)
        return np.where(human_mask, draws_h, draws_m)
    mu_h = np.asarray(world.mu_h)
    mu_m = np.asarray(world.mu_m)
    noise = rng.standard_normal((trials, n, len(mu_h)))
    means = np.where(human_mask[:, :, None], mu_h, mu_m)
    return means + noise


def sample_texts(
    world: SentenceWorld,
    mix: MixSpec,
    text_class: str,
    rng: np.random.Generator,
    trials: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampler: returns (values, human_mask) over ``trials`` texts.

    Machine texts place their floor(alpha * n) human-like sentences at
    uniformly random positions.  With rho > 0 (gaussian only), sentence i is
    rho * mean(previous sentences) + (1 - rho) * fresh draw.
    """
    _check_class(text_class)
    if trials < 1:
        raise InvalidConfig("trials must be positive")
    n = mix.n
    if text_class == "human":
        human_mask = np.ones((trials, n), dtype=bool)
    else:
        k = mix.n_human_like
        human_mask = np.zeros((trials, n), dtype=bool)
        if k > 0:
            order = np.argsort(rng.random((trials, n)), axis=1)
            rows = np.arange(trials)[:, None]
            human_mask[rows, order[:, :k]] = True

    if mix.rho == 0.0:
        return _sample_fresh(world, human_mask, rng), human_mask

    if world.kind == "categorical":
        raise UnsupportedCombination(
            "dependent (rho > 0) sampling is defined for gaussian worlds only"
        )
    rho = mix.rho
    values = _sample_fresh(world, human_mask, rng)
    running = np.zeros((trials, values.shape[-1]))
    for i in range(n):
        if i > 0:
            values[:, i] = rho * (running / i) + (1.0 - rho) * values[:, i]
        running = running + values[:, i]
    return values, human_mask


# --------------------------------------------------------------------------
# likelihood-ratio scoring


def _position_log_densities(
    values: np.ndarray, world: SentenceWorld
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position log h(s) and log m(s); shapes (trials, n)."""
    if world.kind == "categorical":
        with np.errstate(divide="ignore"):
            log_h = np.log(np.asarray(world.h))[values]
            log_m = np.log(np.asarray(world.m))[values]
        return log_h, log_m
    mu_h = np.asarray(world.mu_h)
    mu_m = np.asarray(world.mu_m)
    # Identity covariance, shared normalizer; constants cancel in every ratio
    # and every mixture weight comparison below, so they are omitted.
    log_h = -0.5 * ((values - mu_h) ** 2).sum(axis=-1)
    log_m = -0.5 * ((values - mu_m) ** 2).sum(axis=-1)
    return log_h, log_m


def _log_binomial(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _score_mode(n: int) -> str:
    """Exact position-subset scoring up to EXACT_N_MAX sentences, mixture beyond."""
    return "exact" if n <= EXACT_N_MAX else "mixture"


def _lr_scores(
    values: np.ndarray, world: SentenceWorld, n_human_like: int, mode: str
) -> np.ndarray:
    """log M(S) - log H(S) for a batch of texts, shape (trials, n[, dim]);
    M marginalizes n_human_like human-like positions, exactly ("exact") or
    factorized ("mixture"); "auto" picks by n (_score_mode)."""
    if mode == "auto":
        mode = _score_mode(values.shape[1])
    if mode not in ("exact", "mixture"):
        raise InvalidConfig(f"mode must be 'exact', 'mixture' or 'auto', got {mode!r}")
    log_h, log_m = _position_log_densities(values, world)
    trials, n = log_h.shape
    k = n_human_like
    if not (0 <= k <= n):
        raise InvalidConfig(f"n_human_like must be in [0, {n}], got {k}")
    log_h_total = log_h.sum(axis=1)
    if k == 0:
        return log_m.sum(axis=1) - log_h_total
    if mode == "mixture":
        w = k / n
        if w >= 1.0:
            log_mix = log_h
        else:
            log_mix = np.logaddexp(math.log1p(-w) + log_m, math.log(w) + log_h)
        return log_mix.sum(axis=1) - log_h_total
    # Dynamic program over positions: f[:, t] is the log-sum over assignments
    # of the first j positions that used t human-like slots.
    neg_inf = np.full((trials, 1), -np.inf)
    f = np.concatenate([np.zeros((trials, 1)), np.full((trials, k), -np.inf)], axis=1)
    for j in range(n):
        shifted = np.concatenate([neg_inf, f[:, :-1]], axis=1)
        f = np.logaddexp(f + log_m[:, j : j + 1], shifted + log_h[:, j : j + 1])
    return f[:, k] - _log_binomial(n, k) - log_h_total


def likelihood_ratio_score(
    sentences: np.ndarray | Sequence,
    world: SentenceWorld,
    mix: MixSpec,
    mode: str = "auto",
) -> float:
    """Optimal-score statistic log M(S) - log H(S) for one text.

    Defined for exchangeable (rho = 0) compositions; "auto" scores exactly
    up to EXACT_N_MAX sentences and with the per-sentence mixture beyond.
    """
    if mix.rho != 0.0:
        raise UnsupportedCombination(
            "the likelihood-ratio score assumes independent sentences (rho = 0)"
        )
    values = np.asarray(sentences)
    if world.kind == "categorical":
        if values.ndim != 1:
            raise InvalidConfig("categorical text must be a flat symbol sequence")
    elif values.ndim != 2 or values.shape[1] != world.dim:
        raise InvalidConfig(f"gaussian text must have shape (n, {world.dim})")
    n = values.shape[0]
    if n != mix.n:
        raise InvalidConfig(f"text has {n} sentences but mix.n = {mix.n}")
    batch = values.reshape(1, *values.shape)
    return float(_lr_scores(batch, world, mix.n_human_like, mode)[0])


# --------------------------------------------------------------------------
# oracle filtering


def _remove_batch(
    values: np.ndarray,
    human_mask: np.ndarray,
    remove_h: int,
    remove_m: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop remove_h human-like and remove_m machine positions per text,
    uniformly at random within each pool.  Every row loses the same count,
    so the batch stays rectangular."""
    trials, n = human_mask.shape
    u = rng.random((trials, n))
    drop = np.zeros((trials, n), dtype=bool)
    rows = np.arange(trials)[:, None]
    if remove_h > 0:
        uh = np.where(human_mask, u, np.inf)
        order = np.argsort(uh, axis=1)
        drop[rows, order[:, :remove_h]] = True
    if remove_m > 0:
        um = np.where(~human_mask, u, np.inf)
        order = np.argsort(um, axis=1)
        drop[rows, order[:, :remove_m]] = True
    keep = ~drop
    n_eff = n - remove_h - remove_m
    kept_values = values[keep].reshape(trials, n_eff, *values.shape[2:])
    kept_mask = human_mask[keep].reshape(trials, n_eff)
    return kept_values, kept_mask


def _removal_counts(fspec: FilterSpec, n: int, k: int | None) -> tuple[int, int]:
    """Human-like and machine sentences the oracle filter removes from an
    n-sentence machine text holding k human-like ones; a human text (k None)
    loses their sum from a single pool.  Raises InvalidFilterSpec when a
    machine pool runs short or no sentence would remain."""
    r_h = snap_floor(fspec.alpha_s * n)
    r_m = snap_floor(fspec.alpha_h * n)
    if k is not None and r_h > k:
        raise InvalidFilterSpec(
            f"alpha_s = {fspec.alpha_s} removes {r_h} human-like sentences "
            f"but machine texts only contain {k}"
        )
    if k is not None and r_m > n - k:
        raise InvalidFilterSpec(
            f"alpha_h = {fspec.alpha_h} removes {r_m} machine sentences "
            f"but machine texts only contain {n - k}"
        )
    if r_h + r_m >= n:
        raise InvalidFilterSpec(f"filter would remove all {n} sentences")
    return r_h, r_m


def apply_theory_filter(
    values: np.ndarray,
    human_mask: np.ndarray,
    fspec: FilterSpec,
    text_class: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle filter over a batch of one class, as sample_texts returns it;
    every row must hold the same number of human-like sentences.

    Machine texts lose floor(alpha_s * n) human-like and floor(alpha_h * n)
    machine sentences (uniformly within each pool); human texts lose the same
    total count uniformly, keeping removal volume label-agnostic.  Survivors
    keep their order.  Any non-identity spec draws from rng, even when it
    removes nothing, so whether rng advances depends on the spec alone.
    """
    _check_class(text_class)
    if fspec.is_identity:
        return values, human_mask
    counts = human_mask.sum(axis=1)
    if (counts != counts[0]).any():
        raise InvalidConfig("every text in a batch must hold the same number of human-like sentences")
    machine = text_class == "machine_mixed"
    r_h, r_m = _removal_counts(fspec, human_mask.shape[1], int(counts[0]) if machine else None)
    # Label-agnostic for human texts: the pool is every sentence, volume r_h + r_m.
    pools = (r_h, r_m) if machine else (r_h + r_m, 0)
    return _remove_batch(values, human_mask, *pools, rng)


# --------------------------------------------------------------------------
# experiment driver

SWEEP_KEYS = ("delta", "n", "alpha", "alpha_s", "alpha_h", "rho", "trials")


def _point_params(cfg: SimConfig) -> dict:
    return {
        "delta": tv_distance(cfg.world),
        "n": cfg.mix.n,
        "alpha": cfg.mix.alpha,
        "alpha_s": cfg.filter.alpha_s if cfg.filter else 0.0,
        "alpha_h": cfg.filter.alpha_h if cfg.filter else 0.0,
        "rho": cfg.mix.rho,
        "trials": cfg.trials,
    }


def _point_specs(params: Mapping) -> tuple[MixSpec, FilterSpec]:
    mix = MixSpec(n=int(params["n"]), alpha=float(params["alpha"]), rho=float(params["rho"]))
    return mix, FilterSpec(alpha_s=float(params["alpha_s"]), alpha_h=float(params["alpha_h"]))


def _run_point(task: tuple) -> dict:
    world, params, seed, index = task
    mix, fspec = _point_specs(params)
    trials = int(params["trials"])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))

    human = sample_texts(world, mix, "human", rng, trials)
    machine = sample_texts(world, mix, "machine_mixed", rng, trials)
    machine_values, machine_mask = apply_theory_filter(*machine, fspec, "machine_mixed", rng)
    human_values, _ = apply_theory_filter(*human, fspec, "human", rng)

    k_eff = int(machine_mask[0].sum())
    mode = _score_mode(machine_mask.shape[1])
    pos_scores = _lr_scores(machine_values, world, k_eff, mode)
    neg_scores = _lr_scores(human_values, world, k_eff, mode)
    scores = np.r_[pos_scores, neg_scores]
    labels = np.r_[np.ones(trials, dtype=np.int64), np.zeros(trials, dtype=np.int64)]
    point_auroc = auroc(scores, labels)
    ci_lo, ci_hi = bootstrap_auroc_ci(pos_scores, neg_scores, rng=rng)

    row = dict(params)
    row.update(
        {
            "seed": seed,
            "auroc": point_auroc,
            "ci_lo": ci_lo,
            "ci_hi": ci_hi,
            "n_pos": trials,
            "n_neg": trials,
            "score_mode": mode,
            "score_model_mismatch": bool(mix.rho != 0.0),
            "filter_condition_violated": (
                None if fspec.is_identity else not filter_condition_ok(params["alpha"], fspec)
            ),
        }
    )
    return row


def run_experiment(
    cfg: SimConfig,
    sweep: Mapping[str, Sequence] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Run one AUROC measurement per sweep grid point.

    ``sweep`` maps parameter names (SWEEP_KEYS) to value lists; missing keys
    stay at their SimConfig values.  The grid is the Cartesian product in
    fixed key order, and every point gets its own derived RNG stream, so
    results do not depend on the worker count.  When "delta" is swept,
    every point rebuilds its world with the world kind's constructor
    (categorical_world or gaussian_world); otherwise cfg.world is used as is.
    """
    sweep = dict(sweep or {})
    unknown = set(sweep) - set(SWEEP_KEYS)
    if unknown:
        raise InvalidConfig(f"unknown sweep keys: {sorted(unknown)}")
    base = _point_params(cfg)
    axes = []
    for key in SWEEP_KEYS:
        values = sweep.get(key)
        axes.append([base[key]] if values is None else list(values))
    points = [dict(zip(SWEEP_KEYS, combo)) for combo in product(*axes)]
    for p in points:
        if int(p["trials"]) < 100:
            raise InvalidConfig("at least 100 trials per class are required for reported AUROC")
        # Every point's filter is checked before any point runs.
        mix, fspec = _point_specs(p)
        try:
            _removal_counts(fspec, mix.n, mix.n_human_like)
        except InvalidFilterSpec as exc:
            where = ", ".join(f"{key} = {p[key]}" for key in ("n", "alpha", "alpha_s", "alpha_h"))
            raise InvalidFilterSpec(f"grid point {where}: {exc}") from None
    worlds = [cfg.world] * len(points)
    if "delta" in sweep:
        gaussian = cfg.world.kind == "gaussian"
        make, dim = (gaussian_world, (cfg.world.dim,)) if gaussian else (categorical_world, ())
        worlds = [make(p["delta"], *dim) for p in points]
    tasks = [(w, p, cfg.seed, i) for i, (w, p) in enumerate(zip(worlds, points))]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_point, tasks))
    return [_run_point(t) for t in tasks]


CSV_COLUMNS = (
    "delta",
    "n",
    "alpha",
    "alpha_s",
    "alpha_h",
    "rho",
    "trials",
    "seed",
    "auroc",
    "ci_lo",
    "ci_hi",
    "n_pos",
    "n_neg",
    "score_mode",
    "score_model_mismatch",
    "filter_condition_violated",
)


def write_rows_csv(rows: Sequence[dict], dest: IO[str] | str) -> None:
    """Write experiment rows as CSV to a path or an open text stream."""
    stream = hasattr(dest, "write")
    with nullcontext(dest) if stream else open(dest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in CSV_COLUMNS])


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
