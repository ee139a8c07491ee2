"""The four benchmark workloads.

Each workload function makes its corpora and models from ``mgtstack.synthdata`` and
``mgtstack.detectors`` in the benchmark process, before anything is timed,
and writes them to the work directory.  The verbs then receive only those
JSONL and model files.  Every seed that shapes an input is drawn from
``random.Random("<workload>/<seed>")``, so one workload seed gives the same
inputs on every run.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from mgtstack.corpus import load_corpus, save_corpus
from mgtstack.detectors import NGramLMDetector, NGramLogRegModel, TrainConfig, load_model, save_model
from mgtstack.evaluation import SplitSpec, auroc, inject_human_sentences, split_dataset
from mgtstack.retention import FilterConfig
from mgtstack.stacked import train_hard_em
from mgtstack.synthdata import SynthSpec, human_sentence_pool, synth_corpus

import checks
import scorer

FILTER = FilterConfig(r_e=0.01, tau=0.25, k=3)
FILTER_FLAGS = ["--re", repr(FILTER.r_e), "--tau", repr(FILTER.tau), "--k", str(FILTER.k)]
HASH_BUCKETS = 2**18
SCORER = Path(__file__).resolve().parent / "scorer.py"

# Per workload: (full size, tiny size used by the benchmark's own tests).
SIZES = {
    "long-lm": ({"docs": 1000}, {"docs": 40}),
    "mixed-logreg": (
        {"train_docs": 800, "held_docs": 2000, "epochs": 3, "model_epochs": 8},
        {"train_docs": 60, "held_docs": 60, "epochs": 1, "model_epochs": 1},
    ),
    "sim-grid": ({"trials": 2000}, {"trials": 100}),
    "adapter": ({"docs": 30}, {"docs": 4}),
}


@dataclass(frozen=True)
class Verb:
    """One CLI invocation of a workload cycle."""

    arm: str  # "stacked" (detect), "base" (eval), "train" or "simulate"
    argv: list[str]
    items: int  # documents, training documents x epochs, or trials x classes
    model: str | None  # model file the set-up loads, if the verb has one
    output: str  # file whose bytes must repeat exactly across the run
    check: Callable[[bytes], list[str]]  # full check of one output's bytes


@dataclass(frozen=True)
class Workload:
    verbs: list[Verb]
    # arm -> output bytes  ->  quality figures; "auroc" is the end-to-end one
    quality: Callable[[dict[str, bytes]], dict[str, float]]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _stacked_auroc(output: bytes, corpus_path: str) -> float:
    scores = [json.loads(line)["score"] for line in output.decode("utf-8").splitlines()]
    return auroc(scores, [d.label for d in load_corpus(corpus_path)])


def _detect(corpus: str, out: str, seed: int, model: str | None = None, adapter: str | None = None) -> list[str]:
    source = ["--model", model] if model else ["--adapter", adapter, "--training-free"]
    return ["detect", "--corpus", corpus, *source, "--out", out, "--jobs", "1", "--seed", str(seed), *FILTER_FLAGS]


def _text_verbs(work: Path, seed: int, corpus: str, model: str, n_docs: int) -> list[Verb]:
    """detect, then eval without --stacked, on one corpus and model file."""
    detect_out, eval_out = str(work / "detect.jsonl"), str(work / "eval.json")
    return [
        Verb(
            "stacked",
            _detect(corpus, detect_out, seed, model=model),
            n_docs,
            model,
            detect_out,
            lambda out: checks.check_detect(out, corpus, load_model(model), FILTER),
        ),
        Verb(
            "base",
            ["eval", "--corpus", corpus, "--model", model, "--out", eval_out, "--seed", str(seed)],
            n_docs,
            model,
            eval_out,
            lambda out: checks.check_eval(out, corpus, load_model(model), seed),
        ),
    ]


def _text_quality(corpus: str) -> Callable[[dict[str, bytes]], dict[str, float]]:
    def quality(outputs: dict[str, bytes]) -> dict[str, float]:
        stacked = _stacked_auroc(outputs["stacked"], corpus)
        return {"auroc": stacked, "stacked_auroc": stacked, "base_auroc": json.loads(outputs["base"])["auroc"]}

    return quality


def long_lm(work: Path, seed: int, size: dict) -> Workload:
    """The criterion-10 corpus shape scored by a unigram LM detector."""
    rng = _rng("long-lm", seed)
    spec = SynthSpec(
        n_docs=size["docs"],
        seed=rng.randrange(2**31),
        balance=0.4,
        sentences_per_doc=(23, 26),
        words_per_sentence=(16, 22),
        strong_frac=0.55,
        weak_frac=0.06,
        weak_prob=0.1,
    )
    docs = synth_corpus(spec)
    base = NGramLMDetector.fit(synth_corpus(dataclasses.replace(spec, n_docs=100, seed=rng.randrange(2**31))))
    pool = human_sentence_pool(dataclasses.replace(spec, strong_frac=0.9), 500, rng.randrange(2**31))
    docs = [inject_human_sentences(d, pool, rng.randint(1, 5), rng) if d.label == 1 else d for d in docs]
    corpus, model = str(work / "corpus.jsonl"), str(work / "lm.json")
    save_corpus(corpus, docs)
    save_model(base, model)
    return Workload(_text_verbs(work, seed, corpus, model, len(docs)), _text_quality(corpus))


def mixed_logreg(work: Path, seed: int, size: dict) -> Workload:
    """Short mixed documents: train a word-bigram logreg, then detect and eval held out."""
    rng = _rng("mixed-logreg", seed)
    spec = SynthSpec(
        n_docs=size["train_docs"],
        seed=rng.randrange(2**31),
        sentences_per_doc=(9, 12),
        words_per_sentence=(6, 10),
        weak_prob=0.5,
    )
    pool = human_sentence_pool(spec, 500, rng.randrange(2**31))

    def mixed(docs):
        return [inject_human_sentences(d, pool, rng.randint(1, 3), rng) if d.label == 1 else d for d in docs]

    train_docs = mixed(synth_corpus(spec))
    held_docs = mixed(synth_corpus(dataclasses.replace(spec, n_docs=size["held_docs"], seed=rng.randrange(2**31))))
    train_seed = rng.randrange(2**31)
    epochs = size["epochs"]
    # The scoring model gets more epochs than the timed train verb: at 3 epochs
    # its held-out AUROC swings with the seed (0.86 to 0.99), at 8 it settles.
    tc = TrainConfig(epochs=size["model_epochs"], lr=0.5, r_e=FILTER.r_e, tau=FILTER.tau, k=FILTER.k, seed=train_seed)
    base, _ = train_hard_em(
        NGramLogRegModel.new(n=2, hash_buckets=HASH_BUCKETS), [(d, d.label) for d in train_docs], tc
    )
    train_corpus, held_corpus = str(work / "train.jsonl"), str(work / "held.jsonl")
    model = str(work / "logreg.json")
    save_corpus(train_corpus, train_docs)
    save_corpus(held_corpus, held_docs)
    save_model(base, model)

    split = SplitSpec(ratios=(2.0, 1.0, 1.0), seed=train_seed)
    n_fit = len(split_dataset(train_docs, split)[0])
    run_dir = work / "train-run"
    train_argv = [
        "train", "--corpus", train_corpus, "--out", str(run_dir), "--split", "2:1:1",
        "--epochs", str(epochs), "--lr", "0.5", "--ngram-order", "2", "--feature-mode", "word",
        "--hash-buckets", str(HASH_BUCKETS), "--seed", str(train_seed), *FILTER_FLAGS,
    ]  # fmt: skip

    def check_train(out: bytes) -> list[str]:
        copy = work / "checked-model.json"
        copy.write_bytes(out)
        return checks.check_train(str(copy), 2, HASH_BUCKETS)

    train = Verb("train", train_argv, n_fit * epochs, None, str(run_dir / "model.json"), check_train)
    verbs = [train, *_text_verbs(work, seed, held_corpus, model, len(held_docs))]
    return Workload(verbs, _text_quality(held_corpus))


SIM_N = (10, 40)
SIM_ALPHA = (0.0, 0.3)


def sim_grid(work: Path, seed: int, size: dict) -> Workload:
    """A 4-point simulate grid: exact (n=10) and mixture (n=40) LR modes, alpha 0 and 0.3."""
    trials = size["trials"]
    sim_seed = _rng("sim-grid", seed).randrange(2**31)
    out = str(work / "grid.csv")
    argv = [
        "simulate", "--world", "categorical", "--delta", "0.5",
        "--n", ",".join(map(str, SIM_N)), "--alpha", ",".join(map(repr, SIM_ALPHA)),
        "--trials", str(trials), "--jobs", "1", "--seed", str(sim_seed), "--out", out,
    ]  # fmt: skip
    grid = [(n, a) for n in SIM_N for a in SIM_ALPHA]
    verb = Verb("simulate", argv, len(grid) * trials * 2, None, out, lambda b: checks.check_simulate(b, grid, trials))

    def quality(outputs: dict[str, bytes]) -> dict[str, float]:
        rows = outputs["simulate"].decode("utf-8").splitlines()
        col = rows[0].split(",").index("auroc")
        return {"auroc": sum(float(r.split(",")[col]) for r in rows[1:]) / (len(rows) - 1)}

    return Workload([verb], quality)


class _InProcessScorer:
    """The adapter script's scoring function behind the detector contract."""

    def score(self, text: str) -> float:
        return scorer.score(text)


def adapter(work: Path, seed: int, size: dict) -> Workload:
    """detect --adapter over default-shape documents, one launch per call."""
    spec = SynthSpec(n_docs=size["docs"], seed=_rng("adapter", seed).randrange(2**31))
    corpus, out = str(work / "corpus.jsonl"), str(work / "detect.jsonl")
    save_corpus(corpus, synth_corpus(spec))
    # The scorer needs only the standard library, so -S skips the site import
    # and a launch costs a bare interpreter start.
    command = shlex.join([sys.executable, "-S", str(SCORER)])
    verb = Verb(
        "stacked",
        _detect(corpus, out, seed, adapter=command),
        spec.n_docs,
        None,
        out,
        lambda b: checks.check_detect(b, corpus, _InProcessScorer(), FILTER),
    )

    def quality(outputs: dict[str, bytes]) -> dict[str, float]:
        stacked = _stacked_auroc(outputs["stacked"], corpus)
        return {"auroc": stacked, "stacked_auroc": stacked}

    return Workload([verb], quality)


_BY_NAME = {"long-lm": long_lm, "mixed-logreg": mixed_logreg, "sim-grid": sim_grid, "adapter": adapter}


def build(name: str, work: Path, seed: int, tiny: bool = False) -> Workload:
    full, small = SIZES[name]
    return _BY_NAME[name](work, seed, small if tiny else full)
