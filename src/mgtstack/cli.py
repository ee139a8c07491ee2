"""Command line interface.

Verbs:

* ``train``     fit the hashed logistic detector with the filtered
                retraining loop and write model + trace + validation report
* ``detect``    stacked detection over a JSONL corpus, streaming JSONL out
* ``eval``      score a labeled corpus and write a metrics report
* ``simulate``  run the synthetic-world experiment grid and write CSV
* ``overlap``   report the consistent-sentence proportion between corpora
* ``bench``     time base vs stacked detection on a corpus

Exit codes: 0 success, 2 configuration error, 3 data/format error,
4 numerical failure, 5 external adapter protocol violation.

Primary outputs (model files, score streams, reports, CSV) are
byte-for-byte reproducible for a fixed configuration and seed.  Timing
fields (epoch wall seconds, bench seconds) are the documented exception.
"""

from __future__ import annotations

import argparse
import json
import logging
import shlex
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

from .config import load_config_file
from .corpus import CorpusFormatError, load_corpus
from .detectors import (
    ExternalDetector,
    NGramLogRegModel,
    TrainConfig,
    load_model,
    save_model,
    score_batch,
)
from .errors import (
    AdapterProtocolError,
    DegenerateDataset,
    EmptyDocument,
    EmptyRetention,
    InvalidConfig,
    InvalidFilterSpec,
    ModelFormatError,
    NumericalError,
    UnsupportedCombination,
)
from .evaluation import (
    SplitSpec,
    consistent_sentence_proportion,
    evaluate_scores,
    require_labels,
    split_dataset,
)
from .retention import FilterConfig
from .segmentation import load_abbreviations
from .stacked import score_corpus, train_hard_em
from .theory import (
    MixSpec,
    SimConfig,
    categorical_world,
    gaussian_world,
    run_experiment,
    write_rows_csv,
)

logger = logging.getLogger("mgtstack.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_ADAPTER = 5


# ---------------------------------------------------------------------------
# option plumbing


def _resolve(args: argparse.Namespace, cfg: dict, dest: str, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, dest, None)
    if value is None:
        value = cfg.get(dest, default)
    return value


def _require(args: argparse.Namespace, cfg: dict, dest: str, flag: str):
    value = _resolve(args, cfg, dest)
    if value is None:
        raise InvalidConfig(f"missing required option {flag}")
    return value


def _as_float(value, flag: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{flag} expects a number, got {value!r}") from None


def _as_int(value, flag: str) -> int:
    try:
        out = int(str(value), 10)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{flag} expects an integer, got {value!r}") from None
    return out


def _grid(value, flag: str, conv) -> tuple:
    """Parse a comma-separated grid value ('5,10,20') into a tuple."""
    if value is None:
        return ()
    if isinstance(value, bool):
        raise InvalidConfig(f"{flag} expects numbers, got {value!r}")
    if isinstance(value, (int, float)):
        return (conv(value),)
    parts = [p.strip() for p in str(value).split(",")]
    parts = [p for p in parts if p]
    if not parts:
        raise InvalidConfig(f"{flag} expects at least one value")
    try:
        return tuple(conv(p) for p in parts)
    except ValueError:
        raise InvalidConfig(f"{flag} could not parse {value!r}") from None


def _filter_config(args, cfg) -> FilterConfig:
    return FilterConfig(
        r_e=_as_float(_resolve(args, cfg, "re", 0.01), "--re"),
        tau=_as_float(_resolve(args, cfg, "tau", 0.25), "--tau"),
        k=_as_int(_resolve(args, cfg, "k", 3), "--k"),
    )


def _load_docs(args, cfg, path):
    """Load a corpus, splitting sentences with the --abbreviations list."""
    return load_corpus(str(path), abbreviations=load_abbreviations(_resolve(args, cfg, "abbreviations")))


def _load_base(args, cfg):
    """Build the base detector from --model or --adapter."""
    model_path = _resolve(args, cfg, "model")
    adapter = _resolve(args, cfg, "adapter")
    if model_path and adapter:
        raise InvalidConfig("--model and --adapter are mutually exclusive")
    if adapter:
        timeout = _as_float(_resolve(args, cfg, "adapter_timeout", 30.0), "--adapter-timeout")
        return ExternalDetector(tuple(shlex.split(str(adapter))), timeout=timeout)
    if model_path:
        return load_model(str(model_path))
    raise InvalidConfig("missing required option --model (or --adapter)")


def _stacked_report(base, fc, docs, seed):
    """Metrics report of the two-pass engine over labeled documents."""
    labels = require_labels(docs)
    return evaluate_scores([r.score for r in score_corpus(base, docs, fc)], labels, seed=seed)


def _write_text(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(payload: dict, out_path) -> None:
    _write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


# ---------------------------------------------------------------------------
# verbs


def _cmd_train(args, cfg) -> int:
    corpus_path = _require(args, cfg, "corpus", "--corpus")
    out_dir = _require(args, cfg, "out", "--out")
    seed = _as_int(_resolve(args, cfg, "seed", 0), "--seed")
    fc = _filter_config(args, cfg)
    tc = TrainConfig(
        epochs=_as_int(_resolve(args, cfg, "epochs", 5), "--epochs"),
        lr=_as_float(_resolve(args, cfg, "lr", 0.1), "--lr"),
        batch_size=_as_int(_resolve(args, cfg, "batch_size", 32), "--batch-size"),
        r_e=fc.r_e,
        tau=fc.tau,
        k=fc.k,
        seed=seed,
    )
    docs = _load_docs(args, cfg, corpus_path)
    unlabeled = [d.id for d in docs if d.label is None]
    if unlabeled:
        raise DegenerateDataset(f"training corpus has unlabeled documents (first: {unlabeled[0]!r})")

    ratios_raw = str(_resolve(args, cfg, "split", "2:1:1"))
    try:
        ratios = tuple(float(p) for p in ratios_raw.split(":"))
    except ValueError:
        raise InvalidConfig(f"--split expects 'a:b:c', got {ratios_raw!r}") from None
    train_docs, val_docs, test_docs = split_dataset(docs, SplitSpec(ratios=ratios, seed=seed))

    base = NGramLogRegModel.new(
        n=_as_int(_resolve(args, cfg, "ngram_order", 1), "--ngram-order"),
        feature_mode=str(_resolve(args, cfg, "feature_mode", "word")),
        hash_buckets=_as_int(_resolve(args, cfg, "hash_buckets", 2**18), "--hash-buckets"),
    )
    pairs = [(doc, doc.label) for doc in train_docs]
    model, trace = train_hard_em(base, pairs, tc)

    import os

    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.json")
    save_model(model, model_path)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    epochs = "".join(json.dumps(asdict(rec), sort_keys=True) + "\n" for rec in trace.epochs)
    _write_text(epochs, trace_path)

    report = _stacked_report(model, fc, val_docs, seed)
    report_path = os.path.join(out_dir, "eval_val.json")
    _write_text(report.to_json(), report_path)

    logger.info("train: %d/%d/%d split, %d epochs", len(train_docs), len(val_docs), len(test_docs), tc.epochs)
    sys.stdout.write(
        json.dumps(
            {"model": model_path, "trace": trace_path, "val_report": report_path, "val_auroc": report.auroc},
            sort_keys=True,
        )
        + "\n"
    )
    return EXIT_OK


def _detect_rows(base, fc, docs):
    return [
        {"id": doc.id, "score": res.score, "n_groups": res.n_groups, "n_filtered": res.n_filtered}
        for doc, res in zip(docs, score_corpus(base, docs, fc))
    ]


_WORKER = None


def _detect_init(base, fc):
    """Initializer for detect worker processes: keep the built detector."""
    global _WORKER
    _WORKER = (base, fc)


def _detect_chunk(docs):
    return _detect_rows(*_WORKER, docs)


def _cmd_detect(args, cfg) -> int:
    corpus_path = _require(args, cfg, "corpus", "--corpus")
    fc = _filter_config(args, cfg)
    jobs = _as_int(_resolve(args, cfg, "jobs", 1), "--jobs")
    docs = _load_docs(args, cfg, corpus_path)
    base = _load_base(args, cfg)

    if jobs > 1 and len(docs) > 1:
        n_chunks = min(len(docs), jobs * 4)
        step = -(-len(docs) // n_chunks)
        chunks = [docs[i : i + step] for i in range(0, len(docs), step)]
        with ProcessPoolExecutor(max_workers=jobs, initializer=_detect_init, initargs=(base, fc)) as pool:
            chunk_rows = list(pool.map(_detect_chunk, chunks))
        rows = [row for rows_ in chunk_rows for row in rows_]
    else:
        rows = _detect_rows(base, fc, docs)

    lines = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    _write_text(lines, _resolve(args, cfg, "out"))
    return EXIT_OK


def _cmd_eval(args, cfg) -> int:
    corpus_path = _require(args, cfg, "corpus", "--corpus")
    base = _load_base(args, cfg)
    seed = _as_int(_resolve(args, cfg, "seed", 0), "--seed")
    docs = _load_docs(args, cfg, corpus_path)
    if _resolve(args, cfg, "stacked", False):
        report = _stacked_report(base, _filter_config(args, cfg), docs, seed)
    else:
        labels = require_labels(docs)
        report = evaluate_scores(score_batch(base, [d.text for d in docs]), labels, seed=seed)
    _write_text(report.to_json(), _resolve(args, cfg, "out"))
    return EXIT_OK


def _cmd_simulate(args, cfg) -> int:
    out_path = _require(args, cfg, "out", "--out")
    seed = _as_int(_resolve(args, cfg, "seed", 0), "--seed")
    jobs = _as_int(_resolve(args, cfg, "jobs", 1), "--jobs")
    world_kind = str(_resolve(args, cfg, "world", "categorical"))

    deltas = _grid(_resolve(args, cfg, "delta", "0.5"), "--delta", float)
    ns = _grid(_resolve(args, cfg, "n", "20"), "--n", int)
    alphas = _grid(_resolve(args, cfg, "alpha", "0.0"), "--alpha", float)
    alpha_ss = _grid(_resolve(args, cfg, "alpha_s", "0.0"), "--alpha-s", float)
    alpha_hs = _grid(_resolve(args, cfg, "alpha_h", "0.0"), "--alpha-h", float)
    rhos = _grid(_resolve(args, cfg, "rho", "0.0"), "--rho", float)
    trials = _grid(_resolve(args, cfg, "trials", "2000"), "--trials", int)

    if world_kind == "categorical":
        world = categorical_world(deltas[0])
    elif world_kind == "gaussian":
        dim = _as_int(_resolve(args, cfg, "dim", 2), "--dim")
        world = gaussian_world(deltas[0], dim=dim)
    else:
        raise InvalidConfig(f"--world must be 'categorical' or 'gaussian', got {world_kind!r}")

    base_cfg = SimConfig(
        world=world,
        mix=MixSpec(n=ns[0], alpha=alphas[0], rho=rhos[0]),
        trials=trials[0],
        seed=seed,
    )
    sweep = {
        "delta": deltas,
        "n": ns,
        "alpha": alphas,
        "alpha_s": alpha_ss,
        "alpha_h": alpha_hs,
        "rho": rhos,
        "trials": trials,
    }
    rows = run_experiment(base_cfg, sweep=sweep, jobs=jobs)
    write_rows_csv(rows, str(out_path))
    logger.info("simulate: wrote %d rows to %s", len(rows), out_path)
    return EXIT_OK


def _cmd_overlap(args, cfg) -> int:
    human_path = _require(args, cfg, "human", "--human")
    machine_path = _require(args, cfg, "machine", "--machine")
    human_docs = _load_docs(args, cfg, human_path)
    machine_docs = _load_docs(args, cfg, machine_path)
    proportion = consistent_sentence_proportion(human_docs, machine_docs)
    n_machine = sum(doc.n_sentences for doc in machine_docs)
    _write_json(
        {
            "consistent_sentence_proportion": proportion,
            "n_human_docs": len(human_docs),
            "n_machine_docs": len(machine_docs),
            "n_machine_sentences": n_machine,
        },
        _resolve(args, cfg, "out"),
    )
    return EXIT_OK


def _cmd_bench(args, cfg) -> int:
    corpus_path = _require(args, cfg, "corpus", "--corpus")
    base = _load_base(args, cfg)
    fc = _filter_config(args, cfg)
    repeats = _as_int(_resolve(args, cfg, "repeats", 3), "--repeats")
    if repeats < 1:
        raise InvalidConfig("--repeats must be >= 1")
    docs = _load_docs(args, cfg, corpus_path)
    if not docs:
        raise DegenerateDataset("bench corpus is empty")

    def timed(run) -> float:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    # Alternate the two arms so clock-speed drift hits both equally, then
    # take the best of each; a sequential block per arm would let a slow
    # stretch land entirely on one side and skew the ratio.
    base_times, stacked_times = [], []
    for _ in range(repeats):
        base_times.append(timed(lambda: score_batch(base, [doc.text for doc in docs])))
        stacked_times.append(timed(lambda: score_corpus(base, docs, fc)))
    base_s = min(base_times)
    stacked_s = min(stacked_times)
    _write_json(
        {
            "base_seconds": base_s,
            "stacked_seconds": stacked_s,
            "ratio": stacked_s / base_s,
            "n_docs": len(docs),
            "repeats": repeats,
        },
        _resolve(args, cfg, "out"),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file; flags override it")
    sub.add_argument("--seed", type=int, help="master seed (default 0)")
    sub.add_argument("--log-level", dest="log_level", help="debug, info, warning, or error")
    sub.add_argument("--abbreviations", help="custom abbreviation list for sentence splitting")


def _add_filter_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--re", dest="re", type=float, help="evidence threshold r_e (default 0.01)")
    sub.add_argument("--tau", type=float, help="filtered fraction cap tau (default 0.25)")
    sub.add_argument("--k", type=int, help="sentences per group (default 3)")


def _add_training_free_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--training-free",
        dest="training_free",
        action="store_const",
        const=True,
        help="accepted for compatibility; no effect, stacking never retrains",
    )


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", help="path to a saved model file")
    sub.add_argument("--adapter", help="external detector command line")
    sub.add_argument(
        "--adapter-timeout", dest="adapter_timeout", type=float, help="adapter call timeout in seconds"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mgtstack", description="Stacked machine-text detection toolkit.")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("train", help="fit the hashed logistic detector with filtered retraining")
    p.add_argument("--corpus", help="labeled JSONL corpus")
    p.add_argument("--out", help="output directory for model, trace, and validation report")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--split", help="train:val:test ratios (default 2:1:1)")
    p.add_argument("--ngram-order", dest="ngram_order", type=int)
    p.add_argument("--feature-mode", dest="feature_mode", choices=("word", "char"))
    p.add_argument("--hash-buckets", dest="hash_buckets", type=int)
    _add_filter_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("detect", help="stacked detection over a JSONL corpus")
    p.add_argument("--corpus", help="JSONL corpus to score")
    p.add_argument("--out", help="output JSONL path (default stdout)")
    p.add_argument("--jobs", type=int, help="worker processes (default 1)")
    _add_training_free_flag(p)
    _add_model_flags(p)
    _add_filter_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = subs.add_parser("eval", help="score a labeled corpus and write a metrics report")
    p.add_argument("--corpus", help="labeled JSONL corpus")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--stacked", action="store_const", const=True, help="evaluate the stacked wrapper")
    _add_training_free_flag(p)
    _add_model_flags(p)
    _add_filter_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("simulate", help="synthetic-world experiment grid")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--world", choices=("categorical", "gaussian"))
    p.add_argument("--dim", type=int, help="gaussian world dimension (default 2)")
    p.add_argument("--delta", help="comma-separated separation grid (default 0.5)")
    p.add_argument("--n", help="comma-separated sentence counts (default 20)")
    p.add_argument("--alpha", help="comma-separated injection fractions (default 0)")
    p.add_argument("--alpha-s", dest="alpha_s", help="comma-separated suspicion removal fractions")
    p.add_argument("--alpha-h", dest="alpha_h", help="comma-separated mistaken removal fractions")
    p.add_argument("--rho", help="comma-separated dependence strengths (default 0)")
    p.add_argument("--trials", help="comma-separated trial counts (default 2000)")
    p.add_argument("--jobs", type=int, help="worker processes over grid points (default 1)")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("overlap", help="consistent-sentence proportion between corpora")
    p.add_argument("--human", help="human JSONL corpus")
    p.add_argument("--machine", help="machine JSONL corpus")
    p.add_argument("--out", help="output JSON path (default stdout)")
    _add_common(p)
    p.set_defaults(func=_cmd_overlap)

    p = subs.add_parser("bench", help="time base vs stacked detection")
    p.add_argument("--corpus", help="JSONL corpus to score")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--repeats", type=int, help="timing repeats, best-of (default 3)")
    _add_model_flags(p)
    _add_filter_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    return parser


class _JsonFormatter(logging.Formatter):
    """One JSON object per log line."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps({"level": record.levelname, "logger": record.name, "event": record.getMessage()})


def _setup_logging(level_name: str) -> None:
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        raise InvalidConfig(f"--log-level must be debug/info/warning/error, got {level_name!r}")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonFormatter())
    root = logging.getLogger("mgtstack")
    root.handlers[:] = [handler]
    root.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        cfg = {}
        config_path = getattr(args, "config", None)
        if config_path:
            cfg = load_config_file(config_path)
        _setup_logging(str(_resolve(args, cfg, "log_level", "warning")))
        return args.func(args, cfg)
    except CorpusFormatError as exc:
        logger.error("corpus error: %s", exc)
        sys.stderr.write(f"mgtstack: corpus error: {exc}\n")
        return EXIT_DATA
    except (UnsupportedCombination, InvalidConfig) as exc:
        sys.stderr.write(f"mgtstack: configuration error: {exc}\n")
        return EXIT_CONFIG
    except (ModelFormatError, DegenerateDataset, EmptyDocument, EmptyRetention, InvalidFilterSpec) as exc:
        sys.stderr.write(f"mgtstack: data error: {exc}\n")
        return EXIT_DATA
    except NumericalError as exc:
        sys.stderr.write(f"mgtstack: numerical error: {exc}\n")
        return EXIT_NUMERIC
    except AdapterProtocolError as exc:
        sys.stderr.write(f"mgtstack: adapter error: {exc}\n")
        return EXIT_ADAPTER
    except OSError as exc:
        sys.stderr.write(f"mgtstack: file error: {exc}\n")
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
