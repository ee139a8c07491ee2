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

BENCH_CHUNK_DOCS = 50  # documents per timed chunk of each bench arm


# ---------------------------------------------------------------------------
# option plumbing


def _grid(conv, sep: str = ","):
    """argparse type: a separated list such as '5,10,20', as a tuple."""

    def parse(value: str) -> tuple:
        parts = [p.strip() for p in value.split(sep) if p.strip()]
        if not parts:
            raise ValueError(value)
        return tuple(conv(p) for p in parts)

    parse.__name__ = f"{sep!r}-separated {conv.__name__}"  # argparse's error message names it
    return parse


def _positive_int(value: str) -> int:
    """argparse type: an integer >= 1."""
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value!r}")
    return count


def _filter_config(args) -> FilterConfig:
    return FilterConfig(r_e=args.re, tau=args.tau, k=args.k)


def _load_docs(args, path):
    """Load a corpus whose documents split with the --abbreviations list when a
    verb first reads their sentences; ``eval`` without --stacked never does."""
    return load_corpus(path, abbreviations=load_abbreviations(args.abbreviations))


def _load_base(args):
    """Build the base detector from --model or --adapter."""
    if args.model and args.adapter:
        raise InvalidConfig("--model and --adapter are mutually exclusive")
    if args.adapter:
        return ExternalDetector(tuple(args.adapter), timeout=args.adapter_timeout)
    if args.model:
        return load_model(args.model)
    raise InvalidConfig("missing required option --model (or --adapter)")


def _stacked_report(base, fc, docs, seed):
    """Metrics report of the two-pass engine over labeled documents, and its scores."""
    labels = require_labels(docs)
    scores = [r.score for r in score_corpus(base, docs, fc)]
    return evaluate_scores(scores, labels, seed=seed), scores


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


def _cmd_train(args) -> int:
    fc = _filter_config(args)
    tc = TrainConfig(
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch_size,
        r_e=fc.r_e,
        tau=fc.tau,
        k=fc.k,
        seed=args.seed,
    )
    docs = _load_docs(args, args.corpus)
    require_labels(docs)
    train_docs, val_docs, test_docs = split_dataset(docs, SplitSpec(ratios=args.split, seed=args.seed))
    if len({doc.label for doc in val_docs}) < 2:
        raise DegenerateDataset("the validation split of --split needs documents of both classes")

    base = NGramLogRegModel.new(
        n=args.ngram_order, feature_mode=args.feature_mode, hash_buckets=args.hash_buckets
    )
    pairs = [(doc, doc.label) for doc in train_docs]
    model, trace = train_hard_em(base, pairs, tc)

    import os

    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.json")
    save_model(model, model_path)
    trace_path = os.path.join(args.out, "trace.jsonl")
    epochs = "".join(json.dumps(asdict(rec), sort_keys=True) + "\n" for rec in trace.epochs)
    _write_text(epochs, trace_path)

    report, scores = _stacked_report(model, fc, val_docs, args.seed)
    pinned = sum(score in (0.0, 1.0) for score in scores)
    if 2 * pinned > len(scores):  # pass-1 scores pinned at 0 or 1 leave the filter nothing to rank
        logger.warning("train: %d of %d validation scores are exactly 0 or 1; try a smaller --lr", pinned, len(scores))
    report_path = os.path.join(args.out, "eval_val.json")
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


def _cmd_detect(args) -> int:
    fc = _filter_config(args)
    docs = _load_docs(args, args.corpus)
    base = _load_base(args)

    if args.jobs > 1 and len(docs) > 1:
        import concurrent.futures

        n_chunks = min(len(docs), args.jobs * 4)
        step = -(-len(docs) // n_chunks)
        chunks = [docs[i : i + step] for i in range(0, len(docs), step)]
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs, initializer=_detect_init, initargs=(base, fc))
        with pool:
            chunk_rows = list(pool.map(_detect_chunk, chunks))
        rows = [row for rows_ in chunk_rows for row in rows_]
    else:
        rows = _detect_rows(base, fc, docs)

    lines = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    _write_text(lines, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    base = _load_base(args)
    docs = _load_docs(args, args.corpus)
    if args.stacked:
        report = _stacked_report(base, _filter_config(args), docs, args.seed)[0]
    else:
        labels = require_labels(docs)
        report = evaluate_scores(score_batch(base, [d.text for d in docs]), labels, seed=args.seed)
    _write_text(report.to_json(), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.world == "categorical":
        world = categorical_world(args.delta[0])
    else:
        world = gaussian_world(args.delta[0], dim=args.dim)
    base_cfg = SimConfig(
        world=world,
        mix=MixSpec(n=args.n[0], alpha=args.alpha[0], rho=args.rho[0]),
        trials=args.trials[0],
        seed=args.seed,
    )
    swept = ("delta", "n", "alpha", "alpha_s", "alpha_h", "rho", "trials")
    rows = run_experiment(base_cfg, sweep={key: getattr(args, key) for key in swept}, jobs=args.jobs)
    write_rows_csv(rows, args.out)
    logger.info("simulate: wrote %d rows to %s", len(rows), args.out)
    return EXIT_OK


def _cmd_overlap(args) -> int:
    human_docs = _load_docs(args, args.human)
    machine_docs = _load_docs(args, args.machine)
    proportion = consistent_sentence_proportion(human_docs, machine_docs)
    n_machine = sum(doc.n_sentences for doc in machine_docs)
    _write_json(
        {
            "consistent_sentence_proportion": proportion,
            "n_human_docs": len(human_docs),
            "n_machine_docs": len(machine_docs),
            "n_machine_sentences": n_machine,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    base = _load_base(args)
    fc = _filter_config(args)
    docs = _load_docs(args, args.corpus)
    if not docs:
        raise DegenerateDataset("bench corpus is empty")

    def timed(run) -> float:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    # Alternate the two arms chunk by chunk and sum each arm over the chunks,
    # so clock-speed drift hits both within tens of milliseconds; timing
    # whole-corpus runs would let a slow stretch land on one arm and skew
    # the ratio.  Each repeat covers the corpus; report the best of each arm.
    # Read every document's spans before timing: splitting prepares the
    # corpus, so neither arm pays for it and the ratio prices the two passes.
    for doc in docs:
        doc.n_sentences
    chunks = [docs[i : i + BENCH_CHUNK_DOCS] for i in range(0, len(docs), BENCH_CHUNK_DOCS)]
    base_times, stacked_times = [], []
    for _ in range(args.repeats):
        base_times.append(0.0)
        stacked_times.append(0.0)
        for chunk in chunks:
            base_times[-1] += timed(lambda: score_batch(base, [doc.text for doc in chunk]))
            stacked_times[-1] += timed(lambda: score_corpus(base, chunk, fc))
    base_s = min(base_times)
    stacked_s = min(stacked_times)
    _write_json(
        {
            "base_seconds": base_s,
            "stacked_seconds": stacked_s,
            "ratio": stacked_s / base_s,
            "n_docs": len(docs),
            "repeats": args.repeats,
        },
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file; flags override it")
    sub.add_argument(
        "--log-level",
        type=str.lower,
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="log level (default %(default)s)",
    )


def _add_seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")


def _add_abbreviations_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--abbreviations", help="custom abbreviation list for sentence splitting")


def _add_filter_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--re", type=float, default=FilterConfig.r_e, help="evidence threshold r_e (default %(default)s)"
    )
    sub.add_argument(
        "--tau", type=float, default=FilterConfig.tau, help="filtered fraction cap tau (default %(default)s)"
    )
    sub.add_argument(
        "--k", type=int, default=FilterConfig.k, help="sentences per group (default %(default)s)"
    )


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", help="path to a saved model file")
    sub.add_argument("--adapter", type=shlex.split, help="external detector command line")
    sub.add_argument(
        "--adapter-timeout",
        type=float,
        default=30.0,
        help="seconds each adapter process may run after its texts are sent (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mgtstack", description="Stacked machine-text detection toolkit.")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser(
        "train", allow_abbrev=False, help="fit the hashed logistic detector with filtered retraining"
    )
    p.add_argument("--corpus", required=True, help="labeled JSONL corpus")
    p.add_argument("--out", required=True, help="output directory for model, trace, and validation report")
    p.add_argument(
        "--epochs", type=int, default=TrainConfig.epochs, help="training epochs (default %(default)s)"
    )
    p.add_argument("--lr", type=float, default=TrainConfig.lr, help="learning rate (default %(default)s)")
    p.add_argument(
        "--batch-size", type=int, default=TrainConfig.batch_size, help="batch size (default %(default)s)"
    )
    p.add_argument(
        "--split", type=_grid(float, ":"), default="2:1:1", help="train:val:test ratios (default %(default)s)"
    )
    p.add_argument("--ngram-order", type=int, default=1, help="n-gram order (default %(default)s)")
    p.add_argument(
        "--feature-mode", choices=("word", "char"), default="word", help="n-gram units (default %(default)s)"
    )
    p.add_argument(
        "--hash-buckets", type=int, default=2**18, help="hashed feature count (default %(default)s)"
    )
    _add_filter_flags(p)
    _add_common(p)
    _add_seed_flag(p)
    _add_abbreviations_flag(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("detect", allow_abbrev=False, help="stacked detection over a JSONL corpus")
    p.add_argument("--corpus", required=True, help="JSONL corpus to score")
    p.add_argument("--out", help="output JSONL path (default stdout)")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (default %(default)s)")
    p.add_argument("--training-free", action="store_true", help="accepted for compatibility; no effect")
    _add_model_flags(p)
    _add_filter_flags(p)
    _add_common(p)
    p.add_argument("--seed", type=int, help="accepted for compatibility; no effect, detection is not random")
    _add_abbreviations_flag(p)
    p.set_defaults(func=_cmd_detect)

    p = subs.add_parser("eval", allow_abbrev=False, help="score a labeled corpus and write a metrics report")
    p.add_argument("--corpus", required=True, help="labeled JSONL corpus")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--stacked", action="store_true", help="evaluate the stacked wrapper")
    _add_model_flags(p)
    _add_filter_flags(p)
    _add_common(p)
    _add_seed_flag(p)
    _add_abbreviations_flag(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser(
        "simulate",
        allow_abbrev=False,
        help="synthetic-world experiment grid",
        description="Grid options take comma-separated values; every combination is run.",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--world",
        choices=("categorical", "gaussian"),
        default="categorical",
        help="world kind (default %(default)s)",
    )
    p.add_argument("--dim", type=int, default=2, help="gaussian world dimension (default %(default)s)")
    p.add_argument("--delta", type=_grid(float), default="0.5", help="separation grid (default %(default)s)")
    p.add_argument("--n", type=_grid(int), default="20", help="sentence counts (default %(default)s)")
    p.add_argument(
        "--alpha", type=_grid(float), default="0.0", help="injection fractions (default %(default)s)"
    )
    p.add_argument(
        "--alpha-s",
        type=_grid(float),
        default="0.0",
        help="suspicion removal fractions (default %(default)s)",
    )
    p.add_argument(
        "--alpha-h", type=_grid(float), default="0.0", help="mistaken removal fractions (default %(default)s)"
    )
    p.add_argument(
        "--rho", type=_grid(float), default="0.0", help="dependence strengths (default %(default)s)"
    )
    p.add_argument("--trials", type=_grid(int), default="2000", help="trial counts (default %(default)s)")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (default %(default)s)")
    _add_common(p)
    _add_seed_flag(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("overlap", allow_abbrev=False, help="consistent-sentence proportion between corpora")
    p.add_argument("--human", required=True, help="human JSONL corpus")
    p.add_argument("--machine", required=True, help="machine JSONL corpus")
    p.add_argument("--out", help="output JSON path (default stdout)")
    _add_common(p)
    _add_abbreviations_flag(p)
    p.set_defaults(func=_cmd_overlap)

    p = subs.add_parser("bench", allow_abbrev=False, help="time base vs stacked detection")
    p.add_argument("--corpus", required=True, help="JSONL corpus to score")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument(
        "--repeats", type=_positive_int, default=3, help="timing repeats, best-of (default %(default)s)"
    )
    _add_model_flags(p)
    _add_filter_flags(p)
    _add_common(p)
    _add_abbreviations_flag(p)
    p.set_defaults(func=_cmd_bench)

    return parser


class _JsonFormatter(logging.Formatter):
    """One JSON object per log line."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps({"level": record.levelname, "logger": record.name, "event": record.getMessage()})


def _setup_logging(level_name: str) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonFormatter())
    root = logging.getLogger("mgtstack")
    root.handlers[:] = [handler]
    root.setLevel(level_name.upper())


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Insert the --config file's pairs as flags right after the verb, so that
    the command line's own flags, parsed later, override them.  A switch reads
    true or false; any other flag gets the word, for its type to accept or not."""
    pre = argparse.ArgumentParser(prog="mgtstack", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return argv
    verb = parser._subparsers._group_actions[0].choices.get(argv[0], pre)  # pre: a non-verb has no switches
    switches = {flag for action in verb._actions if action.nargs == 0 for flag in action.option_strings}
    flags = []
    for key, value in load_config_file(path).items():
        if key == "config":
            raise InvalidConfig(f"config file {path!r} may not set 'config'")
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool) and flag in switches:
            flags += [flag] if value else []
        else:
            flags.append(f"{flag}={str(value).lower() if isinstance(value, bool) else value}")
    return [argv[0], *flags, *argv[1:]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_with_config(parser, argv))
        _setup_logging(args.log_level)
        return args.func(args)
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    except CorpusFormatError as exc:
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
