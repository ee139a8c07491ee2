"""End-to-end command line tests.

Every test drives ``cli.main(argv)`` in process so exit codes, stdout, and
stderr are all observable without spawning an interpreter.  A small synthetic
corpus and one trained model are shared module-wide to keep the suite quick.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from mgtstack import (
    NGramLMDetector,
    NGramLogRegModel,
    SynthSpec,
    TrainTrace,
    load_corpus,
    save_corpus,
    save_model,
    synth_corpus,
)
from mgtstack import cli, theory
from mgtstack.cli import main


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    docs = synth_corpus(SynthSpec(n_docs=40, seed=11, sentences_per_doc=(6, 8)))
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    save_corpus(str(path), docs)
    return str(path)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    """Train once; later tests reuse the saved model file."""
    out_dir = tmp_path_factory.mktemp("trained")
    code = main(
        [
            "train",
            "--corpus", corpus_path,
            "--out", str(out_dir),
            "--epochs", "3",
            "--lr", "0.5",
            "--batch-size", "16",
            "--hash-buckets", "4096",
            "--seed", "7",
        ]
    )
    assert code == 0
    return str(out_dir / "model.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parser basics


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "train" in out and "simulate" in out


def test_unknown_verb_is_config_error(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 2
    assert "invalid choice" in err


def test_missing_required_flag_names_it(capsys, model_path):
    code, _, err = run(capsys, ["detect", "--model", model_path])
    assert code == 2
    assert "--corpus" in err


def test_bad_log_level(capsys, corpus_path, model_path):
    code, _, err = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--model", model_path, "--log-level", "loud"],
    )
    assert code == 2
    assert "log-level" in err


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(capsys, corpus_path, model_path, tmp_path):
    out_dir = os.path.dirname(model_path)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    report_path = os.path.join(out_dir, "eval_val.json")
    assert os.path.exists(model_path)
    assert os.path.exists(trace_path)
    assert os.path.exists(report_path)

    with open(trace_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [rec["epoch"] for rec in records] == [0, 1, 2]
    for rec in records:
        assert set(rec) == {"epoch", "mean_q", "filtered_fraction", "wall_seconds"}
        assert 0.0 <= rec["filtered_fraction"] <= 1.0

    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert 0.0 <= report["auroc"] <= 1.0


def test_train_stdout_summary(capsys, corpus_path, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "train",
            "--corpus", corpus_path,
            "--out", str(tmp_path / "run"),
            "--epochs", "1",
            "--hash-buckets", "1024",
        ],
    )
    assert code == 0
    summary = json.loads(out)
    assert set(summary) == {"model", "trace", "val_report", "val_auroc"}
    assert os.path.exists(summary["model"])


def test_train_rejects_unlabeled_corpus(capsys, tmp_path):
    docs = synth_corpus(SynthSpec(n_docs=8, seed=3, sentences_per_doc=(3, 4)))
    stripped = [dataclasses.replace(doc, label=None) for doc in docs]
    path = tmp_path / "unlabeled.jsonl"
    save_corpus(str(path), stripped)
    code, _, err = run(capsys, ["train", "--corpus", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "unlabeled" in err


def test_train_checks_validation_split_before_training(capsys, corpus_path, tmp_path):
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, ["train", "--corpus", corpus_path, "--out", str(out_dir), "--split", "1:0:0"])
    assert code == 3
    assert "validation split" in err
    assert not out_dir.exists()


def test_train_bad_split_spec(capsys, corpus_path, tmp_path):
    code, _, err = run(
        capsys,
        ["train", "--corpus", corpus_path, "--out", str(tmp_path / "o"), "--split", "lots"],
    )
    assert code == 2
    assert "--split" in err


# ---------------------------------------------------------------------------
# detect


def test_detect_streams_rows_in_corpus_order(capsys, corpus_path, model_path):
    code, out, _ = run(capsys, ["detect", "--corpus", corpus_path, "--model", model_path])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 40
    with open(corpus_path, encoding="utf-8") as fh:
        expected_ids = [json.loads(line)["id"] for line in fh]
    assert [row["id"] for row in rows] == expected_ids
    for row in rows:
        assert set(row) == {"id", "score", "n_groups", "n_filtered"}
        assert 0.0 <= row["score"] <= 1.0
        assert 0 <= row["n_filtered"] <= row["n_groups"]


def test_detect_out_file_matches_stdout(capsys, corpus_path, model_path, tmp_path):
    code, out, _ = run(capsys, ["detect", "--corpus", corpus_path, "--model", model_path])
    assert code == 0
    out_path = tmp_path / "rows.jsonl"
    code2, out2, _ = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--model", model_path, "--out", str(out_path)],
    )
    assert code2 == 0 and out2 == ""
    assert out_path.read_text(encoding="utf-8") == out


def test_detect_empty_corpus(capsys, model_path, tmp_path):
    path = tmp_path / "empty.jsonl"
    save_corpus(str(path), [])
    code, out, _ = run(capsys, ["detect", "--corpus", str(path), "--model", model_path])
    assert code == 0
    assert out == ""


def test_detect_training_free_flag(capsys, corpus_path, model_path):
    code, out, _ = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--model", model_path, "--training-free"],
    )
    assert code == 0
    assert len(out.splitlines()) == 40


@pytest.mark.parametrize("kind", ["logreg", "lm2"])
def test_detect_jobs_parity(capsys, corpus_path, model_path, tmp_path, kind):
    # The workers get the detector by pickle; an LM rebuilds its term tables.
    if kind == "lm2":
        model_path = str(tmp_path / "lm2.json")
        save_model(NGramLMDetector.fit(load_corpus(corpus_path), n=2), model_path)
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert run(
        capsys,
        ["detect", "--corpus", corpus_path, "--model", model_path, "--out", str(serial)],
    )[0] == 0
    assert run(
        capsys,
        [
            "detect",
            "--corpus", corpus_path,
            "--model", model_path,
            "--out", str(parallel),
            "--jobs", "2",
        ],
    )[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_detect_rerun_is_byte_identical(capsys, corpus_path, model_path, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for dest in (a, b):
        code, _, _ = run(
            capsys,
            ["detect", "--corpus", corpus_path, "--model", model_path, "--out", str(dest)],
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# config file layering


def test_config_file_applies_and_flags_override(capsys, corpus_path, model_path, tmp_path):
    cfg = tmp_path / "detect.cfg"
    cfg.write_text(f"model = {model_path}\nre = 0.45\ntau = 0.5\n", encoding="utf-8")

    code, out, _ = run(capsys, ["detect", "--corpus", corpus_path, "--config", str(cfg)])
    assert code == 0
    filtered = [json.loads(line)["n_filtered"] for line in out.splitlines()]
    assert any(count > 0 for count in filtered)

    # The flag wins over the file: tau 0 disables filtering entirely.
    code, out, _ = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--config", str(cfg), "--tau", "0.0"],
    )
    assert code == 0
    assert all(json.loads(line)["n_filtered"] == 0 for line in out.splitlines())


CONFIG_FORMS = {
    "detect": [("corpus", "C"), ("model", "M"), ("re", "0.45"), ("tau", "0.5"), ("k", "1"), ("jobs", "2")],
    "eval": [
        ("corpus", "C"), ("model", "M"), ("stacked", True), ("re", "0.45"), ("tau", "0.5"), ("seed", "4"),
    ],
    "train": [
        ("corpus", "C"), ("epochs", "1"), ("batch-size", "8"), ("split", "2:1:1"), ("ngram-order", "2"),
        ("hash-buckets", "1024"), ("tau", "0.4"), ("k", "1"), ("seed", "3"),
    ],
    "simulate": [
        ("world", "gaussian"), ("dim", "3"), ("delta", "0.3,0.6"), ("n", "6"), ("rho", "0,0.3"),
        ("alpha-s", "0.1"), ("trials", "100"), ("seed", "2"),
    ],
    "overlap": [("human", "C"), ("machine", "C")],
}


@pytest.mark.parametrize("verb", sorted(CONFIG_FORMS))
def test_config_file_matches_flags(capsys, corpus_path, model_path, tmp_path, verb):
    opts = [(key, {"C": corpus_path, "M": model_path}.get(value, value)) for key, value in CONFIG_FORMS[verb]]
    outputs = []
    for form in ("flags", "config"):
        out = tmp_path / form
        if form == "flags":
            argv = [tok for key, value in opts for tok in (f"--{key}", value) if tok is not True]
        else:
            cfg = tmp_path / "run.cfg"
            lines = [f"{key} = {'true' if value is True else value}\n" for key, value in opts]
            cfg.write_text("".join(lines), encoding="utf-8")
            argv = ["--config", str(cfg)]
        assert run(capsys, [verb, *argv, "--out", str(out)])[0] == 0
        files = [out / "model.json", out / "eval_val.json"] if verb == "train" else [out]
        outputs.append([f.read_bytes() for f in files])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "body, flags, named",
    [
        ("tua = 0.5\n", [], "--tua"),
        ("modle = x\n", [], "--modle"),
        ("seed = 1.5\n", [], "--seed"),
        ("ta = 0.5\n", [], "--ta"),
        ("", ["--ta", "0.5"], "--ta"),
        ("config = other.cfg\n", [], "may not set 'config'"),
        ('adapter = python3 "unclosed\n', [], "--adapter"),
    ],
    ids=["typo-tau", "typo-model", "bad-int", "key-prefix", "flag-prefix", "nested-config", "unclosed-quote"],
)
def test_bad_option_is_config_error(capsys, corpus_path, model_path, tmp_path, body, flags, named):
    cfg = tmp_path / "detect.cfg"
    cfg.write_text(body, encoding="utf-8")
    code, out, err = run(
        capsys, ["detect", "--corpus", corpus_path, "--model", model_path, "--config", str(cfg), *flags]
    )
    assert code == 2
    assert out == ""
    assert named in err


def test_config_value_may_start_with_dash(capsys, corpus_path, model_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "detect.cfg"
    cfg.write_text(f"corpus = {corpus_path}\nmodel = {model_path}\nout = -rows.jsonl\n", encoding="utf-8")
    assert run(capsys, ["detect", "--config", str(cfg)])[0] == 0
    assert len((tmp_path / "-rows.jsonl").read_text(encoding="utf-8").splitlines()) == 40


# ---------------------------------------------------------------------------
# failure exit codes


def test_corrupt_corpus_is_data_error(capsys, model_path, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "Ok."}\nnot json\n', encoding="utf-8")
    code, _, err = run(capsys, ["detect", "--corpus", str(path), "--model", model_path])
    assert code == 3
    assert "corpus error" in err and "line 2" in err


def test_missing_model_file(capsys, corpus_path, tmp_path):
    code, _, err = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--model", str(tmp_path / "nope.json")],
    )
    assert code == 3
    assert "file error" in err


def test_garbage_model_file(capsys, corpus_path, tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "something-else"}\n', encoding="utf-8")
    code, _, err = run(capsys, ["detect", "--corpus", corpus_path, "--model", str(path)])
    assert code == 3
    assert "data error" in err


def test_nonfinite_model_is_numeric_error(capsys, corpus_path, model_path, tmp_path):
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["bias"] = float("inf")
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, ["detect", "--corpus", corpus_path, "--model", str(broken)])
    assert code == 4
    assert "numerical error" in err


@pytest.mark.parametrize(
    "kind, fields",
    [
        ("logreg", {"n": 1.5}),
        ("logreg", {"n": 0}),
        ("logreg", {"hash_buckets": 0, "weights_b64": ""}),
        ("logreg", {"hash_seed": -1}),
        ("logreg", {"hash_seed": 1.5}),
        ("logreg", {"feature_mode": "xyz"}),
        ("lm", {"lambda": 0}),
        ("lm", {"lambda": -1}),
        ("lm", {"lambda": float("nan")}),
        ("lm", {"lambda": "0.1"}),
        ("lm", {"n": True}),
        ("lm", {"machine_ngrams": []}),
        ("logreg", {"bias": "0.5"}),
        ("logreg", {"bias": True}),
        ("logreg", {"n": True}),
        ("logreg", {"hash_buckets": True, "weights_b64": "AAAAAAAAAAA="}),
        ("logreg", {"hash_seed": True}),
    ],
)
def test_malformed_model_field_is_data_error(capsys, corpus_path, model_path, tmp_path, kind, fields):
    if kind == "lm":
        model_path = str(tmp_path / "lm.json")
        save_model(NGramLMDetector.fit(load_corpus(corpus_path)), model_path)
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.update(fields)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, ["detect", "--corpus", corpus_path, "--model", str(broken)])
    assert code == 3
    assert "data error" in err
    assert "Traceback" not in err


def test_failing_adapter_is_adapter_error(capsys, corpus_path, tmp_path):
    script = tmp_path / "dies.py"
    script.write_text("import sys\nsys.exit(1)\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--adapter", f"{sys.executable} {script}"],
    )
    assert code == 5
    assert "adapter error" in err


@pytest.mark.parametrize("verb", ["detect", "simulate"])
def test_jobs_below_one_is_config_error(capsys, corpus_path, model_path, tmp_path, verb):
    argv = {
        "detect": ["detect", "--corpus", corpus_path, "--model", model_path],
        "simulate": ["simulate", "--out", str(tmp_path / "x.csv"), "--trials", "100"],
    }[verb]
    code, out, err = run(capsys, [*argv, "--jobs", "0"])
    assert code == 2
    assert out == "" and "--jobs" in err


def test_model_and_adapter_conflict(capsys, corpus_path, model_path):
    code, _, err = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--model", model_path, "--adapter", "cat"],
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_constant_adapter_scores_every_document(capsys, corpus_path, tmp_path):
    script = tmp_path / "const.py"
    script.write_text(
        "import sys\nfor line in sys.stdin:\n    print(0.75)\n", encoding="utf-8"
    )
    code, out, _ = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--adapter", f"{sys.executable} {script}"],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 40
    # A constant score never falls below the evidence threshold, so nothing
    # is filtered and the second pass sees the whole document.
    assert all(row["score"] == 0.75 and row["n_filtered"] == 0 for row in rows)


# Appends the texts of each launch as one JSON list to the file named by its
# argument; groups mentioning "quiet" score under the evidence floor.
RECORDER = """\
import json, sys
texts = [json.loads(line) for line in sys.stdin]
with open(sys.argv[1], "a", encoding="utf-8") as fh:
    fh.write(json.dumps(texts) + "\\n")
for text in texts:
    print(0.001 if "quiet" in text else 0.9)
"""


def quiet_score(text: str) -> float:
    return 0.001 if "quiet" in text else 0.9


@pytest.fixture
def recorder(tmp_path):
    """(adapter command, path of its per-launch log)."""
    script = tmp_path / "recorder.py"
    script.write_text(RECORDER, encoding="utf-8")
    log = tmp_path / "launches.jsonl"
    return f"{sys.executable} {script} {log}", log


def launches(log) -> list[list[str]]:
    return [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("tau, expected", [("0.5", 2), ("0.0", 1)])
def test_detect_launches_adapter_once_per_pass(capsys, corpus_path, recorder, tau, expected):
    command, log = recorder
    code, out, _ = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--adapter", command, "--tau", tau, "--k", "1"],
    )
    assert code == 0
    assert len(out.splitlines()) == 40
    assert len(launches(log)) == expected


def test_negative_adapter_timeout_never_launches(capsys, corpus_path, recorder):
    command, log = recorder
    code, _, err = run(
        capsys, ["detect", "--corpus", corpus_path, "--adapter", command, "--adapter-timeout", "-1"]
    )
    assert code == 2
    assert "timeout" in err
    assert not log.exists()


def test_config_switch_takes_true_and_false(capsys, corpus_path, tmp_path, recorder):
    # eval --stacked launches the adapter once per pass, plain eval once.
    command, log = recorder
    cfg = tmp_path / "eval.cfg"
    argv = ["eval", "--corpus", corpus_path, "--adapter", command, "--config", str(cfg)]
    counts = []
    for body in ("stacked = true\n", "stacked = false\n"):
        cfg.write_text(f"{body}tau = 0.5\nk = 1\n", encoding="utf-8")
        assert run(capsys, argv)[0] == 0
        counts.append(len(launches(log)))
        log.unlink()
    assert counts == [2, 1]


def test_base_arms_launch_adapter_once(capsys, corpus_path, recorder):
    command, log = recorder
    assert run(capsys, ["eval", "--corpus", corpus_path, "--adapter", command])[0] == 0
    assert len(launches(log)) == 1
    log.unlink()
    # One base-arm launch plus the stacked arm's one launch per pass.
    code, out, _ = run(capsys, ["bench", "--corpus", corpus_path, "--adapter", command, "--repeats", "1"])
    assert code == 0 and json.loads(out)["n_docs"] == 40
    assert len(launches(log)) <= 3


ABBREV_DOCS = [
    {"id": "a", "label": 1, "text": "Dr. Lee wrote this. It was quiet. Mr. Park read it. Nobody spoke."},
    {"id": "b", "label": 0, "text": "St. Anne is old. The hall was quiet. Prof. Kim left. Then rain came."},
]


def test_eval_and_train_validation_use_custom_abbreviations(capsys, tmp_path, recorder, monkeypatch):
    # With an empty abbreviation list "Dr." ends a sentence, so each document
    # has six one-sentence groups.  Every verb must score the groups of the
    # corpus as loaded, never a re-split with the packaged list.
    corpus = tmp_path / "abbrev.jsonl"
    corpus.write_text("".join(json.dumps(d) + "\n" for d in ABBREV_DOCS), encoding="utf-8")
    empty = tmp_path / "none.txt"
    empty.write_text("", encoding="utf-8")
    flags = ["--corpus", str(corpus), "--abbreviations", str(empty), "--tau", "0.5", "--k", "1"]
    command, log = recorder

    assert run(capsys, ["detect", *flags, "--adapter", command])[0] == 0
    detect_texts = [t for batch in launches(log) for t in batch]
    assert len(detect_texts) == 14
    log.unlink()
    assert run(capsys, ["eval", *flags, "--adapter", command, "--stacked"])[0] == 0
    assert [t for batch in launches(log) for t in batch] == detect_texts

    validated = []

    class RecordingModel(NGramLogRegModel):
        def score(self, text):
            validated.append(text)
            return quiet_score(text)

    def fake_training(base, pairs, tc):
        return RecordingModel(base.n, base.feature_mode, base.hash_buckets, base.weights, base.bias), TrainTrace()

    monkeypatch.setattr(cli, "train_hard_em", fake_training)
    code, _, _ = run(
        capsys,
        ["train", *flags, "--out", str(tmp_path / "run"), "--split", "0:1:0", "--hash-buckets", "16"],
    )
    assert code == 0
    assert sorted(validated) == sorted(detect_texts)


def test_log_lines_are_json(capsys, tmp_path):
    out = tmp_path / 'say "hi".csv'
    code, _, err = run(
        capsys,
        ["simulate", "--n", "5", "--trials", "120", "--log-level", "info", "--out", str(out)],
    )
    assert code == 0
    records = [json.loads(line) for line in err.splitlines()]
    assert records
    assert all(set(r) == {"level", "logger", "event"} for r in records)
    assert {"level": "INFO", "logger": "mgtstack.cli", "event": f"simulate: wrote 1 rows to {out}"} in records


# ---------------------------------------------------------------------------
# eval / overlap / bench


def test_eval_report(capsys, corpus_path, model_path, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["eval", "--corpus", corpus_path, "--model", model_path, "--out", str(out_path)],
    )
    assert code == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert {"auroc", "tpr_at_fpr", "n_pos", "n_neg"} <= set(report)
    assert report["n_pos"] + report["n_neg"] == 40
    assert set(report["tpr_at_fpr"]) == {"0.005", "0.05"}


def test_eval_rejects_unlabeled_corpus(capsys, model_path, tmp_path):
    docs = synth_corpus(SynthSpec(n_docs=8, seed=3, sentences_per_doc=(3, 4)))
    docs[5] = dataclasses.replace(docs[5], label=None)
    path = tmp_path / "partly_labeled.jsonl"
    save_corpus(str(path), docs)
    for stacked in ([], ["--stacked"]):
        code, out, err = run(capsys, ["eval", "--corpus", str(path), "--model", model_path, *stacked])
        assert code == 3
        assert out == ""
        assert "unlabeled" in err and repr(docs[5].id) in err


def test_eval_stacked_wrapper(capsys, corpus_path, model_path, tmp_path):
    stacked = tmp_path / "stacked.json"
    code, _, _ = run(
        capsys,
        [
            "eval",
            "--corpus", corpus_path,
            "--model", model_path,
            "--stacked", "--re", "0.45", "--tau", "0.5",
            "--out", str(stacked),
        ],
    )
    assert code == 0
    report = json.loads(stacked.read_text(encoding="utf-8"))
    assert 0.0 <= report["auroc"] <= 1.0
    assert report["n_pos"] == report["n_neg"] == 20


def test_overlap_self_is_total(capsys, corpus_path):
    code, out, _ = run(
        capsys, ["overlap", "--human", corpus_path, "--machine", corpus_path]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent_sentence_proportion"] == 1.0
    assert payload["n_human_docs"] == payload["n_machine_docs"] == 40
    assert payload["n_machine_sentences"] > 0


def test_bench_fields(capsys, corpus_path, model_path, tmp_path):
    small = tmp_path / "small.jsonl"
    docs = synth_corpus(SynthSpec(n_docs=8, seed=5, sentences_per_doc=(4, 5)))
    save_corpus(str(small), docs)
    code, out, _ = run(
        capsys,
        ["bench", "--corpus", str(small), "--model", model_path, "--repeats", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"base_seconds", "stacked_seconds", "ratio", "n_docs", "repeats"}
    assert payload["n_docs"] == 8 and payload["repeats"] == 1
    assert payload["ratio"] > 0.0


def test_bench_alternates_arms_chunk_by_chunk(capsys, corpus_path, model_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "BENCH_CHUNK_DOCS", 15)
    monkeypatch.setattr(cli, "score_batch", lambda base, texts: calls.append(("base", len(texts))))
    monkeypatch.setattr(cli, "score_corpus", lambda base, docs, fc: calls.append(("stacked", len(docs))))
    code, out, _ = run(capsys, ["bench", "--corpus", corpus_path, "--model", model_path, "--repeats", "2"])
    assert code == 0 and json.loads(out)["n_docs"] == 40
    one_repeat = [("base", 15), ("stacked", 15), ("base", 15), ("stacked", 15), ("base", 10), ("stacked", 10)]
    assert calls == one_repeat * 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--trials", "20", "--abbreviations", "/nonexistent"],
        ["overlap", "--human", "C", "--machine", "C", "--seed", "1"],
        ["bench", "--corpus", "C", "--model", "M", "--seed", "1"],
    ],
    ids=["simulate-abbreviations", "overlap-seed", "bench-seed"],
)
def test_options_a_verb_never_reads_are_usage_errors(capsys, corpus_path, model_path, tmp_path, argv):
    out = tmp_path / "out"
    argv = [{"C": corpus_path, "M": model_path}.get(tok, tok) for tok in argv]
    code, _, err = run(capsys, [*argv, "--out", str(out)])
    assert code == 2
    assert "unrecognized arguments" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_grid_and_determinism(capsys, tmp_path):
    args = [
        "simulate",
        "--delta", "0.5",
        "--n", "5,10",
        "--alpha", "0.0",
        "--trials", "120",
        "--seed", "9",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    assert run(capsys, args + ["--out", str(a)])[0] == 0
    assert run(capsys, args + ["--out", str(b)])[0] == 0
    assert run(capsys, args + ["--out", str(c), "--jobs", "2"])[0] == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    lines = a.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["delta", "n", "alpha", "alpha_s", "alpha_h", "rho", "trials"]
    assert len(lines) == 3
    ns = [line.split(",")[1] for line in lines[1:]]
    assert ns == ["5", "10"]


def test_simulate_config_world_validation(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("world = psychic\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--trials", "120"],
    )
    assert code == 2
    assert "world" in err


def test_simulate_rejects_small_trials(capsys, tmp_path):
    code, _, err = run(
        capsys, ["simulate", "--out", str(tmp_path / "x.csv"), "--trials", "50"]
    )
    assert code == 2
    assert "trials" in err


def test_simulate_bad_filter_point_fails_before_any_point_runs(capsys, tmp_path, monkeypatch):
    calls = []
    run_point = theory._run_point
    monkeypatch.setattr(theory, "_run_point", lambda task: calls.append(task) or run_point(task))
    out = tmp_path / "x.csv"
    code, _, err = run(
        capsys,
        [
            "simulate",
            "--delta", "0.5",
            "--n", "5,20",
            "--alpha", "0,0.3",
            "--alpha-s", "0,0.1",
            "--trials", "100",
            "--out", str(out),
        ],
    )
    assert code == 3
    assert "grid point n = 20, alpha = 0.0, alpha_s = 0.1, alpha_h = 0.0: " in err
    assert calls == [] and not out.exists()


def test_simulate_gaussian_with_rho(capsys, tmp_path):
    out = tmp_path / "g.csv"
    code, _, _ = run(
        capsys,
        [
            "simulate",
            "--world", "gaussian",
            "--delta", "0.8",
            "--n", "6",
            "--rho", "0.0,0.6",
            "--trials", "150",
            "--out", str(out),
        ],
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3


GOLDEN_GRIDS = [
    [
        "--world", "categorical", "--delta", "0.2,0.8", "--n", "6,13", "--alpha", "0.35",
        "--alpha-s", "0,0.05,0.2", "--alpha-h", "0,0.1", "--trials", "100", "--seed", "3",
    ],
    [
        "--world", "gaussian", "--dim", "3", "--delta", "0.3,0.6", "--n", "8", "--alpha", "0.25",
        "--rho", "0,0.3", "--alpha-s", "0.1", "--trials", "100", "--seed", "3",
    ],
]


def test_simulate_matches_golden_csv(capsys, tmp_path):
    """Both grids' CSVs, concatenated, equal ``tests/data/simulate_golden.csv``
    byte for byte.

    The golden file was written by source commit 938c4e5 under numpy 2.4.6.
    At n = 6, alpha_s = 0.05 removes no sentence but still draws from the
    point's RNG, so the file also pins the filter's draw order.
    """
    produced = b""
    for i, grid in enumerate(GOLDEN_GRIDS):
        out = tmp_path / f"grid{i}.csv"
        assert run(capsys, ["simulate", *grid, "--out", str(out)])[0] == 0
        produced += out.read_bytes()
    golden = os.path.join(os.path.dirname(__file__), "data", "simulate_golden.csv")
    with open(golden, "rb") as fh:
        assert produced == fh.read()
