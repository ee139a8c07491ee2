"""End-to-end command line tests.

Every test drives ``cli.main(argv)`` in process so exit codes, stdout, and
stderr are all observable without spawning an interpreter.  A small synthetic
corpus and one trained model are shared module-wide to keep the suite quick.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtstack import (
    ModelFormatError,
    NGramLMDetector,
    NGramLogRegModel,
    SplitSpec,
    SynthSpec,
    TrainTrace,
    human_sentence_pool,
    inject_human_sentences,
    load_corpus,
    load_model,
    save_corpus,
    save_model,
    split_dataset,
    synth_corpus,
)
from mgtstack import cli, detectors, segmentation, theory
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


def _fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this mgtstack."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # Only --jobs > 1 starts worker processes; no other verb should pay for
    # importing multiprocessing or concurrent.futures.
    check = (
        "import sys, mgtstack.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    assert _fresh_python(check) == "[]"


NUMPY_FREE_VERBS = """\
import sys
import mgtstack.cli

corpus, lm, adapter, out = sys.argv[1:]
loaded = ["numpy" in sys.modules]
for flags in (["--model", lm], ["--adapter", adapter]):
    argv = ["detect", "--corpus", corpus, *flags, "--tau", "0.5", "--k", "1", "--out", out]
    assert mgtstack.cli.main(argv) == 0, flags
    loaded.append("numpy" in sys.modules)
print(loaded)

import numpy
from mgtstack import detectors, theory

print(detectors.np.ndarray is numpy.ndarray, theory.np.random is numpy.random)
"""


def test_lm_and_adapter_detect_leave_numpy_unloaded(corpus_path, tmp_path):
    # numpy is imported on first use, and neither the CLI's import nor detect
    # through an n-gram LM or an external adapter touches an array.
    lm = tmp_path / "lm.json"
    save_model(NGramLMDetector.fit(load_corpus(corpus_path), n=2), str(lm))
    scorer = tmp_path / "scorer.py"
    scorer.write_text("import sys\nfor line in sys.stdin:\n    print(0.9 if len(line) % 3 else 0.001)\n", encoding="utf-8")
    adapter = f"{sys.executable} -S {scorer}"
    out = _fresh_python(NUMPY_FREE_VERBS, corpus_path, str(lm), adapter, str(tmp_path / "scores.jsonl"))
    assert out.splitlines() == ["[False, False, False]", "True True"]


CATEGORICAL_SIMULATE = """\
import sys
import mgtstack.cli

argv = ["simulate", "--world", "categorical", "--n", "10,40", "--alpha", "0.0,0.3", "--trials", "100", "--out", sys.argv[1]]
assert mgtstack.cli.main(argv) == 0
print([m in sys.modules for m in ("numpy", "numpy.ma", "statistics")])
"""


def test_categorical_simulate_leaves_numpy_ma_and_statistics_unloaded(tmp_path):
    # The bootstrap CI takes its quantiles without np.quantile (whose
    # np.unique call imports numpy.ma), and only gaussian worlds need
    # statistics.NormalDist.
    assert _fresh_python(CATEGORICAL_SIMULATE, str(tmp_path / "grid.csv")) == "[True, False, False]"


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


@pytest.mark.parametrize("stacked", [[], ["--stacked"]], ids=["base", "stacked"])
def test_eval_empty_corpus_is_data_error(capsys, model_path, tmp_path, stacked):
    # As for train and bench: an empty corpus is the data's fault.
    path = tmp_path / "empty.jsonl"
    save_corpus(str(path), [])
    code, out, err = run(capsys, ["eval", "--corpus", str(path), "--model", model_path, *stacked])
    assert (code, out) == (3, "")
    assert "data error: corpus is empty" in err


def test_detect_training_free_flag(capsys, corpus_path, model_path):
    code, out, _ = run(
        capsys,
        ["detect", "--corpus", corpus_path, "--model", model_path, "--training-free"],
    )
    assert code == 0
    assert len(out.splitlines()) == 40


def test_eval_has_no_training_free_flag(capsys, corpus_path, model_path):
    code, out, err = run(capsys, ["eval", "--corpus", corpus_path, "--model", model_path, "--training-free"])
    assert (code, out) == (2, "")
    assert "--training-free" in err


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


def test_corpus_error_writes_one_stderr_line(capsys, model_path, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "Ok."}\n{"id": "b"}\n', encoding="utf-8")
    code, _, err = run(capsys, ["detect", "--corpus", str(path), "--model", model_path])
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("mgtstack: corpus error: ") and "line 2" in err


def test_lone_surrogate_is_data_error_naming_the_line(capsys, tmp_path):
    # JSON can spell a lone surrogate, which UTF-8 cannot encode; a char-mode
    # model hashes its n-grams as UTF-8, so the corpus is refused on load.
    model = tmp_path / "char.json"
    save_model(NGramLogRegModel.new(n=2, feature_mode="char", hash_buckets=1024), str(model))
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "text": "Fine."}\n{"id": "a", "text": "Hello \\ud800 there."}\n', encoding="utf-8")
    code, out, err = run(capsys, ["detect", "--corpus", str(path), "--model", str(model)])
    assert (code, out) == (3, "")
    assert err == "mgtstack: corpus error: line 2: document 'a': text is not UTF-8 at offset 6\n"


def test_non_int_label_is_data_error_naming_the_line(capsys, model_path, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "Ok."}\n{"id": "b", "text": "Ok.", "label": true}\n', encoding="utf-8")
    code, _, err = run(capsys, ["detect", "--corpus", str(path), "--model", model_path])
    assert code == 3
    assert "corpus error" in err and "line 2" in err and "label" in err


@pytest.mark.parametrize(
    "record, fragment",
    [
        ('{"id": 5, "text": "Ok."}', "strings"),
        ('{"id": "b", "text": 5}', "strings"),
        ('{"id": 5, "text": "   "}', "strings"),
        ('{"id": "b", "text": "   "}', "no sentences"),
    ],
)
def test_bad_document_is_data_error_naming_the_line(capsys, model_path, tmp_path, record, fragment):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "Ok."}\n' + record + "\n", encoding="utf-8")
    code, _, err = run(capsys, ["detect", "--corpus", str(path), "--model", model_path])
    assert code == 3
    assert "corpus error" in err and "line 2" in err and fragment in err


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
        ("logreg", {"weights_dtype": "<i8"}),
        ("logreg", {"weights_dtype": ">f8"}),
        ("lm", {"lambda": float("inf")}),
        ("lm", {"machine_ngrams": {"aa\x1fbb": 2}}),
        ("lm", {"human_ngrams": {"aa": -3}}),
        ("lm", {"human_ngrams": {"aa": 3.5}}),
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


_NOT_INT = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(), st.lists(st.integers(), max_size=2))
_NOT_NUMBER = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(), st.lists(st.floats(0, 1), max_size=2), st.just(10**400)
)
_NOT_STR = st.one_of(st.integers(), st.floats(), st.none(), st.lists(st.integers(), max_size=2))
# Single-field corruptions that no model can be built from, one strategy per
# field.  A count strategy draws (how, value) and is applied to one entry.
_LOGREG_CORRUPTIONS = {
    "n": st.one_of(_NOT_INT, st.integers(max_value=0)),
    "hash_buckets": st.one_of(_NOT_INT, st.integers(max_value=0), st.integers(4097, 2**70)),
    "hash_seed": st.one_of(_NOT_INT, st.integers(max_value=-1), st.integers(min_value=2**64)),
    "feature_mode": st.one_of(_NOT_STR, st.text(max_size=5).filter(lambda m: m not in ("word", "char"))),
    "bias": _NOT_NUMBER,  # a non-finite bias loads and fails at scoring: exit 4
    "weights_dtype": st.one_of(_NOT_NUMBER, st.sampled_from(["<i8", ">f8", "<f4", "float64"])),
    "weights_b64": st.one_of(_NOT_STR, st.sampled_from(["AAAA", "not base64!", "é"])),
}
_LM_COUNTS = st.one_of(
    st.tuples(st.just("value"), st.one_of(_NOT_STR, st.text(max_size=3))),
    st.tuples(st.just("count"), st.one_of(st.integers(max_value=-1), st.floats(), st.booleans(), st.none())),
    st.tuples(st.just("key"), st.sampled_from(["\x1fzz", "\x1fzz\x1fzz\x1fzz"])),
)
_LM_CORRUPTIONS = {
    "n": st.one_of(_NOT_INT, st.integers(max_value=0), st.integers(min_value=4)),
    "lambda": st.one_of(
        _NOT_NUMBER, st.sampled_from([math.inf, -math.inf, math.nan]), st.floats(max_value=0), st.integers(max_value=0)
    ),
    "machine_ngrams": _LM_COUNTS,
    "human_ngrams": _LM_COUNTS,
}


def _corrupt_counts(counts: dict, how: str, value) -> object:
    key, count = next(iter(counts.items()))
    if how == "value":
        return value
    if how == "count":
        return {**counts, key: value}
    return {**counts, key + value: count}  # a key one or more words too long


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory, corpus_path, model_path):
    """Payloads of a saved logreg model and of saved LMs of orders 1 to 3."""
    payloads = {}
    with open(model_path, encoding="utf-8") as fh:
        payloads["logreg"] = json.load(fh)
    for n in (1, 2, 3):
        path = tmp_path_factory.mktemp("lm") / "lm.json"
        save_model(NGramLMDetector.fit(load_corpus(corpus_path), n=n), str(path))
        payloads[f"lm{n}"] = json.loads(path.read_text(encoding="utf-8"))
    return payloads


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["logreg", "lm1", "lm2", "lm3"]), data=st.data())
def test_every_single_field_corruption_is_data_error(saved_models, corpus_path, kind, data):
    payload = dict(saved_models[kind])
    corruptions = _LOGREG_CORRUPTIONS if kind == "logreg" else _LM_CORRUPTIONS
    name = data.draw(st.sampled_from(sorted(corruptions)), label="field")
    value = data.draw(corruptions[name], label="value")
    payload[name] = _corrupt_counts(payload[name], *value) if name.endswith("_ngrams") else value
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "broken.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ModelFormatError):
            load_model(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["detect", "--corpus", corpus_path, "--model", path])
    assert code == 3
    assert "data error" in err.getvalue()


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


@pytest.fixture(scope="module")
def chunked_corpus_path(tmp_path_factory):
    """200 documents whose word tokens outnumber a logistic scoring chunk's units."""
    docs = synth_corpus(SynthSpec(n_docs=200, seed=12, sentences_per_doc=(6, 8)))
    assert sum(len(detectors.tokenize(doc.text)) for doc in docs) > detectors._SCORE_CHUNK
    path = tmp_path_factory.mktemp("chunked") / "corpus.jsonl"
    save_corpus(str(path), docs)
    return str(path)


@pytest.mark.parametrize("tau, expected", [("0.5", 2), ("0.0", 1)])
def test_detect_launches_adapter_once_per_pass(capsys, corpus_path, chunked_corpus_path, recorder, tau, expected):
    # Chunking the corpus by documents is the logistic route's alone: an
    # adapter gets every group in one launch, however many there are.
    command, log = recorder
    for path, n_docs in ((corpus_path, 40), (chunked_corpus_path, 200)):
        code, out, _ = run(
            capsys,
            ["detect", "--corpus", path, "--adapter", command, "--tau", tau, "--k", "1"],
        )
        assert code == 0
        assert len(out.splitlines()) == n_docs
        assert len(launches(log)) == expected
        log.unlink()


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


@pytest.mark.parametrize("word", ["true", "false", "FALSE"])
def test_config_true_or_false_for_a_valued_flag_is_config_error(capsys, corpus_path, model_path, tmp_path, word):
    # Only a switch reads true or false: --tau gets the word and rejects it.
    cfg = tmp_path / "detect.cfg"
    cfg.write_text(f"tau = {word}\n", encoding="utf-8")
    code, out, err = run(capsys, ["detect", "--corpus", corpus_path, "--model", model_path, "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "--tau" in err


def test_base_arms_launch_adapter_once(capsys, corpus_path, recorder):
    command, log = recorder
    assert run(capsys, ["eval", "--corpus", corpus_path, "--adapter", command])[0] == 0
    assert len(launches(log)) == 1
    log.unlink()
    # One base-arm launch plus the stacked arm's one launch per pass.
    code, out, _ = run(capsys, ["bench", "--corpus", corpus_path, "--adapter", command, "--repeats", "1"])
    assert code == 0 and json.loads(out)["n_docs"] == 40
    assert len(launches(log)) <= 3


@pytest.mark.parametrize(
    "tau, expected", [("0.5", ["launch 1", "launch 2", "feed 1", "feed 2"]), ("0", ["launch 1", "feed 1"])]
)
def test_detect_starts_pass_two_process_before_feeding_pass_one(capsys, corpus_path, recorder, popens, tau, expected):
    # One process per non-empty pass, counted at Popen, not by the log the
    # adapter writes; pass 2's starts before pass 1's texts are sent.
    command, log = recorder
    events, _, _ = popens
    code, out, _ = run(capsys, ["detect", "--corpus", corpus_path, "--adapter", command, "--tau", tau, "--k", "1"])
    assert code == 0 and len(out.splitlines()) == 40
    procs = [proc for kind, proc in events if kind == "launch"]
    assert [f"{kind} {procs.index(proc) + 1}" for kind, proc in events] == expected
    assert len(launches(log)) == len(procs)
    assert all(proc.returncode == 0 for proc in procs)


@pytest.mark.parametrize(
    "body",
    [
        "import sys\nfor line in sys.stdin: sys.stdout.buffer.write(b'0.5\\xff\\n')\n",
        "import sys\nsys.stdin.read()\nsys.stderr.buffer.write(b'\\xff\\xfe')\nsys.exit(2)\n",
    ],
    ids=["stdout", "stderr"],
)
def test_adapter_bytes_that_are_not_utf8_exit_5(capsys, corpus_path, tmp_path, body):
    script = tmp_path / "bad_bytes.py"
    script.write_text(body, encoding="utf-8")
    code, out, err = run(capsys, ["detect", "--corpus", corpus_path, "--adapter", f"{sys.executable} {script}"])
    assert (code, out) == (5, "")
    assert "adapter error" in err


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

        def score_batch(self, texts):
            # The batch path scores without calling score; record it too.
            return [self.score(text) for text in texts]

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


def test_train_rejects_hash_buckets_past_the_bound(capsys, corpus_path, tmp_path):
    # 2**60 buckets used to reach np.zeros and exit 1 with a numpy traceback.
    out = tmp_path / "run"
    code, _, err = run(capsys, ["train", "--corpus", corpus_path, "--out", str(out), "--hash-buckets", str(2**60)])
    assert code == 2
    assert "hash_buckets" in err
    assert "Traceback" not in err
    assert not out.exists()


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


# ---------------------------------------------------------------------------
# lazy sentence spans: each verb splits only the documents it groups, once


@pytest.fixture
def split_calls(monkeypatch):
    """The texts handed to ``split_sentences``, in call order."""
    calls = []
    split = segmentation.split_sentences

    def counting(text, abbreviations=None):
        calls.append(text)
        return split(text, abbreviations)

    monkeypatch.setattr(segmentation, "split_sentences", counting)
    return calls


def test_eval_without_stacked_never_splits(capsys, corpus_path, model_path, split_calls):
    assert run(capsys, ["eval", "--corpus", corpus_path, "--model", model_path])[0] == 0
    assert split_calls == []


def test_detect_splits_each_document_once(capsys, corpus_path, model_path, split_calls):
    texts = [doc.text for doc in load_corpus(corpus_path)]
    split_calls.clear()
    # Every document is filtered, so its groups are read after its count.
    argv = ["detect", "--corpus", corpus_path, "--model", model_path, "--tau", "0.5", "--k", "1"]
    assert run(capsys, argv)[0] == 0
    assert split_calls == texts


def test_train_splits_each_grouped_document_once(capsys, corpus_path, tmp_path, split_calls):
    # The hard-EM E-step groups the training split in every epoch and the
    # report groups the validation split; the test split is never grouped.
    train, val, _ = split_dataset(load_corpus(corpus_path), SplitSpec(ratios=(2, 1, 1), seed=7))
    split_calls.clear()
    argv = ["train", "--corpus", corpus_path, "--out", str(tmp_path), "--epochs", "3", "--seed", "7"]
    assert run(capsys, [*argv, "--hash-buckets", "4096", "--batch-size", "16"])[0] == 0
    assert sorted(split_calls) == sorted(doc.text for doc in train + val)


def test_bench_splits_before_timing(capsys, corpus_path, model_path, split_calls, monkeypatch):
    seen = []  # splits made so far, at each timed call of either arm
    for name in ("score_batch", "score_corpus"):
        arm = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, arm=arm: seen.append(len(split_calls)) or arm(*args))
    code, out, _ = run(capsys, ["bench", "--corpus", corpus_path, "--model", model_path, "--repeats", "1"])
    assert code == 0 and json.loads(out)["n_docs"] == 40
    assert len(seen) == 2 * math.ceil(40 / cli.BENCH_CHUNK_DOCS)
    assert seen == [40] * len(seen) and len(split_calls) == 40


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


@pytest.mark.parametrize("deltas", ["1.0", "0.5,1.0"])
def test_simulate_categorical_delta_one_fails_before_sampling(capsys, tmp_path, monkeypatch, deltas):
    calls = []
    monkeypatch.setattr(theory, "sample_texts", lambda *a, **k: calls.append(a))
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, ["simulate", "--delta", deltas, "--n", "5", "--trials", "100", "--out", str(out)])
    assert code == 2
    assert "delta must be in [0, 1)" in err and "disjoint supports" in err
    assert calls == [] and not out.exists()


def test_simulate_categorical_rho_fails_before_any_point_runs(capsys, tmp_path, monkeypatch):
    calls = []
    run_point = theory._run_point
    monkeypatch.setattr(theory, "_run_point", lambda task: calls.append(task) or run_point(task))
    out = tmp_path / "x.csv"
    argv = ["simulate", "--world", "categorical", "--n", "40", "--alpha", "0.3", "--rho", "0,0.5"]
    code, _, err = run(capsys, [*argv, "--trials", "100", "--out", str(out)])
    assert code == 2
    assert "grid point rho = 0.5: " in err and "gaussian worlds only" in err
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


# ---------------------------------------------------------------------------
# golden logistic-detector outputs

GOLDEN_LOGREG = {
    "word-2": (
        ["--feature-mode", "word", "--ngram-order", "2"],
        {
            "model.json": "18f8539de809fbb7e113f3eee45e4dac9c5b74376a3ea39b0194029b564bf136",
            "eval_val.json": "5c9bed5bffe18aca95d7430da0fcc2dc09e9b7953d34393601c26268b2cb14df",
            "detect": "084a3d32934e2291709cf3ad3f68148c8a9c8fadf9a9e392f00e6d0d6715cc08",
            "eval": "0cbeb630595015c27037d9e6a0aa0cdd1c5c657a044604cfed02648d026adcd2",
            "eval-stacked": "b3ac20b7329e356abfc82e83952a0fbd28efa7015b6ca81cb00b2db890948238",
        },
    ),
    "char-3": (
        ["--feature-mode", "char", "--ngram-order", "3"],
        {
            "model.json": "2270edae072e1428591e4bbb165687d87b13abe222979b620d6c6edca3ce1a3b",
            "eval_val.json": "b3f736a9fb31dd9862c6f3cb0efe749607f47d00bb899a779fb9d03eaf6bb1a3",
            "detect": "405c78a105bdced3f52be59142d4baa2ea5b801b8f709a2dfdf3362e470ccaea",
            "eval": "5ff58b0e668b2bc5a0e4b9183ffabffd36864a795af62962043b7e96fd69c92d",
            "eval-stacked": "9c15402ff95defeea2cc36c43f0c3ea6acb46690a1247ebac05071485b678be9",
        },
    ),
}


@pytest.fixture(scope="module")
def golden_logreg_corpus(tmp_path_factory):
    """Weak-signal mixed documents: every machine document carries one or two
    human sentences, so scores spread and the stacked filter drops groups."""
    spec = SynthSpec(n_docs=48, seed=21, sentences_per_doc=(5, 8), strong_frac=0.4, weak_prob=0.6)
    pool = human_sentence_pool(spec, 60, 22)
    rng = random.Random(23)
    docs = synth_corpus(spec)
    docs = [inject_human_sentences(d, pool, rng.randint(1, 2), rng) if d.label == 1 else d for d in docs]
    path = tmp_path_factory.mktemp("golden") / "corpus.jsonl"
    save_corpus(str(path), docs)
    return str(path)


@pytest.mark.parametrize("layout", sorted(GOLDEN_LOGREG))
def test_logreg_outputs_match_golden_digests(capsys, golden_logreg_corpus, tmp_path, layout):
    """SHA-256 digests of every output of a trained logistic detector: ``train``
    (``model.json``, ``eval_val.json``), ``detect``, ``eval`` and
    ``eval --stacked``.

    The digests were written by source commit 5e5368f under numpy 2.4.6, so
    any change to feature extraction, scoring or the M-step that moves a
    single bit of a weight or a score fails here.
    """
    flags, expected = GOLDEN_LOGREG[layout]
    corpus, train = golden_logreg_corpus, tmp_path / "train"
    argv = ["train", "--corpus", corpus, "--out", str(train), "--epochs", "2", "--lr", "0.5", "--seed", "5"]
    assert run(capsys, [*argv, "--batch-size", "8", "--hash-buckets", "4096", *flags])[0] == 0
    outputs = {name: train / name for name in ("model.json", "eval_val.json")}
    model = ["--corpus", corpus, "--model", str(train / "model.json")]
    stacked = ["--re", "0.45", "--tau", "0.5"]
    verbs = {"detect": ["detect", *stacked], "eval": ["eval"], "eval-stacked": ["eval", "--stacked", *stacked]}
    for name, verb in verbs.items():
        outputs[name] = tmp_path / name
        assert run(capsys, [*verb, *model, "--out", str(outputs[name])])[0] == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()}
    assert digests == expected


# ---------------------------------------------------------------------------
# golden n-gram LM outputs

GOLDEN_LM = {
    1: {
        "detect": "81c3d1c6ece36947fd0f0640fe81078aa890190be10b4495ac247c067810630d",
        "eval": "c11043905352157b8941c220e4de52d56184a0e851c92491a8823400ecc382ed",
        "eval-stacked": "7fa9908c1d0313b5cf2cd6f2f343628709914fedda1b4d42d98031173dbbf347",
    },
    2: {
        "detect": "75142039780c45eb1b61b3334cbd5ef2354af42155e50ab835fb30d1168645bf",
        "eval": "b0790f3ef39b5c41fa26e5e793dd818dce21275ed1d97058e52d7d168bba939f",
        "eval-stacked": "6672ccfe66487a1eae96592a5d0aa55b7c1c92a006be85ba5d147d55c4bdbe39",
    },
    3: {
        "detect": "160ea2e7a31a695d45364ad43c5e1fba16661867bb1392c91f274700f29448e9",
        "eval": "4fe016c87d4bd5be29db0508be496f88567757f2451974e169aa68583762d39d",
        "eval-stacked": "481a36b40c80acfdac71df823ed3c21e260b28a1e6132010793c04be55d4617c",
    },
}


@pytest.mark.parametrize("n", sorted(GOLDEN_LM))
def test_lm_outputs_match_golden_digests(capsys, golden_logreg_corpus, tmp_path, n):
    """SHA-256 digests of ``detect``, ``eval`` and ``eval --stacked`` for an
    n-gram LM fit with light smoothing on half of the weak-signal corpus.

    The digests were written by source commit 6d2fa58, so any change to the
    LM's term tables or to the order in which a score adds its terms that
    moves a single bit of a score fails here.  The filter drops groups of
    more than half of the documents at every order.
    """
    corpus, path = golden_logreg_corpus, tmp_path / "lm.json"
    save_model(NGramLMDetector.fit(load_corpus(corpus)[:24], n=n, lam=0.01), str(path))
    model = ["--corpus", corpus, "--model", str(path)]
    stacked = ["--re", "0.45", "--tau", "0.5"]
    verbs = {"detect": ["detect", *stacked], "eval": ["eval"], "eval-stacked": ["eval", "--stacked", *stacked]}
    digests = {}
    for name, verb in verbs.items():
        out = tmp_path / name
        assert run(capsys, [*verb, *model, "--out", str(out)])[0] == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    rows = [json.loads(line) for line in (tmp_path / "detect").read_text().splitlines()]
    assert sum(row["n_filtered"] > 0 for row in rows) > len(rows) // 2
    assert digests == GOLDEN_LM[n]


# ---------------------------------------------------------------------------
# saturated training


@pytest.fixture(scope="module")
def saturating_corpus(tmp_path_factory):
    """Weak-signal documents with one to three injected human sentences per
    machine document, on which a char-mode model saturates at the default
    step size and a word-mode model does not."""
    spec = SynthSpec(n_docs=160, seed=77, strong_frac=0.5, weak_prob=0.5)
    pool = human_sentence_pool(spec, 100, 78)
    rng = random.Random(79)
    docs = [inject_human_sentences(d, pool, rng.randint(1, 3), rng) if d.label == 1 else d for d in synth_corpus(spec)]
    path = tmp_path_factory.mktemp("saturating") / "corpus.jsonl"
    save_corpus(str(path), docs)
    return str(path)


@pytest.mark.parametrize("mode, warned", [("char", True), ("word", False)])
def test_train_warns_when_validation_scores_saturate(capsys, saturating_corpus, tmp_path, mode, warned):
    argv = ["train", "--corpus", saturating_corpus, "--out", str(tmp_path), "--feature-mode", mode]
    code, out, err = run(capsys, [*argv, "--hash-buckets", "4096", "--seed", "5"])
    assert code == 0
    events = [json.loads(line) for line in err.splitlines()]
    warnings = [e["event"] for e in events if e["level"] == "WARNING"]
    assert warnings == (["train: 35 of 40 validation scores are exactly 0 or 1; try a smaller --lr"] if warned else [])
    assert json.loads(out)["val_auroc"] == (0.625 if warned else 0.9825)
