"""The benchmark's hold on the package: every name it imports or wraps exists.

``perfbench/`` imports mgtstack names at module level and, in traced runs,
wraps the functions and methods that ``spans.py`` lists.  A rename or
deletion under ``src/`` that breaks either shows here, not only in a traced
benchmark run.
"""

from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mgtstack import cli, stacked
from mgtstack.corpus import save_corpus
from mgtstack.detectors import NGramLogRegModel, TrainConfig, hashed_features
from mgtstack.synthdata import SynthSpec, synth_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's spans, checks and workloads modules; importing them runs nothing."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return {name: importlib.import_module(name) for name in ("spans", "checks", "workloads")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_resolve(perfbench):
    for _, module, attr, _ in perfbench["spans"].FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


def test_traced_methods_resolve(perfbench):
    for _, module, cls_name, method, _ in perfbench["spans"].METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(getattr(cls, method)), f"{module}.{cls_name}.{method}"


def test_importing_the_cli_loads_every_traced_module(perfbench):
    # spans.install reads sys.modules for each module it wraps, so a module
    # that the CLI imports only when a verb needs it breaks traced runs.
    spans = perfbench["spans"]
    modules = sorted({module for _, module, *_ in spans.FUNCTIONS + spans.METHODS})
    check = "import sys, mgtstack.cli; print(sorted(m for m in sys.argv[1:] if m not in sys.modules))"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", check, *modules], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_hash_cache_counters_resolve():
    # perfbench/child.py reads hashed_features.cache_info() after every verb,
    # though the logreg batch path no longer goes through that cache.
    assert callable(hashed_features.cache_info)


def test_workload_command_lines_parse(perfbench, tmp_path):
    # Every flag a workload passes, including detect's --seed and
    # --training-free, must stay an option the CLI accepts.
    workloads = perfbench["workloads"]
    for name in workloads.SIZES:
        (tmp_path / name).mkdir()
        for verb in workloads.build(name, tmp_path / name, 3, tiny=True).verbs:
            assert cli.build_parser().parse_args(verb.argv).verb == verb.argv[0], name


def test_train_hits_the_text_cache(tmp_path):
    # perfbench reports detectors.train.hash_hit_ratio and its self-test
    # expects it above 0: the M-step must featurize through hashed_features.
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(str(corpus), synth_corpus(SynthSpec(n_docs=40, seed=11)))
    before = hashed_features.cache_info().hits
    argv = ["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"), "--epochs", "1", "--hash-buckets", "4096"]
    assert cli.main(argv) == 0
    assert hashed_features.cache_info().hits > before


def test_train_calls_each_traced_mstep_function_once_per_batch(perfbench, monkeypatch):
    # spans.py wraps bin_log_likelihood and grad_update wherever they are
    # bound, stacked's names included, and run.py books their time as
    # stacked.mstep_s and the rest of train_hard_em as stacked.estep_s.  An
    # M-step that stopped calling them would zero that split unseen.
    traced = {(module, attr) for _, module, attr, _ in perfbench["spans"].FUNCTIONS}
    calls = {name: 0 for name in ("bin_log_likelihood", "grad_update")}
    for name in calls:
        assert ("mgtstack.detectors", name) in traced
        assert getattr(stacked, name) is getattr(importlib.import_module("mgtstack.detectors"), name)

        def counted(*args, _name=name, _original=getattr(stacked, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(stacked, name, counted)
    docs = synth_corpus(SynthSpec(n_docs=40, seed=11))
    tc = TrainConfig(epochs=2, batch_size=12)
    stacked.train_hard_em(NGramLogRegModel.new(n=2, hash_buckets=4096), [(d, d.label) for d in docs], tc)
    batches = tc.epochs * math.ceil(len(docs) / tc.batch_size)
    assert calls == {"bin_log_likelihood": batches, "grad_update": batches}
