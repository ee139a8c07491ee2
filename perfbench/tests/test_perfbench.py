"""Self-tests of the benchmark: every workload at a tiny size, and checks
that fail when an output is perturbed.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name, trace=False, tamper=None):
    return run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True, tamper=tamper)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_is_correct_and_reports_every_end_to_end_metric(name):
    report = _tiny(name)
    assert report["failed"] == 0, report["problems"]
    assert report["attempted"] >= run.MIN_CYCLES
    line = run.result_line(report, trace=False)
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert (metric["unit"], metric["better"]) == run.END_TO_END[metric["name"]]
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    report = _tiny(name, trace=True)
    assert report["failed"] == 0, report["problems"]
    line = run.result_line(report, trace=True)
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert (metric["unit"], metric["better"]) == run.PER_LAYER[metric["name"]]
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    layers = report["layers"]
    top = {
        "long-lm": "detectors.score_s",
        "sim-grid": "evaluation.bootstrap_s",
        "adapter": "detectors.adapter_s",
    }.get(name)
    if top is not None:
        exclude = ("cli.verb_s", "stacked.estep_s", "stacked.mstep_s")
        self_times = [k for k in layers if k.endswith("_s") and k.count(".") == 1 and k not in exclude]
        assert max(self_times, key=layers.get) == top
    if name == "mixed-logreg":
        assert layers["stacked.estep_s"] > 0 and layers["stacked.mstep_s"] > 0
        assert layers["detectors.train.hash_hit_ratio"] > 0


def _perturb_first_score(verb_index, cycle, path):
    if verb_index != 0 or not path.endswith("detect.jsonl"):
        return
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    row["score"] = math.nextafter(row["score"], 2.0)
    lines[0] = json.dumps(row, sort_keys=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", ["long-lm", "adapter"])
def test_perturbed_detect_score_counts_as_failed(name):
    # Every cycle gets the same perturbation, so only the recomputation can
    # catch it: the outputs still repeat byte for byte.
    report = _tiny(name, tamper=_perturb_first_score)
    assert report["failed"] == report["cycles"]
    assert any("detect row" in p for p in report["problems"])
    assert "end_to_end" not in report  # no metrics without one good detect


def _set_csv_cell(path, column, value):
    rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8"))))
    rows[1][rows[0].index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def test_perturbed_csv_cell_counts_as_failed():
    report = _tiny("sim-grid", tamper=lambda i, c, path: _set_csv_cell(path, "ci_hi", "0.0"))
    assert report["failed"] == report["attempted"]
    assert any("simulate row" in p for p in report["problems"])


def test_output_that_changes_between_cycles_counts_as_failed():
    # ci_hi = 1.0 keeps every row within its bounds; only repetition differs.
    def tamper(i, cycle, path):
        if cycle == 1:
            _set_csv_cell(path, "ci_hi", "1.0")

    report = _tiny("sim-grid", tamper=tamper)
    assert report["failed"] == 1
    assert any("differs from cycle 0" in p for p in report["problems"])
    assert run.result_line(report, trace=False)["correct"] is False


def test_train_model_that_changes_between_cycles_counts_as_failed():
    def tamper(i, cycle, path):
        if i == 0 and cycle == 2:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            payload["bias"] = payload["bias"] + 1.0
            Path(path).write_text(json.dumps(payload), encoding="utf-8")

    report = _tiny("mixed-logreg", tamper=tamper)
    assert report["failed"] == 1
    assert any("train" in p and "differs" in p for p in report["problems"])


def test_benchmark_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sim-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
