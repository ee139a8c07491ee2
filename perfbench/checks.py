"""Output checkers.  Each returns a list of problems; empty means correct.

They run in the benchmark process, outside every timed region, and
recompute what the verb printed from mgtstack's public primitives.
"""

from __future__ import annotations

import csv
import io
import json
import math

from mgtstack.corpus import load_corpus
from mgtstack.detectors import NGramLogRegModel, load_model
from mgtstack.evaluation import evaluate_scores
from mgtstack.retention import FilterConfig, compute_mask
from mgtstack.segmentation import group_subsequences, group_texts, reconstruct
from mgtstack.theory import CSV_COLUMNS

MAX_REPORTED = 5


def expected_detect_row(base, doc, fc: FilterConfig) -> dict:
    """The reference two-pass result for one document."""
    subseq = group_subsequences(doc, fc.k)
    n_groups = len(subseq)
    if fc.budget(n_groups) == 0:
        return {"id": doc.id, "score": base.score(doc.text), "n_groups": n_groups, "n_filtered": 0}
    mask = compute_mask([base.score(t) for t in group_texts(doc, subseq)], fc)
    retained = doc.text if all(mask) else reconstruct(doc, subseq, mask)
    return {"id": doc.id, "score": base.score(retained), "n_groups": n_groups, "n_filtered": mask.n_filtered}


def check_detect(output: bytes, corpus_path: str, base, fc: FilterConfig) -> list[str]:
    """Every row must equal the recomputed one bit for bit, in corpus order."""
    docs = load_corpus(corpus_path)
    try:
        rows = [json.loads(line) for line in output.decode("utf-8").splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"detect output is not JSONL: {exc}"]
    if len(rows) != len(docs):
        return [f"detect wrote {len(rows)} rows for {len(docs)} documents"]
    problems = []
    for row, doc in zip(rows, docs):
        want = expected_detect_row(base, doc, fc)
        got = {key: row.get(key) for key in want}
        if got != want or type(got["score"]) is not float:
            problems.append(f"detect row {doc.id}: got {got}, want {want}")
            if len(problems) == MAX_REPORTED:
                break
    return problems


def check_eval(output: bytes, corpus_path: str, base, seed: int) -> list[str]:
    """The base-arm report must match metrics recomputed from base.score."""
    docs = load_corpus(corpus_path)
    try:
        report = json.loads(output)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"eval output is not JSON: {exc}"]
    want = evaluate_scores([base.score(d.text) for d in docs], [d.label for d in docs], seed=seed)
    problems = []
    for key in ("auroc", "n_pos", "n_neg", "seed"):
        if report.get(key) != getattr(want, key):
            problems.append(f"eval {key}: got {report.get(key)!r}, want {getattr(want, key)!r}")
    want_tpr = {repr(k): v for k, v in want.tpr_at_fpr.items()}
    if report.get("tpr_at_fpr") != want_tpr:
        problems.append(f"eval tpr_at_fpr: got {report.get('tpr_at_fpr')!r}, want {want_tpr!r}")
    return problems


def check_simulate(output: bytes, grid: list[tuple[int, float]], trials: int) -> list[str]:
    """Documented columns, one row per grid point, 0 <= ci_lo <= auroc <= ci_hi <= 1."""
    try:
        table = list(csv.reader(io.StringIO(output.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"simulate output is not CSV: {exc}"]
    if not table or tuple(table[0][: len(CSV_COLUMNS)]) != CSV_COLUMNS:
        return [f"simulate header {table[:1]!r} does not start with {CSV_COLUMNS!r}"]
    header, rows = table[0], table[1:]
    if len(rows) != len(grid):
        return [f"simulate wrote {len(rows)} rows for {len(grid)} grid points"]
    problems = []
    for (n, alpha), cells in zip(grid, rows):
        row = dict(zip(header, cells))
        try:
            lo, auc, hi = float(row["ci_lo"]), float(row["auroc"]), float(row["ci_hi"])
            shape = (int(row["n"]), float(row["alpha"]), int(row["n_pos"]), int(row["n_neg"]))
        except (KeyError, ValueError) as exc:
            problems.append(f"simulate row {cells!r}: {exc}")
            continue
        if not (0.0 <= lo <= auc <= hi <= 1.0):
            problems.append(f"simulate row n={n} alpha={alpha}: not 0 <= {lo} <= {auc} <= {hi} <= 1")
        if shape != (n, alpha, trials, trials):
            problems.append(f"simulate row {shape} does not match grid point {(n, alpha, trials, trials)}")
    return problems


def check_train(model_path: str, n: int, hash_buckets: int) -> list[str]:
    """The trained model loads as the configured logistic model with finite weights."""
    model = load_model(model_path)
    if not isinstance(model, NGramLogRegModel):
        return [f"train wrote a {type(model).__name__}, not an NGramLogRegModel"]
    problems = []
    if (model.n, model.hash_buckets) != (n, hash_buckets):
        problems.append(f"train model has n={model.n}, buckets={model.hash_buckets}")
    if not (math.isfinite(model.bias) and bool((abs(model.weights) < math.inf).all())):
        problems.append("train model has non-finite parameters")
    if not model.weights.any():
        problems.append("train model weights are all zero")
    return problems
