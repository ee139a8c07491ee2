"""mgtstack benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload long-lm --seed 1 --seconds 12 --trace 0

Workloads: long-lm, mixed-logreg, sim-grid, adapter (see workloads.py and
README.md).  The benchmark builds the workload's inputs from the seed, then
runs cycles of the workload's verbs for ``--seconds`` (stopping at the
nearest cycle boundary, after at least MIN_CYCLES cycles).  Load shape: one closed-loop client, one verb in flight,
``--jobs 1``.  Each verb runs in a fresh interpreter (child.py), because that
is what a user of ``mgtstack detect`` pays and because a warm
``hashed_features`` cache would otherwise couple repetitions.  After the loop
every output is checked against a recomputation from mgtstack's public
primitives and must repeat byte for byte across cycles.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the benchmark alternates untraced and
traced cycles and reports the per-layer metrics of the traced ones plus the
tracing overhead.  Human-readable tables go to stdout before that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

WORKLOADS = ("long-lm", "mixed-logreg", "sim-grid", "adapter")
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 4  # two untraced and two traced
VERB_TIMEOUT_S = 120.0

# name -> (unit, better); the result line of an untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "auroc": ("1", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-verb throughput, printed under the names the roadmap uses for it.
ARM_THROUGHPUT = {
    "stacked": ("stacked_docs_per_s", "docs/s"),
    "base": ("base_docs_per_s", "docs/s"),
    "train": ("train_docs_per_s", "doc-epochs/s"),
    "simulate": ("sim_trials_per_s", "trials/s"),
}

ARMS = ("base", "stacked", "train")


def _per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better).  Times are shares of traced verb time."""
    shares = (
        "cli.self",
        "corpus.load",
        "segmentation.split",
        "segmentation.group",
        "retention.mask",
        "detectors.score",
        *(f"detectors.{arm}.score" for arm in ARMS),
        "detectors.adapter",
        "detectors.load_model",
        "stacked.infer_self",
        "stacked.estep",
        "stacked.mstep",
        "evaluation.bootstrap",
        "evaluation.auroc",
        "theory.sample",
        "theory.other",
    )
    table = {name + "_pct": ("%", "lower") for name in shares}
    # Work the workload asks for: fixed per input, so more is never worse.
    for name in ("corpus.docs", "segmentation.sentences", "segmentation.groups", "retention.masks"):
        table[name] = ("count", "higher")
    table["segmentation.reconstructs"] = ("count", "lower")
    table["retention.filtered_frac"] = ("ratio", "higher")  # groups dropped / groups
    for arm in ARMS:
        table[f"detectors.{arm}.score_calls"] = ("count", "lower")
        table[f"detectors.{arm}.tokens_scored"] = ("count", "lower")
        table[f"detectors.{arm}.hash_hit_ratio"] = ("ratio", "higher")
    table.update(
        {
            "detectors.adapter_launches": ("count", "lower"),
            "detectors.adapter_texts": ("count", "lower"),
            "stacked.train_batches": ("count", "higher"),
            "stacked.tokens_ratio": ("ratio", "lower"),
            "stacked.cost_ratio": ("ratio", "lower"),
            "evaluation.bootstrap_calls": ("count", "higher"),
            "evaluation.auroc_calls": ("count", "lower"),
            "theory.points": ("count", "higher"),
            "trace.overhead_pct": ("%", "lower"),
        }
    )
    return table


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# running verbs


def run_verb(verb, traced: bool, work: Path, tag: str) -> dict:
    """Run one verb in a fresh interpreter; returns the child's result or an error."""
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec = {"argv": verb.argv, "model": verb.model, "trace": traced, "result": str(result_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    launched = time.monotonic()
    # A process group of its own, so a timeout also ends any adapter process
    # the verb started.
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(spec_path), repr(launched)],
        env=env,
        cwd=str(work),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        process_group=0,
    )
    try:
        _, stderr = proc.communicate(timeout=VERB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{verb.argv[0]} timed out after {VERB_TIMEOUT_S} s"}
    tail = (stderr.strip().splitlines() or [""])[-1]
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"{verb.argv[0]} runner exited {proc.returncode}: {tail}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    factor = reference.speed_factor(result["probe_s"])
    result["verb_ref_s"] = result["verb_s"] / factor
    result["setup_ref_s"] = result["setup_s"] / factor
    if result["code"] != 0:
        result["error"] = f"{verb.argv[0]} exited {result['code']}: {tail}"
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# per-layer figures from spans


def layer_table(cycle: list[tuple]) -> dict[str, float]:
    """Absolute per-layer seconds and counts for one traced cycle."""
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    t: dict[str, float] = defaultdict(float)
    for arm in ARMS:
        for key in ("tokens_scored", "hash_hits", "hash_lookups"):
            t[f"detectors.{arm}.{key}"] = 0
    for verb, res in cycle:
        spans = res["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, count) in enumerate(spans):
            key = f"detectors.{verb.arm}.score" if name == "detectors.score" else name
            self_s[key] += end - start - covered[i]
            incl_s[key] += end - start
            calls[key] += 1
            work[key] += count or 0
        t["cli.verb_s"] += spans[0][2] - spans[0][1]
        t["cli.self_s"] += self_s.pop(spans[0][0])
        if verb.arm in ARMS:
            t[f"detectors.{verb.arm}.tokens_scored"] += res["tokens_scored"]
            t[f"detectors.{verb.arm}.hash_hits"] += res["hash_hits"]
            t[f"detectors.{verb.arm}.hash_lookups"] += res["hash_hits"] + res["hash_misses"]

    t["corpus.load_s"] = self_s["corpus.load_corpus"]
    t["corpus.docs"] = work["corpus.load_corpus"]
    t["segmentation.split_s"] = self_s["segmentation.split_sentences"]
    t["segmentation.sentences"] = work["segmentation.split_sentences"]
    t["segmentation.group_s"] = sum(
        self_s[f"segmentation.{n}"] for n in ("group_subsequences", "group_texts", "reconstruct")
    )
    t["segmentation.groups"] = work["segmentation.group_subsequences"]
    t["segmentation.reconstructs"] = calls["segmentation.reconstruct"]
    t["retention.mask_s"] = self_s["retention.compute_mask"]
    t["retention.masks"] = calls["retention.compute_mask"]
    t["retention.filtered_frac"] = _ratio(work["retention.compute_mask"], t["segmentation.groups"])
    for arm in ARMS:
        key = f"detectors.{arm}.score"
        t[key + "_s"] = self_s[key]
        t[key + "_calls"] = calls[key]
        hits, lookups = t.pop(f"detectors.{arm}.hash_hits"), t.pop(f"detectors.{arm}.hash_lookups")
        t[f"detectors.{arm}.hash_hit_ratio"] = _ratio(hits, lookups)
    t["detectors.score_s"] = sum(t[f"detectors.{arm}.score_s"] for arm in ARMS)
    t["detectors.adapter_s"] = self_s["detectors.adapter"]
    t["detectors.adapter_launches"] = calls["detectors.adapter"]
    t["detectors.adapter_texts"] = work["detectors.adapter"]
    t["detectors.load_model_s"] = self_s["detectors.load_model"]
    t["stacked.infer_self_s"] = self_s["stacked.stacked_infer_detail"]
    mstep = incl_s["detectors.grad_update"] + incl_s["detectors.bin_log_likelihood"]
    t["stacked.estep_s"] = incl_s["stacked.train_hard_em"] - mstep if calls["stacked.train_hard_em"] else 0.0
    t["stacked.mstep_s"] = mstep
    t["stacked.train_batches"] = calls["detectors.grad_update"]
    t["stacked.tokens_ratio"] = _ratio(t["detectors.stacked.tokens_scored"], t["detectors.base.tokens_scored"])
    # Inclusive: the bootstrap's own resampling plus the auroc calls it makes.
    t["evaluation.bootstrap_s"] = incl_s["evaluation.bootstrap_auroc_ci"]
    t["evaluation.bootstrap_calls"] = calls["evaluation.bootstrap_auroc_ci"]
    t["evaluation.auroc_s"] = self_s["evaluation.auroc"]
    t["evaluation.auroc_calls"] = calls["evaluation.auroc"]
    t["theory.sample_s"] = self_s["theory.sample_texts"]
    t["theory.points"] = work["theory.run_experiment"]
    t["theory.other_s"] = self_s["theory.run_experiment"]
    return dict(t)


def per_layer_metrics(table: dict[str, float]) -> dict[str, float]:
    """The result line's per-layer metrics: times as shares of traced verb time."""
    out = {}
    for name in PER_LAYER:
        if name.endswith("_pct") and name != "trace.overhead_pct":
            out[name] = 100.0 * _ratio(table[name[: -len("_pct")] + "_s"], table["cli.verb_s"])
        else:
            out[name] = table[name]
    return out


# ---------------------------------------------------------------------------
# one benchmark run


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, tamper=None) -> dict:
    """Build, measure, check.  ``tamper(verb_index, cycle, path)`` may edit an
    output before it is read; the benchmark's tests use it to prove the
    checks can fail."""
    import workloads

    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.monotonic()
        wl = workloads.build(name, work, seed, tiny)
        build_s = time.monotonic() - started
        cycles: list[list[tuple]] = []
        outputs: dict[str, bytes] = {}  # digest -> bytes
        t0 = time.monotonic()
        min_cycles = MIN_TRACED_CYCLES if trace else MIN_CYCLES
        while True:
            # Stop at the cycle boundary closest to --seconds, after min_cycles.
            elapsed = time.monotonic() - t0
            if len(cycles) >= min_cycles and elapsed + 0.5 * elapsed / len(cycles) > seconds:
                break
            traced = trace and len(cycles) % 2 == 1
            cycle = []
            for i, verb in enumerate(wl.verbs):
                res = run_verb(verb, traced, work, f"c{len(cycles)}v{i}")
                res["traced"] = traced
                if "error" not in res:
                    if tamper is not None:
                        tamper(i, len(cycles), verb.output)
                    data = Path(verb.output).read_bytes()
                    res["digest"] = hashlib.sha256(data).hexdigest()
                    outputs.setdefault(res["digest"], data)
                cycle.append((verb, res))
            cycles.append(cycle)
        measure_s = time.monotonic() - t0

        problems = check_outputs(wl, cycles, outputs)
        ops = [res for cycle in cycles for _, res in cycle]
        report = {
            "workload": name,
            "seed": seed,
            "attempted": len(ops),
            "failed": sum(1 for res in ops if "error" in res),
            "problems": problems,
            "build_s": build_s,
            "measure_s": measure_s,
            "cycles": len(cycles),
        }
        first_ok = {}
        for cycle in cycles:
            for verb, res in cycle:
                if "error" not in res:
                    first_ok.setdefault(verb.arm, outputs[res["digest"]])
        if len(first_ok) < len(wl.verbs):
            return report  # some verb never succeeded: no metrics
        report["quality"] = wl.quality(first_ok)
        plain = [c for c in cycles if not c[0][1]["traced"]]
        report["verbs"] = verb_summary(wl, plain)
        report["end_to_end"] = end_to_end(plain, report["quality"])
        traced = [c for c in cycles if c[0][1]["traced"] and all("error" not in r for _, r in c)]
        if traced:
            report["layers"] = layer_summary(traced, plain, report["verbs"])
            write_spans(name, seed, cycles)
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_outputs(wl, cycles, outputs) -> list[str]:
    """Mark failed operations in place; returns the problems found."""
    problems = []
    verdicts: dict[str, list[str]] = {}
    for i, verb in enumerate(wl.verbs):
        first = None
        for c, cycle in enumerate(cycles):
            res = cycle[i][1]
            if "error" in res:
                problems.append(f"cycle {c} {verb.argv[0]}: {res['error']}")
                continue
            digest = res["digest"]
            if digest not in verdicts:
                verdicts[digest] = verb.check(outputs[digest])
            first = first or digest
            found = list(verdicts[digest])
            if digest != first:
                found.append(f"output differs from cycle 0 ({digest[:12]} vs {first[:12]})")
            if found:
                res["error"] = found[0]
                problems.extend(f"cycle {c} {verb.argv[0]}: {p}" for p in found)
    return problems


def verb_summary(wl, plain) -> list[dict]:
    rows = []
    for i, verb in enumerate(wl.verbs):
        ok = [cycle[i][1] for cycle in plain if "error" not in cycle[i][1]]
        name, unit = ARM_THROUGHPUT[verb.arm]
        row = {"verb": verb.argv[0], "arm": verb.arm, "items": verb.items, "runs": len(ok)}
        for key in ("verb_s", "verb_ref_s", "setup_s", "setup_ref_s"):
            row[key] = _median([res[key] for res in ok])
        row.update(
            throughput_name=name,
            throughput_unit=unit,
            throughput=_ratio(verb.items, row["verb_ref_s"]),
            raw_throughput=_ratio(verb.items, row["verb_s"]),
        )
        rows.append(row)
    return rows


def end_to_end(plain, quality) -> dict[str, float]:
    ok = [res for cycle in plain for _, res in cycle if "error" not in res]
    per_cycle = [
        _ratio(sum(v.items for v, _ in c), sum(r["verb_ref_s"] for _, r in c))
        for c in plain
        if all("error" not in r for _, r in c)
    ]
    return {
        "setup_s": _median([res["setup_ref_s"] for res in ok]),
        "items_per_s": _median(per_cycle),
        "auroc": quality["auroc"],
        "peak_rss_mb": max(res["rss_mb"] for res in ok),
    }


def layer_summary(traced, plain, verbs) -> dict:
    tables = [layer_table(c) for c in traced]
    keys = sorted({k for t in tables for k in t})
    table = {k: _median([t.get(k, 0.0) for t in tables]) for k in keys}
    plain_s = [sum(r["verb_ref_s"] for _, r in c) for c in plain if all("error" not in r for _, r in c)]
    traced_s = [sum(r["verb_ref_s"] for _, r in c) for c in traced]
    by_arm = {row["arm"]: row["verb_ref_s"] for row in verbs}
    table["stacked.cost_ratio"] = _ratio(by_arm.get("stacked", 0.0), by_arm.get("base", 0.0))
    table["trace.overhead_pct"] = 100.0 * (_ratio(_median(traced_s), _median(plain_s)) - 1.0) if plain_s else 0.0
    return table


def write_spans(name: str, seed: int, cycles) -> None:
    """All spans of the run, one JSON line each, written when the run ends."""
    OUT_ROOT.mkdir(exist_ok=True)
    with open(OUT_ROOT / f"spans-{name}.jsonl", "w", encoding="utf-8") as fh:
        for c, cycle in enumerate(cycles):
            for verb, res in cycle:
                run_id = f"{name}/{seed}/c{c}/{verb.argv[0]}"
                for i, (span, start, end, parent, count) in enumerate(res.get("spans", ())):
                    fh.write(
                        json.dumps(
                            {"run": run_id, "id": i, "name": span, "start": start, "end": end, "parent": parent, "count": count}
                        )
                        + "\n"
                    )


# ---------------------------------------------------------------------------
# output


def print_report(report: dict, trace: bool) -> None:
    w = sys.stdout.write
    w(
        f"workload {report['workload']} seed {report['seed']}: {report['cycles']} cycles in "
        f"{report['measure_s']:.1f} s (inputs built in {report['build_s']:.1f} s, outside timing)\n"
    )
    for row in report.get("verbs", ()):
        w(
            f"  {row['verb']:<9} {row['throughput_name']} = {row['throughput']:.4g} {row['throughput_unit']} "
            f"(higher is better; {row['items']} items, median {row['verb_ref_s']:.4f} s over {row['runs']} fresh "
            f"interpreters, setup {row['setup_ref_s']:.4f} s; as measured {row['raw_throughput']:.4g} "
            f"{row['throughput_unit']}, {row['verb_s']:.4f} s, setup {row['setup_s']:.4f} s)\n"
        )
    for key, value in sorted(report.get("quality", {}).items()):
        if key != "auroc":
            w(f"  {key} = {value:.6f} (higher is better)\n")
    w(f"  failed_ops_frac = {_ratio(report['failed'], report['attempted']):.4f} (lower is better)\n")
    for problem in report["problems"][:10]:
        w(f"  CHECK FAILED: {problem}\n")
    for key, value in report.get("end_to_end", {}).items():
        unit, better = END_TO_END[key]
        w(f"  end-to-end {key} = {value:.6g} {unit} ({better} is better)\n")
    if trace:
        table = report["layers"]
        w("  traced per-layer medians (self seconds unless named otherwise):\n")
        for key in sorted(table):
            w(f"    {key:<36} {table[key]:.6g}\n")


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in per_layer_metrics(report["layers"]).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in report["end_to_end"].items()}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def import_program() -> None:
    """Put this checkout's src/ first on the path and import mgtstack from it."""
    if not (SRC / "mgtstack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mgtstack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mgtstack

    if Path(mgtstack.__file__).resolve().parent != (SRC / "mgtstack").resolve():
        raise SystemExit(f"perfbench: imported mgtstack from {mgtstack.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if "end_to_end" not in report or (args.trace and "layers" not in report):
        sys.stderr.write("perfbench: no metrics, a verb never succeeded:\n" + "\n".join(report["problems"][:10]) + "\n")
        return 1
    print_report(report, bool(args.trace))
    sys.stdout.write(json.dumps(result_line(report, bool(args.trace))) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
