"""Span recording for traced benchmark runs.

Only a traced verb process imports this module.  ``install`` wraps public
mgtstack functions at every module attribute that holds them (so
``mgtstack.stacked.compute_mask`` is wrapped as well as
``mgtstack.retention.compute_mask``) and detector methods on their class.
Nothing under ``src/`` is edited; untraced runs install no wrappers.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span in the same verb process (-1 for the root) and ``count`` is
a per-call work count (documents, sentences, groups, dropped groups, texts)
taken from the call's arguments or result after the span has closed.  Spans
stay in memory until the verb ends; the runner writes them out with the run
id when the benchmark run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute, work count from (args, result) or None)
FUNCTIONS = (
    ("corpus.load_corpus", "mgtstack.corpus", "load_corpus", lambda a, r: len(r)),
    ("segmentation.split_sentences", "mgtstack.segmentation", "split_sentences", lambda a, r: len(r)),
    ("segmentation.group_subsequences", "mgtstack.segmentation", "group_subsequences", lambda a, r: len(r)),
    ("segmentation.group_texts", "mgtstack.segmentation", "group_texts", None),
    ("segmentation.reconstruct", "mgtstack.segmentation", "reconstruct", None),
    ("retention.compute_mask", "mgtstack.retention", "compute_mask", lambda a, r: r.n_filtered),
    ("detectors.load_model", "mgtstack.detectors", "load_model", None),
    ("detectors.grad_update", "mgtstack.detectors", "grad_update", None),
    ("detectors.bin_log_likelihood", "mgtstack.detectors", "bin_log_likelihood", None),
    ("stacked.stacked_infer_detail", "mgtstack.stacked", "stacked_infer_detail", None),
    ("stacked.train_hard_em", "mgtstack.stacked", "train_hard_em", None),
    ("evaluation.auroc", "mgtstack.evaluation", "auroc", None),
    ("evaluation.bootstrap_auroc_ci", "mgtstack.evaluation", "bootstrap_auroc_ci", None),
    ("theory.sample_texts", "mgtstack.theory", "sample_texts", None),
    ("theory.run_experiment", "mgtstack.theory", "run_experiment", lambda a, r: len(r)),
)

# (span name, module, class, method, work count); scored texts are kept too.
METHODS = (
    ("detectors.score", "mgtstack.detectors", "NGramLMDetector", "score", None),
    ("detectors.score", "mgtstack.detectors", "NGramLogRegModel", "score", None),
    ("detectors.adapter", "mgtstack.detectors", "ExternalDetector", "score_batch", lambda a, r: len(r)),
)


class Recorder:
    """Keeps the spans of one verb process in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.scored_texts: list[str] = []
        self._open: list[int] = []

    def span(self, name: str, fn, count=None, keep_text: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                record[4] = count(args, result)
            if keep_text:
                self.scored_texts.append(args[1])
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every traced function and method; mgtstack must be imported."""
    modules = [m for n, m in list(sys.modules.items()) if n == "mgtstack" or n.startswith("mgtstack.")]
    for name, module, attr, count in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        wrapped = recorder.span(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for name, module, cls_name, method, count in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        keep_text = name == "detectors.score"
        setattr(cls, method, recorder.span(name, getattr(cls, method), count, keep_text))
