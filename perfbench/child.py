"""One timed verb in a fresh interpreter.

Usage: ``python3 child.py SPEC.json LAUNCHED`` where LAUNCHED is the
``time.monotonic()`` reading the parent took just before starting this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks agree).

The process sets up the way a user of ``mgtstack`` pays for it (import the
CLI, then ``load_model`` when the verb has a model file), drops the model,
and calls ``mgtstack.cli.main(argv)`` in-process.  It writes one JSON result
to the path named in the spec: exit code, set-up and verb seconds, peak RSS,
the ``hashed_features`` cache counters and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    launched = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)

    import mgtstack.cli
    from mgtstack.detectors import hashed_features, load_model, tokenize

    if spec["model"]:
        load_model(spec["model"])
    setup_s = time.monotonic() - launched

    import reference  # after set-up: the probe's own imports are not set-up cost

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    argv = spec["argv"]
    with reference.SpeedProbe() as probe:
        started = time.perf_counter()
        if recorder is None:
            code = mgtstack.cli.main(argv)
        else:
            code = recorder.span("cli." + argv[0], mgtstack.cli.main)(argv)
        wall_s = time.perf_counter() - started
    verb_s = wall_s - probe.inside_s  # the probes' own time is not verb time

    cache = hashed_features.cache_info()
    result = {
        "code": code,
        "setup_s": setup_s,
        "verb_s": verb_s,
        "probe_s": probe.samples,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hash_hits": cache.hits,
        "hash_misses": cache.misses,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["tokens_scored"] = sum(len(tokenize(t)) for t in recorder.scored_texts)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
