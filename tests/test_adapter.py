"""External detector adapter: line protocol, errors, and clamping."""

from __future__ import annotations

import json
import logging
import subprocess
import sys

import pytest

from mgtstack import AdapterProtocolError, Document, ExternalDetector, FilterConfig, InvalidConfig, score_corpus
from mgtstack import stacked


def write_script(tmp_path, body: str) -> tuple[str, ...]:
    path = tmp_path / "adapter.py"
    path.write_text(body, encoding="utf-8")
    return (sys.executable, str(path))


ECHO_EMBEDDED = """\
import json, sys
for line in sys.stdin:
    text = json.loads(line)
    print(text.split("=")[-1])
"""

CONSTANT = """\
import sys
for line in sys.stdin:
    print(0.25)
"""


def test_constant_adapter(tmp_path):
    det = ExternalDetector(write_script(tmp_path, CONSTANT))
    assert det.score("whatever") == 0.25
    assert det.score_batch(["a", "b", "c"]) == [0.25, 0.25, 0.25]


def test_order_preserved_with_embedded_newlines(tmp_path):
    det = ExternalDetector(write_script(tmp_path, ECHO_EMBEDDED))
    texts = ["first\nline=0.1", "second=0.9", "third\n\ntext=0.5"]
    assert det.score_batch(texts) == [0.1, 0.9, 0.5]


def test_texts_are_json_encoded_per_line(tmp_path):
    # The child sees one JSON string per line even when the text itself has
    # newlines; it decodes and measures the original length.
    body = """\
import json, sys
for line in sys.stdin:
    text = json.loads(line)
    print(1.0 if "\\n" in text else 0.0)
"""
    det = ExternalDetector(write_script(tmp_path, body))
    assert det.score_batch(["has\nnewline", "flat"]) == [1.0, 0.0]


def test_empty_batch_short_circuits():
    det = ExternalDetector(("/nonexistent/never-runs",))
    assert det.score_batch([]) == []


def test_count_mismatch_raises(tmp_path):
    body = """\
import sys
lines = sys.stdin.readlines()
for _ in lines[:-1]:
    print(0.5)
"""
    det = ExternalDetector(write_script(tmp_path, body))
    with pytest.raises(AdapterProtocolError, match="1 scores for 2"):
        det.score_batch(["a", "b"])


def test_nonzero_exit_raises(tmp_path):
    body = "import sys; sys.stderr.write('boom\\n'); sys.exit(3)"
    det = ExternalDetector(write_script(tmp_path, body))
    with pytest.raises(AdapterProtocolError, match="code 3"):
        det.score("a")


def test_non_numeric_output_raises(tmp_path):
    body = "import sys\nfor line in sys.stdin: print('not-a-number')"
    det = ExternalDetector(write_script(tmp_path, body))
    with pytest.raises(AdapterProtocolError, match="not a number"):
        det.score("a")


def test_nan_output_raises(tmp_path):
    body = "import sys\nfor line in sys.stdin: print('nan')"
    det = ExternalDetector(write_script(tmp_path, body))
    with pytest.raises(AdapterProtocolError, match="NaN"):
        det.score("a")


def test_out_of_range_clamped_with_warning(tmp_path, caplog):
    body = "import sys\nfor line in sys.stdin: print(1.5)"
    det = ExternalDetector(write_script(tmp_path, body))
    with caplog.at_level(logging.WARNING, logger="mgtstack.detectors"):
        assert det.score("a") == 1.0
    assert any("clamped" in rec.message for rec in caplog.records)

    body = "import sys\nfor line in sys.stdin: print(-0.25)"
    det = ExternalDetector(write_script(tmp_path, body))
    with caplog.at_level(logging.WARNING, logger="mgtstack.detectors"):
        assert det.score("a") == 0.0


def test_missing_binary_raises(tmp_path):
    det = ExternalDetector(("/nonexistent/never-runs",))
    with pytest.raises(AdapterProtocolError, match="cannot launch"):
        det.score("a")


def test_timeout_raises(tmp_path):
    body = "import time, sys\nsys.stdin.read()\ntime.sleep(30)"
    det = ExternalDetector(write_script(tmp_path, body), timeout=0.5)
    with pytest.raises(AdapterProtocolError, match="timed out"):
        det.score("a")


def test_empty_command_rejected():
    with pytest.raises(InvalidConfig):
        ExternalDetector(())


@pytest.mark.parametrize("command", ["python3", ("python3", 5), ["python3"], (b"python3",)])
def test_command_must_be_tuple_of_str(command):
    # A bare string would run one character at a time: "cannot launch adapter 'p'".
    with pytest.raises(InvalidConfig, match="tuple of str"):
        ExternalDetector(command)


@pytest.mark.parametrize("timeout", [-1.0, 0.0, float("inf"), float("nan")])
def test_timeout_must_be_finite_and_positive(timeout):
    with pytest.raises(InvalidConfig, match="timeout"):
        ExternalDetector(("cat",), timeout=timeout)


def test_scores_round_trip_json_strings(tmp_path):
    # Exotic text must arrive intact: the adapter reports the decoded length.
    body = """\
import json, sys
for line in sys.stdin:
    text = json.loads(line)
    print(min(1.0, len(text) / 100))
"""
    det = ExternalDetector(write_script(tmp_path, body))
    text = 'quoted "stuff" and \t tabs \n plus café'
    assert det.score(text) == min(1.0, len(text) / 100)


def test_output_that_is_not_utf8_raises(tmp_path):
    body = "import sys\nfor line in sys.stdin: sys.stdout.buffer.write(b'0.5\\xff\\n')"
    det = ExternalDetector(write_script(tmp_path, body))
    with pytest.raises(AdapterProtocolError, match="not UTF-8"):
        det.score("a")


def test_stderr_that_is_not_utf8_is_replaced_in_the_message(tmp_path):
    body = "import sys\nsys.stdin.read()\nsys.stderr.buffer.write(b'bad \\xff\\xfe tail')\nsys.exit(2)"
    det = ExternalDetector(write_script(tmp_path, body))
    with pytest.raises(AdapterProtocolError, match="code 2: bad \ufffd\ufffd tail"):
        det.score("a")


# --------------------------------------------------------------------------
# the stacked route's processes

DOCS = [Document.from_text(f"d{i}", "Mapa neki. Bodo lafi. Sota vira. Kemo rupa.") for i in range(3)]
CFG = FilterConfig(tau=0.5, k=1)


def launched(events) -> list[subprocess.Popen]:
    return [proc for kind, proc in events if kind == "launch"]


def assert_all_reaped(events) -> None:
    for proc in launched(events):
        assert proc.returncode is not None, "an adapter process is still running"
        assert proc.stdin.closed and proc.stdout.closed and proc.stderr.closed


def test_pass_two_process_starts_before_pass_one_is_fed(tmp_path, popens):
    events, _, _ = popens
    det = ExternalDetector(write_script(tmp_path, CONSTANT))
    assert [r.score for r in score_corpus(det, DOCS, CFG)] == [0.25] * len(DOCS)
    first, second = launched(events)
    assert events == [("launch", first), ("launch", second), ("feed", first), ("feed", second)]
    assert_all_reaped(events)


def test_no_pass_one_texts_launches_one_process(tmp_path, popens):
    events, _, _ = popens
    det = ExternalDetector(write_script(tmp_path, CONSTANT))
    assert [r.score for r in score_corpus(det, DOCS, FilterConfig(tau=0.0, k=1))] == [0.25] * len(DOCS)
    (only,) = launched(events)
    assert events == [("launch", only), ("feed", only)]
    assert_all_reaped(events)


def test_nested_stacked_base_hands_off_within_each_route(tmp_path, popens):
    events, _, _ = popens
    inner = stacked.StackedDetector(ExternalDetector(write_script(tmp_path, CONSTANT)), CFG)
    assert [r.score for r in score_corpus(inner, DOCS[:1], CFG)] == [0.25]
    # The outer route scores its 4 one-sentence groups through the inner
    # one, one launch each since a lone group has no budget, then its
    # retained text, with two launches.
    assert len(launched(events)) == 4 + 2
    assert_all_reaped(events)


EXIT_AFTER_READING = "import sys\nsys.stdin.read()\nsys.exit(3)"
SLEEP_AFTER_READING = "import sys, time\nsys.stdin.read()\ntime.sleep(30)"
PRINT_NOTHING = "import sys\nsys.stdin.read()"


@pytest.mark.parametrize(
    "body, timeout, match",
    [
        # Pass 1 fails while pass 2's process waits on stdin.
        (EXIT_AFTER_READING, None, "code 3"),
        (SLEEP_AFTER_READING, 0.5, "timed out"),
        (PRINT_NOTHING, None, "0 scores for 12 texts"),
    ],
    ids=["exit", "timeout", "count"],
)
def test_failed_pass_one_leaves_no_process(tmp_path, popens, body, timeout, match):
    events, _, _ = popens
    det = ExternalDetector(write_script(tmp_path, body), timeout=timeout)
    with pytest.raises(AdapterProtocolError, match=match):
        score_corpus(det, DOCS, CFG)
    assert len(launched(events)) == 2
    assert_all_reaped(events)


def test_failed_launch_ahead_leaves_no_process(tmp_path, popens):
    events, fail_launches, _ = popens
    fail_launches.add(2)
    det = ExternalDetector(write_script(tmp_path, CONSTANT))
    with pytest.raises(AdapterProtocolError, match="cannot launch"):
        score_corpus(det, DOCS, CFG)
    assert len(launched(events)) == 1
    assert_all_reaped(events)


def test_error_between_the_passes_leaves_no_process(tmp_path, popens, monkeypatch):
    events, _, _ = popens

    def broken_rule(scores, cfg):
        raise RuntimeError("mask rule failed")

    monkeypatch.setattr(stacked, "compute_mask", broken_rule)
    det = ExternalDetector(write_script(tmp_path, CONSTANT))
    with pytest.raises(RuntimeError, match="mask rule failed"):
        score_corpus(det, DOCS, CFG)
    assert len(launched(events)) == 2
    assert_all_reaped(events)


@pytest.mark.parametrize("feed", [1, 2])
def test_keyboard_interrupt_leaves_no_process(tmp_path, popens, feed):
    events, _, interrupt_feeds = popens
    interrupt_feeds.add(feed)
    det = ExternalDetector(write_script(tmp_path, CONSTANT))
    with pytest.raises(KeyboardInterrupt):
        score_corpus(det, DOCS, CFG)
    assert len(launched(events)) == 2
    assert_all_reaped(events)
