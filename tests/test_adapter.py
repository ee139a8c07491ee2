"""External detector adapter: line protocol, errors, and clamping."""

from __future__ import annotations

import json
import logging
import sys

import pytest

from mgtstack import AdapterProtocolError, ExternalDetector, InvalidConfig


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
