"""Flat key = value config files."""

from __future__ import annotations

import pytest

from mgtstack import InvalidConfig
from mgtstack.config import load_config_file


def write(tmp_path, body):
    path = tmp_path / "cfg.txt"
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_scalar_types(tmp_path):
    body = """\
# a comment
tau = 0.5
k = 3
training_free = true
stacked = FALSE
corpus = data/corpus.jsonl
name = "quoted value"

log-level = debug
"""
    values = load_config_file(write(tmp_path, body))
    assert values == {
        "tau": "0.5",  # numbers stay text; the command-line parser converts them
        "k": "3",
        "training_free": True,
        "stacked": False,
        "corpus": "data/corpus.jsonl",
        "name": "quoted value",
        "log_level": "debug",  # dashes normalize to underscores
    }


def test_bad_lines(tmp_path):
    with pytest.raises(InvalidConfig, match="line 1"):
        load_config_file(write(tmp_path, "just some words\n"))
    with pytest.raises(InvalidConfig, match="empty value"):
        load_config_file(write(tmp_path, "key =\n"))
    with pytest.raises(InvalidConfig, match="bad key"):
        load_config_file(write(tmp_path, "we?rd = 1\n"))


def test_missing_file():
    with pytest.raises(InvalidConfig, match="cannot read"):
        load_config_file("/nonexistent/config.txt")


def test_last_assignment_wins(tmp_path):
    values = load_config_file(write(tmp_path, "k = 1\nk = 2\n"))
    assert values == {"k": "2"}
