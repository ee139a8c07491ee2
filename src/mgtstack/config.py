"""Flat key = value configuration files.

The format is a TOML-like subset: one ``key = value`` pair per line, ``#``
comments, no sections.  ``true`` and ``false`` (any case) become booleans for
switches, and quotes around a value are stripped; every other value stays
text, which the command-line parser converts as it converts its flags.  CLI
flags always override file values.
"""

from __future__ import annotations

from .errors import InvalidConfig


def _parse_scalar(raw: str, lineno: int):
    raw = raw.strip()
    if not raw:
        raise InvalidConfig(f"config line {lineno}: empty value")
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def load_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config file {path!r}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidConfig(f"config line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if not key.replace("_", "").isalnum():
            raise InvalidConfig(f"config line {lineno}: bad key {key!r}")
        values[key] = _parse_scalar(raw, lineno)
    return values
