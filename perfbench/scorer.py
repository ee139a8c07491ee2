"""Stdlib-only external detector for the ``adapter`` workload.

Speaks the line protocol of ``mgtstack detect --adapter``: one JSON-encoded
text per stdin line in, one decimal score in [0, 1] per stdout line out, same
order, exit 0.  It imports nothing outside the standard library, so each
launch costs an interpreter start and not a numpy import.

The score is deterministic and tuned to the synthetic corpora of
``mgtstack.synthdata``: pseudo-words there start with a class-specific onset
(machine m/n/p/r/k, human b/d/g/l/f, shared s/t/v/z/w).  The score is the
sigmoid of (machine-onset words - human-onset words) / sqrt(words + 1).

Run it by hand with ``echo '"Mapa neki."' | python3 perfbench/scorer.py``.
"""

from __future__ import annotations

import json
import math
import re
import sys

_WORD_RE = re.compile(r"[a-z0-9']+")
_MACHINE_ONSETS = frozenset("mnprk")
_HUMAN_ONSETS = frozenset("bdglf")


def score(text: str) -> float:
    words = _WORD_RE.findall(text.casefold())
    machine = sum(1 for w in words if w[0] in _MACHINE_ONSETS)
    human = sum(1 for w in words if w[0] in _HUMAN_ONSETS)
    z = (machine - human) / math.sqrt(len(words) + 1)
    return 1.0 / (1.0 + math.exp(-z))


def main() -> int:
    out = [f"{score(json.loads(line))!r}\n" for line in sys.stdin if line.strip()]
    sys.stdout.write("".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
