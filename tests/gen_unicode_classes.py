"""Generate ``src/rtt_ape/unicode_classes.py``: the inclusive code-point
ranges of the Unicode general categories P (punctuation) and S (symbol),
which the international tokenizer pads, and Nd (decimal digit), next to
which it leaves a period or comma alone, read from ``unicodedata``.

Run it under a Python whose ``unicodedata.unidata_version`` is the pinned
version (14.0.0: Python 3.11):

    python3.11 tests/gen_unicode_classes.py

The tokenizer reads only the checked-in module, so its tokens do not
depend on the Unicode version of the Python that runs it.  Regenerating
under another version changes tokens and so scores: a declared behaviour
change, which also changes ``UNICODE_VERSION`` in every ``bleu`` output.
"""

from __future__ import annotations

import sys
import textwrap
import unicodedata
from pathlib import Path

MODULE = Path(__file__).resolve().parents[1] / "src" / "rtt_ape" / "unicode_classes.py"

HEADER = '''"""The Unicode {version} general categories P (punctuation), S (symbol) and
Nd (decimal digit), as inclusive code-point ranges in hex, "first-last", in
code-point order.  The international tokenizer builds its classes from these
tables, so its tokens do not depend on the Unicode version of the running
Python.

Generated by ``tests/gen_unicode_classes.py``; do not edit.
"""

UNICODE_VERSION = "{version}"
'''


def category_ranges(category: str) -> list[tuple[int, int]]:
    """The inclusive ranges of the code points whose general category starts
    with ``category`` (such as "P" or "Nd"), over all of Unicode, per the host
    ``unicodedata``."""
    ranges: list[tuple[int, int]] = []
    for cp in range(sys.maxunicode + 1):
        if not unicodedata.category(chr(cp)).startswith(category):
            continue
        if ranges and ranges[-1][1] == cp - 1:
            ranges[-1] = (ranges[-1][0], cp)
        else:
            ranges.append((cp, cp))
    return ranges


def render() -> str:
    """The module's text, for the host ``unicodedata``."""
    parts = [HEADER.format(version=unicodedata.unidata_version)]
    for name, category in (("PUNCTUATION", "P"), ("SYMBOL", "S"), ("DIGIT", "Nd")):
        spans = " ".join(f"{lo:04X}-{hi:04X}" for lo, hi in category_ranges(category))
        parts.append(f'\n{name} = """\n{textwrap.fill(spans, 79)}\n"""\n')
    return "".join(parts)


if __name__ == "__main__":
    MODULE.write_text(render(), encoding="utf-8")
