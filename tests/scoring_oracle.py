"""Reference forms of the scorer's hot paths, kept as test oracles.

``tokenize`` is the original raw-class international tokenizer: each
category's characters joined unescaped, in code point order, exactly as
sacreBLEU 1.2.20 builds them.  ``ngram_stats`` is the original slice-based
clipped-count form.  The production code in ``rtt_ape.scoring`` replaces
both with faster equivalents and must agree with them exactly.
"""

from __future__ import annotations

import functools
import re
import sys
import unicodedata
from collections import Counter
from typing import Sequence

from rtt_ape.scoring import NGRAM_ORDER, NgramStats


def _category_chars(prefix: str) -> str:
    return "".join(
        chr(cp) for cp in range(sys.maxunicode) if unicodedata.category(chr(cp)).startswith(prefix)
    )


@functools.lru_cache(maxsize=1)
def raw_classes() -> tuple[str, str]:
    """The unescaped punctuation and symbol classes, brackets included."""
    return "[" + _category_chars("P") + "]", "[" + _category_chars("S") + "]"


@functools.lru_cache(maxsize=1)
def _intl_regexes() -> tuple[re.Pattern[str], re.Pattern[str], re.Pattern[str]]:
    punct, symbol = raw_classes()
    return (
        re.compile(r"([^\d])(" + punct + r")"),
        re.compile(r"(" + punct + r")([^\d])"),
        re.compile(r"(" + symbol + r")"),
    )


def tokenize(text: str) -> tuple[str, ...]:
    nondigit_punct, punct_nondigit, symbol = _intl_regexes()
    text = text.rstrip()
    text = nondigit_punct.sub(r"\1 \2 ", text)
    text = punct_nondigit.sub(r" \1 \2", text)
    text = symbol.sub(r" \1 ", text)
    return tuple(text.split())


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def ngram_stats(hyp_tokens: Sequence[str], ref_tokens: Sequence[str]) -> NgramStats:
    stats = NgramStats.zero()
    stats.hyp_len = len(hyp_tokens)
    stats.ref_len = len(ref_tokens)
    for n in range(1, NGRAM_ORDER + 1):
        hyp_counts = _ngram_counts(hyp_tokens, n)
        if not hyp_counts:
            continue
        ref_counts = _ngram_counts(ref_tokens, n)
        stats.total[n - 1] = len(hyp_tokens) - n + 1
        stats.match[n - 1] = sum(min(c, ref_counts.get(g, 0)) for g, c in hyp_counts.items())
    return stats
