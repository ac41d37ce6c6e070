"""Corpus BLEU with international tokenization and exponential smoothing.

Reproduces, bit for bit, the semantics of sacreBLEU's
``BLEU+case.mixed+numrefs.1+smooth.exp+tok.intl+version.1.2.20``
configuration: mixed case, a single reference per hypothesis, mteval-v14
"international" tokenization, and NIST exponential smoothing of zero
n-gram matches.  Every score carries the matching signature string so
numbers stay comparable across tools.

The tokenizer's punctuation and symbol tables are built from the host
``unicodedata`` module; the Unicode version in use is exposed as
``UNICODE_VERSION`` and should be reported alongside scores, since table
drift across Unicode versions silently changes tokenization.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

NGRAM_ORDER = 4

# Version of the scorer semantics implemented here (not of this package).
SCORER_VERSION = "1.2.20"

UNICODE_VERSION = unicodedata.unidata_version

# Stand-in for log(0); keeps the score computation total while driving the
# geometric mean to zero, exactly as the reference scorer does.
_LOG_FLOOR = -9999999999


def _category_classes() -> tuple[str, str]:
    """The punctuation and symbol character classes (without brackets), as
    ranges of ``re.escape``d code points, built in one pass over Unicode.

    Compatibility constraint: sacreBLEU 1.2.20 joins the characters of each
    category unescaped, in code point order, and inside that raw class the
    ``\\]`` sequence reads as an escaped bracket, so it never matches a
    literal backslash.  The punctuation class is therefore category P minus
    U+005C; the symbol class is exactly category S.
    """
    ranges: dict[str, list[list[int]]] = {"P": [], "S": []}
    for cp, category in enumerate(map(unicodedata.category, map(chr, range(sys.maxunicode)))):
        spans = ranges.get(category[0])
        if spans is None or cp == 0x5C:
            continue
        if spans and spans[-1][1] == cp - 1:
            spans[-1][1] = cp
        else:
            spans.append([cp, cp])
    return tuple(
        "".join(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}" for lo, hi in ranges[major])
        for major in "PS"
    )


@functools.lru_cache(maxsize=1)
def _intl_regexes() -> tuple[re.Pattern[str], re.Pattern[str], re.Pattern[str]]:
    punct, symbol = _category_classes()
    return (
        re.compile(r"([^\d])([" + punct + r"])"),
        re.compile(r"([" + punct + r"])([^\d])"),
        re.compile(r"([" + symbol + r"])"),
    )


# Scoring re-tokenizes the same test-set lines constantly (full set plus
# origin halves, several systems, base and post-edited outputs that share
# most lines); a bounded cache changes nothing semantically.
@functools.lru_cache(maxsize=1 << 16)
def _tokenize_cached(text: str) -> tuple[str, ...]:
    nondigit_punct, punct_nondigit, symbol = _intl_regexes()
    text = text.rstrip()
    text = nondigit_punct.sub(r"\1 \2 ", text)
    text = punct_nondigit.sub(r" \1 \2", text)
    text = symbol.sub(r" \1 ", text)
    return tuple(text.split())


def tokenize_intl(text: str) -> list[str]:
    """Tokenize mteval-v14 style: pad Unicode punctuation and symbols with
    spaces, except periods and commas sitting between digits, then split on
    whitespace.  Case is preserved.

    Trailing whitespace is removed first, which matters: a line-final
    ``"2019."`` stays a single token, while ``"2019. "`` would split.
    """
    return list(_tokenize_cached(text))


@dataclass
class NgramStats:
    """Clipped n-gram match statistics for orders 1..4.

    Stats of two corpora merge by field-wise addition, so corpus-level
    counts can be accumulated in any order or in parallel.
    """

    match: list[int]
    total: list[int]
    hyp_len: int
    ref_len: int

    @classmethod
    def zero(cls) -> "NgramStats":
        return cls([0] * NGRAM_ORDER, [0] * NGRAM_ORDER, 0, 0)

    def __add__(self, other: "NgramStats") -> "NgramStats":
        return NgramStats(
            [a + b for a, b in zip(self.match, other.match)],
            [a + b for a, b in zip(self.total, other.total)],
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )

    def __iadd__(self, other: "NgramStats") -> "NgramStats":
        self.match = [a + b for a, b in zip(self.match, other.match)]
        self.total = [a + b for a, b in zip(self.total, other.total)]
        self.hyp_len += other.hyp_len
        self.ref_len += other.ref_len
        return self


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def ngram_stats(hyp_tokens: Sequence[str], ref_tokens: Sequence[str]) -> NgramStats:
    """Clipped match and total counts of one hypothesis against one reference."""
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


@dataclass(frozen=True)
class BleuConfig:
    """Identifies how a score was produced: language pair and test set name,
    the two free fields of the signature string."""

    lang_pair: str = "unknown"
    test_set: str = "unknown"


def signature(config: BleuConfig) -> str:
    """The canonical signature for this scorer configuration."""
    return (
        f"BLEU+case.mixed+lang.{config.lang_pair}+numrefs.1"
        f"+smooth.exp+{config.test_set}+tok.intl+version.{SCORER_VERSION}"
    )


@dataclass
class BleuScore:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int
    signature: str
    stats: NgramStats

    def as_dict(self) -> dict:
        return {
            "score": self.score,
            "precisions": list(self.precisions),
            "bp": self.brevity_penalty,
            "hyp_len": self.hyp_len,
            "ref_len": self.ref_len,
            "signature": self.signature,
        }

    def format(self) -> str:
        precisions = "/".join(f"{p:.1f}" for p in self.precisions)
        ratio = self.hyp_len / self.ref_len if self.ref_len else float("inf")
        return (
            f"BLEU = {self.score:.1f} {precisions} "
            f"(BP = {self.brevity_penalty:.3f} ratio = {ratio:.3f} "
            f"hyp_len = {self.hyp_len} ref_len = {self.ref_len})"
        )


def _floored_log(value: float) -> float:
    if value == 0.0:
        return _LOG_FLOOR
    return math.log(value)


def score_from_stats(stats: NgramStats, config: BleuConfig = BleuConfig()) -> BleuScore:
    """Compute the smoothed corpus score from accumulated statistics.

    Exponential smoothing: the k-th order (in increasing n) with zero
    matches but nonzero total gets precision 100/(2^k * total).  An order
    with zero total ends the loop, leaving later precisions at zero, which
    drives the score itself to zero.
    """
    precisions = [0.0] * NGRAM_ORDER
    smooth = 1.0
    for n in range(1, NGRAM_ORDER + 1):
        if stats.total[n - 1] == 0:
            break
        if stats.match[n - 1] == 0:
            smooth *= 2
            precisions[n - 1] = 100.0 / (smooth * stats.total[n - 1])
        else:
            precisions[n - 1] = 100.0 * stats.match[n - 1] / stats.total[n - 1]

    brevity_penalty = 1.0
    if stats.hyp_len < stats.ref_len:
        brevity_penalty = math.exp(1 - stats.ref_len / stats.hyp_len) if stats.hyp_len > 0 else 0.0

    score = brevity_penalty * math.exp(sum(_floored_log(p) for p in precisions) / NGRAM_ORDER)
    # The log/exp round trip can land a few ulp above 100 on a perfect
    # corpus; scores are defined on [0, 100].
    score = min(score, 100.0)

    return BleuScore(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity_penalty,
        hyp_len=stats.hyp_len,
        ref_len=stats.ref_len,
        signature=signature(config),
        stats=stats,
    )


def corpus_stats(pairs: Iterable[tuple[str, str]]) -> NgramStats:
    """Tokenize and accumulate clipped n-gram statistics over (hyp, ref) pairs."""
    stats = NgramStats.zero()
    seen = False
    for hyp, ref in pairs:
        seen = True
        stats += ngram_stats(_tokenize_cached(hyp), _tokenize_cached(ref))
    if not seen:
        raise ValueError("cannot score an empty corpus")
    return stats


def corpus_bleu(pairs: Iterable[tuple[str, str]], config: BleuConfig = BleuConfig()) -> BleuScore:
    """Corpus BLEU over (hypothesis, reference) pairs.

    A hypothesis that tokenizes to nothing contributes zero counts (its
    reference still counts toward the reference length); an empty corpus
    is an error.
    """
    return score_from_stats(corpus_stats(pairs), config)
