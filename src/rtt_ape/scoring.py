"""Corpus BLEU with international tokenization and exponential smoothing.

Reproduces, bit for bit, the semantics of sacreBLEU's
``BLEU+case.mixed+numrefs.1+smooth.exp+tok.intl+version.1.2.20``
configuration: mixed case, a single reference per hypothesis, mteval-v14
"international" tokenization, and NIST exponential smoothing of zero
n-gram matches.  Every score carries the matching signature string so
numbers stay comparable across tools.

The tokenizer's punctuation, symbol and digit classes are built from a
checked-in table of the Unicode 14.0.0 categories P, S and Nd
(``unicode_classes``), not from the host ``unicodedata`` or ``re``'s
``\\d``, so a line tokenizes the same on every Python.  ``UNICODE_VERSION``
names that table and should be reported alongside scores, since table
drift across Unicode versions changes tokenization.

Tokenizing runs no Python per character or per regex match.  ``re`` tests
a class of code points up to U+FFFF against a bitmap, but one holding
astral code points against a list of ranges, several times slower; so a
line without an astral character, found by one search, uses classes cut at
U+FFFF, and only other lines use the full classes, compiled on first need.
The substitutions' replacements are bound ``str.format`` methods, which
``re`` calls from C, where Python 3.11 would expand template strings in
Python per match.  A sentence's n-grams are kept per order: a ``set`` where
none repeats (most orders from bigrams up), else a ``Counter``.  Clipped
matches against a set are one intersection, in C; only orders that repeat
an n-gram on both sides loop in Python.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from collections import Counter
from typing import Callable, Iterable, NamedTuple, Sequence

from . import unicode_classes

NGRAM_ORDER = 4

# Version of the scorer semantics implemented here (not of this package).
SCORER_VERSION = "1.2.20"

# The Unicode version of the tokenizer's table, whatever the host's.
UNICODE_VERSION = unicode_classes.UNICODE_VERSION

# Stand-in for log(0); keeps the score computation total while driving the
# geometric mean to zero, exactly as the reference scorer does.
_LOG_FLOOR = -9999999999


def _ranges(table: str) -> list[tuple[int, int]]:
    return [(int(lo, 16), int(hi, 16)) for lo, hi in (span.split("-") for span in table.split())]


# Compatibility constraint: sacreBLEU 1.2.20 joins the characters of each
# category unescaped, in code point order, and inside that raw class the
# "\]" sequence reads as an escaped bracket, so it never matches a literal
# backslash.  The punctuation class is therefore category P minus U+005C;
# the symbol class is exactly category S.
_PUNCT_RANGES = [(lo, hi) for first, last in _ranges(unicode_classes.PUNCTUATION)
                 for lo, hi in ((first, min(last, 0x5B)), (max(first, 0x5D), last)) if lo <= hi]
_SYMBOL_RANGES = _ranges(unicode_classes.SYMBOL)
# The reference scorer's ``\d`` under Python 3.11: category Nd of Unicode 14.0.0.
_DIGIT_RANGES = _ranges(unicode_classes.DIGIT)

_ASTRAL = re.compile(r"[\U00010000-\U0010FFFF]")

# The replacements are bound ``str.format`` methods of the match, which
# ``re`` calls per match from C.  Python 3.11 expands a template string such
# as r"\1 \2 " with Python code on every ``sub`` call and every match; from
# 3.12 on templates are expanded in C and either form costs the same.
_NONDIGIT_PUNCT = "{0[1]} {0[2]} ".format
_PUNCT_NONDIGIT = " {0[1]} {0[2]}".format
_SYMBOL = " {0[1]} ".format


def _classes(top: int) -> tuple[str, str, str]:
    """The digit, punctuation and symbol character classes (without
    brackets) over the code points up to ``top``, as ranges of
    ``re.escape``d code points."""
    return tuple(
        "".join(f"{re.escape(chr(lo))}-{re.escape(chr(min(hi, top)))}"
                for lo, hi in ranges if lo <= top)
        for ranges in (_DIGIT_RANGES, _PUNCT_RANGES, _SYMBOL_RANGES)
    )


@functools.lru_cache(maxsize=None)
def _substitutions(top: int) -> tuple[tuple[re.Pattern[str], Callable[[re.Match[str]], str]], ...]:
    """The tokenizer's substitutions, in order, with classes cut at ``top``."""
    digit, punct, symbol = _classes(top)
    return (
        (re.compile(r"([^" + digit + r"])([" + punct + r"])"), _NONDIGIT_PUNCT),
        (re.compile(r"([" + punct + r"])([^" + digit + r"])"), _PUNCT_NONDIGIT),
        (re.compile(r"([" + symbol + r"])"), _SYMBOL),
    )


# Scoring re-tokenizes the same test-set lines constantly (full set plus
# origin halves, several systems, base and post-edited outputs that share
# most lines); a bounded cache changes nothing semantically.
@functools.lru_cache(maxsize=1 << 16)
def _tokenize_cached(text: str) -> tuple[str, ...]:
    text = text.rstrip()
    for pattern, replacement in _substitutions(sys.maxunicode if _ASTRAL.search(text) else 0xFFFF):
        text = pattern.sub(replacement, text)
    # Interned, so the cached token tuples share one string per vocabulary word.
    return tuple(map(sys.intern, text.split()))


def tokenize_intl(text: str) -> list[str]:
    """Tokenize mteval-v14 style: pad Unicode punctuation and symbols with
    spaces, except periods and commas sitting between digits, then split on
    whitespace.  Case is preserved.

    Trailing whitespace is removed first, which matters: a line-final
    ``"2019."`` stays a single token, while ``"2019. "`` would split.
    """
    return list(_tokenize_cached(text))


class NgramStats:
    """Clipped n-gram match statistics for orders 1..4.

    Stats of two corpora merge by field-wise addition, so corpus-level
    counts can be accumulated in any order or in parallel.
    """

    __slots__ = ("match", "total", "hyp_len", "ref_len")

    def __init__(self, match: list[int], total: list[int], hyp_len: int, ref_len: int) -> None:
        self.match, self.total = match, total  # pairs: a pair assigns without a tuple
        self.hyp_len, self.ref_len = hyp_len, ref_len

    def __eq__(self, other: object) -> bool:
        return type(other) is NgramStats and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

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

    def add(self, other: "NgramStats") -> None:
        """Add ``other`` into these counts, in place."""
        self.match = list(map(operator.add, self.match, other.match))
        self.total = list(map(operator.add, self.total, other.total))
        self.hyp_len += other.hyp_len
        self.ref_len += other.ref_len


# Built for both sentences of each distinct pair; a few entries keep a
# reference's table for every system scored against it.  Shared, so never mutated.
@functools.lru_cache(maxsize=8)
def _ngram_table(tokens: tuple[str, ...]) -> tuple[set | Counter, ...]:
    """The n-grams of each order 1..4, keyed by token tuple: a ``set`` when
    none of that order repeats, else a ``Counter``."""
    shifted = [tokens[i:] for i in range(NGRAM_ORDER)]
    table = []
    for n in range(1, NGRAM_ORDER + 1):
        grams = list(zip(*shifted[:n]))
        distinct = set(grams)
        table.append(distinct if len(distinct) == len(grams) else Counter(grams))
    return tuple(table)


# Scoring meets the same (hypothesis, reference) pair again and again (full
# set plus origin half, base and post-edited outputs that share most lines);
# a bounded cache changes nothing semantically.
@functools.lru_cache(maxsize=1 << 16)
def _clipped_matches(hyp_tokens: tuple[str, ...], ref_tokens: tuple[str, ...]) -> tuple[int, ...]:
    # min(hyp count, ref count) is 1 for each n-gram common to a set and the
    # other side: their intersection, in C.  Two Counters loop over the common n-grams.
    return tuple(
        len(hyp.intersection(ref)) if type(hyp) is set
        else len(ref.intersection(hyp)) if type(ref) is set
        else sum(min(count, ref[gram]) for gram, count in hyp.items() if gram in ref)
        for hyp, ref in zip(_ngram_table(hyp_tokens), _ngram_table(ref_tokens))
    )


@functools.lru_cache(maxsize=None)
def _ngram_totals(hyp_len: int) -> tuple[int, ...]:
    return tuple(max(hyp_len - n + 1, 0) for n in range(1, NGRAM_ORDER + 1))


def ngram_stats(hyp_tokens: Sequence[str], ref_tokens: Sequence[str]) -> NgramStats:
    """Clipped match and total counts of one hypothesis against one reference.

    Returns a fresh ``NgramStats`` on every call, so mutating a result never
    reaches the caches behind it.
    """
    hyp_tokens, ref_tokens = tuple(hyp_tokens), tuple(ref_tokens)
    hyp_len = len(hyp_tokens)
    return NgramStats(
        list(_clipped_matches(hyp_tokens, ref_tokens)),
        list(_ngram_totals(hyp_len)),
        hyp_len,
        len(ref_tokens),
    )


class BleuConfig(NamedTuple):
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


class BleuScore(NamedTuple):
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

    # A left fold: from Python 3.12 on, sum() of floats compensates and changes bits.
    log_sum = functools.reduce(operator.add, map(_floored_log, precisions), 0.0)
    score = brevity_penalty * math.exp(log_sum / NGRAM_ORDER)
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
        stats.add(ngram_stats(_tokenize_cached(hyp), _tokenize_cached(ref)))
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
