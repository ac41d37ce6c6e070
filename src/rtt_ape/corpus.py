"""Streaming hygiene for monolingual and bitext corpora.

All operations are single-pass and line-oriented.  Deduplication keeps
128-bit fingerprints of the exact line bytes rather than the lines
themselves.  Each is a 16-byte ``bytes`` object in a ``set``, which costs
80-100 bytes per distinct line in CPython (measured with ``tracemalloc``),
so 200M distinct lines need about 16-20 GB; an exact mode that stores
full lines exists for audit runs where even a negligible collision
probability is unwelcome.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import checked
from .lineio import blake2b

T = TypeVar("T")


@checked
class FilterConfig(NamedTuple):
    """Caps for monolingual and bitext filtering.

    Monolingual lines are capped at the minimum of the character and token
    limits (a line is rejected as soon as either cap is exceeded).  Token
    counts are whitespace-split throughout.
    """

    max_chars: int = 500
    max_tokens: int = 70
    bitext_max_tokens: int = 250
    max_len_ratio: float = 2.0

    def _check(self) -> None:
        if min(self.max_chars, self.max_tokens, self.bitext_max_tokens) <= 0:
            raise ValueError("all caps must be positive")
        if self.max_len_ratio < 1.0:
            raise ValueError(f"max_len_ratio must be >= 1.0, got {self.max_len_ratio}")


class SentencePair(NamedTuple):
    """One line of bitext, stored verbatim; validation is the filter's job."""

    source: str
    target: str


class FilterReport:
    """JSON-able counters for one filtering/dedup pass."""

    __slots__ = ("read", "kept", "rejected_by_rule")

    def __init__(self) -> None:
        self.read = self.kept = 0
        self.rejected_by_rule: dict[str, int] = {}

    def reject(self, rule: str) -> None:
        self.rejected_by_rule[rule] = self.rejected_by_rule.get(rule, 0) + 1

    def filter(self, items: Iterable[T], reject_reason: Callable[[T], str | None]) -> Iterator[T]:
        """Yield the items whose ``reject_reason`` is None, counting each
        item read, and kept or rejected by its reason, as it is consumed."""
        for item in items:
            self.read += 1
            reason = reject_reason(item)
            if reason is None:
                self.kept += 1
                yield item
            else:
                self.reject(reason)

    def as_dict(self) -> dict:
        return {"read": self.read, "kept": self.kept, "rejected_by_rule": dict(self.rejected_by_rule)}


def _fingerprint(line: str) -> bytes:
    return blake2b(line.encode("utf-8"), digest_size=16).digest()


def dedup(
    lines: Iterable[str],
    *,
    exact: bool = False,
    report: FilterReport | None = None,
) -> Iterator[str]:
    """Yield the first occurrence of each line, preserving order.

    Memory is O(distinct lines): a set of 16-byte fingerprints by default
    (80-100 bytes per line in all), full lines with ``exact=True``.  Lines
    read, kept and rejected as "duplicate" are counted into ``report``
    (see ``FilterReport.filter``) as the stream is consumed.
    """
    seen: set = set()

    def duplicate(line: str) -> str | None:
        key = line if exact else _fingerprint(line)
        if key in seen:
            return "duplicate"
        seen.add(key)
        return None

    return (FilterReport() if report is None else report).filter(lines, duplicate)


def mono_reject_reason(line: str, cfg: FilterConfig) -> str | None:
    """None if the line passes the monolingual filter, else the binding rule.

    Characters are counted as Unicode scalar values, not bytes.
    """
    n_chars = len(line)
    if n_chars == 0:
        return "empty"
    if n_chars > cfg.max_chars:
        return "too_many_chars"
    if len(line.split()) > cfg.max_tokens:
        return "too_many_tokens"
    return None


def mono_filter(line: str, cfg: FilterConfig = FilterConfig()) -> bool:
    """Keep a monolingual line iff it is non-empty and within both caps."""
    return mono_reject_reason(line, cfg) is None


def bitext_reject_reason(pair: SentencePair, cfg: FilterConfig) -> str | None:
    """None if the pair passes the bitext filter, else the binding rule.

    A side is empty when it has no whitespace-separated tokens.  The length
    ratio (in tokens) is rejected only when strictly greater than the cap.
    """
    len_s = len(pair.source.split())
    len_t = len(pair.target.split())
    if len_s == 0 or len_t == 0:
        return "empty_side"
    if len_s > cfg.bitext_max_tokens or len_t > cfg.bitext_max_tokens:
        return "too_many_tokens"
    if max(len_s, len_t) / min(len_s, len_t) > cfg.max_len_ratio:
        return "length_ratio"
    return None


def bitext_filter(pair: SentencePair, cfg: FilterConfig = FilterConfig()) -> bool:
    return bitext_reject_reason(pair, cfg) is None


def sample_lines(lines: Iterable[str], n: int, seed: int) -> list[str]:
    """Uniform random subset of exactly n lines, in original relative order.

    Single-pass reservoir sampling; deterministic for a given (seed, input
    order) regardless of how the caller parallelizes anything around it.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    rng = random.Random(seed)
    reservoir: list[tuple[int, str]] = []
    count = 0
    for i, line in enumerate(lines):
        count += 1
        if i < n:
            reservoir.append((i, line))
        else:
            j = rng.randrange(i + 1)
            if j < n:
                reservoir[j] = (i, line)
    if n > count:
        raise ValueError(f"cannot sample {n} lines from a corpus of {count}")
    reservoir.sort()
    return [line for _, line in reservoir]
