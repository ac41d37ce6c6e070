"""Round-trip data generation and post-editing application.

``iter_rtt`` composes two backends (Y->X, then X->Y) over a monolingual
corpus and streams (original, round_trip) pairs, chunk by chunk;
``generate_rtt`` collects them into a list.  The length
filter applies to both sides of a pair, which is dropped atomically if
either side fails.  ``make_training_pairs`` turns those pairs into
filtered bitext in either direction, and ``apply_ape`` runs a post-editing
backend over translation output, optionally restricted to the
target-original half of a test set and optionally iterated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar

from .backends import BackendSpec, check_jobs, translate_batch
from .corpus import FilterConfig, SentencePair, bitext_filter, mono_filter
from .testset import SplitHalves

TRAINING_DIRECTIONS = ("normal", "reverse")
APE_SCOPES = ("all", "target_original_only")
FILTER_SIDES = ("both", "original", "round_trip")

# Streaming chunk sizes, which bound memory in place of the corpus size:
# ``iter_rtt`` translates lcm(both batch sizes) * jobs * CHUNK_BATCHES lines
# at a time (CHUNK_BATCHES batches per worker when the batch sizes are
# equal), and make-pairs filters PAIRS_PER_CHUNK pairs at a time.
CHUNK_BATCHES = 8
PAIRS_PER_CHUNK = 1024

T = TypeVar("T")


@dataclass(frozen=True)
class RttPair:
    original: str
    round_trip: str


@dataclass(frozen=True)
class ApeMode:
    scope: str = "all"
    iterations: int = 1

    def __post_init__(self) -> None:
        if self.scope not in APE_SCOPES:
            raise ValueError(f"scope must be one of {APE_SCOPES}, got {self.scope!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass
class ChangeReport:
    """Lines altered by post-editing, counted by byte-level inequality."""

    lines: int
    scope_size: int
    changed_per_iteration: list[int]

    def as_dict(self) -> dict:
        return {
            "lines": self.lines,
            "scope_size": self.scope_size,
            "changed_per_iteration": list(self.changed_per_iteration),
        }


def chunked(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Consecutive lists of ``size`` items, the last possibly shorter.  The
    first list is yielded even when ``items`` is empty, so argument checks
    made per chunk still run on empty input."""
    it = iter(items)
    yield list(islice(it, size))
    while chunk := list(islice(it, size)):
        yield chunk


def iter_rtt(
    lines: Iterable[str],
    y_to_x: BackendSpec,
    x_to_y: BackendSpec,
    cfg: FilterConfig = FilterConfig(),
    *,
    filter_sides: str = "both",
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> Iterator[tuple[int, str, RttPair | None]]:
    """Stream round trips: for each line that survives the original-side
    filter, in input order, yield its 1-based line number in ``lines``, its
    pivot translation, and its pair, or None if the round trip fails the
    filter.

    Lines are read lazily and translated in chunks cut on multiples of both
    backends' batch sizes (see ``CHUNK_BATCHES``), so memory does not grow
    with the corpus and every batch (and so every cache file) is the one a
    single call over the whole corpus would make.
    Arguments are checked when iteration starts.
    """
    check_jobs(jobs)
    if filter_sides not in FILTER_SIDES:
        raise ValueError(f"filter_sides must be one of {FILTER_SIDES}, got {filter_sides!r}")
    if (y_to_x.to_lang, y_to_x.from_lang) != (x_to_y.from_lang, x_to_y.to_lang):
        raise ValueError(
            f"backend directions do not compose: "
            f"{y_to_x.from_lang}->{y_to_x.to_lang} then {x_to_y.from_lang}->{x_to_y.to_lang}"
        )
    filter_original = filter_sides in ("both", "original")
    filter_round_trip = filter_sides in ("both", "round_trip")
    numbered = (
        (line_no, line)
        for line_no, line in enumerate(lines, 1)
        if not filter_original or mono_filter(line, cfg)
    )
    size = math.lcm(y_to_x.batch_size, x_to_y.batch_size) * jobs * CHUNK_BATCHES
    start = 0
    for chunk in chunked(numbered, size):
        originals = [line for _, line in chunk]
        pivot = translate_batch(y_to_x, originals, jobs=jobs, cache_dir=cache_dir, start=start)
        round_trips = translate_batch(x_to_y, pivot, jobs=jobs, cache_dir=cache_dir, start=start)
        for (line_no, original), p, r in zip(chunk, pivot, round_trips):
            keep = not filter_round_trip or mono_filter(r, cfg)
            yield line_no, p, RttPair(original, r) if keep else None
        start += len(chunk)


def generate_rtt(
    lines: Iterable[str],
    y_to_x: BackendSpec,
    x_to_y: BackendSpec,
    cfg: FilterConfig = FilterConfig(),
    *,
    filter_sides: str = "both",
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    intermediates: list[str] | None = None,
) -> list[RttPair]:
    """Round-trip every surviving line through the pivot language.

    The corpus is expected to be deduplicated already.  By default the
    length filter applies to the original line (before translation) and to
    the round trip (after), dropping the pair atomically; ``filter_sides``
    restricts it to one side.  Passing a list as ``intermediates`` captures
    the pivot-language text of every line translated, for auditing.  The
    list form of ``iter_rtt``.
    """
    pairs = []
    for _, pivot, pair in iter_rtt(
        lines, y_to_x, x_to_y, cfg, filter_sides=filter_sides, jobs=jobs, cache_dir=cache_dir
    ):
        if intermediates is not None:
            intermediates.append(pivot)
        if pair is not None:
            pairs.append(pair)
    return pairs


def make_training_pairs(
    pairs: Iterable[RttPair],
    direction: str = "normal",
    cfg: FilterConfig = FilterConfig(),
) -> list[SentencePair]:
    """Emit bitext from round-trip pairs.

    "normal" trains a denoiser (source = round trip, target = original);
    "reverse" flips source and target.  The bitext filter applies either way.
    """
    if direction not in TRAINING_DIRECTIONS:
        raise ValueError(f"direction must be one of {TRAINING_DIRECTIONS}, got {direction!r}")
    out = []
    for pair in pairs:
        if direction == "normal":
            sp = SentencePair(source=pair.round_trip, target=pair.original)
        else:
            sp = SentencePair(source=pair.original, target=pair.round_trip)
        if bitext_filter(sp, cfg):
            out.append(sp)
    return out


def apply_ape(
    hyp: Sequence[str],
    ape: BackendSpec,
    halves: SplitHalves | None = None,
    mode: ApeMode = ApeMode(),
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> tuple[list[str], ChangeReport]:
    """Post-edit translation output.

    Scope "all" edits every line; "target_original_only" edits only the
    target-original indices of ``halves`` and leaves the rest byte-identical.
    The backend is iterated ``mode.iterations`` times over the in-scope
    lines.  Line count and order never change.
    """
    if mode.scope == "target_original_only":
        if halves is None:
            raise ValueError("target_original_only scope needs split halves")
        scope = list(halves.target_original)
        if scope and max(scope) >= len(hyp):
            raise ValueError(f"split index {max(scope)} out of range for {len(hyp)} lines")
    else:
        scope = list(range(len(hyp)))

    current = list(hyp)
    changed_per_iteration = []
    for _ in range(mode.iterations):
        in_scope = [current[i] for i in scope]
        edited = translate_batch(ape, in_scope, jobs=jobs, cache_dir=cache_dir)
        changed = 0
        for i, line in zip(scope, edited):
            if current[i] != line:
                changed += 1
            current[i] = line
        changed_per_iteration.append(changed)
    return current, ChangeReport(
        lines=len(current), scope_size=len(scope), changed_per_iteration=changed_per_iteration
    )
