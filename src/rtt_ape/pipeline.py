"""Round-trip data generation and post-editing application.

``iter_rtt`` composes two backends (Y->X, then X->Y) over a monolingual
corpus and streams (original, round_trip) pairs, chunk by chunk, with the
chunks shared out among worker processes (``parallel.fork_map``);
``generate_rtt`` collects them into a list.  The length
filter applies to both sides of a pair, which is dropped atomically if
either side fails.  ``make_training_pairs`` turns those pairs into
filtered bitext in either direction, and ``apply_ape`` runs a post-editing
backend over translation output, optionally restricted to the
target-original half of a test set and optionally iterated.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .backends import BackendSpec, check_jobs, translate_batch
from .errors import BackendError, checked
from .halves import ALL, SplitHalves, _check_scope, _scope_indices
from .parallel import Reiterable, fork_map, usable_cores

if TYPE_CHECKING:
    from .corpus import FilterConfig, SentencePair

TRAINING_DIRECTIONS = ("normal", "reverse")
FILTER_SIDES = ("both", "original", "round_trip")

# Streaming chunk sizes, which bound memory in place of the corpus size:
# ``iter_rtt`` translates lcm(both batch sizes) * CHUNK_BATCHES lines at a
# time per process that runs its batches (CHUNK_BATCHES batches each when
# the batch sizes are equal), and make-pairs filters PAIRS_PER_CHUNK pairs.
CHUNK_BATCHES = 8
PAIRS_PER_CHUNK = 1024

T = TypeVar("T")


class RttPair(NamedTuple):
    original: str
    round_trip: str


@checked
class ApeMode(NamedTuple):
    scope: str = ALL
    iterations: int = 1

    def _check(self) -> None:
        _check_scope(self.scope)
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


class ChangeReport(NamedTuple):
    """Lines altered by post-editing, counted by byte-level inequality."""

    lines: int
    scope_size: int
    changed_per_iteration: list[int]

    def as_dict(self) -> dict:
        return self._asdict()


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
    cfg: FilterConfig | None = None,
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
    single call over the whole corpus would make.  Chunk k is translated,
    both ways, by worker process k mod P: this one or a child forked by this
    call, which reads ``lines`` itself (see ``parallel.fork_map``).  P is
    min(``jobs``, usable cores), or 1 if ``lines`` is an iterator, which
    the workers could not each read.  The workers share ``jobs`` out, and
    each runs its chunks' command and HTTP batches in that many processes;
    chunks grow to match.  A failure is raised after every pair before it;
    a backend error or a dead worker names the input line numbers it hit.
    Closing the returned iterator stops the workers.  ``cfg`` defaults to
    ``FilterConfig()``.
    """
    # Not imported at module level: ``apply_ape`` filters nothing, so
    # ``ape-apply`` never loads ``corpus``.
    from .corpus import FilterConfig, mono_filter

    if cfg is None:
        cfg = FilterConfig()
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
    workers = 1 if isinstance(lines, Iterator) else min(jobs, usable_cores())
    size = math.lcm(y_to_x.batch_size, x_to_y.batch_size) * CHUNK_BATCHES * -(-jobs // workers)

    def chunks() -> Iterator[tuple[int, list[tuple[int, str]]]]:  # k starts at line k * size
        numbered = ((line_no, line) for line_no, line in enumerate(lines, 1)
                    if not filter_original or mono_filter(line, cfg))
        return enumerate(chunked(numbered, size))

    def round_trip(item: tuple[int, list[tuple[int, str]]]) -> tuple[list, list]:
        """The chunk's pivots and round trips, None for those the filter drops."""
        k, chunk = item
        batch_jobs = jobs // workers + (k % workers < jobs % workers)  # its worker's share
        try:
            # A module global, looked up at each call: perfbench's traced run wraps it.
            pivot = translate_batch(y_to_x, [line for _, line in chunk], jobs=batch_jobs,
                                    cache_dir=cache_dir, start=k * size)
            round_trips = translate_batch(x_to_y, pivot, jobs=batch_jobs, cache_dir=cache_dir,
                                          start=k * size)
        except BackendError as exc:  # at indices among the kept lines: name input lines
            first, last = (chunk[i - k * size][0] for i in (exc.first_line, exc.last_line))
            raise BackendError(exc.reason, first, last) from exc
        return pivot, [r if not filter_round_trip or mono_filter(r, cfg) else None
                       for r in round_trips]

    def name(item: tuple[int, list[tuple[int, str]]]) -> str:
        return f"rtt-gen worker for input lines {item[1][0][0]}..{item[1][-1][0]}"

    # Closing this generator frees, and so stops, the workers' iterator.
    return ((line_no, p, None if r is None else RttPair(original, r))
            for (_, chunk), (pivot, round_trips) in fork_map(round_trip, Reiterable(chunks),
                                                             workers, name)
            for (line_no, original), p, r in zip(chunk, pivot, round_trips))


def generate_rtt(
    lines: Iterable[str],
    y_to_x: BackendSpec,
    x_to_y: BackendSpec,
    cfg: FilterConfig | None = None,
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
    cfg: FilterConfig | None = None,
) -> list[SentencePair]:
    """Emit bitext from round-trip pairs.

    "normal" trains a denoiser (source = round trip, target = original);
    "reverse" flips source and target.  The bitext filter, ``cfg`` or
    ``FilterConfig()``, applies either way.
    """
    from .corpus import FilterConfig, SentencePair, bitext_filter

    if cfg is None:
        cfg = FilterConfig()
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
    """Post-edit translation output: the lines of ``hyp`` in scope
    ``mode.scope`` of ``halves`` (see ``halves._scope_indices``), leaving
    the rest byte-identical.  The backend is iterated ``mode.iterations`` times over the
    in-scope lines.  Line count and order never change.  A backend error
    names the 1-based line numbers in ``hyp`` of its batch's first and last
    line.
    """
    scope = list(_scope_indices(mode.scope, halves, len(hyp)))

    current = list(hyp)
    changed_per_iteration = []
    for _ in range(mode.iterations):
        in_scope = [current[i] for i in scope]
        try:
            edited = translate_batch(ape, in_scope, jobs=jobs, cache_dir=cache_dir)
        except BackendError as exc:  # at indices among the in-scope lines: name input lines
            first, last = (scope[i] + 1 for i in (exc.first_line, exc.last_line))
            raise BackendError(exc.reason, first, last) from exc
        changed = 0
        for i, line in zip(scope, edited):
            if current[i] != line:
                changed += 1
            current[i] = line
        changed_per_iteration.append(changed)
    return current, ChangeReport(
        lines=len(current), scope_size=len(scope), changed_per_iteration=changed_per_iteration
    )
