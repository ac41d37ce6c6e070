"""Black-box analyses and reporting: vocabulary sizes, round-trip quality,
origin-split score tables, and human-evaluation task files.

``split_score_table`` can score contiguous segment ranges in forked
processes (``workers``, through ``parallel.fork_map``), summing their
integer n-gram statistics, so its scores are bit-identical at any worker
count.  The default is one process.

Human-evaluation tasks are plain TSV with a fixed, versioned column order
so any crowd platform or spreadsheet can consume them; the rater-facing
columns are source, output, and the two question/rating pairs, while
``system_label`` is bookkeeping that platforms should not display.
"""

from __future__ import annotations

import functools
import operator
import random
import types
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DataError, reduce_read_only
from .parallel import fork_map
from .scoring import (
    BleuConfig,
    BleuScore,
    NgramStats,
    _tokenize_cached,
    corpus_bleu,
    ngram_stats,
    score_from_stats,
    tokenize_intl,
)
from .testset import TestSet, split_by_origin

HUMANEVAL_SCHEMA = "rtt-ape-humaneval-v1"

FLUENCY_QUESTION = (
    "How do you judge the overall naturalness of the utterance in terms of "
    "its grammatical correctness and fluency?"
)
ACCURACY_QUESTION = "Does the statement factually contradict anything in the reference information?"

_HUMANEVAL_COLUMNS = (
    "item_id",
    "rater_slot",
    "source",
    "output",
    "fluency_question",
    "fluency_rating",
    "accuracy_question",
    "accuracy_rating",
    "system_label",
)


class AnalysisReport(NamedTuple):
    vocab_sizes: Mapping[str, int] = types.MappingProxyType({})  # read-only, so sharing it is safe
    rtt_bleu: BleuScore | None = None
    split_scores: Mapping[str, BleuScore] = types.MappingProxyType({})
    metadata: Mapping = types.MappingProxyType({})

    __reduce__ = reduce_read_only

    @property
    def precision_breakdown(self) -> tuple[float, ...] | None:
        """The per-order precisions of ``rtt_bleu``, if any."""
        return self.rtt_bleu.precisions if self.rtt_bleu else None

    def as_dict(self) -> dict:
        return {
            "vocab_sizes": dict(self.vocab_sizes),
            "rtt_bleu": self.rtt_bleu.as_dict() if self.rtt_bleu else None,
            "precision_breakdown": list(self.precision_breakdown)
            if self.precision_breakdown
            else None,
            "split_scores": {k: v.as_dict() for k, v in self.split_scores.items()},
            "metadata": dict(self.metadata),
        }


def vocab_size(lines: Iterable[str], tokenizer: str = "whitespace") -> int:
    """Number of distinct tokens, case-sensitive.

    Whitespace tokenization by default; "intl" switches to the scorer's
    international tokenizer.
    """
    if tokenizer not in ("whitespace", "intl"):
        raise ValueError(f"tokenizer must be 'whitespace' or 'intl', got {tokenizer!r}")
    vocab: set[str] = set()
    for line in lines:
        vocab.update(tokenize_intl(line) if tokenizer == "intl" else line.split())
    return len(vocab)


def rtt_quality_report(
    originals: Sequence[str],
    round_trips: Sequence[str],
    config: BleuConfig = BleuConfig(),
) -> AnalysisReport:
    """How much the round trip changed the text: BLEU of the round trips
    against the originals as references, per-order precision breakdown, and
    both vocabulary sizes."""
    if len(originals) != len(round_trips):
        raise ValueError(
            f"length mismatch: {len(originals)} originals vs {len(round_trips)} round trips"
        )
    bleu = corpus_bleu(zip(round_trips, originals), config)
    return AnalysisReport(
        vocab_sizes={
            "original": vocab_size(originals),
            "round_trip": vocab_size(round_trips),
        },
        rtt_bleu=bleu,
        metadata={"sentences": len(originals), "tokenizer": "whitespace"},
    )


def split_score_table(
    ts: TestSet,
    hyps: Mapping[str, Sequence[str]],
    config: BleuConfig | None = None,
    *,
    workers: int = 1,
) -> dict[str, AnalysisReport]:
    """Score each labeled system on the full set and on both origin halves.

    Unknown-origin lines are excluded from the halves but included in the
    full-set score.  Empty halves are skipped and noted in the metadata.

    Every system's length is checked before any scoring.  The segments are
    then cut into ``workers`` contiguous ranges, which are scored at once:
    the first in this process, each other one in a forked child (see
    ``parallel.fork_map``).  A range adds each (system, segment) pair's
    integer n-gram statistics, in place, to its sums for the groups holding
    the segment, tokenizing each reference once.  The ranges' sums are added
    in range order, so the scores are bit-identical at any ``workers``.
    """
    if config is None:
        config = BleuConfig(lang_pair=f"{ts.src_lang}-{ts.tgt_lang}", test_set=ts.name)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for label, hyp in hyps.items():
        if len(hyp) != len(ts):
            raise ValueError(f"system {label!r} has {len(hyp)} lines, test set has {len(ts)}")
    halves = split_by_origin(ts)
    refs = [seg.text for seg in ts.reference]
    groups = {
        "full": range(len(ts)),
        "source_original": halves.source_original,
        "target_original": halves.target_original,
    }
    groups_of = {i: names for names in (("full", "source_original"), ("full", "target_original"))
                 for i in groups[names[1]]}  # an unknown-origin segment is in "full" alone

    def range_stats(segments: range) -> dict[tuple[str, str], NgramStats]:
        stats = {(label, name): NgramStats.zero() for label in hyps for name in groups}
        for i in segments:
            ref = _tokenize_cached(refs[i])
            for label, hyp in hyps.items():
                hyp_tokens = _tokenize_cached(hyp[i])
                for name in groups_of.get(i, ("full",)):
                    # A module global, looked up at each call: perfbench's traced run counts it.
                    stats[label, name].add(ngram_stats(hyp_tokens, ref))
        return stats

    def name(segments: range) -> str:
        return f"scoring worker for segments {segments.start}..{segments.stop - 1}"

    bounds = [len(ts) * k // workers for k in range(workers + 1)]
    ranges = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    per_range = [stats for _, stats in fork_map(range_stats, ranges, workers, name)]
    return {label: AnalysisReport(
        split_scores={name: score_from_stats(sum((part[label, name] for part in per_range),
                                                 NgramStats.zero()), config)
                      for name, indices in groups.items() if indices},
        metadata={"system": label,
                  "counts": {name: len(indices) for name, indices in groups.items()},
                  "unknown_origin": len(halves.unknown)},
    ) for label in hyps}


def render_split_table(table: Mapping[str, AnalysisReport], ts: TestSet) -> str:
    """Aligned text rendering with one row per system and orig-<lang> columns."""
    headers = ["system", "full", f"orig-{ts.tgt_lang}", f"orig-{ts.src_lang}"]
    keys = ["full", "target_original", "source_original"]
    rows = [headers]
    for label, report in table.items():
        row = [label]
        for key in keys:
            score = report.split_scores.get(key)
            row.append(f"{score.score:.1f}" if score else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def _sanitize(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def humaneval_make_tasks(
    items: Sequence[tuple[str, str, str]],
    raters_per_item: int = 3,
    seed: int = 0,
) -> str:
    """Build the rating task file: one row per (item, rater slot), shuffled
    deterministically, with the fluency and accuracy prompts embedded and
    the rating cells left empty.

    Items are (source, output, system_label) triples.  ``raters_per_item``
    below 1 is a ``ValueError``: a task file without rows rates nothing.
    """
    if raters_per_item < 1:
        raise ValueError(f"raters per item must be >= 1, got {raters_per_item}")
    rows = [
        (f"item-{index:05d}", str(slot), _sanitize(source), _sanitize(output),
         FLUENCY_QUESTION, "", ACCURACY_QUESTION, "", _sanitize(system_label))
        for index, (source, output, system_label) in enumerate(items, 1)
        for slot in range(1, raters_per_item + 1)
    ]
    random.Random(seed).shuffle(rows)
    lines = [f"# {HUMANEVAL_SCHEMA}", "\t".join(_HUMANEVAL_COLUMNS)]
    lines.extend("\t".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _ratings(item_id: str, column: str, cells: list[str]) -> list[int]:
    ratings = []
    for cell in cells:
        try:
            ratings.append(int(cell))
        except ValueError:
            raise DataError(f"{column} of {item_id} is not an integer: {cell!r}") from None
    return ratings


def humaneval_aggregate(
    rows: Iterable[str], *, allow_partial: bool = False
) -> dict[str, dict[str, float]]:
    """Aggregate the rows of a completed task file per system.

    Fluency is the mean over items of the per-item mean rating (1..5);
    accuracy is the percentage of ratings answering that the output does
    NOT contradict the reference information (rating 0; 1 means it does).
    Items with any empty rating cell are an error unless ``allow_partial``,
    which skips them.

    ``rows`` are the file's lines without their "\n" (``lineio.read_lines``),
    so U+0085, U+2028, "\f" and the other breaks ``str.splitlines`` knows,
    which ``humaneval_make_tasks`` leaves inside cells of crawled text, stay
    inside their row.  A row's trailing "\r", from a spreadsheet export's
    "\r\n", is dropped.
    """
    rows = (row.removesuffix("\r") for row in rows)
    lines = [line for line in rows if line and not line.startswith("#")]
    if not lines:
        raise DataError("empty task file")
    header = lines[0].split("\t")
    if tuple(header) != _HUMANEVAL_COLUMNS:
        raise DataError(f"unexpected task file columns: {header}")
    col = {name: i for i, name in enumerate(header)}

    by_item: dict[str, dict] = {}
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(header):
            raise DataError(f"row has {len(cells)} cells, expected {len(header)}: {line[:80]!r}")
        item = by_item.setdefault(
            cells[col["item_id"]],
            {"system": cells[col["system_label"]], "fluency": [], "accuracy": []},
        )
        item["fluency"].append(cells[col["fluency_rating"]].strip())
        item["accuracy"].append(cells[col["accuracy_rating"]].strip())

    incomplete = sorted(
        item_id
        for item_id, item in by_item.items()
        if "" in item["fluency"] or "" in item["accuracy"]
    )
    if incomplete and not allow_partial:
        raise DataError(f"items with missing ratings: {', '.join(incomplete)}")

    per_system: dict[str, dict[str, list]] = {}
    for item_id, item in by_item.items():
        if item_id in incomplete:
            continue
        fluency = _ratings(item_id, "fluency_rating", item["fluency"])
        accuracy = _ratings(item_id, "accuracy_rating", item["accuracy"])
        if any(not 1 <= x <= 5 for x in fluency):
            raise DataError(f"fluency ratings must be in 1..5 for {item_id}")
        if any(x not in (0, 1) for x in accuracy):
            raise DataError(f"accuracy ratings must be 0 or 1 for {item_id}")
        bucket = per_system.setdefault(item["system"], {"item_means": [], "accuracy": []})
        bucket["item_means"].append(sum(fluency) / len(fluency))
        bucket["accuracy"].extend(accuracy)

    return {
        system: {
            # A left fold: from Python 3.12 on, sum() of floats compensates and changes bits.
            "fluency": functools.reduce(operator.add, b["item_means"], 0.0) / len(b["item_means"]),
            "accuracy": 100.0 * b["accuracy"].count(0) / len(b["accuracy"]),
        }
        for system, b in per_system.items()
    }


def format_ratings(results: Mapping[str, Mapping[str, float]]) -> str:
    """Render aggregated ratings as "<fluency> / <accuracy>%" cells."""
    return "\n".join(
        f"{system}: {r['fluency']:.2f} / {r['accuracy']:.1f}%" for system, r in results.items()
    )
