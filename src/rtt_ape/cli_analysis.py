"""Scoring and analysis subcommands: BLEU, origin-split and round-trip
reports, vocabulary sizes, human evaluation.

Loaded by ``cli`` when a run names one of its subcommands."""

from __future__ import annotations

import sys

from .cli import FLAG, IN, INPUT, INTEGER, OUT, Option, Type, _dump_json, _emit, choice
from .errors import DataError
from .lineio import iter_aligned, iter_lines, iter_rows, read_aligned, read_lines


def bleu_cmd(params: dict) -> None:
    """Corpus BLEU of line-aligned hypothesis and reference files."""
    from .scoring import UNICODE_VERSION, BleuConfig, corpus_bleu

    score = corpus_bleu(iter_aligned(params["hyp"], params["ref"]),
                        BleuConfig(params["lang"], params["set_name"]))
    _emit(params["out"], _dump_json({**score.as_dict(), "unicode_version": UNICODE_VERSION}))
    print(score.format(), file=sys.stderr)


def report_rtt_cmd(params: dict) -> None:
    """Round-trip quality: BLEU against the originals, precision breakdown,
    and vocabulary sizes of both sides."""
    from .analysis import rtt_quality_report
    from .scoring import BleuConfig

    originals, round_trips = read_aligned(params["original"], params["roundtrip"])
    report = rtt_quality_report(originals, round_trips,
                                BleuConfig(params["lang"], params["set_name"]))
    _emit(params["out"], _dump_json(report.as_dict()))


def _hyp_specs(specs: object) -> tuple[str, ...]:
    """``--hyp LABEL=PATH``s: each names an existing file, checked like any
    ``INPUT``, under a label no other ``--hyp`` uses."""
    specs = tuple(specs) if isinstance(specs, (list, tuple)) else (specs,)
    labels = set()
    for spec in specs:
        label, sep, path = str(spec).partition("=")
        if not sep or not label or not path:
            raise ValueError(f"{spec!r} is not LABEL=PATH.")
        if label in labels:
            raise ValueError(f"label {label!r} is given more than once.")
        labels.add(label)
        INPUT.convert(path)
    return specs


_HYPS = Type("LABEL=PATH", _hyp_specs, lambda specs: [spec.partition("=")[2] for spec in specs])


# Fewest (system, segment) pairs per scoring process, so report-split forks
# only from 2x this many pairs.  Timed in fresh processes on perfbench eval
# inputs cut to N segments x 8 systems (sandbox, nproc 2, Python 3.11.7,
# medians of 11), one process scores a pair in ~19 us of CPU, and a second
# process costs 15-25 ms to fork, to fault in the pages both write, to pipe
# its stats back and to reap: at 1,600 pairs one takes 0.034 s and two
# 0.051 s, at 12,000 pairs 0.224 s and 0.249 s, while the second vCPU was
# shared.  With it free, two run side by side, which pays from about
# 2 x 16 ms / 19 us = 1,700 pairs: a whole report-split of 16,000 pairs
# then took 0.27 s of wall time in two processes against 0.38 s in one.
MIN_PAIRS_PER_WORKER = 1000


def _scoring_workers(pairs: int) -> int:
    """How many processes score ``pairs`` (system, segment) pairs: one per
    usable core, each with at least ``MIN_PAIRS_PER_WORKER`` pairs."""
    from .parallel import usable_cores

    return max(1, min(usable_cores(), pairs // MIN_PAIRS_PER_WORKER))


def report_split_cmd(params: dict) -> None:
    """Score systems on the full set and on both origin halves."""
    from .analysis import render_split_table, split_score_table
    from .cli_testset import _is_sgm, _read_sgm, _text_segments
    from .testset import TestSet

    if _is_sgm(params, ("--src-sgm", "--ref-sgm"), "--ref-text"):
        refs = params["ref_sgm"]
        source, reference = _read_sgm(params["src_sgm"], "src")[0], _read_sgm(refs, "ref")[0]
    else:
        refs = params["ref_text"]
        source = reference = _text_segments(refs, params["origins"])
    ts = TestSet(params["name"] or "unknown", params["src"], params["tgt"], source, reference)
    hyps = {}
    for spec in params["hyp_specs"]:
        label, _, path = spec.partition("=")
        hyps[label] = hyp = read_lines(path)
        if len(hyp) != len(ts):
            raise DataError(
                f"line count mismatch: {len(hyp)} in {path} vs {len(ts)} segments in {refs}")
    table = split_score_table(ts, hyps, workers=_scoring_workers(len(hyps) * len(ts)))
    _emit(params["out"], _dump_json({label: report.as_dict() for label, report in table.items()}))
    if params["table"]:
        print(render_split_table(table, ts), file=sys.stderr)


def vocab_cmd(params: dict) -> None:
    """Count distinct tokens (case-sensitive)."""
    from .analysis import vocab_size

    count = vocab_size(iter_lines(params["in_path"]), params["tokenizer"])
    _emit(params["out"], _dump_json({"vocab_size": count, "tokenizer": params["tokenizer"]}))


def humaneval_make_cmd(params: dict) -> None:
    """Build blind rating tasks: one row per (item, rater slot)."""
    from .analysis import humaneval_make_tasks

    items = [tuple(cells) for cells in iter_rows(params["items"], 3)]
    _emit(params["out"], humaneval_make_tasks(items, params["raters"], params["seed"]))


def humaneval_agg_cmd(params: dict) -> None:
    """Aggregate completed ratings per system: mean fluency and accuracy %."""
    from .analysis import format_ratings, humaneval_aggregate

    results = humaneval_aggregate(read_lines(params["tasks"]),
                                  allow_partial=params["allow_partial"])
    _emit(params["out"], _dump_json(results))
    print(format_ratings(results), file=sys.stderr)


# Each subcommand: its body and its options (see ``cli.Option``).
COMMANDS = {
    "bleu": (bleu_cmd, [
        Option("--hyp", INPUT, required=True), Option("--ref", INPUT, required=True),
        Option("--lang", default="unknown", help="Language pair, e.g. en-de."),
        Option("--set", default="unknown", dest="set_name",
               help="Test set name for the signature."), OUT]),
    "report-rtt": (report_rtt_cmd, [
        Option("--original", INPUT, required=True), Option("--roundtrip", INPUT, required=True),
        Option("--lang", default="unknown"), Option("--set", default="unknown", dest="set_name"),
        OUT]),
    "report-split": (report_split_cmd, [
        Option("--src-sgm", INPUT), Option("--ref-sgm", INPUT),
        Option("--ref-text", INPUT, help="Plain-text references (with --origins) instead of SGM."),
        Option("--origins", INPUT),
        Option("--src", required=True, help="Source language code."),
        Option("--tgt", required=True, help="Target language code."),
        Option("--name", help="Test set name for signatures."),
        Option("--hyp", _HYPS, (), required=True, dest="hyp_specs", multiple=True,
               help="Repeat for several systems."),
        Option("--table", FLAG, False, help="Also print an aligned table to stderr."), OUT]),
    "vocab": (vocab_cmd, [
        IN, Option("--tokenizer", choice("whitespace", "intl"), "whitespace"), OUT]),
    "humaneval-make": (humaneval_make_cmd, [
        Option("--items", INPUT, required=True, help="TSV: source<TAB>output<TAB>system_label."),
        Option("--raters", INTEGER, 3), Option("--seed", INTEGER, 0), OUT]),
    "humaneval-agg": (humaneval_agg_cmd, [
        Option("--tasks", INPUT, required=True, help="Completed task file."),
        Option("--allow-partial", FLAG, False,
               help="Skip items with missing ratings instead of failing."), OUT]),
}
