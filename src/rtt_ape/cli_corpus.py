"""Corpus subcommands: length filters, deduplication, sampling.

Loaded by ``cli`` when a run names one of its subcommands."""

from __future__ import annotations

from .cli import (FLAG, FLOAT, IN, INPUT, INTEGER, OUT, PATH, REPORT, Option, _filter_config,
                  _report_out, _require, _write_pairs)
from .lineio import iter_aligned, iter_lines, iter_rows, write_lines


def filter_mono_cmd(params: dict) -> None:
    """Drop monolingual lines exceeding the character or token caps."""
    from .corpus import FilterReport, mono_reject_reason

    cfg = _filter_config(params)
    report = FilterReport()
    kept = report.filter(iter_lines(params["in_path"]), lambda line: mono_reject_reason(line, cfg))
    write_lines(params["out"], kept)
    _report_out(report, params["report_path"])


def filter_bitext_cmd(params: dict) -> None:
    """Drop bitext pairs with an empty side, an over-long side, or an
    excessive token length ratio."""
    from .corpus import FilterReport, SentencePair, bitext_reject_reason

    if params["tsv_path"]:
        rows = iter_rows(params["tsv_path"], 2)
    else:
        _require(params, src_path="--src", tgt_path="--tgt", out_src="--out-src",
                 out_tgt="--out-tgt")
        rows = iter_aligned(params["src_path"], params["tgt_path"])
    pairs = (SentencePair(*row) for row in rows)
    cfg = _filter_config(params)
    report = FilterReport()
    _write_pairs(params, report.filter(pairs, lambda pair: bitext_reject_reason(pair, cfg)))
    _report_out(report, params["report_path"])


def dedup_cmd(params: dict) -> None:
    """Keep the first occurrence of each exact line, preserving order."""
    from .corpus import FilterReport, dedup

    report = FilterReport()
    unique = dedup(iter_lines(params["in_path"]), exact=params["exact"], report=report)
    write_lines(params["out"], unique)
    _report_out(report, params["report_path"])


def sample_cmd(params: dict) -> None:
    """Uniform random subset of exactly n lines, in original order."""
    from .corpus import sample_lines

    subset = sample_lines(iter_lines(params["in_path"]), params["n"], params["seed"])
    write_lines(params["out"], subset)


# Each subcommand: its body and its options (see ``cli.Option``).
COMMANDS = {
    "filter-mono": (filter_mono_cmd, [
        IN, Option("--max-chars", INTEGER, 500), Option("--max-tokens", INTEGER, 70),
        REPORT._replace(help="Write the JSON counters here instead of stderr."), OUT]),
    "filter-bitext": (filter_bitext_cmd, [
        Option("--src", INPUT, dest="src_path"), Option("--tgt", INPUT, dest="tgt_path"),
        Option("--tsv", INPUT, dest="tsv_path",
               help="Tab-separated source/target pairs instead of two files."),
        Option("--out-src", PATH), Option("--out-tgt", PATH),
        OUT._replace(help="TSV output (with --tsv)."),
        Option("--max-tokens", INTEGER, 250, dest="bitext_max_tokens"),
        Option("--max-ratio", FLOAT, 2.0), REPORT]),
    "dedup": (dedup_cmd, [
        IN, Option("--exact", FLAG, False,
                   help="Keep full lines instead of 128-bit fingerprints (audit mode)."),
        REPORT, OUT]),
    "sample": (sample_cmd, [
        IN, Option("--n", INTEGER, required=True), Option("--seed", INTEGER, 0), OUT]),
}
