"""Corpus subcommands: length filters, deduplication, sampling.

Loaded by ``cli`` the first time one of its subcommands is looked up."""

from __future__ import annotations

import contextlib
import itertools
from typing import TYPE_CHECKING, Iterator

import click

from .cli import (
    _command, _emit_lines, _filter_config, _pair_writer, _report_out, _require, _tsv_rows,
)
from .errors import DataError
from .lineio import iter_lines

if TYPE_CHECKING:
    from .corpus import SentencePair


@_command("filter-mono")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--max-chars", type=int, default=500, show_default=True)
@click.option("--max-tokens", type=int, default=70, show_default=True)
@click.option("--report", "report_path", type=click.Path(),
              help="Write the JSON counters here instead of stderr.")
@click.option("--out", type=click.Path())
def filter_mono_cmd(params: dict) -> None:
    """Drop monolingual lines exceeding the character or token caps."""
    from .corpus import FilterReport, mono_reject_reason

    cfg = _filter_config(params)
    report = FilterReport()
    kept = report.filter(iter_lines(params["in_path"]), lambda line: mono_reject_reason(line, cfg))
    _emit_lines(params["out"], kept)
    _report_out(report, params["report_path"])


def _parallel_pairs(src_path: str, tgt_path: str) -> Iterator[SentencePair]:
    """Stream line-aligned source and target files as pairs; a data error if
    their line counts differ, raised once the shorter file ends."""
    from .corpus import SentencePair

    rows = itertools.zip_longest(iter_lines(src_path), iter_lines(tgt_path))
    for n, (source, target) in enumerate(rows):
        if source is None or target is None:
            longer = n + 1 + sum(1 for _ in rows)
            counts = (n, longer) if source is None else (longer, n)
            raise DataError(
                f"line count mismatch: {counts[0]} in {src_path} vs {counts[1]} in {tgt_path}")
        yield SentencePair(source, target)


@_command("filter-bitext")
@click.option("--src", "src_path", type=click.Path(exists=True))
@click.option("--tgt", "tgt_path", type=click.Path(exists=True))
@click.option("--tsv", "tsv_path", type=click.Path(exists=True),
              help="Tab-separated source/target pairs instead of two files.")
@click.option("--out-src", type=click.Path())
@click.option("--out-tgt", type=click.Path())
@click.option("--out", type=click.Path(), help="TSV output (with --tsv).")
@click.option("--max-tokens", "bitext_max_tokens", type=int, default=250, show_default=True)
@click.option("--max-ratio", type=float, default=2.0, show_default=True)
@click.option("--report", "report_path", type=click.Path())
def filter_bitext_cmd(params: dict) -> None:
    """Drop bitext pairs with an empty side, an over-long side, or an
    excessive token length ratio."""
    from .corpus import FilterReport, SentencePair, bitext_reject_reason

    if params["tsv_path"]:
        pairs = (SentencePair(*cells) for cells in _tsv_rows(params["tsv_path"], 2))
    else:
        _require(params, "src_path", "tgt_path", "out_src", "out_tgt")
        pairs = _parallel_pairs(params["src_path"], params["tgt_path"])
    cfg = _filter_config(params)
    report = FilterReport()
    with contextlib.ExitStack() as stack:
        write = _pair_writer(stack, params)
        for pair in report.filter(pairs, lambda pair: bitext_reject_reason(pair, cfg)):
            write(pair)
    _report_out(report, params["report_path"])


@_command("dedup")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--exact", is_flag=True, default=False,
              help="Keep full lines instead of 128-bit fingerprints (audit mode).")
@click.option("--report", "report_path", type=click.Path())
@click.option("--out", type=click.Path())
def dedup_cmd(params: dict) -> None:
    """Keep the first occurrence of each exact line, preserving order."""
    from .corpus import FilterReport, dedup

    report = FilterReport()
    unique = dedup(iter_lines(params["in_path"]), exact=params["exact"], report=report)
    _emit_lines(params["out"], unique)
    _report_out(report, params["report_path"])


@_command("sample")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path())
def sample_cmd(params: dict) -> None:
    """Uniform random subset of exactly n lines, in original order."""
    from .corpus import sample_lines

    subset = sample_lines(iter_lines(params["in_path"]), params["n"], params["seed"])
    _emit_lines(params["out"], subset)
