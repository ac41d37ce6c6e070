"""Corpus subcommands: length filters, deduplication, sampling.

Loaded by ``cli`` the first time one of its subcommands is looked up."""

from __future__ import annotations

import click

from .cli import _command, _filter_config, _report_out, _require, _write_pairs
from .lineio import iter_aligned, iter_lines, iter_rows, write_lines


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
    write_lines(params["out"], kept)
    _report_out(report, params["report_path"])


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
        rows = iter_rows(params["tsv_path"], 2)
    else:
        _require(params, "src_path", "tgt_path", "out_src", "out_tgt")
        rows = iter_aligned(params["src_path"], params["tgt_path"])
    pairs = (SentencePair(*row) for row in rows)
    cfg = _filter_config(params)
    report = FilterReport()
    _write_pairs(params, report.filter(pairs, lambda pair: bitext_reject_reason(pair, cfg)))
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
    write_lines(params["out"], unique)
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
    write_lines(params["out"], subset)
