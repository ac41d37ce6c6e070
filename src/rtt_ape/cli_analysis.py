"""Scoring and analysis subcommands: BLEU, origin-split and round-trip
reports, vocabulary sizes, human evaluation.

Loaded by ``cli`` the first time one of its subcommands is looked up."""

from __future__ import annotations

import click

from .cli import _command, _dump_json, _emit, _load_testset
from .errors import DataError
from .lineio import iter_aligned, iter_lines, iter_rows, read_aligned, read_lines


@_command("bleu")
@click.option("--hyp", type=click.Path(exists=True), required=True)
@click.option("--ref", type=click.Path(exists=True), required=True)
@click.option("--lang", default="unknown", help="Language pair, e.g. en-de.")
@click.option("--set", "set_name", default="unknown", help="Test set name for the signature.")
@click.option("--out", type=click.Path())
def bleu_cmd(params: dict) -> None:
    """Corpus BLEU of line-aligned hypothesis and reference files."""
    from .scoring import UNICODE_VERSION, BleuConfig, corpus_bleu

    score = corpus_bleu(iter_aligned(params["hyp"], params["ref"]),
                        BleuConfig(params["lang"], params["set_name"]))
    _emit(params["out"], _dump_json({**score.as_dict(), "unicode_version": UNICODE_VERSION}))
    click.echo(score.format(), err=True)


@_command("report-rtt")
@click.option("--original", type=click.Path(exists=True), required=True)
@click.option("--roundtrip", type=click.Path(exists=True), required=True)
@click.option("--lang", default="unknown")
@click.option("--set", "set_name", default="unknown")
@click.option("--out", type=click.Path())
def report_rtt_cmd(params: dict) -> None:
    """Round-trip quality: BLEU against the originals, precision breakdown,
    and vocabulary sizes of both sides."""
    from .analysis import rtt_quality_report
    from .scoring import BleuConfig

    originals, round_trips = read_aligned(params["original"], params["roundtrip"])
    report = rtt_quality_report(originals, round_trips,
                                BleuConfig(params["lang"], params["set_name"]))
    _emit(params["out"], _dump_json(report.as_dict()))


def _check_hyp_specs(ctx: click.Context, param: click.Parameter, specs: tuple[str, ...]):
    """Each ``--hyp LABEL=PATH`` names an existing file, checked like any
    ``click.Path(exists=True)`` input, under a label no other ``--hyp`` uses."""
    labels = set()
    for spec in specs:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise click.UsageError(f"--hyp expects LABEL=PATH, got {spec!r}")
        if label in labels:
            raise click.UsageError(f"--hyp label {label!r} given more than once")
        labels.add(label)
        click.Path(exists=True).convert(path, param, ctx)
    return specs


# Fewest (system, segment) pairs per scoring process, so report-split forks
# only from 2x this many pairs.  A second process costs ~7 ms to fork, to
# pipe its stats back and to reap.  Timed in fresh processes on perfbench
# eval inputs cut to N segments x 8 systems (2-core sandbox, Python 3.11,
# medians of 11): at 400 pairs one process takes 0.015 s and two 0.019 s;
# from 500 to 800 pairs they are even; at 1,600 pairs two take 0.053 s
# against 0.077 s and win 10 of 11 runs.
MIN_PAIRS_PER_WORKER = 500


def _scoring_workers(pairs: int) -> int:
    """How many processes score ``pairs`` (system, segment) pairs: one per
    usable core, each with at least ``MIN_PAIRS_PER_WORKER`` pairs."""
    from .parallel import usable_cores

    return max(1, min(usable_cores(), pairs // MIN_PAIRS_PER_WORKER))


@_command("report-split")
@click.option("--src-sgm", type=click.Path(exists=True))
@click.option("--ref-sgm", type=click.Path(exists=True))
@click.option("--ref-text", type=click.Path(exists=True),
              help="Plain-text references (with --origins) instead of SGM.")
@click.option("--origins", type=click.Path(exists=True))
@click.option("--src", required=True, help="Source language code.")
@click.option("--tgt", required=True, help="Target language code.")
@click.option("--name", help="Test set name for signatures.")
@click.option("--hyp", "hyp_specs", multiple=True, required=True, callback=_check_hyp_specs,
              help="LABEL=PATH; repeat for several systems.")
@click.option("--table", is_flag=True, default=False, help="Also print an aligned table to stderr.")
@click.option("--out", type=click.Path())
def report_split_cmd(params: dict) -> list[str]:
    """Score systems on the full set and on both origin halves."""
    from .analysis import render_split_table, split_score_table

    ts = _load_testset(params, with_refs=bool(params.get("src_sgm")))
    refs = params["ref_sgm"] if params["src_sgm"] else params["ref_text"]
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
        click.echo(render_split_table(table, ts), err=True)
    return [spec.partition("=")[2] for spec in params["hyp_specs"]]


@_command("vocab")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--tokenizer", type=click.Choice(["whitespace", "intl"]), default="whitespace",
              show_default=True)
@click.option("--out", type=click.Path())
def vocab_cmd(params: dict) -> None:
    """Count distinct tokens (case-sensitive)."""
    from .analysis import vocab_size

    count = vocab_size(iter_lines(params["in_path"]), params["tokenizer"])
    _emit(params["out"], _dump_json({"vocab_size": count, "tokenizer": params["tokenizer"]}))


@_command("humaneval-make")
@click.option("--items", type=click.Path(exists=True), required=True,
              help="TSV: source<TAB>output<TAB>system_label.")
@click.option("--raters", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path())
def humaneval_make_cmd(params: dict) -> None:
    """Build blind rating tasks: one row per (item, rater slot)."""
    from .analysis import humaneval_make_tasks

    items = [tuple(cells) for cells in iter_rows(params["items"], 3)]
    _emit(params["out"], humaneval_make_tasks(items, params["raters"], params["seed"]))


@_command("humaneval-agg")
@click.option("--tasks", type=click.Path(exists=True), required=True,
              help="Completed task file.")
@click.option("--allow-partial", is_flag=True, default=False,
              help="Skip items with missing ratings instead of failing.")
@click.option("--out", type=click.Path())
def humaneval_agg_cmd(params: dict) -> None:
    """Aggregate completed ratings per system: mean fluency and accuracy %."""
    from .analysis import format_ratings, humaneval_aggregate

    results = humaneval_aggregate(read_lines(params["tasks"]),
                                  allow_partial=params["allow_partial"])
    _emit(params["out"], _dump_json(results))
    click.echo(format_ratings(results), err=True)
