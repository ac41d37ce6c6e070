"""Corpus subcommands: length filters, deduplication, sampling.

Loaded by ``cli`` when a run names one of its subcommands, and by the
bodies of ``rtt-gen`` and ``make-pairs`` for the helpers they share."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .cli import (FLAG, FLOAT, IN, INPUT, INTEGER, OUT, PATH, REPORT, Option, _either,
                  _report_out, _require)
from .lineio import iter_aligned, iter_lines, iter_rows, open_lines, write_lines

if TYPE_CHECKING:
    from .corpus import FilterConfig, SentencePair


def _write_pairs(params: dict, pairs: Iterable[SentencePair]) -> None:
    """Write bitext to ``--out-src`` and ``--out-tgt`` when either is given,
    else as source and target rows to ``--out`` or stdout.  Only one of the
    two forms (see ``cli._either``)."""
    if _either(params, {"out": "--out"}, {"out_src": "--out-src", "out_tgt": "--out-tgt"},
               needed=False) != 1:
        with open_lines(params["out"], ("source", "target")) as write:
            for pair in pairs:
                write((pair.source, pair.target))
        return
    with open_lines(params["out_src"]) as src, open_lines(params["out_tgt"]) as tgt:
        for pair in pairs:
            src(pair.source)
            tgt(pair.target)


def _filter_config(params: dict) -> FilterConfig:
    """The caps the command declares; ``FilterConfig`` sets the others."""
    from .corpus import FilterConfig

    fields = {"max_chars": "max_chars", "max_tokens": "max_tokens",
              "bitext_max_tokens": "bitext_max_tokens", "max_ratio": "max_len_ratio"}
    return FilterConfig(**{fields[name]: value for name, value in params.items() if name in fields})


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

    if _either(params, {"src_path": "--src", "tgt_path": "--tgt"}, {"tsv_path": "--tsv"}) == 1:
        rows = iter_rows(params["tsv_path"], 2)
    else:
        _require(params, out_src="--out-src", out_tgt="--out-tgt")
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
