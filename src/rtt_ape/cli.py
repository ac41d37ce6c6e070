"""Command-line interface: every pipeline and analysis operation as a
scriptable subcommand.

Conventions shared by all subcommands:

* machine output goes to stdout or ``--out``; diagnostics go to stderr;
* every file a run writes (``--out``, ``--report``, the line files and the
  manifest) goes through a temp file that replaces it only on success (see
  ``lineio.atomic_open``); output on stdout streams, so lines printed before
  a failure stay printed;
* a run manifest (resolved config, input fingerprints, seed, version,
  timestamps) is written next to ``--out`` as ``<out>.manifest.json``;
* config precedence is flags > ``--config`` file > built-in defaults, and
  config values are converted and checked by the same types as flags;
* randomness always takes an explicit ``--seed`` and defaults to 0;
* exit codes: 0 success, 1 usage error, 2 data error, 3 backend error;
* each subcommand imports the library modules it runs, in its body, so a
  start loads only those (``--version`` loads none).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import click

from . import __version__
from .errors import BackendError, DataError
from .lineio import atomic_open, file_fingerprint, iter_lines, read_lines, smart_open, write_lines

if TYPE_CHECKING:
    from .backends import BackendSpec
    from .corpus import FilterConfig, FilterReport, SentencePair
    from .pipeline import ChangeReport
    from .testset import SplitHalves, TestSet

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _require(params: dict, *names: str) -> None:
    """Options required only in some modes; always-required ones say so to click."""
    for name in names:
        if params.get(name) in (None, ()):
            flag = "--" + name.replace("_", "-")
            raise click.UsageError(f"missing required option {flag}")


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[Callable[[str], object]]:
    """A ``write(text)`` for a command that streams its output: into ``out``
    all or nothing (see ``atomic_open``), or to stdout when ``out`` is None,
    where text already printed stays printed if the command then fails."""
    if out is None:
        yield lambda text: click.echo(text, nl=False)
    else:
        with atomic_open(out) as fh:
            yield fh.write


def _emit(out: str | None, text: str) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    with _output(out) as write:
        write(text)


def _emit_lines(out: str | None, lines: Iterable[str]) -> None:
    with _output(out) as write:
        for line in lines:
            write(line + "\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


def _report_out(report: FilterReport | ChangeReport, report_path: str | None) -> None:
    """A run's JSON counters, to ``--report`` or stderr."""
    text = _dump_json(report.as_dict())
    if report_path:
        _emit(report_path, text)
    else:
        click.echo(text, err=True)


def _tsv_rows(path: str, n: int) -> Iterator[list[str]]:
    """The cells of each line of a TSV file that must have ``n`` fields."""
    for i, line in enumerate(iter_lines(path), 1):
        cells = line.split("\t")
        if len(cells) != n:
            raise DataError(f"{path}:{i}: expected {n} tab-separated fields")
        yield cells


def _pair_writer(stack: contextlib.ExitStack, params: dict) -> Callable[[SentencePair], None]:
    """Write bitext to ``--out-src``/``--out-tgt`` when either is given, else
    as ``source<TAB>target`` lines to ``--out`` or stdout."""
    if params["out_src"] or params["out_tgt"]:
        _require(params, "out_src", "out_tgt")
        src = stack.enter_context(atomic_open(params["out_src"]))
        tgt = stack.enter_context(atomic_open(params["out_tgt"]))

        def write(pair: SentencePair) -> None:
            src.write(pair.source + "\n")
            tgt.write(pair.target + "\n")

        return write
    emit = stack.enter_context(_output(params["out"]))
    return lambda pair: emit(f"{pair.source}\t{pair.target}\n")


def _spec_files(*values: str) -> list[str]:
    """The backend flag values that name spec files, for the manifest."""
    return [value for value in values if value != "identity"]


def _load_backend(value: str) -> BackendSpec:
    """A backend flag value is either a bare kind needing no config
    ("identity") or the path of a JSON spec file."""
    from .backends import BackendSpec, spec_from_dict

    if value == "identity":
        return BackendSpec.identity()
    path = Path(value)
    if not path.exists():
        raise click.UsageError(
            f"backend {value!r} is neither 'identity' nor an existing spec file"
        )
    try:
        return spec_from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise DataError(f"bad backend spec {value!r}: {exc}") from exc


def _load_split(path: str) -> SplitHalves:
    from .testset import SplitHalves

    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
        return SplitHalves(
            source_original=tuple(d["source_original"]),
            target_original=tuple(d["target_original"]),
            unknown=tuple(d.get("unknown", ())),
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"bad split file {path!r}: {exc}") from exc


def _filter_config(params: dict) -> FilterConfig:
    from .corpus import FilterConfig

    return FilterConfig(
        max_chars=params.get("max_chars", 500),
        max_tokens=params.get("max_tokens", 70),
        bitext_max_tokens=params.get("bitext_max_tokens", 250),
        max_len_ratio=params.get("max_ratio", 2.0),
    )


@click.group()
@click.version_option(version=__version__, prog_name="rtt-ape")
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON file with per-subcommand defaults (flags still win).")
@click.pass_context
def cli(ctx: click.Context, config_path: str | None) -> None:
    """Round-trip translation pipelines, post-editing application, and
    origin-split BLEU evaluation."""
    if config_path is None:
        return
    try:
        config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"bad config file {config_path!r}: {exc}") from exc
    if not isinstance(config, dict) or not all(isinstance(v, dict) for v in config.values()):
        raise DataError(
            f"bad config file {config_path!r}: expected an object of objects keyed by subcommand"
        )
    # Click reads each subcommand's section as its defaults, below flags and
    # environment variables, and converts the values with the options' types.
    ctx.default_map = config


def _command(name: str) -> Callable[[Callable[[dict], Iterable[str] | None]], click.Command]:
    """Register ``body(params)`` as the subcommand ``name``.

    When the body succeeds and the run has an output file (``--out-src``,
    else ``--out``), ``<output>.manifest.json`` records the resolved
    parameters, seed, version, start and finish times, and a fingerprint of
    every input: each set ``click.Path(exists=True)`` option, plus the paths
    the body returns (inputs named inside other values)."""

    def register(body: Callable[[dict], Iterable[str] | None]) -> click.Command:
        @functools.wraps(body)
        def run(**params) -> None:
            started = _now()
            extra_inputs = body(params) or ()
            out = params.get("out_src") or params.get("out")
            if out is None:
                return
            inputs = [
                params[p.name] for p in click.get_current_context().command.params
                if isinstance(p.type, click.Path) and p.type.exists and params[p.name]
            ]
            manifest = {
                "tool": "rtt-ape",
                "version": __version__,
                "subcommand": name,
                "config": params,
                "inputs": {p: file_fingerprint(p) for p in [*inputs, *extra_inputs]},
                "seed": params.get("seed"),
                "started": started,
                "finished": _now(),
            }
            _emit(out + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True))

        return cli.command(name)(run)

    return register


@_command("parse-sgm")
@click.option("--sgm", type=click.Path(exists=True), required=True, help="SGM input file.")
@click.option("--side", type=click.Choice(["src", "ref", "hyp"]), default="src")
@click.option("--format", "out_format", type=click.Choice(["text", "tsv", "json", "sgm"]),
              default="text", help="text: one segment text per line; tsv: id/doc/origin/text; "
                                   "json: segment records; sgm: canonical re-serialization.")
@click.option("--labels-out", type=click.Path(),
              help="Also write the origin-labels sidecar (one language code per line).")
@click.option("--out", type=click.Path())
def parse_sgm_cmd(params: dict) -> None:
    """Parse a WMT-style SGM file into segments."""
    from .testset import parse_sgm, serialize_sgm

    with open(params["sgm"], "rb") as fh:
        segments = parse_sgm(fh, side=params["side"])
    fmt = params["out_format"]
    if fmt == "text":
        text = "\n".join(seg.text for seg in segments) + "\n"
    elif fmt == "tsv":
        text = "".join(
            f"{s.doc_id}\t{s.seg_id}\t{s.orig_lang}\t{s.text}\n" for s in segments
        )
    elif fmt == "json":
        text = _dump_json([vars(s) for s in segments])
    else:
        text = serialize_sgm(segments, side=params["side"])
    _emit(params["out"], text)
    if params["labels_out"]:
        write_lines(params["labels_out"], (s.orig_lang for s in segments))


def _load_testset(params: dict, with_refs: bool = False) -> TestSet:
    """Build a TestSet from either SGM files or plain text + origin labels."""
    from .testset import TestSet, parse_sgm, segments_from_lines

    if params.get("sgm") or params.get("src_sgm"):
        src_path = params.get("sgm") or params.get("src_sgm")
        with open(src_path, "rb") as fh:
            source = parse_sgm(fh, side="src")
        if with_refs:
            _require(params, "ref_sgm")
            with open(params["ref_sgm"], "rb") as fh:
                reference = parse_sgm(fh, side="ref")
        else:
            reference = source
    elif params.get("text") or params.get("ref_text"):
        lines_path = params.get("text") or params.get("ref_text")
        lines = read_lines(lines_path)
        origins = read_lines(params["origins"]) if params.get("origins") else None
        source = segments_from_lines(lines, origins)
        reference = source
    else:
        raise click.UsageError("provide --sgm (or --src-sgm/--ref-sgm) or --text with --origins")
    return TestSet(
        name=params.get("name") or "unknown",
        src_lang=params["src"],
        tgt_lang=params["tgt"],
        source=source,
        reference=reference,
    )


@_command("split")
@click.option("--sgm", type=click.Path(exists=True), help="Source-side SGM file.")
@click.option("--text", type=click.Path(exists=True), help="Plain-text test set.")
@click.option("--origins", type=click.Path(exists=True),
              help="Origin-labels sidecar for --text.")
@click.option("--src", required=True, help="Source language code, e.g. en.")
@click.option("--tgt", required=True, help="Target language code, e.g. de.")
@click.option("--name", help="Test set name for reports.")
@click.option("--out", type=click.Path())
def split_cmd(params: dict) -> None:
    """Partition a test set by original language; emits index lists as JSON."""
    from .testset import split_by_origin

    ts = _load_testset(params)
    halves = split_by_origin(ts)
    payload = {
        "n": len(ts),
        "src_lang": ts.src_lang,
        "tgt_lang": ts.tgt_lang,
        "source_original": list(halves.source_original),
        "target_original": list(halves.target_original),
        "unknown": list(halves.unknown),
    }
    _emit(params["out"], _dump_json(payload))


@_command("merge")
@click.option("--base", type=click.Path(exists=True), required=True)
@click.option("--edited", type=click.Path(exists=True), required=True)
@click.option("--split", "split_path", type=click.Path(exists=True), required=True,
              help="JSON produced by the split subcommand.")
@click.option("--mode", type=click.Choice(["all", "target_original_only"]),
              default="target_original_only")
@click.option("--out", type=click.Path())
def merge_cmd(params: dict) -> None:
    """Merge post-edited lines into a base hypothesis, selectively or fully."""
    from .testset import merge_selective

    base = read_lines(params["base"])
    edited = read_lines(params["edited"])
    halves = _load_split(params["split_path"])
    _emit_lines(params["out"], merge_selective(base, edited, halves, params["mode"]))


@_command("bleu")
@click.option("--hyp", type=click.Path(exists=True), required=True)
@click.option("--ref", type=click.Path(exists=True), required=True)
@click.option("--lang", default="unknown", help="Language pair, e.g. en-de.")
@click.option("--set", "set_name", default="unknown", help="Test set name for the signature.")
@click.option("--out", type=click.Path())
def bleu_cmd(params: dict) -> None:
    """Corpus BLEU of line-aligned hypothesis and reference files."""
    from .scoring import UNICODE_VERSION, BleuConfig, corpus_bleu

    hyp = read_lines(params["hyp"])
    ref = read_lines(params["ref"])
    if len(hyp) != len(ref):
        raise DataError(f"line count mismatch: {len(hyp)} hypotheses vs {len(ref)} references")
    score = corpus_bleu(zip(hyp, ref), BleuConfig(params["lang"], params["set_name"]))
    payload = score.as_dict()
    payload["unicode_version"] = UNICODE_VERSION
    _emit(params["out"], _dump_json(payload))
    click.echo(score.format(), err=True)


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

    def kept():
        for line in iter_lines(params["in_path"]):
            report.read += 1
            reason = mono_reject_reason(line, cfg)
            if reason is None:
                report.kept += 1
                yield line
            else:
                report.reject(reason)

    _emit_lines(params["out"], kept())
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
            raise DataError(f"line count mismatch: {counts[0]} vs {counts[1]}")
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
        for pair in pairs:
            report.read += 1
            reason = bitext_reject_reason(pair, cfg)
            if reason is None:
                report.kept += 1
                write(pair)
            else:
                report.reject(reason)
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


@_command("rtt-gen")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True,
              help="Monolingual corpus, one sentence per line.")
@click.option("--to-pivot", required=True, help="Backend spec (JSON file) or 'identity'.")
@click.option("--from-pivot", required=True, help="Backend spec (JSON file) or 'identity'.")
@click.option("--max-chars", type=int, default=500, show_default=True)
@click.option("--max-tokens", type=int, default=70, show_default=True)
@click.option("--filter-sides", type=click.Choice(["both", "original", "round_trip"]),
              default="both", show_default=True,
              help="Which side(s) of each pair the length filter applies to.")
@click.option("--intermediate", type=click.Path(),
              help="Also write the pivot-language text for auditing.")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--cache-dir", envvar="RTT_APE_CACHE", type=click.Path())
@click.option("--out", type=click.Path(), help="TSV: original<TAB>round_trip.")
def rtt_gen_cmd(params: dict) -> list[str]:
    """Generate round-trip translations for every surviving line."""
    from .pipeline import iter_rtt

    y_to_x = _load_backend(params["to_pivot"])
    x_to_y = _load_backend(params["from_pivot"])
    with contextlib.ExitStack() as stack:
        write = stack.enter_context(_output(params["out"]))
        pivot_out = (
            stack.enter_context(atomic_open(params["intermediate"]))
            if params["intermediate"] else None
        )
        for line_no, pivot, pair in iter_rtt(
            iter_lines(params["in_path"]),
            y_to_x,
            x_to_y,
            _filter_config(params),
            filter_sides=params["filter_sides"],
            jobs=params["jobs"],
            cache_dir=params["cache_dir"],
        ):
            if pivot_out is not None:
                pivot_out.write(pivot + "\n")
            if pair is None:
                continue
            if "\t" in pair.original or "\t" in pair.round_trip:
                side = "original" if "\t" in pair.original else "round trip"
                raise DataError(
                    f"{params['in_path']}:{line_no}: {side} contains a tab, "
                    "which the original<TAB>round_trip output cannot hold"
                )
            write(f"{pair.original}\t{pair.round_trip}\n")
    return _spec_files(params["to_pivot"], params["from_pivot"])


@_command("make-pairs")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True,
              help="TSV of original<TAB>round_trip as written by rtt-gen.")
@click.option("--direction", type=click.Choice(["normal", "reverse"]), default="normal",
              show_default=True)
@click.option("--out-src", type=click.Path())
@click.option("--out-tgt", type=click.Path())
@click.option("--out", type=click.Path(), help="TSV output instead of two files.")
@click.option("--max-tokens", "bitext_max_tokens", type=int, default=250, show_default=True)
@click.option("--max-ratio", type=float, default=2.0, show_default=True)
def make_pairs_cmd(params: dict) -> None:
    """Turn round-trip pairs into filtered training bitext."""
    from .pipeline import PAIRS_PER_CHUNK, RttPair, chunked, make_training_pairs

    cfg = _filter_config(params)
    rtt_pairs = (RttPair(*cells) for cells in _tsv_rows(params["in_path"], 2))
    with contextlib.ExitStack() as stack:
        write = _pair_writer(stack, params)
        for chunk in chunked(rtt_pairs, PAIRS_PER_CHUNK):
            for pair in make_training_pairs(chunk, params["direction"], cfg):
                write(pair)


@_command("ape-apply")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True,
              help="Translation output to post-edit, one line per sentence.")
@click.option("--backend", required=True, help="Backend spec (JSON file) or 'identity'.")
@click.option("--scope", type=click.Choice(["all", "target_original_only"]), default="all",
              show_default=True)
@click.option("--iterations", type=int, default=1, show_default=True)
@click.option("--split", "split_path", type=click.Path(exists=True),
              help="JSON from the split subcommand (needed for selective scope).")
@click.option("--report", "report_path", type=click.Path())
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--cache-dir", envvar="RTT_APE_CACHE", type=click.Path())
@click.option("--out", type=click.Path())
def ape_apply_cmd(params: dict) -> list[str]:
    """Post-edit translation output through a backend, fully or selectively."""
    from .pipeline import ApeMode, apply_ape

    if params["scope"] == "target_original_only":
        _require(params, "split_path")
    hyp = read_lines(params["in_path"])
    halves = _load_split(params["split_path"]) if params["split_path"] else None
    output, change_report = apply_ape(
        hyp,
        _load_backend(params["backend"]),
        halves,
        ApeMode(scope=params["scope"], iterations=params["iterations"]),
        jobs=params["jobs"],
        cache_dir=params["cache_dir"],
    )
    _emit_lines(params["out"], output)
    _report_out(change_report, params["report_path"])
    return _spec_files(params["backend"])


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

    originals = read_lines(params["original"])
    round_trips = read_lines(params["roundtrip"])
    report = rtt_quality_report(
        originals, round_trips, BleuConfig(params["lang"], params["set_name"])
    )
    _emit(params["out"], _dump_json(report.as_dict()))


def _check_hyp_specs(ctx: click.Context, param: click.Parameter, specs: tuple[str, ...]):
    """Each ``--hyp LABEL=PATH`` names an existing file, checked like any
    ``click.Path(exists=True)`` input."""
    for spec in specs:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise click.UsageError(f"--hyp expects LABEL=PATH, got {spec!r}")
        click.Path(exists=True).convert(path, param, ctx)
    return specs


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
    hyps = {}
    for spec in params["hyp_specs"]:
        label, _, path = spec.partition("=")
        hyps[label] = read_lines(path)
    table = split_score_table(ts, hyps)
    payload = {label: report.as_dict() for label, report in table.items()}
    _emit(params["out"], _dump_json(payload))
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

    items = [tuple(cells) for cells in _tsv_rows(params["items"], 3)]
    text = humaneval_make_tasks(items, raters_per_item=params["raters"], seed=params["seed"])
    _emit(params["out"], text)


@_command("humaneval-agg")
@click.option("--tasks", type=click.Path(exists=True), required=True,
              help="Completed task file.")
@click.option("--allow-partial", is_flag=True, default=False,
              help="Skip items with missing ratings instead of failing.")
@click.option("--out", type=click.Path())
def humaneval_agg_cmd(params: dict) -> None:
    """Aggregate completed ratings per system: mean fluency and accuracy %."""
    from .analysis import format_ratings, humaneval_aggregate

    with smart_open(params["tasks"]) as fh:
        results = humaneval_aggregate(fh.read(), allow_partial=params["allow_partial"])
    _emit(params["out"], _dump_json(results))
    click.echo(format_ratings(results), err=True)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    except BackendError as exc:
        click.echo(f"backend error: {exc}", err=True)
        return EXIT_BACKEND
    except (DataError, ValueError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
