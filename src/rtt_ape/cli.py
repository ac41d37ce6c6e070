"""Command-line interface: every pipeline and analysis operation as a
scriptable subcommand.

Conventions shared by all subcommands:

* machine output goes to stdout or ``--out``; diagnostics go to stderr;
* line files are written through a temp file that replaces the output only
  on success (see ``lineio.atomic_open``); output on stdout streams, so
  lines printed before a failure stay printed;
* a run manifest (resolved config, input fingerprints, seed, version,
  timestamps) is written next to ``--out`` as ``<out>.manifest.json``;
* config precedence is flags > ``--config`` file > built-in defaults;
* randomness always takes an explicit ``--seed`` and defaults to 0;
* exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
"""

from __future__ import annotations

import contextlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

import click
from click.core import ParameterSource

from . import __version__
from .analysis import (
    format_ratings,
    humaneval_aggregate,
    humaneval_make_tasks,
    render_split_table,
    rtt_quality_report,
    split_score_table,
    vocab_size,
)
from .backends import BackendSpec, spec_from_dict
from .corpus import (
    FilterConfig,
    FilterReport,
    SentencePair,
    bitext_reject_reason,
    dedup as dedup_lines,
    mono_reject_reason,
    sample_lines,
)
from .errors import BackendError, DataError
from .lineio import atomic_open, file_fingerprint, iter_lines, read_lines, smart_open, write_lines
from .pipeline import (
    PAIRS_PER_CHUNK,
    ApeMode,
    RttPair,
    apply_ape,
    chunked,
    iter_rtt,
    make_training_pairs,
)
from .scoring import UNICODE_VERSION, BleuConfig, corpus_bleu
from .testset import (
    SplitHalves,
    TestSet,
    merge_selective,
    parse_sgm,
    segments_from_lines,
    serialize_sgm,
    split_by_origin,
)

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _resolved(ctx: click.Context) -> dict:
    """Materialize this command's parameters: explicit flags win, then the
    --config file section named after the subcommand, then defaults."""
    section = (ctx.obj or {}).get("config", {}).get(ctx.info_name, {})
    params = dict(ctx.params)
    for name, value in section.items():
        if name in params and ctx.get_parameter_source(name) == ParameterSource.DEFAULT:
            params[name] = value
    return params


def _require(params: dict, *names: str) -> None:
    for name in names:
        if params.get(name) in (None, ()):
            flag = "--" + name.replace("_", "-")
            raise click.UsageError(f"missing required option {flag}")


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(out: str | None, text: str) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


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


def _write_manifest(
    ctx: click.Context,
    params: dict,
    inputs: list,
    started: str,
    out: str | None,
) -> None:
    if out is None:
        return
    manifest = {
        "tool": "rtt-ape",
        "version": __version__,
        "subcommand": ctx.info_name,
        "config": {k: _jsonable(v) for k, v in sorted(params.items())},
        "inputs": {str(p): file_fingerprint(p) for p in inputs if p},
        "seed": params.get("seed"),
        "started": started,
        "finished": _now(),
    }
    Path(str(out) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


def _load_backend(value: str) -> BackendSpec:
    """A backend flag value is either a bare kind needing no config
    ("identity") or the path of a JSON spec file."""
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
    return FilterConfig(
        max_chars=params.get("max_chars", 500),
        max_tokens=params.get("max_tokens", 70),
        bitext_max_tokens=params.get("bitext_max_tokens", 250),
        max_len_ratio=params.get("max_ratio", 2.0),
    )


@click.group()
@click.version_option(version=__version__, prog_name="rtt-ape")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON file with per-subcommand defaults (flags still win).")
@click.pass_context
def cli(ctx: click.Context, config_path: str | None) -> None:
    """Round-trip translation pipelines, post-editing application, and
    origin-split BLEU evaluation."""
    ctx.ensure_object(dict)
    if config_path:
        ctx.obj["config"] = json.loads(Path(config_path).read_text(encoding="utf-8"))
    else:
        ctx.obj["config"] = {}


@cli.command("parse-sgm")
@click.option("--sgm", type=click.Path(exists=True), default=None, help="SGM input file.")
@click.option("--side", type=click.Choice(["src", "ref", "hyp"]), default="src")
@click.option("--format", "out_format", type=click.Choice(["text", "tsv", "json", "sgm"]),
              default="text", help="text: one segment text per line; tsv: id/doc/origin/text; "
                                   "json: segment records; sgm: canonical re-serialization.")
@click.option("--labels-out", type=click.Path(), default=None,
              help="Also write the origin-labels sidecar (one language code per line).")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def parse_sgm_cmd(ctx, **_kwargs) -> None:
    """Parse a WMT-style SGM file into segments."""
    params = _resolved(ctx)
    _require(params, "sgm")
    started = _now()
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
        text = _dump_json([vars(s) for s in segments]) + "\n"
    else:
        text = serialize_sgm(segments, side=params["side"])
    _emit(params["out"], text)
    if params["labels_out"]:
        write_lines(params["labels_out"], (s.orig_lang for s in segments))
    _write_manifest(ctx, params, [params["sgm"]], started, params["out"])


def _load_testset(params: dict, with_refs: bool = False) -> TestSet:
    """Build a TestSet from either SGM files or plain text + origin labels."""
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


@cli.command("split")
@click.option("--sgm", type=click.Path(exists=True), default=None, help="Source-side SGM file.")
@click.option("--text", type=click.Path(exists=True), default=None, help="Plain-text test set.")
@click.option("--origins", type=click.Path(exists=True), default=None,
              help="Origin-labels sidecar for --text.")
@click.option("--src", default=None, help="Source language code, e.g. en.")
@click.option("--tgt", default=None, help="Target language code, e.g. de.")
@click.option("--name", default=None, help="Test set name for reports.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def split_cmd(ctx, **_kwargs) -> None:
    """Partition a test set by original language; emits index lists as JSON."""
    params = _resolved(ctx)
    _require(params, "src", "tgt")
    started = _now()
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
    _emit(params["out"], _dump_json(payload) + "\n")
    inputs = [p for p in (params.get("sgm"), params.get("text"), params.get("origins")) if p]
    _write_manifest(ctx, params, inputs, started, params["out"])


@cli.command("merge")
@click.option("--base", type=click.Path(exists=True), default=None)
@click.option("--edited", type=click.Path(exists=True), default=None)
@click.option("--split", "split_path", type=click.Path(exists=True), default=None,
              help="JSON produced by the split subcommand.")
@click.option("--mode", type=click.Choice(["all", "target_original_only"]),
              default="target_original_only")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def merge_cmd(ctx, **_kwargs) -> None:
    """Merge post-edited lines into a base hypothesis, selectively or fully."""
    params = _resolved(ctx)
    _require(params, "base", "edited", "split_path")
    started = _now()
    base = read_lines(params["base"])
    edited = read_lines(params["edited"])
    halves = _load_split(params["split_path"])
    merged = merge_selective(base, edited, halves, params["mode"])
    _emit(params["out"], "".join(line + "\n" for line in merged))
    _write_manifest(
        ctx, params, [params["base"], params["edited"], params["split_path"]], started, params["out"]
    )


@cli.command("bleu")
@click.option("--hyp", type=click.Path(exists=True), default=None)
@click.option("--ref", type=click.Path(exists=True), default=None)
@click.option("--lang", default="unknown", help="Language pair, e.g. en-de.")
@click.option("--set", "set_name", default="unknown", help="Test set name for the signature.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def bleu_cmd(ctx, **_kwargs) -> None:
    """Corpus BLEU of line-aligned hypothesis and reference files."""
    params = _resolved(ctx)
    _require(params, "hyp", "ref")
    started = _now()
    hyp = read_lines(params["hyp"])
    ref = read_lines(params["ref"])
    if len(hyp) != len(ref):
        raise DataError(f"line count mismatch: {len(hyp)} hypotheses vs {len(ref)} references")
    score = corpus_bleu(zip(hyp, ref), BleuConfig(params["lang"], params["set_name"]))
    payload = score.as_dict()
    payload["unicode_version"] = UNICODE_VERSION
    _emit(params["out"], _dump_json(payload) + "\n")
    click.echo(score.format(), err=True)
    _write_manifest(ctx, params, [params["hyp"], params["ref"]], started, params["out"])


def _report_out(report: FilterReport, report_path: str | None) -> None:
    text = _dump_json(report.as_dict())
    if report_path:
        Path(report_path).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text, err=True)


@cli.command("filter-mono")
@click.option("--in", "in_path", type=click.Path(exists=True), default=None)
@click.option("--max-chars", type=int, default=500, show_default=True)
@click.option("--max-tokens", type=int, default=70, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write the JSON counters here instead of stderr.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def filter_mono_cmd(ctx, **_kwargs) -> None:
    """Drop monolingual lines exceeding the character or token caps."""
    params = _resolved(ctx)
    _require(params, "in_path")
    started = _now()
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

    if params["out"] is None:
        for line in kept():
            click.echo(line)
    else:
        write_lines(params["out"], kept())
    _report_out(report, params["report_path"])
    _write_manifest(ctx, params, [params["in_path"]], started, params["out"])


@cli.command("filter-bitext")
@click.option("--src", "src_path", type=click.Path(exists=True), default=None)
@click.option("--tgt", "tgt_path", type=click.Path(exists=True), default=None)
@click.option("--tsv", "tsv_path", type=click.Path(exists=True), default=None,
              help="Tab-separated source/target pairs instead of two files.")
@click.option("--out-src", type=click.Path(), default=None)
@click.option("--out-tgt", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None, help="TSV output (with --tsv).")
@click.option("--max-tokens", "bitext_max_tokens", type=int, default=250, show_default=True)
@click.option("--max-ratio", type=float, default=2.0, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.pass_context
def filter_bitext_cmd(ctx, **_kwargs) -> None:
    """Drop bitext pairs with an empty side, an over-long side, or an
    excessive token length ratio."""
    params = _resolved(ctx)
    started = _now()
    cfg = _filter_config(params)
    report = FilterReport()

    if params["tsv_path"]:
        def pairs():
            for i, line in enumerate(iter_lines(params["tsv_path"])):
                cells = line.split("\t")
                if len(cells) != 2:
                    raise DataError(f"{params['tsv_path']}:{i + 1}: expected 2 tab-separated fields")
                yield SentencePair(cells[0], cells[1])
        inputs = [params["tsv_path"]]
        primary_out = params["out"]
    else:
        _require(params, "src_path", "tgt_path", "out_src", "out_tgt")
        src_lines = read_lines(params["src_path"])
        tgt_lines = read_lines(params["tgt_path"])
        if len(src_lines) != len(tgt_lines):
            raise DataError(f"line count mismatch: {len(src_lines)} vs {len(tgt_lines)}")
        def pairs():
            for s, t in zip(src_lines, tgt_lines):
                yield SentencePair(s, t)
        inputs = [params["src_path"], params["tgt_path"]]
        primary_out = params["out_src"]

    survivors = []
    for pair in pairs():
        report.read += 1
        reason = bitext_reject_reason(pair, cfg)
        if reason is None:
            report.kept += 1
            survivors.append(pair)
        else:
            report.reject(reason)

    if params["tsv_path"]:
        _emit(params["out"], "".join(f"{p.source}\t{p.target}\n" for p in survivors))
    else:
        write_lines(params["out_src"], (p.source for p in survivors))
        write_lines(params["out_tgt"], (p.target for p in survivors))
    _report_out(report, params["report_path"])
    _write_manifest(ctx, params, inputs, started, primary_out)


@cli.command("dedup")
@click.option("--in", "in_path", type=click.Path(exists=True), default=None)
@click.option("--exact", is_flag=True, default=False,
              help="Keep full lines instead of 128-bit fingerprints (audit mode).")
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def dedup_cmd(ctx, **_kwargs) -> None:
    """Keep the first occurrence of each exact line, preserving order."""
    params = _resolved(ctx)
    _require(params, "in_path")
    started = _now()
    report = FilterReport()
    unique = dedup_lines(iter_lines(params["in_path"]), exact=params["exact"], report=report)
    if params["out"] is None:
        for line in unique:
            click.echo(line)
    else:
        write_lines(params["out"], unique)
    _report_out(report, params["report_path"])
    _write_manifest(ctx, params, [params["in_path"]], started, params["out"])


@cli.command("sample")
@click.option("--in", "in_path", type=click.Path(exists=True), default=None)
@click.option("--n", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def sample_cmd(ctx, **_kwargs) -> None:
    """Uniform random subset of exactly n lines, in original order."""
    params = _resolved(ctx)
    _require(params, "in_path", "n")
    started = _now()
    subset = sample_lines(iter_lines(params["in_path"]), params["n"], params["seed"])
    _emit(params["out"], "".join(line + "\n" for line in subset))
    _write_manifest(ctx, params, [params["in_path"]], started, params["out"])


@cli.command("rtt-gen")
@click.option("--in", "in_path", type=click.Path(exists=True), default=None,
              help="Monolingual corpus, one sentence per line.")
@click.option("--to-pivot", default=None, help="Backend spec (JSON file) or 'identity'.")
@click.option("--from-pivot", default=None, help="Backend spec (JSON file) or 'identity'.")
@click.option("--max-chars", type=int, default=500, show_default=True)
@click.option("--max-tokens", type=int, default=70, show_default=True)
@click.option("--filter-sides", type=click.Choice(["both", "original", "round_trip"]),
              default="both", show_default=True,
              help="Which side(s) of each pair the length filter applies to.")
@click.option("--intermediate", type=click.Path(), default=None,
              help="Also write the pivot-language text for auditing.")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--cache-dir", envvar="RTT_APE_CACHE", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None, help="TSV: original<TAB>round_trip.")
@click.pass_context
def rtt_gen_cmd(ctx, **_kwargs) -> None:
    """Generate round-trip translations for every surviving line."""
    params = _resolved(ctx)
    _require(params, "in_path", "to_pivot", "from_pivot")
    started = _now()
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
    _write_manifest(ctx, params, [params["in_path"]], started, params["out"])


@cli.command("make-pairs")
@click.option("--in", "in_path", type=click.Path(exists=True), default=None,
              help="TSV of original<TAB>round_trip as written by rtt-gen.")
@click.option("--direction", type=click.Choice(["normal", "reverse"]), default="normal",
              show_default=True)
@click.option("--out-src", type=click.Path(), default=None)
@click.option("--out-tgt", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None, help="TSV output instead of two files.")
@click.option("--max-tokens", "bitext_max_tokens", type=int, default=250, show_default=True)
@click.option("--max-ratio", type=float, default=2.0, show_default=True)
@click.pass_context
def make_pairs_cmd(ctx, **_kwargs) -> None:
    """Turn round-trip pairs into filtered training bitext."""
    params = _resolved(ctx)
    _require(params, "in_path")
    started = _now()
    in_path = params["in_path"]
    cfg = _filter_config(params)

    def rtt_pairs():
        for i, line in enumerate(iter_lines(in_path)):
            cells = line.split("\t")
            if len(cells) != 2:
                raise DataError(f"{in_path}:{i + 1}: expected 2 tab-separated fields")
            yield RttPair(original=cells[0], round_trip=cells[1])

    with contextlib.ExitStack() as stack:
        if params["out_src"] or params["out_tgt"]:
            _require(params, "out_src", "out_tgt")
            src = stack.enter_context(atomic_open(params["out_src"]))
            tgt = stack.enter_context(atomic_open(params["out_tgt"]))

            def write(pair: SentencePair) -> None:
                src.write(pair.source + "\n")
                tgt.write(pair.target + "\n")

            primary_out = params["out_src"]
        else:
            emit = stack.enter_context(_output(params["out"]))

            def write(pair: SentencePair) -> None:
                emit(f"{pair.source}\t{pair.target}\n")

            primary_out = params["out"]
        for chunk in chunked(rtt_pairs(), PAIRS_PER_CHUNK):
            for pair in make_training_pairs(chunk, params["direction"], cfg):
                write(pair)
    _write_manifest(ctx, params, [in_path], started, primary_out)


@cli.command("ape-apply")
@click.option("--in", "in_path", type=click.Path(exists=True), default=None,
              help="Translation output to post-edit, one line per sentence.")
@click.option("--backend", default=None, help="Backend spec (JSON file) or 'identity'.")
@click.option("--scope", type=click.Choice(["all", "target_original_only"]), default="all",
              show_default=True)
@click.option("--iterations", type=int, default=1, show_default=True)
@click.option("--split", "split_path", type=click.Path(exists=True), default=None,
              help="JSON from the split subcommand (needed for selective scope).")
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--cache-dir", envvar="RTT_APE_CACHE", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def ape_apply_cmd(ctx, **_kwargs) -> None:
    """Post-edit translation output through a backend, fully or selectively."""
    params = _resolved(ctx)
    _require(params, "in_path", "backend")
    if params["scope"] == "target_original_only":
        _require(params, "split_path")
    started = _now()
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
    _emit(params["out"], "".join(line + "\n" for line in output))
    text = _dump_json(change_report.as_dict())
    if params["report_path"]:
        Path(params["report_path"]).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text, err=True)
    inputs = [params["in_path"]] + ([params["split_path"]] if params["split_path"] else [])
    _write_manifest(ctx, params, inputs, started, params["out"])


@cli.command("report-rtt")
@click.option("--original", type=click.Path(exists=True), default=None)
@click.option("--roundtrip", type=click.Path(exists=True), default=None)
@click.option("--lang", default="unknown")
@click.option("--set", "set_name", default="unknown")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def report_rtt_cmd(ctx, **_kwargs) -> None:
    """Round-trip quality: BLEU against the originals, precision breakdown,
    and vocabulary sizes of both sides."""
    params = _resolved(ctx)
    _require(params, "original", "roundtrip")
    started = _now()
    originals = read_lines(params["original"])
    round_trips = read_lines(params["roundtrip"])
    report = rtt_quality_report(
        originals, round_trips, BleuConfig(params["lang"], params["set_name"])
    )
    _emit(params["out"], _dump_json(report.as_dict()) + "\n")
    _write_manifest(ctx, params, [params["original"], params["roundtrip"]], started, params["out"])


@cli.command("report-split")
@click.option("--src-sgm", type=click.Path(exists=True), default=None)
@click.option("--ref-sgm", type=click.Path(exists=True), default=None)
@click.option("--ref-text", type=click.Path(exists=True), default=None,
              help="Plain-text references (with --origins) instead of SGM.")
@click.option("--origins", type=click.Path(exists=True), default=None)
@click.option("--src", default=None, help="Source language code.")
@click.option("--tgt", default=None, help="Target language code.")
@click.option("--name", default=None, help="Test set name for signatures.")
@click.option("--hyp", "hyp_specs", multiple=True,
              help="LABEL=PATH; repeat for several systems.")
@click.option("--table", is_flag=True, default=False, help="Also print an aligned table to stderr.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def report_split_cmd(ctx, **_kwargs) -> None:
    """Score systems on the full set and on both origin halves."""
    params = _resolved(ctx)
    _require(params, "src", "tgt", "hyp_specs")
    started = _now()
    ts = _load_testset(params, with_refs=bool(params.get("src_sgm")))
    hyps = {}
    for spec in params["hyp_specs"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise click.UsageError(f"--hyp expects LABEL=PATH, got {spec!r}")
        hyps[label] = read_lines(path)
    table = split_score_table(ts, hyps)
    payload = {label: report.as_dict() for label, report in table.items()}
    _emit(params["out"], _dump_json(payload) + "\n")
    if params["table"]:
        click.echo(render_split_table(table, ts), err=True)
    inputs = [p for p in (params.get("src_sgm"), params.get("ref_sgm"),
                          params.get("ref_text"), params.get("origins")) if p]
    inputs += [spec.partition("=")[2] for spec in params["hyp_specs"]]
    _write_manifest(ctx, params, inputs, started, params["out"])


@cli.command("vocab")
@click.option("--in", "in_path", type=click.Path(exists=True), default=None)
@click.option("--tokenizer", type=click.Choice(["whitespace", "intl"]), default="whitespace",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def vocab_cmd(ctx, **_kwargs) -> None:
    """Count distinct tokens (case-sensitive)."""
    params = _resolved(ctx)
    _require(params, "in_path")
    started = _now()
    count = vocab_size(iter_lines(params["in_path"]), params["tokenizer"])
    payload = {"vocab_size": count, "tokenizer": params["tokenizer"]}
    _emit(params["out"], _dump_json(payload) + "\n")
    _write_manifest(ctx, params, [params["in_path"]], started, params["out"])


@cli.command("humaneval-make")
@click.option("--items", type=click.Path(exists=True), default=None,
              help="TSV: source<TAB>output<TAB>system_label.")
@click.option("--raters", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def humaneval_make_cmd(ctx, **_kwargs) -> None:
    """Build blind rating tasks: one row per (item, rater slot)."""
    params = _resolved(ctx)
    _require(params, "items")
    started = _now()
    items = []
    for i, line in enumerate(iter_lines(params["items"])):
        cells = line.split("\t")
        if len(cells) != 3:
            raise DataError(f"{params['items']}:{i + 1}: expected 3 tab-separated fields")
        items.append((cells[0], cells[1], cells[2]))
    text = humaneval_make_tasks(items, raters_per_item=params["raters"], seed=params["seed"])
    _emit(params["out"], text)
    _write_manifest(ctx, params, [params["items"]], started, params["out"])


@cli.command("humaneval-agg")
@click.option("--tasks", type=click.Path(exists=True), default=None,
              help="Completed task file.")
@click.option("--allow-partial", is_flag=True, default=False,
              help="Skip items with missing ratings instead of failing.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def humaneval_agg_cmd(ctx, **_kwargs) -> None:
    """Aggregate completed ratings per system: mean fluency and accuracy %."""
    params = _resolved(ctx)
    _require(params, "tasks")
    started = _now()
    with smart_open(params["tasks"]) as fh:
        results = humaneval_aggregate(fh.read(), allow_partial=params["allow_partial"])
    _emit(params["out"], _dump_json(results) + "\n")
    click.echo(format_ratings(results), err=True)
    _write_manifest(ctx, params, [params["tasks"]], started, params["out"])


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return EXIT_USAGE
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
