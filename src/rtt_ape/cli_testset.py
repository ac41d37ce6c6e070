"""Test-set subcommands: parse SGM, split by origin, merge post-edits.

Loaded by ``cli`` the first time one of its subcommands is looked up."""

from __future__ import annotations

import click

from .cli import _command, _dump_json, _emit, _load_testset, _read_sgm
from .halves import SCOPES, TARGET_ORIGINAL_ONLY, SplitHalves
from .lineio import open_lines, read_aligned, write_lines


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
    from .testset import serialize_sgm

    segments, attrs = _read_sgm(params["sgm"], params["side"])
    fmt = params["out_format"]
    if fmt == "text":
        write_lines(params["out"], (seg.text for seg in segments))
    elif fmt == "tsv":
        with open_lines(params["out"], ("doc_id", "seg_id", "orig_lang", "text")) as write:
            for seg in segments:
                write((seg.doc_id, seg.seg_id, seg.orig_lang, seg.text))
    elif fmt == "json":
        _emit(params["out"], _dump_json([vars(s) for s in segments]))
    else:
        _emit(params["out"], serialize_sgm(segments, params["side"], attrs))
    if params["labels_out"]:
        write_lines(params["labels_out"], (s.orig_lang for s in segments))


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
    payload = split_by_origin(ts).payload(len(ts), ts.src_lang, ts.tgt_lang)
    _emit(params["out"], _dump_json(payload))


@_command("merge")
@click.option("--base", type=click.Path(exists=True), required=True)
@click.option("--edited", type=click.Path(exists=True), required=True)
@click.option("--split", "split_path", type=click.Path(exists=True), required=True,
              help="JSON produced by the split subcommand.")
@click.option("--mode", type=click.Choice(SCOPES), default=TARGET_ORIGINAL_ONLY)
@click.option("--out", type=click.Path())
def merge_cmd(params: dict) -> None:
    """Merge post-edited lines into a base hypothesis, selectively or fully."""
    from .testset import merge_selective

    base, edited = read_aligned(params["base"], params["edited"])
    halves = SplitHalves.read(params["split_path"], len(base))
    write_lines(params["out"], merge_selective(base, edited, halves, params["mode"]))
