"""Test-set subcommands: parse SGM, split by origin, merge post-edits.

Loaded by ``cli`` when a run names one of its subcommands."""

from __future__ import annotations

from pathlib import Path

from .cli import INPUT, OUT, PATH, Option, UsageError, _dump_json, _either, _emit, choice
from .errors import SgmParseError
from .halves import SCOPES, TARGET_ORIGINAL_ONLY, SplitHalves
from .lineio import open_lines, read_aligned, read_lines, write_lines
from .testset import (Segment, TestSet, merge_selective, parse_sgm, segments_from_lines,
                      serialize_sgm, split_by_origin, wrapper_attrs)  # every command runs it


def _read_sgm(path: str, side: str) -> tuple[list[Segment], dict[str, str] | None]:
    """The segments and the wrapper attributes (see ``testset.wrapper_attrs``)
    of the SGM file at ``path``; a parse error names the file."""
    data = Path(path).read_bytes()
    try:
        return parse_sgm(data, side=side), wrapper_attrs(data)
    except SgmParseError as exc:
        raise SgmParseError(f"{path}: {exc}") from exc


def _text_segments(text: str, origins: str | None) -> list[Segment]:
    """A plain-text test set's segments, labelled by ``origins`` if given."""
    return segments_from_lines(*(read_aligned(text, origins) if origins else [read_lines(text)]))


def _is_sgm(params: dict, sgm: tuple[str, ...], text: str) -> bool:
    """Whether a command's test set comes from its SGM flags ``sgm``, each
    of which it then needs, rather than from its plain-text flag ``text``,
    which ``--origins`` labels (see ``cli._either``)."""
    if _either(params, {Option(flag).name: flag for flag in sgm}, {Option(text).name: text}) == 1:
        return False
    if params["origins"]:
        raise UsageError(f"--origins goes with {text}, not {'/'.join(sgm)}")
    return True


def parse_sgm_cmd(params: dict) -> None:
    """Parse a WMT-style SGM file into segments."""
    segments, attrs = _read_sgm(params["sgm"], params["side"])
    fmt = params["out_format"]
    if fmt == "text":
        write_lines(params["out"], (seg.text for seg in segments))
    elif fmt == "tsv":
        with open_lines(params["out"], ("doc_id", "seg_id", "orig_lang", "text")) as write:
            for seg in segments:
                write((seg.doc_id, seg.seg_id, seg.orig_lang, seg.text))
    elif fmt == "json":
        _emit(params["out"], _dump_json([s._asdict() for s in segments]))
    else:
        _emit(params["out"], serialize_sgm(segments, params["side"], attrs))
    if params["labels_out"]:
        write_lines(params["labels_out"], (s.orig_lang for s in segments))


def split_cmd(params: dict) -> None:
    """Partition a test set by original language; emits index lists as JSON."""
    segments = (_read_sgm(params["sgm"], "src")[0] if _is_sgm(params, ("--sgm",), "--text")
                else _text_segments(params["text"], params["origins"]))
    ts = TestSet(params["name"] or "unknown", params["src"], params["tgt"], segments, segments)
    payload = split_by_origin(ts).payload(len(ts), ts.src_lang, ts.tgt_lang)
    _emit(params["out"], _dump_json(payload))


def merge_cmd(params: dict) -> None:
    """Merge post-edited lines into a base hypothesis, selectively or fully."""
    base, edited = read_aligned(params["base"], params["edited"])
    halves = SplitHalves.read(params["split_path"], len(base))
    write_lines(params["out"], merge_selective(base, edited, halves, params["mode"]))


# Each subcommand: its body and its options (see ``cli.Option``).
COMMANDS = {
    "parse-sgm": (parse_sgm_cmd, [
        Option("--sgm", INPUT, required=True, help="SGM input file."),
        Option("--side", choice("src", "ref", "hyp"), "src"),
        Option("--format", choice("text", "tsv", "json", "sgm"), "text", dest="out_format",
               help="text: one segment text per line; tsv: id/doc/origin/text; "
                    "json: segment records; sgm: canonical re-serialization."),
        Option("--labels-out", PATH,
               help="Also write the origin-labels sidecar (one language code per line)."),
        OUT]),
    "split": (split_cmd, [
        Option("--sgm", INPUT, help="Source-side SGM file."),
        Option("--text", INPUT, help="Plain-text test set."),
        Option("--origins", INPUT, help="Origin-labels sidecar for --text."),
        Option("--src", required=True, help="Source language code, e.g. en."),
        Option("--tgt", required=True, help="Target language code, e.g. de."),
        Option("--name", help="Test set name for reports."), OUT]),
    "merge": (merge_cmd, [
        Option("--base", INPUT, required=True), Option("--edited", INPUT, required=True),
        Option("--split", INPUT, required=True, dest="split_path",
               help="JSON produced by the split subcommand."),
        Option("--mode", choice(*SCOPES), TARGET_ORIGINAL_ONLY), OUT]),
}
