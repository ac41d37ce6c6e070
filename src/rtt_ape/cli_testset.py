"""Test-set subcommands: parse SGM, split by origin, merge post-edits.

Loaded by ``cli`` when a run names one of its subcommands."""

from __future__ import annotations

from .cli import INPUT, OUT, PATH, Option, _dump_json, _emit, _load_testset, _read_sgm, choice
from .halves import SCOPES, TARGET_ORIGINAL_ONLY, SplitHalves
from .lineio import open_lines, read_aligned, write_lines


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


def split_cmd(params: dict) -> None:
    """Partition a test set by original language; emits index lists as JSON."""
    from .testset import split_by_origin

    ts = _load_testset(params)
    payload = split_by_origin(ts).payload(len(ts), ts.src_lang, ts.tgt_lang)
    _emit(params["out"], _dump_json(payload))


def merge_cmd(params: dict) -> None:
    """Merge post-edited lines into a base hypothesis, selectively or fully."""
    from .testset import merge_selective

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
