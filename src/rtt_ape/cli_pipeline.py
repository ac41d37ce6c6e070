"""Round-trip translation and post-editing subcommands, which run backends.

Loaded by ``cli`` when a run names one of its subcommands."""

from __future__ import annotations

from contextlib import closing, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from .cli import (BACKEND, FLOAT, IN, INTEGER, INPUT, OUT, PATH, REPORT, Option, _report_out,
                  _require, choice)
from .halves import ALL, SCOPES, TARGET_ORIGINAL_ONLY, SplitHalves
from .lineio import iter_lines, iter_rows, open_lines, read_json, read_lines, write_lines

if TYPE_CHECKING:
    from .backends import BackendSpec


def _load_backend(value: str) -> BackendSpec:
    """The backend a ``BACKEND`` value names: "identity", or the spec in a
    JSON file."""
    from .backends import BackendSpec, spec_from_dict

    return (BackendSpec.identity() if value == "identity"
            else read_json(value, "backend spec", spec_from_dict))


def rtt_gen_cmd(params: dict) -> None:
    """Generate round-trip translations for every surviving line."""
    from .cli_corpus import _filter_config
    from .parallel import Reiterable
    from .pipeline import iter_rtt

    y_to_x = _load_backend(params["to_pivot"])
    x_to_y = _load_backend(params["from_pivot"])
    # A regular file is read by each worker itself; a pipe only by this process.
    in_path = params["in_path"]
    lines = Reiterable(iter_lines, in_path) if Path(in_path).is_file() else iter_lines(in_path)
    rtt = iter_rtt(lines, y_to_x, x_to_y, _filter_config(params),
                   filter_sides=params["filter_sides"], jobs=params["jobs"],
                   cache_dir=params["cache_dir"])
    pivots = open_lines(params["intermediate"]) if params["intermediate"] else nullcontext()
    with (closing(rtt), open_lines(params["out"], ("original", "round trip"),
                                   params["in_path"]) as write, pivots as pivot_out):
        for line_no, pivot, pair in rtt:
            if pivot_out is not None:
                pivot_out(pivot)
            if pair is not None:
                write((pair.original, pair.round_trip), line_no)


def make_pairs_cmd(params: dict) -> None:
    """Turn round-trip pairs into filtered training bitext."""
    from .cli_corpus import _filter_config, _write_pairs
    from .pipeline import PAIRS_PER_CHUNK, RttPair, chunked, make_training_pairs

    cfg = _filter_config(params)
    rtt_pairs = (RttPair(*cells) for cells in iter_rows(params["in_path"], 2))
    chunks = chunked(rtt_pairs, PAIRS_PER_CHUNK)
    _write_pairs(params, (pair for chunk in chunks
                          for pair in make_training_pairs(chunk, params["direction"], cfg)))


def ape_apply_cmd(params: dict) -> None:
    """Post-edit translation output through a backend, fully or selectively."""
    from .pipeline import ApeMode, apply_ape

    if params["scope"] == TARGET_ORIGINAL_ONLY:
        _require(params, split_path="--split")
    hyp = read_lines(params["in_path"])
    halves = SplitHalves.read(params["split_path"], len(hyp)) if params["split_path"] else None
    mode = ApeMode(scope=params["scope"], iterations=params["iterations"])
    output, change_report = apply_ape(hyp, _load_backend(params["backend"]), halves, mode,
                                      jobs=params["jobs"], cache_dir=params["cache_dir"])
    write_lines(params["out"], output)
    _report_out(change_report, params["report_path"])


_BACKEND_HELP = "Backend spec (JSON file) or 'identity'."
_JOBS = Option("--jobs", INTEGER, 1)
_CACHE_DIR = Option("--cache-dir", PATH, env="RTT_APE_CACHE")

# Each subcommand: its body and its options (see ``cli.Option``).
COMMANDS = {
    "rtt-gen": (rtt_gen_cmd, [
        IN._replace(help="Monolingual corpus, one sentence per line."),
        Option("--to-pivot", BACKEND, required=True, help=_BACKEND_HELP),
        Option("--from-pivot", BACKEND, required=True, help=_BACKEND_HELP),
        Option("--max-chars", INTEGER, 500), Option("--max-tokens", INTEGER, 70),
        Option("--filter-sides", choice("both", "original", "round_trip"), "both",
               help="Which side(s) of each pair the length filter applies to."),
        Option("--intermediate", PATH, help="Also write the pivot-language text for auditing."),
        _JOBS, _CACHE_DIR, OUT._replace(help="TSV: original<TAB>round_trip.")]),
    "make-pairs": (make_pairs_cmd, [
        IN._replace(help="TSV of original<TAB>round_trip as written by rtt-gen."),
        Option("--direction", choice("normal", "reverse"), "normal"),
        Option("--out-src", PATH), Option("--out-tgt", PATH),
        OUT._replace(help="TSV output instead of two files."),
        Option("--max-tokens", INTEGER, 250, dest="bitext_max_tokens"),
        Option("--max-ratio", FLOAT, 2.0)]),
    "ape-apply": (ape_apply_cmd, [
        IN._replace(help="Translation output to post-edit, one line per sentence."),
        Option("--backend", BACKEND, required=True, help=_BACKEND_HELP),
        Option("--scope", choice(*SCOPES), ALL), Option("--iterations", INTEGER, 1),
        Option("--split", INPUT, dest="split_path",
               help="JSON from the split subcommand (needed for selective scope)."),
        REPORT, _JOBS, _CACHE_DIR, OUT]),
}
