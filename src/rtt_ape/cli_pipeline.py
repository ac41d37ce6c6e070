"""Round-trip translation and post-editing subcommands, which run backends.

Loaded by ``cli`` the first time one of its subcommands is looked up."""

from __future__ import annotations

from contextlib import closing, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .cli import _command, _filter_config, _report_out, _require, _write_pairs
from .halves import ALL, SCOPES, TARGET_ORIGINAL_ONLY, SplitHalves
from .lineio import iter_lines, iter_rows, open_lines, read_json, read_lines, write_lines

if TYPE_CHECKING:
    from .backends import BackendSpec


def _spec_files(*values: str) -> list[str]:
    """The backend flag values that name spec files, for the manifest."""
    return [value for value in values if value != "identity"]


def _load_backend(value: str) -> BackendSpec:
    """A backend flag value is either a bare kind needing no config
    ("identity") or the path of a JSON spec file."""
    from .backends import BackendSpec, spec_from_dict

    if value == "identity":
        return BackendSpec.identity()
    if not Path(value).exists():
        raise click.UsageError(f"backend {value!r} is neither 'identity' nor an existing spec file")
    return read_json(value, "backend spec", spec_from_dict)


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
    from .parallel import Reiterable
    from .pipeline import iter_rtt

    y_to_x = _load_backend(params["to_pivot"])
    x_to_y = _load_backend(params["from_pivot"])
    # A regular file is read by each worker itself; a pipe only by this process.
    in_path = params["in_path"]
    lines = Reiterable(iter_lines, in_path) if Path(in_path).is_file() else iter_lines(in_path)
    # Started, and its workers forked, before a .gz output starts its writer thread.
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
    rtt_pairs = (RttPair(*cells) for cells in iter_rows(params["in_path"], 2))
    chunks = chunked(rtt_pairs, PAIRS_PER_CHUNK)
    _write_pairs(params, (pair for chunk in chunks
                          for pair in make_training_pairs(chunk, params["direction"], cfg)))


@_command("ape-apply")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True,
              help="Translation output to post-edit, one line per sentence.")
@click.option("--backend", required=True, help="Backend spec (JSON file) or 'identity'.")
@click.option("--scope", type=click.Choice(SCOPES), default=ALL, show_default=True)
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

    if params["scope"] == TARGET_ORIGINAL_ONLY:
        _require(params, "split_path")
    hyp = read_lines(params["in_path"])
    halves = SplitHalves.read(params["split_path"], len(hyp)) if params["split_path"] else None
    mode = ApeMode(scope=params["scope"], iterations=params["iterations"])
    output, change_report = apply_ape(hyp, _load_backend(params["backend"]), halves, mode,
                                      jobs=params["jobs"], cache_dir=params["cache_dir"])
    write_lines(params["out"], output)
    _report_out(change_report, params["report_path"])
    return _spec_files(params["backend"])
