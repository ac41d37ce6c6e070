"""Command-line interface: every pipeline and analysis operation as a
scriptable subcommand.

This module holds the ``cli`` group, the runner every subcommand goes
through and the helpers they share.  The subcommands themselves live in
the ``cli_*`` modules named in ``SUBCOMMANDS``, grouped by the library
layer they drive; the group imports a subcommand's module the first time
the subcommand is looked up, so a start compiles and builds only the
command it runs (``--version`` none, ``--help`` all).

Conventions shared by all subcommands:

* machine output goes to stdout or ``--out``, the same bytes either way;
  diagnostics go to stderr;
* every file a run writes (``--out``, ``--report``, the line files and the
  manifest) goes through a temp file that replaces it only on success (see
  ``lineio.atomic_open``); output on stdout streams, so lines printed before
  a failure stay printed;
* ``lineio`` frames every line: a line holds no "\\n" and a TSV cell no
  "\\t" or "\\n", and an output line that would is a data error naming the
  output and the line (``lineio.open_lines``);
* a run manifest (resolved config, input fingerprints, seed, version,
  timestamps) is written next to ``--out`` as ``<out>.manifest.json``;
* config precedence is flags > ``--config`` file > built-in defaults, and
  config values are converted and checked by the same types as flags; a
  section that names no subcommand, or a key that names none of the
  invoked subcommand's parameters, is a usage error;
* randomness always takes an explicit ``--seed`` and defaults to 0;
* exit codes: 0 success, 1 usage error, 2 data error, 3 backend error;
* each subcommand imports the library modules it runs, in its body, so a
  start loads only those (``--version`` loads none).
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

import click

from . import __version__
from .errors import BackendError, DataError, SgmParseError
from .lineio import atomic_open, file_fingerprint, open_lines, read_aligned, read_json, read_lines

if TYPE_CHECKING:
    from .corpus import FilterConfig, FilterReport, SentencePair
    from .pipeline import ChangeReport
    from .testset import Segment, TestSet

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

# The context object of a run of the process's own command line.
_PROCESS_ENTRY = object()

# Each subcommand's module (``rtt_ape.<module>``), where the command is the
# attribute ``<name>_cmd``, dashes as underscores.  The only list of
# subcommands: ``--help`` and ``--config`` read it too.
SUBCOMMANDS = {
    "parse-sgm": "cli_testset",
    "split": "cli_testset",
    "merge": "cli_testset",
    "filter-mono": "cli_corpus",
    "filter-bitext": "cli_corpus",
    "dedup": "cli_corpus",
    "sample": "cli_corpus",
    "rtt-gen": "cli_pipeline",
    "make-pairs": "cli_pipeline",
    "ape-apply": "cli_pipeline",
    "bleu": "cli_analysis",
    "report-rtt": "cli_analysis",
    "report-split": "cli_analysis",
    "vocab": "cli_analysis",
    "humaneval-make": "cli_analysis",
    "humaneval-agg": "cli_analysis",
}


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _require(params: dict, *names: str) -> None:
    """Options required only in some modes; always-required ones say so to click."""
    for name in names:
        if params.get(name) in (None, ()):
            flag = "--" + name.replace("_", "-")
            raise click.UsageError(f"missing required option {flag}")


def _emit(out: str | None, text: str) -> None:
    with atomic_open(out) as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _report_out(report: FilterReport | ChangeReport, report_path: str | None) -> None:
    """A run's JSON counters, to ``--report`` or stderr."""
    text = _dump_json(report.as_dict())
    if report_path:
        _emit(report_path, text)
    else:
        click.echo(text, err=True, nl=False)


def _write_pairs(params: dict, pairs: Iterable[SentencePair]) -> None:
    """Write bitext to ``--out-src``/``--out-tgt`` when either is given, else
    as source and target rows to ``--out`` or stdout."""
    if not (params["out_src"] or params["out_tgt"]):
        with open_lines(params["out"], ("source", "target")) as write:
            for pair in pairs:
                write((pair.source, pair.target))
        return
    _require(params, "out_src", "out_tgt")
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


def _read_sgm(path: str, side: str) -> tuple[list[Segment], dict[str, str] | None]:
    """The segments and the wrapper attributes (see ``testset.wrapper_attrs``)
    of the SGM file at ``path``; a parse error names the file."""
    from .testset import parse_sgm, wrapper_attrs

    data = Path(path).read_bytes()
    try:
        return parse_sgm(data, side=side), wrapper_attrs(data)
    except SgmParseError as exc:
        raise SgmParseError(f"{path}: {exc}") from exc


def _load_testset(params: dict, with_refs: bool = False) -> TestSet:
    """Build a TestSet from either SGM files or plain text + origin labels."""
    from .testset import TestSet, segments_from_lines

    if sgm := params.get("sgm") or params.get("src_sgm"):
        source = reference = _read_sgm(sgm, "src")[0]
        if with_refs:
            _require(params, "ref_sgm")
            reference = _read_sgm(params["ref_sgm"], "ref")[0]
    elif text := params.get("text") or params.get("ref_text"):
        lines, origins = (read_aligned(text, params["origins"]) if params.get("origins")
                          else (read_lines(text), None))
        source = reference = segments_from_lines(lines, origins)
    else:
        raise click.UsageError("provide --sgm (or --src-sgm/--ref-sgm) or --text with --origins")
    return TestSet(params.get("name") or "unknown", params["src"], params["tgt"], source, reference)


def _config_sections(config: object) -> dict[str, dict]:
    if not isinstance(config, dict) or not all(isinstance(v, dict) for v in config.values()):
        raise ValueError("expected an object of objects keyed by subcommand")
    return config


class _LazyGroup(click.Group):
    """A group that imports a subcommand's module on first use (see
    ``SUBCOMMANDS``)."""

    def list_commands(self, ctx: click.Context) -> list[str]:
        return sorted(SUBCOMMANDS)

    def get_command(self, ctx: click.Context, cmd_name: str) -> click.Command | None:
        module = SUBCOMMANDS.get(cmd_name)
        if module is None:
            return None
        commands = importlib.import_module(f".{module}", __package__)
        return getattr(commands, cmd_name.replace("-", "_") + "_cmd")


@click.group(cls=_LazyGroup)
@click.version_option(version=__version__, prog_name="rtt-ape")
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON file with per-subcommand defaults (flags still win).")
@click.pass_context
def cli(ctx: click.Context, config_path: str | None) -> None:
    """Round-trip translation pipelines, post-editing application, and
    origin-split BLEU evaluation."""
    if config_path is None:
        return
    config = read_json(config_path, "config file", _config_sections)
    # A misspelled section or key would otherwise be ignored without a word.
    # Sections are checked against the map, without importing any module;
    # keys only in the invoked subcommand's section, whose command is built.
    unknown = sorted(set(config) - set(SUBCOMMANDS))
    if unknown:
        raise click.UsageError(
            f"bad config file {config_path!r}: no subcommand {', '.join(map(repr, unknown))}"
        )
    name = ctx.invoked_subcommand
    command = ctx.command.get_command(ctx, name)
    unknown = sorted(set(config.get(name, {})) - {p.name for p in command.params})
    if unknown:
        raise click.UsageError(
            f"bad config file {config_path!r}: {name} has no parameter "
            + ", ".join(map(repr, unknown))
        )
    # Click reads each subcommand's section as its defaults, below flags and
    # environment variables, and converts the values with the options' types.
    ctx.default_map = config


def _command(name: str) -> Callable[[Callable[[dict], Iterable[str] | None]], click.Command]:
    """Make ``body(params)`` the subcommand ``name``, a command for ``cli``
    to find through ``SUBCOMMANDS``.

    When the body succeeds and the run has an output file (``--out-src``,
    else ``--out``), ``<output>.manifest.json`` records the resolved
    parameters, seed, version, start and finish times, and a fingerprint of
    every input: each set ``click.Path(exists=True)`` option, plus the paths
    the body returns (inputs named inside other values).

    Run from the process entry (``main()`` without ``argv``), the body
    starts after ``gc.freeze()``: what start-up built (modules, classes,
    functions, the command) lives until the process ends, so the frozen
    heap keeps it out of every later collection, shutdown's included, and
    out of those of the workers the body forks.  A caller that passes
    ``argv`` keeps its heap collectable."""

    def build(body: Callable[[dict], Iterable[str] | None]) -> click.Command:
        @functools.wraps(body)
        def run(**params) -> None:
            ctx = click.get_current_context()
            if ctx.obj is _PROCESS_ENTRY:
                gc.freeze()
            started = _now()
            extra_inputs = body(params) or ()
            out = params.get("out_src") or params.get("out")
            if out is None:
                return
            inputs = [
                params[p.name] for p in ctx.command.params
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
            _emit(out + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")

        return click.command(name)(run)

    return build


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract.  Without
    ``argv`` it runs the process's command line, as the process's entry
    (see ``_command``)."""
    try:
        cli.main(args=argv, prog_name="rtt-ape", standalone_mode=False,
                 obj=_PROCESS_ENTRY if argv is None else None)
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
    except (DataError, ValueError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
