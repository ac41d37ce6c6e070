"""Command-line interface: every pipeline and analysis operation as a
scriptable subcommand.

``main`` parses the command line with ``argparse``, runs the subcommand's
body and writes its manifest.  The subcommands live in the ``cli_*``
modules named in ``SUBCOMMANDS``, grouped by the library layer they drive,
each declared as data in its module's ``COMMANDS``: the body, whose
docstring is its help, and its table of ``Option``s, which also converts
and checks ``--config`` values, names the manifest's inputs and writes
``--help``.  A run imports only the module of the subcommand it names
(``--version`` none, ``--help`` all), and each body imports only the
library modules it runs.

An option's value comes from its flag (``--opt value`` or ``--opt=value``,
never abbreviated), else its environment variable, else the ``--config``
file, else its default.  Machine output goes to stdout or ``--out``, the
same bytes either way, and every file goes through ``lineio``;
diagnostics go to stderr as they are.  Exit codes: 0 success, 1 usage
error (also Ctrl-C and a closed stdout pipe), 2 data error, 3 backend
error.  README.md states the conventions in full.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from . import __version__
from .errors import BackendError, DataError
from .lineio import atomic_open, file_fingerprint, read_json

if TYPE_CHECKING:
    from .corpus import FilterReport
    from .pipeline import ChangeReport

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

# Each subcommand's module (``rtt_ape.<module>``), whose ``COMMANDS`` holds
# it.  The only list of subcommands: ``--help`` and ``--config`` read it too.
SUBCOMMANDS = {name: module for module, names in [
    ("cli_testset", ("parse-sgm", "split", "merge")),
    ("cli_corpus", ("filter-mono", "filter-bitext", "dedup", "sample")),
    ("cli_pipeline", ("rtt-gen", "make-pairs", "ape-apply")),
    ("cli_analysis", ("bleu", "report-rtt", "report-split", "vocab", "humaneval-make",
                      "humaneval-agg")),
] for name in names}


class UsageError(Exception):
    """A command line that cannot run as given: exit 1."""


class Type(NamedTuple):
    """``convert`` checks a flag's text or a ``--config`` value and returns
    the value, or raises ``ValueError`` with the reason; ``metavar`` names
    the value in help, and is empty for a flag, which takes none; ``inputs``
    lists the input files a value names, the only files a manifest lists."""

    metavar: str
    convert: Callable[[object], object]
    inputs: Callable[[object], Iterable[str]] = lambda value: ()


def _integer(value: object) -> int:
    if isinstance(value, (int, str)) and not isinstance(value, bool):  # int(2.7) would be 2
        with contextlib.suppress(ValueError):
            return int(value)
    raise ValueError(f"{value!r} is not a valid integer.")


def _float(value: object) -> float:
    with contextlib.suppress(TypeError, ValueError):
        return float(value)
    raise ValueError(f"{value!r} is not a valid float.")


def _existing(value: object) -> str:
    if not os.path.exists(path := str(value)):
        raise ValueError(f"Path {path!r} does not exist.")
    return path


def _backend(value: object) -> str:
    if value != "identity" and not os.path.exists(str(value)):
        raise ValueError(f"{value!r} is neither 'identity' nor an existing spec file.")
    return str(value)


def _boolean(value: object) -> bool:
    text = str(value).strip().lower()  # a JSON true reads "true"
    if text not in ("1", "true", "t", "yes", "y", "on", "0", "false", "f", "no", "n", "off"):
        raise ValueError(f"{value!r} is not a valid boolean.")
    return text in ("1", "true", "t", "yes", "y", "on")


TEXT, PATH = Type("TEXT", str), Type("PATH", str)
INTEGER, FLOAT = Type("INTEGER", _integer), Type("FLOAT", _float)
INPUT = Type("PATH", _existing, lambda path: (path,))
BACKEND = Type("TEXT", _backend, lambda value: () if value == "identity" else (value,))
FLAG = Type("", _boolean)


def choice(*values: str) -> Type:
    def convert(value: object) -> str:
        if value not in values:
            raise ValueError(f"{value!r} is not one of {', '.join(map(repr, values))}.")
        return value

    return Type(f"[{'|'.join(values)}]", convert)


class Option(NamedTuple):
    """A subcommand's ``--flag VALUE``, or ``--flag`` alone for a ``FLAG``.
    Its parameter is ``dest``, else the flag's name with dashes as
    underscores; ``env`` names an environment variable that gives the value
    when no flag does.  A ``multiple`` option may be repeated: its type
    converts the tuple of its values, and its default is ``()``."""

    flag: str
    type: Type = TEXT
    default: object = None
    help: str = ""
    required: bool = False
    dest: str = ""
    env: str = ""
    multiple: bool = False

    @property
    def name(self) -> str:
        return self.dest or self.flag[2:].replace("-", "_")


# Options several subcommands share.
IN = Option("--in", INPUT, required=True, dest="in_path")
OUT = Option("--out", PATH)
REPORT = Option("--report", PATH, dest="report_path")

_CONFIG = Option("--config", INPUT,
                 help="JSON file with per-subcommand defaults (flags still win).")
_GROUP = [Option("--version", FLAG, help="Show the version and exit."), _CONFIG]
_DESCRIPTION = ("Round-trip translation pipelines, post-editing application, and origin-split "
                "BLEU evaluation.")


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _require(params: dict, **flags: str) -> None:
    """Options required only in some modes, as parameter=flag; always
    required ones say so in their table."""
    for name, flag in flags.items():
        if params.get(name) in (None, ()):
            raise UsageError(f"Missing option '{flag}'.")


def _either(params: dict, first: dict[str, str], second: dict[str, str],
            needed: bool = True) -> int | None:
    """Which of two either/or flag groups, each as parameter=flag, a
    command was given: 0 or 1, every flag of which it then needs, or None
    for neither.  Both groups, or neither while ``needed``, is a usage
    error naming the flags."""
    groups = (first, second)
    given = [i for i, group in enumerate(groups) if any(params[name] for name in group)]
    names = " or ".join("/".join(group.values()) for group in groups)
    if len(given) > 1:
        raise UsageError(f"give {names}, not both")
    if not given and needed:
        raise UsageError(f"provide {names}")
    if given:
        _require(params, **groups[given[0]])
    return given[0] if given else None


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
        sys.stderr.write(text)


def _load_command(name: str) -> tuple[Callable[[dict], None], list[Option]]:
    """The body and the option table of subcommand ``name``."""
    return importlib.import_module(f".{SUBCOMMANDS[name]}", __package__).COMMANDS[name]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _parser(usage: str, description: str, options: list[Option]) -> _Parser:
    """A parser of ``options`` and ``--help`` that leaves an option not given
    None.  Its help, wrapped for an 80-column terminal, shows each option's
    default, if it takes a value, and whether it is required."""
    parser = _Parser(usage=usage, description=description, add_help=False, allow_abbrev=False,
                     formatter_class=lambda prog: argparse.HelpFormatter(
                         prog, width=78, max_help_position=34))
    for option in [*options, Option("--help", FLAG, help="Show this message and exit.")]:
        takes_value = bool(option.type.metavar)
        notes = [f"default: {option.default}"] if takes_value and option.default not in (
            None, ()) else []
        notes += ["required"] if option.required else []
        text = f"{option.help} [{'; '.join(notes)}]".lstrip() if notes else option.help
        value = (dict(metavar=option.type.metavar, action="append" if option.multiple else "store")
                 if takes_value else dict(action="store_const", const=True))
        parser.add_argument(option.flag, dest=option.name, help=text, **value)
    return parser


def _unknown(extra: list[str], options: list[Option]) -> UsageError:
    """The error for the first argument no option took, naming the long
    options an unknown one resembles."""
    from difflib import get_close_matches

    flag = extra[0].partition("=")[0]
    if not flag.startswith("-"):
        return UsageError(f"Got unexpected extra argument ({extra[0]})")
    close = sorted(get_close_matches(flag, [o.flag for o in options] + ["--help"]))
    hint = f" Did you mean {', '.join(map(repr, close))}?" if close and flag[1:2] == "-" else ""
    return UsageError(f"No such option {flag!r}.{hint}")


def _convert(option: Option, value: object) -> object:
    try:
        return option.type.convert(value)
    except ValueError as exc:
        raise UsageError(f"Invalid value for '{option.flag}': {exc}") from None


def _parse_group(argv: list[str]) -> tuple[str | None, str, list[str]] | None:
    """The ``--config`` path, the subcommand's name and its arguments; None
    after ``--help`` or ``--version``, which print."""
    group = _parser("rtt-ape [OPTIONS] COMMAND [ARGS]...", _DESCRIPTION, _GROUP)
    group.add_argument("command", nargs="?", help=argparse.SUPPRESS)
    group.add_argument("args", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    given, extra = group.parse_known_args(argv)
    if extra:
        raise _unknown(extra, _GROUP)
    if given.help:
        import textwrap

        docs = {name: _load_command(name)[0].__doc__ for name in sorted(SUBCOMMANDS)}
        pad = max(map(len, docs)) + 2
        commands = "".join(f"  {name:{pad}}{textwrap.shorten(doc, 76 - pad, placeholder='...')}\n"
                           for name, doc in docs.items())
        _emit(None, f"{group.format_help()}\ncommands:\n{commands}")
    elif given.version:
        _emit(None, f"rtt-ape, version {__version__}\n")
    if given.help or given.version:
        return None
    config_path = None if given.config is None else _convert(_CONFIG, given.config)
    if given.command not in SUBCOMMANDS:
        raise UsageError(f"No such command {given.command!r}." if given.command
                         else "Missing command.")
    return config_path, given.command, given.args


def _parse_command(name: str, args: list[str], config_path: str | None) -> dict | None:
    """The parameters of subcommand ``name``, each from the first of: its
    flag in ``args``, its environment variable, its ``--config`` key, its
    default; converted and checked by the option's type.  None after
    ``--help``, which prints."""
    body, options = _load_command(name)
    parser = _parser(f"rtt-ape {name} [OPTIONS]", body.__doc__, options)
    given, extra = parser.parse_known_args(args)
    if extra:
        raise _unknown(extra, options)
    if given.help:
        _emit(None, parser.format_help())
        return None
    section = {} if config_path is None else _config_section(config_path, name, options)
    params = {}
    for option in options:
        value = getattr(given, option.name)
        if value is None and option.env:
            value = os.environ.get(option.env) or None
        if value is None:
            value = section.get(option.name)
        params[option.name] = option.default if value is None else _convert(option, value)
        if option.required:
            _require(params, **{option.name: option.flag})
    return params


def _config_sections(config: object) -> dict[str, dict]:
    if not isinstance(config, dict) or not all(isinstance(v, dict) for v in config.values()):
        raise ValueError("expected an object of objects keyed by subcommand")
    return config


def _config_section(config_path: str, name: str, options: list[Option]) -> dict:
    """Subcommand ``name``'s section of the ``--config`` file.  A section
    that names no subcommand, or a key none of its options, would otherwise
    be ignored without a word."""
    config = read_json(config_path, "config file", _config_sections)
    if unknown := sorted(set(config) - set(SUBCOMMANDS)):
        problem = "no subcommand " + ", ".join(map(repr, unknown))
    elif unknown := sorted(set(config.get(name, {})) - {option.name for option in options}):
        problem = f"{name} has no parameter " + ", ".join(map(repr, unknown))
    else:
        return config.get(name, {})
    raise UsageError(f"bad config file {config_path!r}: {problem}")


def _run(name: str, params: dict) -> None:
    """Run subcommand ``name``'s body.  When it succeeds and the run has an
    output file (``--out-src``, else ``--out``), ``<output>.manifest.json``
    records the resolved parameters, seed, version, start and finish times,
    and a fingerprint of each input file that a set option's type names."""
    body, options = _load_command(name)
    started = _now()
    body(params)
    out = params.get("out_src") or params.get("out")
    if out is None:
        return
    inputs = [path for option in options if params[option.name] is not None
              for path in option.type.inputs(params[option.name])]
    manifest = dict(tool="rtt-ape", version=__version__, subcommand=name, config=params,
                    inputs={path: file_fingerprint(path) for path in inputs},
                    seed=params.get("seed"), started=started, finished=_now())
    _emit(out + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract.  Without
    ``argv`` it runs the process's command line, as the process's entry:
    the body then starts after ``gc.freeze()``.  What start-up built
    (modules, classes, functions, the parser) lives until the process ends,
    so the frozen heap keeps it out of every later collection, shutdown's
    included, and out of those of the workers the body forks.  A caller
    that passes ``argv`` keeps its heap collectable."""
    name = None
    try:
        if (parsed := _parse_group(sys.argv[1:] if argv is None else argv)) is None:
            return 0
        config_path, name, args = parsed
        if (params := _parse_command(name, args, config_path)) is None:
            return 0
        if argv is None:
            gc.freeze()
        _run(name, params)
    except UsageError as exc:
        command = f"rtt-ape {name}" if name else "rtt-ape"
        usage = f"{command} [OPTIONS]" if name else "rtt-ape [OPTIONS] COMMAND [ARGS]..."
        print(f"Usage: {usage}\nTry '{command} --help' for help.\n\nError: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("\naborted", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader of stdout has gone (``rtt-ape dedup ... | head -1``).
        # What is left in stdout's buffer can never be written: point
        # stdout at devnull, so that the flush at exit fails no second time.
        with contextlib.suppress(OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_USAGE
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    # ``python -m rtt_ape.cli`` runs this file as ``__main__``, while the
    # subcommand modules import ``rtt_ape.cli``: run that module's ``main``,
    # so that one copy of the runner is in play.
    from rtt_ape.cli import main as _main

    sys.exit(_main())
