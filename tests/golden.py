"""Golden outputs: the exact bytes some subcommands write for one small,
fixed input set, kept under ``tests/data/golden/``.

``inputs/`` holds line files and three backend specs derived from
``tests/data/mini_ende_*.sgm``, plus one line containing U+2028 in each
line file and in one SGM file, an SGM file with a tab inside a segment,
and three line files of the ``ODD_*`` lines (astral characters, U+0085
and "\r" inside lines), which ``bleu`` scores and ``dedup`` writes back.  ``expected/`` holds what the commands in
``CASES`` wrote, run in order in one directory (later commands read
earlier outputs), what some of them printed to stderr, the exit code and
stderr of each failing run in ``ERRORS``, and the ``--help`` text of the
``HELP`` subcommands.
``tests/test_golden.py`` runs them again and compares bytes: of each
file, of each file under an output directory (a backend cache, whose file
names hold the backend's fingerprint), and of each manifest with its
timestamps masked.

Regenerate both directories with

    PYTHONPATH=src python tests/golden.py

only for a declared behaviour change.  A changed golden byte is either that
or a defect; the change that makes it says which file changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import click

from rtt_ape.cli import cli, main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
SGM = ("mini_ende_src.sgm", "mini_ende_ref.sgm")

# One extra segment per side; str.splitlines() and most "universal newline"
# readers would cut it in two.
LS_EN = "First line\u2028second line of the paragraph."
LS_DE = "Erste Zeile\u2028zweite Zeile des Absatzes."

# Lines that hold characters beyond the Basic Multilingual Plane (a symbol,
# punctuation and letters, for which the tokenizer uses its full classes),
# U+0085 and "\r" inside a line and at its end: only "\n" ends a line.
ODD_REF = ["Der Preis\U0001F600stieg um 5 %\x85und fiel dann.",
           "\U0001D407\U0001D41A\U0001D42E\U0001D42C\U00010100am See\rmit Blick.",
           "Zeile mit Wagenr\u00fccklauf am Ende.\r"]
ODD_HYP = ["Der Preis\U0001F600stieg um 5 %\x85und fiel.",
           "\U0001D407\U0001D41A\U0001D42E\U0001D42C\U00010100am See\rmit Aussicht.",
           ODD_REF[2]]

# Subcommands whose ``--help`` is kept, as ``<name>.help.txt``, wrapped at
# the width click uses in an 80-column terminal.
HELP = ["rtt-gen", "ape-apply", "filter-mono", "filter-bitext", "make-pairs"]
HELP_WIDTH = 78

# The values a manifest may change between runs of the same command.
_TIMESTAMPS = re.compile(rb'("(?:started|finished)": )"[^"]*"')

# (argv, files it writes that are compared), run in this order.  An output
# named ``<x>.stderr`` is what the command printed to stderr.
CASES: list[tuple[list[str], list[str]]] = [
    (["split", "--sgm", "mini_ende_src.sgm", "--src", "en", "--tgt", "de", "--name", "mini",
      "--out", "split_sgm.json"], ["split_sgm.json"]),
    (["split", "--text", "text.txt", "--origins", "origins.txt", "--src", "en", "--tgt", "de",
      "--out", "split_text.json"], ["split_text.json"]),
    (["ape-apply", "--in", "hyp.txt", "--backend", "denoiser.json", "--scope", "all",
      "--report", "ape_all.report.json", "--out", "ape_all.txt"],
     ["ape_all.txt", "ape_all.report.json", "ape_all.txt.manifest.json"]),
    (["ape-apply", "--in", "hyp.txt", "--backend", "denoiser.json", "--scope",
      "target_original_only", "--split", "split_text.json", "--report", "ape_to.report.json",
      "--out", "ape_to.txt"], ["ape_to.txt", "ape_to.report.json", "ape_to.txt.manifest.json"]),
    (["merge", "--base", "hyp.txt", "--edited", "ape_all.txt", "--split", "split_text.json",
      "--out", "merge_to.txt"], ["merge_to.txt"]),
    (["merge", "--base", "hyp.txt", "--edited", "ape_all.txt", "--split", "split_text.json",
      "--mode", "all", "--out", "merge_all.txt"], ["merge_all.txt"]),
    (["filter-mono", "--in", "mono.txt", "--max-chars", "70", "--max-tokens", "9",
      "--report", "mono.report.json", "--out", "mono.kept.txt"],
     ["mono.kept.txt", "mono.report.json"]),
    (["filter-bitext", "--src", "src.txt", "--tgt", "tgt.txt", "--max-tokens", "10",
      "--max-ratio", "1.3", "--report", "bitext.report.json", "--out-src", "bitext.kept.src",
      "--out-tgt", "bitext.kept.tgt"],
     ["bitext.kept.src", "bitext.kept.tgt", "bitext.report.json"]),
    (["filter-bitext", "--tsv", "bitext.tsv", "--max-tokens", "10", "--max-ratio", "1.3",
      "--report", "tsv.report.json", "--out", "tsv.kept.tsv"],
     ["tsv.kept.tsv", "tsv.report.json"]),
    (["parse-sgm", "--sgm", "mini_ende_src.sgm", "--format", "sgm", "--out", "src.sgm"],
     ["src.sgm"]),
    (["parse-sgm", "--sgm", "ref_u2028.sgm", "--side", "ref", "--format", "sgm",
      "--out", "ref_u2028.out.sgm"], ["ref_u2028.out.sgm"]),
    (["rtt-gen", "--in", "mono.txt", "--to-pivot", "channel.json", "--from-pivot", "cat.json",
      "--intermediate", "rtt.pivot.txt", "--cache-dir", "rtt_cache", "--out", "rtt.tsv"],
     ["rtt.tsv", "rtt.pivot.txt", "rtt_cache", "rtt.tsv.manifest.json"]),
    (["bleu", "--hyp", "ape_all.txt", "--ref", "hyp.txt", "--lang", "en-de", "--set", "mini",
      "--out", "bleu.json"], ["bleu.json", "bleu.stderr", "bleu.json.manifest.json"]),
    (["bleu", "--hyp", "odd_hyp.txt", "--ref", "odd_ref.txt", "--lang", "de-de", "--set", "odd",
      "--out", "bleu_odd.json"], ["bleu_odd.json", "bleu_odd.stderr", "bleu_odd.json.manifest.json"]),
    (["dedup", "--in", "odd.txt", "--report", "odd.dedup.report.json", "--out", "odd.dedup.txt"],
     ["odd.dedup.txt", "odd.dedup.report.json"]),
    (["report-split", "--ref-text", "hyp.txt", "--origins", "origins.txt", "--src", "en",
      "--tgt", "de", "--name", "mini", "--hyp", "ape_all=ape_all.txt", "--hyp",
      "ape_to=ape_to.txt", "--hyp", "merge_all=merge_all.txt", "--table",
      "--out", "report_split.json"],
     ["report_split.json", "report_split.stderr", "report_split.json.manifest.json"]),
    (["make-pairs", "--in", "rtt.tsv", "--max-tokens", "12", "--max-ratio", "1.5",
      "--out-src", "pairs.src", "--out-tgt", "pairs.tgt"],
     ["pairs.src", "pairs.tgt", "pairs.src.manifest.json"]),
    (["make-pairs", "--in", "rtt.tsv", "--direction", "reverse", "--out", "pairs.tsv"],
     ["pairs.tsv"]),
    (["report-rtt", "--original", "pairs.tgt", "--roundtrip", "pairs.src", "--lang", "de-en",
      "--out", "report_rtt.json"], ["report_rtt.json"]),
    (["vocab", "--in", "mono.txt", "--tokenizer", "intl", "--out", "vocab.json"],
     ["vocab.json"]),
    (["dedup", "--in", "dup.txt", "--report", "dedup.report.json", "--out", "dedup.txt.gz"],
     ["dedup.txt.gz", "dedup.report.json", "dedup.txt.gz.manifest.json"]),
    (["sample", "--in", "mono.txt", "--n", "7", "--seed", "3", "--out", "sample.txt"],
     ["sample.txt"]),
    (["parse-sgm", "--sgm", "ref_u2028.sgm", "--side", "ref", "--format", "text",
      "--labels-out", "ref_u2028.labels.txt", "--out", "ref_u2028.txt"],
     ["ref_u2028.txt", "ref_u2028.labels.txt"]),
    (["parse-sgm", "--sgm", "mini_ende_src.sgm", "--format", "tsv", "--out", "src.tsv"],
     ["src.tsv"]),
    (["parse-sgm", "--sgm", "ref_u2028.sgm", "--side", "ref", "--format", "json",
      "--labels-out", "ref_u2028.json.labels.txt", "--out", "ref_u2028.json"],
     ["ref_u2028.json", "ref_u2028.json.labels.txt"]),
    (["humaneval-make", "--items", "items.tsv", "--raters", "2", "--seed", "4",
      "--out", "tasks.tsv"], ["tasks.tsv"]),
    (["humaneval-agg", "--tasks", "rated.tsv", "--out", "ratings.json"],
     ["ratings.json", "ratings.stderr"]),
]

# (argv, output): runs that fail, after ``CASES``.  The output holds the
# exit code, as "exit <code>", then what the command printed to stderr.
ERRORS: list[tuple[list[str], str]] = [
    (["report-rtt", "--original", "pairs.tgt", "--roundtrip", "sample.txt"],
     "report_rtt_mismatch.error"),
    (["parse-sgm", "--sgm", "tab.sgm", "--format", "tsv", "--out", "tab.tsv"],
     "parse_sgm_tab.error"),
    (["report-split", "--ref-text", "hyp.txt", "--origins", "origins.txt", "--src", "en",
      "--tgt", "de", "--hyp", "ape_all=ape_all.txt", "--hyp", "short=sample.txt"],
     "report_split_hyp.error"),
    (["bleu", "--hyp", "hyp.txt"], "bleu_usage.error"),
]

OUTPUTS = [*(name for _, outputs in CASES for name in outputs),
           *(name for _, name in ERRORS),
           *(f"{name}.help.txt" for name in HELP)]


def run_cases(workdir: Path) -> dict[str, int]:
    """Copy the inputs into ``workdir``, run ``CASES`` and then ``ERRORS``
    there, in order, and write the ``HELP`` texts; the exit code of each
    of ``CASES``, keyed by subcommand and output file.  ``RTT_APE_CACHE``
    is unset meanwhile, as manifests record the cache directory it sets."""
    for path in [*INPUTS.iterdir(), *(DATA / name for name in SGM)]:
        shutil.copyfile(path, workdir / path.name)
    codes = {}
    cwd = os.getcwd()
    cache_env = os.environ.pop("RTT_APE_CACHE", None)
    os.chdir(workdir)
    try:
        for argv, outputs in CASES:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                codes[f"{argv[0]} -> {outputs[0]}"] = main(list(argv))
            for name in outputs:
                if name.endswith(".stderr"):
                    Path(name).write_text(err.getvalue(), encoding="utf-8")
        for argv, name in ERRORS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(list(argv))
            Path(name).write_text(f"exit {code}\n{err.getvalue()}", encoding="utf-8")
    finally:
        os.chdir(cwd)
        if cache_env is not None:
            os.environ["RTT_APE_CACHE"] = cache_env
    root = click.Context(cli, info_name="rtt-ape", terminal_width=HELP_WIDTH)
    for name in HELP:
        command = cli.get_command(root, name)
        text = click.Context(command, info_name=name, parent=root).get_help()
        (workdir / f"{name}.help.txt").write_text(text + "\n", encoding="utf-8")
    return codes


def compared(path: Path) -> bytes | dict[str, bytes]:
    """What is compared of an output: its bytes, with the timestamps masked
    in a manifest, or for a directory the bytes of each file under it, keyed
    by relative path."""
    if path.is_dir():
        return {p.relative_to(path).as_posix(): p.read_bytes()
                for p in sorted(path.rglob("*")) if p.is_file()}
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        data = _TIMESTAMPS.sub(rb'\1"<masked>"', data)
    return data


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _rated(tasks: str) -> list[str]:
    """The rows of a task file with every rating cell filled in, fluency
    cycling through 1..5 and every third accuracy rating a 1."""
    rows = tasks.split("\n")[:-1]
    for i in range(2, len(rows)):
        cells = rows[i].split("\t")
        cells[5], cells[7] = str(1 + i % 5), str(int(i % 3 == 0))
        rows[i] = "\t".join(cells)
    return rows


def write_inputs() -> None:
    from rtt_ape.analysis import humaneval_make_tasks
    from rtt_ape.testset import parse_sgm

    with open(DATA / SGM[0], "rb") as fh:
        source = parse_sgm(fh, side="src")
    with open(DATA / SGM[1], "rb") as fh:
        reference = parse_sgm(fh, side="ref")
    src = [segment.text for segment in source]
    ref = [segment.text for segment in reference]
    INPUTS.mkdir(parents=True, exist_ok=True)
    _write_lines(INPUTS / "text.txt", [*src, LS_EN])
    _write_lines(INPUTS / "origins.txt", [*(segment.orig_lang for segment in source), "de"])
    hyp = [*ref, LS_DE]
    _write_lines(INPUTS / "hyp.txt", hyp)
    _write_lines(INPUTS / "mono.txt", [*src, *ref, LS_DE, "", "x" * 80])
    _write_lines(INPUTS / "src.txt", [*src, LS_EN, ""])
    _write_lines(INPUTS / "tgt.txt", [*ref, LS_DE, "Nur"])
    _write_lines(INPUTS / "bitext.tsv", [f"{s}\t{t}" for s, t in zip([*src, LS_EN], [*ref, LS_DE])])
    specs = {
        "denoiser.json": {
            "kind": "toy_denoiser", "from_lang": "de", "to_lang": "de",
            "channel": {"lexicon": {"Der": "Die", "die": "der", "Jahrzehnts.": "Jahres."}},
        },
        "channel.json": {
            "kind": "toy_channel", "from_lang": "de", "to_lang": "en", "batch_size": 16,
            "channel": {"lexicon": {"Der": "The", "die": "the", "der": "the", "und": "and"},
                        "drop_prob": 0.1, "swap_prob": 0.1, "seed": 5},
        },
        "cat.json": {"kind": "command", "from_lang": "en", "to_lang": "de", "command": "cat",
                     "batch_size": 16, "retries": 0},
    }
    _write_lines(INPUTS / "odd_ref.txt", ODD_REF)
    _write_lines(INPUTS / "odd_hyp.txt", ODD_HYP)
    _write_lines(INPUTS / "odd.txt", [*ODD_REF, *ODD_HYP])
    _write_lines(INPUTS / "dup.txt", [*src[:6], *ref[:3], *src[2:8], LS_EN, "", LS_EN, ""])
    items = [(s, h, ("base", "ape")[i % 2]) for i, (s, h) in enumerate(zip([*src, LS_EN], hyp))]
    _write_lines(INPUTS / "items.tsv", ["\t".join(item) for item in items])
    _write_lines(INPUTS / "rated.tsv", _rated(humaneval_make_tasks(items[:8], 3, seed=2)))
    for name, spec in specs.items():
        (INPUTS / name).write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    ref_sgm = (DATA / SGM[1]).read_text(encoding="utf-8")
    extra = f'<doc docid="ls.1" origlang="de">\n<seg id="1">{LS_DE}</seg>\n</doc>\n'
    (INPUTS / "ref_u2028.sgm").write_text(
        ref_sgm.replace("</refset>", extra + "</refset>"), encoding="utf-8")
    # A tab inside the third segment, which no TSV cell can hold.
    (INPUTS / "tab.sgm").write_text(
        (DATA / SGM[0]).read_text(encoding="utf-8").replace("the vote", "the\tvote"),
        encoding="utf-8")


def write_expected() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        codes = run_cases(Path(tmp))
        failed = {case: code for case, code in codes.items() if code != 0}
        if failed:
            sys.exit(f"golden cases failed: {failed}")
        shutil.rmtree(EXPECTED, ignore_errors=True)
        EXPECTED.mkdir(parents=True)
        for name in OUTPUTS:
            written = compared(Path(tmp) / name)
            if isinstance(written, bytes):
                (EXPECTED / name).write_bytes(written)
                continue
            for relative, data in written.items():
                (EXPECTED / name / relative).parent.mkdir(parents=True, exist_ok=True)
                (EXPECTED / name / relative).write_bytes(data)


if __name__ == "__main__":
    write_inputs()
    write_expected()
