"""Golden outputs: the exact bytes some subcommands write for one small,
fixed input set, kept under ``tests/data/golden/``.

``inputs/`` holds line files and a backend spec derived from
``tests/data/mini_ende_*.sgm``, plus one line containing U+2028 in each
line file and in one SGM file.  ``expected/`` holds what the commands in
``CASES`` wrote, run in order in one directory (later commands read
earlier outputs).  ``tests/test_golden.py`` runs them again and compares
bytes.

Regenerate both directories with

    PYTHONPATH=src python tests/golden.py

only for a declared behaviour change.  A changed golden byte is either that
or a defect; the change that makes it says which file changed and why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from rtt_ape.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
SGM = ("mini_ende_src.sgm", "mini_ende_ref.sgm")

# One extra segment per side; str.splitlines() and most "universal newline"
# readers would cut it in two.
LS_EN = "First line\u2028second line of the paragraph."
LS_DE = "Erste Zeile\u2028zweite Zeile des Absatzes."

# (argv, files it writes that are compared), run in this order.
CASES: list[tuple[list[str], list[str]]] = [
    (["split", "--sgm", "mini_ende_src.sgm", "--src", "en", "--tgt", "de", "--name", "mini",
      "--out", "split_sgm.json"], ["split_sgm.json"]),
    (["split", "--text", "text.txt", "--origins", "origins.txt", "--src", "en", "--tgt", "de",
      "--out", "split_text.json"], ["split_text.json"]),
    (["ape-apply", "--in", "hyp.txt", "--backend", "denoiser.json", "--scope", "all",
      "--report", "ape_all.report.json", "--out", "ape_all.txt"],
     ["ape_all.txt", "ape_all.report.json"]),
    (["ape-apply", "--in", "hyp.txt", "--backend", "denoiser.json", "--scope",
      "target_original_only", "--split", "split_text.json", "--report", "ape_to.report.json",
      "--out", "ape_to.txt"], ["ape_to.txt", "ape_to.report.json"]),
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
]


def run_cases(workdir: Path) -> dict[str, int]:
    """Copy the inputs into ``workdir`` and run ``CASES`` there, in order;
    the exit code of each, keyed by subcommand and output file."""
    for path in [*INPUTS.iterdir(), *(DATA / name for name in SGM)]:
        shutil.copyfile(path, workdir / path.name)
    codes = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, outputs in CASES:
            codes[f"{argv[0]} -> {outputs[0]}"] = main(list(argv))
    finally:
        os.chdir(cwd)
    return codes


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_inputs() -> None:
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
    _write_lines(INPUTS / "hyp.txt", [*ref, LS_DE])
    _write_lines(INPUTS / "mono.txt", [*src, *ref, LS_DE, "", "x" * 80])
    _write_lines(INPUTS / "src.txt", [*src, LS_EN, ""])
    _write_lines(INPUTS / "tgt.txt", [*ref, LS_DE, "Nur"])
    _write_lines(INPUTS / "bitext.tsv", [f"{s}\t{t}" for s, t in zip([*src, LS_EN], [*ref, LS_DE])])
    (INPUTS / "denoiser.json").write_text(json.dumps({
        "kind": "toy_denoiser", "from_lang": "de", "to_lang": "de",
        "channel": {"lexicon": {"Der": "Die", "die": "der", "Jahrzehnts.": "Jahres."}},
    }, indent=2) + "\n", encoding="utf-8")
    ref_sgm = (DATA / SGM[1]).read_text(encoding="utf-8")
    extra = f'<doc docid="ls.1" origlang="de">\n<seg id="1">{LS_DE}</seg>\n</doc>\n'
    (INPUTS / "ref_u2028.sgm").write_text(
        ref_sgm.replace("</refset>", extra + "</refset>"), encoding="utf-8")


def write_expected() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        codes = run_cases(Path(tmp))
        failed = {case: code for case, code in codes.items() if code != 0}
        if failed:
            sys.exit(f"golden cases failed: {failed}")
        shutil.rmtree(EXPECTED, ignore_errors=True)
        EXPECTED.mkdir(parents=True)
        for _, outputs in CASES:
            for name in outputs:
                shutil.copyfile(Path(tmp) / name, EXPECTED / name)


if __name__ == "__main__":
    write_inputs()
    write_expected()
