"""The command line's parse contract, one row per case: what a command line
(with an optional ``--config`` file and environment) exits with, what it
writes to stdout, and the ``Error:`` line it prints to stderr where the
text is pinned.  Rows with an ``--out`` also pin values of the manifest's
resolved config, which shows where each value came from."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rtt_ape
from rtt_ape import analysis
from rtt_ape.cli import main

SRC = Path(rtt_ape.__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

VOCAB = b'{\n  "vocab_size": 4,\n  "tokenizer": "whitespace"\n}\n'
SPLIT_UNKNOWN = (b'{\n  "n": 2,\n  "src_lang": "en",\n  "tgt_lang": "de",\n'
                 b'  "source_original": [],\n  "target_original": [],\n  "unknown": [\n'
                 b'    0,\n    1\n  ]\n}\n')
LANGS = "--src en --tgt de"
HYP = LANGS + " --hyp a={d}/h.txt"
APE = "ape-apply --in {d}/h.txt --backend identity --report {d}/report.json --out {d}/out.txt"


def row(argv: str, code: int, stdout: bytes = b"", error: str | None = None,
        config: dict | None = None, env: dict | None = None,
        manifest: dict | None = None) -> dict:
    """One case.  ``{d}`` in ``argv``, in config and env values and in the
    expected texts stands for the case's directory, ``{cfg}`` for the path
    of its config file, which is passed as ``--config`` before ``argv``."""
    return dict(argv=argv, code=code, stdout=stdout, error=error, config=config, env=env,
                manifest=manifest)


CONTRACT = {
    "--opt=value": row("vocab --in={d}/h.txt", 0, VOCAB),
    "abbreviated flag": row("vocab --i {d}/h.txt", 1,
                            error="No such option '--i'. Did you mean '--in'?"),
    "-h": row("-h", 1, error="No such option '-h'."),
    "-h after the subcommand": row("vocab -h", 1, error="No such option '-h'."),
    "unknown subcommand": row("frobnicate", 1, error="No such command 'frobnicate'."),
    "unknown flag": row("vocab --wat", 1, error="No such option '--wat'. Did you mean '--out'?"),
    "missing required option": row("bleu --hyp {d}/h.txt", 1, error="Missing option '--ref'."),
    "missing input file": row("vocab --in {d}/nope.txt", 1,
                              error="Invalid value for '--in': Path '{d}/nope.txt' does not "
                                    "exist."),
    "bad choice": row("vocab --in {d}/h.txt --tokenizer x", 1,
                      error="Invalid value for '--tokenizer': 'x' is not one of 'whitespace', "
                            "'intl'."),
    "bad integer": row("ape-apply --in {d}/h.txt --backend identity --iterations x", 1,
                       error="Invalid value for '--iterations': 'x' is not a valid integer."),
    "config string integer": row(APE, 0, config={"ape-apply": {"iterations": "2"}},
                                 manifest={"iterations": 2}),
    "flag beats config": row(APE + " --iterations 3", 0, config={"ape-apply": {"iterations": 2}},
                             manifest={"iterations": 3}),
    "config bad integer": row(APE, 1, config={"ape-apply": {"jobs": "two"}},
                              error="Invalid value for '--jobs': 'two' is not a valid integer."),
    "missing config file": row("--config {d}/nope.json vocab --in {d}/h.txt", 1,
                               error="Invalid value for '--config': Path '{d}/nope.json' does "
                                     "not exist."),
    "unknown config section": row("vocab --in {d}/h.txt", 1, config={"ape-aply": {}},
                                  error="bad config file '{cfg}': no subcommand 'ape-aply'"),
    "unknown config key": row("vocab --in {d}/h.txt", 1, config={"vocab": {"tokeniser": "intl"}},
                              error="bad config file '{cfg}': vocab has no parameter 'tokeniser'"),
    "RTT_APE_CACHE beats config": row(APE, 0, config={"ape-apply": {"cache_dir": "{d}/cfgcache"}},
                                      env={"RTT_APE_CACHE": "{d}/envcache"},
                                      manifest={"cache_dir": "{d}/envcache"}),
    "flag beats RTT_APE_CACHE": row(APE + " --cache-dir {d}/flagcache", 0,
                                    env={"RTT_APE_CACHE": "{d}/envcache"},
                                    manifest={"cache_dir": "{d}/flagcache"}),
    "repeated --hyp keeps its order": row(
        "report-split --ref-text {d}/h.txt --origins {d}/o.txt --src en --tgt de "
        "--hyp b={d}/h.txt --hyp a={d}/g.txt --out {d}/out.txt", 0,
        manifest={"hyp_specs": ["b={d}/h.txt", "a={d}/g.txt"]}),
    # One test-set source per command, named by that command's flags.
    "split: SGM and text": row("split --sgm {d}/s.sgm --text {d}/h.txt " + LANGS, 1,
                               error="give --sgm or --text, not both"),
    "split: --origins with SGM": row("split --sgm {d}/s.sgm --origins {d}/o.txt " + LANGS, 1,
                                     error="--origins goes with --text, not --sgm"),
    "split: no test set": row("split " + LANGS, 1, error="provide --sgm or --text"),
    "split: --origins alone": row("split --origins {d}/o.txt " + LANGS, 1,
                                  error="provide --sgm or --text"),
    "split: --text without --origins": row("split --text {d}/h.txt " + LANGS, 0, SPLIT_UNKNOWN),
    "report-split: SGM and text": row(
        "report-split --src-sgm {d}/s.sgm --ref-sgm {d}/s.sgm --ref-text {d}/h.txt " + HYP, 1,
        error="give --src-sgm/--ref-sgm or --ref-text, not both"),
    "report-split: --ref-sgm and text": row(
        "report-split --ref-sgm {d}/s.sgm --ref-text {d}/h.txt " + HYP, 1,
        error="give --src-sgm/--ref-sgm or --ref-text, not both"),
    "report-split: --origins with SGM": row(
        "report-split --src-sgm {d}/s.sgm --ref-sgm {d}/s.sgm --origins {d}/o.txt " + HYP, 1,
        error="--origins goes with --ref-text, not --src-sgm/--ref-sgm"),
    "report-split: no test set": row("report-split " + HYP, 1,
                                     error="provide --src-sgm/--ref-sgm or --ref-text"),
    "report-split: --src-sgm alone": row("report-split --src-sgm {d}/s.sgm " + HYP, 1,
                                         error="Missing option '--ref-sgm'."),
    "report-split: --ref-sgm alone": row("report-split --ref-sgm {d}/s.sgm " + HYP, 1,
                                         error="Missing option '--src-sgm'."),
    "filter-bitext: TSV and two files": row(
        "filter-bitext --tsv {d}/p.tsv --src {d}/h.txt --tgt {d}/g.txt --out {d}/out.txt", 1,
        error="give --src/--tgt or --tsv, not both"),
    "filter-bitext: TSV and --tgt": row("filter-bitext --tsv {d}/p.tsv --tgt {d}/g.txt", 1,
                                        error="give --src/--tgt or --tsv, not both"),
    "filter-bitext: no bitext": row("filter-bitext --out {d}/out.txt", 1,
                                    error="provide --src/--tgt or --tsv"),
    "filter-bitext: --src alone": row(
        "filter-bitext --src {d}/h.txt --out-src {d}/a.txt --out-tgt {d}/b.txt", 1,
        error="Missing option '--tgt'."),
    "filter-bitext: TSV alone": row("filter-bitext --tsv {d}/p.tsv --report {d}/r.json", 0,
                                    b"a b\ta c\n"),
    # One output form for bitext: a TSV, or a file per side.
    "make-pairs: --out and two files": row(
        "make-pairs --in {d}/p.tsv --out-src {d}/a.txt --out-tgt {d}/b.txt --out {d}/out.txt", 1,
        error="give --out or --out-src/--out-tgt, not both"),
    "make-pairs: --out and --out-tgt": row(
        "make-pairs --in {d}/p.tsv --out-tgt {d}/b.txt --out {d}/out.txt", 1,
        error="give --out or --out-src/--out-tgt, not both"),
    "filter-bitext: --out and two files": row(
        "filter-bitext --tsv {d}/p.tsv --out-src {d}/a.txt --out-tgt {d}/b.txt --out {d}/out.txt",
        1, error="give --out or --out-src/--out-tgt, not both"),
    # Usage errors of the parser and of the option types.
    "config float": row("make-pairs --in {d}/p.tsv", 1, config={"make-pairs": {"max_ratio": "x"}},
                        error="Invalid value for '--max-ratio': 'x' is not a valid float."),
    "config boolean": row("dedup --in {d}/h.txt", 1, config={"dedup": {"exact": "maybe"}},
                          error="Invalid value for '--exact': 'maybe' is not a valid boolean."),
    "extra argument": row("vocab --in {d}/h.txt extra", 1,
                          error="Got unexpected extra argument (extra)"),
    "--hyp without =": row("report-split --ref-text {d}/h.txt " + LANGS + " --hyp {d}/h.txt", 1,
                           error="Invalid value for '--hyp': '{d}/h.txt' is not LABEL=PATH."),
    "--hyp without a file": row("report-split --ref-text {d}/h.txt " + LANGS + " --hyp a=", 1,
                                error="Invalid value for '--hyp': 'a=' is not LABEL=PATH."),
    "--hyp label twice": row("report-split --ref-text {d}/h.txt " + HYP + " --hyp a={d}/g.txt",
                             1, error="Invalid value for '--hyp': label 'a' is given more than "
                                      "once."),
    "unknown backend": row("ape-apply --in {d}/h.txt --backend nope", 1,
                           error="Invalid value for '--backend': 'nope' is neither 'identity' "
                                 "nor an existing spec file."),
    "unknown backend in config": row(
        "ape-apply --in {d}/h.txt", 1, config={"ape-apply": {"backend": "nope"}},
        error="Invalid value for '--backend': 'nope' is neither 'identity' nor an existing spec "
              "file."),
    "unknown pivot backend": row(
        "rtt-gen --in {d}/h.txt --to-pivot identity --from-pivot {d}/nope.json", 1,
        error="Invalid value for '--from-pivot': '{d}/nope.json' is neither 'identity' nor an "
              "existing spec file."),
    "--version": row("--version", 0, b"rtt-ape, version 0.1.0\n"),
    "missing command": row("", 1, config={}, error="Missing command."),
}


@pytest.mark.parametrize("case", list(CONTRACT))
def test_parse_contract(case, tmp_path, capsysbinary, monkeypatch):
    spec = CONTRACT[case]
    d = str(tmp_path)
    (tmp_path / "h.txt").write_text("a b\nc d\n", encoding="utf-8")
    (tmp_path / "g.txt").write_text("a b\nc e\n", encoding="utf-8")
    (tmp_path / "o.txt").write_text("de\nen\n", encoding="utf-8")
    (tmp_path / "p.tsv").write_text("a b\ta c\n", encoding="utf-8")
    (tmp_path / "s.sgm").write_bytes((DATA / "mini_ende_src.sgm").read_bytes())
    cfg = str(tmp_path / "cfg.json")

    def fill(value):
        return json.loads(json.dumps(value).replace("{d}", d).replace("{cfg}", cfg))

    monkeypatch.delenv("RTT_APE_CACHE", raising=False)
    for name, value in fill(spec["env"] or {}).items():
        monkeypatch.setenv(name, value)
    argv = fill(spec["argv"]).split()
    if spec["config"] is not None:
        Path(cfg).write_text(json.dumps(fill(spec["config"])), encoding="utf-8")
        argv = ["--config", cfg, *argv]
    assert main(argv) == spec["code"]
    printed = capsysbinary.readouterr()
    assert printed.out == spec["stdout"]
    errors = [line for line in printed.err.decode("utf-8").splitlines()
              if line.startswith("Error: ")]
    if spec["code"] == 0:
        assert printed.err == b""
    elif spec["error"] is not None:
        assert errors == [f"Error: {fill(spec['error'])}"]
    for name, value in fill(spec["manifest"] or {}).items():
        manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"][name] == value


def test_ctrl_c_in_a_command_prints_aborted_and_exits_1(tmp_path, capsysbinary, monkeypatch):
    def interrupted(lines, tokenizer="whitespace"):
        raise KeyboardInterrupt

    monkeypatch.setattr(analysis, "vocab_size", interrupted)
    (tmp_path / "h.txt").write_text("a b\n", encoding="utf-8")
    assert main(["vocab", "--in", str(tmp_path / "h.txt")]) == 1
    assert capsysbinary.readouterr() == (b"", b"\naborted\n")


def test_a_closed_stdout_pipe_exits_1_without_a_word(tmp_path):
    """``rtt-ape dedup --in big.txt | head -1``: the reader goes away while
    the command still writes."""
    big = tmp_path / "big.txt"
    big.write_text("".join(f"distinct line {i}\n" for i in range(100_000)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    with subprocess.Popen([sys.executable, "-m", "rtt_ape.cli", "dedup", "--in", str(big)],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"distinct line 0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""
