"""CLI surface: flags, exit codes, JSON output, manifests, composition."""

import contextlib
import gc
import glob
import gzip
import inspect
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import click
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import rtt_ape
from conftest import command_killing_its_worker, random_parallel_corpus, random_sentence
from rtt_ape import analysis, cli_analysis, pipeline
from rtt_ape.analysis import humaneval_make_tasks, vocab_size
from rtt_ape.backends import BackendSpec, spec_from_dict
from rtt_ape.cli import SUBCOMMANDS, cli, main
from rtt_ape.corpus import FilterConfig, SentencePair, bitext_filter, mono_filter
from rtt_ape.errors import DataError
from rtt_ape.lineio import file_fingerprint
from rtt_ape.pipeline import ApeMode, generate_rtt, iter_rtt, make_training_pairs
from rtt_ape.scoring import BleuConfig, ngram_stats
from rtt_ape.testset import parse_sgm

DATA = Path(__file__).parent / "data"
SRC = Path(rtt_ape.__file__).resolve().parents[1]


def run(*argv):
    return main(list(argv))


def write(path: Path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture()
def corpus_files(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    write(hyp, ["der hund läuft schnell weg", "die katze schläft tief"])
    write(ref, ["der hund läuft schnell weg", "die katze schläft fest"])
    return hyp, ref


class TestBleuCommand:
    def test_json_output_and_signature(self, corpus_files, tmp_path, capsys):
        hyp, ref = corpus_files
        out = tmp_path / "score.json"
        code = run("bleu", "--hyp", str(hyp), "--ref", str(ref),
                   "--lang", "en-de", "--set", "newstest2016", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["signature"] == (
            "BLEU+case.mixed+lang.en-de+numrefs.1+smooth.exp"
            "+newstest2016+tok.intl+version.1.2.20"
        )
        assert set(payload) == {
            "score", "precisions", "bp", "hyp_len", "ref_len", "signature", "unicode_version",
        }

    def test_stdout_by_default(self, corpus_files, capsys):
        hyp, ref = corpus_files
        assert run("bleu", "--hyp", str(hyp), "--ref", str(ref)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 <= payload["score"] <= 100

    def test_length_mismatch_is_data_error(self, tmp_path, capsys):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        write(hyp, ["one line"])
        write(ref, ["two", "lines"])
        assert run("bleu", "--hyp", str(hyp), "--ref", str(ref)) == 2
        assert capsys.readouterr().err == (
            f"data error: line count mismatch: 1 in {hyp} vs 2 in {ref}\n")

    def test_missing_flag_is_usage_error(self, capsys):
        assert run("bleu") == 1

    def test_manifest_written(self, corpus_files, tmp_path):
        hyp, ref = corpus_files
        out = tmp_path / "score.json"
        run("bleu", "--hyp", str(hyp), "--ref", str(ref), "--out", str(out))
        manifest = json.loads((tmp_path / "score.json.manifest.json").read_text())
        assert manifest["subcommand"] == "bleu"
        assert str(hyp) in manifest["inputs"]
        assert len(manifest["inputs"][str(hyp)]) == 32
        assert manifest["config"]["lang"] == "unknown"


class TestConfigPrecedence:
    def test_config_file_fills_defaults_flags_win(self, corpus_files, tmp_path, capsys):
        hyp, ref = corpus_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bleu": {"lang": "en-ro", "set_name": "fromconfig"}}))
        assert run("--config", str(cfg), "bleu", "--hyp", str(hyp), "--ref", str(ref)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "+lang.en-ro+" in payload["signature"]
        assert "+fromconfig+" in payload["signature"]

        assert run("--config", str(cfg), "bleu", "--hyp", str(hyp), "--ref", str(ref),
                   "--lang", "en-fr") == 0
        payload = json.loads(capsys.readouterr().out)
        assert "+lang.en-fr+" in payload["signature"]
        assert "+fromconfig+" in payload["signature"]


class TestSgmCommands:
    def test_parse_sgm_text_and_labels(self, tmp_path):
        out = tmp_path / "src.txt"
        labels = tmp_path / "src.origins"
        code = run("parse-sgm", "--sgm", str(DATA / "mini_ende_src.sgm"),
                   "--out", str(out), "--labels-out", str(labels))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 20
        assert lines[0] == "The council approved the new budget on Tuesday."
        origins = labels.read_text().splitlines()
        assert origins[0] == "de" and origins[4] == "en" and origins[18] == "unknown"

    def test_parse_sgm_bad_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.sgm"
        bad.write_text("<srcset>nothing here</srcset>")
        assert run("parse-sgm", "--sgm", str(bad)) == 2

    @pytest.mark.parametrize("command", ["parse-sgm", "split", "report-split"])
    def test_parse_error_names_the_file(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.sgm"
        bad.write_text('<refset><doc docid="d"><seg id="1">x</doc></refset>')
        src = str(DATA / "mini_ende_src.sgm")
        argv = {
            "parse-sgm": ["--sgm", str(bad)],
            "split": ["--sgm", str(bad), "--src", "en", "--tgt", "de"],
            "report-split": ["--src-sgm", src, "--ref-sgm", str(bad), "--src", "en",
                             "--tgt", "de", "--hyp", f"a={src}"],
        }[command]
        assert run(command, *argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {bad}: <seg> at byte 23 is never closed\n")

    def test_split_and_merge(self, tmp_path):
        split_out = tmp_path / "split.json"
        code = run("split", "--sgm", str(DATA / "mini_ende_src.sgm"),
                   "--src", "en", "--tgt", "de", "--out", str(split_out))
        assert code == 0
        halves = json.loads(split_out.read_text())
        assert halves["target_original"] == [0, 1, 2, 3, 8, 9, 10, 11]
        assert halves["source_original"] == [4, 5, 6, 7, 12, 13, 14, 15]
        assert halves["unknown"] == [16, 17, 18, 19]

        base = tmp_path / "base.txt"
        edited = tmp_path / "edited.txt"
        write(base, [f"b{i}" for i in range(20)])
        write(edited, [f"e{i}" for i in range(20)])
        merged_out = tmp_path / "merged.txt"
        code = run("merge", "--base", str(base), "--edited", str(edited),
                   "--split", str(split_out), "--mode", "target_original_only",
                   "--out", str(merged_out))
        assert code == 0
        merged = merged_out.read_text().splitlines()
        assert merged[0] == "e0" and merged[4] == "b4" and merged[16] == "b16"

    @pytest.mark.parametrize("split_text, message", [
        ("[-1]", "target_original: index -1 is not a non-negative integer"),
        ('["x"]', "target_original: index 'x' is not a non-negative integer"),
        ("[true]", "target_original: index True is not a non-negative integer"),
        ("[1.0]", "target_original: index 1.0 is not a non-negative integer"),
        ("[1, 0]", "target_original: index 0 is also in an earlier group"),
        ("[3]", "split index 3 out of range for 3 lines"),
        ('{"source_original": [99], "target_original": [1]}',
         "source_original: split index 99 out of range for 3 lines"),
        ('{"source_original": [0], "target_original": [1], "unknown": [99]}',
         "unknown: split index 99 out of range for 3 lines"),
        ('{"n": 2, "source_original": [0], "target_original": [1]}',
         "n: written for 2 lines, used with 3"),
    ])
    @pytest.mark.parametrize("command", [
        "ape-apply", "merge", "ape-apply --scope all", "merge --mode all"])
    def test_bad_split_index_is_data_error(self, tmp_path, capsys, command, split_text,
                                           message):
        """``split_text`` is the split file, or its ``target_original`` list
        beside ``"source_original": [0]``; every scope checks every group."""
        lines = tmp_path / "lines.txt"
        write(lines, ["a", "b", "c"])
        split = tmp_path / "split.json"
        if not split_text.startswith("{"):
            split_text = f'{{"source_original": [0], "target_original": {split_text}}}'
        split.write_text(split_text)
        out = tmp_path / "out.txt"
        command, *mode = command.split()
        if command == "ape-apply":
            argv = ["--in", str(lines), "--backend", "identity",
                    *(mode or ["--scope", "target_original_only"])]
        else:
            argv = ["--base", str(lines), "--edited", str(lines), *mode]
        assert run(command, *argv, "--split", str(split), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err
        assert f"bad split file {str(split)!r}" in err
        assert not out.exists()

    def test_split_plain_text_with_origins(self, tmp_path):
        text = tmp_path / "plain.txt"
        origins = tmp_path / "plain.origins"
        write(text, ["a", "b", "c"])
        write(origins, ["de", "en", "de"])
        out = tmp_path / "split.json"
        code = run("split", "--text", str(text), "--origins", str(origins),
                   "--src", "en", "--tgt", "de", "--out", str(out))
        assert code == 0
        halves = json.loads(out.read_text())
        assert halves["target_original"] == [0, 2]


class TestCorpusCommands:
    def test_dedup_filter_sample_compose(self, tmp_path):
        raw = tmp_path / "raw.txt"
        lines = [f"sentence {i}" for i in range(50)] + ["sentence 0", "x" * 600]
        write(raw, lines)

        deduped = tmp_path / "dedup.txt"
        report = tmp_path / "dedup.report.json"
        assert run("dedup", "--in", str(raw), "--out", str(deduped),
                   "--report", str(report)) == 0
        assert json.loads(report.read_text()) == {
            "read": 52, "kept": 51, "rejected_by_rule": {"duplicate": 1},
        }

        filtered = tmp_path / "filtered.txt"
        freport = tmp_path / "filter.report.json"
        assert run("filter-mono", "--in", str(deduped), "--out", str(filtered),
                   "--report", str(freport)) == 0
        assert json.loads(freport.read_text())["kept"] == 50

        sampled = tmp_path / "sampled.txt"
        assert run("sample", "--in", str(filtered), "--n", "10", "--seed", "3",
                   "--out", str(sampled)) == 0
        assert len(sampled.read_text().splitlines()) == 10

        again = tmp_path / "sampled2.txt"
        run("sample", "--in", str(filtered), "--n", "10", "--seed", "3", "--out", str(again))
        assert again.read_text() == sampled.read_text()

    def test_sample_oversize_is_data_error(self, tmp_path):
        raw = tmp_path / "raw.txt"
        write(raw, ["a", "b"])
        assert run("sample", "--in", str(raw), "--n", "5", "--seed", "0") == 2

    def test_gzip_transparent(self, tmp_path):
        import gzip

        raw = tmp_path / "raw.txt.gz"
        with gzip.open(raw, "wt", encoding="utf-8") as fh:
            fh.write("a\nb\na\n")
        out = tmp_path / "out.txt.gz"
        assert run("dedup", "--in", str(raw), "--out", str(out)) == 0
        with gzip.open(out, "rt", encoding="utf-8") as fh:
            assert fh.read() == "a\nb\n"

    def test_filter_bitext_two_files(self, tmp_path):
        src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
        write(src, ["one two three", "a", ""])
        write(tgt, ["eins zwei drei", " ".join(["x"] * 10), "leer"])
        out_src, out_tgt = tmp_path / "s.f.txt", tmp_path / "t.f.txt"
        report = tmp_path / "report.json"
        assert run("filter-bitext", "--src", str(src), "--tgt", str(tgt),
                   "--out-src", str(out_src), "--out-tgt", str(out_tgt),
                   "--report", str(report)) == 0
        assert out_src.read_text().splitlines() == ["one two three"]
        counters = json.loads(report.read_text())
        assert counters["rejected_by_rule"] == {"length_ratio": 1, "empty_side": 1}

    def test_dedup_failing_on_last_line_leaves_no_output(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_bytes(b"".join(b"zeile %d\n" % i for i in range(20_000)) + b"\xff\n")
        out = tmp_path / "unique.txt.gz"
        assert run("dedup", "--in", str(raw), "--out", str(out)) == 2
        assert "data error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["raw.txt"]

    def test_filter_bitext_tsv(self, tmp_path):
        tsv = tmp_path / "pairs.tsv"
        tsv.write_text("ein haus\ta house\nzu lang\t" + " ".join(["x"] * 10) + "\n")
        out = tmp_path / "kept.tsv"
        assert run("filter-bitext", "--tsv", str(tsv), "--out", str(out)) == 0
        assert out.read_text() == "ein haus\ta house\n"


@pytest.fixture()
def denoiser_spec(tmp_path):
    spec = tmp_path / "denoiser.json"
    spec.write_text(json.dumps({
        "kind": "toy_denoiser",
        "from_lang": "de",
        "to_lang": "de",
        "channel": {"lexicon": {"erhält": "empfängt"}},
    }))
    return spec


class TestPipelineCommands:
    def test_rtt_gen_identity_and_make_pairs(self, tmp_path):
        mono = tmp_path / "mono.txt"
        write(mono, ["guten tag", "wie geht es", "x" * 600])
        pairs_out = tmp_path / "pairs.tsv"
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", "identity",
                   "--from-pivot", "identity", "--out", str(pairs_out)) == 0
        rows = pairs_out.read_text().splitlines()
        assert rows == ["guten tag\tguten tag", "wie geht es\twie geht es"]

        src_out, tgt_out = tmp_path / "train.src", tmp_path / "train.tgt"
        assert run("make-pairs", "--in", str(pairs_out), "--direction", "normal",
                   "--out-src", str(src_out), "--out-tgt", str(tgt_out)) == 0
        assert src_out.read_text().splitlines() == ["guten tag", "wie geht es"]

        rev_out = tmp_path / "rev.tsv"
        assert run("make-pairs", "--in", str(pairs_out), "--direction", "reverse",
                   "--out", str(rev_out)) == 0
        assert rev_out.read_text().splitlines()[0] == "guten tag\tguten tag"

        # File composition must equal the fused in-process pipeline.
        from rtt_ape.backends import BackendSpec
        from rtt_ape.pipeline import generate_rtt, make_training_pairs

        fused = make_training_pairs(
            generate_rtt(["guten tag", "wie geht es", "x" * 600],
                         BackendSpec.identity(), BackendSpec.identity()),
            "normal",
        )
        assert src_out.read_text().splitlines() == [p.source for p in fused]
        assert tgt_out.read_text().splitlines() == [p.target for p in fused]

    def test_rtt_gen_with_backend_spec_files(self, tmp_path):
        to_en = tmp_path / "to_en.json"
        to_en.write_text(json.dumps({
            "kind": "toy_channel", "from_lang": "de", "to_lang": "en",
            "channel": {"lexicon": {"empfängt": "receives", "erhält": "receives"}},
        }))
        to_de = tmp_path / "to_de.json"
        to_de.write_text(json.dumps({
            "kind": "toy_channel", "from_lang": "en", "to_lang": "de",
            "channel": {"lexicon": {"receives": "erhält"}},
        }))
        mono = tmp_path / "mono.txt"
        write(mono, ["Obama empfängt Netanjahu"])
        out = tmp_path / "pairs.tsv"
        intermediate = tmp_path / "pivot.txt"
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", str(to_en),
                   "--from-pivot", str(to_de), "--out", str(out),
                   "--intermediate", str(intermediate)) == 0
        assert out.read_text() == "Obama empfängt Netanjahu\tObama erhält Netanjahu\n"
        assert intermediate.read_text() == "Obama receives Netanjahu\n"

    def test_rtt_gen_rejects_tab_in_original(self, tmp_path, capsys):
        mono = tmp_path / "mono.txt"
        write(mono, ["guten tag", "wie\tgeht es"])
        out = tmp_path / "pairs.tsv"
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", "identity",
                   "--from-pivot", "identity", "--out", str(out)) == 2
        assert f"{mono}:2: original contains a tab" in capsys.readouterr().err
        assert not out.exists()

    def test_rtt_gen_rejects_tab_in_round_trip_then_make_pairs_reads_clean_tsv(
        self, tmp_path, capsys
    ):
        tabbing = tmp_path / "tabbing.json"
        tabbing.write_text(json.dumps({"kind": "command", "command": "tr _ '\\t'"}))
        mono = tmp_path / "mono.txt"
        write(mono, ["guten tag", "wie geht es", "a_b"])
        out = tmp_path / "pairs.tsv"
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", "identity",
                   "--from-pivot", str(tabbing), "--out", str(out)) == 2
        assert f"{mono}:3: round trip contains a tab" in capsys.readouterr().err
        assert not out.exists()

        write(mono, ["guten tag", "wie geht es"])
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", "identity",
                   "--from-pivot", str(tabbing), "--out", str(out)) == 0
        train = tmp_path / "train.tsv"
        assert run("make-pairs", "--in", str(out), "--out", str(train)) == 0
        assert train.read_text().splitlines() == [
            "guten tag\tguten tag", "wie geht es\twie geht es",
        ]

    def test_make_pairs_malformed_row_leaves_no_output(self, tmp_path, capsys):
        tsv = tmp_path / "pairs.tsv"
        write(tsv, [f"satz {i}\tsatz {i}" for i in range(3000)] + ["kein tab"])
        assert run("make-pairs", "--in", str(tsv), "--out-src", str(tmp_path / "train.src"),
                   "--out-tgt", str(tmp_path / "train.tgt")) == 2
        assert f"{tsv}:3001: expected 2 tab-separated fields" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["pairs.tsv"]

    def test_ape_apply_identity(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        write(hyp, ["line one", "line two"])
        out = tmp_path / "ape.txt"
        report = tmp_path / "changes.json"
        assert run("ape-apply", "--in", str(hyp), "--backend", "identity",
                   "--out", str(out), "--report", str(report)) == 0
        assert out.read_text() == hyp.read_text()
        assert json.loads(report.read_text())["changed_per_iteration"] == [0]

    def test_ape_apply_selective_with_split(self, tmp_path, denoiser_spec):
        hyp = tmp_path / "hyp.txt"
        write(hyp, ["Obama erhält Netanjahu", "Obama erhält Netanjahu"])
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"source_original": [0], "target_original": [1]}))
        out = tmp_path / "ape.txt"
        assert run("ape-apply", "--in", str(hyp), "--backend", str(denoiser_spec),
                   "--scope", "target_original_only", "--split", str(split),
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "Obama erhält Netanjahu"
        assert lines[1] == "Obama empfängt Netanjahu"

    def test_ape_apply_selective_without_split_is_usage_error(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        write(hyp, ["x"])
        assert run("ape-apply", "--in", str(hyp), "--backend", "identity",
                   "--scope", "target_original_only") == 1

    @pytest.mark.parametrize("jobs", [0, -1, 65])
    def test_ape_apply_jobs_out_of_range_is_exit_2(self, tmp_path, capsys, jobs):
        hyp = tmp_path / "hyp.txt"
        write(hyp, ["x", "y"])
        counter = tmp_path / "invocations"
        spec = tmp_path / "cat.json"
        spec.write_text(json.dumps(
            {"kind": "command", "command": f"bash -c 'cat; echo run >> {counter}'",
             "batch_size": 1}
        ))
        out = tmp_path / "ape.txt"
        assert run("ape-apply", "--in", str(hyp), "--backend", str(spec),
                   "--jobs", str(jobs), "--out", str(out)) == 2
        assert f"got {jobs}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ape-apply": {"jobs": jobs}}))
        assert run("--config", str(cfg), "ape-apply", "--in", str(hyp),
                   "--backend", str(spec), "--out", str(out)) == 2
        assert not counter.exists()
        assert not out.exists()

    def test_backend_failure_is_exit_3(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        write(hyp, ["x"])
        spec = tmp_path / "broken.json"
        spec.write_text(json.dumps({"kind": "command", "command": "false", "retries": 0}))
        assert run("ape-apply", "--in", str(hyp), "--backend", str(spec)) == 3

    @pytest.mark.parametrize("scope", ["all", "target_original_only"])
    def test_backend_failure_names_the_input_line(self, tmp_path, capsys, scope):
        hyp = tmp_path / "hyp.txt"
        write(hyp, ["eins", "zwei", "drei", "BOOM", "fünf", "sechs"])
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"source_original": [0, 2, 4], "target_original": [1, 3, 5]}))
        spec = _spec_file(tmp_path / "boom.json", {
            "kind": "command", "command": "awk '/BOOM/ { exit 1 } { print }'",
            "batch_size": 1, "retries": 0})
        out = tmp_path / "ape.txt"
        assert run("ape-apply", "--in", str(hyp), "--backend", str(spec), "--scope", scope,
                   "--split", str(split), "--out", str(out)) == 3
        assert capsys.readouterr().err.rstrip().endswith("(input lines 4..4)")
        assert not out.exists()

    @pytest.mark.parametrize("scope", ["all", "target_original_only"])
    def test_a_dead_batch_worker_is_a_backend_error_naming_the_input_line(
            self, tmp_path, capsys, scope):
        # Under either scope input line 4 is the second batch of one line,
        # which the forked batch worker runs; its command kills that worker.
        hyp = tmp_path / "hyp.txt"
        write(hyp, ["eins", "zwei", "drei", "BOOM", "fünf", "sechs"])
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"source_original": [0, 2, 4], "target_original": [1, 3, 5]}))
        spec = _spec_file(tmp_path / "boom.json", {
            "kind": "command", "command": command_killing_its_worker(), "batch_size": 1,
            "retries": 0})
        out = tmp_path / "ape.txt"
        assert run("ape-apply", "--in", str(hyp), "--backend", str(spec), "--scope", scope,
                   "--split", str(split), "--jobs", "2", "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "backend error: backend worker ended without a result (killed by SIGKILL) "
            "(input lines 4..4)\n")
        assert not out.exists()


def _spec_file(path: Path, spec: dict) -> Path:
    path.write_text(json.dumps(spec))
    return path


class TestMalformedBackendSpecs:
    """A spec file is read strictly: a key the spec format does not have, or
    a value it cannot hold, is a data error naming the key, never ignored."""

    @pytest.mark.parametrize("spec, offender", [
        ({"kind": "toy_channel", "channel": {"lexicon": {"a": "b"}, "drop": 0.5}}, "'drop'"),
        ({"kind": "command", "command": "cat", "batchsize": 8}, "'batchsize'"),
        ({"kind": "command", "command": "cat", "retry": 1}, "'retry'"),
        ({"kind": "command", "command": "cat", "timeout_s": 5}, "'timeout_s'"),
        ({"kind": "command", "command_template": "cat"}, "'command_template'"),
        ({"kind": "command", "command": "cat", "retries": -1}, "retries 0 or more, got 64 and -1"),
        ({"kind": "toy_denoiser", "channel": {"lexicon": {"a": "b"}, "drop_prob": 0.5}},
         "drop_prob"),
        ({"kind": "toy_denoiser", "channel": {"swap_prob": 0.1}}, "swap_prob"),
        ({"kind": "toy_channel", "channel": ["a", "b"]}, "'channel'"),
        ({"kind": "toy_channel", "channel": None}, "needs a 'channel'"),
        ({"kind": "toy_channel", "channel": {"lexicon": {"a": 3}}}, "lexicon"),
        ({"kind": "toy_channel", "channel": {"lexicon": ["a"]}}, "'lexicon'"),
        ({"kind": "toy_channel", "channel": {"drop_prob": 1.5}}, "drop_prob"),
        ({"kind": "toy_channel", "channel": {"seed": "1"}}, "'seed'"),
        ({"kind": "identity", "from_lang": 3}, "'from_lang'"),
        ({"kind": "identity", "to_lang": None}, "'to_lang'"),
        ({"kind": "command", "command": "cat", "batch_size": True}, "'batch_size'"),
        ({"kind": "command", "command": "cat", "batch_size": 8.0}, "'batch_size'"),
        ({"kind": "http", "url": "http://localhost:1/", "timeout": "30"}, "'timeout'"),
        ({"from_lang": "de"}, "spec has no 'kind'"),
        (["identity"], "spec must be a JSON object"),
    ])
    def test_exit_2_naming_the_file_and_the_key(self, tmp_path, capsys, spec, offender):
        mono = tmp_path / "mono.txt"
        write(mono, ["a b c"])
        path = _spec_file(tmp_path / "spec.json", spec)
        out = tmp_path / "out.tsv"
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", str(path),
                   "--from-pivot", "identity", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"bad backend spec '{path}': " in err
        assert offender in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_field_its_kind_does_not_use_is_accepted(self, tmp_path):
        """A toy spec's batch_size sets rtt-gen's chunk size."""
        mono = tmp_path / "mono.txt"
        write(mono, ["a b c"])
        path = _spec_file(tmp_path / "spec.json", {
            "kind": "toy_channel", "batch_size": 7, "url": "unused", "retries": 0,
            "channel": {"lexicon": {"a": "x"}}})
        out = tmp_path / "out.tsv"
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", str(path),
                   "--from-pivot", "identity", "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == "a b c\tx b c\n"


class TestInputThatIsNotUtf8:
    @pytest.mark.parametrize("name", ["in.txt", "in.txt.gz"])
    def test_line_input_names_the_file_and_the_line(self, tmp_path, capsys, name):
        data = b"".join(b"line %d of plain text\n" % i for i in range(2000)) + b"bad \xff\n"
        path = tmp_path / name
        path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        assert run("vocab", "--in", str(path)) == 2
        assert capsys.readouterr().err == f"data error: {path}:2001: not valid UTF-8\n"

    @pytest.mark.parametrize("sgm", [
        pytest.param(b'<srcset>\n<doc docid="d" origlang="de">\n<seg id="1">caf\xe9 ok</seg>\n'
                     b'</doc>\n</srcset>\n', id="segment"),
        pytest.param(b'<srcset>\n<doc docid="d\xe9" origlang="de">\n<seg id="1">ok</seg>\n'
                     b'</doc>\n</srcset>\n', id="docid"),
    ])
    def test_sgm_names_the_file_and_the_byte(self, tmp_path, capsys, sgm):
        path, out = tmp_path / "latin1.sgm", tmp_path / "out.txt"
        path.write_bytes(sgm)
        assert run("parse-sgm", "--sgm", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: not valid UTF-8 at byte {sgm.index(0xE9)}\n")
        assert not out.exists()

    def test_humaneval_task_file_names_the_file_and_the_line(self, tmp_path, capsys):
        path = tmp_path / "tasks.tsv"
        path.write_bytes(b"# rtt-ape-humaneval-v1\n\xff\n")
        assert run("humaneval-agg", "--tasks", str(path)) == 2
        assert capsys.readouterr().err == f"data error: {path}:2: not valid UTF-8\n"

    def test_cache_file_names_the_file_and_the_line(self, tmp_path, capsys):
        mono, cache = tmp_path / "mono.txt", tmp_path / "cache"
        write(mono, ["guten tag", "wie geht es"])
        spec = _spec_file(tmp_path / "cat.json", {"kind": "command", "command": "cat"})
        argv = ["rtt-gen", "--in", str(mono), "--to-pivot", str(spec), "--from-pivot",
                "identity", "--cache-dir", str(cache)]
        assert run(*argv, "--out", str(tmp_path / "first.tsv")) == 0
        [cached] = cache.glob("*/*.txt")
        cached.write_bytes(b"guten tag\nwie geht \xff\n")
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / "second.tsv")) == 2
        assert capsys.readouterr().err == f"data error: {cached}:2: not valid UTF-8\n"

    def test_config_file_is_named(self, tmp_path, corpus_files, capsys):
        hyp, ref = corpus_files
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"bleu": {"set_name": "\xff"}}')
        assert run("--config", str(path), "bleu", "--hyp", str(hyp), "--ref", str(ref)) == 2
        assert f"bad config file '{path}': " in capsys.readouterr().err


NOISY_CHANNEL = {
    "kind": "toy_channel", "from_lang": "de", "to_lang": "en", "batch_size": 1,
    "channel": {"lexicon": {"straße": "street"}, "drop_prob": 0.2, "swap_prob": 0.2, "seed": 4},
}

# Not "\n" (the line terminator) or "\t" (the TSV separator), but every
# other character, including those that other framings treat as line breaks.
LINE = st.text(
    alphabet=st.one_of(
        st.sampled_from("\r\f\v\x85\u2028\u2029"),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\t"),
    ),
    max_size=20,
)


class TestStreamingRttGen:
    """rtt-gen and make-pairs stream in chunks of CHUNK_BATCHES batches,
    which the --jobs worker processes take in turn; these corpora span
    several chunks."""

    def test_output_is_independent_of_jobs(self, tmp_path):
        channel = _spec_file(tmp_path / "de-en.json", NOISY_CHANNEL)
        cat = _spec_file(tmp_path / "en-de.json", {
            "kind": "command", "from_lang": "en", "to_lang": "de", "command": "cat",
            "batch_size": 2, "retries": 0})
        # Chunks of lcm(1, 2) * 8 = 16 lines, taken in turn by --jobs processes.
        lines = [f"satz {i} auf der straße" if i % 5 else f"wort{i}" for i in range(300)]
        lines[7] = "x" * 600
        mono = tmp_path / "mono.txt"
        write(mono, lines)
        outs = {}
        for jobs in (1, 2, 8):
            d = tmp_path / f"jobs{jobs}"
            d.mkdir()
            assert run("rtt-gen", "--in", str(mono), "--to-pivot", str(channel),
                       "--from-pivot", str(cat), "--jobs", str(jobs), "--intermediate",
                       str(d / "pivot.txt"), "--cache-dir", str(d / "cache"),
                       "--out", str(d / "pairs.tsv")) == 0
            outs[jobs] = {p.relative_to(d): p.read_bytes() for p in d.rglob("*")
                          if p.is_file() and not p.name.endswith(".manifest.json")}
        assert outs[1] == outs[2] == outs[8]
        kept = sum(map(mono_filter, lines))
        assert len(outs[1]) == 2 + (kept + 1) // 2  # and a cache file per return batch
        pairs = generate_rtt(lines, spec_from_dict(NOISY_CHANNEL),
                             BackendSpec.identity("en", "de"))
        assert outs[1][Path("pairs.tsv")] == "".join(
            f"{p.original}\t{p.round_trip}\n" for p in pairs).encode("utf-8")
        assert 200 < len(pairs) < 299  # some lines dropped by each filter

    def test_a_pipe_at_jobs_2_is_read_once_like_at_jobs_1(self, tmp_path, monkeypatch):
        """Workers can not each read a pipe: this process reads it alone, and
        its manifest records the pipe with no digest instead of reading it
        again, which would wait for a writer for good."""
        monkeypatch.setattr(pipeline, "usable_cores", lambda: 2)
        cat = _spec_file(tmp_path / "cat.json", {"kind": "command", "command": "cat",
                                                 "batch_size": 2, "retries": 0})
        mono, fifo = tmp_path / "mono.txt", tmp_path / "mono.fifo"
        write(mono, [f"satz {i}" for i in range(3000)])
        argv = ["rtt-gen", "--to-pivot", "identity", "--from-pivot", str(cat)]
        assert run(*argv, "--in", str(mono), "--out", str(tmp_path / "file.tsv")) == 0
        os.mkfifo(fifo)
        writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(mono), str(fifo)])
        signal.signal(signal.SIGALRM, lambda *_: pytest.fail("rtt-gen hung on the pipe"))
        signal.alarm(60)
        try:
            assert run(*argv, "--in", str(fifo), "--jobs", "2",
                       "--out", str(tmp_path / "pipe.tsv")) == 0
            assert writer.wait(10) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            writer.kill()
            writer.wait()
        assert (tmp_path / "pipe.tsv").read_bytes() == (tmp_path / "file.tsv").read_bytes()
        inputs = [json.loads((tmp_path / f"{name}.tsv.manifest.json").read_text())["inputs"]
                  for name in ("file", "pipe")]
        assert inputs[1] == {str(fifo): None, str(cat): inputs[0][str(cat)]}
        assert inputs[0][str(mono)] == file_fingerprint(mono)

    def test_gz_output_at_jobs_2_still_forks(self, tmp_path, monkeypatch):
        """The workers are forked before the .gz output starts its writer
        thread, which would keep a process from forking."""
        monkeypatch.setattr(pipeline, "usable_cores", lambda: 2)
        cat = _spec_file(tmp_path / "cat.json", {"kind": "command", "command": "cat",
                                                 "batch_size": 2, "retries": 0})
        mono = tmp_path / "mono.txt"
        write(mono, [f"satz {i}" for i in range(100)])
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        for jobs in (1, 2):
            assert run("rtt-gen", "--in", str(mono), "--to-pivot", "identity", "--from-pivot",
                       str(cat), "--jobs", str(jobs), "--out", str(tmp_path / f"{jobs}.tsv.gz")) == 0
        assert forks == [1]
        assert gzip.decompress((tmp_path / "2.tsv.gz").read_bytes()) == gzip.decompress(
            (tmp_path / "1.tsv.gz").read_bytes())

    def test_backend_failure_in_third_chunk_leaves_no_output(self, tmp_path, capsys):
        channel = _spec_file(tmp_path / "de-en.json", {
            "kind": "toy_channel", "from_lang": "de", "to_lang": "en", "batch_size": 1,
            "channel": {"lexicon": {"satz": "sentence"}}})
        failing = _spec_file(tmp_path / "en-de.json", {
            "kind": "command", "from_lang": "en", "to_lang": "de",
            "command": "awk '/BOOM/ { exit 1 } { print }'", "batch_size": 1, "retries": 0})
        mono = tmp_path / "mono.txt"
        # Chunks of 8 lines: line 21 is in the third.
        write(mono, [f"satz {i}" for i in range(1, 21)] + ["BOOM", "satz 22"])
        inputs = sorted(p.name for p in tmp_path.iterdir())
        out, pivot, cache = tmp_path / "pairs.tsv", tmp_path / "pivot.txt", tmp_path / "cache"
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", str(channel),
                   "--from-pivot", str(failing), "--intermediate", str(pivot),
                   "--cache-dir", str(cache), "--out", str(out)) == 3
        assert "input lines 21..21" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + ["cache"])
        # Every batch before the failing one ran and is cached for a rerun.
        assert len(list(cache.rglob("*.txt"))) == 20

    def test_stdout_streams_and_failure_still_sets_exit_code(self, tmp_path, capsys):
        failing = _spec_file(tmp_path / "en-de.json", {
            "kind": "command", "from_lang": "xx", "to_lang": "xx",
            "command": "awk '/BOOM/ { exit 1 } { print }'", "batch_size": 8, "retries": 0})
        mono = tmp_path / "mono.txt"
        # Chunks of lcm(64, 8) * 8 = 512 lines: the failure is in the second.
        write(mono, [f"satz {i}" for i in range(600)] + ["BOOM"])
        assert run("rtt-gen", "--in", str(mono), "--to-pivot", "identity",
                   "--from-pivot", str(failing)) == 3
        printed = capsys.readouterr().out
        assert printed == "".join(f"satz {i}\tsatz {i}\n" for i in range(512))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(LINE, min_size=1, max_size=8))
    def test_any_line_survives_rtt_gen_then_make_pairs(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cat = _spec_file(tmp / "cat.json", {"kind": "command", "command": "cat",
                                                "batch_size": 3, "retries": 0})
            mono = tmp / "mono.txt"
            write(mono, lines)
            tsv, src, tgt = tmp / "pairs.tsv", tmp / "train.src", tmp / "train.tgt"
            assert run("rtt-gen", "--in", str(mono), "--to-pivot", "identity",
                       "--from-pivot", str(cat), "--out", str(tsv)) == 0
            kept = [line for line in lines if mono_filter(line)]
            assert tsv.read_bytes() == "".join(f"{x}\t{x}\n" for x in kept).encode("utf-8")
            assert run("make-pairs", "--in", str(tsv), "--out-src", str(src),
                       "--out-tgt", str(tgt)) == 0
            trained = "".join(x + "\n" for x in kept if bitext_filter(SentencePair(x, x)))
            assert src.read_bytes() == tgt.read_bytes() == trained.encode("utf-8")


class TestAnalysisCommands:
    def test_vocab(self, tmp_path, capsys):
        data = tmp_path / "lines.txt"
        write(data, ["a b", "b c"])
        assert run("vocab", "--in", str(data)) == 0
        assert json.loads(capsys.readouterr().out)["vocab_size"] == 3

    def test_report_rtt(self, tmp_path, capsys):
        originals = tmp_path / "orig.txt"
        round_trips = tmp_path / "rtt.txt"
        write(originals, ["eins zwei drei vier fünf sechs"])
        write(round_trips, ["eins zwei drei vier fünf sechs"])
        assert run("report-rtt", "--original", str(originals),
                   "--roundtrip", str(round_trips)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rtt_bleu"]["score"] == 100.0

    def test_report_split_with_table(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        refs = [
            "Der Rat hat den neuen Haushalt am Dienstag gebilligt.",
        ]
        with open(DATA / "mini_ende_ref.sgm", "rb") as fh:
            from rtt_ape.testset import parse_sgm
            ref_segs = parse_sgm(fh)
        write(hyp, [seg.text for seg in ref_segs])
        out = tmp_path / "table.json"
        code = run("report-split", "--src-sgm", str(DATA / "mini_ende_src.sgm"),
                   "--ref-sgm", str(DATA / "mini_ende_ref.sgm"),
                   "--src", "en", "--tgt", "de", "--name", "mini",
                   "--hyp", f"perfect={hyp}", "--table", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["perfect"]["split_scores"]["full"]["score"] == 100.0
        assert "orig-de" in capsys.readouterr().err
        assert refs[0] == ref_segs[0].text

    @pytest.mark.parametrize("command, flags", [
        ("bleu", ["--hyp", "nope.txt", "--ref", "{ref}"]),
        ("report-split", ["--ref-text", "{ref}", "--origins", "{origins}", "--src", "en",
                          "--tgt", "de", "--hyp", "base={ref}", "--hyp", "ape=nope.txt"]),
    ])
    def test_missing_hyp_file_is_usage_error(self, command, flags, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "ref.txt", ["a b"])
        write(tmp_path / "origins.txt", ["de"])
        argv = [flag.format(ref="ref.txt", origins="origins.txt") for flag in flags]
        assert run(command, *argv) == 1
        assert "Invalid value for '--hyp': Path 'nope.txt' does not exist." in (
            capsys.readouterr().err)

    def test_report_split_repeated_label_is_usage_error(self, tmp_path, capsys):
        hyps = [tmp_path / "x.txt", tmp_path / "y.txt"]
        for hyp in hyps:
            write(hyp, ["a b"])
        write(tmp_path / "origins.txt", ["de"])
        out = tmp_path / "out.json"
        assert run("report-split", "--ref-text", str(hyps[0]), "--origins",
                   str(tmp_path / "origins.txt"), "--src", "en", "--tgt", "de",
                   "--hyp", f"a={hyps[0]}", "--hyp", f"a={hyps[1]}", "--out", str(out)) == 1
        assert "--hyp label 'a' given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_humaneval_roundtrip(self, tmp_path, capsys):
        items = tmp_path / "items.tsv"
        items.write_text("src a\tout a\tbase\nsrc b\tout b\tape\n")
        tasks = tmp_path / "tasks.tsv"
        assert run("humaneval-make", "--items", str(items), "--seed", "1",
                   "--out", str(tasks)) == 0
        completed = tasks.read_text().replace("\t\t", "\t4\t", 100)
        lines = []
        for line in completed.splitlines():
            if line.startswith("item-"):
                cells = line.split("\t")
                cells[5] = "4"
                cells[7] = "0"
                line = "\t".join(cells)
            lines.append(line)
        done = tmp_path / "done.tsv"
        done.write_text("\n".join(lines) + "\n")
        assert run("humaneval-agg", "--tasks", str(done)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["base"] == {"fluency": 4.0, "accuracy": 100.0}

    @pytest.mark.parametrize("raters", [0, -1])
    def test_humaneval_make_without_raters_is_exit_2(self, tmp_path, capsys, raters):
        items = tmp_path / "items.tsv"
        items.write_text("src a\tout a\tbase\n")
        tasks = tmp_path / "tasks.tsv"
        assert run("humaneval-make", "--items", str(items), "--raters", str(raters),
                   "--out", str(tasks)) == 2
        assert f"got {raters}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"humaneval-make": {"raters": raters}}))
        assert run("--config", str(cfg), "humaneval-make", "--items", str(items)) == 2
        captured = capsys.readouterr()
        assert f"got {raters}" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "items.tsv"]

    # Line breaks of str.splitlines() that humaneval-make keeps inside a cell.
    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_humaneval_roundtrip_with_a_line_break_inside_a_cell(self, tmp_path, capsys, sep):
        items = tmp_path / "items.tsv"
        items.write_bytes(f"Quelle{sep}a\tAusgabe{sep}mit NEL.\tbase\n".encode("utf-8"))
        tasks = tmp_path / "tasks.tsv"
        assert run("humaneval-make", "--items", str(items), "--raters", "2",
                   "--out", str(tasks)) == 0
        rows = tasks.read_bytes().decode("utf-8").split("\n")
        assert sum(f"Ausgabe{sep}mit NEL." in row for row in rows) == 2
        rated = [row.replace("\t\t", "\t5\t", 1).replace("\t\t", "\t0\t", 1)
                 if row.startswith("item-") else row for row in rows]
        done = tmp_path / "done.tsv"
        done.write_bytes("\n".join(rated).encode("utf-8"))
        assert run("humaneval-agg", "--tasks", str(done)) == 0
        assert json.loads(capsys.readouterr().out) == {"base": {"fluency": 5.0, "accuracy": 100.0}}


def _report_split_argv(tmp_path: Path, out: Path) -> list[str]:
    """report-split over the mini test set (20 segments, four of unknown
    origin) for a perfect, a degraded and a duplicated system."""
    with open(DATA / "mini_ende_ref.sgm", "rb") as fh:
        refs = [seg.text for seg in parse_sgm(fh, side="ref")]
    perfect, worse = tmp_path / "perfect.txt", tmp_path / "worse.txt"
    write(perfect, refs)
    write(worse, [" ".join(ref.split()[::2]) for ref in refs])
    return ["report-split", "--src-sgm", str(DATA / "mini_ende_src.sgm"), "--ref-sgm",
            str(DATA / "mini_ende_ref.sgm"), "--src", "en", "--tgt", "de", "--name", "mini",
            "--hyp", f"perfect={perfect}", "--hyp", f"worse={worse}", "--hyp",
            f"again={worse}", "--table", "--out", str(out)]


class TestReportSplitWorkers:
    def test_small_inputs_stay_in_one_process(self):
        assert cli_analysis._scoring_workers(1) == 1
        assert cli_analysis._scoring_workers(2 * cli_analysis.MIN_PAIRS_PER_WORKER - 1) == 1

    def test_one_worker_per_usable_core_with_enough_pairs_each(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        least = cli_analysis.MIN_PAIRS_PER_WORKER
        assert cli_analysis._scoring_workers(3 * least) == 3
        assert cli_analysis._scoring_workers(100 * least) == 4
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert cli_analysis._scoring_workers(100 * least) == 1

    def test_no_fork_without_fork_or_affinity_or_beside_another_thread(self, tmp_path,
                                                                       monkeypatch):
        # The mini test set's 60 pairs, sized for two processes.
        monkeypatch.setattr(cli_analysis, "MIN_PAIRS_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(threading, "active_count", lambda: 1)  # not the test run's servers
        real_fork, forks, reports = os.fork, [], set()

        def fork():
            forks.append(os.getpid())
            return real_fork()

        def forks_of_a_report_split() -> int:
            del forks[:]
            out = tmp_path / "report.json"
            assert run(*_report_split_argv(tmp_path, out)) == 0
            reports.add(out.read_bytes())
            return len(forks)

        monkeypatch.setattr(os, "fork", fork)
        assert forks_of_a_report_split() == 1
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert forks_of_a_report_split() == 0
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert forks_of_a_report_split() == 0
        monkeypatch.delattr(os, "fork")
        assert forks_of_a_report_split() == 0
        assert len(reports) == 1

    def test_report_and_table_are_byte_identical_at_every_worker_count(
            self, tmp_path, capsys, monkeypatch):
        seen = set()
        for workers in (1, 2, 3, 25):
            monkeypatch.setattr(cli_analysis, "_scoring_workers", lambda pairs: workers)
            out = tmp_path / f"report{workers}.json"
            assert run(*_report_split_argv(tmp_path, out)) == 0
            seen.add((out.read_bytes(), capsys.readouterr().err))
        assert len(seen) == 1
        report, table = seen.pop()
        assert json.loads(report)["perfect"]["split_scores"]["full"]["score"] == 100.0
        assert table.splitlines()[0].split() == ["system", "full", "orig-de", "orig-en"]

    def test_a_data_error_in_a_worker_is_exit_2(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def stats(hyp_tokens, ref_tokens):
            if os.getpid() != parent:
                raise DataError("worker saw a bad line")
            return ngram_stats(hyp_tokens, ref_tokens)

        monkeypatch.setattr(cli_analysis, "_scoring_workers", lambda pairs: 2)
        monkeypatch.setattr(analysis, "ngram_stats", stats)
        out = tmp_path / "report.json"
        assert run(*_report_split_argv(tmp_path, out)) == 2
        assert capsys.readouterr().err == "data error: worker saw a bad line\n"
        assert not out.exists()

    def test_a_killed_worker_names_its_range_without_a_traceback(self, tmp_path, capsys,
                                                                 monkeypatch):
        parent = os.getpid()

        def stats(hyp_tokens, ref_tokens):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return ngram_stats(hyp_tokens, ref_tokens)

        monkeypatch.setattr(cli_analysis, "_scoring_workers", lambda pairs: 2)
        monkeypatch.setattr(analysis, "ngram_stats", stats)
        out = tmp_path / "report.json"
        assert run(*_report_split_argv(tmp_path, out)) == 2
        assert capsys.readouterr().err == (
            "data error: scoring worker for segments 10..19 ended without a result "
            "(killed by SIGKILL)\n")
        assert not out.exists()


class TestCliMisc:
    def test_version(self, capsys):
        assert run("--version") == 0
        assert "rtt-ape" in capsys.readouterr().out

    def test_help_lists_every_subcommand_with_its_short_help(self, capsys):
        assert run("--help") == 0
        listing = capsys.readouterr().out.split("Commands:\n", 1)[1].splitlines()
        rows = dict(line.split(None, 1) for line in listing)
        assert list(rows) == sorted(SUBCOMMANDS)
        for name, short in rows.items():
            first_line = cli.get_command(click.Context(cli), name).help.split("\n")[0]
            assert first_line.startswith(short.removesuffix("...")), name

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_every_map_entry_builds_its_command(self, name):
        command = cli.get_command(click.Context(cli), name)
        assert isinstance(command, click.Command)
        assert command.name == name
        assert command.help

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run("vocab", "--wat") == 1


def _option_default(command: str, name: str):
    params = cli.get_command(click.Context(cli), command).params
    return next(p.default for p in params if p.name == name)


def _parameter_default(function, name: str):
    return inspect.signature(function).parameters[name].default


# (subcommand, option, the library default it repeats in --help and manifests)
MIRRORED_DEFAULTS = [
    *((command, name, getattr(FilterConfig(), name))
      for command in ("filter-mono", "rtt-gen") for name in ("max_chars", "max_tokens")),
    *((command, "bitext_max_tokens", FilterConfig().bitext_max_tokens)
      for command in ("filter-bitext", "make-pairs")),
    *((command, "max_ratio", FilterConfig().max_len_ratio)
      for command in ("filter-bitext", "make-pairs")),
    ("ape-apply", "scope", ApeMode().scope),
    ("ape-apply", "iterations", ApeMode().iterations),
    ("make-pairs", "direction", _parameter_default(make_training_pairs, "direction")),
    ("rtt-gen", "filter_sides", _parameter_default(iter_rtt, "filter_sides")),
    ("rtt-gen", "jobs", _parameter_default(iter_rtt, "jobs")),
    ("vocab", "tokenizer", _parameter_default(vocab_size, "tokenizer")),
    ("humaneval-make", "raters", _parameter_default(humaneval_make_tasks, "raters_per_item")),
    ("humaneval-make", "seed", _parameter_default(humaneval_make_tasks, "seed")),
    *((command, "lang", BleuConfig().lang_pair) for command in ("bleu", "report-rtt")),
    *((command, "set_name", BleuConfig().test_set) for command in ("bleu", "report-rtt")),
]


@pytest.mark.parametrize("command, name, library", MIRRORED_DEFAULTS)
def test_cli_default_equals_the_library_default(command, name, library):
    """The options spell their defaults out, for --help and manifests, so
    each must stay what the library would use without it."""
    assert _option_default(command, name) == library


def make_command_inputs(d: Path) -> None:
    """Input files for one flags-only run of every subcommand, under ``d``."""
    for name in ("src", "ref"):
        (d / f"{name}.sgm").write_bytes((DATA / f"mini_ende_{name}.sgm").read_bytes())
    write(d / "hyp.txt", ["der hund läuft schnell weg", "die katze schläft tief"])
    write(d / "ref.txt", ["der hund läuft schnell weg", "die katze schläft fest"])
    write(d / "origins.txt", ["de", "en"])
    write(d / "mono.txt", ["guten tag", "wie geht es", "guten tag", "x" * 600])
    write(d / "pairs.tsv", ["guten tag\tguten tag", "wie geht es\twie es geht"])
    write(d / "base.txt", [f"satz {i}" for i in range(20)])
    write(d / "ape.txt", [f"satz {i} neu" for i in range(20)])
    (d / "split.json").write_text(json.dumps({"source_original": [1], "target_original": [0]}))
    write(d / "items.tsv", ["src a\tout a\tbase", "src b\tout b\tape"])
    tasks = humaneval_make_tasks([("src a", "out a", "base"), ("src b", "out b", "ape")], 2)
    write(d / "done.tsv", [
        line.replace("\t\t", "\t4\t", 1).replace("\t\t", "\t0\t", 1) for line in tasks.splitlines()
    ])


# subcommand: (flags, config keys, input files).  The manifest sits next to
# --out-src, else --out.
COMMAND_CASES = {
    "parse-sgm": ("--sgm {d}/src.sgm --labels-out {d}/labels.txt --out {d}/out.txt",
                  {"sgm", "side", "out_format", "labels_out", "out"}, ["src.sgm"]),
    "split": ("--text {d}/hyp.txt --origins {d}/origins.txt --src en --tgt de --out {d}/out.json",
              {"sgm", "text", "origins", "src", "tgt", "name", "out"}, ["hyp.txt", "origins.txt"]),
    "merge": ("--base {d}/hyp.txt --edited {d}/ref.txt --split {d}/split.json --out {d}/out.txt",
              {"base", "edited", "split_path", "mode", "out"},
              ["hyp.txt", "ref.txt", "split.json"]),
    "bleu": ("--hyp {d}/hyp.txt --ref {d}/ref.txt --lang en-de --out {d}/out.json",
             {"hyp", "ref", "lang", "set_name", "out"}, ["hyp.txt", "ref.txt"]),
    "filter-mono": ("--in {d}/mono.txt --report {d}/report.json --out {d}/out.txt",
                    {"in_path", "max_chars", "max_tokens", "report_path", "out"}, ["mono.txt"]),
    "filter-bitext": ("--src {d}/hyp.txt --tgt {d}/ref.txt --out-src {d}/out.src "
                      "--out-tgt {d}/out.tgt --report {d}/report.json",
                      {"src_path", "tgt_path", "tsv_path", "out_src", "out_tgt", "out",
                       "bitext_max_tokens", "max_ratio", "report_path"}, ["hyp.txt", "ref.txt"]),
    "dedup": ("--in {d}/mono.txt --out {d}/out.txt",
              {"in_path", "exact", "report_path", "out"}, ["mono.txt"]),
    "sample": ("--in {d}/mono.txt --n 2 --seed 1 --out {d}/out.txt",
               {"in_path", "n", "seed", "out"}, ["mono.txt"]),
    "rtt-gen": ("--in {d}/mono.txt --to-pivot identity --from-pivot identity "
                "--intermediate {d}/pivot.txt --out {d}/out.tsv",
                {"in_path", "to_pivot", "from_pivot", "max_chars", "max_tokens", "filter_sides",
                 "intermediate", "jobs", "cache_dir", "out"}, ["mono.txt"]),
    "make-pairs": ("--in {d}/pairs.tsv --out-src {d}/out.src --out-tgt {d}/out.tgt",
                   {"in_path", "direction", "out_src", "out_tgt", "out", "bitext_max_tokens",
                    "max_ratio"}, ["pairs.tsv"]),
    "ape-apply": ("--in {d}/hyp.txt --backend identity --scope target_original_only "
                  "--split {d}/split.json --report {d}/report.json --out {d}/out.txt",
                  {"in_path", "backend", "scope", "iterations", "split_path", "report_path",
                   "jobs", "cache_dir", "out"}, ["hyp.txt", "split.json"]),
    "report-rtt": ("--original {d}/hyp.txt --roundtrip {d}/ref.txt --out {d}/out.json",
                   {"original", "roundtrip", "lang", "set_name", "out"}, ["hyp.txt", "ref.txt"]),
    "report-split": ("--src-sgm {d}/src.sgm --ref-sgm {d}/ref.sgm --src en --tgt de "
                     "--hyp base={d}/base.txt --hyp ape={d}/ape.txt --out {d}/out.json",
                     {"src_sgm", "ref_sgm", "ref_text", "origins", "src", "tgt", "name",
                      "hyp_specs", "table", "out"}, ["src.sgm", "ref.sgm", "base.txt", "ape.txt"]),
    "vocab": ("--in {d}/mono.txt --out {d}/out.json",
              {"in_path", "tokenizer", "out"}, ["mono.txt"]),
    "humaneval-make": ("--items {d}/items.tsv --seed 2 --out {d}/out.tsv",
                       {"items", "raters", "seed", "out"}, ["items.tsv"]),
    "humaneval-agg": ("--tasks {d}/done.tsv --out {d}/out.json",
                      {"tasks", "allow_partial", "out"}, ["done.tsv"]),
}


class TestManifests:
    def test_every_subcommand_has_a_case(self):
        assert set(COMMAND_CASES) == set(cli.list_commands(click.Context(cli)))

    @pytest.mark.parametrize("command", sorted(COMMAND_CASES))
    def test_manifest_keys(self, command, tmp_path, monkeypatch):
        monkeypatch.delenv("RTT_APE_CACHE", raising=False)
        make_command_inputs(tmp_path)
        flags, config_keys, inputs = COMMAND_CASES[command]
        argv = flags.format(d=tmp_path).split()
        assert run(command, *argv) == 0
        out = argv[argv.index("--out-src" if "--out-src" in argv else "--out") + 1]
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert set(manifest) == {
            "tool", "version", "subcommand", "config", "inputs", "seed", "started", "finished",
        }
        assert manifest["subcommand"] == command
        assert set(manifest["config"]) == config_keys
        assert set(manifest["inputs"]) == {str(tmp_path / name) for name in inputs}
        assert manifest["seed"] == manifest["config"].get("seed")

    @pytest.mark.parametrize("command, flags, specs", [
        ("rtt-gen", "--in {d}/mono.txt --to-pivot {d}/de-en.json --from-pivot identity "
                    "--out {d}/out.tsv", ["de-en.json"]),
        ("rtt-gen", "--in {d}/mono.txt --to-pivot {d}/de-en.json --from-pivot {d}/en-de.json "
                    "--out {d}/out.tsv", ["de-en.json", "en-de.json"]),
        ("ape-apply", "--in {d}/hyp.txt --backend {d}/ape.json --out {d}/out.txt", ["ape.json"]),
    ])
    def test_backend_spec_files_are_inputs(self, command, flags, specs, tmp_path, monkeypatch):
        monkeypatch.delenv("RTT_APE_CACHE", raising=False)
        make_command_inputs(tmp_path)
        for name in ("de-en.json", "en-de.json", "ape.json"):
            _spec_file(tmp_path / name, {"kind": "identity"})
        argv = flags.format(d=tmp_path).split()
        assert run(command, *argv) == 0
        out = argv[argv.index("--out") + 1]
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        inputs = ["hyp.txt" if command == "ape-apply" else "mono.txt", *specs]
        assert set(manifest["inputs"]) == {str(tmp_path / name) for name in inputs}


class TestConfigFile:
    """--config values go through the options' own click types."""

    @pytest.fixture()
    def config(self, tmp_path):
        def make(obj) -> str:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(obj))
            return str(path)

        return make

    @pytest.mark.parametrize("command, section, argv", [
        ("filter-mono", {"max_chars": "abc"}, ["--in", "{mono}"]),
        ("parse-sgm", {"out_format": "xml"}, ["--sgm", str(DATA / "mini_ende_src.sgm")]),
        ("ape-apply", {"jobs": "two"}, ["--in", "{mono}", "--backend", "identity"]),
        ("bleu", {"hyp": "{missing}"}, ["--ref", "{mono}"]),
    ])
    def test_bad_value_is_usage_error(self, config, tmp_path, capsys, command, section, argv):
        mono = tmp_path / "mono.txt"
        write(mono, ["ein satz"])
        paths = {"mono": mono, "missing": tmp_path / "missing.txt"}
        section = {k: v.format(**paths) for k, v in section.items()}
        argv = [a.format(**paths) for a in argv]
        out = tmp_path / "out.txt"
        assert run("--config", config({command: section}), command, *argv, "--out", str(out)) == 1
        assert "Invalid value for" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [("iterations", "2"), ("jobs", "2")])
    def test_string_number_works_like_the_flag(self, config, tmp_path, denoiser_spec,
                                                name, value):
        hyp = tmp_path / "hyp.txt"
        write(hyp, ["Obama erhält Netanjahu", "Obama sagt"])
        by_flag, by_config = tmp_path / "flag.txt", tmp_path / "config.txt"
        common = ["ape-apply", "--in", str(hyp), "--backend", str(denoiser_spec)]
        assert run(*common, f"--{name}", value, "--out", str(by_flag)) == 0
        assert run("--config", config({"ape-apply": {name: value}}), *common,
                   "--out", str(by_config)) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()
        manifests = [json.loads(Path(f"{p}.manifest.json").read_text())["config"]
                     for p in (by_flag, by_config)]
        assert manifests[0][name] == manifests[1][name] == 2

    @pytest.mark.parametrize("config_obj, offender", [
        ({"ape-aply": {"iterations": 2}}, "no subcommand 'ape-aply'"),
        ({"dedup": {"exactt": True}}, "dedup has no parameter 'exactt'"),
    ])
    def test_misspelled_section_or_key_is_usage_error(self, config, tmp_path, capsys,
                                                      config_obj, offender):
        mono = tmp_path / "mono.txt"
        write(mono, ["ein satz", "ein satz"])
        out = tmp_path / "out.txt"
        path = config(config_obj)
        assert run("--config", path, "dedup", "--in", str(mono), "--out", str(out)) == 1
        assert f"bad config file {path!r}: {offender}" in capsys.readouterr().err
        assert not out.exists()

    def test_sections_of_several_subcommands(self, config, tmp_path):
        mono = tmp_path / "mono.txt"
        write(mono, ["ein satz", "ein satz", "zwei"])
        out = tmp_path / "out.txt"
        path = config({"dedup": {"exact": True}, "bleu": {"set_name": "x"},
                       "ape-apply": {"iterations": 2}})
        assert run("--config", path, "dedup", "--in", str(mono), "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == "ein satz\nzwei\n"
        assert json.loads(Path(f"{out}.manifest.json").read_text())["config"]["exact"] is True

    @pytest.mark.parametrize("text", ["[1, 2]", '{"bleu": 3}', "{"])
    def test_config_not_an_object_of_objects_is_data_error(self, tmp_path, corpus_files,
                                                            capsys, text):
        hyp, ref = corpus_files
        path = str(tmp_path / "cfg.json")
        Path(path).write_text(text)
        assert run("--config", path, "bleu", "--hyp", str(hyp), "--ref", str(ref)) == 2
        err = capsys.readouterr().err
        assert f"bad config file {path!r}" in err
        assert "Traceback" not in err


class TestAtomicWholeTextOutputs:
    """An output that fails to encode leaves a previous file untouched."""

    @pytest.mark.parametrize("command", ["bleu", "report-split"])
    def test_unencodable_output_keeps_old_file(self, tmp_path, capsys, command):
        hyp = tmp_path / "hyp.txt"
        with open(DATA / "mini_ende_ref.sgm", "rb") as fh:
            write(hyp, [seg.text for seg in parse_sgm(fh)])
        out = tmp_path / "score.json"
        out.write_text('{"old": true}\n')
        before = sorted(p.name for p in tmp_path.iterdir())
        # A non-UTF-8 argv byte (b"\xff") arrives as a lone surrogate.
        name = "news\udcff"
        if command == "bleu":
            argv = ["bleu", "--hyp", str(hyp), "--ref", str(hyp), "--set", name]
        else:
            argv = ["report-split", "--src-sgm", str(DATA / "mini_ende_src.sgm"),
                    "--ref-sgm", str(DATA / "mini_ende_ref.sgm"), "--src", "en", "--tgt", "de",
                    "--name", name, "--hyp", f"base={hyp}"]
        assert run(*argv, "--out", str(out)) == 2
        assert "data error" in capsys.readouterr().err
        assert out.read_bytes() == b'{"old": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestFilterBitextStreaming:
    @pytest.mark.parametrize("n_src, n_tgt", [(3, 2), (2, 3)])
    def test_line_count_mismatch_leaves_no_output(self, tmp_path, capsys, n_src, n_tgt):
        src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
        write(src, [f"satz {i}" for i in range(n_src)])
        write(tgt, [f"sentence {i}" for i in range(n_tgt)])
        assert run("filter-bitext", "--src", str(src), "--tgt", str(tgt),
                   "--out-src", str(tmp_path / "o.src"), "--out-tgt", str(tmp_path / "o.tgt"),
                   "--report", str(tmp_path / "report.json")) == 2
        assert capsys.readouterr().err == (
            f"data error: line count mismatch: {n_src} in {src} vs {n_tgt} in {tgt}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.txt", "t.txt"]

    def test_memory_does_not_grow_with_the_corpus(self, tmp_path):
        # Lines of ~1 kB, so that both sizes exceed the 1 MiB block in which
        # the manifest fingerprints each input.
        padding = " " + "straße" * 170

        def peak(n):
            d = tmp_path / str(n)
            d.mkdir()
            write(d / "s.txt", (f"satz {i}{padding}" for i in range(n)))
            write(d / "t.txt", (f"sentence {i}{padding}" for i in range(n)))
            gc.collect()
            tracemalloc.start()
            try:
                assert run("filter-bitext", "--src", str(d / "s.txt"), "--tgt", str(d / "t.txt"),
                           "--out-src", str(d / "o.src"), "--out-tgt", str(d / "o.tgt"),
                           "--report", str(d / "report.json")) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first run: imports and lazy module state
        small, large = peak(1000), peak(8000)
        assert (d := tmp_path / "8000" / "o.src").read_text().count("\n") == 8000, d
        assert large <= 1.5 * small, (small, large)


# Lines that a terminal-oriented writer would alter: an ANSI escape, which
# click.echo strips when stdout is not a terminal, breaks that
# str.splitlines() knows, a carriage return inside a line, and characters
# outside the Basic Multilingual Plane.
FRAGILE = [
    "das \x1b[31mrote\x1b[0m haus steht dort",
    "erste zeile\u2028zweite zeile",
    "vor\x85nach dem umbruch",
    "wagen\rruecklauf im satz",
    "ein \U0001f600 und \U0001d11e hier",
]


def _fragile_inputs(d: Path) -> None:
    write(d / "lines.txt", [*FRAGILE, FRAGILE[0]])
    write(d / "hyp.txt", FRAGILE)
    write(d / "ref.txt", FRAGILE[::-1])
    write(d / "origins.txt", ["de", "en", "de", "en", "fr"])
    write(d / "pairs.tsv", [f"{a}\t{b}" for a, b in zip(FRAGILE, FRAGILE[::-1])])
    write(d / "items.tsv", [f"{a}\t{b}\tbase" for a, b in zip(FRAGILE, FRAGILE[::-1])])
    (d / "split.json").write_text(json.dumps({"source_original": [1, 3],
                                              "target_original": [0, 2]}))
    segs = "".join(f'<seg id="{i}">{line}</seg>\n' for i, line in enumerate(FRAGILE, 1))
    (d / "set.sgm").write_bytes(('<srcset setid="s" srclang="en" trglang="de">\n'
                                 f'<doc docid="d" origlang="de">\n{segs}</doc>\n</srcset>\n'
                                 ).encode("utf-8"))
    tasks = humaneval_make_tasks([(line, line, "base") for line in FRAGILE], 2)
    write(d / "done.tsv", [line.replace("\t\t", "\t4\t", 1).replace("\t\t", "\t0\t", 1)
                           for line in tasks.split("\n")[:-1]])


# Every subcommand that writes data to stdout when it has no --out.
STDOUT_CASES = {
    "parse-sgm text": "parse-sgm --sgm {d}/set.sgm --format text",
    "parse-sgm tsv": "parse-sgm --sgm {d}/set.sgm --format tsv",
    "parse-sgm json": "parse-sgm --sgm {d}/set.sgm --format json",
    "parse-sgm sgm": "parse-sgm --sgm {d}/set.sgm --format sgm",
    "split": "split --sgm {d}/set.sgm --src en --tgt de",
    "merge": "merge --base {d}/hyp.txt --edited {d}/ref.txt --split {d}/split.json",
    "filter-mono": "filter-mono --in {d}/lines.txt --report {d}/report.json",
    "filter-bitext": "filter-bitext --tsv {d}/pairs.tsv --report {d}/report.json",
    "dedup": "dedup --in {d}/lines.txt --report {d}/report.json",
    "sample": "sample --in {d}/lines.txt --n 4 --seed 2",
    "rtt-gen": "rtt-gen --in {d}/lines.txt --to-pivot identity --from-pivot identity",
    "make-pairs": "make-pairs --in {d}/pairs.tsv",
    "ape-apply": "ape-apply --in {d}/hyp.txt --backend identity --report {d}/report.json",
    "bleu": "bleu --hyp {d}/hyp.txt --ref {d}/ref.txt",
    "report-rtt": "report-rtt --original {d}/hyp.txt --roundtrip {d}/ref.txt",
    "report-split": "report-split --ref-text {d}/ref.txt --origins {d}/origins.txt --src en "
                    "--tgt de --hyp a={d}/hyp.txt",
    "vocab": "vocab --in {d}/lines.txt",
    "humaneval-make": "humaneval-make --items {d}/items.tsv",
    "humaneval-agg": "humaneval-agg --tasks {d}/done.tsv",
}


class TestStdoutEqualsOut:
    def test_every_subcommand_has_a_case(self):
        assert {case.split()[0] for case in STDOUT_CASES} == set(SUBCOMMANDS)

    @pytest.mark.parametrize("case", sorted(STDOUT_CASES))
    def test_stdout_holds_the_bytes_of_out(self, case, tmp_path, capsysbinary, monkeypatch):
        monkeypatch.delenv("RTT_APE_CACHE", raising=False)
        _fragile_inputs(tmp_path)
        argv = STDOUT_CASES[case].format(d=tmp_path).split()
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 0
        capsysbinary.readouterr()
        assert run(*argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes() != b""

    def test_lines_printed_before_a_failure_stay_printed(self, tmp_path, capsysbinary):
        write(tmp_path / "lines.txt", [*FRAGILE, "kein\ttab erlaubt", "danach"])
        assert run("rtt-gen", "--in", str(tmp_path / "lines.txt"), "--to-pivot", "identity",
                   "--from-pivot", "identity") == 2
        printed = capsysbinary.readouterr()
        assert printed.out == "".join(f"{x}\t{x}\n" for x in FRAGILE).encode("utf-8")
        assert printed.err.decode("utf-8") == (
            f"data error: {tmp_path / 'lines.txt'}:6: original contains a tab, "
            "which a tab-separated row cannot hold\n")


class TestFraming:
    """A segment that a line or a TSV row cannot hold is a data error naming
    the output and its line, and the output is not written."""

    @pytest.mark.parametrize("fmt, text, message", [
        ("text", "c\nd", "{out}:2: line contains a newline, which a line file cannot hold"),
        ("tsv", "a\tb", "{out}:2: text contains a tab, which a tab-separated row cannot hold"),
        ("tsv", "c\nd", "{out}:2: text contains a newline, "
                        "which a tab-separated row cannot hold"),
    ])
    def test_parse_sgm_segment_the_format_cannot_hold(self, tmp_path, capsys, fmt, text,
                                                     message):
        sgm = tmp_path / "in.sgm"
        sgm.write_text(f'<srcset><doc docid="d"><seg id="1">ok</seg><seg id="2">{text}</seg>'
                       '</doc></srcset>', encoding="utf-8")
        out = tmp_path / "out.txt"
        assert run("parse-sgm", "--sgm", str(sgm), "--format", fmt, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"data error: {message.format(out=out)}\n"
        assert not out.exists()
        assert run("parse-sgm", "--sgm", str(sgm), "--format", fmt) == 2
        printed = capsys.readouterr()
        assert printed.out == ("ok\n" if fmt == "text" else "d\t1\tunknown\tok\n")
        assert printed.err == f"data error: {message.format(out='<stdout>')}\n"


class TestLengthChecksNameTheFiles:
    @pytest.fixture()
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "two.txt", ["eins zwei", "drei vier"])
        write(tmp_path / "one.txt", ["eins zwei"])
        write(tmp_path / "origins.txt", ["de", "en"])
        (tmp_path / "split.json").write_text('{"source_original": [0], "target_original": [1]}')

    @pytest.mark.parametrize("argv, message", [
        ("report-rtt --original two.txt --roundtrip one.txt",
         "line count mismatch: 2 in two.txt vs 1 in one.txt"),
        ("merge --base two.txt --edited one.txt --split split.json",
         "line count mismatch: 2 in two.txt vs 1 in one.txt"),
        ("merge --base one.txt --edited two.txt --split split.json",
         "line count mismatch: 1 in one.txt vs 2 in two.txt"),
        ("report-split --ref-text two.txt --origins origins.txt --src en --tgt de "
         "--hyp x=two.txt --hyp y=one.txt",
         "line count mismatch: 1 in one.txt vs 2 segments in two.txt"),
        ("split --text two.txt --origins one.txt --src en --tgt de",
         "line count mismatch: 2 in two.txt vs 1 in one.txt"),
        ("report-split --ref-text one.txt --origins origins.txt --src en --tgt de "
         "--hyp x=one.txt", "line count mismatch: 1 in one.txt vs 2 in origins.txt"),
    ])
    def test_mismatch_names_both_files(self, files, capsys, argv, message):
        assert run(*argv.split(), "--out", "out.txt") == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not Path("out.txt").exists()

    def test_report_split_names_the_reference_sgm(self, tmp_path, capsys):
        write(tmp_path / "one.txt", ["eins"])
        ref = DATA / "mini_ende_ref.sgm"
        assert run("report-split", "--src-sgm", str(DATA / "mini_ende_src.sgm"), "--ref-sgm",
                   str(ref), "--src", "en", "--tgt", "de", "--hyp",
                   f"x={tmp_path / 'one.txt'}") == 2
        assert capsys.readouterr().err == (
            f"data error: line count mismatch: 1 in {tmp_path / 'one.txt'} "
            f"vs 20 segments in {ref}\n")


def _entry_case(command: str, d: Path) -> tuple[list[str], list[str]]:
    """Write the inputs of one run of ``command`` under ``d``: its argv, and
    the outputs it writes, as paths relative to ``d``.  Given two usable
    cores, report-split scores in a forked worker and rtt-gen translates
    every other chunk in one."""
    rng = random.Random(7)
    if command == "ape-apply":
        write(d / "hyp.txt", [f"satz {i} erhält es" for i in range(40)])
        (d / "split.json").write_text(json.dumps(
            {"source_original": list(range(0, 40, 2)), "target_original": list(range(1, 40, 2))}))
        _spec_file(d / "den.json", {"kind": "toy_denoiser", "from_lang": "de", "to_lang": "de",
                                    "channel": {"lexicon": {"erhält": "empfängt"}}})
        return (["ape-apply", "--in", "hyp.txt", "--backend", "den.json", "--scope",
                 "target_original_only", "--split", "split.json", "--report", "ape.report.json",
                 "--out", "ape.txt"], ["ape.txt", "ape.report.json"])
    if command == "report-split":
        refs, worse = random_parallel_corpus(rng, cli_analysis.MIN_PAIRS_PER_WORKER)
        write(d / "ref.txt", refs)
        write(d / "worse.txt", worse)
        write(d / "origins.txt", ["de", "en"] * (len(refs) // 2))
        return (["report-split", "--ref-text", "ref.txt", "--origins", "origins.txt", "--src",
                 "en", "--tgt", "de", "--hyp", "ref=ref.txt", "--hyp", "worse=worse.txt",
                 "--table", "--out", "report.json"], ["report.json"])
    write(d / "mono.txt", [random_sentence(rng, 3, 8) for _ in range(100)])
    _spec_file(d / "to_en.json", {"kind": "toy_channel", "from_lang": "de", "to_lang": "en",
                                  "batch_size": 4, "channel": {"drop_prob": 0.2, "seed": 3}})
    _spec_file(d / "cat.json", {"kind": "command", "command": "cat", "from_lang": "en",
                                "to_lang": "de", "batch_size": 4})
    return (["rtt-gen", "--in", "mono.txt", "--to-pivot", "to_en.json", "--from-pivot",
             "cat.json", "--jobs", "2", "--cache-dir", "cache", "--out", "rtt.tsv"],
            ["rtt.tsv", "cache"])


# Run in a fresh interpreter: ``sys.exit(main())`` on its own command line,
# with two usable cores, recording at exit its forks and how many objects
# it froze (Python 3.12 starts with some frozen).
_ENTRY = """\
import atexit, gc, json, os, sys
record, sys.argv, frozen = sys.argv[1], ["rtt-ape", *sys.argv[2:]], gc.get_freeze_count()
forks, fork = [], os.fork
os.fork = lambda: forks.append(fork()) or forks[-1]
os.sched_getaffinity = lambda pid: {0, 1}
atexit.register(lambda: open(record, "w").write(
    json.dumps([gc.get_freeze_count() - frozen, len(forks)])))
from rtt_ape.cli import main
sys.exit(main())
"""


def _session_members(sid: int) -> list[int] | None:
    """The processes of session ``sid``, from ``/proc`` (``None`` without it)."""
    if not os.path.isdir("/proc/self"):
        return None
    members = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        with contextlib.suppress(OSError):  # a process that has just ended
            with open(stat) as fh:
                if int(fh.read().rsplit(")", 1)[1].split()[3]) == sid:
                    members.append(int(stat.split("/")[2]))
    return members


class TestProcessEntry:
    """Only ``main()`` without ``argv`` freezes the start-up heap
    (``gc.freeze``), and a frozen run writes the same bytes."""

    @pytest.mark.parametrize("command", ["ape-apply", "report-split", "rtt-gen"])
    def test_a_fresh_process_freezes_and_writes_what_main_with_argv_writes(
            self, command, tmp_path, monkeypatch):
        monkeypatch.delenv("RTT_APE_CACHE", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_process, fresh = tmp_path / "in_process", tmp_path / "fresh"
        in_process.mkdir()
        fresh.mkdir()
        argv, outputs = _entry_case(command, in_process)
        monkeypatch.chdir(in_process)
        frozen = gc.get_freeze_count()  # 0, but some hundreds on Python 3.12
        assert main(argv) == 0
        assert gc.get_freeze_count() == frozen

        assert _entry_case(command, fresh) == (argv, outputs)
        record = tmp_path / "record.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        with subprocess.Popen([sys.executable, "-c", _ENTRY, str(record), *argv], cwd=fresh,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert not _session_members(proc.pid)  # no process left behind
        newly_frozen, forks = json.loads(record.read_text())
        assert newly_frozen > 0
        assert forks == (0 if command == "ape-apply" else 1)

        compared = [f"{outputs[0]}.manifest.json", *outputs]
        assert [golden.compared(fresh / name) for name in compared] == (
            [golden.compared(in_process / name) for name in compared])
        assert (in_process / outputs[0]).stat().st_size > 0
