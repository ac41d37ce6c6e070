"""CLI surface: flags, exit codes, JSON output, manifests, composition."""

import json
from pathlib import Path

import pytest

from rtt_ape.cli import main

DATA = Path(__file__).parent / "data"


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


class TestCliMisc:
    def test_version(self, capsys):
        assert run("--version") == 0
        assert "rtt-ape" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run("vocab", "--wat") == 1
