"""Vocabulary counting, round-trip quality reports, split score tables, and
human-evaluation task files."""

import functools
import json
import math
import operator
import os
import random
import signal
import time

import pytest
from conftest import perturb_sentence, random_sentence

from rtt_ape import analysis
from rtt_ape.analysis import (
    ACCURACY_QUESTION,
    FLUENCY_QUESTION,
    AnalysisReport,
    format_ratings,
    humaneval_aggregate,
    humaneval_make_tasks,
    render_split_table,
    rtt_quality_report,
    split_score_table,
    vocab_size,
)
from rtt_ape.errors import DataError
from rtt_ape.scoring import BleuConfig, NgramStats, corpus_bleu, corpus_stats, ngram_stats
from rtt_ape.testset import Segment, TestSet


class TestVocabSize:
    def test_basic(self):
        assert vocab_size(["a b", "b c"]) == 3

    def test_empty(self):
        assert vocab_size([]) == 0

    def test_case_sensitive(self):
        assert vocab_size(["Haus haus"]) == 2

    def test_order_and_dedup_invariant(self):
        lines = ["a b c", "c b a", "a b c"]
        assert vocab_size(lines) == vocab_size(sorted(set(lines))) == 3

    def test_intl_tokenizer_option(self):
        assert vocab_size(["end."], tokenizer="whitespace") == 1
        assert vocab_size(["end."], tokenizer="intl") == 2


class TestRttQualityReport:
    def test_identity(self):
        lines = ["eins zwei drei vier fünf", "sechs sieben acht neun"]
        report = rtt_quality_report(lines, list(lines))
        assert report.rtt_bleu.score == 100.0
        assert report.precision_breakdown == (100.0, 100.0, 100.0, 100.0)
        assert report.vocab_sizes["original"] == report.vocab_sizes["round_trip"] == 9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rtt_quality_report(["a"], ["a", "b"])

    def test_precisions_within_range(self):
        rng = random.Random(8)
        originals = [" ".join(rng.choices("a b c d e f g".split(), k=10)) for _ in range(50)]
        round_trips = [" ".join(rng.choices("a b c d e f g".split(), k=9)) for _ in range(50)]
        report = rtt_quality_report(originals, round_trips)
        assert all(0.0 <= p <= 100.0 for p in report.precision_breakdown)


def _bias_testset():
    origins = ["de", "en", "de", "en", "cs"]
    refs = [
        "der hund läuft schnell nach hause",
        "die katze schläft auf dem sofa",
        "das kind spielt im garten heute",
        "der mann liest eine lange zeitung",
        "die frau trinkt einen heißen kaffee",
    ]
    source = [
        Segment(str(i + 1), "d", origins[i], f"source {i}") for i in range(5)
    ]
    reference = [
        Segment(str(i + 1), "d", origins[i], refs[i]) for i in range(5)
    ]
    return TestSet("mini", "en", "de", source, reference), refs


class TestSplitScoreTable:
    def test_perfect_hypothesis_scores_100_everywhere(self):
        ts, refs = _bias_testset()
        table = split_score_table(ts, {"perfect": refs})
        scores = table["perfect"].split_scores
        assert scores["full"].score == 100.0
        assert scores["source_original"].score == 100.0
        assert scores["target_original"].score == 100.0

    def test_unknown_origin_counted_and_excluded_from_halves(self):
        ts, refs = _bias_testset()
        table = split_score_table(ts, {"sys": refs})
        meta = table["sys"].metadata
        assert meta["unknown_origin"] == 1
        assert meta["counts"] == {"full": 5, "source_original": 2, "target_original": 2}

    def test_full_stats_are_sum_of_halves_plus_unknown(self):
        ts, refs = _bias_testset()
        hyp = [r.replace("der", "die") for r in refs]
        groups = {
            "full": range(5),
            "halves+unknown": [0, 2, 1, 3, 4],
        }
        stats = {}
        for name, indices in groups.items():
            stats[name] = corpus_stats((hyp[i], refs[i]) for i in indices)
        assert stats["full"].match == stats["halves+unknown"].match
        assert stats["full"].total == stats["halves+unknown"].total

    def test_two_labels(self):
        ts, refs = _bias_testset()
        worse = ["x y z"] * 5
        table = split_score_table(ts, {"good": refs, "bad": worse})
        assert table["good"].split_scores["full"].score > table["bad"].split_scores["full"].score

    def test_length_mismatch_is_error(self):
        ts, refs = _bias_testset()
        with pytest.raises(ValueError):
            split_score_table(ts, {"sys": refs[:-1]})

    def test_render(self):
        ts, refs = _bias_testset()
        table = split_score_table(ts, {"perfect": refs})
        rendered = render_split_table(table, ts)
        assert "orig-de" in rendered and "orig-en" in rendered
        assert "100.0" in rendered


def _documents_testset():
    """Eleven segments in three documents (four, five and two segments),
    with source-original, target-original and unknown-origin segments, so
    that two or three ranges cut documents in the middle."""
    docs = ["a"] * 4 + ["b"] * 5 + ["c"] * 2
    origins = ["de", "en", "en", "cs", "de", "de", "en", "unknown", "de", "en", "de"]
    rng = random.Random(11)
    refs = [random_sentence(rng) for _ in docs]
    source = [Segment(str(i + 1), doc, origin, f"source {i}")
              for i, (doc, origin) in enumerate(zip(docs, origins))]
    reference = [Segment(str(i + 1), doc, origin, ref)
                 for i, (doc, origin, ref) in enumerate(zip(docs, origins, refs))]
    return TestSet("docs", "en", "de", source, reference), refs


def _single_half_testset():
    """Every segment target-original, so the source-original half is empty."""
    ts, refs = _documents_testset()
    source, reference = ([Segment(s.seg_id, s.doc_id, "de", s.text) for s in side]
                         for side in (ts.source, ts.reference))
    return TestSet("one-half", "en", "de", source, reference), refs


def _one_segment_testset():
    ts, refs = _documents_testset()
    return TestSet("one", "en", "de", ts.source[:1], ts.reference[:1]), refs[:1]


def _systems(refs):
    rng = random.Random(len(refs))
    base = [perturb_sentence(rng, ref) for ref in refs]
    return {"base": base, "same": list(base), "ape": [perturb_sentence(rng, r) for r in refs],
            "perfect": list(refs)}


def _rendered(ts, hyps, workers):
    table = split_score_table(ts, hyps, workers=workers)
    payload = json.dumps({label: r.as_dict() for label, r in table.items()}, indent=2)
    return payload, render_split_table(table, ts)


class TestSplitScoreTableWorkers:
    @pytest.mark.parametrize("make", [_documents_testset, _single_half_testset,
                                      _one_segment_testset])
    def test_every_worker_count_gives_the_same_bytes(self, make):
        ts, refs = make()
        hyps = _systems(refs)
        one = _rendered(ts, hyps, 1)
        for workers in (2, 3, len(ts) + 2):
            assert _rendered(ts, hyps, workers) == one, workers

    def test_scores_equal_corpus_bleu_of_each_group(self):
        ts, refs = _documents_testset()
        hyps = _systems(refs)
        groups = {"full": range(11), "source_original": [1, 2, 6, 9],
                  "target_original": [0, 4, 5, 8, 10]}
        table = split_score_table(ts, hyps, workers=3)
        for label, hyp in hyps.items():
            assert table[label].metadata["counts"] == {k: len(v) for k, v in groups.items()}
            for name, indices in groups.items():
                want = corpus_bleu(((hyp[i], refs[i]) for i in indices),
                                   BleuConfig("en-de", "docs"))
                assert table[label].split_scores[name] == want, (label, name)

    def test_an_empty_half_is_skipped(self):
        ts, refs = _single_half_testset()
        scores = split_score_table(ts, _systems(refs), workers=2)["base"].split_scores
        assert sorted(scores) == ["full", "target_original"]

    def test_workers_below_one_is_an_error(self):
        ts, refs = _one_segment_testset()
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            split_score_table(ts, {"sys": refs}, workers=0)

    def test_a_short_system_fails_before_any_scoring(self, monkeypatch):
        ts, refs = _documents_testset()
        hyps = {f"sys{i}": list(refs) for i in range(7)}
        hyps["sys7"] = refs[:-1]
        calls = []
        real = analysis.ngram_stats
        monkeypatch.setattr(analysis, "ngram_stats", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ValueError, match="system 'sys7' has 10 lines, test set has 11"):
            split_score_table(ts, hyps, workers=2)
        assert calls == []

    def test_an_exception_in_a_child_is_raised_here(self, monkeypatch):
        ts, refs = _documents_testset()
        parent = os.getpid()

        def stats(hyp_tokens, ref_tokens):
            if os.getpid() != parent:
                raise DataError("bad pair in a child")
            return ngram_stats(hyp_tokens, ref_tokens)

        monkeypatch.setattr(analysis, "ngram_stats", stats)
        with pytest.raises(DataError, match="bad pair in a child"):
            split_score_table(ts, {"sys": refs}, workers=2)

    def test_a_child_killed_by_a_signal_names_its_range(self, monkeypatch):
        ts, refs = _documents_testset()
        parent = os.getpid()

        def stats(hyp_tokens, ref_tokens):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return ngram_stats(hyp_tokens, ref_tokens)

        monkeypatch.setattr(analysis, "ngram_stats", stats)
        with pytest.raises(ChildProcessError, match=(
                r"scoring worker for segments 5\.\.10 ended without a result "
                r"\(killed by SIGKILL\)")):
            split_score_table(ts, {"sys": refs}, workers=2)

    def test_a_failing_first_range_still_reaps_the_children(self, monkeypatch):
        ts, refs = _documents_testset()
        parent = os.getpid()

        def stats(hyp_tokens, ref_tokens):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)  # the parent must not wait for this

        monkeypatch.setattr(analysis, "ngram_stats", stats)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            split_score_table(ts, {"sys": refs}, workers=3)
        assert time.monotonic() - start < 10


class TestHumanevalMakeTasks:
    ITEMS = [
        ("src one", "out one", "base"),
        ("src two", "out two", "ape"),
    ]

    def test_row_count(self):
        text = humaneval_make_tasks(self.ITEMS, raters_per_item=3, seed=1)
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert len(rows) == 1 + 6  # header + 2 items x 3 raters

    def test_deterministic(self):
        a = humaneval_make_tasks(self.ITEMS, seed=42)
        b = humaneval_make_tasks(self.ITEMS, seed=42)
        assert a == b
        assert humaneval_make_tasks(self.ITEMS, seed=43) != a

    def test_empty_items_gives_header_only(self):
        text = humaneval_make_tasks([], seed=0)
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert len(rows) == 1

    def test_questions_embedded_verbatim(self):
        text = humaneval_make_tasks(self.ITEMS, seed=0)
        assert FLUENCY_QUESTION in text
        assert ACCURACY_QUESTION in text

    def test_rating_cells_left_empty(self):
        text = humaneval_make_tasks(self.ITEMS, seed=0)
        row = [line for line in text.splitlines() if line.startswith("item-")][0]
        cells = row.split("\t")
        assert cells[5] == "" and cells[7] == ""


def _completed_tasks(fluency_by_item, accuracy_by_item, labels):
    items = [(f"src {i}", f"out {i}", labels[i]) for i in range(len(fluency_by_item))]
    text = humaneval_make_tasks(items, raters_per_item=3, seed=0)
    lines = text.splitlines()
    header = lines[1].split("\t")
    col = {name: i for i, name in enumerate(header)}
    slot_counter: dict[str, int] = {}
    out = lines[:2]
    for line in lines[2:]:
        cells = line.split("\t")
        item_index = int(cells[col["item_id"]].split("-")[1]) - 1
        slot = slot_counter.get(cells[col["item_id"]], 0)
        slot_counter[cells[col["item_id"]]] = slot + 1
        cells[col["fluency_rating"]] = str(fluency_by_item[item_index][slot])
        cells[col["accuracy_rating"]] = str(accuracy_by_item[item_index][slot])
        out.append("\t".join(cells))
    return "\n".join(out) + "\n"


def _rows(text):
    """A task file's rows, as ``lineio.read_lines`` reads them."""
    return text.split("\n")


class TestHumanevalAggregate:
    def test_fluency_mean_of_item_means(self):
        text = _completed_tasks([[5, 4, 5]], [[0, 0, 0]], ["sys"])
        result = humaneval_aggregate(_rows(text))
        assert result["sys"]["fluency"] == pytest.approx(14 / 3)
        assert f"{result['sys']['fluency']:.2f}" == "4.67"

    def test_accuracy_percentage(self):
        text = _completed_tasks([[5, 5, 5]], [[0, 0, 1]], ["sys"])
        result = humaneval_aggregate(_rows(text))
        assert result["sys"]["accuracy"] == pytest.approx(100 * 2 / 3)
        assert f"{result['sys']['accuracy']:.1f}" == "66.7"

    def test_multiple_systems_separated(self):
        text = _completed_tasks([[5, 5, 5], [1, 1, 1]], [[0, 0, 0], [1, 1, 1]], ["a", "b"])
        result = humaneval_aggregate(_rows(text))
        assert result["a"] == {"fluency": 5.0, "accuracy": 100.0}
        assert result["b"] == {"fluency": 1.0, "accuracy": 0.0}

    def test_incomplete_items_error_and_allow_partial(self):
        text = _completed_tasks([[5, 5, 5], [4, 4, 4]], [[0, 0, 0], [0, 0, 0]], ["a", "a"])
        text = text.replace("\t4\t", "\t\t", 1)
        with pytest.raises(DataError, match="item-00002"):
            humaneval_aggregate(_rows(text))
        partial = humaneval_aggregate(_rows(text), allow_partial=True)
        assert partial["a"]["fluency"] == 5.0

    def test_row_permutation_invariant(self):
        text = _completed_tasks([[5, 4, 3], [2, 3, 4]], [[0, 1, 0], [0, 0, 0]], ["a", "b"])
        lines = text.splitlines()
        shuffled = lines[:2] + list(reversed(lines[2:]))
        assert humaneval_aggregate(shuffled) == humaneval_aggregate(_rows(text))

    def test_bad_rating_values(self):
        text = _completed_tasks([[9, 5, 5]], [[0, 0, 0]], ["a"])
        with pytest.raises(DataError, match="1..5"):
            humaneval_aggregate(_rows(text))

    def test_fluency_is_a_left_fold_of_the_item_means(self):
        # math.fsum of these means, like sum() from Python 3.12 on, differs in the last bit.
        fluency = [[3, 5, 5], [1, 1, 5], [1, 1, 1], [3, 5, 5], [2, 2, 3]]
        text = _completed_tasks(fluency, [[0, 0, 0]] * 5, ["a"] * 5)
        first_seen = dict.fromkeys(int(row[5:10]) - 1 for row in _rows(text)
                                   if row.startswith("item-"))
        means = [sum(fluency[i]) / 3 for i in first_seen]
        fold = functools.reduce(operator.add, means, 0.0) / 5
        assert fold != math.fsum(means) / 5
        assert humaneval_aggregate(_rows(text))["a"]["fluency"] == fold

    def test_crlf_line_ends_read_like_lf(self):
        text = _completed_tasks([[5, 4, 3], [2, 3, 4]], [[0, 1, 0], [0, 0, 0]], ["a", "b"])
        crlf = _rows(text.replace("\n", "\r\n"))
        assert humaneval_aggregate(crlf) == humaneval_aggregate(_rows(text))

    @pytest.mark.parametrize(
        ("fluency", "accuracy", "message"),
        [
            ([[5, 5, 5], [4, 4.5, 4]], [[0, 0, 0], [0, 0, 0]],
             "fluency_rating of item-00002 is not an integer: '4.5'"),
            ([[5, 5, 5]], [[0, "no", 0]], "accuracy_rating of item-00001 is not an integer: 'no'"),
        ],
    )
    def test_non_integer_rating_names_item_and_column(self, fluency, accuracy, message):
        text = _completed_tasks(fluency, accuracy, ["a"] * len(fluency))
        with pytest.raises(DataError) as info:
            humaneval_aggregate(_rows(text))
        assert str(info.value) == message

    def test_format_cells(self):
        out = format_ratings({"base": {"fluency": 4.654, "accuracy": 95.64}})
        assert out == "base: 4.65 / 95.6%"


def test_report_as_dict_is_json_shaped():
    report = AnalysisReport(vocab_sizes={"a": 1}, metadata={"n": 2})
    d = report.as_dict()
    assert d["vocab_sizes"] == {"a": 1}
    assert d["rtt_bleu"] is None
    assert NgramStats.zero().match == [0, 0, 0, 0]
