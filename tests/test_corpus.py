"""Dedup, length filtering, and seeded subsampling."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtt_ape.corpus import (
    FilterConfig,
    FilterReport,
    SentencePair,
    bitext_filter,
    bitext_reject_reason,
    dedup,
    mono_filter,
    mono_reject_reason,
    sample_lines,
)

CFG = FilterConfig()


class TestFilterConfig:
    def test_defaults(self):
        assert (CFG.max_chars, CFG.max_tokens, CFG.bitext_max_tokens, CFG.max_len_ratio) == (
            500, 70, 250, 2.0,
        )

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FilterConfig(max_chars=0)
        with pytest.raises(ValueError):
            FilterConfig(max_len_ratio=0.5)


class TestFilterReport:
    def test_filter_yields_kept_items_and_counts_each_rule(self):
        report = FilterReport()
        kept = report.filter(["ok", "", "x" * 501, "fine too", ""],
                             lambda line: mono_reject_reason(line, CFG))
        assert report.read == 0  # counted as consumed
        assert list(kept) == ["ok", "fine too"]
        assert report.as_dict() == {
            "read": 5, "kept": 2, "rejected_by_rule": {"empty": 2, "too_many_chars": 1}}


class TestDedup:
    def test_first_occurrence_kept(self):
        assert list(dedup(["a", "b", "a"])) == ["a", "b"]

    def test_empty(self):
        assert list(dedup([])) == []

    def test_report_counts(self):
        report = FilterReport()
        list(dedup(["a", "b", "a", "a"], report=report))
        assert report.read == 4
        assert report.kept == 2
        assert report.rejected_by_rule == {"duplicate": 2}

    def test_exact_mode_equivalent(self):
        lines = ["x", "y", "x", "z", "y"]
        assert list(dedup(lines, exact=True)) == list(dedup(lines))

    @given(st.lists(st.text(max_size=20), max_size=50))
    def test_idempotent_and_duplicate_free(self, lines):
        once = list(dedup(lines))
        assert list(dedup(once)) == once
        assert len(set(once)) == len(once)

    @given(st.lists(st.text(max_size=20), max_size=50))
    def test_output_is_subsequence(self, lines):
        out = list(dedup(lines))
        it = iter(lines)
        assert all(any(line == candidate for candidate in it) for line in out)


class TestMonoFilter:
    def test_over_token_cap_rejected(self):
        assert not mono_filter(" ".join(["w"] * 71), CFG)
        assert mono_filter(" ".join(["w"] * 70), CFG)

    def test_over_char_cap_rejected(self):
        line = "x" * 501
        assert len(line.split()) == 1
        assert not mono_filter(line, CFG)
        assert mono_filter("x" * 500, CFG)

    def test_ordinary_line_kept(self):
        assert mono_filter("Guten Tag", CFG)

    def test_empty_rejected(self):
        assert not mono_filter("", CFG)

    def test_chars_counted_as_codepoints(self):
        # 300 two-byte characters are 300 characters, not 600.
        assert mono_filter("ä" * 300, CFG)


class TestBitextFilter:
    def test_empty_side_rejected(self):
        assert not bitext_filter(SentencePair("source text", ""), CFG)
        assert not bitext_filter(SentencePair("", "target text"), CFG)
        assert bitext_reject_reason(SentencePair("a", "   "), CFG) == "empty_side"

    def test_over_long_side_rejected(self):
        long = " ".join(["w"] * 251)
        ok = " ".join(["w"] * 250)
        assert not bitext_filter(SentencePair(long, ok), CFG)
        # Ratio must pass too: 250 vs 250 is fine.
        assert bitext_filter(SentencePair(ok, ok), CFG)

    def test_ratio_boundary_is_strict(self):
        ten = " ".join(["w"] * 10)
        twenty = " ".join(["w"] * 20)
        twentyone = " ".join(["w"] * 21)
        assert bitext_filter(SentencePair(ten, twenty), CFG)
        assert not bitext_filter(SentencePair(ten, twentyone), CFG)
        assert bitext_reject_reason(SentencePair(ten, twentyone), CFG) == "length_ratio"


class TestSample:
    FIXTURE = [f"line-{i:02d}" for i in range(10)]

    def test_full_sample_is_identity(self):
        for seed in (0, 7, 99):
            assert sample_lines(self.FIXTURE, 10, seed) == self.FIXTURE

    def test_empty_sample(self):
        assert sample_lines(self.FIXTURE, 0, 3) == []

    def test_oversample_is_error(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_lines(self.FIXTURE, 11, 0)

    def test_golden_subset(self):
        # Pinned output of the seeded reservoir; must never drift.
        assert sample_lines(self.FIXTURE, 4, 7) == [
            "line-04", "line-06", "line-07", "line-08",
        ]

    def test_deterministic(self):
        assert sample_lines(self.FIXTURE, 4, 7) == sample_lines(iter(self.FIXTURE), 4, 7)

    @given(st.integers(0, 10), st.integers(0, 1000))
    def test_subsequence_of_exact_size(self, n, seed):
        out = sample_lines(self.FIXTURE, n, seed)
        assert len(out) == n
        positions = [self.FIXTURE.index(line) for line in out]
        assert positions == sorted(positions)

    def test_uniformity_chi_square(self):
        # 2 of 5 lines: 10 possible subsets; 2000 seeds should spread evenly.
        # Deterministic, so this cannot flake.
        lines = list("abcde")
        counts: dict[tuple, int] = {}
        n_seeds = 2000
        for seed in range(n_seeds):
            key = tuple(sample_lines(lines, 2, seed))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        expected = n_seeds / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # df=9; 27.9 is the p=0.001 critical value.
        assert chi2 < 27.9


class TestStreamingMemory:
    def test_dedup_does_not_materialize_input(self):
        # Consume a 200k-line generator; the seen-set holds fingerprints only.
        def generator():
            for i in range(200_000):
                yield f"line number {i % 50_000} with some padding text"

        survivors = sum(1 for _ in dedup(generator()))
        assert survivors == 50_000

    def test_dedup_state_per_distinct_line(self):
        # A set of 16-byte fingerprints costs 80-100 B per distinct line
        # (CPython 3.11, 64-bit; ~101 B here, 83 B at 500k lines), as the
        # module docstring and the README state.
        n = 100_000
        gc.collect()
        tracemalloc.start()
        try:
            for _ in dedup(f"line number {i}" for i in range(n)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 120, peak / n


def test_filters_are_pure_and_idempotent():
    rng = random.Random(4)
    lines = [" ".join(rng.choices("a b c d e".split(), k=rng.randint(0, 80))) for _ in range(300)]
    kept = [line for line in lines if mono_filter(line, CFG)]
    assert [line for line in kept if mono_filter(line, CFG)] == kept
