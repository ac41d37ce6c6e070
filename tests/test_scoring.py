"""Scorer unit tests: tokenizer behavior, clipped counts, smoothing, and the
structural invariants of corpus scoring."""

import functools
import math
import random
import re
import sys
import threading
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scoring_oracle
from conftest import build_bias_fixture, random_parallel_corpus
from rtt_ape import scoring
from rtt_ape.analysis import split_score_table
from rtt_ape.backends import translate_batch
from rtt_ape.scoring import (
    BleuConfig,
    NgramStats,
    corpus_bleu,
    ngram_stats,
    score_from_stats,
    signature,
    tokenize_intl,
)

TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=80,
)


@pytest.fixture(scope="module")
def warm_oracle():
    """Build the oracle's raw classes (~0.4 s) before hypothesis times an
    example against its deadline."""
    scoring_oracle.tokenize("")


class TestTokenizer:
    def test_punctuation_is_padded(self):
        assert tokenize_intl("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_empty_input(self):
        assert tokenize_intl("") == []

    def test_digit_internal_period_kept(self):
        assert tokenize_intl("3.5 km") == ["3.5", "km"]

    def test_digit_internal_comma_kept(self):
        assert tokenize_intl("1,000.50 euros") == ["1,000.50", "euros"]

    def test_line_final_period_after_digit_not_split(self):
        # mteval-v14 quirk: no following character, so the punct-nondigit
        # rule cannot fire; trailing whitespace is stripped first.
        assert tokenize_intl("It was 2019.") == ["It", "was", "2019."]
        assert tokenize_intl("It was 2019.\n") == ["It", "was", "2019."]
        assert tokenize_intl("It was 2019. ") == ["It", "was", "2019."]

    def test_backslash_not_split(self):
        # Reference-scorer compatibility: the raw punctuation class never
        # matches a literal backslash.
        assert tokenize_intl("a\\b stays") == ["a\\b", "stays"]

    def test_symbols_are_padded(self):
        assert tokenize_intl("5$ + 3€") == ["5", "$", "+", "3", "€"]

    def test_case_preserved(self):
        assert tokenize_intl("Guten Tag") == ["Guten", "Tag"]

    @given(TEXT)
    def test_concatenation_invariant(self, text):
        tokens = tokenize_intl(text)
        assert "".join(tokens) == "".join(text.split())
        assert all(token for token in tokens)
        assert not any(" " in token for token in tokens)

    @pytest.mark.usefixtures("warm_oracle")
    @given(TEXT)
    @example("::?0")
    def test_retokenization_fixed_point(self, text):
        # Not a fixed point: a match of the non-digit/punctuation pass
        # consumes the character before the mark, so in "::?0" the "?" stays
        # joined to the "0", while in the re-joined ": : ?0" it is split off.
        joined = " ".join(tokenize_intl(text))
        assert tuple(tokenize_intl(joined)) == scoring_oracle.tokenize(joined)

    def test_retokenization_can_split_further(self):
        assert tokenize_intl("::?0") == [":", ":", "?0"]
        assert tokenize_intl(": : ?0") == [":", ":", "?", "0"]


class TestTokenizerAgainstRawClassOracle:
    """The range-compressed classes must tokenize exactly like the raw,
    unescaped classes of the reference scorer, quirks included."""

    def test_class_membership_over_every_code_point(self):
        every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
        classes = [f"[{cls}]" for cls in scoring._category_classes()]
        for new, raw in zip(classes, scoring_oracle.raw_classes()):
            assert re.findall(new, every_code_point) == re.findall(raw, every_code_point)

    def test_every_punct_and_symbol_in_context(self):
        chars = [
            chr(cp) for cp in range(sys.maxunicode) if unicodedata.category(chr(cp))[0] in "PS"
        ] + ["\\", "-", "]", "[", "^"]
        contexts = ("a{}b", "1{}2", "a{}1", "1{}a", ".{}.", "{}")
        lines = [context.format(char) for char in chars for context in contexts]
        mismatches = [
            line for line in lines if tuple(tokenize_intl(line)) != scoring_oracle.tokenize(line)
        ]
        assert mismatches == []

    @pytest.mark.usefixtures("warm_oracle")
    @given(TEXT)
    def test_arbitrary_text(self, text):
        assert tuple(tokenize_intl(text)) == scoring_oracle.tokenize(text)


def _brute_force_stats(hyp, ref):
    """Independent clipped-count oracle: explicit enumeration of all n-grams."""
    match, total = [0] * 4, [0] * 4
    for n in range(1, 5):
        hyp_ngrams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
        ref_ngrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
        total[n - 1] = len(hyp_ngrams)
        for gram in set(hyp_ngrams):
            match[n - 1] += min(hyp_ngrams.count(gram), ref_ngrams.count(gram))
    return match, total


class TestNgramStats:
    def test_identity(self):
        stats = ngram_stats(["a", "b", "c"], ["a", "b", "c"])
        assert stats.match == [3, 2, 1, 0]
        assert stats.total == [3, 2, 1, 0]

    def test_clipping(self):
        stats = ngram_stats(["the", "the", "the"], ["the", "cat"])
        assert stats.match[0] == 1
        assert stats.total[0] == 3

    def test_partial_overlap(self):
        stats = ngram_stats(["a", "b", "c", "d"], ["a", "b", "x", "d"])
        assert stats.match == [3, 1, 0, 0]
        assert stats.total == [4, 3, 2, 1]

    @given(
        st.lists(st.sampled_from("a b c d e".split()), max_size=12),
        st.lists(st.sampled_from("a b c d e".split()), max_size=12),
    )
    def test_matches_brute_force(self, hyp, ref):
        stats = ngram_stats(hyp, ref)
        match, total = _brute_force_stats(hyp, ref)
        assert stats.match == match
        assert stats.total == total
        assert all(0 <= m <= t for m, t in zip(stats.match, stats.total))

    @given(
        st.lists(st.sampled_from("a b c d e".split()), max_size=20),
        st.lists(st.sampled_from("a b c d e".split()), max_size=20),
    )
    def test_matches_slicing_form(self, hyp, ref):
        assert ngram_stats(hyp, ref) == scoring_oracle.ngram_stats(hyp, ref)
        assert ngram_stats(tuple(hyp), tuple(ref)) == scoring_oracle.ngram_stats(hyp, ref)

    def test_merge_is_fieldwise_addition(self):
        a = ngram_stats(["a", "b"], ["a", "b"])
        b = ngram_stats(["c", "d", "e"], ["c", "x", "e"])
        merged = a + b
        assert merged.match == [m1 + m2 for m1, m2 in zip(a.match, b.match)]
        assert merged.hyp_len == a.hyp_len + b.hyp_len
        assert (a + b).match == (b + a).match


class TestMemoAndInterning:
    """The clipped-match memo and token interning must be invisible."""

    def test_cached_call_equals_cold_call_and_oracle(self):
        rng = random.Random(23)
        hyps, refs = random_parallel_corpus(rng, 40)
        pairs = [(tokenize_intl(h), tokenize_intl(r)) for h, r in zip(hyps, refs)]
        distinct = len({(tuple(h), tuple(r)) for h, r in pairs})
        scoring._clipped_matches.cache_clear()
        cold = [ngram_stats(h, r) for h, r in pairs]
        assert scoring._clipped_matches.cache_info().misses == distinct
        cached = [ngram_stats(h, r) for h, r in pairs]
        assert scoring._clipped_matches.cache_info().hits >= len(pairs)
        assert cold == cached == [scoring_oracle.ngram_stats(h, r) for h, r in pairs]

    def test_list_and_tuple_inputs_agree(self):
        hyp, ref = ["a", "b", "a", "c"], ["a", "b", "c", "a"]
        assert ngram_stats(hyp, ref) == ngram_stats(tuple(hyp), tuple(ref))
        assert ngram_stats(tuple(hyp), ref) == ngram_stats(hyp, tuple(ref))

    def test_mutating_a_result_does_not_reach_the_cache(self):
        hyp, ref = ("a", "b", "c"), ("a", "b", "x")
        first = ngram_stats(hyp, ref)
        expected = scoring_oracle.ngram_stats(hyp, ref)
        first.match[0] = 99
        first.total[1] = 99
        first.hyp_len = 99
        first += ngram_stats(hyp, ref)
        assert ngram_stats(hyp, ref) == expected

    def test_tokens_are_interned(self):
        scoring._tokenize_cached.cache_clear()
        first = tokenize_intl("ein Haus, ein Haus.")
        second = tokenize_intl("Haus ein")
        assert first[0] is first[3] and first[1] is first[4] is second[0]

    def test_split_score_table_equals_oracle_sums(self):
        fixture = build_bias_fixture(n=120, n_groups=10, seed=9)
        ts = fixture.testset
        edited = translate_batch(fixture.denoiser_backend(), fixture.mt_output)
        hyps = {"mt": fixture.mt_output, "ape": edited, "ref": fixture.references}
        config = BleuConfig("en-de", ts.name)
        scoring._tokenize_cached.cache_clear()
        scoring._clipped_matches.cache_clear()
        table = split_score_table(ts, hyps, config)
        groups = {
            "full": range(len(ts)),
            "source_original": fixture.halves.source_original,
            "target_original": fixture.halves.target_original,
        }
        for label, hyp in hyps.items():
            for name, indices in groups.items():
                stats = NgramStats.zero()
                for i in indices:
                    stats = stats + scoring_oracle.ngram_stats(
                        scoring_oracle.tokenize(hyp[i]),
                        scoring_oracle.tokenize(fixture.references[i]),
                    )
                got = table[label].split_scores[name]
                assert got.stats == stats
                assert got.as_dict() == score_from_stats(stats, config).as_dict()


def _cold_tokenizer(mp: pytest.MonkeyPatch) -> None:
    """Reset the tokenizer to no pages and an empty line cache, undone by ``mp``."""
    mp.setattr(scoring, "_state", scoring._build_state({}))
    mp.setattr(
        scoring,
        "_tokenize_cached",
        functools.lru_cache(maxsize=1 << 16)(scoring._tokenize_cached.__wrapped__),
    )


def _pages(text: str) -> set[int]:
    return {ord(char) >> 8 for char in text}


def _count_scans(mp: pytest.MonkeyPatch) -> list[int]:
    """Wrap ``scoring._category_classes``; each call appends the page it scans."""
    scans = []
    category_classes = scoring._category_classes

    def counting(code_points=range(sys.maxunicode)):
        scans.append(code_points[0] >> 8)
        return category_classes(code_points)

    mp.setattr(scoring, "_category_classes", counting)
    return scans


PUNCT_AND_SYMBOLS = [
    chr(cp) for cp in range(sys.maxunicode) if unicodedata.category(chr(cp))[0] in "PS"
]


class TestLazyClasses:
    """Classes grown page by page from the text seen must tokenize exactly
    like the full classes, in any order, from any number of threads."""

    # The first example also builds the oracle's full raw classes.
    @settings(deadline=None)
    @given(TEXT)
    def test_arbitrary_text_from_a_cold_state(self, text):
        with pytest.MonkeyPatch.context() as mp:
            _cold_tokenizer(mp)
            assert tuple(tokenize_intl(text)) == scoring_oracle.tokenize(text)
            assert scoring._state[0].keys() == _pages(text.rstrip())

    def test_cold_tokens_equal_tokens_after_exhaustive_warm_up(self, monkeypatch):
        rng = random.Random(5)
        hyps, refs = random_parallel_corpus(rng, 50)
        lines = hyps + refs + [
            context.format(char)
            for char in PUNCT_AND_SYMBOLS + ["\\", "-", "]", "[", "^"]
            for context in ("a{}b", "1{}2")
        ]
        rng.shuffle(lines)
        _cold_tokenizer(monkeypatch)
        scans = _count_scans(monkeypatch)
        cold = [tokenize_intl(line) for line in lines]
        assert sorted(scans) == sorted(_pages("".join(lines)))  # each page scanned once
        _cold_tokenizer(monkeypatch)
        tokenize_intl("".join(PUNCT_AND_SYMBOLS))
        assert scoring._state[0].keys() == _pages("".join(PUNCT_AND_SYMBOLS))
        assert [tokenize_intl(line) for line in lines] == cold
        assert cold == [list(scoring_oracle.tokenize(line)) for line in lines]

    def test_threads_growing_disjoint_pages_at_once(self, monkeypatch):
        # Each thread's lines use only its own pages, so every thread forces
        # class builds that race with the others' (lines need no ASCII
        # space: the padding is added after the pages are read).
        # Pages 0x00 and 0x20; 0x30 and 0xFF; 0x03 to 0x05; 0x06 and 0x09.
        alphabets = (
            "ab1.,;:!?-()[]\\$+ \u2013\u2014\u2018\u201c\u201d\u2026\u2030",
            "\u3000\u3001\u3002\u300c\u300d\u3042\u30a2\u30fb\uff01\uff08\uff11\uffe5",
            "\u03b1\u03b2\u037e\u0387\u0431\u0482\u055a\u055e\u05be\u05d0",
            "\u0628\u060c\u061b\u061f\u0660\u0661\u0915\u0964\u0965\u0966",
        )
        assert sum(map(len, map(_pages, alphabets))) == len(_pages("".join(alphabets)))
        rng = random.Random(11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                _cold_tokenizer(monkeypatch)
                work = [
                    ["".join(rng.choice(alphabet) for _ in range(30)) for _ in range(50)]
                    for alphabet in alphabets
                ]
                results: dict[int, list[tuple[str, ...]]] = {}
                start = threading.Barrier(len(work))

                def tokenize_all(index):
                    start.wait(timeout=60)
                    results[index] = [tuple(tokenize_intl(line)) for line in work[index]]

                threads = [
                    threading.Thread(target=tokenize_all, args=(i,)) for i in range(len(work))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for index, lines in enumerate(work):
                    assert results[index] == [scoring_oracle.tokenize(line) for line in lines]
        finally:
            sys.setswitchinterval(interval)

    def test_latin1_and_general_punctuation_need_at_most_two_builds(self, monkeypatch):
        _cold_tokenizer(monkeypatch)
        scans = _count_scans(monkeypatch)
        rng = random.Random(13)
        alphabet = [chr(cp) for cp in range(0x20, 0x100)] + [
            chr(cp) for cp in range(0x2000, 0x2070)
        ]
        lines = ["".join(rng.choice(alphabet) for _ in range(40)) for _ in range(1000)]
        assert [tuple(tokenize_intl(line)) for line in lines] == [
            scoring_oracle.tokenize(line) for line in lines
        ]
        assert sorted(scans) == [0x00, 0x20]
        assert scoring._state[0].keys() == {0x00, 0x20}


class TestCorpusBleu:
    def test_identity_is_100(self):
        score = corpus_bleu([("the big cat sat down", "the big cat sat down")])
        assert score.score == 100.0
        assert score.brevity_penalty == 1.0

    def test_single_pair_matches_reference_scorer(self):
        # Frozen output of the reference scorer (intl tokenizer, exponential
        # smoothing) on this pair; precisions 3 and 4 are smoothed.
        score = corpus_bleu([("a b c d", "a b x d")])
        assert score.precisions == (75.0, 33.333333333333336, 25.0, 25.0)
        assert score.brevity_penalty == 1.0
        assert score.score == 35.35533905932737

    def test_permutation_invariance(self):
        rng = random.Random(17)
        hyps, refs = random_parallel_corpus(rng, 30)
        pairs = list(zip(hyps, refs))
        base = corpus_bleu(pairs)
        rng.shuffle(pairs)
        shuffled = corpus_bleu(pairs)
        assert shuffled.score == base.score
        assert shuffled.precisions == base.precisions

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(ValueError):
            corpus_bleu([])

    def test_empty_hypothesis_line_contributes_zero_counts(self):
        score = corpus_bleu([("", "some reference here"), ("a b c d e", "a b c d e")])
        assert score.hyp_len == 5
        assert score.ref_len == 8
        assert score.brevity_penalty < 1.0

    def test_smoothing_increments_per_zero_order(self):
        # One 4-token pair with no bigram matches: k=1 for n=2, k=2 for
        # n=3, k=3 for n=4.
        score = corpus_bleu([("a x b y", "a p b q")])
        assert score.precisions[1] == 100.0 / (2 * 3)
        assert score.precisions[2] == 100.0 / (4 * 2)
        assert score.precisions[3] == 100.0 / (8 * 1)

    def test_score_bounded(self):
        rng = random.Random(3)
        for _ in range(20):
            hyps, refs = random_parallel_corpus(rng, 10)
            score = corpus_bleu(zip(hyps, refs))
            assert 0.0 <= score.score <= 100.0
            assert 0.0 < score.brevity_penalty <= 1.0


class TestBrevityPenalty:
    def test_no_penalty_when_hyp_longer(self):
        stats = NgramStats([5, 3, 2, 1], [6, 5, 4, 3], hyp_len=6, ref_len=5)
        assert score_from_stats(stats).brevity_penalty == 1.0

    def test_penalty_formula(self):
        stats = NgramStats([5, 3, 2, 1], [6, 5, 4, 3], hyp_len=6, ref_len=9)
        assert score_from_stats(stats).brevity_penalty == math.exp(1 - 9 / 6)

    def test_truncation_strictly_lowers_score(self):
        full = NgramStats([10, 8, 6, 4], [12, 11, 10, 9], hyp_len=12, ref_len=12)
        truncated = NgramStats([8, 6, 4, 2], [9, 8, 7, 6], hyp_len=9, ref_len=12)
        assert score_from_stats(truncated).score < score_from_stats(full).score


class TestSignature:
    def test_paper_configuration(self):
        assert signature(BleuConfig("en-de", "newstest2016")) == (
            "BLEU+case.mixed+lang.en-de+numrefs.1+smooth.exp"
            "+newstest2016+tok.intl+version.1.2.20"
        )

    def test_substitution(self):
        sig = signature(BleuConfig("en-ro", "test"))
        assert "+lang.en-ro+" in sig and "+test+" in sig
        sig = signature(BleuConfig("en-fr", "newstest2014"))
        assert "+lang.en-fr+" in sig and "+newstest2014+" in sig

    def test_attached_to_scores(self):
        score = corpus_bleu([("a b c d", "a b c d")], BleuConfig("en-de", "newstest2016"))
        assert score.signature.endswith("+newstest2016+tok.intl+version.1.2.20")
