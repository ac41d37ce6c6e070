"""Scorer unit tests: tokenizer behavior, clipped counts, smoothing, and the
structural invariants of corpus scoring."""

import functools
import itertools
import math
import operator
import random
import re
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gen_unicode_classes
import scoring_oracle
from conftest import build_bias_fixture, random_parallel_corpus
from rtt_ape import scoring, unicode_classes
from rtt_ape.analysis import split_score_table
from rtt_ape.backends import translate_batch
from rtt_ape.scoring import (
    BleuConfig,
    NgramStats,
    corpus_bleu,
    corpus_stats,
    ngram_stats,
    score_from_stats,
    signature,
    tokenize_intl,
)

TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=80,
)

HOST_HAS_TABLE_VERSION = pytest.mark.skipif(
    unicodedata.unidata_version != scoring.UNICODE_VERSION,
    reason=f"the host's unicodedata is {unicodedata.unidata_version}, "
    f"not the table's {scoring.UNICODE_VERSION}",
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
        # Both the classes cut at U+FFFF, for lines without an astral
        # character, and the full ones.
        for top in (0xFFFF, sys.maxunicode):
            every_code_point = "".join(map(chr, range(top + 1)))
            for new, raw in zip(scoring._classes(top), scoring_oracle.raw_classes()):
                assert (re.findall(f"[{new}]", every_code_point)
                        == re.findall(f"[{raw}]", every_code_point))

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

    def test_every_short_string_from_a_cold_state(self, monkeypatch):
        # A letter, a digit, a space, the digit-joining marks, the unpadded
        # backslash, a symbol, and two marks of General Punctuation: every
        # punctuation run next to digits up to length 4.
        _cold_tokenizer(monkeypatch)
        alphabet = "a1 .,\\$\u201e\u2013"
        lines = [
            "".join(chars)
            for n in range(5)
            for chars in itertools.product(alphabet, repeat=n)
        ]
        mismatches = [
            line for line in lines if tuple(tokenize_intl(line)) != scoring_oracle.tokenize(line)
        ]
        assert mismatches == []


class TestPinnedUnicodeTable:
    """The classes come from the checked-in Unicode 14.0.0 table, so tokens
    are the same on every Python, whatever its ``unicodedata``."""

    def test_tokens_do_not_depend_on_the_host_unicode_version(self):
        assert scoring.UNICODE_VERSION == "14.0.0"
        # U+20C0 SOM SIGN is a symbol since Unicode 14.0; Unicode 13.0 (Python
        # 3.10) has no such character.
        assert tokenize_intl("Preis 100\u20c0 heute") == ["Preis", "100", "\u20c0", "heute"]
        # U+1FAE8 SHAKING FACE is a symbol since Unicode 15.0 (Python 3.12).
        assert tokenize_intl("Ziel\U0001FAE8 x") == ["Ziel\U0001FAE8", "x"]

    def test_digits_do_not_depend_on_the_host_unicode_version(self):
        # U+11F50 KAWI DIGIT ZERO is a digit, for ``re``'s ``\d`` too, since
        # Unicode 15.0 (Python 3.12): here the comma after it is split off.
        assert tokenize_intl("x\U00011F50,5") == ["x\U00011F50", ",", "5"]
        # U+16AC0 TANGSA DIGIT ZERO is a digit since Unicode 14.0; Unicode 13.0
        # (Python 3.10) has no such character.
        assert tokenize_intl("\U00016AC0,5") == ["\U00016AC0,5"]

    @HOST_HAS_TABLE_VERSION
    def test_the_table_holds_the_host_categories(self):
        tables = ((unicode_classes.PUNCTUATION, "P"), (unicode_classes.SYMBOL, "S"),
                  (unicode_classes.DIGIT, "Nd"))
        for table, category in tables:
            expected = "".join(chr(cp) for cp in range(sys.maxunicode + 1)
                               if unicodedata.category(chr(cp)).startswith(category))
            assert scoring_oracle.table_chars(table) == expected

    @HOST_HAS_TABLE_VERSION
    def test_the_digits_are_the_host_re_digits(self):
        """What the reference scorer's ``\\d`` matches under this Unicode version."""
        every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(re.findall(r"\d", every_code_point)) == (
            scoring_oracle.table_chars(unicode_classes.DIGIT))

    @HOST_HAS_TABLE_VERSION
    def test_the_generator_reproduces_the_module(self):
        assert Path(unicode_classes.__file__).read_bytes() == (
            gen_unicode_classes.render().encode("utf-8"))


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

    # Two or three words make an order repeat an n-gram on one side, on both or
    # on neither, so each order takes both the set and the Counter path.
    @given(st.sampled_from(["a b", "a b c", "a b c d e"]).map(str.split).flatmap(
        lambda words: st.tuples(*[st.lists(st.sampled_from(words), max_size=20)] * 2)))
    @example(("a a b a a b".split(), "a b a b a a".split()))  # Counters on both sides
    @example(("a b c".split(), "a a b c".split()))  # a set against a Counter, both ways
    @example(("a a b c".split(), "a b c".split()))
    def test_matches_slicing_form(self, pair):
        hyp, ref = pair
        scoring._clipped_matches.cache_clear()
        assert ngram_stats(hyp, ref) == scoring_oracle.ngram_stats(hyp, ref)
        assert ngram_stats(tuple(hyp), tuple(ref)) == scoring_oracle.ngram_stats(hyp, ref)

    @given(st.lists(st.sampled_from("a b c".split()), max_size=20))
    def test_each_order_of_the_table_equals_the_oracle_counts(self, tokens):
        table = scoring._ngram_table(tuple(tokens))
        for n, grams in enumerate(table, 1):
            counts = scoring_oracle._ngram_counts(tokens, n)
            if n == 1:  # unigrams are keyed by the token itself, not a 1-tuple
                counts = Counter({token: count for (token,), count in counts.items()})
            assert Counter(grams) == counts
            # A set exactly when no n-gram of the order repeats.
            assert isinstance(grams, set) == all(c == 1 for c in counts.values())

    # The reference repeats an n-gram of length ``n`` (its table's order n is a
    # Counter); the hypothesis holds it more often, less often, or not at all,
    # amid filler that is partly missing from the reference.
    @pytest.mark.parametrize("relation", ["more", "fewer", "none"])
    @given(n=st.integers(1, 4), ref_count=st.integers(2, 4), extra=st.integers(1, 3),
           ref_fill=st.lists(st.sampled_from("x y".split()), max_size=6),
           hyp_fill=st.lists(st.sampled_from("x z".split()), min_size=1, max_size=6))
    def test_a_repeated_reference_ngram_clips_the_hypothesis_count(
            self, relation, n, ref_count, extra, ref_fill, hyp_fill):
        gram = "a b c d".split()[:n]
        hyp_count = {"more": ref_count + extra, "fewer": min(extra, ref_count - 1),
                     "none": 0}[relation]
        ref = tuple(ref_fill + gram * ref_count)
        hyp = tuple(gram * hyp_count + hyp_fill)
        table = scoring._ngram_table(ref)
        assert type(table[n - 1]) is Counter
        assert table[n - 1][gram[0] if n == 1 else tuple(gram)] == ref_count
        scoring._clipped_matches.cache_clear()
        assert list(scoring._clipped_matches(hyp, ref)) == scoring_oracle.ngram_stats(hyp, ref).match

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
    """Give the tokenizer an empty line cache, undone by ``mp``."""
    mp.setattr(
        scoring,
        "_tokenize_cached",
        functools.lru_cache(maxsize=1 << 16)(scoring._tokenize_cached.__wrapped__),
    )


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


SENTENCE = st.lists(st.sampled_from("a b c d".split()), max_size=8).map(" ".join)


class TestCorpusStats:
    @given(st.lists(st.tuples(SENTENCE, SENTENCE), min_size=1, max_size=12))
    def test_equals_fieldwise_sum_of_oracle_stats(self, pairs):
        expected = NgramStats.zero()
        for hyp, ref in pairs:
            expected = expected + scoring_oracle.ngram_stats(hyp.split(), ref.split())
        assert corpus_stats(pairs) == expected

    def test_counts_each_pair_once(self, monkeypatch):
        calls = []
        real = scoring.ngram_stats

        def counted(hyp_tokens, ref_tokens):
            calls.append((hyp_tokens, ref_tokens))
            return real(hyp_tokens, ref_tokens)

        monkeypatch.setattr(scoring, "ngram_stats", counted)
        pairs = [("a b c", "a b d"), ("a b c", "a b d"), ("", "c d"), ("d", "")]
        stats = corpus_stats(iter(pairs))
        assert calls == [(tuple(h.split()), tuple(r.split())) for h, r in pairs]
        assert stats == NgramStats([4, 2, 0, 0], [7, 4, 2, 0], hyp_len=7, ref_len=8)

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(ValueError, match="empty corpus"):
            corpus_stats([])


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


class TestFloatBits:
    """The same scores on every Python: no sum() of floats."""

    def test_the_log_sum_is_a_left_fold(self):
        # Their left fold is 11.35504175147051; math.fsum, like sum() from
        # Python 3.12 on, gives 11.355041751470512.
        stats = NgramStats([98, 74, 1097, 385], [1331, 622, 1622, 2671], 1331, 1331)
        logs = [math.log(100.0 * m / t) for m, t in zip(stats.match, stats.total)]
        assert functools.reduce(operator.add, logs, 0.0) == 11.35504175147051
        assert math.fsum(logs) == 11.355041751470512
        assert score_from_stats(stats).score == math.exp(11.35504175147051 / 4) == 17.094562626197103


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
