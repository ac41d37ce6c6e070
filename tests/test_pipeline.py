"""Round-trip generation, training-pair emission, and APE application."""

import dataclasses
import gc
import tracemalloc

import pytest

from rtt_ape import pipeline
from rtt_ape.backends import BackendSpec, ChannelConfig, translate_batch
from rtt_ape.corpus import SentencePair, mono_filter
from rtt_ape.pipeline import (
    ApeMode,
    RttPair,
    apply_ape,
    chunked,
    generate_rtt,
    iter_rtt,
    make_training_pairs,
)
from rtt_ape.testset import SplitHalves

IDENT_DE_EN = BackendSpec.identity(from_lang="de", to_lang="en")
IDENT_EN_DE = BackendSpec.identity(from_lang="en", to_lang="de")


class TestGenerateRtt:
    def test_identity_backends(self):
        lines = ["eins zwei", "drei vier fünf"]
        pairs = generate_rtt(lines, IDENT_DE_EN, IDENT_EN_DE)
        assert pairs == [RttPair(line, line) for line in lines]

    def test_toy_channel_round_trip(self):
        to_en = BackendSpec.toy_channel(
            ChannelConfig(lexicon={"empfängt": "receives", "erhält": "receives"}),
            from_lang="de", to_lang="en",
        )
        to_de = BackendSpec.toy_channel(
            ChannelConfig(lexicon={"receives": "erhält"}), from_lang="en", to_lang="de"
        )
        pairs = generate_rtt(["Obama empfängt Netanjahu"], to_en, to_de)
        assert pairs == [
            RttPair(original="Obama empfängt Netanjahu", round_trip="Obama erhält Netanjahu")
        ]

    def test_overlong_line_filtered_before_translation(self):
        lines = [f"sentence number {i}" for i in range(9)] + ["x" * 600]
        pairs = generate_rtt(lines, IDENT_DE_EN, IDENT_EN_DE)
        assert len(pairs) == 9

    def test_round_trip_side_filtered_too(self):
        # A channel that deletes everything produces an empty round trip,
        # which fails the filter and drops the pair atomically.
        destroyer = BackendSpec.toy_channel(
            ChannelConfig(drop_prob=1.0), from_lang="en", to_lang="de"
        )
        pairs = generate_rtt(["guten tag"], IDENT_DE_EN, destroyer)
        assert pairs == []

    def test_directions_must_compose(self):
        with pytest.raises(ValueError, match="compose"):
            generate_rtt(["x"], IDENT_DE_EN, IDENT_DE_EN)

    def test_filter_sides_flag(self):
        destroyer = BackendSpec.toy_channel(
            ChannelConfig(drop_prob=1.0), from_lang="en", to_lang="de"
        )
        lines = ["guten tag"]
        assert generate_rtt(lines, IDENT_DE_EN, destroyer, filter_sides="both") == []
        kept = generate_rtt(lines, IDENT_DE_EN, destroyer, filter_sides="original")
        assert kept == [RttPair("guten tag", "")]
        long_line = "x" * 600
        kept = generate_rtt([long_line], IDENT_DE_EN, IDENT_EN_DE, filter_sides="round_trip")
        assert kept == []  # identity round trip is over-long too
        with pytest.raises(ValueError, match="filter_sides"):
            generate_rtt(lines, IDENT_DE_EN, IDENT_EN_DE, filter_sides="neither")

    def test_intermediates_captured(self):
        upper = BackendSpec(
            kind="command",
            from_lang="de",
            to_lang="en",
            command_template='python3 -c "import sys; sys.stdout.write(sys.stdin.read().upper())"',
        )
        intermediates: list[str] = []
        pairs = generate_rtt(["klein"], upper, IDENT_EN_DE, intermediates=intermediates)
        assert intermediates == ["KLEIN"]
        assert pairs[0].round_trip == "KLEIN"


NOISY_DE_EN = BackendSpec(
    kind="toy_channel", from_lang="de", to_lang="en", batch_size=3,
    channel=ChannelConfig(lexicon={"straße": "street"}, drop_prob=0.2, swap_prob=0.2, seed=3),
)


def _cat_en_de(batch_size: int, counter=None) -> BackendSpec:
    cmd = f"bash -c 'cat; echo run >> {counter}'" if counter else "cat"
    return BackendSpec(kind="command", from_lang="en", to_lang="de", command_template=cmd,
                       batch_size=batch_size, retries=0)


class TestIterRtt:
    def test_chunked(self):
        assert list(chunked(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(chunked(range(6), 3)) == [[0, 1, 2], [3, 4, 5]]
        assert list(chunked([], 3)) == [[]]

    def test_chunks_translate_like_one_whole_corpus_call(self, monkeypatch):
        # Chunks of lcm(3, 4) * 2 jobs = 24 lines; the noisy channel's
        # salts must still count from the start of the corpus.
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        lines = [f"satz {i} auf der straße" if i % 4 else f"wort{i}" for i in range(100)]
        lines += ["x" * 600, "ende"]
        kept = [line for line in lines if mono_filter(line)]
        pivot = translate_batch(NOISY_DE_EN, kept)
        expected = [(n, p, RttPair(o, p) if mono_filter(p) else None)
                    for n, o, p in zip([*range(1, 101), 102], kept, pivot)]
        got = list(iter_rtt(iter(lines), NOISY_DE_EN, _cat_en_de(4), jobs=2))
        assert got == expected
        assert any(pair is None for _, _, pair in got)  # the round-trip filter dropped some
        intermediates: list[str] = []
        assert generate_rtt(lines, NOISY_DE_EN, _cat_en_de(4), jobs=2,
                            intermediates=intermediates) == [p for _, _, p in got if p]
        assert intermediates == pivot

    def test_cache_of_one_whole_corpus_call_serves_every_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        counter, cache = tmp_path / "runs", tmp_path / "cache"
        cat = _cat_en_de(4, counter)
        lines = [f"satz {i} auf der straße" for i in range(100)]
        translate_batch(cat, translate_batch(NOISY_DE_EN, lines), cache_dir=cache)
        runs = counter.read_text().count("run")
        files = sorted(cache.rglob("*"))
        assert runs == 25
        rtt = list(iter_rtt(lines, NOISY_DE_EN, cat, jobs=2, cache_dir=cache))
        assert len(rtt) == 100
        assert counter.read_text().count("run") == runs
        assert sorted(cache.rglob("*")) == files

    def test_arguments_checked_before_any_line_is_read(self):
        def lines():
            raise AssertionError("read")
            yield ""

        for kwargs, match in (({"jobs": 0}, "jobs"), ({"filter_sides": "x"}, "filter_sides")):
            with pytest.raises(ValueError, match=match):
                next(iter_rtt(lines(), IDENT_DE_EN, IDENT_EN_DE, **kwargs))
        with pytest.raises(ValueError, match="compose"):
            next(iter_rtt(lines(), IDENT_DE_EN, IDENT_DE_EN))

    def test_memory_does_not_grow_with_the_corpus(self):
        channel = dataclasses.replace(NOISY_DE_EN, batch_size=16)

        def corpus(n):
            # Long lines, so that a chunk's text outweighs allocator noise.
            return (f"satz {i} " + "über die straße der stadt " * 10 for i in range(n))

        def peak(n):
            gc.collect()
            tracemalloc.start()
            try:
                for _ in iter_rtt(corpus(n), channel, _cat_en_de(16)):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Chunks of 16 * 8 = 128 lines: 2 of them, then 16.
        small, large = peak(256), peak(8 * 256)
        assert large <= 1.5 * small, (small, large)


class TestMakeTrainingPairs:
    PAIRS = [RttPair(original="y", round_trip="r"), RttPair(original="b c", round_trip="b d")]

    def test_normal_direction(self):
        out = make_training_pairs(self.PAIRS, "normal")
        assert out[0] == SentencePair(source="r", target="y")

    def test_reverse_direction(self):
        out = make_training_pairs(self.PAIRS, "reverse")
        assert out[0] == SentencePair(source="y", target="r")

    def test_reverse_equals_swapped_normal(self):
        normal = make_training_pairs(self.PAIRS, "normal")
        reverse = make_training_pairs(self.PAIRS, "reverse")
        assert reverse == [SentencePair(p.target, p.source) for p in normal]

    def test_ratio_filter_applies(self):
        pairs = [RttPair(original="a", round_trip="w x y z q")]
        assert make_training_pairs(pairs, "normal") == []

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            make_training_pairs(self.PAIRS, "sideways")


class TestApplyApe:
    HALVES = SplitHalves(source_original=(0, 2), target_original=(1, 3))
    DENOISER = BackendSpec.toy_denoiser(ChannelConfig(lexicon={"bad": "good"}))

    def test_identity_backend_changes_nothing(self):
        hyp = ["a", "b", "c"]
        out, report = apply_ape(hyp, BackendSpec.identity())
        assert out == hyp
        assert report.changed_per_iteration == [0]

    def test_idempotent_denoiser_fixed_point(self):
        hyp = ["bad day", "fine", "bad bad", "all good"]
        once, _ = apply_ape(hyp, self.DENOISER, mode=ApeMode(iterations=1))
        twice, report = apply_ape(hyp, self.DENOISER, mode=ApeMode(iterations=2))
        assert twice == once
        assert report.changed_per_iteration[1] == 0

    def test_selective_scope_leaves_rest_byte_identical(self):
        hyp = ["bad 0", "bad 1", "bad 2", "bad 3"]
        out, report = apply_ape(
            hyp, self.DENOISER, self.HALVES, ApeMode(scope="target_original_only")
        )
        assert out == ["bad 0", "good 1", "bad 2", "good 3"]
        assert report.scope_size == 2

    def test_line_count_and_order_preserved(self):
        hyp = [f"bad line {i}" for i in range(7)]
        out, _ = apply_ape(hyp, self.DENOISER)
        assert len(out) == len(hyp)
        assert [line.split()[-1] for line in out] == [str(i) for i in range(7)]

    def test_selective_requires_halves(self):
        with pytest.raises(ValueError, match="halves"):
            apply_ape(["x"], self.DENOISER, None, ApeMode(scope="target_original_only"))

    def test_halves_must_fit(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_ape(["x"], self.DENOISER, self.HALVES, ApeMode(scope="target_original_only"))

    def test_change_report_counts_byte_changes(self):
        hyp = ["bad one", "clean", "bad two"]
        _, report = apply_ape(hyp, self.DENOISER)
        assert report.lines == 3
        assert report.changed_per_iteration == [2]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ApeMode(scope="everything")
        with pytest.raises(ValueError):
            ApeMode(iterations=0)
