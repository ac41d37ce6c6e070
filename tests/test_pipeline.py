"""Round-trip generation, training-pair emission, and APE application."""

import dataclasses
import gc
import os
import signal
import threading
import time
import tracemalloc

import pytest
from conftest import child_pids, command_killing_its_worker

from rtt_ape import pipeline
from rtt_ape.backends import BackendSpec, ChannelConfig, translate_batch
from rtt_ape.corpus import SentencePair, mono_filter
from rtt_ape.errors import BackendError
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
        # Chunks of lcm(3, 4) = 12 lines; the noisy channel's salts must
        # still count from the start of the corpus.
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


def _command(cmd: str, from_lang: str, to_lang: str, batch_size: int) -> BackendSpec:
    return BackendSpec(kind="command", from_lang=from_lang, to_lang=to_lang,
                       command_template=cmd, batch_size=batch_size, retries=0)


def _cache_contents(cache) -> dict:
    return {p.relative_to(cache): p.read_bytes() for p in cache.rglob("*") if p.is_file()}


def _running(pid: int) -> bool:
    """Whether process ``pid`` runs: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestPipelinedIterRtt:
    """With jobs > 1, chunk k of a re-iterable input is translated by worker
    process k mod jobs (up to the usable cores): this one or a forked child,
    each running its chunk's batches in turn."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        """Two usable cores, so that jobs 2 forks a worker on any machine."""
        monkeypatch.setattr(pipeline, "usable_cores", lambda: 2)

    def test_command_backends_both_ways_match_whole_corpus_calls(self, tmp_path, monkeypatch):
        # Chunks of lcm(3, 4) = 12 lines.
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        to_en = _command("tr aeiou AEIOU", "de", "en", 3)
        to_de = _command("tr st TS", "en", "de", 4)
        lines = [f"satz {i} auf der straße" for i in range(100)] + ["x" * 600, "ende"]
        numbers = [n for n, line in enumerate(lines, 1) if mono_filter(line)]
        kept = [line for line in lines if mono_filter(line)]
        pivot = translate_batch(to_en, kept, cache_dir=tmp_path / "whole")
        round_trips = translate_batch(to_de, pivot, cache_dir=tmp_path / "whole")
        got = list(iter_rtt(lines, to_en, to_de, jobs=2, cache_dir=tmp_path / "chunked"))
        assert got == [(n, p, RttPair(o, r))
                       for n, o, p, r in zip(numbers, kept, pivot, round_trips)]
        assert got[0][2] == RttPair("satz 0 auf der straße", "TASz 0 AUf dEr TSrAßE")
        assert _cache_contents(tmp_path / "chunked") == _cache_contents(tmp_path / "whole")

    @staticmethod
    def _fail_at(boom: int, failing_side: str) -> tuple[list, BackendError]:
        """The pairs yielded before the error, and the error, when line
        ``boom`` of 16 fails on one side.  Chunks of 2 * 2 batches = 4 lines,
        taken in turn by this process and the child."""
        failing = "awk '/BOOM/ { exit 1 } { print }'"
        to_en = _command(failing if failing_side == "pivot" else "cat", "de", "en", 2)
        to_de = _command(failing if failing_side == "return" else "cat", "en", "de", 2)
        lines = [f"satz {i}" for i in range(1, 17)]
        lines[boom - 1] = "BOOM"
        got = []
        with pytest.raises(BackendError) as err:
            for item in iter_rtt(lines, to_en, to_de, jobs=2):
                got.append(item)
        return got, err.value

    @pytest.mark.parametrize("failing_side", ["pivot", "return"])
    def test_backend_error_comes_after_the_chunks_before_it(self, monkeypatch, failing_side):
        # Line 11 is in the third chunk, which this process translates.
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 2)
        got, err = self._fail_at(11, failing_side)
        assert str(err).endswith("(input lines 11..12)")
        assert got == [(n, f"satz {n}", RttPair(f"satz {n}", f"satz {n}")) for n in range(1, 9)]

    @pytest.mark.parametrize("failing_side", ["pivot", "return"])
    def test_a_backend_error_in_a_child_keeps_its_lines(self, monkeypatch, failing_side):
        # Line 15 is in the fourth chunk, which the child translates: the
        # error crosses the pipe whole, after the twelve pairs before it.
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 2)
        got, err = self._fail_at(15, failing_side)
        assert str(err) == ("command backend failed after 1 attempts: command backend exited 1:  "
                            "(input lines 15..16)")
        assert (err.first_line, err.last_line) == (15, 16)
        assert got == [(n, f"satz {n}", RttPair(f"satz {n}", f"satz {n}")) for n in range(1, 13)]

    @pytest.mark.parametrize("boom", [4, 5])
    def test_a_backend_error_names_its_input_line_past_a_filtered_one(self, monkeypatch, boom):
        # One-line chunks: kept line 3 (input line 4) is this process's,
        # kept line 4 (input line 5) the child's.
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        failing = _command("awk '/BOOM/ { exit 1 } { print }'", "en", "de", 1)
        lines = ["eins", "x" * 600, "zwei", "drei", "vier"]
        lines[boom - 1] = "BOOM"
        with pytest.raises(BackendError) as err:
            list(iter_rtt(lines, IDENT_DE_EN, failing, jobs=2))
        assert str(err.value).endswith(f"(input lines {boom}..{boom})")

    def test_a_worker_killed_by_a_signal_names_its_lines(self, monkeypatch):
        # Chunks of lcm(3, 4) = 12 lines: the child translates the second.
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        parent, real = os.getpid(), pipeline.translate_batch

        def translate(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "translate_batch", translate)
        got = []
        with pytest.raises(ChildProcessError, match=(
                r"^rtt-gen worker for input lines 13\.\.24 ended without a result "
                r"\(killed by SIGKILL\)$")):
            for item in iter_rtt([f"satz {i}" for i in range(40)], NOISY_DE_EN, _cat_en_de(4),
                                 jobs=2):
                got.append(item)
        assert [n for n, _, _ in got] == list(range(1, 13))

    def test_a_dead_batch_worker_names_its_input_line(self, monkeypatch):
        # One reader, which runs its batches in two processes: kept line 2
        # (input line 3) is the forked batch worker's, and its command kills it.
        monkeypatch.setattr(pipeline, "usable_cores", lambda: 1)
        boom = _command(command_killing_its_worker(), "en", "de", 1)
        with pytest.raises(BackendError) as err:
            list(iter_rtt(["eins", "x" * 600, "BOOM", "zwei", "drei"], IDENT_DE_EN, boom, jobs=2))
        assert str(err.value) == ("backend worker ended without a result (killed by SIGKILL) "
                                  "(input lines 3..3)")

    def test_closing_the_generator_early_stops_every_worker(self):
        before = child_pids()
        rtt = iter_rtt([f"satz {i}" for i in range(1000)], NOISY_DE_EN, _cat_en_de(4), jobs=2)
        assert len(child_pids() - before) == 1  # the worker, forked by the call
        next(rtt)
        rtt.close()
        assert child_pids() == before

    def test_closing_early_kills_the_commands_of_a_worker(self, tmp_path, monkeypatch):
        # Chunks of lcm(1, 4) = 4 lines.  The child's command, on the second
        # chunk, would sleep for a minute, and nothing would time it out
        # once its worker was killed.
        if not os.path.exists("/proc/self/stat"):
            pytest.skip("needs /proc to see the command")
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        pid_file, script = tmp_path / "sleep.pid", tmp_path / "slow.sh"
        script.write_text('input=$(cat)\n'
                          'case "$input" in *slow*) echo $$ > "$1.tmp"; mv "$1.tmp" "$1"; '
                          'exec sleep 60;; esac\n'
                          'printf "%s\\n" "$input"\n')
        slow = _command(f"sh {script} {pid_file}", "en", "de", 4)
        to_en = dataclasses.replace(IDENT_DE_EN, batch_size=1)
        rtt = iter_rtt(["satz"] * 4 + ["slow"] * 4, to_en, slow, jobs=2)
        assert next(rtt) == (1, "satz", RttPair("satz", "satz"))
        deadline = time.monotonic() + 10
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        pid = int(pid_file.read_text())
        rtt.close()
        deadline = time.monotonic() + 2  # for its new parent to reap it
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(pid)

    def test_an_error_in_the_consumer_stops_every_worker(self):
        before = child_pids()
        with pytest.raises(RuntimeError, match="consumer"):
            for _ in iter_rtt([f"satz {i}" for i in range(1000)], NOISY_DE_EN, _cat_en_de(4),
                              jobs=3):
                raise RuntimeError("consumer")
        assert child_pids() == before

    def test_an_iterator_is_read_by_this_process_alone(self, tmp_path, monkeypatch):
        # Forked workers would share the file's offset.  Chunks of 12 lines.
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        lines = [f"satz {i} auf der straße" for i in range(2000)]
        path = tmp_path / "mono.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        cat, cache = _cat_en_de(4), tmp_path / "cache"
        expected = generate_rtt(lines, NOISY_DE_EN, cat, jobs=1, cache_dir=cache / "1")
        with open(path, encoding="utf-8") as fh:
            assert generate_rtt((line.rstrip("\n") for line in fh), NOISY_DE_EN, cat, jobs=2,
                                cache_dir=cache / "2") == expected
        assert _cache_contents(cache / "2") == _cache_contents(cache / "1")

    def test_resume_over_a_full_cache_submits_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        counter, cache = tmp_path / "runs", tmp_path / "cache"
        cat = _cat_en_de(4, counter)
        lines = [f"satz {i} auf der straße" for i in range(100)]
        cold = list(iter_rtt(lines, NOISY_DE_EN, cat, jobs=2, cache_dir=cache))
        assert counter.read_text().count("run") == 25
        files = {p: p.stat().st_mtime_ns for p in cache.rglob("*")}
        assert list(iter_rtt(lines, NOISY_DE_EN, cat, jobs=2, cache_dir=cache)) == cold
        assert counter.read_text().count("run") == 25
        assert {p: p.stat().st_mtime_ns for p in cache.rglob("*")} == files

    def test_jobs_1_is_serial_and_starts_no_process(self, monkeypatch):
        # Chunks of lcm(3, 4) = 12 lines, each read and translated just
        # before its pairs are yielded.
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 1)
        monkeypatch.setattr(os, "fork", None)  # calling it fails the test
        read = []

        def lines():
            for i in range(50):
                read.append(i)
                yield f"satz {i}"

        before = set(threading.enumerate())
        for n, _, _ in iter_rtt(lines(), NOISY_DE_EN, _cat_en_de(4)):
            assert len(read) == min(50, (n + 11) // 12 * 12)
            assert set(threading.enumerate()) == before

    def test_resume_holds_one_chunk_like_jobs_1(self, tmp_path, monkeypatch):
        # Chunks of 16 * 8 = 128 lines at jobs 1, and for each worker at jobs
        # 2: this process translates every second chunk of a list and takes
        # the others from the child, one at a time.  An iterator it reads
        # alone, in chunks of 2 * 128 lines whose batches it shares with a
        # child, holding one chunk like jobs 1 with chunks of that size.
        channel = dataclasses.replace(NOISY_DE_EN, batch_size=16)
        cat, cache = _cat_en_de(16), tmp_path / "cache"
        lines = [f"satz {i} " + "über die straße der stadt " * 10 for i in range(1024)]
        monkeypatch.setattr(pipeline, "CHUNK_BATCHES", 8)
        cold = list(iter_rtt(lines, channel, cat, cache_dir=cache))  # also warms up

        def peak(source, jobs, chunk_batches=8):
            monkeypatch.setattr(pipeline, "CHUNK_BATCHES", chunk_batches)
            gc.collect()
            tracemalloc.start()
            try:
                for _ in iter_rtt(source(), channel, cat, jobs=jobs, cache_dir=cache):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The best of two passes each: a one-off growth of an interpreter
        # table (the interned strings) can land in either.
        whole, once = (lambda: lines), (lambda: iter(lines))
        serial, pooled = min(peak(whole, 1), peak(whole, 1)), min(peak(whole, 2), peak(whole, 2))
        assert list(iter_rtt(lines, channel, cat, jobs=2, cache_dir=cache)) == cold
        assert pooled <= 1.2 * serial, (serial, pooled)
        serial = min(peak(whole, 1, 16), peak(whole, 1, 16))
        pooled = min(peak(once, 2), peak(once, 2))
        assert pooled <= 1.2 * serial, (serial, pooled)

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
        for scope in ("target_original_only", "all"):
            with pytest.raises(ValueError, match="out of range"):
                apply_ape(["x"], self.DENOISER, self.HALVES, ApeMode(scope=scope))

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
