"""Backend behavior: toy channel determinism, denoiser idempotence, command
and HTTP framing, caching, order preservation, and spec files read strictly."""

import contextlib
import http.server
import json
import os
import random
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtt_ape.backends import (
    MAX_JOBS,
    BackendSpec,
    ChannelConfig,
    _cache_read,
    _cache_write,
    channel_apply,
    spec_from_dict,
    translate_batch,
)
from rtt_ape.errors import BackendError, DataError

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"

UPPERCASE_CMD = 'python3 -c "import sys; sys.stdout.write(sys.stdin.read().upper())"'

# Characters that str.splitlines() or universal newlines treat as line
# breaks, though "\n" alone frames lines.
LINE_BREAK_LOOKALIKES = "\r\f\v\x1c\x1d\x1e\x85\u2028\u2029"
LINE = st.text(
    alphabet=st.one_of(
        st.sampled_from(LINE_BREAK_LOOKALIKES),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    ),
    max_size=20,
)


class TestChannelConfig:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ChannelConfig(drop_prob=1.5)

    def test_lexicon_tokens_must_be_single_words(self):
        with pytest.raises(ValueError):
            ChannelConfig(lexicon={"two words": "x"})


class TestChannelApply:
    def test_identity_with_no_noise(self):
        cfg = ChannelConfig()
        assert channel_apply(cfg, "gut  gut schlecht", 0) == "gut  gut schlecht"

    def test_pure_substitution(self):
        cfg = ChannelConfig(lexicon={"gut": "fein"})
        assert channel_apply(cfg, "gut gut schlecht", 0) == "fein fein schlecht"

    def test_deterministic(self):
        cfg = ChannelConfig(lexicon={"a": "b"}, drop_prob=0.3, swap_prob=0.3, seed=9)
        line = "a b c d e f g h"
        assert channel_apply(cfg, line, 5) == channel_apply(cfg, line, 5)

    def test_a_shared_generator_gives_the_outputs_of_fresh_ones(self):
        cfg = ChannelConfig(lexicon={"a": "z"}, drop_prob=0.3, swap_prob=0.3, seed=7)
        line = "a b c d e f g h"
        frozen = ["b z e h", "b z d e f h c", "b d e c f g h", "c b f g h", "c d b f h g", "e g h"]
        assert [channel_apply(cfg, line, salt) for salt in range(6)] == frozen
        rng = random.Random(123)
        assert [channel_apply(cfg, line, salt, rng) for salt in range(6)] == frozen
        spec = BackendSpec.toy_channel(cfg)
        assert translate_batch(spec, [line] * 4, start=2) == frozen[2:]

    def test_salt_varies_noise(self):
        cfg = ChannelConfig(drop_prob=0.4, seed=1)
        line = "a b c d e f g h i j"
        outputs = {channel_apply(cfg, line, salt) for salt in range(20)}
        assert len(outputs) > 1

    def test_drops_remove_tokens(self):
        cfg = ChannelConfig(drop_prob=1.0)
        assert channel_apply(cfg, "a b c", 0) == ""

    @given(st.lists(st.sampled_from("a b c x y".split()), min_size=1, max_size=15))
    def test_vocabulary_containment(self, tokens):
        cfg = ChannelConfig(lexicon={"a": "z", "b": "z"}, drop_prob=0.2, swap_prob=0.2, seed=3)
        line = " ".join(tokens)
        out_vocab = set(channel_apply(cfg, line, 0).split())
        allowed = set(cfg.lexicon.values()) | set(tokens)
        assert out_vocab <= allowed

    def test_many_to_one_shrinks_vocabulary(self):
        cfg = ChannelConfig(lexicon={"a": "z", "b": "z"})
        lines = ["a b c", "b c a", "c c b"]
        out = [channel_apply(cfg, line, i) for i, line in enumerate(lines)]
        in_vocab = {t for line in lines for t in line.split()}
        out_vocab = {t for line in out for t in line.split()}
        assert len(out_vocab) <= len(in_vocab)


class TestToyDenoiser:
    SPEC = BackendSpec.toy_denoiser(ChannelConfig(lexicon={"erhält": "empfängt"}))

    def denoise(self, line: str) -> str:
        return translate_batch(self.SPEC, [line])[0]

    def test_inverse_substitution(self):
        assert self.denoise("Obama erhält Netanjahu") == "Obama empfängt Netanjahu"

    def test_untouched_line_returned_verbatim(self):
        line = "no  lexicon words  here"
        assert self.denoise(line) is line

    def test_idempotent(self):
        once = self.denoise("Obama erhält Netanjahu erhält")
        assert self.denoise(once) == once


class TestTranslateBatch:
    def test_identity(self):
        spec = BackendSpec.identity()
        assert translate_batch(spec, ["x", "y"]) == ["x", "y"]

    def test_toy_channel_word_choice(self):
        channel = ChannelConfig(lexicon={"empfängt": "receives", "erhält": "receives"})
        spec = BackendSpec.toy_channel(channel, from_lang="de", to_lang="en")
        assert translate_batch(spec, ["Obama empfängt Netanjahu"]) == ["Obama receives Netanjahu"]

    def test_toy_channel_round_trip_degrades_word_choice(self):
        to_en = BackendSpec.toy_channel(
            ChannelConfig(lexicon={"empfängt": "receives", "erhält": "receives"}),
            from_lang="de", to_lang="en",
        )
        to_de = BackendSpec.toy_channel(
            ChannelConfig(lexicon={"receives": "erhält"}), from_lang="en", to_lang="de"
        )
        pivot = translate_batch(to_en, ["Obama empfängt Netanjahu"])
        assert translate_batch(to_de, pivot) == ["Obama erhält Netanjahu"]

    def test_command_backend(self):
        spec = BackendSpec(kind="command", command_template=UPPERCASE_CMD, batch_size=2)
        out = translate_batch(spec, ["hello", "world", "again"])
        assert out == ["HELLO", "WORLD", "AGAIN"]

    def test_command_placeholders(self):
        spec = BackendSpec(
            kind="command",
            from_lang="de",
            to_lang="en",
            command_template='python3 -c "import sys; [print(\'{from}-{to}\') for _ in sys.stdin]"',
        )
        assert translate_batch(spec, ["x", "y"]) == ["de-en", "de-en"]

    def test_command_length_mismatch(self):
        spec = BackendSpec(
            kind="command",
            command_template='python3 -c "print(\'only one line\')"',
            retries=0,
        )
        with pytest.raises(BackendError, match="2 inputs"):
            translate_batch(spec, ["a", "b"])

    def test_command_failure_carries_index_range(self):
        spec = BackendSpec(kind="command", command_template="false", retries=1, batch_size=4)
        with pytest.raises(BackendError) as exc_info:
            translate_batch(spec, ["a", "b", "c"])
        assert exc_info.value.first_line == 0
        assert exc_info.value.last_line == 2

    def test_command_timeout_is_retried_then_a_backend_error(self):
        spec = BackendSpec(kind="command", command_template="sleep 5", timeout=0.1, retries=1)
        with pytest.raises(BackendError, match="after 2 attempts: .* timed out after 0.1 seconds"):
            translate_batch(spec, ["a"])

    @pytest.mark.parametrize("pidfd", [True, False])
    def test_a_command_that_closes_its_output_and_hangs_still_times_out(
            self, monkeypatch, pidfd):
        # Blocking on the command's exit (a pidfd), or where there is no
        # pidfd, waiting with a timeout.
        if not pidfd:
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        spec = BackendSpec(kind="command", command_template="sh -c 'exec >&- 2>&-; sleep 5'",
                           timeout=0.2, retries=0, batch_size=2)
        started = time.monotonic()
        with pytest.raises(BackendError, match=(
                r"after 1 attempts: .* timed out after 0\.2 seconds \(input lines 4\.\.5\)$")
                ) as err:
            translate_batch(spec, ["a", "b"], start=4)
        assert (err.value.first_line, err.value.last_line) == (4, 5)
        assert time.monotonic() - started < 3

    def test_order_preserved_with_parallel_batches(self):
        spec = BackendSpec(kind="command", command_template=UPPERCASE_CMD, batch_size=1)
        lines = [f"line {i}" for i in range(12)]
        assert translate_batch(spec, lines, jobs=4) == [line.upper() for line in lines]

    def test_cardinality_preserved_across_kinds(self):
        lines = ["a a", "b", "c c c"]
        for spec in (
            BackendSpec.identity(),
            BackendSpec.toy_channel(ChannelConfig(drop_prob=0.5, seed=2)),
            BackendSpec.toy_denoiser(ChannelConfig(lexicon={"a": "x"})),
        ):
            assert len(translate_batch(spec, lines)) == len(lines)

    def test_command_cache_hit_skips_rerun(self, tmp_path):
        counter = tmp_path / "invocations"
        cmd = f"bash -c 'cat; echo run >> {counter}'"
        spec = BackendSpec(kind="command", command_template=cmd, batch_size=10)
        cache = tmp_path / "cache"
        first = translate_batch(spec, ["a", "b"], cache_dir=cache)
        second = translate_batch(spec, ["a", "b"], cache_dir=cache)
        assert first == second == ["a", "b"]
        assert counter.read_text().count("run") == 1

    def test_cache_key_distinguishes_inputs(self, tmp_path):
        spec = BackendSpec(kind="command", command_template=UPPERCASE_CMD)
        cache = tmp_path / "cache"
        assert translate_batch(spec, ["a"], cache_dir=cache) == ["A"]
        assert translate_batch(spec, ["b"], cache_dir=cache) == ["B"]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(LINE, min_size=1, max_size=8))
    def test_any_line_survives_cat_cold_and_cached(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            counter = Path(tmp) / "invocations"
            cmd = f"bash -c 'cat; echo run >> {counter}'"
            spec = BackendSpec(kind="command", command_template=cmd, batch_size=3)
            cache = Path(tmp) / "cache"
            assert translate_batch(spec, lines, cache_dir=cache) == lines
            runs = counter.read_text().count("run")
            assert translate_batch(spec, lines, cache_dir=cache) == lines
            assert counter.read_text().count("run") == runs

    def test_newline_inside_a_line_is_rejected_before_any_batch(self, tmp_path):
        counter = tmp_path / "invocations"
        cmd = f"bash -c 'cat; echo run >> {counter}'"
        spec = BackendSpec(kind="command", command_template=cmd, batch_size=1)
        cache = tmp_path / "cache"
        with pytest.raises(DataError, match="input line 2 contains a newline"):
            translate_batch(spec, ["a", "b", "c\nd", "e"], cache_dir=cache)
        assert not counter.exists()
        assert not cache.exists()
        with pytest.raises(DataError, match="input line 0 "):
            translate_batch(BackendSpec.identity(), ["a\nb", "c"])

    @pytest.mark.parametrize("jobs", [0, -1, MAX_JOBS + 1, 2.0, "4"])
    def test_jobs_out_of_range_is_rejected_before_any_batch(self, tmp_path, jobs):
        counter = tmp_path / "invocations"
        cmd = f"bash -c 'cat; echo run >> {counter}'"
        spec = BackendSpec(kind="command", command_template=cmd, batch_size=1)
        with pytest.raises(ValueError, match=f"from 1 to {MAX_JOBS}, got {jobs!r}"):
            translate_batch(spec, ["a", "b"], jobs=jobs)
        with pytest.raises(ValueError):
            translate_batch(BackendSpec.identity(), ["a"], jobs=jobs)
        assert not counter.exists()

    def test_max_jobs_is_accepted(self):
        # Through the identity backend, which starts no thread.
        assert translate_batch(BackendSpec.identity(), ["a"], jobs=MAX_JOBS) == ["a"]

    def test_start_offsets_salts_and_error_lines(self):
        noisy = BackendSpec.toy_channel(ChannelConfig(drop_prob=0.3, swap_prob=0.3, seed=5))
        lines = [f"ein satz mit der nummer {i}" for i in range(10)]
        pieces = translate_batch(noisy, lines[:4]) + translate_batch(noisy, lines[4:], start=4)
        assert pieces == translate_batch(noisy, lines)
        with pytest.raises(DataError, match="input line 11 contains a newline"):
            translate_batch(BackendSpec.identity(), ["a", "b\nc"], start=10)
        failing = BackendSpec(kind="command", command_template="false", retries=0, batch_size=2)
        with pytest.raises(BackendError) as exc_info:
            translate_batch(failing, ["a", "b", "c"], start=100)
        assert (exc_info.value.first_line, exc_info.value.last_line) == (100, 101)

    def test_a_failure_in_a_worker_process_keeps_its_lines(self):
        # Batches of 2 lines, taken in turn by two processes: the second,
        # which holds BOOM, runs in the forked child.
        failing = BackendSpec(kind="command", command_template="awk '/BOOM/ { exit 1 } { print }'",
                              retries=0, batch_size=2)
        with pytest.raises(BackendError, match=r"failed after 1 attempts") as err:
            translate_batch(failing, ["a", "b", "c", "BOOM", "e"], jobs=2, start=10)
        assert (err.value.first_line, err.value.last_line) == (12, 13)

    def test_command_invalid_utf8_names_batch_lines(self):
        cmd = r'''python3 -c "import sys; sys.stdin.read(); sys.stdout.buffer.write(b'ok\n\xff\n')"'''
        spec = BackendSpec(kind="command", command_template=cmd, batch_size=2)
        with pytest.raises(BackendError, match="invalid UTF-8") as exc_info:
            translate_batch(spec, ["a", "b", "c"])
        assert (exc_info.value.first_line, exc_info.value.last_line) == (0, 1)


def test_concurrent_cache_writes_of_one_batch(tmp_path):
    path = tmp_path / "backend" / "batch.txt"
    lines = [f"line {i}" for i in range(200)]
    errors = []

    def writer():
        try:
            for _ in range(100):
                _cache_write(path, lines)
        except OSError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert _cache_read(path, len(lines)) == lines
    assert list(path.parent.iterdir()) == [path]


class _EchoUpperHandler(http.server.BaseHTTPRequestHandler):
    transform = staticmethod(str.upper)

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        body = json.dumps({"lines": [self.transform(line) for line in payload["lines"]]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _EchoHandler(_EchoUpperHandler):
    transform = staticmethod(str)


@contextlib.contextmanager
def _serve(handler):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/translate"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class _FramingBreakingHandler(_EchoUpperHandler):
    """Sends "null" back as JSON null, and "|" as a newline."""

    transform = staticmethod(lambda line: None if line == "null" else line.replace("|", "\n"))


@pytest.fixture()
def http_backend_url():
    with _serve(_EchoUpperHandler) as url:
        yield url


@pytest.fixture(scope="module")
def http_echo_url():
    # Module scope: hypothesis refuses function-scoped fixtures, which it
    # could not reset between examples.
    with _serve(_EchoHandler) as url:
        yield url


class TestHttpBackend:
    def test_round_trip(self, http_backend_url):
        spec = BackendSpec(kind="http", url=http_backend_url, batch_size=2, timeout=5)
        assert translate_batch(spec, ["ab", "cd", "ef"]) == ["AB", "CD", "EF"]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(LINE, min_size=1, max_size=8))
    def test_any_line_survives_http(self, http_echo_url, lines):
        spec = BackendSpec(kind="http", url=http_echo_url, batch_size=3, timeout=5, retries=0)
        assert translate_batch(spec, lines) == lines

    @pytest.mark.parametrize("bad, shown", [("null", "None"), ("a|b", "'a\\nb'")])
    def test_a_reply_that_is_not_one_line_of_text_fails_its_batch(self, tmp_path, bad, shown):
        """The batch fails as a reply without a 'lines' list does, and is
        not cached, so its cache file cannot hold a misframed line."""
        with _serve(_FramingBreakingHandler) as url:
            spec = BackendSpec(kind="http", url=url, batch_size=2, timeout=5, retries=0)
            with pytest.raises(BackendError) as raised:
                translate_batch(spec, ["ok", "fine", "also", bad], cache_dir=tmp_path)
        assert str(raised.value) == (
            "http backend failed after 1 attempts: http backend response item 1 of 'lines' "
            f"is not a line of text: {shown} (input lines 2..3)")
        assert len(list(tmp_path.rglob("*.txt"))) == 1  # the first batch only

    def test_unreachable_endpoint(self):
        spec = BackendSpec(kind="http", url="http://127.0.0.1:9/none", retries=0, timeout=0.2)
        with pytest.raises(BackendError):
            translate_batch(spec, ["x"])


class TestSpecFromDict:
    def test_round_trip_through_json(self):
        spec = BackendSpec.toy_channel(
            ChannelConfig(lexicon={"a": "b"}, drop_prob=0.1, seed=4), from_lang="de", to_lang="en"
        )
        rebuilt = spec_from_dict(json.loads(json.dumps(spec.as_dict())))
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown backend kind"):
            spec_from_dict({"kind": "quantum"})

    def test_every_readme_spec_reads(self):
        section = README.read_text(encoding="utf-8").split("### Backend specs", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        specs = [json.loads(chunk) for chunk in block.split("\n\n")]
        assert [spec_from_dict(spec).kind for spec in specs] == [
            "command", "http", "toy_channel", "toy_denoiser"]

    def test_keys_are_the_fields_and_missing_ones_keep_their_defaults(self):
        assert spec_from_dict({"kind": "command", "command": "cat"}) == BackendSpec(
            kind="command", command_template="cat")
        spec = spec_from_dict({"kind": "toy_channel", "channel": {"drop_prob": 1}})
        assert spec.channel == ChannelConfig(drop_prob=1.0)
        assert type(spec.channel.drop_prob) is float

    def test_a_denoiser_with_noise_is_rejected_however_it_is_built(self):
        with pytest.raises(ValueError, match="drop_prob and swap_prob must be 0"):
            BackendSpec.toy_denoiser(ChannelConfig(lexicon={"a": "b"}, swap_prob=0.1))

    def test_pinned_fingerprints(self):
        """A spec's fingerprint names its cache directory, so a changed one
        orphans every cache written before.  The table holds the README's
        specs, the golden and benchmark specs, and specs with integer-valued
        numbers and unsorted lexicons."""
        table = json.loads((DATA / "spec_fingerprints.json").read_text(encoding="utf-8"))
        assert {name: spec_from_dict(row["spec"]).fingerprint() for name, row in table.items()} == {
            name: row["fingerprint"] for name, row in table.items()}

    def test_fingerprint_differs_by_config(self):
        a = BackendSpec(kind="command", command_template="cat")
        b = BackendSpec(kind="command", command_template="tac")
        assert a.fingerprint() != b.fingerprint()
