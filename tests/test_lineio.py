"""Line I/O: atomic writes, byte-stable gzip output, and input that is not
UTF-8."""

import contextlib
import errno
import gc
import gzip
import hashlib
import io
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import child_pids
from rtt_ape import lineio, parallel
from rtt_ape.errors import DataError
from rtt_ape.lineio import (
    atomic_open, iter_aligned, iter_lines, open_lines, read_aligned, read_lines, write_lines,
)


def test_fingerprints_use_hashlibs_own_blake2b():
    """Imported from ``_blake2`` so that no start loads OpenSSL, it is the
    very function ``hashlib`` exports: cache file names, dedup fingerprints
    and manifest digests keep their bytes."""
    assert lineio.blake2b is hashlib.blake2b


def test_gz_output_does_not_depend_on_clock_or_name(tmp_path, monkeypatch):
    lines = [f"zeile {i} über straßen" for i in range(100)]
    monkeypatch.setattr(time, "time", lambda: 1_000_000_000.0)
    write_lines(tmp_path / "a.txt.gz", lines)
    monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
    write_lines(tmp_path / "b.txt.gz", lines)
    data = (tmp_path / "a.txt.gz").read_bytes()
    assert data == (tmp_path / "b.txt.gz").read_bytes()
    # No FNAME flag, mtime 0, and the XFL of the level: 2 at level 9, 4 at
    # level 1, 0 at any other.
    xfl = {9: 2, 1: 4}.get(lineio.GZIP_LEVEL, 0)
    assert data[3] == 0 and data[4:8] == bytes(4) and data[8] == xfl
    assert gzip.decompress(data).decode("utf-8") == "".join(line + "\n" for line in lines)
    assert read_lines(tmp_path / "a.txt.gz") == lines


@pytest.mark.parametrize("name", ["in.txt", "in.txt.gz"])
@pytest.mark.parametrize("read", [read_lines, lambda path: list(iter_lines(path))])
def test_a_line_that_is_not_utf8_names_the_file_and_line(tmp_path, name, read):
    """The bad byte sits past the first 8 KiB, so a decode chunk's position
    would not be the file's."""
    data = b"".join(b"line %d of plain text\n" % i for i in range(2000)) + b"bad \xff\nok\n"
    assert data.index(b"\xff") > 8192
    path = tmp_path / name
    path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    with pytest.raises(DataError) as raised:
        read(path)
    assert str(raised.value) == f"{path}:2001: not valid UTF-8"


@contextlib.contextmanager
def _pipe(fifo: Path, data: bytes) -> Iterator[Path]:
    """``fifo``, which a child fills with ``data`` once and closes: to read
    it again would wait for a writer for good."""
    source = fifo.with_name(fifo.name + ".data")
    source.write_bytes(data)
    os.mkfifo(fifo)
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(source), str(fifo)])
    try:
        yield fifo
    finally:
        writer.kill()
        writer.wait()


@pytest.mark.parametrize("name", ["in.fifo", "in.fifo.gz"])
def test_a_pipe_that_is_not_utf8_names_the_line_in_one_pass(tmp_path, name):
    data = b"".join(b"line %d of plain text\n" % i for i in range(2000)) + b"bad \xff\nok\n"
    data = gzip.compress(data) if name.endswith(".gz") else data
    with _pipe(tmp_path / name, data) as fifo, _deadline(20, "the pipe was read again"):
        with pytest.raises(DataError) as raised:
            read_lines(fifo)
    assert str(raised.value) == f"{fifo}:2001: not valid UTF-8"


@pytest.mark.parametrize(("data", "message"), [
    (b'{"a": 1}', "expected a list"),
    (b'{"a": 1', "Expecting ',' delimiter: line 1 column 8 (char 7)"),
    (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
])
def test_a_bad_json_input_names_the_file(tmp_path, data, message):
    def build(value):
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return value

    path = tmp_path / "in.json"
    path.write_bytes(data)
    with pytest.raises(DataError) as raised:
        lineio.read_json(path, "list file", build)
    assert str(raised.value) == f"bad list file {str(path)!r}: {message}"
    path.write_bytes(b"[1]\r\n")
    assert lineio.read_json(path, "list file", build) == [1]


@pytest.mark.parametrize("name", ["out.txt", "out.txt.gz"])
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_failed_write_leaves_previous_file_and_no_temp_file(tmp_path, name, error):
    out = tmp_path / name
    write_lines(out, ["old"])
    before = out.read_bytes()

    def lines():
        yield "new"
        raise error("stop")

    with pytest.raises(error):
        write_lines(out, lines())
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("name", ["out.txt", "out.txt.gz"])
def test_a_failed_replace_names_the_output(tmp_path, name):
    out = tmp_path / name
    out.mkdir()
    with pytest.raises(DataError) as raised:
        write_lines(out, ["zeile"])
    assert str(raised.value).startswith(f"{out}: [Errno 21] Is a directory: ")
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_an_output_in_a_missing_directory_names_its_temp_file(tmp_path):
    out = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as raised:
        write_lines(out, ["zeile"])
    assert re.fullmatch(rf"\[Errno 2\] No such file or directory: '{re.escape(str(out))}"
                        r"\.tmp\d+-\d+'", str(raised.value))


def test_atomic_open_writes_only_on_success(tmp_path):
    out = tmp_path / "out.txt"
    with atomic_open(out) as fh:
        fh.write("a\r b\n")
        assert not out.exists()
    assert out.read_bytes() == "a\r b\n".encode("utf-8")


LINE = st.text(
    alphabet=st.one_of(
        st.sampled_from("\r\f\v\x85\u2028\u2029"),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    ),
    max_size=40,
)


def _single_threaded_gzip(lines: list[str]) -> bytes:
    buf = io.BytesIO()
    gz = gzip.GzipFile(filename="", mode="wb", compresslevel=lineio.GZIP_LEVEL, fileobj=buf,
                       mtime=0)
    with io.TextIOWrapper(gz, encoding="utf-8", newline="\n") as text:
        for line in lines:
            text.write(line + "\n")
    return buf.getvalue()


@contextlib.contextmanager
def _in_process(how: str = "no fork"):
    """Force the .gz writer onto its in-process path: with ``os.fork``
    missing, or beside another running thread."""
    if how == "no fork":
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, "fork")
            yield
        return
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)


def _at_each_path(check: Callable[[str], None]) -> None:
    """``check(path)`` at each of the .gz writer's paths."""
    check("forked")
    for how in ("no fork", "thread"):
        with _in_process(how):
            check(how)


def _children() -> set[int]:
    return child_pids() or set()


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


@contextlib.contextmanager
def _deadline(seconds: int, what: str):
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail(what))
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class TestGzipWriterThread:
    """A .gz output is compressed beside the caller, in a forked child;
    where ``os.fork`` is missing or another thread runs, in this process."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(LINE, max_size=30), st.sampled_from([1, 3, 2000]))
    @example([], 1)
    @example(["eine zeile"], 1)
    def test_bytes_equal_single_threaded_gzip(self, lines, repeat):
        # 2000 repeats of up to 30 lines span many 8 KiB blocks, more than
        # the pipe to the child holds.
        lines = lines * repeat
        expected = _single_threaded_gzip(lines)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "x.gz"

            def check(path: str) -> None:
                with atomic_open(out) as fh:
                    for line in lines:
                        fh.write(line + "\n")
                assert out.read_bytes() == expected, path

            _at_each_path(check)

    @pytest.mark.parametrize("n_lines", [1, 50_000])
    def test_error_on_writer_thread_reaches_the_caller(self, tmp_path, monkeypatch, n_lines):
        """A full disk under the compressor: its error names the output,
        whether the child meets it or this process does."""
        out = tmp_path / "out.txt.gz"
        write_lines(out, ["old"])
        before = out.read_bytes()

        class Full(io.FileIO):
            # The 10-byte gzip header gets through; every later write fails.
            def write(self, data):
                if self.tell() >= 10:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        class FullDisk(lineio._OutputFile, Full):  # the temp file, over a full disk
            pass

        monkeypatch.setattr(lineio, "_OutputFile", FullDisk)

        def check(path: str) -> None:
            with pytest.raises(DataError) as raised:
                write_lines(out, (f"zeile {i}" for i in range(n_lines)))
            writer = "the gzip writer failed: " if path == "forked" else ""
            assert str(raised.value) == f"{out}: {writer}[Errno 28] No space left on device"
            assert out.read_bytes() == before
            assert [p.name for p in tmp_path.iterdir()] == [out.name]
            assert not _children()

        _at_each_path(check)

    def test_a_failed_header_leaves_the_finalizer_nothing_to_write(self, tmp_path):
        """A full disk at the first write, the gzip header's: the caller gets
        the error, and the half-built ``GzipFile`` no file that its finalizer
        would write to again (an error only ``-X dev`` shows), in this
        process or in the forked child."""
        writes = tmp_path / "writes.txt"

        class FullDisk(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                with open(writes, "a", encoding="utf-8") as fh:  # the child's too
                    fh.write(f"{data!r}\n")
                raise OSError(errno.ENOSPC, "No space left on device")

        def check(path: str) -> None:
            with pytest.raises(DataError if path == "forked" else OSError, match="No space"):
                with lineio._gzipped(FullDisk(), tmp_path / "x.gz") as binary:
                    binary.write(b"zeile\n")
            gc.collect()  # frees the traceback, and the half-built file with it
            assert writes.read_text(encoding="utf-8").splitlines() == [repr(b"\x1f\x8b")], path
            writes.unlink()

        _at_each_path(check)

    def test_interrupt_inside_the_block_stops_the_writer(self, tmp_path):
        out = tmp_path / "out.txt.gz"
        write_lines(out, ["old"])
        before = out.read_bytes()

        def check(path: str) -> None:
            with pytest.raises(KeyboardInterrupt):
                with atomic_open(out) as fh:
                    for i in range(50_000):
                        fh.write(f"zeile {i}\n")
                    assert len(_children()) == (path == "forked")
                    raise KeyboardInterrupt
            assert out.read_bytes() == before
            assert [p.name for p in tmp_path.iterdir()] == [out.name]
            assert not _children()

        _at_each_path(check)

    def test_concurrent_writers_under_a_short_switch_interval(self, tmp_path):
        # More writers than cores, beside one another's threads, so each
        # compresses in this process, while the interpreter switches
        # threads as often as it can: every file must still hold its own
        # blocks, in order.
        texts = {i: [f"datei {i} zeile {j} über die straße" for j in range(3000)]
                 for i in range(4)}

        def write(i):
            write_lines(tmp_path / f"{i}.txt.gz", texts[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(i,)) for i in texts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, lines in texts.items():
            assert (tmp_path / f"{i}.txt.gz").read_bytes() == _single_threaded_gzip(lines)


class TestGzipWriterProcess:
    """The forked compressor: how it fails, and that no other process
    keeps its pipe open."""

    def test_a_killed_child_is_an_error_naming_the_output(self, tmp_path, monkeypatch):
        out = tmp_path / "out.txt.gz"
        real_fork = os.fork

        def fork_and_kill():
            pid = real_fork()
            if pid:
                os.kill(pid, signal.SIGKILL)
            return pid

        monkeypatch.setattr(os, "fork", fork_and_kill)
        for n_lines in (1, 50_000):
            with pytest.raises(DataError) as raised:
                write_lines(out, (f"zeile {i}" for i in range(n_lines)))
            assert str(raised.value) == f"{out}: the gzip writer failed: killed by SIGKILL"
            assert list(tmp_path.iterdir()) == []
            assert not _children()

    def test_outputs_closed_in_the_order_they_were_opened(self, tmp_path):
        lines = [f"zeile {i}" for i in range(5000)]
        with _deadline(20, "a compressor waited for a pipe another process held"):
            with contextlib.ExitStack() as first:
                a = first.enter_context(atomic_open(tmp_path / "a.gz"))
                second = atomic_open(tmp_path / "b.gz")
                b = second.__enter__()
                for line in lines:
                    a.write(line + "\n")
                    b.write(line + "\n")
                first.close()
                assert read_lines(tmp_path / "a.gz") == lines
                second.__exit__(None, None, None)
        assert (tmp_path / "b.gz").read_bytes() == _single_threaded_gzip(lines)

    def test_an_output_closed_beside_a_later_fork_map_worker(self, tmp_path):
        lines = [f"zeile {i}" for i in range(5000)]
        with _deadline(20, "the compressor waited for a pipe a worker held"):
            results = None
            try:
                with atomic_open(tmp_path / "a.gz") as fh:
                    fh.write("zeile 0\n")
                    # The worker, forked now, takes item 1 and sleeps on it.
                    results = parallel.fork_map(time.sleep, [0, 30], 2, str)
                    for line in lines[1:]:
                        fh.write(line + "\n")
                assert read_lines(tmp_path / "a.gz") == lines
            finally:
                if results is not None:
                    results.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_a_failed_pipe_or_fork_leaks_no_descriptor(self, tmp_path, monkeypatch, failing):
        out = tmp_path / "out.txt.gz"
        real, calls = getattr(os, failing), []

        def fail(*args):
            calls.append(1)
            if failing == "pipe" and len(calls) == 1:
                return real(*args)  # the second pipe fails
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        before = _open_fds()
        monkeypatch.setattr(os, failing, fail)
        with pytest.raises(OSError) as raised:
            write_lines(out, ["zeile"])
        assert raised.value.errno == errno.EAGAIN
        assert _open_fds() == before
        assert not lineio._compressor_pipes
        assert list(tmp_path.iterdir()) == []


class TestFraming:
    """The writers refuse a line or a cell that would change the framing,
    naming the output and the line; stdout takes the bytes a file would."""

    @pytest.mark.parametrize("name", ["out.txt", "out.txt.gz"])
    def test_a_line_holding_a_newline_names_the_output_and_the_line(self, tmp_path, name):
        out = tmp_path / name
        write_lines(out, ["old"])
        before = out.read_bytes()
        with pytest.raises(DataError) as raised:
            write_lines(out, ["a\rb", "c\nd", "e"])
        assert str(raised.value) == (
            f"{out}:2: line contains a newline, which a line file cannot hold")
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("cells, where, message", [
        (("x", "a\tb"), None, "{out}:2: target contains a tab"),
        (("a\nb", "x"), None, "{out}:2: source contains a newline"),
        (("a\tb", "x"), 7, "in.txt:7: source contains a tab"),
    ])
    def test_a_cell_that_breaks_the_row_names_its_column(self, tmp_path, cells, where,
                                                        message):
        out = tmp_path / "out.tsv"
        with pytest.raises(DataError) as raised:
            with open_lines(out, ("source", "target"), source="in.txt") as write:
                write(("a", "b\x85\u2028c"), 1)
                write(cells, where)
        assert str(raised.value) == (
            message.format(out=out) + ", which a tab-separated row cannot hold")
        assert not out.exists()

    def test_stdout_takes_the_bytes_of_a_file(self, tmp_path, capsysbinary):
        lines = ["\x1b[31mrot\x1b[0m", "a\rb", "c\x85d\u2028e", "\U0001f600", ""]
        write_lines(tmp_path / "out.txt", lines)
        write_lines(None, lines)
        assert capsysbinary.readouterr().out == (tmp_path / "out.txt").read_bytes()

    def test_stdout_keeps_what_was_written_before_an_error(self, capsysbinary):
        with pytest.raises(DataError, match="^<stdout>:3: "):
            write_lines(None, ["eins", "zwei", "drei\nvier"])
        assert capsysbinary.readouterr().out == b"eins\nzwei\n"


class TestAlignedFiles:
    def test_columns_of_equal_files(self, tmp_path):
        paths = [tmp_path / name for name in ("a.txt", "b.txt.gz", "c.txt")]
        for i, path in enumerate(paths):
            write_lines(path, [f"{i}:{j}" for j in range(3)])
        assert read_aligned(*paths) == [[f"{i}:{j}" for j in range(3)] for i in range(3)]
        assert list(iter_aligned(*paths))[1] == ("0:1", "1:1", "2:1")
        write_lines(paths[0], [])
        write_lines(paths[1], [])
        assert read_aligned(*paths[:2]) == [[], []]

    @pytest.mark.parametrize("counts", [(2, 3, 3), (3, 1, 2), (3, 3, 0)])
    def test_mismatch_names_every_file_and_its_count(self, tmp_path, counts):
        paths = [tmp_path / f"{i}.txt" for i in range(3)]
        for path, n in zip(paths, counts):
            write_lines(path, ["x"] * n)
        with pytest.raises(DataError) as raised:
            read_aligned(*paths)
        assert str(raised.value) == "line count mismatch: " + " vs ".join(
            f"{n} in {path}" for n, path in zip(counts, paths))

    @pytest.mark.parametrize("pipe_lines, file_lines", [(1, 2), (3, 1), (0, 2), (2, 0)])
    @pytest.mark.parametrize("pipe_first", [True, False])
    def test_a_pipe_is_counted_in_the_one_pass(self, tmp_path, pipe_lines, file_lines,
                                               pipe_first):
        file = tmp_path / "file.txt"
        write_lines(file, ["x"] * file_lines)
        with _pipe(tmp_path / "in.fifo", b"x\n" * pipe_lines) as fifo, _deadline(
                20, "the pipe was read again"):
            paths, counts = [fifo, file], [pipe_lines, file_lines]
            if not pipe_first:
                paths.reverse()
                counts.reverse()
            with pytest.raises(DataError) as raised:
                read_aligned(*paths)
        assert str(raised.value) == "line count mismatch: " + " vs ".join(
            f"{n} in {path}" for n, path in zip(counts, paths))
