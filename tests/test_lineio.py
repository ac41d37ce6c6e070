"""Line I/O: atomic writes, byte-stable gzip output, and input that is not
UTF-8."""

import errno
import gzip
import io
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtt_ape import lineio
from rtt_ape.errors import DataError
from rtt_ape.lineio import (
    atomic_open, iter_aligned, iter_lines, open_lines, read_aligned, read_lines, write_lines,
)


def test_gz_output_does_not_depend_on_clock_or_name(tmp_path, monkeypatch):
    lines = [f"zeile {i} über straßen" for i in range(100)]
    monkeypatch.setattr(time, "time", lambda: 1_000_000_000.0)
    write_lines(tmp_path / "a.txt.gz", lines)
    monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
    write_lines(tmp_path / "b.txt.gz", lines)
    data = (tmp_path / "a.txt.gz").read_bytes()
    assert data == (tmp_path / "b.txt.gz").read_bytes()
    # No FNAME flag, mtime 0, XFL 2 (compression level 9).
    assert data[3] == 0 and data[4:8] == bytes(4) and data[8] == 2
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
    gz = gzip.GzipFile(filename="", mode="wb", compresslevel=9, fileobj=buf, mtime=0)
    with io.TextIOWrapper(gz, encoding="utf-8", newline="\n") as text:
        for line in lines:
            text.write(line + "\n")
    return buf.getvalue()


def _writer_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name == "gzip-writer"]


class TestGzipWriterThread:
    """A .gz output is compressed on a writer thread."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(LINE, max_size=30), st.sampled_from([1, 3, 2000]))
    @example([], 1)
    @example(["eine zeile"], 1)
    def test_bytes_equal_single_threaded_gzip(self, lines, repeat):
        # 2000 repeats of up to 30 lines span many 8 KiB blocks, more than
        # the queue holds.
        lines = lines * repeat
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "x.gz"
            with atomic_open(out) as fh:
                for line in lines:
                    fh.write(line + "\n")
            assert out.read_bytes() == _single_threaded_gzip(lines)
        assert not _writer_threads()

    @pytest.mark.parametrize("n_lines", [1, 50_000])
    def test_error_on_writer_thread_reaches_the_caller(self, tmp_path, monkeypatch, n_lines):
        out = tmp_path / "out.txt.gz"
        write_lines(out, ["old"])
        before = out.read_bytes()
        error = OSError(errno.ENOSPC, "No space left on device")
        real_open = open

        class FullDisk(io.FileIO):
            # The gzip header is written on the caller's thread; every
            # later write, on the writer thread, fails.
            def write(self, data):
                if threading.current_thread() is not threading.main_thread():
                    raise error
                return super().write(data)

        def fake_open(path, mode="r", *args, **kwargs):
            return FullDisk(path, "wb") if mode == "wb" else real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(lineio, "open", fake_open, raising=False)
        with pytest.raises(OSError) as raised:
            write_lines(out, (f"zeile {i}" for i in range(n_lines)))
        assert raised.value is error
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [out.name]
        assert not _writer_threads()

    def test_interrupt_inside_the_block_stops_the_writer(self, tmp_path):
        out = tmp_path / "out.txt.gz"
        write_lines(out, ["old"])
        before = out.read_bytes()
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(out) as fh:
                for i in range(50_000):
                    fh.write(f"zeile {i}\n")
                assert _writer_threads()
                raise KeyboardInterrupt
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [out.name]
        assert not _writer_threads()

    def test_concurrent_writers_under_a_short_switch_interval(self, tmp_path):
        # More writers than cores, each with its own writer thread, while
        # the interpreter switches threads as often as it can: every file
        # must still hold its own blocks, in order.
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
        assert not _writer_threads()


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
