"""Line I/O: atomic writes and byte-stable gzip output."""

import gzip
import time

import pytest

from rtt_ape.lineio import atomic_open, read_lines, write_lines


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
