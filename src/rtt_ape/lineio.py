"""Line-oriented text I/O: UTF-8, newline-terminated, optionally gzipped.

The one module that opens, decodes and atomically writes the program's
files: line files, JSON inputs, backend cache files and every output,
stdout included; and the one that frames lines: a line holds no "\\n", a
TSV cell no "\\t" or "\\n", and aligned files have equal line counts."""

from __future__ import annotations

import codecs
import contextlib
import io
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataError

try:  # hashlib.blake2b itself, without the OpenSSL bindings hashlib loads (~4 ms a start)
    from _blake2 import blake2b
except ImportError:  # an interpreter built without the module
    from hashlib import blake2b

T = TypeVar("T")

GZIP_LEVEL = 6  # zlib's and gzip(1)'s default: level 9 took 1.6 times its CPU for 1% less size

_compressor_pipes: set[int] = set()  # write ends into .gz compressors (see _gzipped)


def _close_compressor_pipes() -> None:
    while _compressor_pipes:
        os.close(_compressor_pipes.pop())


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_compressor_pipes)


def smart_open(path: str | Path) -> IO[str]:
    """Open a plain or .gz text file for reading (UTF-8, '\\n' newlines)."""
    path = Path(path)
    if path.suffix == ".gz":
        import gzip  # only .gz paths need it (~2 ms at every CLI start otherwise)

        return gzip.open(path, mode="rt", encoding="utf-8", newline="\n")
    return open(path, encoding="utf-8", newline="\n")


@contextlib.contextmanager
def _gzipped(raw: IO[bytes], path: Path) -> Iterator[IO[bytes]]:
    """A binary stream gzipped into ``raw`` (level ``GZIP_LEVEL``, no name,
    mtime 0, one sync flush at the end) by a child forked here, beside the
    caller, which reads it from a pipe; by a ``GzipFile`` in this process,
    into the same bytes, where ``os.fork`` is missing or another thread runs.
    At level 6 the child compresses about as fast as ``dedup`` or
    ``filter-mono`` makes its lines, so neither waits long for the other.
    The child heads a process group, so Ctrl-C reaches only the caller,
    whose closing the pipe ends it; every later child of this process closes
    the pipe's write end.  The child's failure is a ``DataError`` naming
    ``path``, raised before the block's own."""
    import gzip

    def compressor() -> gzip.GzipFile:
        gz = gzip.GzipFile.__new__(gzip.GzipFile)
        try:
            gz.__init__(filename="", mode="wb", compresslevel=GZIP_LEVEL, fileobj=raw, mtime=0)
        except BaseException:  # say, ENOSPC as it writes the header
            gz.fileobj = None  # else the half-built file's finalizer writes again
            raise
        return gz

    if not hasattr(os, "fork") or threading.active_count() > 1:
        with compressor() as gz:
            yield gz
        return
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        data_r, data_w, report_r, report_w = fds
        _compressor_pipes.add(data_w)
        pid = os.fork()
    except BaseException:
        _compressor_pipes.difference_update(fds)
        for fd in fds:
            os.close(fd)
        raise
    with contextlib.suppress(OSError):  # set by both processes, since either may run first
        os.setpgid(pid, 0)
    if pid == 0:
        try:
            with compressor() as gz:
                while data := os.read(data_r, 1 << 16):
                    gz.write(data)
                gz.flush()
            raw.flush()
            os._exit(0)
        except BaseException as exc:  # reported to the caller, which names the output
            if isinstance(exc, DataError):  # _OutputFile's, naming it already
                exc = exc.__cause__
            os.write(report_w, (str(exc) or type(exc).__name__).encode("utf-8", "replace"))
        finally:
            os._exit(1)
    os.close(data_r)
    os.close(report_w)
    with open(report_r, "rb") as report:
        try:
            with open(data_w, "wb") as pipe:
                yield pipe
        finally:
            _compressor_pipes.discard(data_w)
            if code := os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                import signal

                failure = report.read().decode("utf-8") or (
                    f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit code {code}")
                raise DataError(f"{path}: the gzip writer failed: {failure}")


class _OutputFile(io.FileIO):
    """The temp file of output ``path``, whose own failures name ``path``:
    an ``OSError`` as it is written (by a buffer's flush or a ``GzipFile``)
    or closed is a ``DataError`` naming it.  An error the caller's block
    raises for an input never passes through here, and keeps its name."""

    def __init__(self, tmp: Path, path: Path) -> None:
        super().__init__(os.fspath(tmp), "wb")  # an error names 'a.tmp1-2', not PosixPath(...)
        self.output = path

    def write(self, data) -> int | None:
        try:
            return super().write(data)
        except OSError as exc:
            raise DataError(f"{self.output}: {exc}") from exc

    def close(self) -> None:
        try:
            super().close()
        except OSError as exc:
            raise DataError(f"{self.output}: {exc}") from exc


@contextlib.contextmanager
def atomic_open(path: str | Path | None) -> Iterator[IO[str]]:
    """Write a text file (UTF-8, '\\n' newlines, gzipped if it ends in .gz)
    all or nothing: the text goes to a temp file in the same directory,
    which replaces ``path`` when the block exits normally and is removed
    when it raises, so a failed run never leaves a truncated output.
    ``None`` writes the same bytes to stdout, where they stream instead:
    text written before an error stays written.

    The temp file's name is unique per process and thread, so threads that
    write the same path at once (two jobs caching one batch) each replace it
    whole.  Gzip headers carry no file name and a zero mtime, so equal text
    always compresses to equal bytes.  A .gz file is compressed in a child
    process (see ``_gzipped``), which has ended by the time the block exits.
    The output's own write, flush, close or replace failing is a
    ``DataError`` naming ``path``."""
    if path is None:
        sys.stdout.flush()
        try:
            yield codecs.getwriter("utf-8")(sys.stdout.buffer)
        finally:
            sys.stdout.buffer.flush()
        return
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
    try:
        with io.BufferedWriter(_OutputFile(tmp, path)) as raw, (
                _gzipped(raw, path) if path.suffix == ".gz"
                else contextlib.nullcontext(raw)) as binary:
            text = io.TextIOWrapper(binary, encoding="utf-8", newline="\n")
            yield text
            text.flush()
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise DataError(f"{path}: {exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path: str | Path) -> list[str]:
    """All lines of a text file, without terminators (see ``iter_lines``)."""
    return list(iter_lines(path))


def iter_lines(path: str | Path) -> Iterator[str]:
    """Stream lines of a text file, without terminators.  A line that is not
    valid UTF-8 is a ``DataError`` naming the file and the line, and damaged
    gzip data one naming the file and the last good line."""
    line_no = 0
    try:
        with smart_open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                yield line.rstrip("\n")
    except UnicodeDecodeError as exc:
        # The bad byte is in the chunk being decoded (``exc.object``), on the
        # line after the last one read whole or a line that ends before it.
        # Counting there reads no input again, which a pipe would not allow.
        line_no += 1 + exc.object.count(b"\n", 0, exc.start)
        raise DataError(f"{path}:{line_no}: not valid UTF-8") from exc
    except _gzip_errors() as exc:
        raise DataError(f"{path}: damaged gzip data after line {line_no}: {exc}") from exc


def _gzip_errors() -> tuple[type[Exception], ...]:
    """What damaged gzip data raises: none before gzip is loaded."""
    gzip = sys.modules.get("gzip")
    return (EOFError, sys.modules["zlib"].error, gzip.BadGzipFile) if gzip else ()


def read_json(path: str | Path, what: str, build: Callable[[object], T]) -> T:
    """``build`` applied to the JSON value in the file at ``path``.  Text
    that is not UTF-8 or not JSON, or a ``ValueError``, ``KeyError`` or
    ``TypeError`` from ``build``, is a ``DataError`` "bad <what> '<path>': ..."."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise DataError(f"bad {what} {str(path)!r}: {exc}") from exc


def iter_aligned(*paths: str | Path) -> Iterator[tuple[str, ...]]:
    """Stream line-aligned files in step, one tuple per line; a ``DataError``
    naming each file's line count if they differ, once the shortest ends and
    the longer ones are read to their ends.  Each file is read once, so a
    pipe works as well as a regular file."""
    streams = [iter_lines(path) for path in paths]
    for n, row in enumerate(itertools.zip_longest(*streams)):
        if None in row:
            counts = (n + (line is not None) + sum(1 for _ in stream)
                      for line, stream in zip(row, streams))
            raise DataError("line count mismatch: " + " vs ".join(
                f"{count} in {path}" for count, path in zip(counts, paths)))
        yield row


def read_aligned(*paths: str | Path) -> list[list[str]]:
    """The lines of each line-aligned file (see ``iter_aligned``)."""
    rows = list(iter_aligned(*paths))
    return [[row[i] for row in rows] for i in range(len(paths))]


def iter_rows(path: str | Path, n: int) -> Iterator[list[str]]:
    """The cells of each line of a TSV file that must have ``n`` fields."""
    for i, line in enumerate(iter_lines(path), 1):
        cells = line.split("\t")
        if len(cells) != n:
            raise DataError(f"{path}:{i}: expected {n} tab-separated fields")
        yield cells


@contextlib.contextmanager
def open_lines(
    path: str | Path | None, columns: Sequence[str] = (), source: str | None = None
) -> Iterator[Callable[..., None]]:
    """A ``write`` of one line and its '\\n' into ``path`` (``None``: stdout;
    see ``atomic_open``): ``write(line)``, or with ``columns``, a TSV row
    ``write(cells, line=None)``.  A line that holds '\\n', or a cell that
    holds '\\t' or '\\n', is a ``DataError`` naming the output's line, or
    line ``line`` of ``source`` when the caller gives both, and the cell's
    column."""
    name = "<stdout>" if path is None else str(path)
    count = 0
    with atomic_open(path) as fh:
        def write_line(text: str) -> None:
            nonlocal count
            count += 1
            if "\n" in text:
                raise DataError(f"{name}:{count}: line contains a newline, "
                                "which a line file cannot hold")
            fh.write(text + "\n")

        def write_row(cells: Sequence[str], line: int | None = None) -> None:
            nonlocal count
            count += 1
            for cell in cells:
                if "\t" in cell or "\n" in cell:
                    where = f"{source}:{line}" if line is not None else f"{name}:{count}"
                    char = "newline" if "\n" in cell else "tab"
                    raise DataError(f"{where}: {columns[cells.index(cell)]} contains a {char}, "
                                    "which a tab-separated row cannot hold")
            fh.write("\t".join(cells) + "\n")

        yield write_row if columns else write_line


def write_lines(path: str | Path | None, lines: Iterable[str]) -> None:
    """Write one sentence per line with '\\n' terminators (see ``open_lines``)."""
    with open_lines(path) as write:
        for line in lines:
            write(line)


def file_fingerprint(path: str | Path) -> str | None:
    """Stable content fingerprint used by run manifests; None for anything
    but a regular file, such as a pipe, which the command has read already."""
    if not Path(path).is_file():
        return None
    digest = blake2b(digest_size=16)
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()
