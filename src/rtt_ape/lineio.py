"""Line-oriented text I/O: UTF-8, newline-terminated, optionally gzipped.

The one module that opens, decodes and atomically writes the program's
files: line files, JSON inputs, backend cache files and every output,
stdout included; and the one that frames lines: a line holds no "\\n", a
TSV cell no "\\t" or "\\n", and aligned files have equal line counts."""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataError

T = TypeVar("T")

# A .gz output is compressed on a writer thread of its own (see
# ``_GzipWriter``), fed the blocks ``io.TextIOWrapper`` writes (8 KiB each,
# give or take a line) through a queue of at most GZIP_QUEUE_BLOCKS of them.
GZIP_QUEUE_BLOCKS = 8

_FLUSH = object()
_CLOSE = object()


def smart_open(path: str | Path) -> IO[str]:
    """Open a plain or .gz text file for reading (UTF-8, '\\n' newlines)."""
    path = Path(path)
    if path.suffix == ".gz":
        import gzip  # only .gz paths need it (see _GzipWriter)

        return gzip.open(path, mode="rt", encoding="utf-8", newline="\n")
    return open(path, encoding="utf-8", newline="\n")


class _GzipWriter(io.BufferedIOBase):
    """A write-only binary stream into ``raw`` that gzips on a thread of its
    own, so that deflate, which releases the GIL, runs while the caller
    produces the next lines.  Writes and flushes are queued, in order, for
    the thread, which owns the ``GzipFile``: the compressed bytes are those
    the same calls straight on a ``GzipFile`` give.  An error on the thread
    is re-raised on the caller's by the next write, flush or close.  As a
    context manager it closes on success and, when left by an exception,
    stops the thread without raising the thread's error."""

    def __init__(self, raw: IO[bytes]) -> None:
        # Only .gz paths need these (~2 ms at every CLI start otherwise).
        import gzip
        import queue
        import threading

        self._gz = gzip.GzipFile(filename="", mode="wb", compresslevel=9, fileobj=raw, mtime=0)
        self._queue: queue.Queue = queue.Queue(GZIP_QUEUE_BLOCKS)
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._drain, name="gzip-writer", daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        item = None
        try:
            while (item := self._queue.get()) is not _CLOSE:
                if item is _FLUSH:
                    self._gz.flush()
                else:
                    self._gz.write(item)
            self._gz.close()
        except BaseException as exc:  # handed to the caller's thread
            self._error = exc
            with contextlib.suppress(Exception):
                self._gz.close()
            # Keep taking blocks until told to stop, so that the caller
            # never waits on a full queue.
            while item is not _CLOSE:
                item = self._queue.get()

    def _put(self, item: object) -> None:
        if self._error is not None:
            raise self._error
        self._queue.put(item)

    @property
    def closed(self) -> bool:
        return not self._thread.is_alive()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self._put(bytes(data))  # no copy: TextIOWrapper writes fresh bytes
        return len(data)

    def flush(self) -> None:
        self._put(_FLUSH)

    def close(self, raise_error: bool = True) -> None:
        if self.closed:
            return
        self._queue.put(_CLOSE)
        self._thread.join()
        if raise_error and self._error is not None:
            raise self._error

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(raise_error=exc_type is None)


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
    always compresses to equal bytes.  A .gz file is compressed on a writer
    thread (see ``_GzipWriter``), which has ended by the time the block exits."""
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
        with open(tmp, "wb") as raw, contextlib.ExitStack() as stack:
            binary: IO[bytes] = raw
            if path.suffix == ".gz":
                binary = stack.enter_context(_GzipWriter(raw))
            text = io.TextIOWrapper(binary, encoding="utf-8", newline="\n")
            yield text
            text.flush()
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _not_utf8(path: str | Path) -> DataError:
    """The error for a text file that is not UTF-8, naming the first line that
    changes when its bytes are decoded with replacement characters and encoded back."""
    with smart_open(path) as fh:
        bad = (n for n, line in enumerate(fh.buffer, 1)
               if line.decode("utf-8", "replace").encode("utf-8") != line)
        return DataError(f"{path}:{next(bad, '?')}: not valid UTF-8")


def read_lines(path: str | Path) -> list[str]:
    """All lines of a text file, without terminators (see ``iter_lines``)."""
    return list(iter_lines(path))


def iter_lines(path: str | Path) -> Iterator[str]:
    """Stream lines of a text file, without terminators.  A line that is not
    valid UTF-8 is a ``DataError`` naming the file and the line."""
    try:
        with smart_open(path) as fh:
            for line in fh:
                yield line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc


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
    naming each file's line count if they differ, once the shortest ends."""
    for row in itertools.zip_longest(*map(iter_lines, paths)):
        if None in row:
            raise DataError("line count mismatch: " + " vs ".join(
                f"{sum(1 for _ in iter_lines(path))} in {path}" for path in paths))
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
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()
