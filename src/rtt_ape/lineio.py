"""Line-oriented text I/O: UTF-8, newline-terminated, optionally gzipped."""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import os
from pathlib import Path
from typing import IO, Iterable, Iterator


def smart_open(path: str | Path) -> IO[str]:
    """Open a plain or .gz text file for reading (UTF-8, '\\n' newlines)."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode="rt", encoding="utf-8", newline="\n")
    return open(path, encoding="utf-8", newline="\n")


@contextlib.contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Write a text file (UTF-8, '\\n' newlines, gzipped if it ends in .gz)
    all or nothing: the text goes to a temp file in the same directory,
    which replaces ``path`` when the block exits normally and is removed
    when it raises, so a failed run never leaves a truncated output.

    Gzip headers carry no file name and a zero mtime, so equal text always
    compresses to equal bytes."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as raw, contextlib.ExitStack() as stack:
            binary: IO[bytes] = raw
            if path.suffix == ".gz":
                binary = stack.enter_context(
                    gzip.GzipFile(filename="", mode="wb", compresslevel=9, fileobj=raw, mtime=0)
                )
            yield stack.enter_context(io.TextIOWrapper(binary, encoding="utf-8", newline="\n"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path: str | Path) -> list[str]:
    """All lines of a text file, without terminators."""
    with smart_open(path) as fh:
        return [line.rstrip("\n") for line in fh]


def iter_lines(path: str | Path) -> Iterator[str]:
    """Stream lines of a text file, without terminators."""
    with smart_open(path) as fh:
        for line in fh:
            yield line.rstrip("\n")


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write one sentence per line with '\\n' terminators, atomically (see
    ``atomic_open``); returns line count."""
    count = 0
    with atomic_open(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


def file_fingerprint(path: str | Path) -> str:
    """Stable content fingerprint used by run manifests."""
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()
