"""One process-parallel map, which ``translate_batch``, ``iter_rtt`` and
``split_score_table`` run on: ``--jobs N`` means N processes everywhere.
A forked child runs Python beside its parent, not under its lock, and
starts with its memory, so only results cross a pipe."""

from __future__ import annotations

import contextlib
import os
import threading
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")
_in_worker = False  # set in a forked worker, whose own children stay in its process group


class Reiterable:
    """``make(*args)``, made afresh at each iteration: items that each worker
    of ``fork_map`` can read itself."""

    def __init__(self, make: Callable[..., Iterable], *args) -> None:
        self.make, self.args = make, args

    def __iter__(self) -> Iterator:
        return iter(self.make(*self.args))


def usable_cores() -> int:
    """The cores this process may run on; 1 where the system does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(
    fn: Callable[[T], R], items: Iterable[T], workers: int, name: Callable[[T], str]
) -> Iterator[tuple[T, R]]:
    """``(item, fn(item))`` for each item of ``items``, in order.

    Item k runs in process k mod ``workers``: 0 is the caller, and each
    other one a child forked by this call, which iterates ``items`` itself.
    So ``items`` must yield the same items each time (a sequence or a
    ``Reiterable``); the caller runs every item of an iterator, and where
    ``os.fork`` is missing or another thread runs (a child would hold only
    this thread, and any lock another one held).  A child pickles back each
    result, or the exception ``fn`` raised and then stops, keeping about one
    item ahead; one that ends without its result is a ``ChildProcessError``
    naming ``name(item)`` and how it ended.  Children leave by ``os._exit``.
    Each heads a process group, which the processes it starts join, as do
    the children of a worker's own calls: closing the iterator, or any
    error, kills the groups and reaps the children.
    """
    if isinstance(items, Iterator) or not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    results = _results(fn, items, max(workers, 1), name)
    next(results)  # forks the children now, before the caller starts any thread
    return results


def _results(fn, items, workers: int, name) -> Iterator:
    children = []  # [pid, read end of its pipe], pid None once reaped
    try:
        for index in range(1, workers):
            read_fd, write_fd = os.pipe()
            children.append([None, open(read_fd, "rb")])
            with open(write_fd, "wb") as pipe:  # the child's end, closed here once it forked
                pid = children[-1][0] = os.fork()
                if not _in_worker:  # set by both processes, since either may run first
                    with contextlib.suppress(OSError):  # the child has moved, or ended
                        os.setpgid(pid, 0)
                if pid == 0:
                    for _, reader in children:  # else a sibling's pipe outlives its reader
                        reader.close()
                    _serve(fn, items, workers, index, pipe)
        yield
        for k, item in enumerate(items):
            yield item, _receive(children[k % workers - 1], name(item)) if k % workers else fn(item)
    finally:
        for child in children:
            child[1].close()
            if child[0] is not None:
                _reap(child)


def _reap(child: list) -> int:
    """Kill ``child`` with the process group it heads, reap it, return its exit code."""
    import signal

    try:
        os.killpg(child[0], signal.SIGKILL)  # an ended child still holds its group
    except ProcessLookupError:  # forked by a worker, so in that one's group
        os.kill(child[0], signal.SIGKILL)
    code = os.waitstatus_to_exitcode(os.waitpid(child[0], 0)[1])
    child[0] = None
    return code


def _serve(fn, items, workers: int, index: int, pipe: BinaryIO) -> None:
    import pickle

    global _in_worker
    _in_worker, code = True, 1
    try:
        with pipe:
            for k, item in enumerate(items):
                if k % workers == index:
                    try:
                        result = (True, fn(item))
                    except BaseException as exc:  # handed to the caller
                        result = (False, exc)
                    pickle.dump(result, pipe, 3)  # unframed: read without a frame's copy
                    pipe.flush()
                    if not result[0]:
                        break
        code = 0
    finally:
        os._exit(code)


def _receive(child: list, what: str):
    import pickle
    import signal

    try:
        ok, value = pickle.load(child[1])
    except (EOFError, pickle.UnpicklingError):
        code = _reap(child)
        how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"{what} ended without a result ({how})") from None
    if not ok:
        raise value
    return value
