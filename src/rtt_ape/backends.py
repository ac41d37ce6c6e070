"""Uniform interface to translation and post-editing engines.

Five backend kinds share one batch-translation entry point: an external
command (line-on-stdin/line-on-stdout framing), an HTTP service (JSON list
payload), a deterministic "translationese" channel for desk-scale
experiments, its token-wise denoiser (a channel without noise), and identity.

Per-line randomness in the toy channel derives from (config seed, line
index), so corpus-level output is independent of batch sizes and worker
counts.  Command and HTTP outputs are cached on disk per batch, keyed by
(backend fingerprint, batch fingerprint), which makes expensive passes
over large corpora resumable.  With ``jobs`` above 1 their batches run in
forked worker processes (``parallel.fork_map``).
"""

from __future__ import annotations

import json
import os
import random
import time
import types
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, get_type_hints

from .errors import BackendError, DataError, checked, reduce_read_only
from .lineio import atomic_open, blake2b, iter_lines
from .parallel import fork_map

KINDS = ("command", "http", "toy_channel", "toy_denoiser", "identity")

# Upper bound on ``jobs``: each job is one worker process (and, for a
# command backend, one command at a time).
MAX_JOBS = 64


@checked
class ChannelConfig(NamedTuple):
    """A deterministic noise channel: token lexicon substitution (many-to-one
    allowed, modeling translation loss), then seeded word deletions, then
    seeded adjacent transpositions."""

    lexicon: Mapping[str, str] = types.MappingProxyType({})  # read-only, so sharing it is safe
    drop_prob: float = 0.0
    swap_prob: float = 0.0
    seed: int = 0

    __reduce__ = reduce_read_only

    def _check(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0 or not 0.0 <= self.swap_prob <= 1.0:
            raise ValueError(f"drop_prob and swap_prob must be in [0, 1], got "
                             f"{self.drop_prob} and {self.swap_prob}")
        for k, v in self.lexicon.items():
            if not all(isinstance(t, str) and len(t.split()) == 1 for t in (k, v)):
                raise ValueError(f"lexicon entries must be single tokens, got {k!r} -> {v!r}")


@checked
class BackendSpec(NamedTuple):
    kind: str
    from_lang: str = "xx"
    to_lang: str = "xx"
    command_template: str | None = None
    url: str | None = None
    timeout: float = 30.0
    batch_size: int = 64
    retries: int = 2
    channel: ChannelConfig | None = None

    def _check(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "command" and not self.command_template:
            raise ValueError("command backend needs a 'command' template")
        if self.kind == "http" and not self.url:
            raise ValueError("http backend needs a 'url'")
        if self.kind in ("toy_channel", "toy_denoiser") and self.channel is None:
            raise ValueError(f"{self.kind} backend needs a 'channel'")
        if self.kind == "toy_denoiser" and (self.channel.drop_prob or self.channel.swap_prob):
            raise ValueError("toy_denoiser adds no noise: drop_prob and swap_prob must be 0")
        if self.batch_size <= 0 or self.retries < 0:
            raise ValueError("batch_size must be positive and retries 0 or more, got "
                             f"{self.batch_size} and {self.retries}")

    @property
    def batch_timeout(self) -> float | None:
        """The seconds a command or HTTP batch may take; a ``timeout`` of 0
        or less sets no limit."""
        return self.timeout if self.timeout > 0 else None

    @classmethod
    def identity(cls, from_lang: str = "xx", to_lang: str = "xx") -> "BackendSpec":
        return cls(kind="identity", from_lang=from_lang, to_lang=to_lang)

    @classmethod
    def toy_channel(cls, channel: ChannelConfig, from_lang: str = "xx", to_lang: str = "xx") -> "BackendSpec":
        return cls(kind="toy_channel", from_lang=from_lang, to_lang=to_lang, channel=channel)

    @classmethod
    def toy_denoiser(cls, channel: ChannelConfig, lang: str = "xx") -> "BackendSpec":
        return cls(kind="toy_denoiser", from_lang=lang, to_lang=lang, channel=channel)

    def as_dict(self) -> dict:
        d: dict = {"kind": self.kind, "from_lang": self.from_lang, "to_lang": self.to_lang}
        if self.command_template:
            d["command"] = self.command_template
        if self.url:
            d["url"] = self.url
            d["timeout"] = self.timeout
        if self.kind in ("command", "http"):
            d["batch_size"] = self.batch_size
            d["retries"] = self.retries
        if self.channel is not None:
            d["channel"] = {**self.channel._asdict(), "lexicon": dict(self.channel.lexicon)}
        return d

    def fingerprint(self) -> str:
        """The name of the spec's cache directory."""
        blob = json.dumps(self.as_dict(), sort_keys=True, ensure_ascii=False)
        return blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


# A field type's JSON value types, exact (true is no integer); others take an object.
_JSON_TYPES = {str: (str,), int: (int,), float: (int, float), type(None): (type(None),)}


def _from_json(cls: type, obj: object, where: str, renamed: Mapping = {}):
    """Record ``cls`` (a ``NamedTuple``) built from the JSON object ``obj``, keyed by
    field name or ``renamed[name]``, with an object for a record field read the same
    way.  A key that is unknown, missing or of the wrong type is a ``ValueError`` naming it."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    by_key = {renamed.get(name, name): name for name in cls._fields}
    hints = get_type_hints(cls)
    args = {}
    for key, value in obj.items():
        if key not in by_key:
            raise ValueError(f"unknown {where} key {key!r}; expected one of {sorted(by_key)}")
        hint = hints[by_key[key]]
        options = hint.__args__ if isinstance(hint, types.UnionType) else (hint,)
        if not any(type(value) in _JSON_TYPES.get(t, (dict,)) for t in options):
            raise ValueError(f"{where} key {key!r} has a value of the wrong type: {value!r}")
        if type(value) is dict and hasattr(options[0], "_fields"):
            value = _from_json(options[0], value, key)
        args[by_key[key]] = float(value) if hint is float else value
    for key, name in by_key.items():
        if key not in obj and name not in cls._field_defaults:
            raise ValueError(f"{where} has no {key!r}")
    return cls(**args)


def spec_from_dict(d: Mapping) -> BackendSpec:
    """Build a BackendSpec from its JSON form, a spec file of ``rtt-gen`` or
    ``ape-apply``: ``BackendSpec``'s fields, with ``command`` for
    ``command_template``, and ``ChannelConfig``'s in ``channel``.  A
    malformed spec is a ``ValueError`` that names the offending key."""
    return _from_json(BackendSpec, d, "spec", {"command_template": "command"})


def channel_apply(
    cfg: ChannelConfig, line: str, salt: int, rng: random.Random | None = None
) -> str:
    """Push one line through the noise channel; a pure function of
    (cfg.seed, salt, line).  With an empty lexicon and zero probabilities
    the line comes back verbatim.  A caller that pushes many lines may pass
    one ``rng`` for all of them, which each call reseeds, instead of a new
    generator per line (``random.Random(n)`` seeds twice: from OS entropy,
    then from ``n``)."""
    tokens = line.split()
    out = [cfg.lexicon.get(t, t) for t in tokens]
    changed = out != tokens
    if cfg.drop_prob > 0.0 or cfg.swap_prob > 0.0:
        digest = blake2b(f"{cfg.seed}:{salt}".encode("ascii"), digest_size=8).digest()
        rng = rng or random.Random()
        rng.seed(int.from_bytes(digest, "big"))
        if cfg.drop_prob > 0.0:
            kept = [t for t in out if rng.random() >= cfg.drop_prob]
            changed = changed or len(kept) != len(out)
            out = kept
        if cfg.swap_prob > 0.0:
            for i in range(len(out) - 1):
                if rng.random() < cfg.swap_prob:
                    out[i], out[i + 1] = out[i + 1], out[i]
                    changed = True
    return " ".join(out) if changed else line


def _run_command_batch(spec: BackendSpec, batch: list[str]) -> list[str]:
    import shlex
    import subprocess  # ~5 ms with shlex at every CLI start; only command backends need them

    # Bytes in, bytes out, framed on "\n" alone: text mode and
    # str.splitlines() would also break lines at "\r", "\f", U+0085, U+2028
    # and the like, which occur inside lines of crawled text.  Its stdio are
    # files in memory, not pipes, so this process just waits for its exit.
    cmd = spec.command_template.replace("{from}", spec.from_lang).replace("{to}", spec.to_lang)
    argv = shlex.split(cmd)
    with _memory_file() as stdin, _memory_file() as stdout, _memory_file() as stderr:
        stdin.write(("\n".join(batch) + "\n").encode("utf-8"))
        stdin.seek(0)
        with subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=stderr) as proc:
            if not _exits(proc, spec.batch_timeout):
                proc.kill()  # retried, like any failed run
                raise TimeoutError(str(subprocess.TimeoutExpired(argv, spec.timeout)))
        stdout.seek(0)
        stderr.seek(0)
        out, err = stdout.read(), stderr.read()
    if proc.returncode != 0:
        stderr = err.decode("utf-8", "replace").strip()
        raise OSError(f"command backend exited {proc.returncode}: {stderr[:500]}")
    lines = out.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _memory_file():
    """An unnamed read-write file, in memory where the system allows."""
    import tempfile

    return (os.fdopen(os.memfd_create("rtt-ape-batch"), "w+b") if hasattr(os, "memfd_create")
            else tempfile.TemporaryFile())


def _exits(proc, timeout: float | None) -> bool:
    """Whether ``proc`` exits within ``timeout`` seconds (``None``: waits),
    blocking on a pidfd; without one, ``Popen.wait`` polls with sleeps."""
    import select
    import subprocess

    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        try:
            proc.wait(timeout)
            return True
        except subprocess.TimeoutExpired:
            return False
    try:
        return bool(select.select([pidfd], [], [], timeout)[0])
    finally:
        os.close(pidfd)


def _run_http_batch(spec: BackendSpec, batch: list[str]) -> list[str]:
    import urllib.request  # costs ~25 ms at CLI start; only HTTP backends need it

    payload = json.dumps({"lines": batch}).encode("utf-8")
    request = urllib.request.Request(
        spec.url, data=payload, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=spec.batch_timeout) as response:
        body = json.loads(response.read().decode("utf-8"))
    lines = body.get("lines")
    if not isinstance(lines, list):
        raise OSError("http backend response has no 'lines' list")
    for i, line in enumerate(lines):
        if not isinstance(line, str) or "\n" in line:
            raise OSError(f"http backend response item {i} of 'lines' is not a line of text: "
                          f"{line!r:.80}")
    return lines


def _cache_file(spec_dir: Path, batch: list[str]) -> Path:
    batch_fp = blake2b("\n".join(batch).encode("utf-8"), digest_size=16).hexdigest()
    return spec_dir / f"{batch_fp}.txt"


def _cache_read(path: Path, n_lines: int) -> list[str] | None:
    try:
        # Not read_lines: perfbench traces that as the reading of corpus files.
        lines = list(iter_lines(path))
    except FileNotFoundError:
        return None
    return lines if len(lines) == n_lines else None


def _cache_write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write("".join(line + "\n" for line in lines))  # one write: a write per line costs more


def _run_external_batch(
    spec: BackendSpec, batch: list[str], start: int, cache_path: Path | None
) -> list[str]:
    runner = _run_command_batch if spec.kind == "command" else _run_http_batch
    span = (start, start + len(batch) - 1)  # the batch's first and last input line
    last_error: Exception | None = None
    for attempt in range(spec.retries + 1):
        if attempt:
            time.sleep(min(0.1 * 2**attempt, 2.0))
        try:
            out = runner(spec, batch)
            break
        except UnicodeDecodeError as exc:
            raise BackendError(
                f"{spec.kind} backend returned invalid UTF-8: {exc}", *span) from exc
        except (OSError, json.JSONDecodeError) as exc:
            last_error = exc
    else:
        raise BackendError(
            f"{spec.kind} backend failed after {spec.retries + 1} attempts: {last_error}", *span)
    if len(out) != len(batch):
        raise BackendError(
            f"{spec.kind} backend returned {len(out)} lines for {len(batch)} inputs", *span)
    if cache_path is not None:
        _cache_write(cache_path, out)
    return out


def check_jobs(jobs: int) -> None:
    """``ValueError`` unless ``jobs`` is an integer from 1 to ``MAX_JOBS``."""
    if not isinstance(jobs, int) or not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be an integer from 1 to {MAX_JOBS}, got {jobs!r}")


def translate_batch(
    spec: BackendSpec,
    lines: Iterable[str],
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    start: int = 0,
) -> list[str]:
    """Translate lines through the backend, one output line per input line,
    order preserved.  Batching, retries, and caching are internal; command
    and HTTP batches, and their cache files, are shared out among ``jobs``
    worker processes (``parallel.fork_map``); a worker that dies is a
    ``BackendError`` over the batch it owed.  A line containing "\n" is a
    ``DataError``, raised before any batch runs: no backend can frame it.
    ``jobs`` outside 1..``MAX_JOBS`` is a ``ValueError``, also raised first.

    ``start`` is the corpus index of ``lines[0]`` when a caller translates a
    corpus piece by piece: toy-channel salts and the line indices in errors
    count from it, so pieces cut on multiples of ``spec.batch_size``
    translate, and cache, exactly like one call over the whole corpus."""
    check_jobs(jobs)
    lines = list(lines)
    for index, line in enumerate(lines, start):
        if "\n" in line:
            raise DataError(f"input line {index} contains a newline")
    if spec.kind == "identity":
        return lines
    if spec.kind in ("toy_channel", "toy_denoiser"):
        rng = random.Random()
        return [channel_apply(spec.channel, line, salt, rng)
                for salt, line in enumerate(lines, start)]

    spec_dir = Path(cache_dir) / spec.fingerprint() if cache_dir is not None else None

    def run(offset: int) -> list[str]:
        batch = lines[offset : offset + spec.batch_size]
        cache_path = _cache_file(spec_dir, batch) if spec_dir is not None else None
        cached = _cache_read(cache_path, len(batch)) if cache_path is not None else None
        return cached if cached is not None else _run_external_batch(
            spec, batch, start + offset, cache_path)

    offsets = range(0, len(lines), spec.batch_size)
    translated: list[str] = []
    try:
        for _, out in fork_map(run, offsets, min(jobs, len(offsets)), lambda _: "backend worker"):
            translated += out
    except ChildProcessError as exc:  # a worker died owing the batch after those received
        last = min(len(translated) + spec.batch_size, len(lines)) - 1
        raise BackendError(str(exc), start + len(translated), start + last) from None
    return translated
