"""Uniform interface to translation and post-editing engines.

Five backend kinds share one batch-translation entry point: an external
command (line-on-stdin/line-on-stdout framing), an HTTP service (JSON list
payload), a deterministic "translationese" channel for desk-scale
experiments, its token-wise denoiser, and identity.

Per-line randomness in the toy channel derives from (config seed, line
index), so corpus-level output is independent of batch sizes and worker
counts.  Command and HTTP outputs are cached on disk per batch, keyed by
(backend fingerprint, batch fingerprint), which makes expensive passes
over large corpora resumable.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shlex
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import BackendError, DataError

KINDS = ("command", "http", "toy_channel", "toy_denoiser", "identity")

# Upper bound on ``jobs``: each concurrent batch is one thread (and, for a
# command backend, one child process).
MAX_JOBS = 64


@dataclass(frozen=True)
class ChannelConfig:
    """A deterministic noise channel: token lexicon substitution (many-to-one
    allowed, modeling translation loss), then seeded word deletions, then
    seeded adjacent transpositions."""

    lexicon: Mapping[str, str] = field(default_factory=dict)
    drop_prob: float = 0.0
    swap_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0 or not 0.0 <= self.swap_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        for k, v in self.lexicon.items():
            if not k or not v or len(k.split()) != 1 or len(v.split()) != 1:
                raise ValueError(f"lexicon entries must be single tokens, got {k!r} -> {v!r}")

    def as_dict(self) -> dict:
        return {
            "lexicon": dict(sorted(self.lexicon.items())),
            "drop_prob": self.drop_prob,
            "swap_prob": self.swap_prob,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class BackendSpec:
    kind: str
    from_lang: str = "xx"
    to_lang: str = "xx"
    command_template: str | None = None
    url: str | None = None
    timeout: float = 30.0
    batch_size: int = 64
    retries: int = 2
    channel: ChannelConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "command" and not self.command_template:
            raise ValueError("command backend needs a command template")
        if self.kind == "http" and not self.url:
            raise ValueError("http backend needs a URL")
        if self.kind in ("toy_channel", "toy_denoiser") and self.channel is None:
            raise ValueError(f"{self.kind} backend needs a channel config")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

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
            d["channel"] = self.channel.as_dict()
        return d

    def fingerprint(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True, ensure_ascii=False)
        return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def spec_from_dict(d: Mapping) -> BackendSpec:
    """Build a BackendSpec from its JSON form (the CLI's --backend-config)."""
    channel = None
    if "channel" in d:
        c = d["channel"]
        channel = ChannelConfig(
            lexicon=dict(c.get("lexicon", {})),
            drop_prob=float(c.get("drop_prob", 0.0)),
            swap_prob=float(c.get("swap_prob", 0.0)),
            seed=int(c.get("seed", 0)),
        )
    return BackendSpec(
        kind=d["kind"],
        from_lang=d.get("from_lang", "xx"),
        to_lang=d.get("to_lang", "xx"),
        command_template=d.get("command"),
        url=d.get("url"),
        timeout=float(d.get("timeout", 30.0)),
        batch_size=int(d.get("batch_size", 64)),
        retries=int(d.get("retries", 2)),
        channel=channel,
    )


def _line_rng(seed: int, salt: int) -> random.Random:
    digest = hashlib.blake2b(f"{seed}:{salt}".encode("ascii"), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def channel_apply(cfg: ChannelConfig, line: str, salt: int) -> str:
    """Push one line through the noise channel; a pure function of
    (cfg.seed, salt, line).  With an empty lexicon and zero probabilities
    the line comes back verbatim."""
    tokens = line.split()
    out = [cfg.lexicon.get(t, t) for t in tokens]
    changed = out != tokens
    if cfg.drop_prob > 0.0 or cfg.swap_prob > 0.0:
        rng = _line_rng(cfg.seed, salt)
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


def toy_denoiser(cfg: ChannelConfig, line: str) -> str:
    """Token-wise inverse substitution, no stochastic component.

    For a many-to-one channel, cfg.lexicon here is the designated inverse
    (channel word back to one chosen natural word).  Idempotent as long as
    the lexicon's values are not themselves keys mapping elsewhere.
    """
    tokens = line.split()
    out = [cfg.lexicon.get(t, t) for t in tokens]
    return " ".join(out) if out != tokens else line


def _run_command_batch(spec: BackendSpec, batch: list[str]) -> list[str]:
    # Bytes in, bytes out, framed on "\n" alone: text mode and
    # str.splitlines() would also break lines at "\r", "\f", U+0085, U+2028
    # and the like, which occur inside lines of crawled text.
    cmd = spec.command_template.replace("{from}", spec.from_lang).replace("{to}", spec.to_lang)
    proc = subprocess.run(
        shlex.split(cmd),
        input=("\n".join(batch) + "\n").encode("utf-8"),
        capture_output=True,
        timeout=spec.timeout if spec.timeout > 0 else None,
    )
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", "replace").strip()
        raise OSError(f"command backend exited {proc.returncode}: {stderr[:500]}")
    lines = proc.stdout.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _run_http_batch(spec: BackendSpec, batch: list[str]) -> list[str]:
    import urllib.request  # costs ~25 ms at CLI start; only HTTP backends need it

    payload = json.dumps({"lines": batch}).encode("utf-8")
    request = urllib.request.Request(
        spec.url, data=payload, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=spec.timeout) as response:
        body = json.loads(response.read().decode("utf-8"))
    lines = body.get("lines")
    if not isinstance(lines, list):
        raise OSError("http backend response has no 'lines' list")
    return [str(x) for x in lines]


def _cache_file(cache_dir: Path, spec: BackendSpec, batch: list[str]) -> Path:
    batch_fp = hashlib.blake2b("\n".join(batch).encode("utf-8"), digest_size=16).hexdigest()
    return cache_dir / spec.fingerprint() / f"{batch_fp}.txt"


def _cache_read(path: Path, n_lines: int) -> list[str] | None:
    try:
        # Bytes, not read_text: universal newlines would split at "\r".
        text = path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        return None
    lines = text.split("\n")[:-1]
    return lines if len(lines) == n_lines else None


def _cache_write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # One temp file per writing thread: concurrent jobs may write the same
    # batch, and a name shared between them could be replaced half-written.
    tmp = path.with_suffix(f".tmp{os.getpid()}-{threading.get_ident()}")
    tmp.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    tmp.replace(path)


def _run_external_batch(
    spec: BackendSpec, batch: list[str], start: int, cache_dir: Path | None
) -> list[str]:
    cache_path = _cache_file(cache_dir, spec, batch) if cache_dir is not None else None
    if cache_path is not None:
        cached = _cache_read(cache_path, len(batch))
        if cached is not None:
            return cached

    runner = _run_command_batch if spec.kind == "command" else _run_http_batch
    last_error: Exception | None = None
    for attempt in range(spec.retries + 1):
        if attempt:
            time.sleep(min(0.1 * 2**attempt, 2.0))
        try:
            out = runner(spec, batch)
            break
        except UnicodeDecodeError as exc:
            raise BackendError(
                f"{spec.kind} backend returned invalid UTF-8: {exc}",
                first_line=start,
                last_line=start + len(batch) - 1,
            ) from exc
        except (OSError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
            last_error = exc
    else:
        raise BackendError(
            f"{spec.kind} backend failed after {spec.retries + 1} attempts: {last_error}",
            first_line=start,
            last_line=start + len(batch) - 1,
        )
    if len(out) != len(batch):
        raise BackendError(
            f"{spec.kind} backend returned {len(out)} lines for {len(batch)} inputs",
            first_line=start,
            last_line=start + len(batch) - 1,
        )
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
    and HTTP backends may process batches concurrently (``jobs``), with
    results reassembled in input order.  A line containing "\n" is a
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
    if spec.kind == "toy_channel":
        return [channel_apply(spec.channel, line, salt) for salt, line in enumerate(lines, start)]
    if spec.kind == "toy_denoiser":
        return [toy_denoiser(spec.channel, line) for line in lines]

    cache = Path(cache_dir) if cache_dir is not None else None
    batches = [
        (start + offset, lines[offset : offset + spec.batch_size])
        for offset in range(0, len(lines), spec.batch_size)
    ]
    if jobs <= 1 or len(batches) <= 1:
        results = [_run_external_batch(spec, batch, first, cache) for first, batch in batches]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(lambda sb: _run_external_batch(spec, sb[1], sb[0], cache), batches)
            )
    return [line for chunk in results for line in chunk]
