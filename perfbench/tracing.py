"""The traced run: per-layer metrics from spans and counters.

The run drives the generated inputs of both workloads (eval-split and
rtt-data) through the library, so that every layer's metrics come out of
every traced run.  Spans and counters are recorded by
wrapping the module-level names the layers call each other through (for
example ``rtt_ape.scoring.ngram_stats`` and
``rtt_ape.backends.translate_batch``), from these files only; the program
itself is not changed.  The wrappers are removed before the run ends.

Coarse public calls get a span each (name, start, end, parent, trace id);
per-line and per-pair calls get only a counter, because a span around each
of them would cost more than the call.  A layer's self time is the time
of its spans minus the time of their child spans.  The tracing overhead is
the traced drive of the selected workload minus the mean of the same drive
without wrappers, run once before and once after the traced drives.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median, quantiles

import gen
from harness import ROOT, Launcher

LAYERS = ("cli", "lineio", "corpus", "backends", "pipeline", "testset", "scoring", "analysis")

# (module, name, counted only).  Patched wherever the same object is bound.
TARGETS = [
    ("lineio", "read_lines", False),
    ("lineio", "write_lines", False),
    ("lineio", "file_fingerprint", False),
    ("corpus", "dedup", False),
    ("corpus", "mono_filter", True),
    ("corpus", "mono_reject_reason", True),
    ("corpus", "bitext_filter", True),
    ("backends", "translate_batch", False),
    ("pipeline", "generate_rtt", False),
    ("pipeline", "make_training_pairs", False),
    ("pipeline", "apply_ape", False),
    ("testset", "parse_sgm", False),
    ("testset", "split_by_origin", False),
    ("scoring", "corpus_bleu", False),
    ("scoring", "score_from_stats", False),
    ("scoring", "ngram_stats", True),
    ("analysis", "split_score_table", False),
]


@dataclass
class Span:
    trace_id: str
    name: str
    start_ns: int
    end_ns: int
    parent: int
    kind: str = ""

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.trace_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, kind: str = ""):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self.trace_id, name, time.perf_counter_ns(), 0, parent, kind))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end_ns = time.perf_counter_ns()

    def total(self, name: str, trace: str = "") -> float:
        """Summed duration of the named spans, optionally of one trace id prefix."""
        return sum(s.seconds for s in self.spans
                   if s.name == name and s.trace_id.startswith(trace))

    def self_seconds(self) -> dict[str, float]:
        child = defaultdict(int)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end_ns - s.start_ns
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            out[s.name.split(".")[0]] += (s.end_ns - s.start_ns - child[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _wrap(tracer: Tracer, name: str, fn, counted_only: bool):
    if counted_only:
        counts = tracer.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted
    if name == "corpus.dedup":
        # A generator: the span covers its consumption, which the drives
        # always do in one go (list()).
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            with tracer.span(name):
                yield from fn(*args, **kwargs)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        kind = args[0].kind if name == "backends.translate_batch" else ""
        with tracer.span(name, kind):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Patch every target in every rtt_ape module that binds it; undo on exit."""
    modules = [importlib.import_module(f"rtt_ape.{m}") for m in LAYERS]
    patched = []
    try:
        for module_name, attr, counted_only in TARGETS:
            original = getattr(importlib.import_module(f"rtt_ape.{module_name}"), attr)
            wrapper = _wrap(tracer, f"{module_name}.{attr}", original, counted_only)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


class _Untraced(Tracer):
    @contextlib.contextmanager
    def span(self, name: str, kind: str = ""):
        yield


# ---------------------------------------------------------------- the drives
#
# Each drive runs one workload's sequence through the library, as
# the CLI subcommands do, and returns the figures that need its results.


def drive_eval(tracer: Tracer, inp: gen.EvalInputs) -> dict:
    from rtt_ape import lineio, pipeline, scoring, testset
    from rtt_ape import analysis
    from rtt_ape.backends import spec_from_dict

    scoring._tokenize_cached.cache_clear()
    src_bytes, ref_bytes = inp.src_sgm.read_bytes(), inp.ref_sgm.read_bytes()
    ts = testset.TestSet("perfbench", "en", "de", testset.parse_sgm(src_bytes, "src"),
                         testset.parse_sgm(ref_bytes, "ref"))
    halves = testset.split_by_origin(ts)
    denoiser = spec_from_dict(json.loads(inp.denoiser.read_text(encoding="utf-8")))
    hyps, changed, scope = {}, 0, 0
    for label, path in inp.systems.items():
        hyps[label] = lineio.read_lines(path)
    for label in list(hyps):
        edited, report = pipeline.apply_ape(hyps[label], denoiser, halves,
                                            pipeline.ApeMode("target_original_only"))
        hyps[f"ape{label[3:]}"] = edited
        changed += report.changed_per_iteration[0]
        scope += report.scope_size
    analysis.split_score_table(ts, hyps)
    info = scoring._tokenize_cached.cache_info()
    return {"sgm_bytes": len(src_bytes) + len(ref_bytes), "changed": changed, "scope": scope,
            "tokenize_calls": info.hits + info.misses, "tokenize_distinct": info.misses,
            "hyps": hyps, "refs": [seg.text for seg in ts.reference]}


def _cache_files(cache: Path) -> int:
    return sum(1 for _ in cache.glob("*/*.txt")) if cache.exists() else 0


def drive_rtt(tracer: Tracer, inp: gen.PipelineInputs, corpus: Path, cache: Path) -> dict:
    from rtt_ape import lineio, pipeline
    from rtt_ape.backends import spec_from_dict

    channel = spec_from_dict(json.loads(inp.to_pivot.read_text(encoding="utf-8")))
    cat = spec_from_dict(json.loads(inp.from_pivot.read_text(encoding="utf-8")))
    lines = lineio.read_lines(corpus)
    passes = []
    for _ in ("cold", "resume"):
        before = _cache_files(cache)
        pivot: list[str] = []
        pairs = pipeline.generate_rtt(lines, channel, cat, jobs=2, cache_dir=cache,
                                      intermediates=pivot)
        batches = math.ceil(len(pivot) / cat.batch_size)
        misses = _cache_files(cache) - before
        passes.append({"pairs": pairs, "pivot": pivot, "batches": batches, "misses": misses})
    pipeline.make_training_pairs(passes[0]["pairs"], "normal")
    return {"lines": len(lines), "passes": passes, "cat": cat, "cache": cache}


def drive_corpus(tracer: Tracer, inp: gen.PipelineInputs, work: Path) -> dict:
    from rtt_ape import corpus, lineio

    cfg = corpus.FilterConfig()
    unique_path, clean_path = work / "trace-unique.txt.gz", work / "trace-clean.txt.gz"
    lines = lineio.read_lines(inp.raw)
    with tracer.span("cli.manifest"):
        lineio.file_fingerprint(inp.raw)
    dedup_report = corpus.FilterReport()
    unique = list(corpus.dedup(lines, report=dedup_report))
    lineio.write_lines(unique_path, unique)
    filter_report = corpus.FilterReport()
    kept = []
    with tracer.span("corpus.drive_mono_filter"):
        for line in unique:
            filter_report.read += 1
            reason = corpus.mono_reject_reason(line, cfg)
            if reason is None:
                filter_report.kept += 1
                kept.append(line)
            else:
                filter_report.reject(reason)
    with tracer.span("cli.manifest"):
        lineio.file_fingerprint(unique_path)
    lineio.write_lines(clean_path, kept)
    rejected = Counter(dedup_report.rejected_by_rule) + Counter(filter_report.rejected_by_rule)
    return {"lines": lines, "unique": len(unique), "kept": len(kept), "rejected": rejected,
            "filtered": filter_report.read, "clean": clean_path}


def drive_pipeline(tracer: Tracer, inp: gen.PipelineInputs, work: Path, cache: Path) -> dict:
    """dedup and filter-mono, then the round trip over the clean file."""
    co = drive_corpus(tracer, inp, work)
    return {"corpus": co, "rtt": drive_rtt(tracer, inp, co["clean"], cache)}


# -------------------------------------------------------------------- probes


def _fresh_python_seconds(launcher: Launcher, work: Path, code: str, runs: int) -> list[float]:
    """Run ``code`` (which prints one number) in fresh interpreters."""
    out = work / "probe.out"
    values = []
    for _ in range(runs):
        op = launcher.run_python(["-c", code], work, out)
        if op.code != 0:
            raise RuntimeError(f"probe failed: {op.stderr}")
        values.append(float(out.read_text()))
    return values


def dedup_state_bytes(lines: list[str], n: int = 100_000) -> float:
    """Bytes that dedup holds per distinct line, by tracemalloc, with the
    generator suspended after its last yield so its state is alive."""
    from rtt_ape.corpus import dedup

    head = lines[:n]
    distinct = len(set(head))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stream = dedup(head)
        for _ in itertools.islice(stream, distinct):
            pass
        held = tracemalloc.get_traced_memory()[0] - base
        stream.close()
    finally:
        tracemalloc.stop()
    return held / distinct


def command_batch_ms(cat, pivot: list[str], cache: Path | None, n: int) -> list[float]:
    """Latency of translate_batch called with exactly one batch."""
    from rtt_ape.backends import translate_batch

    size = cat.batch_size
    out = []
    for k in range(min(n, len(pivot) // size)):
        batch = pivot[k * size:(k + 1) * size]
        t0 = time.perf_counter()
        translate_batch(cat, batch, cache_dir=cache)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def framing_probe_failures(cat) -> int:
    from rtt_ape.backends import translate_batch
    from rtt_ape.errors import BackendError

    failed = 0
    for _tag, line in gen.FRAMING_PROBE:
        batch = ["Ein ganz normaler Satz.", line]
        try:
            failed += translate_batch(cat, batch) != batch
        except BackendError:
            failed += 1
    return failed


# ----------------------------------------------------------------------- run

def run(workload: str, seed: int, work: Path, launcher: Launcher) -> dict:
    from rtt_ape import corpus, scoring
    from rtt_ape.pipeline import make_training_pairs

    eval_inp = gen.make_eval_inputs(seed, work / "eval")
    pipe_inp = gen.make_pipeline_inputs(seed, work / "rtt-data")

    def drive(name: str, tracer: Tracer, tag: str) -> dict:
        if name == "eval-split":
            return drive_eval(tracer, eval_inp)
        return drive_pipeline(tracer, pipe_inp, work, work / f"cache-{tag}")

    def untraced_drive(tag: str) -> float:
        t0 = time.perf_counter()
        drive(workload, _Untraced(), tag)
        return time.perf_counter() - t0

    # Build the tokenizer tables first: only the first drive would pay for
    # them.  The untraced drive runs before and after the traced ones, so
    # that drift in machine speed cancels out of the overhead.
    scoring.tokenize_intl("x")
    untraced = [untraced_drive("untraced-before")]
    tracer = Tracer()
    results, walls = {}, {}
    with instrumented(tracer):
        for name in ("eval-split", "rtt-data"):
            tracer.trace_id = f"{name}-{seed}-rep0"
            t0 = time.perf_counter()
            results[name] = drive(name, tracer, "traced")
            walls[name] = time.perf_counter() - t0
    untraced.append(untraced_drive("untraced-after"))
    untraced_s = sum(untraced) / 2
    ev = results["eval-split"]
    rt, co = results["rtt-data"]["rtt"], results["rtt-data"]["corpus"]
    cold, resume = rt["passes"]

    # Probes of single public functions, outside the wrappers.
    tracer.trace_id = f"probes-{seed}"
    for _ in range(5):
        with tracer.span("cli.startup"):
            launcher.run(["--version"], work)
    startup = [s.seconds for s in tracer.spans if s.name == "cli.startup"]
    table_build = _fresh_python_seconds(launcher, work, (
        "import time; from rtt_ape.scoring import tokenize_intl; t = time.perf_counter(); "
        "tokenize_intl('x'); print(time.perf_counter() - t)"), runs=3)
    pairs = [(scoring.tokenize_intl(h), scoring.tokenize_intl(r))
             for label in ("sys1", "sys2", "sys3", "sys4")
             for h, r in zip(ev["hyps"][label], ev["refs"])]
    t0 = time.perf_counter()
    stats = [scoring.ngram_stats(h, r) for h, r in pairs]
    ngram_s = time.perf_counter() - t0
    total = scoring.NgramStats.zero()
    for s in stats:
        total += s
    t0 = time.perf_counter()
    for _ in range(1000):
        scoring.score_from_stats(total)
    score_s = (time.perf_counter() - t0) / 1000
    scoring._tokenize_cached.cache_clear()
    cold_lines = ev["refs"][:2000]
    t0 = time.perf_counter()
    for line in cold_lines:
        scoring.tokenize_intl(line)
    tokenize_cold_s = time.perf_counter() - t0
    rtt_pairs = cold["pairs"]
    t0 = time.perf_counter()
    make_training_pairs(rtt_pairs, "normal")
    bitext_s = time.perf_counter() - t0
    cmd_ms = command_batch_ms(rt["cat"], cold["pivot"], None, n=1000)
    cached_ms = command_batch_ms(rt["cat"], cold["pivot"], rt["cache"], n=500)
    state_bytes = dedup_state_bytes(co["lines"])
    probe_failed = framing_probe_failures(rt["cat"])
    tracer.write(ROOT / ".perfbench_traces" / f"{workload}-{seed}.jsonl")

    self_s = tracer.self_seconds()
    counts = tracer.counts
    rej = co["rejected"]
    traced_s = walls[workload]
    generate_s = _seconds(tracer, "pipeline.generate_rtt")
    metrics = {
        "cli.startup_s": (median(startup), "s"),
        "cli.manifest_fingerprint_s": (tracer.total("cli.manifest"), "s"),
        "lineio.read_lines_per_s": (
            (len(co["lines"]) + rt["lines"]) / tracer.total("lineio.read_lines", "rtt-data"),
            "lines/s"),
        "lineio.write_lines_per_s": (
            (co["unique"] + co["kept"]) / tracer.total("lineio.write_lines"), "lines/s"),
        "corpus.dedup_lines_per_s": (len(co["lines"]) / tracer.total("corpus.dedup"), "lines/s"),
        "corpus.mono_filter_lines_per_s": (
            co["filtered"] / tracer.total("corpus.drive_mono_filter"), "lines/s"),
        "corpus.dedup_state_bytes_per_distinct": (state_bytes, "B"),
        "corpus.bitext_filter_pairs_per_s": (len(rtt_pairs) / bitext_s, "pairs/s"),
        "corpus.read": (len(co["lines"]), "count"),
        "corpus.kept": (co["kept"], "count"),
        **{f"corpus.rejected.{rule}": (rej[rule], "count")
           for rule in ("duplicate", "empty", "too_many_chars", "too_many_tokens")},
        "corpus.duplicate_share": (rej["duplicate"] / len(co["lines"]), "ratio"),
        "corpus.over_cap_share": (
            sum(corpus.mono_reject_reason(line, corpus.FilterConfig()) in
                ("too_many_chars", "too_many_tokens") for line in co["lines"])
            / len(co["lines"]), "ratio"),
        "backends.toy_channel_lines_per_s": (
            len(cold["pivot"]) / _seconds(tracer, "backends.translate_batch", "toy_channel")[0],
            "lines/s"),
        "backends.command_batch_ms_p50": (median(cmd_ms), "ms"),
        "backends.command_batch_ms_p99": (quantiles(cmd_ms, n=100)[-1], "ms"),
        "backends.cache_read_batch_ms_p50": (median(cached_ms), "ms"),
        "backends.cache_hit_share": (
            (resume["batches"] - resume["misses"]) / resume["batches"], "ratio"),
        "backends.batches": (cold["batches"] + resume["batches"], "count"),
        "backends.cache_misses": (cold["misses"] + resume["misses"], "count"),
        "backends.cache_hits": (
            cold["batches"] - cold["misses"] + resume["batches"] - resume["misses"], "count"),
        "backends.framing_probe_failed": (probe_failed, "count"),
        "pipeline.generate_rtt_lines_per_s": (rt["lines"] / generate_s[0], "lines/s"),
        "pipeline.generate_rtt_resume_lines_per_s": (rt["lines"] / generate_s[1], "lines/s"),
        "pipeline.rtt_kept_share": (len(cold["pairs"]) / rt["lines"], "ratio"),
        "pipeline.make_training_pairs_per_s": (
            len(cold["pairs"]) / tracer.total("pipeline.make_training_pairs"), "pairs/s"),
        "pipeline.apply_ape_s": (tracer.total("pipeline.apply_ape"), "s"),
        "pipeline.ape_changed_share": (ev["changed"] / ev["scope"], "ratio"),
        "testset.parse_sgm_mb_per_s": (
            ev["sgm_bytes"] / 1e6 / tracer.total("testset.parse_sgm"), "MB/s"),
        "testset.split_by_origin_s": (
            tracer.total("testset.split_by_origin") / counts["testset.split_by_origin"], "s"),
        "scoring.table_build_s": (median(table_build), "s"),
        "scoring.tokenize_cold_lines_per_s": (len(cold_lines) / tokenize_cold_s, "lines/s"),
        "scoring.ngram_stats_pairs_per_s": (len(pairs) / ngram_s, "pairs/s"),
        "scoring.score_from_stats_s": (score_s, "s"),
        "scoring.tokenize_calls": (ev["tokenize_calls"], "count"),
        "scoring.tokenize_distinct_lines": (ev["tokenize_distinct"], "count"),
        "scoring.tokenize_repeat_share": (
            1 - ev["tokenize_distinct"] / ev["tokenize_calls"], "ratio"),
        "scoring.ngram_stats_calls": (counts["scoring.ngram_stats"], "count"),
        "analysis.split_score_table_s": (tracer.total("analysis.split_score_table"), "s"),
        **{f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS},
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    checks = _checks(tracer, ev, rt, co)
    for problem in (p for p in checks if p):
        print(f"perfbench: traced run check failed: {problem}")
    return {
        "correct": not any(checks),
        "attempted": len(checks),
        "failed": sum(bool(p) for p in checks),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _seconds(tracer: Tracer, name: str, kind: str | None = None) -> list[float]:
    """Durations of the named spans, in call order."""
    return [s.seconds for s in tracer.spans
            if s.name == name and (kind is None or s.kind == kind)]


def _checks(tracer: Tracer, ev: dict, rt: dict, co: dict) -> list[str]:
    """Consistency of the traced run's own results: one entry per check,
    empty when it passed."""
    n_pairs = sum(len(h) for h in ev["hyps"].values())
    cold, resume = rt["passes"]
    return [
        "" if tracer.counts["scoring.ngram_stats"] == 2 * n_pairs
        else "ngram_stats calls != 2 x (system, segment) pairs",
        "" if cold["pairs"] == resume["pairs"] else "resume pass output differs from cold pass",
        "" if len(co["lines"]) == co["kept"] + sum(co["rejected"].values())
        else "corpus: read != kept + rejected",
    ]
