"""The benchmark workloads: generated inputs, the CLI sequence each one
times, and the output checks.

Every workload is a closed loop with one client: one benchmark process runs
one CLI invocation at a time and starts the next when the previous one
has exited.  Nothing arrives on a schedule.  The only parallelism is the
``--jobs 2`` of rtt-gen in the rtt-data workload, which matches the two
cores of the machine the baseline was taken on.

A run measures repetitions of its sequence until their timed parts add
up to ``--seconds`` (at least ``MIN_REPS``) and reports medians over
them.  Half of the set-up probes run before the repetitions and half
after, so that their median spans the run.

On a shared machine speed drifts by up to 2x within a minute.  So a
fixed reference job is timed before every CLI invocation, and reported
times are scaled to the reference host speed by the median of those
timings (``harness.at_reference_speed``): each repetition's by its own
ops' timings, the set-up time by the whole run's.  The measured rates
are printed on the ``perfbench:`` line as well.
"""

from __future__ import annotations

import gzip
import json
import shutil
from statistics import median
from pathlib import Path

import gen
from harness import Launcher, Ledger, Op, at_reference_speed

SETUP_RUNS = 6
MIN_REPS = 1


def _text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _read(path: Path) -> str:
    """The file's exact text (no newline translation), or "" if missing."""
    return path.read_bytes().decode("utf-8") if path.exists() else ""


class Workload:
    """Base class: subclasses generate inputs in ``__init__`` and define
    ``setup_op``, ``rep`` and ``items``."""

    name = ""
    items = 0

    def __init__(self, work: Path, launcher: Launcher):
        self.work = work
        self.launcher = launcher
        self.ledger = Ledger()
        self.notes: dict[str, object] = {}

    def cli(self, args: list) -> Op:
        return self.ledger.add(self.launcher.run([str(a) for a in args], self.work,
                                                 calibrate=True))

    def setup_op(self, i: int) -> Op:
        raise NotImplementedError

    def rep(self, i: int) -> tuple[float, list[Op]]:
        """Run the timed sequence once; returns (wall seconds, its ops)."""
        raise NotImplementedError


# ---------------------------------------------------------------- eval-split


class EvalSplit(Workload):
    """split, selective ape-apply on each of 4 systems, report-split over
    1500 SGM segments and all 8 systems.  Items: (system, segment) pairs."""

    name = "eval-split"

    def __init__(self, seed: int, work: Path, launcher: Launcher):
        super().__init__(work, launcher)
        self.inp = gen.make_eval_inputs(seed, work / "in")
        self.one = gen.make_eval_setup_inputs(work / "setup")
        self.items = 2 * len(self.inp.systems) * self.inp.n_segments
        self._expected: dict | None = None

    def setup_op(self, i: int) -> Op:
        src, ref, hyp = self.one
        out = self.work / "setup" / f"report{i}.json"
        op = self.cli(["report-split", "--src-sgm", src, "--ref-sgm", ref, "--src", "en",
                       "--tgt", "de", "--hyp", f"one={hyp}", "--out", out])
        score = json.loads(_read(out) or "{}").get("one", {}).get("split_scores", {})
        self.ledger.check(op, score.get("full", {}).get("score") == 100.0,
                          "one-segment identity hypothesis does not score 100")
        return op

    def expected(self) -> dict:
        """In-process reference outputs for the whole sequence."""
        if self._expected is None:
            from rtt_ape.analysis import split_score_table
            from rtt_ape.backends import spec_from_dict
            from rtt_ape.lineio import read_lines
            from rtt_ape.pipeline import ApeMode, apply_ape
            from rtt_ape.testset import TestSet, parse_sgm, split_by_origin

            ts = TestSet("perfbench", "en", "de", parse_sgm(self.inp.src_sgm.read_bytes(), "src"),
                         parse_sgm(self.inp.ref_sgm.read_bytes(), "ref"))
            halves = split_by_origin(ts)
            denoiser = spec_from_dict(json.loads(self.inp.denoiser.read_text(encoding="utf-8")))
            hyps, edited, changed, scope = {}, {}, 0, 0
            for label, path in self.inp.systems.items():
                hyps[label] = read_lines(path)
            for label in list(hyps):
                out, report = apply_ape(hyps[label], denoiser, halves,
                                        ApeMode("target_original_only"))
                edited[label] = out
                changed += report.changed_per_iteration[0]
                scope += report.scope_size
            hyps.update({f"ape{label[3:]}": lines for label, lines in edited.items()})
            table = split_score_table(ts, hyps)
            halves_add_up = all(
                r.split_scores["source_original"].stats + r.split_scores["target_original"].stats
                == r.split_scores["full"].stats for r in table.values())
            refs = [seg.text for seg in ts.reference]
            calls = [line for lines in hyps.values() for line in lines] + refs * len(hyps)
            self.notes.update(
                ape_changed_share=changed / scope,
                # The scorer tokenizes each (hyp, ref) pair once for the full
                # set and once for its half.
                tokenizer_repeated_share=1 - len(set(calls)) / (2 * len(calls)),
            )
            self._expected = {
                "split": {"n": len(ts), "src_lang": "en", "tgt_lang": "de",
                          "source_original": list(halves.source_original),
                          "target_original": list(halves.target_original),
                          "unknown": list(halves.unknown)},
                "edited": {label: _text(lines) for label, lines in edited.items()},
                "report": json.loads(json.dumps(
                    {label: r.as_dict() for label, r in table.items()})),
                "halves_add_up": halves_add_up,
            }
        return self._expected

    def rep(self, i: int) -> tuple[float, list[Op]]:
        d = self.work / f"rep{i}"
        d.mkdir()
        split = d / "split.json"
        edited = {label: d / f"ape{label[3:]}.txt" for label in self.inp.systems}
        hyp_flags = [f"{label}={path}" for label, path in self.inp.systems.items()]
        hyp_flags += [f"ape{label[3:]}={path}" for label, path in edited.items()]
        ops = [self.cli(["split", "--sgm", self.inp.src_sgm, "--src", "en", "--tgt", "de",
                         "--out", split])]
        for label, path in self.inp.systems.items():
            ops.append(self.cli(["ape-apply", "--in", path, "--backend", self.inp.denoiser,
                                 "--scope", "target_original_only", "--split", split,
                                 "--out", edited[label]]))
        report = d / "report.json"
        ops.append(self.cli(["report-split", "--src-sgm", self.inp.src_sgm, "--ref-sgm",
                             self.inp.ref_sgm, "--src", "en", "--tgt", "de", "--name",
                             "perfbench", *(f for h in hyp_flags for f in ("--hyp", h)),
                             "--out", report]))
        # The ops' own wall times: the launcher's reference job is not timed.
        wall = sum(op.wall_s for op in ops)

        want = self.expected()
        check = self.ledger.check
        check(ops[0], json.loads(_read(split) or "null") == want["split"], "split indices differ")
        for op, (label, path) in zip(ops[1:], edited.items()):
            check(op, _read(path) == want["edited"][label],
                  f"ape-apply output for {label} differs from in-process apply_ape")
        check(ops[-1], json.loads(_read(report) or "null") == want["report"],
              "report-split scores differ from in-process split_score_table")
        check(ops[-1], want["halves_add_up"],
              "n-gram stats of the two halves do not sum to the full-set stats")
        shutil.rmtree(d)
        return wall, ops


# ------------------------------------------------------------------ rtt-data


class RttData(Workload):
    """The repository README's RTT data pipeline over a gzipped crawl:
    dedup, then filter-mono, then cold rtt-gen on the clean lines (toy
    channel de->en, ``cat`` command backend en->de, --jobs 2, fresh
    cache), the same rtt-gen again over that cache (the resume pass), then
    make-pairs.
    Items: input crawl lines.  Each repetition also sends the framing
    probe lines through the same ``cat`` backend, one ape-apply per line."""

    name = "rtt-data"

    def __init__(self, seed: int, work: Path, launcher: Launcher):
        super().__init__(work, launcher)
        self.inp = gen.make_pipeline_inputs(seed, work / "in")
        self.one = work / "setup" / "one.txt.gz"
        self.one.parent.mkdir()
        self.one.write_bytes(gzip.compress(
            "Die Straßenbahn erhält „neue“ Wagen – 3,5 Meter lang.\n".encode("utf-8"), mtime=0))
        self.items = self.inp.n_lines
        self.resume_rates: list[float] = []
        self._expected: dict | None = None

    def rtt_gen(self, corpus: Path, out: Path, *, jobs: int, cache: Path | None) -> Op:
        args = ["rtt-gen", "--in", corpus, "--to-pivot", self.inp.to_pivot,
                "--from-pivot", self.inp.from_pivot, "--jobs", jobs, "--out", out]
        return self.cli(args + (["--cache-dir", cache] if cache else []))

    def expected(self) -> dict:
        """In-process reference outputs for the whole sequence, with
        identity standing in for ``cat``."""
        if self._expected is None:
            from rtt_ape.backends import BackendSpec, spec_from_dict
            from rtt_ape.corpus import FilterConfig, FilterReport, dedup, mono_reject_reason
            from rtt_ape.lineio import read_lines
            from rtt_ape.pipeline import generate_rtt, make_training_pairs

            lines = read_lines(self.inp.raw)
            dedup_report, filter_report = FilterReport(), FilterReport()
            cfg = FilterConfig()
            kept = []
            for line in dedup(lines, report=dedup_report):
                filter_report.read += 1
                reason = mono_reject_reason(line, cfg)
                if reason is None:
                    filter_report.kept += 1
                    kept.append(line)
                else:
                    filter_report.reject(reason)
            channel = spec_from_dict(json.loads(self.inp.to_pivot.read_text(encoding="utf-8")))
            pairs = generate_rtt(kept, channel, BackendSpec.identity("en", "de"))
            train = make_training_pairs(pairs, "normal")
            over = sum(mono_reject_reason(line, cfg) in ("too_many_chars", "too_many_tokens")
                       for line in lines)
            self.notes.update(duplicate_share=dedup_report.rejected_by_rule["duplicate"]
                              / len(lines), over_cap_share=over / len(lines),
                              rtt_lines=len(kept), rtt_kept_share=len(pairs) / len(kept))
            self._expected = {
                "dedup": dedup_report.as_dict(), "filter": filter_report.as_dict(),
                "clean": _text(kept),
                "pairs": "".join(f"{p.original}\t{p.round_trip}\n" for p in pairs),
                "src": _text(p.source for p in train),
                "tgt": _text(p.target for p in train),
            }
        return self._expected

    def setup_op(self, i: int) -> Op:
        out = self.work / "setup" / f"unique{i}.txt.gz"
        op = self.cli(["dedup", "--in", self.one, "--out", out, "--report", f"{out}.json"])
        self.ledger.check(op, out.exists() and gzip.decompress(out.read_bytes()) ==
                          gzip.decompress(self.one.read_bytes()), "one-line dedup output differs")
        return op

    def rep(self, i: int) -> tuple[float, list[Op]]:
        d = self.work / f"rep{i}"
        d.mkdir()
        unique, clean = d / "unique.txt.gz", d / "clean.txt.gz"
        dedup_json, filter_json = d / "dedup.json", d / "filter.json"
        cold, resume = d / "cold.tsv", d / "resume.tsv"
        src, tgt = d / "train.src", d / "train.tgt"
        ops = [self.cli(["dedup", "--in", self.inp.raw, "--out", unique, "--report", dedup_json]),
               self.cli(["filter-mono", "--in", unique, "--out", clean,
                         "--report", filter_json]),
               self.rtt_gen(clean, cold, jobs=2, cache=d / "cache"),
               self.rtt_gen(clean, resume, jobs=2, cache=d / "cache"),
               self.cli(["make-pairs", "--in", cold, "--direction", "normal",
                         "--out-src", src, "--out-tgt", tgt])]
        # The ops' own wall times: the launcher's reference job is not timed.
        wall = sum(op.wall_s for op in ops)

        want = self.expected()
        self.resume_rates.append(self.notes["rtt_lines"] / ops[3].wall_s)
        check = self.ledger.check
        for op, path, stage in ((ops[0], dedup_json, "dedup"), (ops[1], filter_json, "filter")):
            got = json.loads(_read(path) or "{}")
            check(op, got.get("read") == got.get("kept", 0) + sum(
                got.get("rejected_by_rule", {}).values()), f"{stage}: read != kept + rejected")
            check(op, got == want[stage], f"{stage} counts differ from in-process")
        check(ops[1], clean.exists() and gzip.decompress(clean.read_bytes())
              == want["clean"].encode("utf-8"),
              "decompressed output differs from in-process dedup + mono_filter")
        check(ops[2], _read(cold) == want["pairs"],
              "cold rtt-gen output differs from the in-process reference")
        check(ops[3], resume.exists() and resume.read_bytes() == cold.read_bytes(),
              "resume rtt-gen output differs from the cold output")
        check(ops[4], _read(src) == want["src"] and _read(tgt) == want["tgt"],
              "make-pairs output differs from in-process make_training_pairs")
        if i == 0:
            jobs1 = d / "jobs1.tsv"
            op = self.rtt_gen(clean, jobs1, jobs=1, cache=None)
            check(op, jobs1.exists() and jobs1.read_bytes() == cold.read_bytes(),
                  "--jobs 1 output differs from the --jobs 2 output")
        self.notes["measured_resume_items_per_s"] = {"value": median(self.resume_rates),
                                            "unit": "lines/s"}
        self.framing_probe(d)
        shutil.rmtree(d)
        return wall, ops

    def framing_probe(self, d: Path) -> None:
        """Lines with in-line breaks that occur in crawled news, through
        the ``cat`` command backend.  Results are reported, not counted
        as workload failures (see README.md)."""
        failures = {}
        for tag, line in gen.FRAMING_PROBE:
            src, out = d / f"probe-{tag}.txt", d / f"probe-{tag}.out"
            text = f"Ein ganz normaler Satz.\n{line}\n"
            src.write_bytes(text.encode("utf-8"))
            op = self.launcher.run(["ape-apply", "--in", str(src), "--backend",
                                    str(self.inp.from_pivot), "--scope", "all", "--out", str(out)],
                                   self.work)
            if op.code != 0 or _read(out) != text:
                failures[tag] = (op.stderr.strip().splitlines() or ["output differs"])[-1]
        self.notes["framing_probe_failed"] = f"{len(failures)} of {len(gen.FRAMING_PROBE)}"
        self.notes["framing_probe_errors"] = failures


WORKLOADS = {w.name: w for w in (EvalSplit, RttData)}


def run(name: str, seed: int, seconds: float, work: Path, launcher: Launcher) -> dict:
    """The untraced end-to-end run: set-up probes, then timed repetitions."""
    wl = WORKLOADS[name](seed, work, launcher)
    setup = [wl.setup_op(i).wall_s for i in range(SETUP_RUNS // 2)]
    rates, measured_rates, rss, measured = [], [], [], 0.0
    while len(rates) < MIN_REPS or measured < seconds:
        wall, ops = wl.rep(len(rates))
        measured += wall
        measured_rates.append(wl.items / wall)
        rates.append(wl.items / (wall * at_reference_speed(ops)))
        rss.append(max(op.maxrss_mb for op in ops))
    setup += [wl.setup_op(i).wall_s for i in range(SETUP_RUNS // 2, SETUP_RUNS)]
    ledger = wl.ledger
    scale = at_reference_speed(ledger.ops)
    notes = dict(wl.notes, items=wl.items,
                 measured_items_per_s=[round(r, 1) for r in measured_rates],
                 items_per_s=[round(r, 1) for r in rates],
                 measured_setup_s=round(median(setup), 4), reference_speed_factor=round(scale, 4))
    print("perfbench: " + json.dumps(notes, ensure_ascii=True))
    metrics = {
        "setup_s": (median(setup) * scale, "s"),
        "items_per_s": (median(rates), "items/s"),
        "peak_rss_mb": (median(rss), "MB"),
        "ok_ops_share": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
    }
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
