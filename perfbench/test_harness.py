"""Self-test of the benchmark harness at small input sizes.

    python3 -m pytest perfbench -q

Checks that the generator is deterministic, that every metric named in
BENCHMARK.json is reported with its unit, that a deliberately broken
output is caught by the output checks, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

harness.require_source_tree()

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {"make_eval_inputs": 120, "make_pipeline_inputs": 3000}


@pytest.fixture()
def small(monkeypatch):
    """Shrink every workload's inputs."""
    for name, n in SMALL.items():
        maker = getattr(gen, name)
        monkeypatch.setattr(gen, name, lambda seed, out, _m=maker, _n=n: _m(seed, out, _n))


@pytest.fixture()
def launcher():
    launcher = harness.Launcher()
    yield launcher
    launcher.close()


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_generator_is_deterministic(small, tmp_path):
    for name in SMALL:
        make = getattr(gen, name)
        make(5, tmp_path / "a" / name)
        make(5, tmp_path / "b" / name)
        make(6, tmp_path / "c" / name)
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_generated_text_is_news_like():
    lines = gen.corpus_prep_lines(3, 5000)
    text = "".join(lines)
    assert any(ch in text for ch in "äöüß")
    assert "„" in text and "“" in text and "–" in text
    duplicates = len(lines) - len(set(lines))
    assert 0.25 < duplicates / len(lines) < 0.35


def _names_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_are_all_reported(small, launcher, tmp_path, workload):
    result = workloads.run(workload, 3, 0.0, tmp_path, launcher)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _names_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_are_all_reported(small, launcher, tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "ROOT", tmp_path)
    result = tracing.run("eval-split", 3, tmp_path, launcher)
    assert result["correct"], result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _names_units("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["scoring.ngram_stats_calls"] == 2 * 8 * SMALL["make_eval_inputs"]
    assert metrics["backends.cache_hit_share"] == 1.0


def test_times_are_scaled_by_the_median_reference_job():
    def op(calib):
        return harness.Op("x", 0, 1.0, 1.0, calib, "")

    ops = [op(None), op(harness.CALIB_REF_S / 2), op(harness.CALIB_REF_S * 2),
           op(harness.CALIB_REF_S * 2)]
    # A host half as fast as the reference: times halve at reference speed.
    assert harness.at_reference_speed(ops) == 0.5


def test_workload_list_matches_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[:-1]),
                    encoding="utf-8")


def _change_a_score(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report["sys1"]["split_scores"]["full"]["score"] += 0.01
    path.write_text(json.dumps(report), encoding="utf-8")


def _change_a_gz_line(path: Path) -> None:
    lines = gzip.decompress(path.read_bytes()).decode("utf-8").splitlines(True)
    lines[0] = "x" + lines[0]
    path.write_bytes(gzip.compress("".join(lines).encode("utf-8")))


class CorruptingLauncher(harness.Launcher):
    """Damages one output file right after the CLI wrote it."""

    def __init__(self, out_name: str, corrupt):
        super().__init__()
        self.out_name, self.corrupt = out_name, corrupt

    def run(self, args, cwd, calibrate=False):
        op = super().run(args, cwd, calibrate)
        if "--out" in args:
            out = Path(args[args.index("--out") + 1])
            if out.name == self.out_name and out.exists():
                self.corrupt(out)
        return op


@pytest.mark.parametrize("workload, out_name, corrupt", [
    ("eval-split", "report.json", _change_a_score),
    ("rtt-data", "cold.tsv", _drop_last_line),
    ("rtt-data", "resume.tsv", _drop_last_line),
    ("rtt-data", "clean.txt.gz", _change_a_gz_line),
])
def test_broken_output_is_caught(small, tmp_path, workload, out_name, corrupt):
    launcher = CorruptingLauncher(out_name, corrupt)
    try:
        result = workloads.run(workload, 3, 0.0, tmp_path, launcher)
    finally:
        launcher.close()
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ops_share"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(harness.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-split", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
