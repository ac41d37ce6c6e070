"""What each entry point imports: the package resolves its public names on
first use, and each CLI subcommand loads only the library modules it runs.

The boundary checks run in a fresh interpreter, since this process has
already imported everything."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rtt_ape

SRC = Path(rtt_ape.__file__).resolve().parents[1]
PACKAGE = SRC / "rtt_ape"
README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).parent / "data"


def _modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def _run_cli(*argv: str) -> str:
    return f"from rtt_ape.cli import main\nassert main({list(argv)!r}) == 0"


def _ours(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("rtt_ape.")}


class TestImportBoundary:
    def test_importing_the_cli_loads_only_errors_and_lineio(self):
        assert _ours(_modules_after("import rtt_ape.cli")) == {
            "rtt_ape.cli", "rtt_ape.errors", "rtt_ape.lineio"}

    def test_ape_apply_loads_no_scoring_and_no_thread_pool(self, tmp_path):
        spec, split, hyp = tmp_path / "den.json", tmp_path / "split.json", tmp_path / "hyp.txt"
        spec.write_text(json.dumps({"kind": "toy_denoiser", "from_lang": "de", "to_lang": "de",
                                    "channel": {"lexicon": {"erhält": "empfängt"}}}))
        split.write_text(json.dumps({"source_original": [0], "target_original": [1]}))
        hyp.write_text("er erhält es\nsie erhält es\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        modules = _modules_after(_run_cli(
            "ape-apply", "--in", str(hyp), "--backend", str(spec), "--scope",
            "target_original_only", "--split", str(split), "--out", str(out)))
        assert out.read_text(encoding="utf-8") == "er erhält es\nsie empfängt es\n"
        assert not {"rtt_ape.scoring", "rtt_ape.analysis", "concurrent.futures"} & modules

    def test_split_loads_no_backends_and_no_scoring(self, tmp_path):
        out = tmp_path / "split.json"
        modules = _modules_after(_run_cli(
            "split", "--sgm", str(DATA / "mini_ende_src.sgm"), "--src", "en", "--tgt", "de",
            "--out", str(out)))
        assert json.loads(out.read_text())["n"] == 20
        assert not {"rtt_ape.backends", "rtt_ape.scoring"} & modules


class TestLazyPackageApi:
    def test_every_public_name_is_its_submodule_attribute(self):
        for name in rtt_ape.__all__:
            if name == "__version__":
                continue
            module = importlib.import_module(f"rtt_ape.{rtt_ape._MODULE_OF[name]}")
            assert getattr(rtt_ape, name) is getattr(module, name), name

    def test_readme_library_block_runs(self):
        section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace: dict = {}
        exec(block, namespace)
        assert namespace["corpus_bleu"] is rtt_ape.scoring.corpus_bleu

    def test_dir_lists_the_public_names(self):
        assert set(rtt_ape.__all__) <= set(dir(rtt_ape))

    def test_unknown_names_fail_as_usual(self):
        with pytest.raises(AttributeError, match="nope"):
            rtt_ape.nope  # noqa: B018
        with pytest.raises(ImportError, match="nope"):
            from rtt_ape import nope  # noqa: F401

    def test_importing_the_package_loads_no_submodule(self):
        assert _ours(_modules_after("import rtt_ape; rtt_ape.__version__")) == set()


def _deferred_imports() -> list[tuple[str, int, str, str]]:
    """Every ``from .module import name`` inside a function of the package,
    as (file, line, module, name)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    found += [(path.name, node.lineno, node.module, alias.name)
                              for alias in node.names]
    return found


class TestDeferredImports:
    """A misspelled import in a rarely run subcommand fails here, not in a
    user's run."""

    def test_every_deferred_import_names_an_existing_attribute(self):
        imports = _deferred_imports()
        assert len(imports) > 20  # the CLI's subcommands import inside their bodies
        missing = [
            f"{file}:{line}: from .{module} import {name}"
            for file, line, module, name in imports
            if not hasattr(importlib.import_module(f"rtt_ape.{module}"), name)
        ]
        assert missing == []
