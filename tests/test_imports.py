"""What each entry point imports: the package resolves its public names on
first use, the CLI imports a subcommand's module on first use, and each
subcommand loads only the library modules and the stdlib modules it runs.

The boundary checks run in a fresh interpreter, since this process has
already imported everything.  The source scans at the end find dead
imports and definitions, and file I/O outside ``lineio``."""

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
from rtt_ape.cli import SUBCOMMANDS

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


def _imported_names(path: Path) -> set[str]:
    """The absolute module names the import statements of ``path`` name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def _run_cli(*argv: str) -> str:
    return f"from rtt_ape.cli import main\nassert main({list(argv)!r}) == 0"


def _ours(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("rtt_ape.")}


class TestImportBoundary:
    def test_importing_the_cli_loads_only_errors_and_lineio(self):
        modules = _ours(_modules_after("import rtt_ape.cli"))
        assert modules == {"rtt_ape.cli", "rtt_ape.errors", "rtt_ape.lineio"}
        # Manifest timestamps come from ``time``: of the CLI's start, only
        # click (``click.types``) loads ``datetime``.
        assert "datetime" not in {name for module in modules
                                  for name in _imported_names(PACKAGE / f"{module[8:]}.py")}

    def test_version_loads_no_subcommand_module_no_subprocess_and_no_gzip(self):
        modules = _modules_after(_run_cli("--version"))
        assert _ours(modules) == {"rtt_ape.cli", "rtt_ape.errors", "rtt_ape.lineio"}
        assert not {"subprocess", "gzip", "queue"} & modules

    def test_help_loads_every_subcommand_module(self):
        modules = _modules_after(_run_cli("--help"))
        assert {f"rtt_ape.{m}" for m in SUBCOMMANDS.values()} <= modules

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
        assert not {"rtt_ape.scoring", "rtt_ape.analysis", "rtt_ape.testset", "rtt_ape.corpus",
                    "concurrent.futures", "subprocess"} & modules
        assert _ours(modules) & {f"rtt_ape.{m}" for m in SUBCOMMANDS.values()} == {
            "rtt_ape.cli_pipeline"}

    def test_split_loads_no_backends_and_no_scoring(self, tmp_path):
        out = tmp_path / "split.json"
        modules = _modules_after(_run_cli(
            "split", "--sgm", str(DATA / "mini_ende_src.sgm"), "--src", "en", "--tgt", "de",
            "--out", str(out)))
        assert json.loads(out.read_text())["n"] == 20
        assert not {"rtt_ape.backends", "rtt_ape.scoring", "gzip", "queue"} & modules

    def test_report_split_loads_no_backends_and_no_gzip(self, tmp_path):
        """A small report-split also scores in one process: it starts no
        process and loads no ``pickle``, which only forking needs."""
        from rtt_ape.testset import parse_sgm

        with open(DATA / "mini_ende_ref.sgm", "rb") as fh:
            refs = [segment.text for segment in parse_sgm(fh, side="ref")]
        hyp, out = tmp_path / "hyp.txt", tmp_path / "report.json"
        hyp.write_text("".join(f"{line}\n" for line in refs), encoding="utf-8")
        no_fork = ("import os\n"
                   "def _no_fork(): raise AssertionError('report-split forked')\n"
                   "os.fork = _no_fork\n")
        modules = _modules_after(no_fork + _run_cli(
            "report-split", "--src-sgm", str(DATA / "mini_ende_src.sgm"), "--ref-sgm",
            str(DATA / "mini_ende_ref.sgm"), "--src", "en", "--tgt", "de",
            "--hyp", f"ref={hyp}", "--hyp", f"again={hyp}", "--out", str(out)))
        assert json.loads(out.read_text())["ref"]["split_scores"]["full"]["score"] == 100.0
        assert not {"rtt_ape.backends", "gzip", "queue", "pickle", "subprocess"} & modules

    def test_rtt_gen_with_a_cat_backend_loads_subprocess_and_matches_identity(self, tmp_path):
        mono = tmp_path / "mono.txt"
        mono.write_text("guten tag\nwie geht es\n", encoding="utf-8")
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps({"kind": "command", "command": "cat"}))
        outs = {name: tmp_path / f"{name}.tsv" for name in ("cat", "identity")}
        for name, backend in (("cat", str(cat)), ("identity", "identity")):
            modules = _modules_after(_run_cli(
                "rtt-gen", "--in", str(mono), "--to-pivot", backend, "--from-pivot", backend,
                "--out", str(outs[name])))
            assert ("subprocess" in modules) == (name == "cat")
        assert outs["cat"].read_bytes() == outs["identity"].read_bytes()
        assert outs["cat"].read_text(encoding="utf-8") == (
            "guten tag\tguten tag\nwie geht es\twie geht es\n")


class TestLazyPackageApi:
    def test_every_public_name_is_its_submodule_attribute(self):
        for name in rtt_ape.__all__:
            if name == "__version__":
                continue
            module = importlib.import_module(f"rtt_ape.{rtt_ape._MODULE_OF[name]}")
            assert getattr(rtt_ape, name) is getattr(module, name), name

    def test_split_halves_is_one_class_under_every_name(self):
        from rtt_ape.halves import SplitHalves

        assert rtt_ape.SplitHalves is rtt_ape.testset.SplitHalves is SplitHalves

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


def _deferred_imports() -> list[tuple[str, int, ast.Import | ast.ImportFrom]]:
    """Every import statement inside a function of the package, as (file,
    line, statement)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((path.name, node.lineno, node))
    return found


class TestDeferredImports:
    """A misspelled import in a rarely run path fails here, not in a user's
    run."""

    def test_every_deferred_import_names_an_existing_attribute(self):
        imports = [(file, line, node.module, alias.name)
                   for file, line, node in _deferred_imports()
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names]
        assert len(imports) > 20  # the CLI's subcommands import inside their bodies
        missing = [
            f"{file}:{line}: from .{module} import {name}"
            for file, line, module, name in imports
            if not hasattr(importlib.import_module(f"rtt_ape.{module}"), name)
        ]
        assert missing == []

    def test_every_deferred_stdlib_import_imports(self):
        imports = [(file, line, alias.name, None) for file, line, node in _deferred_imports()
                   if isinstance(node, ast.Import) for alias in node.names]
        imports += [(file, line, node.module, alias.name)
                    for file, line, node in _deferred_imports()
                    if isinstance(node, ast.ImportFrom) and node.level == 0
                    for alias in node.names]
        assert {"gzip", "queue", "shlex", "subprocess", "urllib.request"} <= {
            module for _, _, module, _ in imports}
        failed = []
        for file, line, module, name in imports:
            try:
                imported = importlib.import_module(module)
                if name is not None and not hasattr(imported, name):
                    importlib.import_module(f"{module}.{name}")  # a submodule
            except ImportError:
                failed.append(f"{file}:{line}: {module} {name or ''}".rstrip())
        assert failed == []


def _unused_imports(source: str) -> list[str]:
    """The names an import binds in ``source`` that its scope never uses:
    the module for a module-level import, the enclosing function for one in
    a function.  A use is a name in code or in a string annotation, or an
    entry of a literal ``__all__``."""
    tree = ast.parse(source)
    imports = (ast.Import, ast.ImportFrom)
    funcs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    in_func = {id(n) for f in funcs for n in ast.walk(f) if isinstance(n, imports)}
    scopes = [(tree, [n for n in ast.walk(tree) if isinstance(n, imports) and id(n) not in in_func])]
    scopes += [(f, [n for n in ast.walk(f) if isinstance(n, imports)]) for f in funcs]
    unused = []
    for scope, statements in scopes:
        used = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Name):
                used.add(node.id)
            annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
            for annotation in annotations:
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                                if isinstance(n, ast.Name))
            if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        for statement in statements:
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            for alias in statement.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{statement.lineno}: {name}")
    return unused


class TestDeadImports:
    """Code moved between modules tends to leave its imports behind."""

    def test_no_module_imports_a_name_it_never_uses(self):
        unused = [f"{path.name}:{found}" for path in sorted(PACKAGE.glob("*.py"))
                  for found in _unused_imports(path.read_text(encoding="utf-8"))]
        assert unused == []

    def test_the_scan_finds_a_dead_import_in_each_kind_of_scope(self):
        source = ("from __future__ import annotations\n"
                  "import os, json\n"
                  "from typing import TYPE_CHECKING\n"
                  "if TYPE_CHECKING:\n"
                  "    from x import Spec, Other\n"
                  "def f(a: Spec) -> 'Other':\n"
                  "    import gzip\n"
                  "    from .y import z\n"
                  "    return os.sep, z\n")
        assert _unused_imports(source) == ["2: json", "7: gzip"]


def _dead_definitions(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """The module-level functions, classes and assigned names of ``sources``
    (file name: source) that no other line of any of them names, as a
    variable, an attribute or an imported name.  A definition's own lines
    do not count, so a function that only calls itself is dead too."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    uses: dict[str, list[tuple[str, int]]] = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, ast.alias):
                used = node.name
            else:
                continue
            uses.setdefault(used, []).append((file, node.lineno))
    dead = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            for name in names:
                if name in exempt or name.endswith("_cmd"):
                    continue
                if not any(f != file or line not in own for f, line in uses.get(name, ())):
                    dead.append(f"{file}:{node.lineno}: {name}")
    return dead


class TestDeadDefinitions:
    """Code that lost its last caller tends to stay behind."""

    def test_every_module_level_definition_is_named_elsewhere_in_the_package(self):
        """Exempt: the subcommands (``cli.SUBCOMMANDS`` finds each
        ``<name>_cmd`` by name), the package's ``__getattr__``/``__dir__``,
        and its public names, some of which only tests and benchmarks call."""
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in sorted(PACKAGE.glob("*.py"))}
        exempt = {"__getattr__", "__dir__", *rtt_ape._MODULE_OF}
        assert _dead_definitions(sources, exempt) == []

    def test_the_scan_finds_each_kind_of_dead_definition(self):
        sources = {
            "a.py": ("import b\n"
                     "LIMIT = 3\n"
                     "UNUSED: int = 4\n"
                     "def helper():\n"
                     "    return b.used()\n"
                     "def recursive(n):\n"
                     "    return recursive(n - 1)\n"
                     "class Gone:\n"
                     "    pass\n"
                     "def run_cmd():\n"
                     "    return helper() + LIMIT\n"),
            "b.py": "def used():\n    return 1\n",
        }
        assert _dead_definitions(sources, set()) == [
            "a.py:3: UNUSED", "a.py:6: recursive", "a.py:8: Gone"]


# Path methods that read or write a whole file.
_FILE_METHODS = {"read_text", "read_bytes", "write_text", "write_bytes"}


def _file_io(source: str) -> list[str]:
    """Each call in ``source`` that does file I/O of its own, as
    "<function>: <what>": ``open()``, a whole-file ``Path`` method,
    ``os.replace`` or ``Path.replace`` (a ``replace`` with one argument;
    ``str.replace`` takes two), and decoding with ``errors="replace"``."""
    tree = ast.parse(source)
    owner = {}  # call -> the innermost function around it (ast.walk goes outside in)
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), func.name) for node in ast.walk(func))
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        errors = [k.value for k in call.keywords if k.arg == "errors"]
        if name == "decode":
            errors += call.args[1:2]
        if name == "open" and isinstance(func, ast.Name):
            what = "open()"
        elif name in _FILE_METHODS:
            what = f".{name}()"
        elif name == "replace" and (len(call.args) == 1 and not call.keywords or (
                isinstance(func.value, ast.Name) and func.value.id == "os")):
            what = "os.replace() or Path.replace()"
        elif any(isinstance(e, ast.Constant) and e.value == "replace" for e in errors):
            what = 'errors="replace"'
        else:
            continue
        found.append(f"{owner.get(id(call), '<module>')}: {what}")
    return found


class TestFileIoOwner:
    """``lineio`` opens, decodes and atomically writes the program's files,
    so that each format has one reader and one writer, and every decoding
    error names its file and line."""

    # The pipe ends of the forked workers; the SGM parser's
    # input, which it decodes strictly, span by span; and a failed command
    # backend's stderr, quoted in the error message.
    ALLOWED = {
        "parallel.py:_results: open()",
        "cli.py:_read_sgm: .read_bytes()",
        'backends.py:_run_command_batch: errors="replace"',
    }

    def test_only_lineio_does_file_io(self):
        found = {f"{path.name}:{call}" for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "lineio.py"
                 for call in _file_io(path.read_text(encoding="utf-8"))}
        assert found - self.ALLOWED == set()
        assert self.ALLOWED <= found  # a stale exception is removed from the list

    def test_the_scan_finds_each_kind_of_file_io(self):
        source = ("import os\n"
                  "from pathlib import Path\n"
                  "def f(p, data):\n"
                  "    with open(p) as fh:\n"
                  "        fh.read()\n"
                  "    def inner():\n"
                  "        return Path(p).read_bytes(), data.decode('utf-8', 'replace')\n"
                  "    Path(p).write_text('x')\n"
                  "    Path(p).replace(p + '.old')\n"
                  "    os.replace(p, p + '.old')\n"
                  "    str(data, 'utf-8', errors='replace')\n"
                  "    return p.replace('a', 'b'), data.decode('utf-8'), inner\n")
        assert sorted(_file_io(source)) == sorted([
            "f: open()", "inner: .read_bytes()", 'inner: errors="replace"',
            "f: .write_text()", "f: os.replace() or Path.replace()",
            "f: os.replace() or Path.replace()", 'f: errors="replace"'])


def _cli_framing(source: str) -> list[str]:
    """Each place in ``source`` that frames data itself, as "<line>: <what>":
    a string literal holding a tab, and a ``click.echo`` (or ``echo``) call
    that does not write to stderr (``err=True``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\t" in node.value:
            found.append(f"{node.lineno}: tab literal")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            to_stderr = any(k.arg == "err" and isinstance(k.value, ast.Constant)
                            and k.value.value is True for k in node.keywords)
            if name == "echo" and not to_stderr:
                found.append(f"{node.lineno}: echo to stdout")
    return found


class TestCliFraming:
    """``lineio`` writes every output, stdout included, and frames every
    line and TSV row, so that stdout holds the bytes ``--out`` would; the
    CLI itself writes only diagnostics, to stderr."""

    def test_no_cli_module_frames_data(self):
        found = [f"{path.name}:{call}" for path in sorted(PACKAGE.glob("cli*.py"))
                 for call in _cli_framing(path.read_text(encoding="utf-8"))]
        assert found == []

    def test_the_scan_finds_each_kind_of_framing(self):
        source = ("import click\n"
                  "from click import echo\n"
                  "def f(row):\n"
                  "    click.echo('\\t'.join(row))\n"
                  "    click.echo(f'{row[0]}\\t{row[1]}', nl=False)\n"
                  "    echo(row[0], err=False)\n"
                  "    click.echo('diagnostic', err=True)\n"
                  "    return 'tab\\there'\n")
        assert sorted(_cli_framing(source)) == [
            "4: echo to stdout", "4: tab literal", "5: echo to stdout", "5: tab literal",
            "6: echo to stdout", "8: tab literal"]
