"""Fresh-process CLI runs and operation accounting.

Each CLI invocation is one operation.  It runs in a new interpreter, the
way a user runs the installed ``rtt-ape`` entry point, and is reaped with
``os.wait4`` so that its own peak RSS is known (see launcher.py).
``RUSAGE_CHILDREN`` would not do: its maximum is taken over every child
ever reaped and never resets.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Median seconds of launcher.calibrate() on the 2-core sandbox where the
# baseline was taken (Intel Xeon, 2.1 GHz).  It only sets the scale of
# the reported times (see at_reference_speed).
CALIB_REF_S = 0.24

# Same body as the console script that packaging generates for
# ``rtt-ape = "rtt_ape.cli:main"``.
_ENTRY = "import sys; from rtt_ape.cli import main; sys.exit(main())"


def require_source_tree() -> None:
    """Fail unless the program's sources sit next to the benchmark."""
    if not (SRC / "rtt_ape" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no rtt_ape sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("RTT_APE_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Op:
    """One finished CLI invocation."""

    name: str
    code: int
    wall_s: float
    maxrss_mb: float
    calib_s: float | None
    stderr: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


class Launcher:
    """Client of ``launcher.py``: runs each CLI invocation in a fresh
    interpreter, reaped with ``os.wait4`` by a helper process that stays
    small, so that the reported peak RSS is the child's own."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args: list[str], cwd: Path, calibrate: bool = False) -> Op:
        """Run ``rtt-ape <args>`` and wait for it to exit; with
        ``calibrate``, time the reference job just before."""
        return self.run_python(["-c", _ENTRY, *args], cwd, name=args[0], calibrate=calibrate)

    def run_python(self, py_args: list[str], cwd: Path, stdout: Path | None = None,
                   name: str = "python", calibrate: bool = False) -> Op:
        """Run ``python3 <py_args>`` with the program on its path."""
        err_path = cwd / ".stderr"
        request = {
            "argv": [sys.executable, *py_args],
            "cwd": str(cwd),
            "env": cli_env(),
            "stdout": str(stdout or os.devnull),
            "stderr": str(err_path),
            "calibrate": calibrate,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        err_path.unlink()
        # ru_maxrss is in KiB on Linux.
        return Op(name, reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0,
                  reply["calib_s"], stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def at_reference_speed(ops: list[Op]) -> float:
    """Factor that turns a time measured during ``ops`` into the time at
    the reference host speed: ``CALIB_REF_S`` over the median reference
    job time of the calibrated ops."""
    return CALIB_REF_S / median(op.calib_s for op in ops if op.calib_s is not None)


class Ledger:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self) -> None:
        self.ops: list[Op] = []

    def add(self, op: Op) -> Op:
        self.ops.append(op)
        if not op.ok:
            detail = "; ".join(op.problems) or op.stderr.strip()[-300:]
            print(f"perfbench: {op.name} failed (exit {op.code}): {detail}", file=sys.stderr)
        return op

    def check(self, op: Op, condition: bool, problem: str) -> None:
        """Record a failed output check against the operation that wrote it."""
        if not condition:
            op.problems.append(problem)
            print(f"perfbench: check failed after {op.name}: {problem}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)
