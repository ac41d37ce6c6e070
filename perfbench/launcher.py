"""Starts the benchmark's CLI processes on behalf of the benchmark process.

A process started by fork and exec keeps, as its peak RSS, the peak of the
process it was forked from (the kernel carries it across exec).  The
benchmark process holds generated inputs and reference outputs in memory,
so every child forked from it would report at least its size.  This
helper is started while the benchmark process is still small and forks
every CLI process itself, so that each child's peak RSS is its own.

When a request asks for it, the helper first times a fixed reference
job (``calibrate``), which tells how fast the shared host runs at that
moment; the benchmark scales its timings by it (see README.md).

Protocol: one JSON request per line on stdin ({"argv", "cwd", "env",
"stdout", "stderr", "calibrate"}), one JSON reply per line on stdout
({"code", "wall_s", "maxrss_kb", "calib_s"}; "calib_s" is null unless
asked for).  The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time
import zlib

# About 370 KB of German-like text for the zlib part of the reference job.
_CALIB_BYTES = " ".join(f"{w}{(i * 7919) % 1000}" for i, w in enumerate(
    ["Haus", "Straße", "über", "Zeitung", "Wort", "Meter", "3,5"] * 6000)).encode("utf-8")


def calibrate() -> float:
    """Wall seconds of the reference job: zlib compression and two fresh
    interpreter starts, about half the time each (0.24 s in all on the
    baseline host).  Of the jobs tried, this mix followed the host's speed
    drift most closely in step with the CLI workloads."""
    start = time.perf_counter()
    for level in (6, 9, 6, 9):
        zlib.compress(_CALIB_BYTES, level)
    for _ in range(2):
        subprocess.run([sys.executable, "-c", "import gzip, json, re"], check=True)
    return time.perf_counter() - start


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        calib = calibrate() if req.get("calibrate") else None
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                 "calib_s": calib}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
