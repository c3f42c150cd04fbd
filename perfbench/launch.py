"""Spawns CLI children for run.py and reports wall time and rusage per child.

On Linux a child's ``ru_maxrss`` includes the peak resident set of the
process it was forked from, so children are started from this small
process rather than from run.py, which holds the corpus and parses outputs.

Protocol: one JSON request per stdin line, ``{"argv": [...], "timeout": s,
"stderr": path}``; one JSON reply per stdout line, ``{"rc", "wall", "cpu",
"rss_mb"}``.  The launcher exits at end of input.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(argv: list[str], timeout: float, stderr_path: str) -> dict:
    """Run one child; wall time from spawn to reaped exit, rusage from wait4.

    The child is killed after ``timeout`` seconds, or if this process is
    interrupted, and is always reaped before returning.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    return {"rc": rc, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    # Terminating the launcher raises SystemExit in wait4, which kills the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["timeout"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
