"""Starts the benchmark's child commands and reports their wall time, exit
code and peak RSS, one JSON request and one JSON reply per line.

It runs as its own small process because Linux carries the resident set of
the process that forks into the child's ``ru_maxrss``: children forked from
the benchmark process (numpy loaded, corpora parsed) would report its size
instead of their own.

Request: {"cmd": [...], "cwd": str, "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}. Reply: {"code": int, "wall_s": float, "maxrss_kb": int}.
"""

import json
import os
import select
import subprocess
import sys
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], req["timeout"])
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
