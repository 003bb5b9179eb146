"""Start benchmark children from a small process and report each one's usage.

Linux records, as a new process's peak RSS, the peak of the address space it
was forked from, until it calls exec.  Children started straight from the
benchmark would therefore inherit the benchmark's own peak (the ingest
input and the emit check hold hundreds of megabytes).  This process imports
nothing heavy, so its peak stays below that of any child it starts.

Protocol, one JSON object per line: read {"argv", "env", "cwd", "stdout",
"stderr", "timeout"} on stdin, run the child to completion, write
{"wall_s", "cpu_s", "peak_rss_mb", "code"} on stdout.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job: dict) -> dict:
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            job["argv"], stdout=out, stderr=err, env=job["env"], cwd=job["cwd"]
        )
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
