"""Small helper process that runs the ``cli`` workload's child processes.

On Linux a child's peak resident memory (``ru_maxrss``) starts at the
resident size of the process that spawned it, so children spawned from
the benchmark process, which holds numpy and the corpora, would report
the benchmark's memory instead of their own. This helper imports nothing
beyond the standard library and stays small; the benchmark sends it one
JSON request per line and reads one JSON reply per line.

Request: ``{"argv": [...], "cwd": dir, "stdin": text or null}``.
Reply: ``{"rc": exit code, "stdout": text, "stderr": text, "seconds": wall
time from spawn to reap, "rss_mb": the child's peak resident memory}``.

The child's streams are pipes, not files: on a file system mounted with
``discard``, truncating or deleting a file that holds data can take tens
of milliseconds, which would land in the timed operation.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(argv: list[str], cwd: str, stdin: str | None) -> dict:
    t0 = perf_counter()
    p = subprocess.Popen(
        argv, cwd=cwd, text=True,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    err: list[str] = []
    # stdin and stderr are pumped on threads so no pipe can fill and stall
    # the child while stdout is read here; wait4 then reaps the child
    # together with its own resource usage.
    pumps = [threading.Thread(target=lambda: err.append(p.stderr.read()))]
    if stdin is not None:
        def feed() -> None:
            p.stdin.write(stdin)
            p.stdin.close()
        pumps.append(threading.Thread(target=feed))
    for t in pumps:
        t.start()
    out = p.stdout.read()
    for t in pumps:
        t.join()
    _, status, usage = os.wait4(p.pid, 0)
    seconds = perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return {"rc": p.returncode, "stdout": out, "stderr": err[0], "seconds": seconds,
            "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["cwd"], req["stdin"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
