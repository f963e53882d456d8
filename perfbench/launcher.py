"""Start benchmark processes from a small process, so that each one's ru_maxrss is its own.

Linux carries the resident size of the process that forks a child into the
child's ru_maxrss.  The harness grows while it parses reports and spans; this
process stays at the size of a bare interpreter, below any job.

It runs with the working directory and environment of the jobs.  Protocol,
one JSON object per line:
  stdin   {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
  stdout  {"wall_s": s, "cpu_s": s, "maxrss_kb": kb, "exit_code": int or null}
``exit_code`` is null when the process was killed at the timeout.  Wall time
runs from just before the spawn to the return of wait4.
"""

import json
import os
import select
import sys
from time import perf_counter


def run(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        finished = bool(select.select([pidfd], [], [], timeout)[0])
        if not finished:
            os.kill(pid, 9)
        _, status, rusage = os.wait4(pid, 0)
        wall = perf_counter() - start
    finally:
        os.close(pidfd)
    return {
        "wall_s": wall,
        "cpu_s": rusage.ru_utime + rusage.ru_stime,
        "maxrss_kb": rusage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status) if finished else None,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"], request["timeout"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
