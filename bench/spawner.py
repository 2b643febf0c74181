"""Start the benchmark's commands and report how each one ran.

Reads one JSON request per line on stdin, {"cmd", "env", "cwd", "stdout",
"stderr", "timeout"}; runs the command in a session of its own with stdin
from /dev/null, waits for it, killing its process group at the timeout,
and writes one JSON line {"code", "seconds", "rss_kb", "timed_out"}.

Commands start from this small process rather than from the harness: the
peak RSS that ``wait4`` reports for a child (that of the child and of the
children it waited for) is never below the RSS of the process that forked
it.
"""

import json
import os
import signal
import sys
import time


def run(req: dict) -> dict:
    timed_out = False
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.setsid()
            os.chdir(req["cwd"])
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
            os.dup2(os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
            os.execve(req["cmd"][0], req["cmd"], req["env"])
        finally:
            os._exit(127)

    def kill(signum, frame):
        nonlocal timed_out
        timed_out = True
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    if timed_out:
        try:  # pool workers of the killed command
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return {"code": os.waitstatus_to_exitcode(status), "seconds": seconds,
            "rss_kb": usage.ru_maxrss, "timed_out": timed_out}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
