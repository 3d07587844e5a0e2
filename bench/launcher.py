"""Start the benchmark's children and report what ``os.wait4`` measured.

Reads one JSON request per line on stdin (``argv``, ``cwd``, ``env``,
``stdout``, ``stderr``, ``timeout``), runs it to completion and answers with
one JSON line: ``wall_s``, ``rss_mb``, ``cpu_s`` and ``code``, or
``{"timeout": true}`` after killing a child that outlived its timeout.

Children are started from this small process rather than from the benchmark
itself because a child started with ``vfork`` (as ``subprocess`` does on
Linux) inherits the high-water RSS of the process that started it: its
``ru_maxrss`` would never read below the benchmark's own peak. This process
stays near the size of a bare interpreter.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _on_alarm(signum, frame):
    raise TimeoutError


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            return {"timeout": True}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
    }


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
