"""Run one command and print its wall time, peak RSS and exit code as JSON.

    python perfbench/spawn.py TIMEOUT_S STDERR_FILE -- COMMAND...

run.py starts every op through this small process. On Linux a child's
ru_maxrss includes the resident size of the process it was forked from.
Forked from run.py, which holds the input and its parsed records, an op
would report at least run.py's size. Forked from here, it reports its own.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def main() -> None:
    timeout_s, stderr_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        sys.exit("usage: spawn.py TIMEOUT_S STDERR_FILE -- COMMAND...")
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        signal.alarm(int(timeout_s))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}))


if __name__ == "__main__":
    main()
