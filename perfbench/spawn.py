"""Run one command to exit and report its wall time, CPU time, exit code and
peak resident set as JSON.

    python3 -S perfbench/spawn.py RESULT.json COMMAND [ARG ...]

run.py starts every pass through this small standard-library process
because Linux floors a child's reported peak resident set at its parent's
resident set when the child is started; the benchmark's own process holds
large arrays, this one does not.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    result, command = argv[0], argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
