"""Run one command; print its start time, wall time, exit code and peak RSS.

    python3 -I -S spawn.py STDERR_FILE COMMAND...

On Linux a child's ru_maxrss also holds the RSS high-water mark of the
process that spawned it, carried over at exec. The benchmark process holds
numpy and the generated inputs, so it starts each child through this small
process, whose own high-water mark stays below any child's.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> None:
    err_path, *cmd = argv
    with open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump({"start": start, "wall": wall, "code": proc.returncode,
               "rss_mb": usage.ru_maxrss / 1024.0}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
