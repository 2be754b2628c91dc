"""Start each CLI command from a small process, so its peak RSS is its own.

On Linux a child's ru_maxrss also counts the high-water RSS of the process
that spawned it: the memory image the child runs in until it execs.
run.py grows while it generates inputs and checks outputs, so it hands
every command to this helper, which imports nothing heavy. Protocol: one
JSON request per line on stdin, one JSON result per line on stdout; end of
input ends the helper.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = perf_counter()
        child = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
        watchdog = threading.Timer(request["timeout"], child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": child.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
