"""Runs children for bench/run.py and reports each one's own peak RSS.

A child's ru_maxrss from wait4 is at least the high-water RSS of the process
it was forked from, because Linux carries that figure across fork and exec.
bench/run.py grows as it imports qint and runs workloads in-process, so it
starts this small process first and spawns every timed child through it.

Reads one JSON request per line on stdin:
    {"argv": [...], "env": {...}, "cwd": ..., "out": path, "err": path, "timeout": s}
and writes one JSON line per request: {"rc", "wall_s", "peak_rss_mb"}.
Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"],
                                cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"rc": proc.returncode, "wall_s": wall,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
