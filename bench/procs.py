"""Child processes, started one at a time and always waited for, and the
JSON reports they leave."""
from __future__ import annotations

import json
import os
import subprocess
import threading
import time


def run_child(argv: list[str], log_path: str, timeout_s: float, cwd: str):
    """Run ``argv`` to completion; returns (exit code, wall seconds, peak RSS
    in MB) of that child alone, read from ``wait4``. A child still running
    after ``timeout_s`` is killed, and its exit code is then negative."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=cwd)
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
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
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
