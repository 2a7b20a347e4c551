"""Running CLI commands in fresh interpreters and reading their own rusage."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from workloads import SRC

#: Pinned in every child so that WEYLGLUE_THREADS is the only source of
#: extra threads.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def child_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "WEYLGLUE_THREADS")}
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


@dataclass(frozen=True)
class ChildRun:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_python(args: list, extra_env: dict | None = None) -> ChildRun:
    """Run ``python args...`` and measure it from its own rusage (os.wait4)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(extra_env),
                            text=True)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildRun(rc=proc.returncode, stdout=out, stderr=err[0], wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    rss_mb=usage.ru_maxrss / 1024.0)


def run_cli(argv, extra_env: dict | None = None) -> ChildRun:
    return run_python(["-m", "weylglue.cli", *argv], extra_env)
