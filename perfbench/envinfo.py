"""The environment a benchmark result was measured in."""

from __future__ import annotations

import json
import os
import platform

import measure
from workloads import ROOT

_PROBE = """
import json, sys, numpy, weylglue.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "weylglue": getattr(weylglue, "__version__", "unknown")}))
"""


def commit_sha() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe() -> dict | None:
    """Import the package in a fresh pinned interpreter and describe it.

    Returns None if ``weylglue.cli`` cannot be imported from the checkout.
    """
    run = measure.run_python(["-c", _PROBE])
    if run.rc != 0:
        return None
    return {**json.loads(run.stdout), "commit": commit_sha(),
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "pinned_env": measure.PINNED}
