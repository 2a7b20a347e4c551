"""Workload definitions, seeded input selection and the correctness gate.

A workload is a sequence of ``weylglue`` CLI commands.  Its inputs come from
a pool of spectrum pairs made by ``gen_inputs.py`` at a fixed pool seed; the
``--seed`` of a benchmark run only chooses the order in which pool entries
are used, so the same seed always gives the same commands.  Each pool entry
carries the golden outputs recorded when the pool was generated, and
``check`` compares a command's exit code and output against them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"

#: Pool the benchmark draws from.  ``data/pool-2`` is held out, for checking
#: a claim on inputs that were not looked at while the change was written.
MAIN_POOL = DATA / "pool-1"

MARGIN = "1.0"
#: First two points of energy.LAMBDA_GRID and energy.GAMMA_GRID.
SWEEP_LAMBDAS = ("2", "4")
SWEEP_GAMMAS = ("0.08", "0.04")
SWEEP_THREADS = 2
#: Default sphere quadrature level of every energy function the CLI calls.
QUAD_LEVEL = 12
#: Numeric fields must agree with the golden to this share of the largest
#: term of their report, so a rewrite that agrees to 1e-10 still passes.
REL_TOL = 1e-9

#: The workloads BENCHMARK.json lists.
WORKLOADS = ("balance-auto", "verify-all")
#: Runs by hand, not in the benchmark: one of its commands takes about 30 s,
#: so a run of the benchmark's length holds too few of them to be steady.
BY_HAND = ("sweep-threads",)
#: Not a benchmark workload: a few-second run for the self-tests.
SMOKE = "smoke"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the golden it is checked against."""

    kind: str
    argv: tuple
    golden_rc: int
    golden: str
    env: dict = field(default_factory=dict)
    spectra: tuple = ()


def balance_argv(m: str, z: str) -> list:
    return ["balance", m, z, "--auto", MARGIN]


def sweep_argv(m: str, z: str) -> list:
    return ["sweep", m, z, "--lambda-grid", *SWEEP_LAMBDAS,
            "--gamma-grid", *SWEEP_GAMMAS]


def verify_argv(suite: str, seed: int) -> list:
    return ["verify", suite, "--seed", str(seed)]


def interact_argv(m: str, z: str) -> list:
    return ["interact", m, z]


def load_pool(pool: Path) -> list:
    """Pool entries with absolute spectrum paths and golden texts."""
    manifest = json.loads((pool / "manifest.json").read_text())
    entries = []
    for entry in manifest["entries"]:
        d = pool / entry["id"]
        entries.append({
            **entry,
            "m": str(d / "m.json"),
            "z": str(d / "z.json"),
            "golden": {kind: (d / name).read_text()
                       for kind, name in (("balance", "balance.out"),
                                          ("sweep", "sweep.csv"),
                                          ("verify", "verify.out"),
                                          ("interact", "interact.out"))},
        })
    return entries


def commands(workload: str, seed: int, pool: Path = MAIN_POOL) -> list:
    """The workload's commands, one per pool entry, in the seed's order.

    A run cycles through this list for as long as its time allows.
    """
    entries = load_pool(pool)
    random.Random(seed).shuffle(entries)
    out = []
    for e in entries:
        rc = e["rc"]
        pair = (e["m"], e["z"])
        if workload == "balance-auto":
            out.append(Command("balance", tuple(balance_argv(*pair)), rc["balance"],
                               e["golden"]["balance"], spectra=pair))
        elif workload == "sweep-threads":
            out.append(Command("sweep", tuple(sweep_argv(*pair)), rc["sweep"],
                               e["golden"]["sweep"],
                               env={"WEYLGLUE_THREADS": str(SWEEP_THREADS)},
                               spectra=pair))
        elif workload == "verify-all":
            out.append(Command("verify", tuple(verify_argv("all", e["verify_seed"])),
                               rc["verify"], e["golden"]["verify"]))
        elif workload == SMOKE:
            out.append(Command("verify", tuple(verify_argv("sphere", e["verify_seed"])),
                               0, ""))
            out.append(Command("interact", tuple(interact_argv(*pair)), rc["interact"],
                               e["golden"]["interact"], spectra=pair))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out


# ---------------------------------------------------------------------------
# correctness gate

_ENERGY_KEYS = ("leading_bracket", "constant_C", "interaction_term", "remainder")


def _close(value, golden, scale: float) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)
            and abs(value - golden) <= REL_TOL * max(scale, 1e-300))


def _matches(value, golden, scale_of, path=()) -> str | None:
    """None if ``value`` agrees with ``golden``, else the first mismatch.

    Keys the golden lacks are ignored, so a report may gain fields.
    """
    if isinstance(golden, dict):
        if not isinstance(value, dict):
            return f"{'.'.join(path)}: expected an object"
        for key, g in golden.items():
            if key not in value:
                return f"{'.'.join(path + (key,))}: missing"
            bad = _matches(value[key], g, scale_of, path + (key,))
            if bad:
                return bad
        return None
    if isinstance(golden, list):
        if not isinstance(value, list) or len(value) != len(golden):
            return f"{'.'.join(path)}: expected {len(golden)} items"
        for i, (v, g) in enumerate(zip(value, golden)):
            bad = _matches(v, g, scale_of, path + (str(i),))
            if bad:
                return bad
        return None
    if isinstance(golden, (int, float)) and not isinstance(golden, bool):
        if not _close(value, golden, scale_of(path, golden)):
            return f"{'.'.join(path)}: {value!r} != golden {golden!r}"
        return None
    if value != golden:
        return f"{'.'.join(path)}: {value!r} != golden {golden!r}"
    return None


def _balance_scale(golden: dict):
    # the energy fields are compared against the largest term of the
    # bracket C - (4/9) pi^2 lam^2 (W * W); every other number (lam, gamma,
    # a, W * W itself) against its own size
    big = max(abs(golden[k]) for k in ("constant_C", "interaction_term",
                                       "leading_bracket"))
    return lambda path, g: big if path[0] in _ENERGY_KEYS else abs(g)


def _interact_scale(golden: dict):
    big = max(abs(golden["aligned_value"]), abs(golden["bound"]))
    spec = max(abs(x) for triple in golden["spectra"].values() for x in triple)
    return lambda path, g: spec if path[0] == "spectra" else big


def check(cmd: Command, rc: int, stdout: str) -> str | None:
    """None if the command's exit code and output pass the gate, else why not."""
    if rc != cmd.golden_rc:
        return f"exit code {rc}, expected {cmd.golden_rc}"
    if cmd.kind == "sweep":
        # the determinism contract: the threaded CSV is byte-identical to
        # the golden written with WEYLGLUE_THREADS=1
        return None if stdout == cmd.golden else "CSV differs from the golden"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if cmd.kind == "verify":
        failed = [c.get("name") for c in report.get("checks", []) if c.get("pass") is not True]
        if failed or report.get("pass") is not True:
            return f"verify checks failed: {failed}"
        if cmd.golden:
            names = [c["name"] for c in json.loads(cmd.golden)["checks"]]
            if [c["name"] for c in report["checks"]] != names:
                return "verify ran a different set of checks than the golden"
        return None
    golden = json.loads(cmd.golden)
    scale = _balance_scale(golden) if cmd.kind == "balance" else _interact_scale(golden)
    return _matches(report, golden, scale)
