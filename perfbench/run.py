"""The weylglue benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload balance-auto --seed 0 --seconds 60 --trace 0

With ``--trace 0`` the workload's CLI commands run one after another, each in
a fresh interpreter with tracing off, cycling through the seed's inputs while
the next command is expected to end within ``--seconds`` of the start; at
least one runs.  Before each command, ``SETUP_PER_COMMAND`` set-up
interpreters import ``weylglue.cli`` and load the spectrum files.  The
end-to-end metrics are the least wall and CPU seconds of the commands, the
median of their child RSS, and the median set-up time.  No command is
discarded as a warm-up.

With ``--trace 1`` the workload's first command runs in-process twice, in two
fresh interpreters: untraced, then under ``tracer.Tracer``.  The per-layer
metrics come from the traced run; ``trace.overhead_s`` is the difference of
the two walls.

Every command's exit code and output pass through ``workloads.check``.  The
report prints each metric by name with its unit, then an environment record,
and, as its last line, the JSON result.  ``--out FILE`` also appends the run
to a result file that ``diff.py`` compares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import envinfo
import measure
import tracer
import workloads

#: Set-up interpreters run before each command, so that their median covers
#: the host's speed over the whole run rather than its first seconds.
SETUP_PER_COMMAND = 4
#: The set-up a user pays before any computation: a fresh interpreter that
#: imports the CLI and parses the workload's spectrum files.
SETUP_SNIPPET = (
    "import json, sys; import weylglue.cli;"
    "from weylglue import algweyl_from_spectrum, spectrum_from_json;"
    "[algweyl_from_spectrum(*spectrum_from_json(json.load(open(p))))"
    " for p in sys.argv[1:]]")
#: Metric units, from the metric lists of BENCHMARK.json.
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class Tally:
    """Commands attempted and the reasons of those that failed the gate."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, cmd: workloads.Command, rc: int, stdout: str, stderr: str = "") -> None:
        why = workloads.check(cmd, rc, stdout)
        self.attempted += 1
        if why:
            tail = stderr.strip().splitlines()[-1:]
            self.failures.append(f"{' '.join(cmd.argv[:2])}: {why} {' '.join(tail)}")

    def fail(self, why: str, commands: int = 1) -> None:
        self.attempted += commands
        self.failures.extend([why] * commands)


def measure_untraced(cmds, seconds: float, tally: Tally) -> dict:
    start = time.perf_counter()
    files = sorted({p for c in cmds for p in c.spectra})
    setup, runs = [], []
    while True:
        for _ in range(SETUP_PER_COMMAND):
            run = measure.run_python(["-c", SETUP_SNIPPET, *files])
            if run.rc != 0:
                tally.fail(f"set-up failed: {run.stderr.strip()[-200:]}")
            setup.append(run.wall_s)
        cmd = cmds[len(runs) % len(cmds)]
        run = measure.run_cli(cmd.argv, cmd.env)
        tally.add(cmd, run.rc, run.stdout, run.stderr)
        runs.append(run)
        elapsed = time.perf_counter() - start
        upcoming = (statistics.median(r.wall_s for r in runs)
                    + SETUP_PER_COMMAND * statistics.median(setup))
        if elapsed + upcoming > seconds:
            break
    # other tenants of the host only ever slow a command down, so the fastest
    # command of a run is the steadiest estimate of the program's own time
    return {"wall_s": min(r.wall_s for r in runs),
            "cpu_s": min(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
            "setup_s": statistics.median(setup)}


def measure_traced(workload: str, seed: int, pool: Path, tally: Tally) -> dict:
    cmds = tracer.inprocess_commands(workload, seed, pool)
    walls, metrics = {}, {}
    for trace in (0, 1):
        run = measure.run_python([str(workloads.HERE / "tracer.py"), "--workload", workload,
                                  "--seed", str(seed), "--trace", str(trace),
                                  "--pool", str(pool)])
        if run.rc != 0:
            tally.fail(f"in-process run failed: {run.stderr.strip()[-300:]}", len(cmds))
            continue
        record = json.loads(run.stdout)
        for cmd, (rc, stdout) in zip(cmds, record["runs"]):
            tally.add(cmd, rc, stdout)
        walls[trace] = record["wall_s"]
        metrics.update(record["metrics"])
    if len(walls) == 2:
        metrics["trace.overhead_s"] = walls[1] - walls[0]
    return metrics


def _append_result(path: Path, env: dict, record: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"env": env, "runs": []}
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + workloads.BY_HAND + (workloads.SMOKE,))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pool", default=str(workloads.MAIN_POOL),
                    help="input pool (the held-out pool is data/pool-2)")
    ap.add_argument("--out", default=None, help="append the run to this result file")
    args = ap.parse_args(argv)

    env = envinfo.probe()
    if env is None:
        print(f"error: cannot import weylglue.cli from {workloads.SRC}", file=sys.stderr)
        return 2
    pool = Path(args.pool)
    try:
        cmds = workloads.commands(args.workload, args.seed, pool)
    except OSError as exc:
        print(f"error: cannot read the input pool: {exc}", file=sys.stderr)
        return 2
    tally = Tally()
    if args.trace:
        metrics = measure_traced(args.workload, args.seed, pool, tally)
    else:
        metrics = measure_untraced(cmds, args.seconds, tally)
    fail_frac = len(tally.failures) / max(tally.attempted, 1)
    # fail_frac is 0 on a correct program, so it is reported as a layer
    # metric; the result line carries it as failed / attempted either way
    if args.trace:
        metrics["fail_frac"] = fail_frac

    env.update(seed=args.seed, workload=args.workload, pool=pool.name,
               quad_level=workloads.QUAD_LEVEL, warmup_discarded=0)
    for why in tally.failures:
        print(f"FAIL {why}")
    print(f"{'fail_frac':40s} {fail_frac:.6g} {UNITS['fail_frac']}"
          f"  ({len(tally.failures)} of {tally.attempted} commands)")
    for name, value in metrics.items():
        if name != "fail_frac":
            print(f"{name:40s} {value:.6g} {UNITS[name]}")
    print(json.dumps({"env": env}, sort_keys=True))
    result = {"correct": not tally.failures, "attempted": max(tally.attempted, 1),
              "failed": len(tally.failures),
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    if args.out:
        _append_result(Path(args.out), env, {**result, "workload": args.workload,
                                             "seed": args.seed, "trace": args.trace,
                                             "seconds": args.seconds})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
