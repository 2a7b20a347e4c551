"""Compare two benchmark result files, workload by workload, metric by metric.

    python3 perfbench/run.py ... --out base.json     # on the parent commit
    python3 perfbench/run.py ... --out new.json      # on the change
    python3 perfbench/diff.py base.json new.json

Each metric is reduced to its median over the file's runs of that workload.
Every line gives the base median, the new median and their ratio.  A count
(unit ``count``: calls, points, ``energy.quad_points``,
``gluing.regime_warnings``) that differs between the files, or between runs
within one file, is flagged; the exit code is 1 if any is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """{workload: {metric: (unit, [values])}} over all runs in the file."""
    with open(path) as fh:
        data = json.load(fh)
    out = defaultdict(dict)
    for run in data["runs"]:
        for name, m in run["metrics"].items():
            out[run["workload"]].setdefault(name, (m["unit"], []))[1].append(m["value"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    flagged = 0
    for workload in sorted(set(base) | set(new)):
        print(f"== {workload}")
        print(f"{'metric':42s} {'base':>12s} {'new':>12s} {'new/base':>9s}  unit")
        names = list(base.get(workload, {}))
        names += [n for n in new.get(workload, {}) if n not in names]
        for name in names:
            unit, b = base.get(workload, {}).get(name, (None, []))
            unit_n, n = new.get(workload, {}).get(name, (None, []))
            unit = unit or unit_n
            mb = statistics.median(b) if b else None
            mn = statistics.median(n) if n else None
            ratio = f"{mn / mb:9.4f}" if mb and mn is not None else f"{'-':>9s}"
            flag = ""
            if unit == "count" and len(set(b) | set(n)) > 1:
                flag = "  COUNT DIFFERS"
                flagged += 1
            fmt = lambda v: f"{v:12.6g}" if v is not None else f"{'missing':>12s}"
            print(f"{name:42s} {fmt(mb)} {fmt(mn)} {ratio}  {unit}{flag}")
    if flagged:
        print(f"{flagged} count(s) differ")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
