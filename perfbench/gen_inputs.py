"""Generate a seeded pool of spectrum pairs with golden CLI outputs.

    python3 perfbench/gen_inputs.py --seed 1 --count 8   # the benchmark pool
    python3 perfbench/gen_inputs.py --seed 2 --count 4   # the held-out pool

Each candidate pair is two traceless SD/ASD spectra drawn from the seed.  A
pair is kept only if ``positivity_bound`` reports it positive and not
excluded and its golden ``balance --auto`` run exits 0 with parameters inside
the asymptotic regime (no regime warning).  Outside the regime the automatic
selection tries up to three gammas, so the work of one ``balance --auto`` would
depend on which pair a seed picks; inside it, one gamma.  For every kept pair
the pool stores the spectrum JSON files the CLI reads, the golden stdout of
``balance --auto``, of the benchmark's sweep (written with
WEYLGLUE_THREADS=1), of ``verify all`` at a drawn seed and of ``interact``,
and their exit codes.  Golden outputs are only valid for the commit that
produced them; the manifest records which one.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

import measure
import workloads
from envinfo import commit_sha


def _spectrum(rng: random.Random) -> dict:
    def triple():
        a, b = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        return [a, b, -(a + b)]
    return {"sd": triple(), "asd": triple()}


def _positive(m: str, z: str) -> bool:
    probe = ("import json, sys; import weylglue as wg;"
             "w = [wg.algweyl_from_spectrum(*wg.spectrum_from_json(json.load(open(p))))"
             " for p in sys.argv[1:]];"
             "print(json.dumps(wg.positivity_bound(*w)))")
    run = measure.run_python(["-c", probe, m, z])
    if run.rc != 0:
        raise RuntimeError(f"positivity probe failed: {run.stderr}")
    flags = json.loads(run.stdout)
    return (flags["positive"] and not flags["excluded_case"]
            and not flags["conformally_flat_factor"])


def generate(seed: int, count: int, out: Path) -> None:
    rng = random.Random(seed)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    entries, rejected = [], 0
    while len(entries) < count:
        d = out / f"p{len(entries):02d}"
        d.mkdir()
        m, z = d / "m.json", d / "z.json"
        m.write_text(json.dumps(_spectrum(rng)) + "\n")
        z.write_text(json.dumps(_spectrum(rng)) + "\n")
        verify_seed = rng.randrange(2 ** 31)
        if not _positive(str(m), str(z)):
            rejected += 1
            shutil.rmtree(d)
            continue
        bal = measure.run_cli(workloads.balance_argv(str(m), str(z)))
        if bal.rc != 0 or json.loads(bal.stdout)["regime_warnings"]:
            rejected += 1
            shutil.rmtree(d)
            continue
        sweep = measure.run_cli(workloads.sweep_argv(str(m), str(z)),
                                {"WEYLGLUE_THREADS": "1"})
        verify = measure.run_cli(workloads.verify_argv("all", verify_seed))
        inter = measure.run_cli(workloads.interact_argv(str(m), str(z)))
        for name, run in (("balance.out", bal), ("sweep.csv", sweep),
                          ("verify.out", verify), ("interact.out", inter)):
            (d / name).write_text(run.stdout)
        entries.append({"id": d.name, "verify_seed": verify_seed,
                        "rc": {"balance": bal.rc, "sweep": sweep.rc,
                               "verify": verify.rc, "interact": inter.rc}})
        print(f"{d.name}: balance {bal.wall_s:.1f}s sweep {sweep.wall_s:.1f}s "
              f"verify {verify.wall_s:.1f}s rc {entries[-1]['rc']}", file=sys.stderr)
    manifest = {"seed": seed, "count": count, "rejected": rejected,
                "commit": commit_sha(), "margin": workloads.MARGIN,
                "sweep_lambdas": workloads.SWEEP_LAMBDAS,
                "sweep_gammas": workloads.SWEEP_GAMMAS,
                "quad_level": workloads.QUAD_LEVEL, "entries": entries}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--out", default=None,
                    help="pool directory (default perfbench/data/pool-<seed>)")
    args = ap.parse_args()
    out = Path(args.out) if args.out else workloads.DATA / f"pool-{args.seed}"
    generate(args.seed, args.count, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
