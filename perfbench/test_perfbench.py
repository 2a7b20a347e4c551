"""Self-tests of the benchmark harness; they use the few-second smoke mode.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _smoke_cmds(seed=0):
    return tracer.inprocess_commands(workloads.SMOKE, seed, workloads.MAIN_POOL)


def _namespace_snapshot():
    import weylglue
    mods = [weylglue] + [getattr(weylglue, m) for m in tracer.MODULES] + [weylglue.cli]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    cqf = weylglue.fields.CurvatureQuadraticField
    snap.update({("CurvatureQuadraticField", k): v for k, v in vars(cqf).items()})
    return snap


def test_wrappers_keep_output_and_are_removed():
    import weylglue.cli  # noqa: F401  (load every module before the snapshot)
    before = _namespace_snapshot()
    _, plain = tracer.run_inprocess(_smoke_cmds())
    with tracer.Tracer() as t:
        _, traced = tracer.run_inprocess(_smoke_cmds(), t)
    after = _namespace_snapshot()
    assert traced == plain
    assert t.spans, "the tracer recorded nothing"
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_nonnegative_and_sum_to_root():
    with tracer.Tracer() as t:
        tracer.run_inprocess(_smoke_cmds(), t)
    assert all(sp.self_s >= -1e-9 for sp in t.spans)
    roots = [sp for sp in t.spans if sp.parent is None]
    assert {sp.name for sp in roots} == {tracer.ROOT}
    total_self = sum(sp.self_s for sp in t.spans)
    total_root = sum(sp.dur for sp in roots)
    assert abs(total_self - total_root) <= 1e-9 * max(total_root, 1.0)


def _last_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_smoke_passes_gate():
    result = _last_json(["--workload", "smoke", "--seed", "0", "--seconds", "1",
                         "--trace", "0"])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in run.SPEC["end_to_end"]]


def test_corrupted_golden_makes_fail_frac_positive(tmp_path):
    pool = tmp_path / "pool"
    shutil.copytree(workloads.MAIN_POOL, pool)
    manifest = json.loads((pool / "manifest.json").read_text())
    manifest["entries"] = manifest["entries"][:1]
    (pool / "manifest.json").write_text(json.dumps(manifest))
    golden = pool / manifest["entries"][0]["id"] / "interact.out"
    report = json.loads(golden.read_text())
    report["aligned_value"] *= 1.0 + 1e-6
    golden.write_text(json.dumps(report))
    result = _last_json(["--workload", "smoke", "--seed", "0", "--seconds", "1",
                         "--trace", "1", "--pool", str(pool)])
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["fail_frac"]["value"] > 0


def test_gate_tolerance_is_relative_to_largest_term():
    cmd = workloads.commands("balance-auto", 0)[0]
    report = json.loads(cmd.golden)
    report["remainder"] += 1e-11 * abs(report["constant_C"])
    assert workloads.check(cmd, 0, json.dumps(report)) is None
    report["remainder"] += 1e-6 * abs(report["constant_C"])
    assert workloads.check(cmd, 0, json.dumps(report)) is not None
    assert workloads.check(cmd, 1, cmd.golden) is not None


def test_benchmark_json_names_every_layer_metric():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    with tracer.Tracer() as t:
        pass
    emitted = [*t.metrics(), "trace.overhead_s", "fail_frac"]
    assert sorted(emitted) == sorted(m["name"] for m in spec["per_layer"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "verify-all", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
