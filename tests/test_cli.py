import csv
import io
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from weylglue import cli, energy
from weylglue.gluing import RegimeWarning

from oracles import kulkarni_nomizu


@pytest.fixture
def spectra(tmp_path):
    paths = {}
    for name, payload in (
        ("pair", {"sd": [1.0, 0.0, -1.0], "asd": [1.0, 0.0, -1.0]}),
        ("sd_only", {"sd": [2.0, -1.0, -1.0], "asd": [0.0, 0.0, 0.0]}),
        ("asd_only", {"sd": [0.0, 0.0, 0.0], "asd": [1.0, 1.0, -2.0]}),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_verify_sphere_passes(capsys):
    code, out = run(["verify", "sphere"], capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert all(c["pass"] for c in report["checks"])
    assert all(c["residual"] <= c["tol"] for c in report["checks"])


def test_verify_all_runs_every_suite(capsys):
    # the check list of perfbench/data/pool-1/p00/verify.out, in order
    names = ["closed-vs-direct-solve", "boundary-conditions", "interpolant-bilaplacian",
             "linearizations-vs-fd", "sphere-volume-L12", "sphere-moments-L12",
             "sphere-volume-L16", "sphere-moments-L16", "weyl-class-residual",
             "operator-round-trip", "hodge-block-diagonal", "interpolant-tt",
             "boundary-forms-agree", "cubic-remainder-slope", "first-variation-vanishes"]
    code, out = run(["verify", "all", "--seed", "0"], capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert report["pass"]
    assert [c["name"] for c in report["checks"]] == names


POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "data"
POOL_ENTRIES = [(pool.name, entry["id"], entry["verify_seed"])
                for pool in sorted(POOLS.glob("pool-*"))
                for entry in json.loads((pool / "manifest.json").read_text())["entries"]]


@pytest.mark.parametrize("pool, entry, seed", POOL_ENTRIES,
                         ids=[f"{pool}-{entry}" for pool, entry, _ in POOL_ENTRIES])
def test_verify_all_emits_golden_check_names(capsys, pool, entry, seed):
    # the benchmark's gate compares these names, in order, with the golden
    golden = json.loads((POOLS / pool / entry / "verify.out").read_text())
    code, out = run(["verify", "all", "--seed", str(seed)], capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS and report["pass"]
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in golden["checks"]]


def test_verify_tol_override_fails(capsys):
    code, out = run(["verify", "sphere", "--tol", "1e-20"], capsys)
    assert code == cli.EXIT_FAIL
    assert not all(c["pass"] for c in json.loads(out)["checks"])


def test_verify_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == cli.EXIT_INPUT


def test_verify_negative_seed_exits_two(capsys):
    code = cli.main(["verify", "sphere", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert "--seed" in captured.err


def test_verify_tensor_reports_coupled_blocks_as_failed(capsys, monkeypatch):
    # a Kulkarni-Nomizu product of a trace-free diagonal with delta couples
    # the SD and ASD blocks; the coupling is its trace-free Ricci part, so
    # the Weyl-class check fails beside the block check
    names = [c["name"] for c in json.loads(run(["verify", "tensor"], capsys)[1])["checks"]]
    diag = np.diag([1.0, -1.0, 0.5, -0.5])
    monkeypatch.setattr(cli, "_random_weyl",
                        lambda rng: kulkarni_nomizu(diag, np.eye(4)))
    code, out = run(["verify", "tensor"], capsys)
    checks = json.loads(out)["checks"]
    assert code == cli.EXIT_FAIL
    assert [c["name"] for c in checks] == names
    assert [c["name"] for c in checks if not c["pass"]] == ["weyl-class-residual",
                                                            "hodge-block-diagonal"]
    assert checks[names.index("hodge-block-diagonal")]["residual"] > 0.1


def test_verify_variation_reports_disagreeing_forms_as_failed(capsys, monkeypatch):
    # the biharm bulk kernel off by 1e-6: the interpolant's biharm form has a
    # bulk term, so the forms disagree there (model_H's has none)
    names = [c["name"] for c in json.loads(run(["verify", "variation"], capsys)[1])["checks"]]
    kernel = energy._bulk_kernel

    def scaled(form, p, q):
        return kernel(form, p, q) * (1.0 + 1e-6 if form == "biharm" else 1.0)

    monkeypatch.setattr(energy, "_bulk_kernel", scaled)
    code, out = run(["verify", "variation"], capsys)
    checks = json.loads(out)["checks"]
    assert code == cli.EXIT_FAIL
    assert [c["name"] for c in checks] == names
    assert [c["name"] for c in checks if not c["pass"]] == ["boundary-forms-agree"]


def test_cubic_remainder_check_reports_its_slope(capsys):
    code, out = run(["verify", "variation", "--seed", "0"], capsys)
    check, = [c for c in json.loads(out)["checks"] if c["name"] == "cubic-remainder-slope"]
    assert code == cli.EXIT_PASS and check["pass"]
    assert 2.7 <= check["slope"] <= 3.3


def test_verify_all_leaves_numpy_random_unimported():
    # in a fresh interpreter: pytest itself imports numpy.random
    script = ("import io, sys, contextlib\n"
              "from weylglue import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(['verify', 'all', '--seed', '0'])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(cli.EXIT_PASS), "False"]


def test_interact_reports_values(spectra, capsys):
    code, out = run(["interact", spectra["pair"], spectra["pair"], "--align"],
                    capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert report["aligned_value"] == pytest.approx(24.0, rel=1e-12)
    assert report["bound"] == pytest.approx(12.0, rel=1e-12)
    assert report["realized_value"] == pytest.approx(24.0, rel=1e-10)
    assert report["positive"]
    assert not report["excluded_case"]


def test_interact_flags_excluded_case(spectra, capsys):
    code, out = run(["interact", spectra["sd_only"], spectra["asd_only"]],
                    capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert report["excluded_case"]
    assert report["aligned_value"] == pytest.approx(0.0, abs=1e-12)


def test_interact_flat_factor_against_huge_one(tmp_path, capsys):
    # the bound is 0 times the other factor's size, not 0 times an
    # overflowed norm
    flat, huge = tmp_path / "flat.json", tmp_path / "huge.json"
    flat.write_text('{"sd": [0, 0, 0], "asd": [0, 0, 0]}')
    huge.write_text('{"sd": [1e200, 0, -1e200], "asd": [1e200, 0, -1e200]}')
    code, out = run(["interact", str(flat), str(huge)], capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert report["bound"] == 0.0 and report["aligned_value"] == 0.0
    assert report["conformally_flat_factor"] and not report["positive"]


#: pool-1/p07 of the benchmark inputs
P07 = ({"sd": [1.3968784634435116, -0.2034982863551386, -1.193380177088373],
        "asd": [-0.370545939521914, -1.030264479235384, 1.4008104187572978]},
       {"sd": [-0.24691610606420947, -0.03735294596532606, 0.2842690520295355],
        "asd": [-0.8198068314937882, -1.6065296561342064, 2.4263364876279945]})


def test_balance_auto_selection_is_scale_free(tmp_path, capsys):
    # the bracket is quadratic in the pair, so scaling both tensors by c and
    # the margin by c^2 selects the same gamma and a, and lam up to the
    # quadrature's roundoff in C (a difference of terms 5e6 times its size);
    # at c = 1e8 the triples' roundoff sums exceed an absolute 1e-9
    selected = []
    for c in (1.0, 1e3, 1e8):
        paths = []
        for name, payload in zip("mz", P07):
            path = tmp_path / f"{name}{c:g}.json"
            path.write_text(json.dumps({k: [c * v for v in vals]
                                        for k, vals in payload.items()}))
            paths.append(str(path))
        code, out = run(["balance", *paths, "--auto", repr(c * c)], capsys)
        assert code == cli.EXIT_PASS
        selected.append(json.loads(out)["selected"])
    for other in selected[1:]:
        assert (other["gamma"], other["a"]) == (selected[0]["gamma"], selected[0]["a"])
        assert other["lambda"] == pytest.approx(selected[0]["lambda"], rel=1e-8)


#: pool-1/p06 of the benchmark inputs, for which ``balance --auto 1.0``
#: selects gamma = 0.04
P06 = ({"sd": [0.9777226473527388, 0.14626901165989176, -1.1239916590126307],
        "asd": [-0.5673982496249909, 0.307678267088885, 0.25971998253610584]},
       {"sd": [1.663432590499867, 1.3544502575594655, -3.0178828480593323],
        "asd": [-0.6835582902869458, -0.043505966327812916, 0.7270642566147587]})


@pytest.mark.parametrize("pair, args, threads, count", [
    (P07, ["balance", "--auto", "1.0"], "1", 5),
    (P06, ["balance", "--auto", "1.0"], "1", 7),
    (P07, ["balance", "--lambda", "3", "--gamma", "0.04", "--a", "1e-5"], "1", 5),
    (P07, ["sweep"], "1", 37),
    (P07, ["sweep"], "2", 37),
], ids=["auto-gamma-0.02", "auto-gamma-0.04", "manual", "sweep-1-thread", "sweep-2-threads"])
def test_commands_integrate_each_sphere_once(tmp_path, capsys, monkeypatch, pair, args,
                                             threads, count):
    # --auto at 0.02: the inner model and C's interpolant at 0.02, the outer
    # model and the interpolant's two spheres; at 0.04 also the inner model
    # and C's interpolant at 0.04.  The default 5 x 3 sweep: the outer model,
    # the inner model and C's interpolant per gamma, two spheres per point
    paths = []
    for name, payload in zip("mz", pair):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    calls = []
    original = energy._boundary_quadrature

    def counting(h, r, level=12):
        calls.append(r)
        return original(h, r, level)

    monkeypatch.setattr(energy, "_boundary_quadrature", counting)
    monkeypatch.setenv("WEYLGLUE_THREADS", threads)
    code, out = run([args[0], *paths, *args[1:]], capsys)
    assert code == cli.EXIT_PASS
    if "--auto" in args:
        assert json.loads(out)["gamma"] == (0.02 if count == 5 else 0.04)
    assert len(calls) == count


def test_balance_auto_says_when_w_star_w_underflows(tmp_path, capsys):
    # positivity_bound pairs the spectra scaled to 1 and finds the pair
    # positive, but W * W of the tensors themselves underflows to 0.0, and
    # lam would be inf
    path = tmp_path / "tiny.json"
    path.write_text('{"sd": [1e-300, -5e-301, -5e-301], "asd": [0, 0, 0]}')
    code = cli.main(["balance", str(path), str(path), "--auto", "1.0"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert "underflow: W * W = 0.0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("scale", ["1e-153", "1e-120"])
def test_balance_auto_says_when_tensors_are_too_small_for_the_margin(tmp_path, capsys,
                                                                     scale):
    # W * W is a normal float, but the absolute margin needs a lam whose
    # fourth power overflows: the input is too small, not too large
    path = tmp_path / "tiny.json"
    path.write_text(f'{{"sd": [{scale}, 0, -{scale}], "asd": [{scale}, 0, -{scale}]}}')
    code = cli.main(["balance", str(path), str(path), "--auto", "1.0"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert "too small" in captured.err and "too large" not in captured.err
    for name in ("margin 1.0", "W * W = ", "lam = "):
        assert name in captured.err


def test_balance_negative_bracket(spectra, capsys):
    code, out = run(["balance", spectra["pair"], spectra["pair"],
                     "--lambda", "2.0", "--gamma", "0.02", "--a", "2e-5"],
                    capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert report["negative"]
    assert report["leading_bracket"] < 0.0
    assert report["interaction"] == pytest.approx(24.0, rel=1e-10)
    # the truncated model has no error tensors, so no cutoff-region term
    assert report["error_model"] == "truncated"
    assert report["cutoff_region_term"] == 0.0


def test_balance_reports_regime_warnings(spectra, capsys):
    # a > gamma^2 / 10 and gamma > 1 / (10 lam) both leave the regime
    code, out = run(["balance", spectra["pair"], spectra["pair"],
                     "--lambda", "2", "--gamma", "0.2", "--a", "0.005"], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["regime_warnings"] == [
        "regime violated: a = 0.005 > gamma^2/10 = 0.004",
        "regime violated: gamma = 0.2 > 1/(10 lam) = 0.05"]


def test_balance_sweep_option_is_gone(spectra, capsys):
    # a lambda sweep at one gamma is `sweep --gamma-grid <gamma>`
    with pytest.raises(SystemExit) as exc:
        cli.main(["balance", spectra["pair"], spectra["pair"], "--auto", "1.0",
                  "--sweep", "x.csv"])
    assert exc.value.code == cli.EXIT_INPUT


@pytest.mark.parametrize("margin, want", [("-1", cli.EXIT_INPUT), ("0", cli.EXIT_PASS)])
def test_balance_auto_margin_must_be_nonnegative(spectra, capsys, margin, want):
    code, _ = run(["balance", spectra["pair"], spectra["pair"], "--auto", margin], capsys)
    assert code == want


@pytest.mark.parametrize("manual", [
    ["--lambda", "5"], ["--gamma", "0.5", "--a", "0.3"],
    # invalid values are refused for the conflict, not read
    ["--lambda", "5", "--gamma", "0.5", "--a", "0.3"], ["--a", "-1"]])
def test_balance_auto_refuses_manual_parameters(spectra, capsys, manual):
    code = cli.main(["balance", spectra["pair"], spectra["pair"], "--auto", "1.0", *manual])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert "--auto conflicts with" in captured.err
    assert all(flag in captured.err for flag in manual if flag.startswith("--"))


def test_balance_auto_refuses_manual_parameters_from_config(spectra, capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"auto": 1.0, "gamma": 0.02}))
    code = cli.main(["balance", spectra["pair"], spectra["pair"], "--config", str(conf)])
    assert code == cli.EXIT_INPUT
    assert "--auto conflicts with --gamma" in capsys.readouterr().err
    conf.write_text(json.dumps({"lambda": 2.0}))
    code = cli.main(["balance", spectra["pair"], spectra["pair"], "--config", str(conf),
                     "--auto", "1.0"])
    assert code == cli.EXIT_INPUT
    assert "--auto conflicts with --lambda" in capsys.readouterr().err


def test_balance_missing_params_exits_two(spectra, capsys):
    code, _ = run(["balance", spectra["pair"], spectra["pair"],
                   "--lambda", "2.0"], capsys)
    assert code == cli.EXIT_INPUT


def test_balance_refuses_excluded_case(spectra, capsys):
    code, _ = run(["balance", spectra["sd_only"], spectra["asd_only"],
                   "--lambda", "2.0", "--gamma", "0.02", "--a", "2e-5"],
                  capsys)
    assert code == cli.EXIT_INPUT


def test_balance_auto_selects_parameters(spectra, capsys):
    code, out = run(["balance", spectra["pair"], spectra["pair"],
                     "--auto", "1.0"], capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert report["leading_bracket"] < -1.0
    assert set(report["selected"]) == {"lambda", "gamma", "a"}


def test_sweep_csv_shape(spectra, capsys):
    code, out = run(["sweep", spectra["pair"], spectra["pair"],
                     "--lambda-grid", "1.0", "4.0",
                     "--gamma-grid", "0.08", "0.04"], capsys)
    assert code == cli.EXIT_PASS
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert list(rows[0]) == cli.CSV_COLUMNS
    assert {row["sign"] for row in rows} <= {"negative", "nonnegative"}
    # small lambda cannot beat the constant, large lambda must win
    by_lam = {float(r["lambda"]): r["sign"] for r in rows}
    assert by_lam[1.0] == "nonnegative"
    assert by_lam[4.0] == "negative"


def test_sweep_silences_regime_warnings_on_main_thread(spectra, capsys, monkeypatch,
                                                      recwarn):
    # catch_warnings swaps the process-wide warnings.filters, so entering it
    # on pool threads can leave the filters changed after the sweep
    entered = []

    class Recording(warnings.catch_warnings):
        def __enter__(self):
            entered.append(threading.current_thread() is threading.main_thread())
            return super().__enter__()

    monkeypatch.setattr(warnings, "catch_warnings", Recording)
    monkeypatch.setenv("WEYLGLUE_THREADS", "2")
    # lam = 4 breaks gamma <= 1/(10 lam); the CSV does not report the regime
    code, _ = run(["sweep", spectra["pair"], spectra["pair"],
                   "--lambda-grid", "2.0", "4.0", "--gamma-grid", "0.04"], capsys)
    assert code == cli.EXIT_PASS
    assert entered and all(entered)
    assert not [w for w in recwarn if issubclass(w.category, RegimeWarning)]


def test_sweep_excluded_case_is_inconclusive(spectra, capsys):
    code, out = run(["sweep", spectra["sd_only"], spectra["asd_only"],
                     "--lambda-grid", "2.0", "--gamma-grid", "0.08"], capsys)
    assert code == cli.EXIT_PASS
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["sign"] == "inconclusive"


def test_sweep_deterministic_across_threads(spectra, capsys, monkeypatch):
    args = ["sweep", spectra["pair"], spectra["pair"],
            "--lambda-grid", "1.0", "3.0", "--gamma-grid", "0.08", "0.04"]
    monkeypatch.setenv("WEYLGLUE_THREADS", "1")
    _, serial = run(args, capsys)
    monkeypatch.setenv("WEYLGLUE_THREADS", "4")
    _, threaded = run(args, capsys)
    assert serial == threaded


def test_bad_thread_count_exits_two(spectra, capsys, monkeypatch):
    monkeypatch.setenv("WEYLGLUE_THREADS", "zero")
    code, _ = run(["sweep", spectra["pair"], spectra["pair"],
                   "--lambda-grid", "2.0", "--gamma-grid", "0.08"], capsys)
    assert code == cli.EXIT_INPUT


def test_config_file_supplies_defaults(spectra, capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lambda": 2.0, "gamma": 0.02, "a": 2e-5}))
    code, out = run(["balance", spectra["pair"], spectra["pair"],
                     "--config", str(conf)], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["lam"] == 2.0


def test_config_flag_wins_over_file(spectra, capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lambda": 2.0, "gamma": 0.02, "a": 2e-5}))
    code, out = run(["balance", spectra["pair"], spectra["pair"],
                     "--config", str(conf), "--lambda", "3.0"], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["lam"] == 3.0


def test_config_sets_subcommand_defaults(spectra, capsys, tmp_path):
    # keys whose defaults only the subcommand parser knows
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": 5}))
    code, out = run(["verify", "sphere", "--config", str(conf)], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["seed"] == 5
    conf.write_text(json.dumps({"auto": 1.0}))
    code, out = run(["balance", spectra["pair"], spectra["pair"],
                     "--config", str(conf)], capsys)
    assert code == cli.EXIT_PASS
    assert set(json.loads(out)["selected"]) == {"lambda", "gamma", "a"}


def test_config_loses_to_flag_equal_to_default(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": 5}))
    code, out = run(["verify", "sphere", "--config", str(conf), "--seed", "0"], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["seed"] == 0


def test_config_output_takes_a_path(capsys, tmp_path):
    # --output has no type, so its config value is taken as the string given
    target = tmp_path / "r.json"
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"output": str(target)}))
    code, out = run(["verify", "sphere", "--config", str(conf)], capsys)
    assert code == cli.EXIT_PASS
    assert out == ""
    assert json.loads(target.read_text())["checks"]


def _command_argv(command, spectra):
    if command == "verify":
        return ["verify", "sphere"]
    return [command, spectra["pair"], spectra["pair"]]


@pytest.mark.parametrize("payload", [
    ("balance", {"sede": 5}), ("balance", {"error-model": "exact"}),
    # not an object
    ("balance", [1, 2]), ("balance", 3),
    # a bool, list, null or non-integer where the option takes a number
    ("verify", {"seed": 1.5}), ("verify", {"tol": [1]}), ("verify", {"seed": True}),
    ("verify", {"seed": [1, 2]}), ("balance", {"lambda": None}),
    ("balance", {"auto": "wide"}),
    # a grid that is no list of numbers, a non-bool flag, a non-string path
    ("sweep", {"lambda-grid": 2.0}), ("sweep", {"gamma-grid": [0.08, False]}),
    ("interact", {"align": "yes"}), ("verify", {"output": 3}),
    # an option that no longer exists, with a value of either type
    ("balance", {"sweep": 1}), ("balance", {"sweep": "x.csv"}),
    # an empty grid, refused as on the command line, not run as the default
    ("sweep", {"lambda-grid": []}), ("sweep", {"gamma-grid": []}),
    # a config file that names another one, which would never be read
    ("balance", {"config": "/nonexistent.json"})])
def test_bad_config_key_exits_two(spectra, capsys, tmp_path, payload):
    command, content = payload
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(content))
    code, _ = run(_command_argv(command, spectra) + ["--config", str(conf)], capsys)
    assert code == cli.EXIT_INPUT


def test_config_values_take_option_types(spectra, capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lambda-grid": [2, 4], "gamma-grid": ["0.08"]}))
    code, out = run(_command_argv("sweep", spectra) + ["--config", str(conf)], capsys)
    assert code == cli.EXIT_PASS
    assert [float(r["lambda"]) for r in csv.DictReader(io.StringIO(out))] == [2.0, 4.0]
    conf.write_text(json.dumps({"align": True}))
    code, out = run(_command_argv("interact", spectra) + ["--config", str(conf)], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["aligned_value"] == pytest.approx(24.0, rel=1e-12)


def test_missing_spectrum_file_exits_two(capsys, tmp_path):
    code, _ = run(["interact", str(tmp_path / "nope.json"),
                   str(tmp_path / "nope.json")], capsys)
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("text", ["", '{"align": true,}'])
@pytest.mark.parametrize("where", ["spectrum", "config"])
def test_file_without_json_is_named(spectra, capsys, tmp_path, where, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    extra = [str(bad)] if where == "spectrum" else [spectra["pair"], "--config", str(bad)]
    code = cli.main(["interact", spectra["pair"], *extra])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} ")


def test_output_file_written(spectra, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _ = run(["interact", spectra["pair"], spectra["pair"],
                   "--output", str(target)], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(target.read_text())["aligned_value"] == pytest.approx(24.0)


def test_balance_auto_without_margin_exits_one(spectra, capsys, monkeypatch):
    # a bracket that never drops below -margin: valid input, failed check
    monkeypatch.setattr(cli.energy, "_bracket", lambda *args, **kw: 0.0)
    code, out = run(["balance", spectra["pair"], spectra["pair"],
                     "--auto", "1.0"], capsys)
    assert code == cli.EXIT_FAIL
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["balance", "PAIR", "PAIR", "--lambda", "inf", "--gamma", "0.02", "--a", "2e-5"],
    ["balance", "PAIR", "PAIR", "--auto", "nan"],
    ["balance", "PAIR", "PAIR", "--auto", "inf"],
    ["verify", "sphere", "--tol", "nan"],
    ["sweep", "PAIR", "PAIR", "--lambda-grid", "inf", "--gamma-grid", "0.08"],
])
def test_non_finite_number_exits_two(spectra, capsys, argv):
    code, out = run([spectra["pair"] if arg == "PAIR" else arg for arg in argv], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""


@pytest.mark.parametrize("tol, want", [("-1", cli.EXIT_INPUT), ("0", cli.EXIT_FAIL)])
def test_verify_tol_must_be_nonnegative(capsys, tol, want):
    # --tol 0 is valid input: the sphere suite's nonzero residuals fail it
    code, out = run(["verify", "sphere", "--tol", tol], capsys)
    assert code == want
    assert (out == "") == (want == cli.EXIT_INPUT)


def test_non_finite_spectrum_exits_two(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"sd": [NaN, 0.0, 0.0], "asd": [1.0, 0.0, -1.0]}')
    code = cli.main(["interact", str(path), str(path)])
    assert code == cli.EXIT_INPUT
    assert "'sd'" in capsys.readouterr().err


GOOD = {"sd": [1.0, 0.0, -1.0], "asd": [1.0, 0.0, -1.0]}


@pytest.mark.parametrize("command", ["interact", "balance"])
@pytest.mark.parametrize("text, key", [
    # not a JSON object
    pytest.param("5", "'sd' and 'asd'", id="number"),
    pytest.param('["sd", "asd"]', "'sd' and 'asd'", id="list"),
    pytest.param('"sd asd"', "'sd' and 'asd'", id="string"),
    # an entry that is no triple of numbers; the bools sum to zero
    pytest.param(json.dumps({**GOOD, "sd": {"a": 1}}), "'sd'", id="object-entry"),
    pytest.param(json.dumps({**GOOD, "asd": [True, False, -1]}), "'asd'", id="bools"),
    pytest.param(json.dumps({**GOOD, "sd": ["1", "0", "-1"]}), "'sd'", id="numeric-strings"),
    pytest.param(json.dumps({**GOOD, "asd": "1 0 -1"}), "'asd'", id="string-entry"),
    pytest.param(json.dumps({**GOOD, "sd": None}), "'sd'", id="null-entry"),
    pytest.param(json.dumps({**GOOD, "sd": [1.0, 0.0]}), "'sd'", id="pair"),
    # an integer that no float holds
    pytest.param('{"sd": [1%s, 0, -1%s], "asd": [1, 0, -1]}' % ("0" * 400, "0" * 400),
                 "'sd'", id="huge-int"),
    # a key beside the two triples, or a misspelt one
    pytest.param(json.dumps({**GOOD, "sdd": [5, 5, 5]}), "'sdd'", id="unknown-key"),
    pytest.param(json.dumps({"sd": GOOD["sd"], "ads": GOOD["asd"]}), "'ads'",
                 id="misspelt-key")])
def test_malformed_spectrum_file_exits_two(tmp_path, capsys, command, text, key):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(text)
    good.write_text(json.dumps(GOOD))
    extra = ["--auto", "1.0"] if command == "balance" else []
    code = cli.main([command, str(good), str(bad), *extra])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize("argv", [
    ["interact", "BIG", "BIG"],
    ["sweep", "BIG", "BIG", "--lambda-grid", "2", "--gamma-grid", "0.08"],
    ["balance", "BIG", "BIG", "--auto", "1"],
    # finite spectra and a lambda whose fourth power no float holds
    ["balance", "PAIR", "PAIR", "--lambda", "1e100", "--gamma", "0.02", "--a", "1e-6"],
    ["sweep", "PAIR", "PAIR", "--lambda-grid", "1e100", "--gamma-grid", "0.02"],
])
def test_overflow_exits_two_without_non_finite_output(tmp_path, argv):
    # the inputs are finite, but products of them overflow; the CLI runs in
    # its own process, where numpy's overflow warnings are not errors
    paths = {"BIG": tmp_path / "big.json", "PAIR": tmp_path / "pair.json"}
    paths["BIG"].write_text('{"sd": [1e200, 0, -1e200], "asd": [1e200, 0, -1e200]}')
    paths["PAIR"].write_text(json.dumps(GOOD))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "weylglue.cli"]
                          + [str(paths.get(arg, arg)) for arg in argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == cli.EXIT_INPUT
    assert "overflow" in proc.stderr
    assert proc.stdout == ""
