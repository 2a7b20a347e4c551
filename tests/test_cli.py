import csv
import io
import json

import pytest

from weylglue import cli


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


def test_verify_tol_override_fails(capsys):
    code, out = run(["verify", "sphere", "--tol", "1e-20"], capsys)
    assert code == cli.EXIT_FAIL
    assert not all(c["pass"] for c in json.loads(out)["checks"])


def test_verify_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == cli.EXIT_INPUT


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


def test_balance_negative_bracket(spectra, capsys):
    code, out = run(["balance", spectra["pair"], spectra["pair"],
                     "--lambda", "2.0", "--gamma", "0.02", "--a", "2e-5"],
                    capsys)
    report = json.loads(out)
    assert code == cli.EXIT_PASS
    assert report["negative"]
    assert report["leading_bracket"] < 0.0
    assert report["interaction"] == pytest.approx(24.0, rel=1e-10)


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


def test_balance_sweep_rows_equal_sweep_rows(spectra, capsys, tmp_path):
    gamma = 0.04
    a = gamma ** 2 / 20.0
    target = tmp_path / "lam.csv"
    code, _ = run(["balance", spectra["pair"], spectra["pair"], "--lambda", "2.0",
                   "--gamma", str(gamma), "--a", repr(a), "--sweep", str(target)], capsys)
    assert code == cli.EXIT_PASS
    code, out = run(["sweep", spectra["pair"], spectra["pair"],
                     "--gamma-grid", str(gamma)], capsys)
    assert code == cli.EXIT_PASS
    columns = [c for c in cli.CSV_COLUMNS if c != "sign"]
    want = [[row[c] for c in columns] for row in csv.DictReader(io.StringIO(out))]
    got = [[row[c] for c in columns]
           for row in csv.DictReader(io.StringIO(target.read_text()))]
    assert len(got) == len(want) == 5
    assert got == want


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


@pytest.mark.parametrize("payload", [{"sede": 5}, {"error-model": "exact"}])
def test_bad_config_key_exits_two(spectra, capsys, tmp_path, payload):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(payload))
    code, _ = run(["balance", spectra["pair"], spectra["pair"],
                   "--config", str(conf)], capsys)
    assert code == cli.EXIT_INPUT


def test_missing_spectrum_file_exits_two(capsys, tmp_path):
    code, _ = run(["interact", str(tmp_path / "nope.json"),
                   str(tmp_path / "nope.json")], capsys)
    assert code == cli.EXIT_INPUT


def test_output_file_written(spectra, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _ = run(["interact", spectra["pair"], spectra["pair"],
                   "--output", str(target)], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(target.read_text())["aligned_value"] == pytest.approx(24.0)


def test_balance_auto_without_margin_exits_one(spectra, capsys, monkeypatch):
    # a bracket that never drops below -margin: valid input, failed check
    monkeypatch.setattr(cli.energy, "leading_bracket", lambda *args, **kw: 0.0)
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


def test_non_finite_spectrum_exits_two(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"sd": [NaN, 0.0, 0.0], "asd": [1.0, 0.0, -1.0]}')
    code = cli.main(["interact", str(path), str(path)])
    assert code == cli.EXIT_INPUT
    assert "'sd'" in capsys.readouterr().err
