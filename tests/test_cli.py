import json

import numpy as np
import pytest

from jacobi_reflect import cli

FREE = '{"background": {"kind": "free"}}'
SINGLE = '{"background": {"kind": "free"}, "perturbation": {"offset": 0, "b": [1.0]}}'
PERIOD2 = '{"background": {"kind": "periodic", "a": [1.0, 0.5], "b": [0.0, 0.0]}}'


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, text in [("free", FREE), ("single", SINGLE), ("p2", PERIOD2)]:
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def _csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_scatter_single_site(configs, capsys):
    code = cli.main(["scatter", "--config", configs["single"], "--lambda", "0"])
    assert code == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 1
    np.testing.assert_allclose(float(rows[0]["R"]), 0.2, atol=1e-12)
    np.testing.assert_allclose(float(rows[0]["T"]), 0.8, atol=1e-12)
    assert float(rows[0]["defect"]) <= 1e-12


def test_describe_lists_bands(configs, capsys):
    code = cli.main(["describe", "--config", configs["p2"]])
    assert code == 0
    rows = {r["field"]: r["value"] for r in _csv_rows(capsys.readouterr().out)}
    assert rows["background"] == "periodic"
    assert rows["period"] == "2"
    lo, hi = rows["band_0"].split(" ")
    np.testing.assert_allclose([float(lo), float(hi)], [-1.5, -0.5], atol=1e-9)


def test_mfunc_free(configs, capsys):
    code = cli.main(["mfunc", "--config", configs["free"], "--lambda", "0"])
    assert code == 0
    row = _csv_rows(capsys.readouterr().out)[0]
    np.testing.assert_allclose(float(row["im_m_right"]), 1.0, atol=1e-12)
    np.testing.assert_allclose(float(row["re_m_right"]), 0.0, atol=1e-12)


def test_green_grid(configs, capsys):
    code = cli.main(["green", "--config", configs["free"],
                     "--grid", "0:1:0.5"])
    assert code == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert [float(r["lambda"]) for r in rows] == [0.0, 0.5, 1.0]
    np.testing.assert_allclose(float(rows[0]["im_G"]), 0.5, atol=1e-12)


def test_jost_reports_triple_residual(configs, capsys):
    code = cli.main(["jost", "--config", configs["single"], "--grid", "0:1:0.5"])
    assert code == 0
    for row in _csv_rows(capsys.readouterr().out):
        assert float(row["residual"]) <= 1e-10


def test_jost_skips_are_warnings_and_total_failure_is_an_error(configs, capsys):
    # -0.2 lies in the period-2 gap, where the right channel is closed
    code = cli.main(["jost", "--config", configs["p2"], "--grid=-1:-0.2:0.4"])
    captured = capsys.readouterr()
    assert code == 0
    assert [float(r["lambda"]) for r in _csv_rows(captured.out)] == [-1.0, -0.6]
    assert captured.err.startswith("warning: lambda = -0.19999999999999996 skipped")
    assert "error:" not in captured.err
    code = cli.main(["jost", "--config", configs["p2"], "--lambda", "-0.2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("warning: lambda = -0.20000000000000001 skipped")
    assert captured.err.splitlines()[-1] == "error: every grid point failed"


def test_jost_gap_pole_does_not_fail_the_grid(configs, capsys):
    # the stripping walk has an exact pole at lambda = 0 in the period-2 gap;
    # the three gap points are skipped and the four band points reported
    code = cli.main(["jost", "--config", configs["p2"], "--grid=-1:1:0.25"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(_csv_rows(captured.out)) == 4
    assert sum(line.startswith("warning:") for line in captured.err.splitlines()) == 3


def test_reflect_check_exit_codes(configs, capsys):
    assert cli.main(["reflect-check", "--config", configs["free"],
                     "--grid", "0:1:0.25"]) == 0
    out = capsys.readouterr().out
    assert "true" in out and "false" not in out
    # all criteria fail together: still agreement, exit 0
    assert cli.main(["reflect-check", "--config", configs["single"],
                     "--grid", "0:0:1"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert all(r["agree"] == "true" for r in rows)
    assert all(r["verdict_mt"] == "false" for r in rows)
    # a tolerance between |Re G| and |s_ll| splits the verdicts: exit 2
    assert cli.main(["reflect-check", "--config", configs["single"],
                     "--lambda", "0", "--tol", "0.3"]) == 2
    rows = _csv_rows(capsys.readouterr().out)
    assert all(r["agree"] == "false" for r in rows)


def test_dynamics_row(configs, capsys):
    code = cli.main(["dynamics", "--config", configs["single"],
                     "--lambda0", "0", "--dlambda", "0.05", "--N", "1100"])
    assert code == 0
    row = _csv_rows(capsys.readouterr().out)[0]
    np.testing.assert_allclose(float(row["R_dyn"]), 0.2, atol=0.01)
    assert float(row["abs_error"]) <= 1e-2


def test_transport_row(configs, capsys):
    code = cli.main(["transport", "--config", configs["free"],
                     "--beta-l", "1", "--mu-l", "0.3",
                     "--beta-r", "1", "--mu-r", "0.3"])
    assert code == 0
    row = _csv_rows(capsys.readouterr().out)[0]
    assert float(row["I_charge"]) == 0.0


def test_json_and_csv_carry_identical_numbers(configs, capsys):
    argv = ["scatter", "--config", configs["single"], "--grid", "0:1:0.5"]
    assert cli.main(argv) == 0
    csv_rows = _csv_rows(capsys.readouterr().out)
    assert cli.main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "scatter"
    assert len(doc["rows"]) == len(csv_rows)
    for jrow, crow in zip(doc["rows"], csv_rows):
        for key, val in jrow.items():
            # CSV uses 17 significant digits: parses back to the same double
            assert float(crow[key]) == val


def test_output_file_atomic_and_reproducible(configs, tmp_path):
    out = tmp_path / "report.csv"
    argv = ["scatter", "--config", configs["single"], "--grid",
            "0:1.5:0.25", "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    assert not list(tmp_path.glob(".jacobi-reflect-*"))


def test_missing_config_is_schema_error(configs, tmp_path, capsys):
    assert cli.main(["green", "--config", str(tmp_path / "nope.json"),
                     "--lambda", "0"]) == 3
    assert "error:" in capsys.readouterr().err


def test_bad_config_is_schema_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"background": {"kind": "mystery"}}')
    assert cli.main(["green", "--config", str(p), "--lambda", "0"]) == 3
    p.write_text("not json at all")
    assert cli.main(["green", "--config", str(p), "--lambda", "0"]) == 3


def test_band_edge_is_numerical_error(configs, capsys):
    assert cli.main(["green", "--config", configs["free"], "--lambda", "2"]) == 4
    # gap energy: both channels closed on the whole (single-point) grid
    assert cli.main(["scatter", "--config", configs["p2"], "--lambda", "3"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert float(rows[0]["T"]) == 0.0


def test_flag_validation(configs, capsys):
    assert cli.main(["green", "--config", configs["free"]]) == 3
    assert cli.main(["green", "--config", configs["free"], "--grid", "0:1"]) == 3
    assert cli.main(["green", "--config", configs["free"], "--grid", "0:1:0",
                     ]) == 3
    assert cli.main(["green", "--config", configs["free"], "--grid", "0:1:0.5",
                     "--lambda", "0"]) == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 3


def test_grid_flag_with_negative_start(configs, capsys):
    assert cli.main(["green", "--config", configs["free"],
                     "--grid=-1:1:0.5"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert [float(r["lambda"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
