import argparse
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from jacobi_reflect import (alpha_beta, band_intervals, cli, dynamical_reflection,
                            green_diag_grid, landauer_current,
                            reflectionless_report, scattering_grid,
                            unitarity_defect_grid)
from jacobi_reflect.analysis import QUADRATURE_NODES, TAU_DEFAULT
from jacobi_reflect.dynamics import ENERGY_TAIL, N_MAX
from jacobi_reflect.errors import JacobiReflectError, NumericalError
from jacobi_reflect.mfunc import m_left_boundary, m_right_boundary

FREE = '{"background": {"kind": "free"}}'
SINGLE = '{"background": {"kind": "free"}, "perturbation": {"offset": 0, "b": [1.0]}}'
PERIOD2 = '{"background": {"kind": "periodic", "a": [1.0, 0.5], "b": [0.0, 0.0]}}'
CLOSED_GAP = '{"background": {"kind": "periodic", "a": [1.0, 1.0], "b": [0.0, 0.0]}}'
PERIOD4 = ('{"background": {"kind": "periodic", "a": [1.0, 0.8, 1.2, 0.9], '
           '"b": [0.3, -0.2, 0.1, -0.4]}, '
           '"perturbation": {"offset": -1, "a": [1.3, 0.9], "b": [0.2, -0.4]}}')


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, text in [("free", FREE), ("single", SINGLE), ("p2", PERIOD2),
                       ("p4", PERIOD4)]:
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


def test_period2_gap_center_grids(configs, capsys):
    # lambda = 0 is a pole of m_right(0) and m_left(1) on the period-2
    # operator; G_nn (0 there: the Weyl solutions live on opposite
    # sublattices), the s-matrix and the criteria are finite
    assert cli.main(["green", "--config", configs["p2"], "--grid=-1:1:0.25"]) == 0
    rows = {float(r["lambda"]): r for r in _csv_rows(capsys.readouterr().out)}
    assert float(rows[0.0]["re_G"]) == 0.0 and float(rows[0.0]["im_G"]) == 0.0
    assert cli.main(["scatter", "--config", configs["p2"], "--grid=-0.5:0.5:0.25"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert [float(r["lambda"]) for r in rows] == [-0.25, 0.0, 0.25]
    assert all(float(r["R"]) == 1.0 and float(r["T"]) == 0.0 for r in rows)
    # both channels closed: every verdict is False, so the criteria agree
    assert cli.main(["reflect-check", "--config", configs["p2"],
                     "--grid=-1.6:1.6:0.05"]) == 0
    rows = [r for r in _csv_rows(capsys.readouterr().out) if float(r["lambda"]) == 0.0]
    assert len(rows) == 7 and all(float(r["re_G"]) == 0.0 for r in rows)
    assert all(r["verdict_mt"] == r["verdict_spec"] == r["verdict_stat"] == "false"
               for r in rows)


@pytest.mark.parametrize("command", ["green", "scatter", "mfunc"])
def test_a_point_that_cannot_be_seeded_is_skipped(tmp_path, capsys, command):
    # lambda = 0 on the closed-gap period 2 has no Floquet seed (M = -I); it
    # costs that point only, as for jost
    config = tmp_path / "closed.json"
    config.write_text(CLOSED_GAP)
    code = cli.main([command, "--config", str(config), "--grid=-0.5:0.5:0.25"])
    captured = capsys.readouterr()
    assert code == 0
    assert [float(r["lambda"]) for r in _csv_rows(captured.out)] == [-0.5, -0.25, 0.25, 0.5]
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: lambda = 0 skipped: Floquet seed (right side)")
    # a report speaks for the whole grid: it still refuses
    assert cli.main(["reflect-check", "--config", str(config), "--grid=-0.5:0.5:0.25"]) == 4


def test_run_reuses_one_parser_without_carrying_flags_over(configs, monkeypatch):
    seen = []

    def report(spec, grid, tau):
        seen.append(tau)
        return reflectionless_report(spec, grid, tau)

    monkeypatch.setattr(cli, "reflectionless_report", report)
    argv = ["reflect-check", "--config", configs["free"], "--lambda", "0.3"]
    assert cli.main(argv + ["--tol", "0.5"]) == 0
    assert cli.main(argv) == 0
    assert seen == [0.5, TAU_DEFAULT]


def test_mfunc_pole_is_a_numerical_error(configs, capsys):
    # on period 2 at lambda = 0, m_right(0) and m_left(1) are infinite
    for n in ("0", "1"):
        assert cli.main(["mfunc", "--config", configs["p2"], "--lambda", "0",
                         "--n", n]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has a pole at 0.0" in captured.err


def test_mfunc_grid_skips_poles(configs, capsys):
    # the pole of m_right(0) at lambda = 0 is skipped with a warning and the
    # other six points are reported; a grid of poles alone fails
    code = cli.main(["mfunc", "--config", configs["p2"], "--grid=-1:1:0.25", "--n", "0"])
    captured = capsys.readouterr()
    assert code == 0
    rows = _csv_rows(captured.out)
    assert [float(r["lambda"]) for r in rows] == [-1.0, -0.75, -0.25, 0.25, 0.75, 1.0]
    assert captured.err.splitlines() == [
        "warning: lambda = 0 skipped: m_right(0) has a pole at 0.0: the right Weyl "
        "solution vanishes at site 0"]
    assert cli.main(["mfunc", "--config", configs["p2"], "--grid=0:0:1", "--n", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "warning: lambda = 0 skipped: m_left(1) has a pole at 0.0: the left Weyl "
        "solution vanishes at site 1", "error: every grid point failed"]


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


def test_reflectionless_background_packet_at_the_default_n(configs, capsys):
    # the pure period-2 background does not reflect; a packet observed before
    # it had crossed the window read R_dyn = 0.358 here
    assert cli.main(["dynamics", "--config", configs["p2"], "--lambda0", "0.85",
                     "--dlambda", "0.05"]) == 0
    row = _csv_rows(capsys.readouterr().out)[0]
    assert row["N"] == "2000"
    assert float(row["R_dyn"]) <= ENERGY_TAIL
    assert float(row["T_dyn"]) >= 1.0 - ENERGY_TAIL


def test_too_small_n_exits_3_naming_the_smallest(configs, capsys):
    argv = ["dynamics", "--config", configs["free"], "--lambda0", "0.8"]
    assert cli.main(argv + ["--N", "300"]) == 3
    err = capsys.readouterr().err
    n = int(re.search(r"smallest N that works is (\d+)", err).group(1))
    assert cli.main(argv + ["--N", str(n)]) == 0
    assert cli.main(argv + ["--N", str(n - 1)]) == 3
    assert f"smallest N that works is {n}" in capsys.readouterr().err


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


def test_usage_errors_exit_3(configs, tmp_path, capsys):
    # no config, a grid of non-numbers, and an --out naming a directory, which
    # leaves no temporary file behind
    assert cli.main(["describe"]) == 3
    assert "--config: a config file is required" in capsys.readouterr().err
    assert cli.main(["scatter", "--config", configs["single"], "--grid=a:b:c"]) == 3
    assert "--grid: start, stop, step must be numbers" in capsys.readouterr().err
    out = tmp_path / "taken"
    out.mkdir()
    assert cli.main(["scatter", "--config", configs["single"], "--lambda", "0.3",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert out.is_dir() and not list(tmp_path.glob(".jacobi-reflect-*"))


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
    capsys.readouterr()
    # a negative step is refused by explicit_grid itself
    assert cli.main(["green", "--config", configs["free"], "--grid=1:0:-0.5"]) == 3
    assert "step must be positive" in capsys.readouterr().err
    # so is a reversed grid (stop < start)
    assert cli.main(["green", "--config", configs["free"], "--grid=1:0.8:0.5"]) == 3
    assert "grid 1.0:0.8:0.5 has stop < start" in capsys.readouterr().err
    assert cli.main(["green", "--config", configs["free"], "--grid", "0:1:0.5",
                     "--lambda", "0"]) == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 3


def test_non_finite_energies_exit_3(configs, capsys):
    for argv in (["green", "--config", configs["p2"], "--lambda", "nan"],
                 ["mfunc", "--config", configs["free"], "--lambda", "inf"],
                 ["green", "--config", configs["free"], "--grid=0:1:inf"],
                 ["green", "--config", configs["free"], "--grid=nan:1:0.5"]):
        assert cli.main(argv) == 3, argv
    err = capsys.readouterr().err
    assert err.count("--lambda: must be finite") == 2
    assert err.count("is not finite") == 2


def test_energy_and_width_past_their_scales_exit_3(configs, capsys):
    # scatter printed a row of nan and green printed 0,0, both exiting 0;
    # dynamics ended in an OverflowError traceback
    for argv in (["scatter", "--config", configs["single"], "--n", "10", "--lambda", "1e40"],
                 ["mfunc", "--config", configs["single"], "--n", "-10", "--lambda", "1e40"],
                 ["green", "--config", configs["single"], "--lambda", "1e20"],
                 ["dynamics", "--config", configs["single"], "--lambda0", "0.3",
                  "--dlambda", "1e-320"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:"), argv


def test_non_finite_bias_exits_3_without_numpy_warnings(configs, capsys):
    bias = {"--beta-l": "1", "--mu-l": "0.3", "--beta-r": "1", "--mu-r": "0"}
    for flag in bias:
        for bad in ("nan", "inf"):
            argv = ["transport", "--config", configs["free"]]
            for name, value in bias.items():
                argv += [name, bad if name == flag else value]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(argv) == 3, argv
    assert capsys.readouterr().err.count("must be finite") == 8


def test_bad_verdict_tolerance_exits_3(configs, capsys):
    for tol in ("nan", "-1", "inf"):
        assert cli.main(["reflect-check", "--config", configs["free"],
                         "--lambda", "0", "--tol", tol]) == 3, tol
    assert capsys.readouterr().err.count("tolerance tau") == 3
    # a zero tolerance is a valid, if strict, verdict threshold
    assert cli.main(["reflect-check", "--config", configs["free"],
                     "--lambda", "0", "--tol", "0"]) == 0


def test_huge_grid_exits_3(configs, capsys):
    assert cli.main(["green", "--config", configs["free"], "--grid=0:1e9:1e-9"]) == 3
    assert "exceeds" in capsys.readouterr().err


def test_non_positive_packet_width_exits_3(configs, capsys):
    for dlam in ("-0.05", "0", "nan"):
        assert cli.main(["dynamics", "--config", configs["single"], "--lambda0", "0",
                         "--dlambda", dlam, "--N", "500"]) == 3
    assert capsys.readouterr().err.count("dlambda must be positive") == 3


def test_dynamics_half_width_past_n_max_exits_3(configs, capsys):
    assert cli.main(["dynamics", "--config", configs["single"], "--lambda0", "0",
                     "--N", str(N_MAX + 1)]) == 3
    assert f"N_MAX = {N_MAX}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["dynamics", "--config", configs["single"], "--lambda0", "0", "--N", "2.5"])
    assert exc.value.code == 3


def test_integers_past_n_max_exit_3(configs, tmp_path, capsys):
    # once an OverflowError traceback and a 7.28 TiB allocation, both exit 1
    assert cli.main(["green", "--config", configs["single"], "--n", "99999999999999999999",
                     "--lambda", "0.3"]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "N_MAX" in err
    far = tmp_path / "far.json"
    far.write_text('{"background": {"kind": "free"}, '
                   '"perturbation": {"offset": 1000000000000, "b": [1.0]}}')
    assert cli.main(["scatter", "--config", str(far), "--lambda", "0.5"]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "N_MAX" in err


def test_transport_at_an_overflowing_inverse_temperature_exits_0(configs, capsys):
    # the suite turns numpy's overflow warning into an error, as PYTHONWARNINGS=error does
    assert cli.main(["transport", "--config", configs["single"], "--beta-l", "1e308",
                     "--mu-l", "0", "--beta-r", "1", "--mu-r", "0.1"]) == 0
    assert capsys.readouterr().err == ""


def test_grid_flag_with_negative_start(configs, capsys):
    assert cli.main(["green", "--config", configs["free"],
                     "--grid=-1:1:0.5"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert [float(r["lambda"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_all_dropped_grid_prints_header_only(configs, capsys, fmt):
    # the single point 2.0 is a band edge of the free chain and is dropped
    for command in ("mfunc", "green", "scatter", "jost", "reflect-check"):
        code = cli.main([command, "--config", configs["free"], "--grid=2:2:1",
                         "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0, (command, captured.err)
        assert captured.err == ""
        if fmt == "csv":
            assert captured.out.count("\n") == 1
        else:
            assert json.loads(captured.out)["rows"] == []


COMMON_FLAGS = ("--config", "--out", "--format", "--seed")
GRID_FLAGS = COMMON_FLAGS + ("--grid", "--lambda")
FLAG_TABLE = {
    "describe": COMMON_FLAGS,
    "mfunc": GRID_FLAGS + ("--n",),
    "green": GRID_FLAGS + ("--n",),
    "scatter": GRID_FLAGS + ("--n",),
    "jost": GRID_FLAGS,
    "reflect-check": GRID_FLAGS + ("--tol",),
    "dynamics": COMMON_FLAGS + ("--lambda0", "--dlambda", "--N"),
    "transport": COMMON_FLAGS + ("--beta-l", "--mu-l", "--beta-r", "--mu-r", "--quadrature"),
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = cli._build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(FLAG_TABLE)
    assert not parser.allow_abbrev
    for name, sub in subs.choices.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == set(FLAG_TABLE[name]), name
        assert not sub.allow_abbrev, name
    assert sum(map(len, FLAG_TABLE.values())) == 54
    assert parser.parse_args(["reflect-check"]).tol == TAU_DEFAULT
    assert parser.parse_args(["transport", "--beta-l", "1", "--mu-l", "0", "--beta-r", "1",
                              "--mu-r", "0"]).quadrature == QUADRATURE_NODES


def _unread_flag_argvs(configs):
    # a valid invocation of each subcommand plus one flag it does not read
    base = {"describe": [], "dynamics": ["--lambda0", "0", "--N", "300"],
            "transport": ["--beta-l", "1", "--mu-l", "0.3", "--beta-r", "1", "--mu-r", "0.3"]}
    values = {"--grid": "--grid=0:1:0.5", "--lambda": "--lambda=0.3", "--n": "--n=1",
              "--tol": "--tol=0.3"}
    argvs = [[name, "--config", configs["single"]] + base.get(name, ["--lambda=0.3"])
             + [value] for name, flags in FLAG_TABLE.items()
             for flag, value in values.items() if flag not in flags]
    assert len(argvs) == 18
    return argvs + [
        ["dynamics", "--config", configs["single"], "--lambda", "0.5", "--lambda0", "0"],
        ["transport", "--config", configs["free"], "--beta-l", "1", "--mu-l", "0.3",
         "--beta-r", "1", "--mu-r", "0.3", "--quad", "10"],
    ]


def test_unread_and_abbreviated_flags_exit_3(configs, capsys):
    for argv in _unread_flag_argvs(configs):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 3, argv
        assert captured.out == "", argv
        assert "unrecognized arguments" in captured.err, argv


# --- the per-cell renderer and per-row builders the CLI used to have -------
# An independent oracle for the columnar renderer: every number is formatted
# one cell at a time, from rows built one dict per grid point.

def _oracle_fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _oracle_plain(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _oracle_render(fmt, command, seed, columns, rows):
    if fmt == "json":
        doc = {"command": command, "seed": seed, "columns": list(columns),
               "rows": [{k: _oracle_plain(r[k]) for k in columns} for r in rows]}
        return json.dumps(doc, indent=2) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(_oracle_fmt(r[k]) for k in columns) for r in rows)
    return "\n".join(lines) + "\n"


ORACLE_COLUMNS = {
    "describe": ("field", "value"),
    "mfunc": ("lambda", "re_m_right", "im_m_right", "re_m_left", "im_m_left"),
    "green": ("lambda", "re_G", "im_G"),
    "scatter": ("lambda", "re_sll", "im_sll", "re_slr", "im_slr",
                "re_srr", "im_srr", "R", "T", "defect"),
    "jost": ("lambda", "re_alpha", "im_alpha", "re_beta", "im_beta",
             "R_spectral", "R_from_s", "residual"),
    "reflect-check": ("lambda", "n", "re_G", "specref_residual", "s_ll_mag",
                      "verdict_mt", "verdict_spec", "verdict_stat", "agree"),
    "dynamics": ("lambda0", "dlambda", "N", "t_star", "R_dyn", "T_dyn",
                 "site0_mass", "R_stationary_avg", "abs_error"),
    "transport": ("beta_l", "mu_l", "beta_r", "mu_r", "I_charge", "I_energy"),
}


def _oracle_rows(args):
    spec = cli._load_spec(args.config)
    if args.command == "describe":
        bg = spec.background
        rows = [{"field": "background", "value": bg.kind},
                {"field": "period", "value": bg.period},
                {"field": "background_a", "value": " ".join(_oracle_fmt(x) for x in bg.a)},
                {"field": "background_b", "value": " ".join(_oracle_fmt(x) for x in bg.b)},
                {"field": "phase", "value": bg.phase},
                {"field": "window", "value": "none" if spec.window is None
                                             else "%d..%d" % spec.window}]
        rows += [{"field": "band_%d" % i, "value": "%s %s" % (_oracle_fmt(lo), _oracle_fmt(hi))}
                 for i, (lo, hi) in enumerate(band_intervals(bg))]
        return 0, rows
    if args.command == "dynamics":
        return 0, [dynamical_reflection(spec, args.lambda0, args.dlambda, args.N)]
    if args.command == "transport":
        out = landauer_current(spec, args.beta_l, args.mu_l, args.beta_r,
                               args.mu_r, quadrature=args.quadrature)
        return 0, [{"beta_l": args.beta_l, "mu_l": args.mu_l,
                    "beta_r": args.beta_r, "mu_r": args.mu_r,
                    "I_charge": out["charge_current"],
                    "I_energy": out["energy_current"]}]
    grid = cli._grid(args, spec)
    lams = grid.points
    if args.command == "mfunc":
        # the poles, point by point; the values, from the grid of the others
        kept = []
        for lam in lams:
            try:
                m_right_boundary(spec, args.n, [lam])
                m_left_boundary(spec, args.n, [lam])
                kept.append(lam)
            except NumericalError:
                if args.lam is not None:
                    raise
        if lams.size and not kept:
            raise NumericalError("every grid point failed")
        m_r = m_right_boundary(spec, args.n, kept)
        m_l = m_left_boundary(spec, args.n, kept)
        return 0, [{"lambda": lam, "re_m_right": m_r[j].real, "im_m_right": m_r[j].imag,
                    "re_m_left": m_l[j].real, "im_m_left": m_l[j].imag}
                   for j, lam in enumerate(kept)]
    if args.command == "green":
        g = green_diag_grid(spec, args.n, lams)
        return 0, [{"lambda": lams[j], "re_G": g[j].real, "im_G": g[j].imag}
                   for j in range(lams.size)]
    if args.command == "scatter":
        res = scattering_grid(spec, args.n, lams)
        defect = unitarity_defect_grid(res)
        return 0, [{"lambda": lam,
                    "re_sll": res["s_ll"][j].real, "im_sll": res["s_ll"][j].imag,
                    "re_slr": res["s_lr"][j].real, "im_slr": res["s_lr"][j].imag,
                    "re_srr": res["s_rr"][j].real, "im_srr": res["s_rr"][j].imag,
                    "R": abs(res["s_ll"][j]) ** 2, "T": abs(res["s_lr"][j]) ** 2,
                    "defect": defect[j]} for j, lam in enumerate(lams)]
    if args.command == "jost":
        kept = []
        for lam in lams:
            try:
                kept.append((lam, alpha_beta(spec, lam)))
            except NumericalError:
                pass
        if lams.size and not kept:
            raise NumericalError("every grid point failed")
        s_rr = scattering_grid(spec, 0, [lam for lam, _ in kept])["s_rr"] if kept else []
        return 0, [{"lambda": lam, "re_alpha": d.alpha.real, "im_alpha": d.alpha.imag,
                    "re_beta": d.beta.real, "im_beta": d.beta.imag,
                    "R_spectral": d.R_r, "R_from_s": abs(s) ** 2,
                    "residual": abs(d.R_r - abs(s) ** 2)}
                   for (lam, d), s in zip(kept, s_rr)]
    report = reflectionless_report(spec, grid, tau=args.tol)
    rows = [{"lambda": lam, "n": n, "re_G": report.re_g[i, j],
             "specref_residual": report.specref_residual[i, j],
             "s_ll_mag": report.s_diag_mag[i, j],
             "verdict_mt": bool(report.verdict_mt[j]),
             "verdict_spec": bool(report.verdict_spec[j]),
             "verdict_stat": bool(report.verdict_stat[j]),
             "agree": bool(report.agree[j])}
            for j, lam in enumerate(lams) for i, n in enumerate(report.n_range)]
    return (0 if report.agree.all() else 2), rows


GOLDEN_ARGV = (
    ["describe"],
    ["mfunc", "--grid=-1:1:0.25"],
    ["dynamics", "--lambda0", "0.8", "--N", "600"],
    ["transport", "--beta-l", "2", "--mu-l", "0.3", "--beta-r", "1", "--mu-r", "-0.2"],
    ["jost", "--grid=0.4:1.2:0.2"],
    ["jost", "--grid=-1:1:0.25"],
    ["jost", "--lambda=0"],
    ["reflect-check", "--lambda=0.3", "--tol", "0.3"],
) + tuple([cmd, grid] + n for cmd in ("mfunc", "green", "scatter", "reflect-check")
          for grid in ("--grid=-2.2:2.1:0.3", "--lambda=0.3")
          for n in (([],) if cmd == "reflect-check" else ([], ["--n", "1"])))


def _assert_golden_outputs(configs, capsys, config):
    # stdout and exit code of every subcommand, byte for byte; a grid command
    # may fail as a whole (exit 4) only where the oracle fails too
    for argv in GOLDEN_ARGV:
        for fmt in ("csv", "json"):
            full = argv + ["--config", configs[config], "--format", fmt, "--seed", "5"]
            code = cli.main(full)
            out = capsys.readouterr().out
            args = cli._build_parser().parse_args(full)
            try:
                want_code, rows = _oracle_rows(args)
            except JacobiReflectError:
                assert (code, out) == (4, ""), full
                continue
            cols = ORACLE_COLUMNS[args.command]
            assert code == want_code, full
            assert out == _oracle_render(fmt, args.command, 5, cols, rows), full


@pytest.mark.parametrize("config", ["free", "single", "p2", "p4"])
def test_output_matches_per_cell_renderer(configs, capsys, config):
    _assert_golden_outputs(configs, capsys, config)


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1e-300, 2.5]


def _edge_columns(n_rows):
    nonfinite = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.0, 3.0]
    data = {
        "finite": np.array(EDGE_FLOATS),
        "nonfinite": np.array(nonfinite),
        "float_list": nonfinite,
        "np_int": np.arange(-3, 4, dtype=np.int64),
        "np_uint": np.arange(7, dtype=np.uint8),
        "py_int": list(range(-3, 4)),
        "np_bool": np.array([True, False, False, True, True, False, True]),
        "py_bool": [True, False, False, True, True, False, True],
        "mixed": ["periodic", 2, "1 0.5", 0, "none", "-1 1", -0.0],
        "100%": np.array(EDGE_FLOATS[::-1]),
    }
    data = {k: v[:n_rows] for k, v in data.items()}
    return data, [{k: v[j] for k, v in data.items()} for j in range(n_rows)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [7, 0])
def test_render_edge_cases_match_per_cell_renderer(fmt, n_rows):
    data, rows = _edge_columns(n_rows)
    args = argparse.Namespace(format=fmt, seed=3)
    text = "".join(cli._render(args, "edge", tuple(data), data))
    assert text == _oracle_render(fmt, "edge", 3, tuple(data), rows)
    if fmt == "json" and n_rows:
        assert '"nonfinite": NaN' in text and '"nonfinite": -Infinity' in text
        assert '"finite": -0.0' in text and '"finite": 5e-324' in text


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_output_is_the_same_across_block_boundaries(configs, capsys, monkeypatch, tmp_path,
                                                    block_rows):
    # the golden subcommands and the edge-case columns, written a few rows at a
    # time: no rows, exactly one full block, and blocks with a partial last one
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    for config in configs:
        _assert_golden_outputs(configs, capsys, config)
    out = tmp_path / "edge.out"
    for n_rows in (0, block_rows, 7):
        data, rows = _edge_columns(n_rows)
        monkeypatch.setitem(cli._COMMANDS, "describe", lambda args, spec, grid: (0, data))
        for fmt in ("csv", "json"):
            want = _oracle_render(fmt, "describe", 3, tuple(data), rows)
            argv = ["describe", "--config", configs["free"], "--format", fmt, "--seed", "3"]
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == want, (n_rows, fmt)
            assert cli.main(argv + ["--out", str(out)]) == 0
            assert out.read_text() == want, (n_rows, fmt)
    assert not list(tmp_path.glob(".jacobi-reflect-*"))


def test_writing_holds_a_block_of_rows_not_the_document(tmp_path):
    # a reflect-check-shaped JSON document of 20k rows: formatted and written
    # one block at a time, the transient stays far below the document
    n = 20000
    rng = np.random.default_rng(7)
    data = {"lambda": np.repeat(np.linspace(-2.2, 2.2, n // 7 + 1), 7)[:n],
            "n": np.tile(np.arange(-3, 4), n // 7 + 1)[:n],
            "re_G": rng.normal(size=n), "specref_residual": rng.uniform(size=n),
            "s_ll_mag": rng.uniform(size=n)}
    for k in ("verdict_mt", "verdict_spec", "verdict_stat", "agree"):
        data[k] = rng.uniform(size=n) < 0.5
    args = argparse.Namespace(format="json", seed=0)
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli._write(cli._render(args, "reflect-check", tuple(data), data), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 2, (peak, size)
    assert len(json.loads(path.read_text())["rows"]) == n
