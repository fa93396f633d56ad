"""Tests of the benchmark itself.

Each check must accept the program's real output and reject a deliberately
corrupted copy of it; every workload must run end to end in smoke mode.
Run from the repository root with ``python3 -m pytest perfbench``.
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads as W  # noqa: E402

WORK_DIR = os.path.join(HERE, "out", "test-work")


@pytest.fixture(scope="module")
def workdir():
    os.makedirs(WORK_DIR, exist_ok=True)
    yield WORK_DIR
    shutil.rmtree(WORK_DIR, ignore_errors=True)


# ---------------------------------------------------------------------------
# cli-grid

@pytest.fixture(scope="module")
def cli_run(workdir):
    work = os.path.join(workdir, "cli")
    os.makedirs(work, exist_ok=True)
    inputs = W.make_inputs("cli-grid", 5, smoke=True)
    W.write_configs(inputs["configs"], work)
    p = W.cli_pass(inputs, work)
    texts = {}
    for key in p.outputs:
        with open(os.path.join(work, "{}.{}.{}".format(*key))) as fh:
            texts[key] = fh.read()
    return inputs, texts, p.outputs


def _shift_csv(text, column, delta, frac):
    lines = text.split("\n")
    header = lines[0].split(",")
    i = header.index(column)
    rows = lines[1:-1]
    row = int(frac * (len(rows) - 1))
    cells = rows[row].split(",")
    old = cells[i]
    cells[i] = ("false" if old == "true" else "true") if old in ("true", "false") \
        else "%.17g" % (float(old) + delta)
    rows[row] = ",".join(cells)
    return "\n".join([lines[0]] + rows + [""])


def _shift_json(text, column, delta, frac):
    doc = json.loads(text)
    row = int(frac * (len(doc["rows"]) - 1))
    v = doc["rows"][row][column]
    doc["rows"][row][column] = (not v) if isinstance(v, bool) else v + delta
    return json.dumps(doc, indent=2) + "\n"


def _corrupt(texts, op, label, column, delta, frac):
    """Shift one value (or flip one boolean) in both formats of an output."""
    bad = dict(texts)
    bad[(op, label, "csv")] = _shift_csv(texts[(op, label, "csv")], column, delta, frac)
    bad[(op, label, "json")] = _shift_json(texts[(op, label, "json")], column, delta, frac)
    return bad


def test_cli_checks_accept_real_output(cli_run):
    inputs, texts, codes = cli_run
    assert checks.check_cli(inputs, texts, codes) == []


# frac places the corrupted row: 0.5 is mid-grid (inside a band for every
# operator but period-2, whose gap is mid-grid), 0.2 is in period-2's band
@pytest.mark.parametrize("op,label,column,delta,frac", [
    ("single-site", "scatter", "R", 1e-6, 0.5),           # closed form v^2/(4-l^2+v^2)
    ("period-4", "scatter", "re_slr", 1e-6, 1.0),         # identity on closed channels
    ("period-4", "scatter", "re_slr", 1e-6, 0.5),         # unitarity on open channels
    ("period-4", "jost", "R_spectral", 1e-6, 0.5),        # Jost route vs transfer oracle
    ("free", "mfunc", "im_m_right", 1e-6, 0.5),           # free closed form m
    ("period-2", "mfunc", "re_m_left", 1e-6, 0.2),        # G from mfunc vs G from green
    ("free", "green", "re_G", 1e-6, 0.5),                 # free closed form G_00
    ("period-4", "transport0", "I_charge", 1e-6, 0.0),    # Landauer vs quad
    ("period-2", "reflect-check", "s_ll_mag", 1e-3, 0.2),  # |s_ll|^2 vs R = 0
    ("single-site", "reflect-check", "verdict_stat", 0, 0.5),  # flipped verdict
    ("free", "scatter", "lambda", 1e-6, 1.0),             # grid point moved
])
def test_cli_checks_reject_shifted_value(cli_run, op, label, column, delta, frac):
    inputs, texts, codes = cli_run
    fails = checks.check_cli(inputs, _corrupt(texts, op, label, column, delta, frac), codes)
    assert any(f.startswith(f"{op}.{label}") for f in fails), fails


def test_cli_checks_reject_dropped_row(cli_run):
    inputs, texts, codes = cli_run
    bad = dict(texts)
    for fmt in ("csv", "json"):
        key = ("period-4", "jost", fmt)
        if fmt == "csv":
            lines = texts[key].split("\n")
            bad[key] = "\n".join(lines[:-2] + [""])
        else:
            doc = json.loads(texts[key])
            doc["rows"].pop()
            bad[key] = json.dumps(doc, indent=2) + "\n"
    fails = checks.check_cli(inputs, bad, codes)
    assert any("grid points, expected" in f for f in fails), fails


def test_cli_checks_reject_csv_json_mismatch(cli_run):
    inputs, texts, codes = cli_run
    bad = dict(texts)
    key = ("free", "green", "json")
    doc = json.loads(texts[key])
    doc["rows"][0]["im_G"] = float(np.nextafter(doc["rows"][0]["im_G"], 10.0))
    bad[key] = json.dumps(doc, indent=2) + "\n"
    fails = checks.check_cli(inputs, bad, codes)
    assert any("differs between CSV and JSON" in f for f in fails), fails


def test_cli_checks_reject_exit_code_and_changed_bytes(cli_run):
    inputs, texts, codes = cli_run
    bad_codes = dict(codes)
    bad_codes[("single-site", "reflect-check", "csv")] = 2
    assert checks.check_cli(inputs, texts, bad_codes)
    first = {k: "a" for k in codes}
    later = dict(first)
    later[("free", "scatter", "json")] = "b"
    assert checks.check_repeat(first, first, "pass 2") == []
    assert checks.check_repeat(first, later, "pass 2")


# ---------------------------------------------------------------------------
# certify

@pytest.fixture(scope="module")
def certify_run():
    inputs = W.make_inputs("certify", 5, smoke=True)
    specs = W.setup(inputs["configs"])
    p = W.certify_pass(inputs, specs)
    assert p.failed == 0
    return inputs, p.outputs


def test_certify_checks_accept_real_output(certify_run):
    inputs, outputs = certify_run
    assert checks.check_certify(inputs, outputs) == []


def _bump_alpha_beta(out):
    out["alpha_beta"][3] = dataclasses.replace(out["alpha_beta"][3],
                                               R_r=out["alpha_beta"][3].R_r + 1e-6)


def _bump_cut(out):
    out["scatter"][2] = dict(out["scatter"][2], s_ll=out["scatter"][2]["s_ll"] * (1 + 1e-6))


def _bump_landauer(out):
    key = next(k for k in out["landauer"] if k[1] == W.LANDAUER_QUADRATURES[-1]
               and k[0][0] != k[0][2])
    out["landauer"][key] = dict(out["landauer"][key])
    out["landauer"][key]["charge_current"] += 1e-6


def _bump_m(out):
    z, n, m_r, m_l = out["m_upper"][0]
    out["m_upper"][0] = (z, n, m_r + 1e-5, m_l)


def _bump_mratio(out):
    out["mratio"] = out["mratio"] + 1e-6


def _move_edge(out):
    out["bands"] = ((out["bands"][0][0] - 1e-6, out["bands"][0][1]),) + tuple(out["bands"][1:])


def _flip_verdict(out):
    r = out["report"]
    out["report"] = dataclasses.replace(r, verdict_spec=~r.verdict_spec)


@pytest.mark.parametrize("corrupt", [_bump_alpha_beta, _bump_cut, _bump_landauer, _bump_m,
                                     _bump_mratio, _move_edge, _flip_verdict])
def test_certify_checks_reject_corruption(certify_run, corrupt):
    inputs, outputs = certify_run
    bad = copy.copy(outputs)
    name = list(outputs)[-1]
    bad[name] = copy.copy(outputs[name])
    bad[name]["scatter"] = dict(outputs[name]["scatter"])
    bad[name]["landauer"] = dict(outputs[name]["landauer"])
    bad[name]["alpha_beta"] = list(outputs[name]["alpha_beta"])
    bad[name]["m_upper"] = list(outputs[name]["m_upper"])
    corrupt(bad[name])
    fails = checks.check_certify(inputs, bad)
    assert any(f.startswith(name) for f in fails), fails


# ---------------------------------------------------------------------------
# dynamics

@pytest.fixture(scope="module")
def dynamics_run():
    import jacobi_reflect as jr
    inputs = W.make_inputs("dynamics", 5, smoke=True)
    specs = W.setup(inputs["configs"])
    p = W.dynamics_pass(inputs, specs)
    packets = {op: jr.wave_packet(specs[op], "l", lam0, inputs["dlambda"], inputs["N"]).amplitudes
               for op, lam0 in inputs["runs"]}
    return inputs, p.outputs, packets


def test_dynamics_checks_accept_real_output(dynamics_run):
    assert checks.check_dynamics(*dynamics_run) == []


@pytest.mark.parametrize("op,shift", [
    ("free", 1e-6),            # Bessel-kernel propagation oracle
    ("single-site", 0.05),     # packet-averaged closed form
    ("period-4", 0.05),        # packet-averaged transfer oracle
])
def test_dynamics_checks_reject_moved_mass(dynamics_run, op, shift):
    inputs, outputs, packets = dynamics_run
    bad = dict(outputs)
    bad[op] = dict(outputs[op], R_dyn=outputs[op]["R_dyn"] + shift,
                   T_dyn=outputs[op]["T_dyn"] - shift)
    fails = checks.check_dynamics(inputs, bad, packets)
    assert any(f.startswith(op) for f in fails), fails


def test_dynamics_checks_reject_lost_norm(dynamics_run):
    inputs, outputs, packets = dynamics_run
    bad = dict(outputs)
    bad["free"] = dict(outputs["free"], site0_mass=outputs["free"]["site0_mass"] + 1e-6)
    assert any("R_dyn + T_dyn + site0" in f for f in checks.check_dynamics(inputs, bad, packets))


# ---------------------------------------------------------------------------
# end to end

def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + argv, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    bench = _bench_json()
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program():
    bare = os.path.join(HERE, "out", "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
