"""Inputs and timed passes of the three benchmark workloads.

Every call into the program goes through ``jacobi_reflect`` module
attributes looked up at call time (``jr.alpha_beta``, ``cli.run``), so the
traced run sees the same calls through its wrappers.  The program is
imported from ``src/`` of the checkout (``run.py`` puts it on the path).

- ``cli-grid``: the command line as users run it, over dense energy grids,
  in CSV and JSON, written with ``--out``.
- ``certify``: library-only cross-route certification of seeded random
  perturbations of free and periodic backgrounds.
- ``dynamics``: wave-packet runs on 8001-site truncations.
"""

import hashlib
import json
import os
import time

import numpy as np

import jacobi_reflect as jr
import oracles
from jacobi_reflect import cli

WORKLOADS = ("cli-grid", "certify", "dynamics")
CLI_COMMANDS = ("reflect-check", "scatter", "mfunc", "green", "jost", "transport")
FORMATS = ("csv", "json")

# ---------------------------------------------------------------------------
# cli-grid inputs

CLI_OPERATORS = {
    "free": {"background": {"kind": "free"}},
    "single-site": {"background": {"kind": "free"},
                    "perturbation": {"offset": 0, "b": [1.0]}},
    "period-2": {"background": {"kind": "periodic", "a": [1.0, 0.5], "b": [0.0, 0.0]}},
    "period-4": {"background": {"kind": "periodic", "a": [1.0, 0.8, 1.2, 0.9],
                                "b": [0.3, -0.2, 0.1, -0.4]},
                 "perturbation": {"offset": -1, "a": [1.3, 0.9], "b": [0.2, -0.4]}},
}
# (start, stop) of the wide grids: across band edges and, for the periodic
# operators, across every gap
CLI_RANGES = {"free": (-2.5, 2.5), "single-site": (-2.5, 2.5),
              "period-2": (-1.6, 1.6), "period-4": (-2.2, 2.1)}
# jost expands over an open right channel, so its grids stay inside one band
JOST_RANGES = {"free": (-1.8, 1.8), "single-site": (-1.8, 1.8),
               "period-2": (0.6, 1.4), "period-4": (0.4, 1.2)}
# points per grid; scatter, mfunc and green share one grid per operator so
# their outputs can be checked against each other
GRID_POINTS = {"wide": 2500, "reflect-check": 1000, "jost": 120}
GRID_OF = {"scatter": "wide", "mfunc": "wide", "green": "wide",
           "reflect-check": "reflect-check", "jost": "jost"}
# (beta_l, mu_l, beta_r, mu_r) before the seeded shift of the potentials
TRANSPORT_BIASES = ((2.0, 0.3, 1.0, -0.2), (1.0, 0.5, 1.0, -0.5), (3.0, -0.1, 3.0, 0.4))
MFUNC_CUT = 1    # mfunc and green cut at 1 so the stripping walk crosses site 0
SMOKE_DIVISOR = 20


def _grid_flag(start, stop, points, frac):
    step = (stop - start) / points
    return start + frac * step, stop, step


def cli_inputs(seed, smoke=False):
    """Invocations of one cli-grid pass; the seed shifts every grid start."""
    rng = np.random.default_rng([2, seed])
    invocations = []
    grids = {}
    for op in CLI_OPERATORS:
        for kind, points in GRID_POINTS.items():
            lo, hi = (JOST_RANGES if kind == "jost" else CLI_RANGES)[op]
            points //= SMOKE_DIVISOR if smoke else 1
            grids[(op, kind)] = _grid_flag(lo, hi, points, float(rng.uniform(0.05, 0.95)))
        for cmd in CLI_COMMANDS:
            if cmd == "transport":
                for i, (bl, ml, br, mr) in enumerate(TRANSPORT_BIASES):
                    shift = float(rng.uniform(-0.05, 0.05))
                    flags = (bl, ml + shift, br, mr + shift)
                    grids[(op, f"transport{i}")] = flags
                    for fmt in FORMATS:
                        argv = ["transport", "--beta-l", repr(flags[0]), "--mu-l", repr(flags[1]),
                                "--beta-r", repr(flags[2]), "--mu-r", repr(flags[3])]
                        invocations.append((op, cmd, f"transport{i}", fmt, argv))
                continue
            start, stop, step = grids[(op, GRID_OF[cmd])]
            for fmt in FORMATS:
                argv = [cmd, f"--grid={start!r}:{stop!r}:{step!r}"]
                if cmd in ("mfunc", "green"):
                    argv += ["--n", str(MFUNC_CUT)]
                invocations.append((op, cmd, cmd, fmt, argv))
    return {"configs": dict(CLI_OPERATORS), "invocations": invocations, "grids": grids}


# ---------------------------------------------------------------------------
# certify inputs

# background period and perturbation window length of each operator; fixed,
# so every seed asks for the same amount of work
CERTIFY_SHAPES = ((1, 2), (1, 5), (2, 1), (2, 4), (3, 3), (3, 5), (4, 2), (4, 4))
CERTIFY_POINTS_PER_BAND = 150
MIN_GAP = MIN_BAND = 0.05        # "open gaps": every gap and band this wide
LANDAUER_QUADRATURES = (400, 600)
LANDAUER_BIASES = ((2.0, 0.3, 1.0, -0.2), (1.0, -0.2, 2.0, 0.3),
                   (1.0, 0.5, 1.0, -0.5), (2.0, 0.25, 2.0, 0.25))
M_PROBES = 4                     # upper-half-plane points per operator
M_PROBE_IM = 1e-2


def _random_background(rng, p):
    if p == 1:
        return {"kind": "free"}
    while True:
        bg = {"kind": "periodic", "a": [float(x) for x in rng.uniform(0.7, 1.3, p)],
              "b": [float(x) for x in rng.uniform(-0.5, 0.5, p)],
              "phase": int(rng.integers(p))}
        bands = oracles.bands(oracles.Coefficients({"background": bg}))
        widths = [hi - lo for lo, hi in bands]
        gaps = [b[0] - a[1] for a, b in zip(bands[:-1], bands[1:])]
        if len(bands) == p and min(widths) >= MIN_BAND and min(gaps) >= MIN_GAP:
            return bg


def certify_inputs(seed, smoke=False):
    """Seeded operators: random windows on free and period-2..4 backgrounds."""
    rng = np.random.default_rng([3, seed])
    shapes = CERTIFY_SHAPES[1::5] if smoke else CERTIFY_SHAPES
    configs = {}
    probes = {}
    for i, (p, length) in enumerate(shapes):
        bg = _random_background(rng, p)
        offset = int(rng.integers(-3, 4 - length))
        doc = {"background": bg,
               "perturbation": {"offset": offset,
                                "a": [float(x) for x in rng.uniform(0.6, 1.6, length)],
                                "b": [float(x) for x in rng.uniform(-0.8, 0.8, length)]}}
        name = f"op{i}-p{p}"
        configs[name] = doc
        lo, hi = oracles.floquet_edges(oracles.Coefficients(doc))[[0, -1]]
        probes[name] = (rng.uniform(lo - 0.2, hi + 0.2, M_PROBES) + 1j * M_PROBE_IM,
                        rng.integers(-3, 4, M_PROBES))
    points = CERTIFY_POINTS_PER_BAND // (10 if smoke else 1)
    return {"configs": configs, "probes": probes, "points_per_band": points}


# ---------------------------------------------------------------------------
# dynamics inputs

DYNAMICS_N = 4000                # sites -N..N: 8001-site truncations
DYNAMICS_DLAMBDA = 0.05
# smoke packets are wider in energy, so narrower in space, so they clear the
# window of a small truncation
DYNAMICS_SMOKE = {"N": 1000, "dlambda": 0.12}
DYNAMICS_OPERATORS = (("free", 0.0), ("single-site", 0.0), ("period-4", 0.8))


def dynamics_inputs(seed, smoke=False):
    """Three packets, operators alternating so each run pays its plan."""
    rng = np.random.default_rng([4, seed])
    runs = [(op, lam0 + float(rng.uniform(-0.1, 0.1))) for op, lam0 in DYNAMICS_OPERATORS]
    return {"configs": {op: CLI_OPERATORS[op] for op, _ in DYNAMICS_OPERATORS},
            "runs": runs, "N": DYNAMICS_SMOKE["N"] if smoke else DYNAMICS_N,
            "dlambda": DYNAMICS_SMOKE["dlambda"] if smoke else DYNAMICS_DLAMBDA}


def make_inputs(workload, seed, smoke=False):
    return {"cli-grid": cli_inputs, "certify": certify_inputs,
            "dynamics": dynamics_inputs}[workload](seed, smoke)


# ---------------------------------------------------------------------------
# setup and passes

def setup(configs):
    """Parse each config and set up its bands, as a cold CLI start does."""
    specs = {}
    for name, doc in configs.items():
        specs[name] = jr.parse_config(json.dumps(doc))
        jr.band_intervals(specs[name].background)
    return specs


class Pass:
    """Timings and outputs of one pass over a workload's operations."""

    def __init__(self):
        self.wall = 0.0
        self.op_labels = []    # the same labels, in the same order, every pass
        self.op_times = []
        self.attempted = 0
        self.failed = 0
        self.outputs = {}
        self.span_range = (0, 0)   # this pass's spans in a traced run


def _attempt(p, fn, *args, **kwargs):
    """Call into the program; its own refusals count as failed operations."""
    p.attempted += 1
    try:
        return fn(*args, **kwargs)
    except jr.JacobiReflectError as exc:
        p.failed += 1
        return exc


def cli_pass(inputs, work):
    """One cli-grid pass; outputs land in ``work`` as ``op.label.fmt``."""
    p = Pass()
    config_paths = {op: os.path.join(work, f"{op}.config.json") for op in inputs["configs"]}
    t_pass = time.perf_counter()
    for op, cmd, label, fmt, argv in inputs["invocations"]:
        out = os.path.join(work, f"{op}.{label}.{fmt}")
        full = argv + ["--config", config_paths[op], "--format", fmt, "--out", out]
        t0 = time.perf_counter()
        code = _attempt(p, cli.run, full)
        p.op_labels.append(cmd)
        p.op_times.append(time.perf_counter() - t0)
        p.outputs[(op, label, fmt)] = code
    p.wall = time.perf_counter() - t_pass
    return p


def write_configs(configs, work):
    for op, doc in configs.items():
        with open(os.path.join(work, f"{op}.config.json"), "w") as fh:
            json.dump(doc, fh)


def hash_outputs(inputs, work):
    digests = {}
    for op, _cmd, label, fmt, _argv in inputs["invocations"]:
        path = os.path.join(work, f"{op}.{label}.{fmt}")
        with open(path, "rb") as fh:
            digests[(op, label, fmt)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def certify_pass(inputs, specs):
    """One certification pass; outputs keyed by operator name."""
    p = Pass()
    t_pass = time.perf_counter()
    for name, spec in specs.items():
        t0 = time.perf_counter()
        out = {"bands": _attempt(p, jr.band_intervals, spec.background)}
        grid = _attempt(p, jr.band_grid, spec, inputs["points_per_band"])
        lams = grid.points
        out["grid"] = lams
        out["report"] = _attempt(p, jr.reflectionless_report, spec, grid)
        out["scatter"] = {n: _attempt(p, jr.scattering_grid, spec, n, lams) for n in range(-3, 4)}
        out["mratio"] = _attempt(p, jr.spectral_reflection_mratio_grid, spec, lams)
        out["alpha_beta"] = [_attempt(p, jr.alpha_beta, spec, float(lam)) for lam in lams]
        out["landauer"] = {(bias, q): _attempt(p, jr.landauer_current, spec, *bias, quadrature=q)
                           for q in LANDAUER_QUADRATURES for bias in LANDAUER_BIASES}
        zs, cuts = inputs["probes"][name]
        out["m_upper"] = [(z, int(n), _attempt(p, jr.m_right_grid, spec, int(n), np.array([z])),
                           _attempt(p, jr.m_left_grid, spec, int(n), np.array([z])))
                          for z, n in zip(zs, cuts)]
        p.op_labels.append(name)
        p.op_times.append(time.perf_counter() - t0)
        p.outputs[name] = out
    p.wall = time.perf_counter() - t_pass
    return p


def dynamics_pass(inputs, specs):
    """One dynamics pass: a packet per operator, each paying its plan."""
    p = Pass()
    t_pass = time.perf_counter()
    for op, lam0 in inputs["runs"]:
        t0 = time.perf_counter()
        p.outputs[op] = _attempt(p, jr.dynamical_reflection, specs[op], lam0,
                                 inputs["dlambda"], inputs["N"])
        p.op_labels.append(op)
        p.op_times.append(time.perf_counter() - t0)
    p.wall = time.perf_counter() - t_pass
    return p
