"""Command-line front end.

Subcommands: describe, mfunc, green, scatter, jost, reflect-check,
dynamics, transport.  Results go to stdout or, with --out, to a file
written atomically (temp file + rename).  --format picks CSV (default)
or JSON; both carry the same numbers, serialized with 17 significant
digits so they round-trip to the exact double.

Exit codes: 0 success; 2 = reflect-check found the criteria disagreeing;
3 = bad flags or config; 4 = numerical failure on the requested points.

Output is deterministic for fixed flags: no wall clock, no locale.  The
only environment variable consulted is NO_COLOR, which disables the
color on stderr diagnostics.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .analysis import (EDGE_REL, EnergyGrid, explicit_grid, landauer_current,
                       reflectionless_report)
from .bands import band_intervals, guard_edges
from .dynamics import dynamical_reflection
from .errors import (JacobiReflectError, NumericalError, SchemaError)
from .jost import alpha_beta
from .mfunc import m_left_boundary, m_right_boundary
from .model import parse_config
from .scattering import green_diag_grid, scattering_grid, unitarity_defect_grid

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken, so remap to 3

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _warn(message, label="error"):
    # "error" when the command fails, "warning" when it goes on
    color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    code = 31 if label == "error" else 33
    prefix = f"\x1b[{code}m{label}:\x1b[0m" if color else f"{label}:"
    print(f"{prefix} {message}", file=sys.stderr)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _plain(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _render(args, command, columns, rows):
    if args.format == "json":
        doc = {
            "command": command,
            "seed": args.seed,
            "columns": list(columns),
            "rows": [{k: _plain(r[k]) for k in columns} for r in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(r[k]) for k in columns) for r in rows)
    return "\n".join(lines) + "\n"


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jacobi-reflect-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_spec(path):
    if path is None:
        raise SchemaError("--config", "a config file is required")
    with open(path) as fh:
        return parse_config(fh.read())


def _grid(args, spec):
    """Energy points from --grid or --lambda; exactly one must be given."""
    if args.grid is not None and args.lam is not None:
        raise SchemaError("flags", "--grid and --lambda are mutually exclusive")
    if args.grid is not None:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise SchemaError("--grid", "expected start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise SchemaError("--grid", "start, stop, step must be numbers")
        if step <= 0:
            raise SchemaError("--grid", "step must be positive")
        return explicit_grid(spec, start, stop, step)
    if args.lam is not None:
        bands = band_intervals(spec.background)
        guard_edges(bands, np.array([args.lam]))
        margin = max(EDGE_REL * (hi - lo) for lo, hi in bands)
        return EnergyGrid(points=np.array([float(args.lam)]),
                          edge_margin=margin, provenance="point")
    raise SchemaError("flags", "one of --grid or --lambda is required")


def _cmd_describe(args):
    spec = _load_spec(args.config)
    bg = spec.background
    rows = [
        {"field": "background", "value": bg.kind},
        {"field": "period", "value": bg.period},
        {"field": "background_a", "value": " ".join(_fmt(x) for x in bg.a)},
        {"field": "background_b", "value": " ".join(_fmt(x) for x in bg.b)},
        {"field": "phase", "value": bg.phase},
        {"field": "window", "value": "none" if spec.window is None
                                     else "%d..%d" % spec.window},
    ]
    for i, (lo, hi) in enumerate(band_intervals(bg)):
        rows.append({"field": "band_%d" % i,
                     "value": "%s %s" % (_fmt(lo), _fmt(hi))})
    return 0, ("field", "value"), rows


def _cmd_mfunc(args):
    spec = _load_spec(args.config)
    grid = _grid(args, spec)
    lams = grid.points
    m_r = m_right_boundary(spec, args.n, lams)
    m_l = m_left_boundary(spec, args.n, lams)
    rows = [{"lambda": lams[j],
             "re_m_right": m_r[j].real, "im_m_right": m_r[j].imag,
             "re_m_left": m_l[j].real, "im_m_left": m_l[j].imag}
            for j in range(lams.size)]
    cols = ("lambda", "re_m_right", "im_m_right", "re_m_left", "im_m_left")
    return 0, cols, rows


def _cmd_green(args):
    spec = _load_spec(args.config)
    grid = _grid(args, spec)
    g = green_diag_grid(spec, args.n, grid.points)
    rows = [{"lambda": grid.points[j], "re_G": g[j].real, "im_G": g[j].imag}
            for j in range(grid.points.size)]
    return 0, ("lambda", "re_G", "im_G"), rows


def _cmd_scatter(args):
    spec = _load_spec(args.config)
    grid = _grid(args, spec)
    res = scattering_grid(spec, args.n, grid.points)
    defect = unitarity_defect_grid(res)
    rows = []
    for j, lam in enumerate(grid.points):
        s_ll, s_lr, s_rr = res["s_ll"][j], res["s_lr"][j], res["s_rr"][j]
        rows.append({
            "lambda": lam,
            "re_sll": s_ll.real, "im_sll": s_ll.imag,
            "re_slr": s_lr.real, "im_slr": s_lr.imag,
            "re_srr": s_rr.real, "im_srr": s_rr.imag,
            "R": abs(s_ll) ** 2, "T": abs(s_lr) ** 2,
            "defect": defect[j],
        })
    cols = ("lambda", "re_sll", "im_sll", "re_slr", "im_slr",
            "re_srr", "im_srr", "R", "T", "defect")
    return 0, cols, rows


def _cmd_jost(args):
    spec = _load_spec(args.config)
    grid = _grid(args, spec)
    kept = []
    for lam in grid.points:
        try:
            kept.append((lam, alpha_beta(spec, lam)))
        except NumericalError as exc:
            _warn(f"lambda = {_fmt(lam)} skipped: {exc}", label="warning")
    if grid.points.size and not kept:
        raise NumericalError("every grid point failed")
    # s_rr only where alpha_beta succeeded: a gap pole elsewhere is no failure
    s_rr = scattering_grid(spec, 0, [lam for lam, _ in kept])["s_rr"] if kept else []
    rows = []
    for (lam, datum), s in zip(kept, s_rr):
        r_from_s = abs(s) ** 2
        rows.append({
            "lambda": lam,
            "re_alpha": datum.alpha.real, "im_alpha": datum.alpha.imag,
            "re_beta": datum.beta.real, "im_beta": datum.beta.imag,
            "R_spectral": datum.R_r,
            "R_from_s": r_from_s,
            "residual": abs(datum.R_r - r_from_s),
        })
    cols = ("lambda", "re_alpha", "im_alpha", "re_beta", "im_beta",
            "R_spectral", "R_from_s", "residual")
    return 0, cols, rows


def _cmd_reflect_check(args):
    spec = _load_spec(args.config)
    grid = _grid(args, spec)
    report = reflectionless_report(spec, grid, tau=args.tol)
    cols = ("lambda", "n", "re_G", "specref_residual", "s_ll_mag",
            "verdict_mt", "verdict_spec", "verdict_stat", "agree")
    code = 0 if bool(report.agree.all()) else 2
    return code, cols, list(report.rows())


def _cmd_dynamics(args):
    spec = _load_spec(args.config)
    out = dynamical_reflection(spec, args.lambda0, args.dlambda, args.N)
    cols = ("lambda0", "dlambda", "N", "t_star", "R_dyn", "T_dyn",
            "site0_mass", "R_stationary_avg", "abs_error")
    return 0, cols, [out]


def _cmd_transport(args):
    spec = _load_spec(args.config)
    out = landauer_current(spec, args.beta_l, args.mu_l, args.beta_r,
                           args.mu_r, quadrature=args.quadrature)
    row = {"beta_l": args.beta_l, "mu_l": args.mu_l,
           "beta_r": args.beta_r, "mu_r": args.mu_r,
           "I_charge": out["charge_current"],
           "I_energy": out["energy_current"]}
    cols = ("beta_l", "mu_l", "beta_r", "mu_r", "I_charge", "I_energy")
    return 0, cols, [row]


_COMMANDS = {
    "describe": _cmd_describe,
    "mfunc": _cmd_mfunc,
    "green": _cmd_green,
    "scatter": _cmd_scatter,
    "jost": _cmd_jost,
    "reflect-check": _cmd_reflect_check,
    "dynamics": _cmd_dynamics,
    "transport": _cmd_transport,
}


def _add_common(sub):
    sub.add_argument("--config", metavar="PATH", help="operator config (JSON)")
    sub.add_argument("--grid", metavar="START:STOP:STEP",
                     help="energy grid; stop is included when within step/2")
    sub.add_argument("--lambda", dest="lam", type=float, metavar="VALUE",
                     help="single energy instead of --grid")
    sub.add_argument("--n", type=int, default=0, help="cut site (default 0)")
    sub.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--tol", type=float, default=1e-8,
                     help="verdict tolerance (reflect-check)")
    sub.add_argument("--seed", type=int, default=0,
                     help="recorded in JSON output; analyses are deterministic")


def _build_parser():
    parser = _Parser(prog="jacobi-reflect",
                     description="Scattering and reflectionless-criteria "
                                 "toolkit for doubly infinite Jacobi matrices.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "dynamics":
            sub.add_argument("--lambda0", type=float, required=True,
                             help="packet center energy")
            sub.add_argument("--dlambda", type=float, default=0.05,
                             help="packet energy width")
            sub.add_argument("--N", type=int, default=2000,
                             help="half-width of the truncated lattice")
        if name == "transport":
            sub.add_argument("--beta-l", type=float, required=True)
            sub.add_argument("--mu-l", type=float, required=True)
            sub.add_argument("--beta-r", type=float, required=True)
            sub.add_argument("--mu-r", type=float, required=True)
            sub.add_argument("--quadrature", type=int, default=400,
                             help="Gauss-Legendre nodes per band")
    return parser


def run(argv):
    args = _build_parser().parse_args(argv)
    code, cols, rows = _COMMANDS[args.command](args)
    _write(_render(args, args.command, cols, rows), args.out)
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(argv)
    except SchemaError as exc:
        _warn(str(exc))
        return 3
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _warn(str(exc))
        return 3
    except NumericalError as exc:
        _warn(str(exc))
        return 4
    except JacobiReflectError as exc:
        _warn(str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
