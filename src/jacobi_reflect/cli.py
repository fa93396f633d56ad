"""Command-line front end.

Subcommands: describe, mfunc, green, scatter, jost, reflect-check,
dynamics, transport.  Each takes only the flags it reads (the table in
``_build_parser``), spelled out in full: an abbreviated flag, or one its
subcommand does not read, is a usage error.  ``jost`` reports cut 0 and
``reflect-check`` the sites -3..3, so only mfunc, green and scatter take
--n.  Results go to stdout or, with --out, to a file written atomically
(temp file + rename).  --format picks CSV (default) or JSON; both carry
the same numbers, as 17 significant digits in CSV and the shortest
round-trip repr in JSON, so both parse to the exact double.  A subcommand
computes its whole result before the first byte is written, so a refusal
prints nothing to stdout; the output is then formatted and written
BLOCK_ROWS rows at a time, and rendering holds one block, never the whole
document.

Exit codes: 0 success; 2 = reflect-check found the criteria disagreeing;
3 = bad flags or config; 4 = numerical failure (mfunc, green, scatter and
jost skip refused points with a warning; --lambda is a one-point grid).

Output is deterministic for fixed flags: no wall clock, no locale.  The
only environment variable consulted is NO_COLOR, which disables the
color on stderr diagnostics.
"""

import argparse
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from .analysis import (QUADRATURE_NODES, TAU_DEFAULT, EnergyGrid, explicit_grid,
                       landauer_current, reflectionless_report)
from .bands import band_intervals
from .dynamics import dynamical_reflection
from .errors import JacobiReflectError, NumericalError, SchemaError, _named, first_refusals
from .jost import _sq_abs, alpha_beta_grid
from .mfunc import _G_CHECKS, boundary_pieces
from .model import parse_config
from .scattering import _s_entries, scattering_grid, unitarity_defect_grid

__all__ = ["main", "run"]

BLOCK_ROWS = 1024    # rows formatted and written at a time


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


def _cells(col, json_out):
    # (%-spec, values) for one column; lists, strings and non-finite JSON
    # floats go cell by cell through _fmt or json.dumps
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind == "b":
        return "%s", np.where(col, "true", "false").tolist()
    if kind in "iu":
        return "%d", col.tolist()
    if kind == "f" and not json_out:
        return "%.17g", col.tolist()
    if kind == "f" and np.isfinite(col).all():
        return "%r", col.tolist()
    return "%s", [json.dumps(v) if json_out else _fmt(v) for v in col]


def _render(args, command, columns, data):
    """Yield the document in pieces: the header, then BLOCK_ROWS rows at a
    time, each block formatted by one %-template per row and one % for all
    its rows."""
    json_out = args.format == "json"
    n = len(data[columns[0]])
    if json_out:
        doc = {"command": command, "seed": args.seed, "columns": list(columns),
               "rows": []}
        head, tail = json.dumps(doc, indent=2).rsplit("[]", 1)
        if not n:
            yield head + "[]" + tail + "\n"
            return
        yield head + "[\n"
        keys = [json.dumps(k).replace("%", "%%") for k in columns]
    else:
        yield ",".join(columns) + "\n"
    for start in range(0, n, BLOCK_ROWS):
        # the %-spec of a column may differ between blocks (a JSON float
        # column is %r only where finite); every spec gives the same text
        specs, cols = zip(*(_cells(data[k][start:start + BLOCK_ROWS], json_out)
                            for k in columns))
        flat = tuple(itertools.chain.from_iterable(zip(*cols)))
        rows = len(cols[0])
        if not json_out:
            yield ((",".join(specs) + "\n") * rows) % flat
            continue
        row = ",\n".join(f"      {k}: {f}" for k, f in zip(keys, specs))
        body = ",\n".join([f"    {{\n{row}\n    }}"] * rows) % flat
        yield ",\n" + body if start else body    # the row separator across blocks
    if json_out:
        yield "\n  ]" + tail + "\n"


def _write(pieces, path):
    if path is None:
        sys.stdout.writelines(pieces)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jacobi-reflect-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
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
        return explicit_grid(spec, start, stop, step)
    if args.lam is not None:
        if not np.isfinite(args.lam):
            raise SchemaError("--lambda", "must be finite")
        return EnergyGrid(points=np.array([float(args.lam)]))
    raise SchemaError("flags", "one of --grid or --lambda is required")


def _cmd_describe(args, spec, grid):
    bg = spec.background
    bands = band_intervals(bg)
    fields = ["background", "period", "background_a", "background_b", "phase",
              "window"] + ["band_%d" % i for i in range(len(bands))]
    values = [bg.kind, bg.period, " ".join(_fmt(x) for x in bg.a),
              " ".join(_fmt(x) for x in bg.b), bg.phase,
              "none" if spec.window is None else "%d..%d" % spec.window]
    values += ["%s %s" % (_fmt(lo), _fmt(hi)) for lo, hi in bands]
    return 0, {"field": fields, "value": values}


def _skip(lams, refusals):
    """Warn of each refused point; fail when every point was; the kept ones' mask."""
    for lam, exc in zip(lams, refusals):
        if exc is not None:
            _warn(f"lambda = {_fmt(lam)} skipped: {exc}", label="warning")
    ok = np.array([exc is None for exc in refusals], dtype=bool)
    if lams.size and not ok.any():
        raise NumericalError("every grid point failed")
    return ok


def _cmd_mfunc(args, spec, grid):
    lams = grid.points
    pieces = boundary_pieces(spec, [args.n], lams)
    ok = _skip(lams, first_refusals(_named(pieces.checks, "edge", "right seed", "right m pole",
                                           "left seed", "left m pole")))
    m_r, m_l = pieces.m["right"][0], pieces.m["left"][0]
    return 0, {"lambda": lams[ok], "re_m_right": m_r[ok].real, "im_m_right": m_r[ok].imag,
               "re_m_left": m_l[ok].real, "im_m_left": m_l[ok].imag}


def _cmd_green(args, spec, grid):
    pieces = boundary_pieces(spec, [args.n], grid.points)
    ok = _skip(grid.points, first_refusals(_named(pieces.checks, *_G_CHECKS)))
    g = pieces.g[0, ok]
    return 0, {"lambda": grid.points[ok], "re_G": g.real, "im_G": g.imag}


def _cmd_scatter(args, spec, grid):
    pieces = boundary_pieces(spec, [args.n], grid.points)
    ok = _skip(grid.points, first_refusals(_named(pieces.checks, *_G_CHECKS)))
    res = {k: v[0, ok] for k, v in _s_entries(pieces).items()}
    s_ll, s_lr, s_rr = res["s_ll"], res["s_lr"], res["s_rr"]
    return 0, {"lambda": grid.points[ok], "re_sll": s_ll.real, "im_sll": s_ll.imag,
               "re_slr": s_lr.real, "im_slr": s_lr.imag,
               "re_srr": s_rr.real, "im_srr": s_rr.imag,
               "R": _sq_abs(s_ll), "T": _sq_abs(s_lr),
               "defect": unitarity_defect_grid(res)}


def _cmd_jost(args, spec, grid):
    lams = grid.points
    res = alpha_beta_grid(spec, lams)
    ok = _skip(lams, res.status)
    # s_rr only where the Jost route succeeded: a gap pole elsewhere is no failure
    r_from_s = _sq_abs(scattering_grid(spec, 0, lams[ok])["s_rr"])
    alpha, beta, r_spec = res.alpha[ok], res.beta[ok], res.R_r[ok]
    return 0, {"lambda": lams[ok],
               "re_alpha": alpha.real, "im_alpha": alpha.imag,
               "re_beta": beta.real, "im_beta": beta.imag,
               "R_spectral": r_spec, "R_from_s": r_from_s,
               "residual": np.abs(r_spec - r_from_s)}


def _cmd_reflect_check(args, spec, grid):
    report = reflectionless_report(spec, grid, tau=args.tol)
    return (0 if bool(report.agree.all()) else 2), report.columns()


def _cmd_dynamics(args, spec, grid):
    out = dynamical_reflection(spec, args.lambda0, args.dlambda, args.N)
    cols = ("lambda0", "dlambda", "N", "t_star", "R_dyn", "T_dyn",
            "site0_mass", "R_stationary_avg", "abs_error")
    return 0, {k: [out[k]] for k in cols}


def _cmd_transport(args, spec, grid):
    out = landauer_current(spec, args.beta_l, args.mu_l, args.beta_r,
                           args.mu_r, quadrature=args.quadrature)
    return 0, {"beta_l": [args.beta_l], "mu_l": [args.mu_l],
               "beta_r": [args.beta_r], "mu_r": [args.mu_r],
               "I_charge": [out["charge_current"]],
               "I_energy": [out["energy_current"]]}


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


def _build_parser():
    every, grid = tuple(_COMMANDS), ("mfunc", "green", "scatter", "jost", "reflect-check")
    # each flag, the subcommands that read it, and its add_argument keywords
    flags = (
        ("--config", every, dict(metavar="PATH", help="operator config (JSON)")),
        ("--grid", grid, dict(metavar="START:STOP:STEP",
                              help="energy grid; stop is included when within step/2")),
        ("--lambda", grid, dict(dest="lam", type=float, metavar="VALUE",
                                help="single energy instead of --grid")),
        ("--n", ("mfunc", "green", "scatter"),
         dict(type=int, default=0, help="cut site (default 0)")),
        ("--out", every, dict(metavar="PATH", help="write here instead of stdout")),
        ("--format", every, dict(choices=("csv", "json"), default="csv")),
        ("--tol", ("reflect-check",),
         dict(type=float, default=TAU_DEFAULT, help="verdict tolerance")),
        ("--seed", every, dict(type=int, default=0,
                               help="recorded in JSON output; analyses are deterministic")),
        ("--lambda0", ("dynamics",), dict(type=float, required=True, help="packet center energy")),
        ("--dlambda", ("dynamics",), dict(type=float, default=0.05, help="packet energy width")),
        ("--N", ("dynamics",),
         dict(type=int, default=2000, help="half-width of the truncated lattice")),
        ("--beta-l", ("transport",), dict(type=float, required=True)),
        ("--mu-l", ("transport",), dict(type=float, required=True)),
        ("--beta-r", ("transport",), dict(type=float, required=True)),
        ("--mu-r", ("transport",), dict(type=float, required=True)),
        ("--quadrature", ("transport",),
         dict(type=int, default=QUADRATURE_NODES, help="Gauss-Legendre nodes per band")),
    )
    parser = _Parser(prog="jacobi-reflect", allow_abbrev=False,
                     description="Scattering and reflectionless-criteria "
                                 "toolkit for doubly infinite Jacobi matrices.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name, allow_abbrev=False)
        for flag, commands, kwargs in flags:
            if name in commands:
                sub.add_argument(flag, **kwargs)
    return parser


_PARSER = _build_parser()


def run(argv):
    args = _PARSER.parse_args(argv)
    # the one place flags become inputs: the config, then the energy grid of
    # the subcommands that read --grid/--lambda, then the route
    spec = _load_spec(args.config)
    grid = _grid(args, spec) if "grid" in args else None
    code, data = _COMMANDS[args.command](args, spec, grid)
    _write(_render(args, args.command, tuple(data), data), args.out)
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(argv)
    except (OSError, ValueError) as exc:    # bad input: SchemaError, JSONDecodeError, ...
        _warn(str(exc))
        return 3
    except JacobiReflectError as exc:       # every other package error is a NumericalError
        _warn(str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
