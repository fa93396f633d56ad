"""Checks of the program's outputs against the oracles and method properties.

Each ``check_*`` returns a list of failure messages; an empty list means
the outputs are correct.  Tolerances are the acceptance criteria's:

- 1e-10 closed forms and unitarity (criteria 1 and 2);
- 1e-8 route agreement, cut-site invariance, quadrature (criteria 5, 6, 9);
- 1e-6 m-values against a truncated resolvent (criterion 8);
- 1e-2 dynamical against stationary reflection (criterion 7).
"""

import json
import math

import numpy as np

import oracles
import workloads as W

TOL_EXACT = 1e-10
TOL_ROUTE = 1e-8
TOL_M = 1e-6
TOL_DYN = 1e-2
EDGE_REL = 1e-6        # documented band-edge margin of explicit grids
REFLECTING = 1e-6      # R above this: every verdict must say "reflects"
N_SITES = tuple(range(-3, 4))


class Failures(list):
    """Failure messages, each starting with where the failure is."""

    def expect(self, ok, where, what):
        if not ok:
            self.append(f"{where}: {what}")

    def close(self, got, want, tol, where, what):
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            self.append(f"{where}: {what}: shape {got.shape} != {want.shape}")
            return
        if got.size == 0:
            return
        err = np.abs(got - want)
        worst = float(np.max(err))
        if not worst <= tol:   # also catches NaN
            i = int(np.nanargmax(err)) if np.isfinite(err).any() else 0
            self.append(f"{where}: {what}: error {worst:.3e} > {tol:g} "
                        f"(at index {i}: got {got.flat[i]!r}, want {want.flat[i]!r})")


# ---------------------------------------------------------------------------
# shared oracle views

def reflection_oracle(doc, lams):
    """R(lambda) of an operator: closed form for one site, transfer otherwise."""
    coef = oracles.Coefficients(doc)
    if coef.window is None:
        return np.zeros(np.size(lams))
    single = (coef.period == 1 and coef.cell_a == [1.0] and coef.cell_b == [0.0]
              and coef.window == (0, 0) and not coef.over_a)
    if single:
        return oracles.single_site_reflection(lams, coef.over_b[0])
    return oracles.reflection_grid(coef, lams)


def transmission_fn(doc):
    coef = oracles.Coefficients(doc)
    if coef.window is None:
        return lambda lam: 1.0
    return lambda lam: 1.0 - float(reflection_oracle(doc, np.array([lam]))[0])


def expected_grid(start, stop, step, bands):
    """Documented explicit-grid rule: stop kept within step/2, edge points dropped."""
    n_exact = (stop - start) / step
    n = int(math.floor(n_exact + 1e-9))
    pts = start + step * np.arange(n + 1)
    if n_exact - n > 0.5 - 1e-9:
        pts = np.append(pts, stop)
    flat = np.array([e for band in bands for e in band])
    widths = np.repeat([hi - lo for lo, hi in bands], 2)
    dist = np.abs(pts[:, None] - flat[None, :])
    nearest = dist.argmin(axis=1)
    keep = dist[np.arange(pts.size), nearest] >= EDGE_REL * widths[nearest]
    return pts[keep]


# ---------------------------------------------------------------------------
# command-line outputs

def _value(text):
    if text == "true":
        return True
    if text == "false":
        return False
    return float(text)


def parse_csv(text):
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV row")
    return header, {h: np.array([_value(r[i]) for r in rows]) for i, h in enumerate(header)}


def parse_json(text):
    doc = json.loads(text)
    cols = doc["columns"]
    table = {c: np.array([r[c] if isinstance(r[c], bool) else float(r[c]) for r in doc["rows"]])
             for c in cols}
    return doc["command"], cols, table


def _same_doubles(a, b):
    if a.shape != b.shape:
        return False
    if a.dtype == bool or b.dtype == bool:
        return a.dtype == b.dtype and bool(np.all(a == b))
    return bool(np.all(a.view(np.int64) == b.view(np.int64))) if a.size else True


def parse_pair(f, where, cmd, csv_text, json_text):
    """Parse both formats and require the same columns and the same doubles."""
    try:
        header, table = parse_csv(csv_text)
        command, cols, jtable = parse_json(json_text)
    except (ValueError, KeyError, TypeError) as exc:
        f.append(f"{where}: unparsable output: {exc}")
        return None
    f.expect(command == cmd, where, f"JSON command {command!r} != {cmd!r}")
    f.expect(header == cols, where, "CSV header and JSON columns differ")
    for c in header:
        if c in jtable:
            ok = _same_doubles(np.asarray(table[c], dtype=jtable[c].dtype), jtable[c])
            f.expect(ok, where, f"column {c} differs between CSV and JSON")
    return table


def _check_grid(f, where, lams, start, stop, step, bands):
    want = expected_grid(start, stop, step, bands)
    if lams.shape != want.shape:
        f.append(f"{where}: {lams.size} grid points, expected {want.size}")
        return False
    f.close(lams, want, 1e-12 * max(1.0, np.abs(want).max(initial=0.0)), where, "grid points")
    return True


def check_mfunc(f, where, doc, t, g):
    lams = t["lambda"]
    coef = oracles.Coefficients(doc)
    m_r = t["re_m_right"] + 1j * t["im_m_right"]
    m_l = t["re_m_left"] + 1j * t["im_m_left"]
    inside = oracles.in_band(coef, lams)
    f.expect(np.all(t["im_m_right"][inside] > 0) and np.all(t["im_m_left"][inside] > 0),
             where, "Herglotz sign: Im m <= 0 inside a band")
    f.close(t["im_m_right"][~inside], 0.0 * lams[~inside], TOL_EXACT, where, "Im m_right in gaps")
    f.close(t["im_m_left"][~inside], 0.0 * lams[~inside], TOL_EXACT, where, "Im m_left in gaps")
    if coef.window is None and coef.cell_a == [1.0] and coef.cell_b == [0.0]:
        f.close(m_r, oracles.free_m(lams), TOL_EXACT, where, "m_right vs free closed form")
        f.close(m_l, oracles.free_m(lams), TOL_EXACT, where, "m_left vs free closed form")
    if g is not None and g["lambda"].shape == lams.shape:
        # G_nn = 1 / (b_n - lambda - a_n^2 m_right(n) - a_{n-1}^2 m_left(n))
        n = W.MFUNC_CUT
        want = 1.0 / (coef.b(n) - lams - coef.a(n) ** 2 * m_r - coef.a(n - 1) ** 2 * m_l)
        got = g["re_G"] + 1j * g["im_G"]
        f.close(np.abs(got - want) / np.maximum(np.abs(want), 1e-300), 0.0 * lams,
                TOL_ROUTE, where, "G from green vs G from mfunc (relative)")


def check_green(f, where, doc, t):
    lams = t["lambda"]
    coef = oracles.Coefficients(doc)
    inside = oracles.in_band(coef, lams)
    f.expect(np.all(t["im_G"][inside] > 0), where, "Herglotz sign: Im G <= 0 inside a band")
    if coef.window is None and coef.cell_a == [1.0] and coef.cell_b == [0.0]:
        f.close(t["re_G"] + 1j * t["im_G"], oracles.free_g00(lams), TOL_EXACT, where,
                "G vs free closed form")


def check_scatter(f, where, doc, t):
    lams = t["lambda"]
    coef = oracles.Coefficients(doc)
    inside = oracles.in_band(coef, lams)
    s_ll = t["re_sll"] + 1j * t["im_sll"]
    s_lr = t["re_slr"] + 1j * t["im_slr"]
    s_rr = t["re_srr"] + 1j * t["im_srr"]
    f.close(t["R"], np.abs(s_ll) ** 2, TOL_EXACT, where, "R column vs |s_ll|^2")
    f.close(t["T"], np.abs(s_lr) ** 2, TOL_EXACT, where, "T column vs |s_lr|^2")
    ins = inside
    f.close(np.abs(s_ll[ins]) ** 2 + np.abs(s_lr[ins]) ** 2, 1.0 + 0 * lams[ins], TOL_EXACT,
            where, "unitarity |s_ll|^2 + |s_lr|^2 on open channels")
    f.close(np.abs(s_rr[ins]) ** 2 + np.abs(s_lr[ins]) ** 2, 1.0 + 0 * lams[ins], TOL_EXACT,
            where, "unitarity |s_rr|^2 + |s_lr|^2 on open channels")
    f.close(t["defect"], 0.0 * lams, TOL_EXACT, where, "reported unitarity defect")
    out = ~inside
    f.close(np.stack([s_ll[out], s_rr[out], s_lr[out]]),
            np.stack([1.0 + 0 * lams[out], 1.0 + 0 * lams[out], 0 * lams[out]]),
            TOL_EXACT, where, "identity where both channels are closed")
    r_want = reflection_oracle(doc, lams[ins])
    tol = TOL_EXACT if coef.period == 1 else TOL_ROUTE
    f.close(t["R"][ins], r_want, tol, where, "R vs oracle")
    f.close(t["T"][ins], 1.0 - r_want, tol, where, "T = 1 - R vs oracle")


def check_reflect(f, where, doc, t):
    k = len(N_SITES)
    if t["lambda"].size % k:
        f.append(f"{where}: {t['lambda'].size} rows is not a multiple of {k}")
        return None
    lams = t["lambda"][::k]
    f.expect(np.array_equal(t["n"], np.tile(N_SITES, lams.size).astype(float)),
             where, "cut-site column is not -3..3 per energy")
    f.expect(np.array_equal(np.repeat(lams, k), t["lambda"]), where,
             "energy column does not repeat per cut site")
    coef = oracles.Coefficients(doc)
    inside = oracles.in_band(coef, lams)
    r = np.full(lams.size, np.inf)
    r[inside] = reflection_oracle(doc, lams[inside])
    verdicts = np.stack([t[c].reshape(lams.size, k)
                         for c in ("verdict_mt", "verdict_spec", "verdict_stat")])
    f.expect(bool(np.all(t["agree"])), where, "criteria verdicts disagree")
    f.expect(bool(np.all(~verdicts[:, r > REFLECTING])), where,
             "a verdict says reflectionless where R > 1e-6 or outside the spectrum")
    if coef.window is None:
        f.expect(bool(np.all(verdicts[:, inside])), where,
                 "a verdict says reflecting on a periodic operator inside a band")
    mag = t["s_ll_mag"].reshape(lams.size, k)
    f.close(mag[inside] ** 2, np.repeat(r[inside][:, None], k, axis=1), TOL_ROUTE, where,
            "|s_ll|^2 vs oracle R at every cut site")
    return lams


def check_jost(f, where, doc, t):
    lams = t["lambda"]
    r = reflection_oracle(doc, lams)
    f.close(t["R_spectral"], r, TOL_ROUTE, where, "R_spectral (Jost) vs oracle R")
    f.close(t["R_from_s"], r, TOL_ROUTE, where, "R_from_s vs oracle R")
    f.close(t["residual"], 0 * lams, TOL_ROUTE, where, "reported Jost-vs-s residual")


def check_transport(f, where, doc, t, flags):
    f.expect(t["I_charge"].size == 1, where, f"{t['I_charge'].size} rows, expected 1")
    if t["I_charge"].size != 1:
        return
    f.close([t[c][0] for c in ("beta_l", "mu_l", "beta_r", "mu_r")], list(flags), 0.0,
            where, "echoed reservoir flags")
    coef = oracles.Coefficients(doc)
    want = oracles.landauer(coef, *flags, transmission=transmission_fn(doc))
    f.close([t["I_charge"][0], t["I_energy"][0]], list(want), TOL_ROUTE, where,
            "Landauer currents vs quad")


def check_cli(inputs, texts, codes):
    """Check one pass of cli-grid outputs.

    ``texts[(op, label, fmt)]`` is the output file's text and
    ``codes[(op, label, fmt)]`` what ``cli.run`` returned for it.
    """
    f = Failures()
    for key, code in codes.items():
        f.expect(code == 0, ".".join(key), f"cli.run returned {code!r}")
    labels = sorted({(op, cmd, label) for op, cmd, label, _fmt, _argv in inputs["invocations"]})
    tables = {}
    for op, cmd, label in labels:
        where = f"{op}.{label}"
        try:
            pair = (texts[(op, label, "csv")], texts[(op, label, "json")])
        except KeyError:
            f.append(f"{where}: output missing")
            continue
        tables[(op, label)] = parse_pair(f, where, cmd, *pair)
    for op, cmd, label in labels:
        t = tables.get((op, label))
        if t is None:
            continue
        doc = inputs["configs"][op]
        where = f"{op}.{label}"
        if cmd == "transport":
            check_transport(f, where, doc, t, inputs["grids"][(op, label)])
            continue
        grid = inputs["grids"][(op, W.GRID_OF[cmd])]
        bands = oracles.bands(oracles.Coefficients(doc))
        if cmd == "reflect-check":
            lams = check_reflect(f, where, doc, t)
            if lams is not None:
                _check_grid(f, where, lams, *grid, bands)
            continue
        if not _check_grid(f, where, t["lambda"], *grid, bands):
            continue
        if cmd == "mfunc":
            check_mfunc(f, where, doc, t, tables.get((op, "green")))
        elif cmd == "green":
            check_green(f, where, doc, t)
        elif cmd == "scatter":
            check_scatter(f, where, doc, t)
        elif cmd == "jost":
            check_jost(f, where, doc, t)
    return f


def check_repeat(first, later, which):
    """A repeated command must give the same bytes."""
    f = Failures()
    for key, digest in first.items():
        f.expect(later.get(key) == digest, ".".join(key), f"{which}: bytes differ from pass 1")
    return f


def count_rows(texts):
    """Data rows of the CSV outputs (the JSON twins carry the same rows)."""
    return sum(text.count("\n") - 1 for (_op, _label, fmt), text in texts.items() if fmt == "csv")


# ---------------------------------------------------------------------------
# certify

def _failed(x):
    return isinstance(x, Exception)


def check_certify(inputs, outputs):
    f = Failures()
    for name, out in outputs.items():
        doc = inputs["configs"][name]
        coef = oracles.Coefficients(doc)
        where = name
        for key in ("bands", "grid", "report", "mratio"):
            if _failed(out[key]):
                f.append(f"{where}: {key} raised {out[key]!r}")
        if not _failed(out["bands"]):
            edges = np.array([e for band in out["bands"] for e in band])
            want = np.array([e for band in oracles.bands(coef) for e in band])
            f.close(edges, want, TOL_ROUTE, where, "band edges vs Floquet-matrix eigenvalues")
            f.close([oracles.edge_multiplier_defect(coef, e) for e in edges], 0.0 * edges,
                    TOL_M, where, "monodromy eigenvalues off the unit circle at a band edge")
        if _failed(out["grid"]):
            continue
        lams = out["grid"]
        f.expect(bool(np.all(oracles.in_band(coef, lams))), where,
                 "band_grid point outside the bands (monodromy eigenvalues)")
        r = reflection_oracle(doc, lams)

        report = out["report"]
        if not _failed(report):
            f.expect(bool(report.agree.all()), where, "criteria verdicts disagree")
            verdicts = np.stack([report.verdict_mt, report.verdict_spec, report.verdict_stat])
            f.expect(bool(np.all(~verdicts[:, r > REFLECTING])), where,
                     "a verdict says reflectionless where R > 1e-6")
            f.close(report.s_diag_mag ** 2, np.broadcast_to(r, report.s_diag_mag.shape),
                    TOL_ROUTE, where, "report |s_diag|^2 vs oracle R")

        s0 = out["scatter"][0]
        for n, res in out["scatter"].items():
            w = f"{where} cut {n}"
            if _failed(res):
                f.append(f"{w}: scattering_grid raised {res!r}")
                continue
            f.expect(bool(np.all(res["density_l"] > 0) and np.all(res["density_r"] > 0)
                          and np.all(res["g"].imag > 0)), w,
                     "Herglotz sign: density or Im G not positive in a band")
            one = np.ones_like(lams)
            f.close(np.abs(res["s_ll"]) ** 2 + np.abs(res["s_lr"]) ** 2, one, TOL_EXACT, w,
                    "unitarity |s_ll|^2 + |s_lr|^2")
            f.close(np.abs(res["s_rr"]) ** 2 + np.abs(res["s_lr"]) ** 2, one, TOL_EXACT, w,
                    "unitarity |s_rr|^2 + |s_lr|^2")
            if not _failed(s0):
                f.close(np.abs(res["s_ll"]), np.abs(s0["s_ll"]), TOL_ROUTE, w,
                        "cut-site invariance of |s_ll|")
        r_jost = np.array([np.nan if _failed(d) else d.R_r for d in out["alpha_beta"]])
        ok = np.isfinite(r_jost)
        f.close(r_jost[ok], r[ok], TOL_ROUTE, where, "Jost route vs oracle R")
        if not _failed(s0):
            f.close(r_jost[ok], np.abs(s0["s_rr"][ok]) ** 2, TOL_ROUTE, where,
                    "Jost route vs s-matrix route")
        if not _failed(out["mratio"]):
            f.close(r_jost[ok], out["mratio"][ok], TOL_ROUTE, where, "Jost route vs m-ratio route")

        land = out["landauer"]
        tfn = transmission_fn(doc)
        oracle_cache = {}
        for (bias, q), val in land.items():
            w = f"{where} landauer {bias} q={q}"
            if _failed(val):
                f.append(f"{w}: raised {val!r}")
                continue
            got = [val["charge_current"], val["energy_current"]]
            if bias[0] == bias[2] and bias[1] == bias[3]:
                f.expect(got == [0.0, 0.0], w, f"zero bias gives {got}")
                continue
            if bias not in oracle_cache:
                oracle_cache[bias] = oracles.landauer(coef, *bias, transmission=tfn)
            f.close(got, list(oracle_cache[bias]), TOL_ROUTE, w, "Landauer currents vs quad")
            swapped = land.get(((bias[2], bias[3], bias[0], bias[1]), q))
            if swapped is not None and not _failed(swapped):
                f.close([swapped["charge_current"], swapped["energy_current"]],
                        [-x for x in got], TOL_EXACT, w, "sign change when reservoirs swap")

        for z, n, m_r, m_l in out["m_upper"]:
            w = f"{where} m at z={z:.6g} cut {n}"
            for side, m in (("right", m_r), ("left", m_l)):
                if _failed(m):
                    f.append(f"{w}: m_{side}_grid raised {m!r}")
                    continue
                f.expect(m[0].imag > 0, w, f"Herglotz sign: Im m_{side} <= 0")
                f.close(m[0], oracles.m_truncated(coef, n, z, side), TOL_M, w,
                        f"m_{side} vs truncated resolvent")
    return f


# ---------------------------------------------------------------------------
# dynamics

def _packet_average(doc, lam0, dlam):
    """Stationary R averaged over the packet's Gaussian energy profile.

    The program refuses packets whose 3 dlambda range leaves the band, so
    the profile is cut there as well.
    """
    x = np.linspace(-3.0, 3.0, 241)
    w = np.exp(-0.5 * x * x)
    return float(np.sum(w * reflection_oracle(doc, lam0 + dlam * x)) / np.sum(w))


def check_dynamics(inputs, outputs, packets):
    """``packets[op]`` is the initial state (amplitudes) the program built."""
    f = Failures()
    for op, lam0 in inputs["runs"]:
        out = outputs[op]
        if _failed(out):
            f.append(f"{op}: dynamical_reflection raised {out!r}")
            continue
        doc = inputs["configs"][op]
        f.close(out["R_dyn"] + out["T_dyn"] + out["site0_mass"], 1.0, TOL_EXACT, op,
                "R_dyn + T_dyn + site0 = 1")
        coef = oracles.Coefficients(doc)
        if coef.window is None and coef.cell_a == [1.0] and coef.cell_b == [0.0]:
            amps = packets[op]
            final = oracles.free_evolve(amps, out["t_star"])
            n = inputs["N"]
            mass = np.abs(final) ** 2
            f.close([out["R_dyn"], out["T_dyn"]], [mass[:n].sum(), mass[n + 1:].sum()],
                    TOL_ROUTE, op, "free-chain masses vs Bessel-kernel propagation")
        want = _packet_average(doc, lam0, inputs["dlambda"])
        f.close(out["R_dyn"], want, TOL_DYN, op, "R_dyn vs packet-averaged oracle R")
        f.close(out["R_stationary_avg"], want, TOL_DYN, op,
                "R_stationary_avg vs packet-averaged oracle R")
    return f
