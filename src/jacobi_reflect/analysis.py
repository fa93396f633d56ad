"""Cross-comparison of the reflectionless criteria, supports, transport.

Three stationary criteria are evaluated pointwise on an energy grid and
compared site by site:

  measure-theoretic   Re G_nn(lam + i0) = 0        (per cut site n)
  spectral            a_n^2 m_right(n) m_left(n+1)(lam - i0) = 1
  stationary          the scattering matrix is off-diagonal

The dynamical notion is exercised separately through wave-packet runs in
the dynamics module.  "Almost every lambda" becomes: a finite grid with
band-edge margins, plus the requirement that residuals stay far from the
verdict threshold on either side.

The Landauer integral uses hbar = e = 1 and counts current positive from
left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, roots_legendre

from .bands import _near_edge, band_intervals
from .mfunc import ac_density
from .scattering import _s_entries, boundary_pieces, scattering_grid

TAU_DEFAULT = 1e-8
TAU_SUPPORT = 1e-10
EDGE_REL = 1e-6       # relative band-edge margin enforced on grids
INSET_REL = 1e-5      # band-scan grids stay this far inside each band

__all__ = [
    "EnergyGrid",
    "CriteriaReport",
    "explicit_grid",
    "band_grid",
    "essential_support",
    "reflectionless_report",
    "landauer_current",
]


@dataclass(frozen=True)
class EnergyGrid:
    """Sorted retained energies, all outside the band-edge margins."""

    points: np.ndarray
    edge_margin: float
    provenance: str
    dropped: tuple = ()

    def __len__(self):
        return len(self.points)


def _margins(background):
    bands = band_intervals(background)
    return bands, max(EDGE_REL * (hi - lo) for lo, hi in bands)


def explicit_grid(spec, start, stop, step):
    """start:stop:step grid; stop included when within step/2.

    Points inside a band-edge margin are dropped (recorded), not errors.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n_exact = (stop - start) / step
    n = int(np.floor(n_exact + 1e-9))
    points = start + step * np.arange(n + 1)
    if n_exact - n > 0.5 - 1e-9:
        # stop itself is within step/2 of the grid continuation
        points = np.append(points, stop)
    bands, margin = _margins(spec.background)
    keep = ~_near_edge(bands, points)[0]
    return EnergyGrid(points=points[keep], edge_margin=margin,
                      provenance="explicit", dropped=tuple(points[~keep]))


def band_grid(spec, points_per_band):
    """Evenly spaced points per band, inset from the edges."""
    bands, margin = _margins(spec.background)
    pieces = []
    for lo, hi in bands:
        inset = INSET_REL * (hi - lo)
        pieces.append(np.linspace(lo + inset, hi - inset, points_per_band))
    return EnergyGrid(points=np.concatenate(pieces), edge_margin=margin,
                      provenance="band-scan")


def essential_support(spec, grid):
    """Index sets where each half-line boundary density is positive."""
    lams = grid.points
    left = np.flatnonzero(ac_density(spec, 0, lams, side="left") > TAU_SUPPORT)
    right = np.flatnonzero(ac_density(spec, 0, lams, side="right") > TAU_SUPPORT)
    union = np.union1d(left, right)
    return {"left": left, "right": right, "union": union}


@dataclass(frozen=True)
class CriteriaReport:
    """Residuals and verdicts of the stationary criteria on a grid.

    Residual arrays are indexed [site, lambda].  Each criterion is a
    statement about the operator at an energy, not about one site, so its
    verdict aggregates over the site range: the criterion residual is the
    max over n of the per-site values.  Per-site values of Re G_nn cross
    zero at isolated energies even for strongly reflecting operators, so
    only the aggregated residuals can separate the two verdicts cleanly.
    Triple verdicts (any three consecutive sites already decide the
    measure-theoretic criterion) are indexed [first site, lambda].
    """

    grid: EnergyGrid
    n_range: tuple
    tau: float
    re_g: np.ndarray
    specref_residual: np.ndarray
    s_diag_mag: np.ndarray
    verdict_mt: np.ndarray       # per lambda, aggregated over n_range
    verdict_triple: np.ndarray   # per (triple, lambda)
    verdict_spec: np.ndarray     # per lambda
    verdict_stat: np.ndarray     # per lambda
    agree: np.ndarray            # per lambda

    def all_pass(self):
        """True when every verdict says reflectionless at every point."""
        return bool(self.verdict_mt.all() and self.verdict_spec.all()
                    and self.verdict_stat.all() and self.verdict_triple.all())

    def criterion_residuals(self):
        """Verdict-level residuals: per-lambda maxima over the site range."""
        mt = np.abs(self.re_g).max(axis=0)
        triples = np.array([
            np.abs(self.re_g[i: i + 3]).max(axis=0)
            for i in range(max(1, len(self.n_range) - 2))
        ]) if len(self.n_range) >= 3 else np.abs(self.re_g).max(axis=0)[None]
        return np.concatenate([
            mt[None], triples,
            self.specref_residual.max(axis=0)[None],
            self.s_diag_mag.max(axis=0)[None],
        ])

    def residual_gap_ok(self, lo=1e-10, hi=1e-3):
        """No criterion residual strictly inside (lo, hi)."""
        r = self.criterion_residuals()
        return bool(~np.any((r > lo) & (r < hi)))

    def rows(self):
        """Per-(lambda, n) rows for the CSV report; verdicts are per lambda."""
        for j, lam in enumerate(self.grid.points):
            for i, n in enumerate(self.n_range):
                yield {
                    "lambda": lam,
                    "n": n,
                    "re_G": self.re_g[i, j],
                    "specref_residual": self.specref_residual[i, j],
                    "s_ll_mag": self.s_diag_mag[i, j],
                    "verdict_mt": bool(self.verdict_mt[j]),
                    "verdict_spec": bool(self.verdict_spec[j]),
                    "verdict_stat": bool(self.verdict_stat[j]),
                    "agree": bool(self.agree[j]),
                }


def reflectionless_report(spec, grid, n_range=tuple(range(-3, 4)), tau=TAU_DEFAULT):
    """Evaluate the stationary criteria at each cut site over the grid."""
    n_range = tuple(int(n) for n in n_range)
    lams = np.asarray(grid.points, dtype=float)
    n_sites = len(n_range)
    re_g = np.empty((n_sites, lams.size))
    specref = np.empty((n_sites, lams.size))
    s_diag = np.empty((n_sites, lams.size))

    for i, n in enumerate(n_range):
        pieces = boundary_pieces(spec, n, lams, real_limit=True)
        re_g[i] = pieces.g.real
        a_n = spec.a(n)
        specref[i] = np.abs(a_n * a_n * pieces.m_r * np.conj(pieces.m_l_next) - 1.0)
        res = _s_entries(pieces)
        s_diag[i] = np.maximum(np.abs(res["s_ll"]), np.abs(res["s_rr"]))

    verdict_mt = (np.abs(re_g) <= tau).all(axis=0)
    verdict_spec = (specref <= tau).all(axis=0)
    verdict_stat = (s_diag <= tau).all(axis=0)
    if n_sites >= 3:
        verdict_triple = np.array([
            (np.abs(re_g[i: i + 3]) <= tau).all(axis=0)
            for i in range(n_sites - 2)
        ])
    else:
        verdict_triple = verdict_mt[None]

    stacked = np.vstack([verdict_mt[None], verdict_spec[None],
                         verdict_stat[None], verdict_triple])
    agree = np.all(stacked == stacked[0], axis=0)
    return CriteriaReport(grid=grid, n_range=n_range, tau=tau, re_g=re_g,
                          specref_residual=specref, s_diag_mag=s_diag,
                          verdict_mt=verdict_mt, verdict_triple=verdict_triple,
                          verdict_spec=verdict_spec, verdict_stat=verdict_stat,
                          agree=agree)


def _fermi(lam, beta, mu):
    return expit(-beta * (lam - mu))


def landauer_current(spec, beta_l, mu_l, beta_r, mu_r, quadrature=400):
    """Steady-state charge and energy currents between two reservoirs.

    I_charge = (2 pi)^-1 integral T(lam) (f_l - f_r) dlam over the bands,
    I_energy the same with an extra factor lam.  The substitution
    lam = mid - halfwidth * cos(theta) removes the square-root band-edge
    behavior of T, so plain Gauss-Legendre in theta converges fast.  The
    innermost nodes land closer to the edges than the usual evaluation
    margin; that is safe here because the in-band branch selection keeps
    six orders of headroom at those distances and the integration weight
    of the near-edge nodes vanishes with the jacobian.
    """
    if beta_l <= 0 or beta_r <= 0:
        raise ValueError("inverse temperatures must be positive")
    if beta_l == beta_r and mu_l == mu_r:
        return {"charge_current": 0.0, "energy_current": 0.0}

    x, w = roots_legendre(int(quadrature))
    theta = 0.5 * np.pi * (x + 1.0)
    w_theta = 0.5 * np.pi * w
    bands, _ = _margins(spec.background)

    charge = 0.0
    energy = 0.0
    for lo, hi in bands:
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        lams = mid - hw * np.cos(theta)
        jac = hw * np.sin(theta)
        t_coef = np.abs(scattering_grid(spec, 0, lams, guard=False)["s_lr"]) ** 2
        df = _fermi(lams, beta_l, mu_l) - _fermi(lams, beta_r, mu_r)
        base = w_theta * jac * t_coef * df
        charge += base.sum()
        energy += (base * lams).sum()
    return {
        "charge_current": float(charge / (2.0 * np.pi)),
        "energy_current": float(energy / (2.0 * np.pi)),
    }
