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

Every quantity at a cut comes from one ``mfunc.boundary_pieces`` call:
the report's G_nn, specref and s-matrix at all seven sites, the
essential support (its channel densities, so the open-channel rule
``Im m > SUPPORT_TOL`` is coded there alone) and the Landauer
transmission.

The Landauer integral uses hbar = e = 1 and counts current positive from
left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bands import _inset_bands, _near_edge, band_intervals
from .errors import _named, raise_first
from .mfunc import _G_CHECKS, boundary_pieces
from .model import _check_integer
from .scattering import _s_entries

TAU_DEFAULT = 1e-8
N_RANGE = tuple(range(-3, 4))   # the cut sites of reflectionless_report
QUADRATURE_NODES = 400          # Gauss-Legendre nodes per band in landauer_current
GRID_POINTS_MAX = 10**6         # largest point count explicit_grid builds
# leggauss(n) takes the eigenvalues of an n x n companion matrix, 8 n^2 bytes:
# 128 MiB at 4096 nodes, ten times the default rule
QUADRATURE_MAX = 4096

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
    dropped: tuple = ()

    def __len__(self):
        return len(self.points)


def explicit_grid(spec, start, stop, step):
    """start:stop:step grid, start <= stop; stop included when within step/2.

    Points inside a band-edge margin are dropped (recorded), not errors.
    """
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(f"grid {start}:{stop}:{step} is not finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError(f"grid {start}:{stop}:{step} has stop < start")
    n_exact = (stop - start) / step
    if n_exact >= GRID_POINTS_MAX:
        raise ValueError(f"grid of {n_exact:.3g} points exceeds {GRID_POINTS_MAX}")
    n = int(np.floor(n_exact + 1e-9))
    points = start + step * np.arange(n + 1, dtype=float)
    if n_exact - n > 0.5 - 1e-9:
        # stop itself is within step/2 of the grid continuation
        points = np.append(points, stop)
    keep = ~_near_edge(spec.background, points)[0]
    return EnergyGrid(points=points[keep], dropped=tuple(points[~keep]))


def band_grid(spec, points_per_band):
    """Evenly spaced points per band, inset from the edges; the count is a
    non-negative integer."""
    _check_integer(points_per_band, "points_per_band")
    if points_per_band < 0:
        raise ValueError(f"points_per_band must be non-negative, got {points_per_band}")
    return EnergyGrid(points=np.concatenate([
        np.linspace(lo, hi, points_per_band) for lo, hi in _inset_bands(spec.background)]))


def essential_support(spec, grid):
    """Index sets where each half-line boundary density is positive, by the
    open-channel threshold of the s-matrix."""
    pieces = boundary_pieces(spec, [0], grid.points)
    raise_first(_named(pieces.checks, "edge", "right seed", "left seed"))
    left, right = (np.flatnonzero(d[0] > 0) for d in (pieces.density_l, pieces.density_r))
    union = np.union1d(left, right)
    return {"left": left, "right": right, "union": union}


def _criterion_rows(re_g, specref, s_diag):
    """Verdict-level residuals per lambda: max|Re G_nn| over the sites, the
    same over each three consecutive sites, the m-product residual and
    max(|s_ll|, |s_rr|)."""
    abs_g = np.abs(re_g)
    triples = [abs_g[i: i + 3].max(axis=0) for i in range(len(abs_g) - 2)]
    return np.array([abs_g.max(axis=0), *triples, specref.max(axis=0), s_diag.max(axis=0)])


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
        return _criterion_rows(self.re_g, self.specref_residual, self.s_diag_mag)

    def residual_gap_ok(self):
        """No criterion residual strictly inside (1e-10, 1e-3)."""
        r = self.criterion_residuals()
        return bool(~np.any((r > 1e-10) & (r < 1e-3)))

    def columns(self):
        """Flat per-(lambda, n) columns, lambda-major; verdicts are per lambda."""
        sites, lams = len(self.n_range), self.grid.points
        cols = {"lambda": np.repeat(lams, sites),
                "n": np.tile(np.array(self.n_range, dtype=int), lams.size),
                "re_G": self.re_g.T.ravel(),
                "specref_residual": self.specref_residual.T.ravel(),
                "s_ll_mag": self.s_diag_mag.T.ravel()}
        for name in ("verdict_mt", "verdict_spec", "verdict_stat", "agree"):
            cols[name] = np.repeat(getattr(self, name), sites)
        return cols


def reflectionless_report(spec, grid, tau=TAU_DEFAULT):
    """Evaluate the stationary criteria at each cut site of N_RANGE over the grid.

    The criteria speak about the essential support: where every channel is
    closed, each verdict is False.  Each verdict is its criterion residual
    under ``tau``, and they agree where every verdict equals the first.
    """
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tolerance tau must be finite and non-negative, got {tau}")
    pieces = boundary_pieces(spec, N_RANGE, grid.points)
    raise_first(_named(pieces.checks, *_G_CHECKS))
    re_g = pieces.g.real
    specref = pieces.specref
    res = _s_entries(pieces)
    s_diag = np.maximum(np.abs(res["s_ll"]), np.abs(res["s_rr"]))
    support = ((pieces.density_l > 0) | (pieces.density_r > 0)).any(axis=0)

    verdicts = (_criterion_rows(re_g, specref, s_diag) <= tau) & support
    return CriteriaReport(grid=grid, n_range=N_RANGE, re_g=re_g,
                          specref_residual=specref, s_diag_mag=s_diag,
                          verdict_mt=verdicts[0], verdict_triple=verdicts[1:-2],
                          verdict_spec=verdicts[-2], verdict_stat=verdicts[-1],
                          agree=(verdicts == verdicts[0]).all(axis=0))


@lru_cache(maxsize=8)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _fermi(lam, beta, mu):
    # beta (lam - mu) may overflow to +-inf, where 0 and 1 are the exact limits
    with np.errstate(over="ignore"):
        return np.exp(-np.logaddexp(0.0, beta * (lam - mu)))


def landauer_current(spec, beta_l, mu_l, beta_r, mu_r, quadrature=QUADRATURE_NODES):
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
    _check_integer(quadrature, "quadrature")
    if not 1 <= quadrature <= QUADRATURE_MAX:
        raise ValueError(f"quadrature must be an integer in [1, {QUADRATURE_MAX}], "
                         f"got {quadrature!r}")
    if not np.isfinite([beta_l, mu_l, beta_r, mu_r]).all():
        raise ValueError("inverse temperatures and chemical potentials must be finite")
    if beta_l <= 0 or beta_r <= 0:
        raise ValueError("inverse temperatures must be positive")
    if beta_l == beta_r and mu_l == mu_r:
        return {"charge_current": 0.0, "energy_current": 0.0}

    x, w = _gauss_legendre(quadrature)
    theta = 0.5 * np.pi * (x + 1.0)
    w_theta = 0.5 * np.pi * w
    bands = np.array(band_intervals(spec.background))
    lo, hi = bands[:, :1], bands[:, 1:]
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    lams = mid - hw * np.cos(theta)            # [band, node]
    jac = hw * np.sin(theta)
    pieces = boundary_pieces(spec, [0], lams.ravel())    # one sweep over every band
    raise_first(_named(pieces.checks, "right seed", "left seed", "G_nn pole", "G_nn cross"))
    t_coef = (np.abs(_s_entries(pieces)["s_lr"][0]) ** 2).reshape(lams.shape)
    df = _fermi(lams, beta_l, mu_l) - _fermi(lams, beta_r, mu_r)
    base = w_theta * jac * t_coef * df
    # summed per band, then in band order
    charge, energy = (sum(x.sum(axis=1).tolist()) for x in (base, base * lams))
    return {
        "charge_current": float(charge / (2.0 * np.pi)),
        "energy_current": float(energy / (2.0 * np.pi)),
    }
