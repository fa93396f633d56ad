"""Generalized eigenfunctions decaying at one infinity, and what they buy.

For real in-band energies the solution space of

    a_k psi_{k+1} + a_{k-1} psi_{k-1} + b_k psi_k = lambda psi_k

is spanned by the boundary values of the two Weyl solutions: psi_right
(limit of the solution square-summable at +inf) and psi_left (at -inf).
Both are normalized to psi_0 = 1.  Expanding psi_left over the right pair
(conj(psi_right), psi_right) gives the coefficients alpha, beta and the
right reflection probability |beta/alpha|^2, which must agree with the
scattering-matrix route and with the m-function ratio route.

The solutions are the ones ``mfunc.weyl_sweep`` computes for the
m-functions, the Green's function and the s-matrix, read on a window of
sites: the branch is the one of ``mfunc``, with no rule of its own.

``alpha_beta_grid`` expands a whole energy grid at once and keeps a status
per energy: None, or the refusal of the first check the energy fails.  A
refused energy drops out of the later checks and reads NaN; the others are
unaffected.  ``alpha_beta`` is its one-point view and raises the refusal.
One energy runs the sweep on Python scalars, yet gets the bits it gets on
a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bands import _near_edge, _real_energies, band_intervals
from .errors import (
    BandEdge,
    CrossCheckFailure,
    DegenerateBasis,
    NormalizationPole,
    PoleHit,
)
from .mfunc import POLE_TOL, weyl_sweep
from .model import coefficient_arrays

RECURSION_TOL = 1e-10   # residual of the three-term recursion, relative
# Spread of the Wronskian over the window, relative to max|u| max|v|.  Across
# site k it changes by v_k r_u(k) - u_k r_v(k), r the recursion residual at k,
# so the spread is a sum of residuals each bounded by RECURSION_TOL: the same
# bound on the sum catches residuals that pile up along the window.
WRONSKIAN_SPREAD_TOL = RECURSION_TOL
DEGENERATE_TOL = 1e-12  # |W(conj(psi_r), psi_r)| below this is degenerate

__all__ = [
    "JostSolution",
    "ReflectionDatum",
    "ReflectionGrid",
    "jost_solution",
    "wronskian",
    "alpha_beta",
    "alpha_beta_grid",
    "spectral_reflection_mratio",
    "spectral_reflection_mratio_grid",
    "green_offdiag",
]


@dataclass(frozen=True)
class JostSolution:
    """One decaying-branch solution on a finite site window."""

    side: str
    lam: float
    k_min: int
    k_max: int
    values: np.ndarray
    spec: object = field(repr=False, default=None)

    def value(self, k):
        if not self.k_min <= k <= self.k_max:
            raise IndexError(f"site {k} outside window [{self.k_min}, {self.k_max}]")
        return self.values[k - self.k_min]


@dataclass(frozen=True)
class ReflectionDatum:
    """Expansion of psi_left over the right-tail basis at one energy."""

    lam: float
    alpha: complex
    beta: complex
    R_r: float


class ReflectionGrid(NamedTuple):
    """The Jost expansion over a grid; NaN where ``status`` holds a refusal."""

    lams: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    R_r: np.ndarray
    status: tuple       # per energy: None, or the refusal alpha_beta raises there

    @property
    def ok(self):
        return np.array([s is None for s in self.status], dtype=bool)


def _site_range(spec, k_min=None, k_max=None):
    # the output range covers site 0 and one bond, by default the
    # perturbation too
    w = spec.window
    k_lo = min(k_min if k_min is not None else min(-3, (w[0] - 2) if w else -3), 0)
    k_hi = max(k_max if k_max is not None else max(3, (w[1] + 2) if w else 3), 1)
    return k_lo, k_hi


class _Status:
    """Per-energy refusals of a grid: each energy keeps the first check it
    fails, and ``live`` indexes the energies that passed every check so far.
    """

    def __init__(self, n):
        self.refusals = [None] * n
        self.live = np.arange(n)

    def refuse(self, bad, refusal):
        """Refuse the live energies (the last axis) where a row of ``bad``
        holds, the i-th live one with ``refusal(i, row)`` of its first such
        row; returns an index of the energies kept."""
        if not bad.any():
            return slice(None)
        rows = bad.reshape(-1, bad.shape[-1])
        hit = rows.any(axis=0)
        for i in np.flatnonzero(hit):
            self.refusals[self.live[i]] = refusal(i, np.argmax(rows[:, i]))
        self.live = self.live[~hit]
        return ~hit


def _jost_values(spec, lams, k_lo, k_hi, sides, coeffs, status):
    """Weyl solutions ``sides`` ('r', 'l') on sites k_lo..k_hi, 1 at site 0,
    as [side, site, energy], at the energies that pass the edge guard, the
    seed checks, the normalization and the recursion residual; ``status``
    keeps the refusals of the others.  ``coeffs`` are the sites' coefficient
    arrays.
    """
    near, edge, margin = _near_edge(band_intervals(spec.background), lams)
    lams = lams[status.refuse(near, lambda i, _: BandEdge(lams[i], edge[i], margin[i]))]
    sols = [weyl_sweep(spec, "right" if side == "r" else "left", k_lo, k_hi - 1,
                       lams, guard=False, refuse=False) for side in sides]
    seed_bad = np.array([[s is not None for s in sol.refused] for sol in sols], dtype=bool)
    keep = status.refuse(seed_bad, lambda i, side: sols[side].refused[i])
    vals = np.array([sol.values(k_lo, k_hi) for sol in sols])[..., keep]
    lams = lams[keep]

    psi0 = vals[:, -k_lo]
    # + 0 prints an exact zero as 0, whatever sign the sweep gave it
    keep = status.refuse(np.abs(psi0) < 1e-12 * np.abs(vals).max(axis=1),
                         lambda i, side: NormalizationPole(
                             f"psi_0 = {psi0[side, i] + 0:.3e} vanishes at lambda = "
                             f"{lams[i]} ({sides[side]} side)"))
    vals = vals[..., keep] / psi0[:, None, keep]
    lams = lams[keep]

    a, b = coeffs
    r = (a[1:-1, None] * vals[:, 2:] + a[:-2, None] * vals[:, :-2]
         + (b[1:-1, None] - lams) * vals[:, 1:-1])
    worst = np.abs(r).max(axis=1, initial=0.0)
    scale = np.abs(vals).max(axis=1)
    keep = status.refuse(worst > RECURSION_TOL * scale, lambda i, side: CrossCheckFailure(
        f"three-term recursion residual {worst[side, i]:.3e} exceeds "
        f"{RECURSION_TOL} * {scale[side, i]:.3e}"))
    return vals[..., keep]


def jost_solution(spec, side, lam, k_min=None, k_max=None):
    """Decaying-branch solution, normalized to 1 at site 0.

    ``side='r'`` decays toward +inf, ``side='l'`` toward -inf; energies
    within the band-edge margin are refused.
    """
    if side not in ("l", "r"):
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    k_lo, k_hi = _site_range(spec, k_min, k_max)
    status = _Status(1)
    vals = _jost_values(spec, np.array([float(lam)]), k_lo, k_hi, side,
                        coefficient_arrays(spec, k_lo, k_hi), status)
    if status.refusals[0] is not None:
        raise status.refusals[0]
    return JostSolution(side=side, lam=float(lam), k_min=k_lo, k_max=k_hi,
                        values=vals[0, :, 0], spec=spec)


def wronskian(u, v, k):
    """a_k (u_{k+1} v_k - u_k v_{k+1}); k-independent for equal energies."""
    return u.spec.a(k) * (u.value(k + 1) * v.value(k) - u.value(k) * v.value(k + 1))


def _wronskian_spread(u, v, bonds, i0):
    """Wronskian of [..., site, energy] arrays at bond i0, the mask of where
    it is not constant across the bonds, and its spread."""
    ws = bonds * (u[..., 1:, :] * v[..., :-1, :] - u[..., :-1, :] * v[..., 1:, :])
    w0 = ws[..., i0, :]
    spread = np.abs(ws - w0[..., None, :]).max(axis=-2)
    # scale by the solutions, not |W|: W = 0 is a legitimate value
    scale = np.maximum(np.abs(u).max(axis=-2) * np.abs(v).max(axis=-2), 1e-30)
    return w0, spread > WRONSKIAN_SPREAD_TOL * scale, spread


def _wronskian_refusal(spread, w0):
    return CrossCheckFailure(f"Wronskian varies by {spread:.3e} across the window "
                             f"(|W| = {abs(w0):.3e})")


def alpha_beta_grid(spec, lams):
    """The expansion psi_left = alpha conj(psi_right) + beta psi_right at cut 0
    and R_r = |beta/alpha|^2 over a grid of energies, with a status per energy.

    Each energy is checked as ``alpha_beta`` checks it, in the same order:
    the band-edge guard, the Floquet seeds, ``NormalizationPole`` at psi_0,
    the recursion residual, Wronskian constancy, ``DegenerateBasis``, the
    expansion residual and R_r <= 1.  A refused energy drops out of the
    later checks, and the others get the bits they get alone.
    """
    lams = _real_energies(lams)
    status = _Status(lams.size)
    k_lo, k_hi = _site_range(spec)
    coeffs = coefficient_arrays(spec, k_lo, k_hi)
    psi_r, psi_l = _jost_values(spec, lams, k_lo, k_hi, "rl", coeffs, status)

    psi_rbar = np.conj(psi_r)
    w, bad, spread = _wronskian_spread(
        np.array([psi_rbar, psi_l, psi_l]), np.array([psi_r, psi_r, psi_rbar]),
        coeffs[0][:-1, None], -k_lo)
    keep = status.refuse(bad, lambda i, which: _wronskian_refusal(spread[which, i],
                                                                  w[which, i]))
    (w_rbar_r, w_l_r, w_l_rbar), psi_rbar, psi_r, psi_l = (
        x[..., keep] for x in (w, psi_rbar, psi_r, psi_l))

    keep = status.refuse(np.abs(w_rbar_r) < DEGENERATE_TOL, lambda i, _: DegenerateBasis(
        f"psi_right is (a multiple of) a real solution at lambda = {lams[status.live[i]]}"))
    alpha = w_l_r[keep] / w_rbar_r[keep]
    beta = w_l_rbar[keep] / (-w_rbar_r[keep])
    psi_rbar, psi_r, psi_l = (x[..., keep] for x in (psi_rbar, psi_r, psi_l))

    resid = np.abs(psi_l - (alpha * psi_rbar + beta * psi_r)).max(axis=0)
    bad = resid > 1e-9 * np.maximum(1.0, np.abs(psi_l).max(axis=0))
    keep = status.refuse(bad, lambda i, _: CrossCheckFailure(
        f"basis expansion residual {resid[i]:.3e} at lambda = {lams[status.live[i]]}"))
    alpha, beta = alpha[keep], beta[keep]

    # the scalar abs(z) ** 2: np.abs(arr) ** 2 can differ in the last ulp
    r_r = np.array([abs(x) ** 2 for x in (beta / alpha).tolist()])
    keep = status.refuse(r_r > 1.0 + 1e-8, lambda i, _: CrossCheckFailure(
        f"reflection probability {r_r[i]} exceeds 1"))

    out = alpha[keep], beta[keep], np.minimum(r_r[keep], 1.0)
    if status.live.size < lams.size:
        full = [np.full(lams.shape, np.nan, dtype=x.dtype) for x in out]
        for arr, x in zip(full, out):
            arr[status.live] = x
        out = full
    return ReflectionGrid(lams, *out, tuple(status.refusals))


def alpha_beta(spec, lam):
    """Expansion psi_left = alpha conj(psi_right) + beta psi_right at cut 0.

    Valid where the right channel is open (psi_right genuinely complex);
    returns the reflection probability R_r = |beta/alpha|^2 as well.  The
    one-point view of ``alpha_beta_grid``: raises the energy's refusal.
    """
    grid = alpha_beta_grid(spec, np.array([float(lam)]))
    if grid.status[0] is not None:
        raise grid.status[0]
    return ReflectionDatum(lam=lam, alpha=complex(grid.alpha[0]),
                           beta=complex(grid.beta[0]), R_r=float(grid.R_r[0]))


def spectral_reflection_mratio_grid(spec, lams):
    """Reflection probability from the m-function ratio at cut 0, vectorized.

    R_r = |a_0^2 conj(m_right(0)) m_left(1) - 1|^2
        / |a_0^2 m_right(0) m_left(1) - 1|^2   at lambda + i0,

    read off the Weyl pairs at bond 0 (finite at poles of m).
    """
    ru, rl = weyl_sweep(spec, "right", 0, 0, lams).bond(0)
    lu, ll = weyl_sweep(spec, "left", 0, 0, lams).bond(0)
    num = np.conj(ru) * ll - np.conj(rl) * lu
    den = ru * ll - rl * lu
    if np.any(np.abs(den) < POLE_TOL * (np.abs(ru) + np.abs(rl)) * (np.abs(lu) + np.abs(ll))):
        raise PoleHit("m-ratio denominator vanishes")
    return np.abs(num / den) ** 2


def spectral_reflection_mratio(spec, lam):
    """Scalar version of the m-ratio reflection probability."""
    return float(spectral_reflection_mratio_grid(spec, np.array([lam]))[0])


def green_offdiag(spec, n, m, lam):
    """G_nm(lambda + i0) from the product of the two decaying solutions.

    The orientation of the Wronskian is fixed so that the n = m case
    agrees with the diagonal value of ``scattering`` (checked in tests).
    """
    lo, hi = min(n, m), max(n, m)
    lams = np.array([float(lam)])
    k_lo = min(lo, (spec.window[0] - 2) if spec.window else -1) - 1
    k_hi = max(hi, (spec.window[1] + 2) if spec.window else 1) + 1
    # both solutions on the scale of their pairs at bond k_lo
    psi_r = weyl_sweep(spec, "right", k_lo, k_hi - 1, lams).values(k_lo, k_hi)
    psi_l = weyl_sweep(spec, "left", k_lo, k_hi - 1, lams).values(k_lo, k_hi)
    bonds = coefficient_arrays(spec, k_lo, k_hi - 1)[0][:, None]
    w, bad, spread = (x[0] for x in _wronskian_spread(psi_r, psi_l, bonds, 0))
    if bad:
        raise _wronskian_refusal(spread, w)
    if abs(w) < DEGENERATE_TOL * np.abs(psi_r[:2]).sum() * np.abs(psi_l[:2]).sum():
        raise PoleHit(f"Wronskian vanishes at lambda = {lam} (bound state)")
    return psi_l[lo - k_lo, 0] * psi_r[hi - k_lo, 0] / w
