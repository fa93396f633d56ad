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
m-functions, the Green's function and the s-matrix: the branch is the one
of ``mfunc``, with no rule of its own.  ``_jost_values`` is the one route
that reads them on a window of sites, which the sweep hands it whole with its
coefficients, and their checks by name, as ``"edge"`` or ``"left psi_0"``;
each caller names the ones it raises.  Its energies pass the sweep's gate,
``model._check_energies``, first.  ``jost_solution`` and ``alpha_beta_grid``
divide by psi_0, and ``jost_solution`` raises only its own side's checks;
``green_offdiag`` and ``dynamics._floquet_wave`` need no normalization.  The
m-ratio route reads m_right(0) and m_left(1) off ``mfunc.boundary_pieces``,
the cut route.

``alpha_beta_grid`` expands a whole energy grid at once and keeps a status
per energy: None, or the refusal of the first check the energy fails.  A
check is a mask over the grid and a refusal per energy; every check runs on
every energy, and ``errors.first_refusals`` picks each one's first failure.
A refused energy reads NaN; the others are unaffected.  ``alpha_beta`` is
its one-point view and raises the refusal.  The other routes raise the
first check their energies fail with ``errors.raise_first``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    CrossCheckFailure,
    DegenerateBasis,
    NormalizationPole,
    PoleHit,
    _named,
    first_refusals,
    raise_first,
)
from .mfunc import boundary_pieces, weyl_sweep
from .model import _check_energies, _check_integer

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


def _sq_abs(values):
    # the scalar abs(z) ** 2: np.abs(arr) ** 2 can differ in the last ulp
    return np.array([abs(z) ** 2 for z in values.tolist()], dtype=float)


def _rows(mask, refusal):
    """One check per row of ``mask`` [row, energy], as ``(mask, refusal)``
    pairs for ``first_refusals``; ``refusal(row, i)`` is energy i's."""
    return [(m, partial(refusal, j)) for j, m in enumerate(mask)]


def _jost_values(spec, lams, k_lo, k_hi):
    """psi_r and psi_l on sites k_lo..k_hi (k_lo <= 0) as [side, site,
    energy], on the scale of bond k_lo, not normalized, the sites' a_k, the
    checks by name and the real energies lams as the gate gives them: the
    sweep's checks, then per kind ``"right <kind>"`` and ``"left <kind>"`` for
    ``range`` (a value past the float range on the window's one scale),
    ``psi_0`` (vanishing) and ``recursion`` (the three-term recursion residual).
    """
    lams = _check_energies(lams)
    # a failed seed sweeps on, maybe to NaN or inf: nothing here may warn for it
    with np.errstate(all="ignore"):
        psi_r, psi_l, (a, b), checks = weyl_sweep(spec, k_lo, k_hi - 1, lams)
        vals = np.array([psi_r.values(), psi_l.values()])
        psi0, scale = vals[:, -k_lo], np.abs(vals).max(axis=1)
        r = (a[1:-1, None] * vals[:, 2:] + a[:-2, None] * vals[:, :-2]
             + (b[1:-1, None] - lams) * vals[:, 1:-1])
        worst = np.abs(r).max(axis=1, initial=0.0)
        for kind, mask, refusal in (
                ("range", ~np.isfinite(scale), lambda j, i: CrossCheckFailure(
                    f"sites {k_lo}..{k_hi} pass the float range on one scale at lambda = "
                    f"{lams[i]} ({'rl'[j]} side)")),
                # + 0 prints an exact zero as 0, whatever sign the sweep gave it
                ("psi_0", np.abs(psi0) < 1e-12 * scale, lambda j, i: NormalizationPole(
                    f"psi_0 = {psi0[j, i] + 0:.3e} vanishes at lambda = "
                    f"{lams[i]} ({'rl'[j]} side)")),
                ("recursion", ~(worst <= RECURSION_TOL * scale), lambda j, i: CrossCheckFailure(
                    f"three-term recursion residual {worst[j, i]:.3e} exceeds "
                    f"{RECURSION_TOL} * {scale[j, i]:.3e}"))):
            checks.update(zip((f"right {kind}", f"left {kind}"), _rows(mask, refusal)))
    return vals, a, checks, lams


def jost_solution(spec, side, lam, k_min=None, k_max=None):
    """Decaying-branch solution, normalized to 1 at site 0, on sites
    min(k_min, 0)..max(k_max, 1); the bounds are integers or None.

    ``side='r'`` decays toward +inf, ``side='l'`` toward -inf; energies
    within the band-edge margin are refused.
    """
    if side not in ("l", "r"):
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    for k, name in ((k_min, "k_min"), (k_max, "k_max")):
        if k is not None:
            _check_integer(k, f"window bound {name}")
    k_lo, k_hi = _site_range(spec, k_min, k_max)
    j = "rl".index(side)
    vals, _, checks, _ = _jost_values(spec, [lam], k_lo, k_hi)
    name = ("right", "left")[j]
    raise_first(_named(checks, "edge", f"{name} seed", f"{name} range", f"{name} psi_0",
                       f"{name} recursion"))
    return JostSolution(side=side, lam=float(lam), k_min=k_lo, k_max=k_hi,
                        values=vals[j, :, 0] / vals[j, -k_lo, 0], spec=spec)


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

    The checks run in this order, each on every energy: the band-edge guard,
    the Floquet seeds, the window's float range, ``NormalizationPole`` at psi_0
    and the recursion residual (right, then left), Wronskian constancy,
    ``DegenerateBasis``, the expansion residual and R_r <= 1.  An energy's
    status is the refusal of the first it fails; it then reads NaN, and the
    others get the bits they get alone.
    """
    k_lo, k_hi = _site_range(spec)
    # a refused energy runs on through the later checks, where it may divide
    # by zero or overflow: its values are replaced by NaN, so nothing warns
    with np.errstate(all="ignore"):
        vals, a, checks, lams = _jost_values(spec, lams, k_lo, k_hi)
        checks = _named(checks, "edge", "right seed", "left seed", "right range", "left range",
                        "right psi_0", "left psi_0", "right recursion", "left recursion")
        psi_r, psi_l = vals / vals[:, -k_lo, None]
        psi_rbar = np.conj(psi_r)
        w, bad, spread = _wronskian_spread(
            np.array([psi_rbar, psi_l, psi_l]), np.array([psi_r, psi_r, psi_rbar]),
            a[:-1, None], -k_lo)
        checks += _rows(bad, lambda j, i: _wronskian_refusal(spread[j, i], w[j, i]))
        w_rbar_r, w_l_r, w_l_rbar = w
        checks.append((np.abs(w_rbar_r) < DEGENERATE_TOL, lambda i: DegenerateBasis(
            f"psi_right is (a multiple of) a real solution at lambda = {lams[i]}")))
        alpha, beta = w_l_r / w_rbar_r, w_l_rbar / (-w_rbar_r)
        resid = np.abs(psi_l - (alpha * psi_rbar + beta * psi_r)).max(axis=0)
        bad = resid > 1e-9 * np.maximum(1.0, np.abs(psi_l).max(axis=0))
        checks.append((bad, lambda i: CrossCheckFailure(
            f"basis expansion residual {resid[i]:.3e} at lambda = {lams[i]}")))
        r_r = _sq_abs(beta / alpha)
        checks.append((r_r > 1.0 + 1e-8, lambda i: CrossCheckFailure(
            f"reflection probability {r_r[i]} exceeds 1")))
        out = alpha, beta, np.minimum(r_r, 1.0)

    status = first_refusals(checks)
    refused = np.array([s is not None for s in status], dtype=bool)
    if refused.any():
        for x in out:
            x[refused] = np.nan
    return ReflectionGrid(lams, *out, tuple(status))


def alpha_beta(spec, lam):
    """Expansion psi_left = alpha conj(psi_right) + beta psi_right at cut 0.

    Valid where the right channel is open (psi_right genuinely complex);
    returns the reflection probability R_r = |beta/alpha|^2 as well.  The
    one-point view of ``alpha_beta_grid``: raises the energy's refusal.
    """
    grid = alpha_beta_grid(spec, [lam])
    if grid.status[0] is not None:
        raise grid.status[0]
    return ReflectionDatum(lam=float(grid.lams[0]), alpha=complex(grid.alpha[0]),
                           beta=complex(grid.beta[0]), R_r=float(grid.R_r[0]))


def spectral_reflection_mratio_grid(spec, lams):
    """Reflection probability from the m-function ratio at cut 0, vectorized.

    R_r = |a_0^2 conj(m_right(0)) m_left(1) - 1|^2
        / |a_0^2 m_right(0) m_left(1) - 1|^2   at lambda + i0,

    with m_right(0), m_left(1) and a_0 read off ``mfunc.boundary_pieces`` at
    cuts 0 and 1; the numerator is its spectral residual at cut 0.  Raises
    the cut route's band-edge, seed and G_nn pole checks, then PoleHit at a
    pole of m_right(0) or m_left(1); the other m's at those cuts are not read.
    """
    pieces = boundary_pieces(spec, [0, 1], lams)
    num = pieces.specref[0]
    pole = (np.isinf(num), lambda i: PoleHit(
        f"m_right(0) or m_left(1) has a pole at lambda = {float(np.atleast_1d(lams)[i])}"))
    raise_first(_named(pieces.checks, "edge", "right seed", "left seed", "G_nn pole") + [pole])
    m_r, m_l = pieces.m["right"][0], pieces.m["left"][1]
    return num ** 2 / np.abs(pieces.a_r[0] ** 2 * m_r * m_l - 1.0) ** 2


def spectral_reflection_mratio(spec, lam):
    """Scalar version of the m-ratio reflection probability."""
    return float(spectral_reflection_mratio_grid(spec, np.array([lam]))[0])


def green_offdiag(spec, n, m, lam):
    """G_nm(lambda + i0) = psi_l(min) psi_r(max) / W, off ``_jost_values``.

    Finite where psi_0 vanishes, so that check is not raised.  The
    orientation of the Wronskian is fixed so that the n = m case agrees with
    the diagonal value of ``scattering`` (checked in tests).
    """
    _check_integer(n, "site n")
    _check_integer(m, "site m")
    lo, hi = min(n, m), max(n, m)
    k_lo, k_hi = _site_range(spec)
    k_lo, k_hi = min(k_lo, lo - 1), max(k_hi, hi + 1)
    (psi_r, psi_l), a, checks, _ = _jost_values(spec, [lam], k_lo, k_hi)
    # raised before the Wronskian is formed: a failed sweep may hold inf or NaN
    raise_first(_named(checks, "edge", "right seed", "left seed", "right range", "left range",
                       "right recursion", "left recursion"))
    w, bad, spread = _wronskian_spread(psi_r, psi_l, a[:-1, None], 0)
    tol = DEGENERATE_TOL * np.abs(psi_r[:2]).sum(axis=0) * np.abs(psi_l[:2]).sum(axis=0)
    raise_first([(bad, lambda i: _wronskian_refusal(spread[i], w[i])),
                 (np.abs(w) < tol, lambda i: PoleHit(
                     f"Wronskian vanishes at lambda = {lam} (bound state)"))])
    return psi_l[lo - k_lo, 0] * psi_r[hi - k_lo, 0] / w[0]
