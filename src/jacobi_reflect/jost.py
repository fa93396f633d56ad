"""Generalized eigenfunctions decaying at one infinity, and what they buy.

For real in-band energies the solution space of

    a_k psi_{k+1} + a_{k-1} psi_{k-1} + b_k psi_k = lambda psi_k

is spanned by the boundary values of the two Weyl solutions: psi_right
(limit of the solution square-summable at +inf) and psi_left (at -inf).
Both are normalized to psi_0 = 1.  Expanding psi_left over the right pair
(conj(psi_right), psi_right) gives the coefficients alpha, beta and the
right reflection probability |beta/alpha|^2, which must agree with the
scattering-matrix route and with the m-function ratio route.

Tails are seeded by the tail m-functions, which are ratios of these same
Weyl solutions: ``psi_{K+1} / psi_K = -a_K m_right(K)`` beyond the window
on the right and ``psi_K / psi_{K+1} = -a_K m_left(K+1)`` on the left.  The
branch is therefore the Herglotz branch of ``mfunc``, with no probe of its
own.  The three-term recursion then carries each seed across one shared
coefficient window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .bands import band_intervals, guard_edges
from .errors import (
    CrossCheckFailure,
    DegenerateBasis,
    NormalizationPole,
    PoleHit,
)
from .mfunc import POLE_TOL, _m_grid, strip_once, tail_m
from .model import coefficient_arrays

RECURSION_TOL = 1e-10   # residual of the three-term recursion, relative
WRONSKIAN_TOL = 1e-12   # constancy of the Wronskian, relative
DEGENERATE_TOL = 1e-12  # |W(conj(psi_r), psi_r)| below this is degenerate

__all__ = [
    "JostSolution",
    "ReflectionDatum",
    "jost_solution",
    "wronskian",
    "alpha_beta",
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


class _Window(NamedTuple):
    """Output range, seed sites and the coefficients on [k_left, k_right + 1]."""

    k_lo: int
    k_hi: int
    k_left: int
    k_right: int
    a: np.ndarray
    b: np.ndarray


def _window(spec, k_min=None, k_max=None):
    # the output range covers site 0 and one bond, by default the
    # perturbation too; each seed site has only background beyond it,
    # bond a_K included
    w = spec.window
    k_lo = min(k_min if k_min is not None else min(-3, (w[0] - 2) if w else -3), 0)
    k_hi = max(k_max if k_max is not None else max(3, (w[1] + 2) if w else 3), 1)
    k_left = min(k_lo, w[0]) - 1 if w else k_lo - 1
    k_right = max(k_hi, w[1] + 1) if w else k_hi
    a, b = coefficient_arrays(spec, k_left, k_right + 1)
    return _Window(k_lo, k_hi, k_left, k_right, a, b)


def _solve(spec, side, lam, win):
    """Decaying solution on [win.k_lo, win.k_hi], normalized to 1 at site 0."""
    a, b, k0 = win.a, win.b, win.k_left
    bg = spec.background
    if side == "r":
        K = win.k_right
        m = tail_m(bg, K, [lam], "right", real_limit=True, guard=False)[0]
        vals = [-a[K - k0] * m, 1.0]        # psi_{K+1}, psi_K, then downward
        for i in range(K - k0, win.k_lo - k0, -1):
            vals.append(((lam - b[i]) * vals[-1] - a[i] * vals[-2]) / a[i - 1])
        vals.reverse()
        lo = win.k_lo
    else:
        K = win.k_left
        m = tail_m(bg, K + 1, [lam], "left", real_limit=True, guard=False)[0]
        vals = [-a[K - k0] * m, 1.0]        # psi_K, psi_{K+1}, then upward
        for i in range(K + 1 - k0, win.k_hi - k0):
            vals.append(((lam - b[i]) * vals[-1] - a[i - 1] * vals[-2]) / a[i])
        lo = K
    vals = np.array(vals, dtype=complex)

    scale = np.abs(vals).max()
    psi0 = vals[-lo]
    if abs(psi0) < 1e-12 * scale:
        raise NormalizationPole(
            f"psi_0 = {psi0:.3e} vanishes at lambda = {lam} ({side} side)"
        )
    vals = vals / psi0
    _check_recursion(vals, lo, lam, win)
    return JostSolution(side=side, lam=lam, k_min=win.k_lo, k_max=win.k_hi,
                        values=vals[win.k_lo - lo: win.k_hi - lo + 1], spec=spec)


def _check_recursion(vals, lo, lam, win):
    i = lo - win.k_left
    a = win.a[i: i + vals.size]
    b = win.b[i: i + vals.size]
    r = a[1:-1] * vals[2:] + a[:-2] * vals[:-2] + (b[1:-1] - lam) * vals[1:-1]
    worst = np.abs(r).max(initial=0.0)
    scale = np.abs(vals).max()
    if worst > RECURSION_TOL * scale:
        raise CrossCheckFailure(
            f"three-term recursion residual {worst:.3e} exceeds "
            f"{RECURSION_TOL} * {scale:.3e}"
        )


def jost_solution(spec, side, lam, k_min=None, k_max=None):
    """Decaying-branch solution, normalized to 1 at site 0.

    ``side='r'`` decays toward +inf, ``side='l'`` toward -inf; energies
    within the band-edge margin are refused.
    """
    if side not in ("l", "r"):
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    lam = float(lam)
    guard_edges(band_intervals(spec.background), lam)
    return _solve(spec, side, lam, _window(spec, k_min, k_max))


def _jost_pair(spec, lam, k_min=None, k_max=None):
    """psi_right, psi_left on one range and the bonds a_k between its sites."""
    lam = float(lam)
    guard_edges(band_intervals(spec.background), lam)
    win = _window(spec, k_min, k_max)
    bonds = win.a[win.k_lo - win.k_left: win.k_hi - win.k_left]
    return _solve(spec, "r", lam, win), _solve(spec, "l", lam, win), bonds


def wronskian(u, v, k):
    """a_k (u_{k+1} v_k - u_k v_{k+1}); k-independent for equal energies."""
    a_k = u.spec.a(k)
    return a_k * (u.value(k + 1) * v.value(k) - u.value(k) * v.value(k + 1))


def _wronskian_checked(u, v, bonds):
    """Wronskian at site 0 plus a constancy check over the shared window."""
    ws = bonds * (u.values[1:] * v.values[:-1] - u.values[:-1] * v.values[1:])
    w0 = ws[-u.k_min]
    spread = np.abs(ws - w0).max()
    # scale by the solutions, not |W|: W = 0 is a legitimate value
    scale = max(np.abs(u.values).max() * np.abs(v.values).max(), 1e-30)
    if spread > WRONSKIAN_TOL * scale * 1e2:
        raise CrossCheckFailure(
            f"Wronskian varies by {spread:.3e} across the window (|W| = {abs(w0):.3e})"
        )
    return w0


def alpha_beta(spec, lam):
    """Expansion psi_left = alpha conj(psi_right) + beta psi_right at cut 0.

    Valid where the right channel is open (psi_right genuinely complex);
    returns the reflection probability R_r = |beta/alpha|^2 as well.
    """
    psi_r, psi_l, bonds = _jost_pair(spec, lam)
    psi_rbar = replace(psi_r, values=np.conj(psi_r.values))

    w_rbar_r = _wronskian_checked(psi_rbar, psi_r, bonds)
    if abs(w_rbar_r) < DEGENERATE_TOL:
        raise DegenerateBasis(
            f"psi_right is (a multiple of) a real solution at lambda = {lam}"
        )
    alpha = _wronskian_checked(psi_l, psi_r, bonds) / w_rbar_r
    beta = _wronskian_checked(psi_l, psi_rbar, bonds) / (-w_rbar_r)

    recon = alpha * psi_rbar.values + beta * psi_r.values
    resid = np.abs(psi_l.values - recon).max()
    if resid > 1e-9 * max(1.0, np.abs(psi_l.values).max()):
        raise CrossCheckFailure(f"basis expansion residual {resid:.3e} at lambda = {lam}")

    r_r = abs(beta / alpha) ** 2
    if r_r > 1.0 + 1e-8:
        raise CrossCheckFailure(f"reflection probability {r_r} exceeds 1")
    return ReflectionDatum(lam=lam, alpha=complex(alpha), beta=complex(beta),
                           R_r=min(float(r_r), 1.0))


def spectral_reflection_mratio_grid(spec, lams):
    """Reflection probability from the m-function ratio at cut 0, vectorized.

    R_r = |a_0^2 conj(m_right(0)) m_left(1) - 1|^2
        / |a_0^2 m_right(0) m_left(1) - 1|^2   at lambda + i0.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    m_r = _m_grid(spec, 0, lams, "right", True)
    m_l1 = strip_once(_m_grid(spec, 0, lams, "left", True),
                      spec.a(-1), spec.b(0), lams)
    a0sq = spec.a(0) ** 2
    num = a0sq * np.conj(m_r) * m_l1 - 1.0
    den = a0sq * m_r * m_l1 - 1.0
    if np.any(np.abs(den) < POLE_TOL):
        raise PoleHit("m-ratio denominator vanishes")
    return np.abs(num / den) ** 2


def spectral_reflection_mratio(spec, lam):
    """Scalar version of the m-ratio reflection probability."""
    return float(spectral_reflection_mratio_grid(spec, np.array([lam]))[0])


def green_offdiag(spec, n, m, lam):
    """G_nm(lambda + i0) from the product of the two decaying solutions.

    The orientation of the Wronskian is fixed so that the n = m case
    agrees with the continued-fraction diagonal value (checked in tests).
    """
    k_lo = min(n, m, (spec.window[0] - 2) if spec.window else -1) - 1
    k_hi = max(n, m, (spec.window[1] + 2) if spec.window else 1) + 1
    psi_r, psi_l, bonds = _jost_pair(spec, lam, k_lo, k_hi)
    w = _wronskian_checked(psi_r, psi_l, bonds)
    if abs(w) < DEGENERATE_TOL:
        raise PoleHit(f"Wronskian vanishes at lambda = {lam} (bound state)")
    return psi_l.value(min(n, m)) * psi_r.value(max(n, m)) / w
