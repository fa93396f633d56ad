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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CrossCheckFailure,
    DegenerateBasis,
    NormalizationPole,
    PoleHit,
)
from .mfunc import POLE_TOL, weyl_sweep
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


def _site_range(spec, k_min=None, k_max=None):
    # the output range covers site 0 and one bond, by default the
    # perturbation too
    w = spec.window
    k_lo = min(k_min if k_min is not None else min(-3, (w[0] - 2) if w else -3), 0)
    k_hi = max(k_max if k_max is not None else max(3, (w[1] + 2) if w else 3), 1)
    return k_lo, k_hi


def _jost_values(spec, lams, k_lo, k_hi, sides, coeffs):
    """Weyl solutions ``sides`` ('r', 'l') on sites k_lo..k_hi, 1 at site 0,
    as [side, site, energy]; ``coeffs`` are the sites' coefficient arrays."""
    vals = np.array([weyl_sweep(spec, "right" if side == "r" else "left", k_lo,
                                k_hi - 1, lams, guard=not i).values(k_lo, k_hi)
                     for i, side in enumerate(sides)])
    psi0 = vals[:, -k_lo]
    bad = np.abs(psi0) < 1e-12 * np.abs(vals).max(axis=1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        # + 0 prints an exact zero as 0, whatever sign the sweep gave it
        raise NormalizationPole(f"psi_0 = {psi0[i, j] + 0:.3e} vanishes at lambda = {lams[j]} "
                                f"({sides[i]} side)")
    vals = vals / psi0[:, None]
    a, b = coeffs
    r = (a[1:-1, None] * vals[:, 2:] + a[:-2, None] * vals[:, :-2]
         + (b[1:-1, None] - lams) * vals[:, 1:-1])
    worst = np.abs(r).max(axis=1, initial=0.0)
    scale = np.abs(vals).max(axis=1)
    bad = worst > RECURSION_TOL * scale
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise CrossCheckFailure(f"three-term recursion residual {worst[i, j]:.3e} exceeds "
                                f"{RECURSION_TOL} * {scale[i, j]:.3e}")
    return vals


def jost_solution(spec, side, lam, k_min=None, k_max=None):
    """Decaying-branch solution, normalized to 1 at site 0.

    ``side='r'`` decays toward +inf, ``side='l'`` toward -inf; energies
    within the band-edge margin are refused.
    """
    if side not in ("l", "r"):
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    k_lo, k_hi = _site_range(spec, k_min, k_max)
    vals = _jost_values(spec, np.array([float(lam)]), k_lo, k_hi, side,
                        coefficient_arrays(spec, k_lo, k_hi))[0, :, 0]
    return JostSolution(side=side, lam=float(lam), k_min=k_lo, k_max=k_hi,
                        values=vals, spec=spec)


def wronskian(u, v, k):
    """a_k (u_{k+1} v_k - u_k v_{k+1}); k-independent for equal energies."""
    return u.spec.a(k) * (u.value(k + 1) * v.value(k) - u.value(k) * v.value(k + 1))


def _wronskian_checked(u, v, bonds, i0):
    """Wronskian of [..., site, energy] arrays at bond i0, checked constant."""
    ws = bonds * (u[..., 1:, :] * v[..., :-1, :] - u[..., :-1, :] * v[..., 1:, :])
    w0 = ws[..., i0, :]
    spread = np.abs(ws - w0[..., None, :]).max(axis=-2)
    # scale by the solutions, not |W|: W = 0 is a legitimate value
    scale = np.maximum(np.abs(u).max(axis=-2) * np.abs(v).max(axis=-2), 1e-30)
    bad = spread > WRONSKIAN_TOL * scale * 1e2
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise CrossCheckFailure(f"Wronskian varies by {spread[at]:.3e} across the window "
                                f"(|W| = {abs(w0[at]):.3e})")
    return w0


def _alpha_beta_grid(spec, lams):
    """alpha, beta and R_r arrays; raises the first refusal on the grid."""
    k_lo, k_hi = _site_range(spec)
    coeffs = coefficient_arrays(spec, k_lo, k_hi)
    psi_r, psi_l = _jost_values(spec, lams, k_lo, k_hi, "rl", coeffs)
    psi_rbar = np.conj(psi_r)
    w_rbar_r, w_l_r, w_l_rbar = _wronskian_checked(
        np.array([psi_rbar, psi_l, psi_l]), np.array([psi_r, psi_r, psi_rbar]),
        coeffs[0][:-1, None], -k_lo)
    bad = np.abs(w_rbar_r) < DEGENERATE_TOL
    if bad.any():
        raise DegenerateBasis(f"psi_right is (a multiple of) a real solution at "
                              f"lambda = {lams[np.argmax(bad)]}")
    alpha = w_l_r / w_rbar_r
    beta = w_l_rbar / (-w_rbar_r)

    resid = np.abs(psi_l - (alpha * psi_rbar + beta * psi_r)).max(axis=0)
    bad = resid > 1e-9 * np.maximum(1.0, np.abs(psi_l).max(axis=0))
    if bad.any():
        j = np.argmax(bad)
        raise CrossCheckFailure(f"basis expansion residual {resid[j]:.3e} at lambda = {lams[j]}")
    # the scalar abs(z) ** 2: np.abs(arr) ** 2 can differ in the last ulp
    r_r = np.array([abs(x) ** 2 for x in (beta / alpha).tolist()])
    if np.any(r_r > 1.0 + 1e-8):
        raise CrossCheckFailure(f"reflection probability {r_r.max()} exceeds 1")
    return alpha, beta, np.minimum(r_r, 1.0)


def alpha_beta(spec, lam):
    """Expansion psi_left = alpha conj(psi_right) + beta psi_right at cut 0.

    Valid where the right channel is open (psi_right genuinely complex);
    returns the reflection probability R_r = |beta/alpha|^2 as well.
    """
    alpha, beta, r_r = _alpha_beta_grid(spec, np.array([float(lam)]))
    return ReflectionDatum(lam=lam, alpha=complex(alpha[0]), beta=complex(beta[0]),
                           R_r=float(r_r[0]))


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
    w = _wronskian_checked(psi_r, psi_l, bonds, 0)[0]
    if abs(w) < DEGENERATE_TOL * np.abs(psi_r[:2]).sum() * np.abs(psi_l[:2]).sum():
        raise PoleHit(f"Wronskian vanishes at lambda = {lam} (bound state)")
    return psi_l[lo - k_lo, 0] * psi_r[hi - k_lo, 0] / w
