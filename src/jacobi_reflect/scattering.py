"""Diagonal Green's function and the two-channel scattering matrix.

Cutting the lattice at site ``n`` defines a left and a right channel.  Both
quantities are read off the two Weyl solutions that one ``mfunc.weyl_sweep``
call returns:

    G_nn = psi_l(n) psi_r(n) / W,   W = a_k (psi_l(k) psi_r(k+1) - psi_l(k+1) psi_r(k))

W is the same on every bond k.  G_nn is taken once from the pairs at bond n
and once from those at bond n-1, and the two are cross-checked.  On the real
axis the 2x2 scattering matrix of the cut is

    s_jk = delta_jk + 2i a_j a_k G_nn(lam+i0) sqrt(Im m_j Im m_k)

with a_l = a_{n-1}, a_r = a_n and m_j the half-line m-functions at the
cut.  A channel with vanishing boundary density is closed; its density
factor is exactly 0, so its row of s is exactly the identity, and it adds
nothing to the unitarity defect ``max|s s* - I|``.  A pole of m_j on the
real axis is a closed channel too, and G_nn stays finite there.
``boundary_pieces`` raises no refusal: it carries each point's checks, the
sweep's (band edge, right seed, left seed) and its own (a vanishing G_nn
denominator, the G_nn cross-check).

The scalar views take one energy: ``green_diag`` gives G_nn at a
``BoundaryPoint`` as a complex number (through ``mfunc._at_point``),
``channel_weight`` the pair ``(v_l, v_r)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckFailure, NoOpenChannel, NumericalError, PoleHit, raise_first
from .mfunc import POLE_TOL, _at_point, _ratios, weyl_sweep
from .model import _check_integer, coefficient_arrays

CROSS_TOL = 1e-10    # relative agreement required of G_nn from two bonds
SUPPORT_TOL = 1e-10  # Im m below this counts as a closed channel

__all__ = [
    "ScatteringMatrix",
    "green_diag",
    "green_diag_grid",
    "scattering_matrix",
    "scattering_grid",
    "reflection_transmission",
    "channel_weight",
    "unitarity_defect",
    "unitarity_defect_grid",
]


@dataclass(frozen=True)
class ScatteringMatrix:
    """2x2 scattering matrix of the cut at one real energy."""

    n: int
    lam: float
    s_ll: complex
    s_lr: complex
    s_rl: complex
    s_rr: complex
    density_l: float    # Im m_left(n; lam+i0)
    density_r: float    # Im m_right(n; lam+i0)

    @property
    def open_left(self):
        return self.density_l > 0

    @property
    def open_right(self):
        return self.density_r > 0

    def matrix(self):
        return np.array([[self.s_ll, self.s_lr], [self.s_rl, self.s_rr]])


class BoundaryPieces(NamedTuple):
    """What the criteria need at a set of cuts, as [cut, point] arrays."""

    g: np.ndarray          # G_nn, cross-checked
    density_l: np.ndarray  # Im m_left(n); 0 on a closed channel or at a pole
    density_r: np.ndarray  # Im m_right(n)
    specref: np.ndarray    # |a_n^2 m_right(n) conj(m_left(n+1)) - 1|; inf at a pole
    a_l: np.ndarray        # a_{n-1}, [cut, 1]
    a_r: np.ndarray        # a_n
    checks: list           # (mask, refusal) per check, masks over the points


def _green(a, r1, pole1, r2, pole2):
    # G_kk = psi_l(k) psi_r(k) / W = 1 / (a (r1 - r2)) in the ratios of a bond at site k;
    # 0 at a pole of a ratio (psi_l(k) or psi_r(k) is 0) and at a flagged zero denominator
    d = a * (r1 - r2)
    zero = pole1 | pole2
    bad = ~zero & (np.abs(d) <= POLE_TOL * a * (np.abs(r1) + np.abs(r2)))
    return np.divide(1.0, d, out=np.zeros(d.shape, complex), where=~(zero | bad)), bad.any(axis=0)


def boundary_pieces(spec, cuts, pts, real_limit=True):
    """G_nn, the channel data and the checks at every cut, read off one sweep."""
    for n in cuts:
        _check_integer(n, "cut site n")
    cuts = np.asarray(cuts, dtype=int)
    lo, hi = int(cuts.min()) - 1, int(cuts.max())
    bonds = np.arange(lo, hi + 1)
    right, left, checks = weyl_sweep(spec, lo, hi, pts, real_limit)
    a = coefficient_arrays(spec, lo, hi)[0][:, None]
    # ratios u_{k+1}/u_k (rho) and u_k/u_{k+1} (sigma) of both pairs on each bond
    rho_r, zero_r, sig_r, top_r = _ratios(right, bonds, a)
    rho_l, zero_l, sig_l, top_l = _ratios(left, bonds, a)
    g, pole = _green(a, rho_r, zero_r, rho_l, zero_l)
    g_prev, pole_prev = _green(a, sig_l, top_l, sig_r, top_r)
    g, g_prev = g[1:], g_prev[:-1]          # G_kk from bond k and from bond k-1
    scale = np.maximum(np.maximum(np.abs(g), np.abs(g_prev)), 1e-300)
    rel = np.max(np.abs(g - g_prev) / scale, axis=0, initial=0.0)
    checks += [(pole | pole_prev, lambda j: PoleHit("G_nn denominator vanishes (eigenvalue hit)")),
               (rel > CROSS_TOL, lambda j: CrossCheckFailure(
                   f"G_nn from the Wronskians at bonds n-1 and n disagrees by "
                   f"{rel[j]:.3e} (> {CROSS_TOL})"))]
    i = cuts - lo                           # row of bond n
    m_r, pole_r = -rho_r[i] / a[i], zero_r[i]
    m_l, pole_l = -sig_l[i - 1] / a[i - 1], top_l[i - 1]
    m_l_next, pole_next = -sig_l[i] / a[i], top_l[i]
    specref = np.where(pole_r | pole_next, np.inf,
                       np.abs(a[i] * a[i] * m_r * np.conj(m_l_next) - 1.0))
    # a closed channel, or a pole of m, has no density
    dens_l, dens_r = (np.where(~pole & (m.imag > SUPPORT_TOL), m.imag, 0.0)
                      for m, pole in ((m_l, pole_l), (m_r, pole_r)))
    return BoundaryPieces(g[i - 1], dens_l, dens_r, specref, a[i - 1], a[i], checks)


def green_diag_grid(spec, n, pts, real_limit=True):
    """Validated G_nn values over a grid of points."""
    pieces = boundary_pieces(spec, [n], pts, real_limit)
    raise_first(pieces.checks)
    return pieces.g[0]


def green_diag(spec, n, point):
    """G_nn at a BoundaryPoint as a complex number, cross-checked across two
    bonds; '-' side values are conjugated."""
    v = _at_point(lambda pts, real: green_diag_grid(spec, n, pts, real), point)
    if not point.is_real_limit and v.imag <= 0:
        raise NumericalError(f"G_nn at an interior point must have Im > 0, got {v.imag:.3e}")
    return v


def _s_entries(pieces):
    # s-matrix entries per [cut, point], from an existing boundary_pieces pass
    im_l, im_r = pieces.density_l, pieces.density_r
    a_l, a_r, g = pieces.a_l, pieces.a_r, pieces.g
    s_ll = 1.0 + 2j * a_l * a_l * g * im_l
    s_rr = 1.0 + 2j * a_r * a_r * g * im_r
    s_lr = 2j * a_l * a_r * g * np.sqrt(im_l * im_r)
    return {
        "s_ll": s_ll,
        "s_lr": s_lr,
        "s_rr": s_rr,
        "density_l": im_l,
        "density_r": im_r,
        "g": g,
    }


def scattering_grid(spec, n, lams):
    """Vectorized scattering entries over a real grid.

    Returns a dict with s_ll, s_lr, s_rr, density_l, density_r, g arrays;
    s_rl equals s_lr identically.  Closed channels come out as identity
    rows automatically (the density factor is exactly zero there).
    """
    pieces = boundary_pieces(spec, [n], lams)
    raise_first(pieces.checks)
    return {k: v[0] for k, v in _s_entries(pieces).items()}


def scattering_matrix(spec, n, lam):
    """Scalar scattering matrix at one energy; both channels closed raises."""
    res = scattering_grid(spec, n, np.array([float(lam)]))
    d_l, d_r = float(res["density_l"][0]), float(res["density_r"][0])
    if d_l == 0.0 and d_r == 0.0:
        raise NoOpenChannel(f"both channels closed at lambda = {lam}")
    s_lr = complex(res["s_lr"][0])
    return ScatteringMatrix(
        n=n,
        lam=float(lam),
        s_ll=complex(res["s_ll"][0]),
        s_lr=s_lr,
        s_rl=s_lr,
        s_rr=complex(res["s_rr"][0]),
        density_l=d_l,
        density_r=d_r,
    )


def reflection_transmission(s):
    """Reflection/transmission probabilities of a ScatteringMatrix."""
    return {
        "R_l": abs(s.s_ll) ** 2,
        "R_r": abs(s.s_rr) ** 2,
        "T": abs(s.s_lr) ** 2,
    }


def channel_weight(spec, n, lam):
    """``(v_l, v_r)``: square roots of the boundary a.c. densities Im m / pi."""
    res = scattering_grid(spec, n, np.array([float(lam)]))
    return (float(np.sqrt(res["density_l"][0] / np.pi)),
            float(np.sqrt(res["density_r"][0] / np.pi)))


def _defect_entries(s_ll, s_lr, s_rr):
    # max |s s* - I| entrywise; a closed channel's row of s is the identity
    d11 = np.abs(s_ll) ** 2 + np.abs(s_lr) ** 2 - 1.0
    d22 = np.abs(s_lr) ** 2 + np.abs(s_rr) ** 2 - 1.0
    d12 = s_ll * np.conj(s_lr) + s_lr * np.conj(s_rr)
    return np.maximum(np.maximum(np.abs(d11), np.abs(d22)), np.abs(d12))


def unitarity_defect(s):
    """Max-norm of s s* - I for a ScatteringMatrix; the identity row of a
    closed channel adds nothing."""
    return float(_defect_entries(*np.array([s.s_ll, s.s_lr, s.s_rr], dtype=complex)))


def unitarity_defect_grid(res):
    """Vectorized unitarity defect from a scattering_grid result dict."""
    return _defect_entries(res["s_ll"], res["s_lr"], res["s_rr"])
