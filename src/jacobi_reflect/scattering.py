"""Diagonal Green's function and the two-channel scattering matrix.

Cutting the lattice at site ``n`` defines a left and a right channel.  The
diagonal Green's function has two equivalent continued-fraction forms,

    G_nn = -1 / (a_n^2 m_right(n) - 1/m_left(n+1))
         = -1 / (a_{n-1}^2 m_left(n) - 1/m_right(n-1))

both are always computed and cross-checked.  On the real axis the 2x2
scattering matrix of the cut is

    s_jk = delta_jk + 2i a_j a_k G_nn(lam+i0) sqrt(Im m_j Im m_k)

with a_l = a_{n-1}, a_r = a_n and m_j the half-line m-functions at the
cut.  A channel with vanishing boundary density is closed; the formula
then degenerates to the identity on that channel by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckFailure, NoOpenChannel, NumericalError, PoleHit
from .mfunc import POLE_TOL, _m_grid, strip_once
from .model import BoundaryPoint

CROSS_TOL = 1e-10    # relative agreement required of the two G_nn forms
SUPPORT_TOL = 1e-10  # Im m below this counts as a closed channel

__all__ = [
    "GreenDiag",
    "ScatteringMatrix",
    "ChannelWeight",
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
class GreenDiag:
    """Diagonal resolvent entry at one site and evaluation point."""

    value: complex
    n: int
    point: BoundaryPoint


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


@dataclass(frozen=True)
class ChannelWeight:
    """Square roots of the two boundary a.c. densities (Im m / pi)."""

    lam: float
    v_l: float
    v_r: float


class BoundaryPieces(NamedTuple):
    """Everything the criteria need from one m-evaluation pass at cut n."""

    m_r: np.ndarray        # m_right(n)
    m_l: np.ndarray        # m_left(n)
    m_l_next: np.ndarray   # m_left(n+1)
    m_r_prev: np.ndarray   # m_right(n-1)
    g: np.ndarray          # G_nn, cross-checked
    a_l: float             # a_{n-1}
    a_r: float             # a_n


def boundary_pieces(spec, n, pts, real_limit=True, guard=True):
    """Compute the m-functions at a cut and the validated G_nn in one pass."""
    pts = np.atleast_1d(np.asarray(pts, dtype=float if real_limit else complex))
    m_r = _m_grid(spec, n, pts, "right", real_limit, guard)
    m_l = _m_grid(spec, n, pts, "left", real_limit, guard)
    a_l, a_r = spec.a(n - 1), spec.a(n)
    b_n = spec.b(n)
    m_l_next = strip_once(m_l, a_l, b_n, pts)
    m_r_prev = strip_once(m_r, a_r, b_n, pts)

    with np.errstate(divide="ignore", invalid="ignore"):
        den1 = a_r * a_r * m_r - 1.0 / m_l_next
        den2 = a_l * a_l * m_l - 1.0 / m_r_prev
    if np.any(np.abs(den1) < POLE_TOL) or np.any(np.abs(den2) < POLE_TOL):
        raise PoleHit("G_nn denominator vanishes (eigenvalue hit)")
    g1 = -1.0 / den1
    g2 = -1.0 / den2
    scale = np.maximum(np.maximum(np.abs(g1), np.abs(g2)), 1e-300)
    rel = np.max(np.abs(g1 - g2) / scale, initial=0.0)
    if rel > CROSS_TOL:
        raise CrossCheckFailure(
            f"G_nn continued-fraction forms disagree by {rel:.3e} (> {CROSS_TOL})"
        )
    return BoundaryPieces(m_r, m_l, m_l_next, m_r_prev, g1, a_l, a_r)


def green_diag_grid(spec, n, pts, real_limit=True):
    """Validated G_nn values over a grid of points."""
    return boundary_pieces(spec, n, pts, real_limit).g


def green_diag(spec, n, point):
    """Scalar G_nn at a BoundaryPoint, cross-checked across both forms."""
    if point.is_real_limit:
        v = boundary_pieces(spec, n, [point.lam], True).g[0]
        if point.side == "-":
            v = np.conj(v)
    else:
        v = boundary_pieces(spec, n, [point.z], False).g[0]
        if v.imag <= 0:
            raise NumericalError(
                f"G_nn at an interior point must have Im > 0, got {v.imag:.3e}"
            )
    return GreenDiag(value=complex(v), n=n, point=point)


def _clamped_densities(pieces):
    im_l = np.where(pieces.m_l.imag > SUPPORT_TOL, pieces.m_l.imag, 0.0)
    im_r = np.where(pieces.m_r.imag > SUPPORT_TOL, pieces.m_r.imag, 0.0)
    return im_l, im_r


def _s_entries(pieces):
    # scattering_grid's dict, from an existing boundary_pieces pass
    im_l, im_r = _clamped_densities(pieces)
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


def scattering_grid(spec, n, lams, guard=True):
    """Vectorized scattering entries over a real grid.

    Returns a dict with s_ll, s_lr, s_rr, density_l, density_r, g arrays;
    s_rl equals s_lr identically.  Closed channels come out as identity
    rows automatically (the density factor is exactly zero there).
    """
    return _s_entries(boundary_pieces(spec, n, lams, real_limit=True, guard=guard))


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
    """Square roots of the boundary a.c. densities Im m / pi."""
    pieces = boundary_pieces(spec, n, np.array([float(lam)]), real_limit=True)
    im_l, im_r = _clamped_densities(pieces)
    return ChannelWeight(
        lam=float(lam),
        v_l=float(np.sqrt(im_l[0] / np.pi)),
        v_r=float(np.sqrt(im_r[0] / np.pi)),
    )


def _defect_entries(s_ll, s_lr, s_rr, open_l, open_r):
    # s s* - I entrywise, with closed channels excluded from the norm
    d11 = np.abs(s_ll) ** 2 + np.abs(s_lr) ** 2 - 1.0
    d22 = np.abs(s_lr) ** 2 + np.abs(s_rr) ** 2 - 1.0
    d12 = s_ll * np.conj(s_lr) + s_lr * np.conj(s_rr)
    out = np.zeros(np.shape(s_ll))
    both = open_l & open_r
    only_l = open_l & ~open_r
    only_r = open_r & ~open_l
    full = np.maximum(np.maximum(np.abs(d11), np.abs(d22)), np.abs(d12))
    out = np.where(both, full, out)
    out = np.where(only_l, np.abs(np.abs(s_ll) ** 2 - 1.0), out)
    out = np.where(only_r, np.abs(np.abs(s_rr) ** 2 - 1.0), out)
    return out


def unitarity_defect(s):
    """Max-norm of s s* - I restricted to the open channels."""
    return float(
        _defect_entries(
            np.complex128(s.s_ll),
            np.complex128(s.s_lr),
            np.complex128(s.s_rr),
            np.bool_(s.open_left),
            np.bool_(s.open_right),
        )
    )


def unitarity_defect_grid(res):
    """Vectorized unitarity defect from a scattering_grid result dict."""
    return _defect_entries(
        res["s_ll"], res["s_lr"], res["s_rr"],
        res["density_l"] > 0, res["density_r"] > 0,
    )
