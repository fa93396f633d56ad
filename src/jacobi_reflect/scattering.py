"""Diagonal Green's function and the two-channel scattering matrix.

Cutting the lattice at site ``n`` defines a left and a right channel.  Both
quantities are read off the cut route ``mfunc.boundary_pieces``, which owns
G_nn, its cross-check and the channel densities.  On the real axis the 2x2
scattering matrix of the cut is

    s_jk = delta_jk + 2i a_j a_k G_nn(lam+i0) sqrt(Im m_j Im m_k)

with a_l = a_{n-1}, a_r = a_n and m_j the half-line m-functions at the
cut.  A channel with vanishing boundary density is closed; its density
factor is exactly 0, so its row of s is exactly the identity, and it adds
nothing to the unitarity defect ``max|s s* - I|``.  A pole of m_j on the
real axis is a closed channel too, and G_nn stays finite there.  The grid
routes raise the cut route's checks named in ``mfunc._G_CHECKS``: the
sweep's ``"edge"``, ``"right seed"`` and ``"left seed"``, then G_nn's
``"G_nn pole"`` (a vanishing denominator) and ``"G_nn cross"``.

The scalar views take one energy, through the grid routes' gate on real
energies: ``green_diag`` gives G_nn at a ``BoundaryPoint`` as a complex
number (through ``mfunc._at_point``), ``scattering_matrix`` the s-matrix
and ``channel_weight`` the pair ``(v_l, v_r)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoOpenChannel, NumericalError, _named, raise_first
from .mfunc import _G_CHECKS, _at_point, boundary_pieces

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


def green_diag_grid(spec, n, pts, real_limit=True):
    """Validated G_nn values over a grid of points."""
    pieces = boundary_pieces(spec, [n], pts, real_limit)
    raise_first(_named(pieces.checks, *_G_CHECKS))
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
    raise_first(_named(pieces.checks, *_G_CHECKS))
    return {k: v[0] for k, v in _s_entries(pieces).items()}


def scattering_matrix(spec, n, lam):
    """Scalar scattering matrix at one energy; both channels closed raises."""
    res = scattering_grid(spec, n, [lam])
    d_l, d_r = float(res["density_l"][0]), float(res["density_r"][0])
    if d_l == 0.0 and d_r == 0.0:
        raise NoOpenChannel(f"both channels closed at lambda = {float(lam)}")
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
    res = scattering_grid(spec, n, [lam])
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
