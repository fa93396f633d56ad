"""Weyl m-functions of the two half-line restrictions at a cut site.

Cutting the lattice at site ``n`` leaves a left operator on ``(-inf, n-1]``
and a right operator on ``[n+1, inf)``.  Their m-functions are the corner
resolvent entries at the boundary sites:

    m_right(n; z) = <delta_{n+1}, (J_right - z)^-1 delta_{n+1}>
    m_left(n; z)  = <delta_{n-1}, (J_left  - z)^-1 delta_{n-1}>

Both obey the stripping recursion ``m -> 1/(b - z - a^2 m)`` toward the
cut.  In the periodic tail m is the ratio of a Floquet solution, so it
solves a quadratic read off the background's one-period transfer product
(``bands.transfer_product``).  Real-axis values are boundary limits from
the upper half plane.  In a band the two roots are complex conjugates and
the Herglotz one (Im m > 0) is taken directly.  In a gap both roots are
real; the one continued from the upper half plane is picked by comparing
with the interior root at ``lambda + i * PROBE_IM``, the only probe in the
package.  Values at ``lambda - i0`` are conjugates of the ``+`` side ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .bands import _period_product, band_intervals, guard_edges
from .errors import NumericalError, PoleHit
from .model import BoundaryPoint

PROBE_IM = 1e-8      # gap-branch selection offset into the upper half plane
POLE_TOL = 1e-14     # absolute threshold on stripping denominators
HUGE = 1e12          # |m| beyond this counts as a pole of the tail

__all__ = [
    "HerglotzValue",
    "strip_once",
    "tail_m",
    "m_right_grid",
    "m_left_grid",
    "m_right_boundary",
    "m_left_boundary",
    "m_right",
    "m_left",
    "ac_density",
    "m_oracle_truncated",
]


@dataclass(frozen=True)
class HerglotzValue:
    """Value of a Herglotz function at one evaluation point."""

    value: complex
    point: BoundaryPoint

    @property
    def real(self):
        return self.value.real

    @property
    def imag(self):
        return self.value.imag


def strip_once(m, a, b, z):
    """One stripping step ``1 / (b - z - a^2 m)``, guarding exact poles."""
    den = b - z - (a * a) * m
    small = np.abs(den) < POLE_TOL
    if np.any(small):
        raise PoleHit(f"stripping denominator {np.min(np.abs(den)):.3e} below {POLE_TOL}")
    return 1.0 / den


def _tail_quadratic(background, cut, z, side):
    """Coefficients ``(B, C, t)`` of the tail fixed point C m^2 + t m - B = 0.

    The Weyl solution u of the tail is a Floquet solution of the background,
    and m is its ratio: ``m_right(c) = -u_{c+1} / (a_c u_c)`` and
    ``m_left(c) = -u_{c-1} / (a_{c-1} u_c)``.  Asking that the ratio come
    back after one period turns the eigenvector equation of the one-period
    product M into a quadratic in m.  The right tail takes M over sites
    c+1 .. c+p with a = a_c, the left tail over c .. c+p-1 with a = a_{c-1}.
    """
    z = np.asarray(z)
    if side == "right":
        m11, m12, m21, m22 = _period_product(background, cut + 1, z)
        a = background.value_at(cut)[0]
        C, B = a * a * m21, m12
    else:
        m11, m12, m21, m22 = _period_product(background, cut, z)
        a = background.value_at(cut - 1)[0]
        C, B = -a * a * m12, -m21
    return np.broadcast_arrays(B, C, a * (m11 - m22))


def _herglotz_root(B, C, t):
    """Upper-half-plane root of C m^2 + t m - B = 0, elementwise."""
    disc = t * t + 4.0 * B * C
    sq = np.sqrt(disc.astype(complex))
    # complex-stable quadratic: pick the larger-magnitude numerator for q
    flip = np.real(np.conj(t) * sq) < 0
    sq = np.where(flip, -sq, sq)
    q = -0.5 * (t + sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(C != 0, q / np.where(C != 0, C, 1.0), np.inf)
        r2 = np.where(q != 0, -B / np.where(q != 0, q, 1.0), np.inf)
    up1 = np.isfinite(r1) & (r1.imag > 0)
    up2 = np.isfinite(r2) & (r2.imag > 0)
    if np.any(up1 & up2):
        raise NumericalError("tail fixed point: both roots in the upper half plane")
    if not np.all(up1 | up2):
        raise NumericalError("tail fixed point: no upper-half-plane root")
    return np.where(up1, r1, r2)


def _tail_upper(background, cut, z, side):
    return _herglotz_root(*_tail_quadratic(background, cut, z, side))


def _tail_boundary(background, cut, lams, side):
    """Boundary values of the tail m on the real axis (edges pre-guarded)."""
    B, C, t = _tail_quadratic(background, cut, lams, side)
    disc = t * t + 4.0 * B * C
    m = np.empty(lams.shape, dtype=complex)

    inband = disc < 0
    if inband.any():
        # conjugate root pair; Im m = +sqrt(-disc) / (2|C|) picks Herglotz side
        s = np.sign(C[inband])
        m[inband] = (-t[inband] + 1j * s * np.sqrt(-disc[inband])) / (2.0 * C[inband])

    gap = ~inband
    if gap.any():
        sq = np.sqrt(disc[gap])
        tg = t[gap]
        q = -0.5 * (tg + np.where(tg >= 0, sq, -sq))
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(C[gap] != 0, q / np.where(C[gap] != 0, C[gap], 1.0), np.inf)
            r2 = np.where(q != 0, -B[gap] / np.where(q != 0, q, 1.0), np.inf)
        probe = _tail_upper(background, cut, lams[gap] + 1j * PROBE_IM, side)
        take1 = np.abs(r1 - probe) <= np.abs(r2 - probe)
        chosen = np.where(take1, r1, r2)
        if not np.all(np.isfinite(chosen) & (np.abs(chosen) < HUGE)):
            raise PoleHit("tail m has a pole at a requested gap energy")
        m[gap] = chosen
    return m


def tail_m(background, cut, pts, side="right", real_limit=False, guard=True):
    """m-function of the pure background tail at ``cut``.

    ``side="right"`` gives the half-line ``[cut+1, inf)`` value, ``"left"``
    the ``(-inf, cut-1]`` one.  ``pts`` is an array: real energies when
    ``real_limit`` (interpreted as ``lambda + i0``), otherwise upper-half-
    plane points.  ``guard=False`` skips the band-edge margin check; only
    integration routines whose weights vanish at the edges should use it.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if real_limit:
        lams = np.asarray(pts, dtype=float)
        if guard:
            guard_edges(band_intervals(background), lams)
        return _tail_boundary(background, cut, lams, side)
    z = np.asarray(pts, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("interior evaluation needs Im z > 0")
    return _tail_upper(background, cut, z, side)


def _strip_to_cut(spec, n, start, m, z, side):
    if side == "right":
        # m at start, walk the boundary site down to n using site data
        for s in range(start, n, -1):
            m = strip_once(m, spec.a(s), spec.b(s), z)
    else:
        for j in range(start + 1, n + 1):
            m = strip_once(m, spec.a(j - 2), spec.b(j - 1), z)
    return m


def _start_site(spec, n, side):
    w = spec.window
    if w is None:
        return n
    return max(n, w[1]) if side == "right" else min(n, w[0])


def _m_grid(spec, n, pts, side, real_limit, guard=True):
    start = _start_site(spec, n, side)
    m = tail_m(spec.background, start, pts, side=side, real_limit=real_limit,
               guard=guard)
    z = np.asarray(pts, dtype=float if real_limit else complex)
    return _strip_to_cut(spec, n, start, m, z, side)


def m_right_grid(spec, n, z):
    """m of the right half-line ``[n+1, inf)`` at upper-half-plane points."""
    return _m_grid(spec, n, z, "right", real_limit=False)


def m_left_grid(spec, n, z):
    """m of the left half-line ``(-inf, n-1]`` at upper-half-plane points."""
    return _m_grid(spec, n, z, "left", real_limit=False)


def m_right_boundary(spec, n, lams):
    """Boundary values m_right(lambda + i0) on a real grid."""
    return _m_grid(spec, n, lams, "right", real_limit=True)


def m_left_boundary(spec, n, lams):
    """Boundary values m_left(lambda + i0) on a real grid."""
    return _m_grid(spec, n, lams, "left", real_limit=True)


def _scalar(spec, n, point, side):
    if point.is_real_limit:
        v = _m_grid(spec, n, np.array([point.lam]), side, True)[0]
        if point.side == "-":
            v = np.conj(v)
    else:
        v = _m_grid(spec, n, np.array([point.z]), side, False)[0]
    if point.side == "+" and v.imag < -1e-12:
        raise NumericalError(f"Herglotz value with Im = {v.imag:.3e} < 0")
    return HerglotzValue(value=complex(v), point=point)


def m_right(spec, n, point):
    """Scalar m_right at a BoundaryPoint; '-' side values are conjugated."""
    return _scalar(spec, n, point, "right")


def m_left(spec, n, point):
    """Scalar m_left at a BoundaryPoint; '-' side values are conjugated."""
    return _scalar(spec, n, point, "left")


def ac_density(spec, n, lams, side="right"):
    """Boundary spectral density Im m(lambda + i0) / pi of a half-line."""
    m = _m_grid(spec, n, np.asarray(lams, dtype=float), side, True)
    return m.imag / np.pi


def m_oracle_truncated(spec, n, z, N, side="right"):
    """Finite-section oracle for the half-line m-function.

    Solves ``(H_N - z) x = e_boundary`` on N sites of the half line with a
    banded solver and returns the boundary component.  Independent of the
    transfer-product fixed point; truncation error decays exponentially in N
    for Im z > 0.
    """
    if side == "right":
        sites = np.arange(n + 1, n + N + 1)
    else:
        sites = np.arange(n - N, n)
    a = np.array([spec.a(int(k)) for k in sites], dtype=float)
    b = np.array([spec.b(int(k)) for k in sites], dtype=float)
    offdiag = a[:-1]
    ab = np.zeros((3, N), dtype=complex)
    ab[0, 1:] = offdiag
    ab[1, :] = b - z
    ab[2, :-1] = offdiag
    rhs = np.zeros(N, dtype=complex)
    idx = 0 if side == "right" else N - 1
    rhs[idx] = 1.0
    x = solve_banded((1, 1), ab, rhs)
    return complex(x[idx])
