"""Floquet discriminant and spectral bands of the periodic background.

The transfer step across site ``k`` sends ``(u_k, u_{k-1})`` to
``(u_{k+1}, u_k)``:

    T_k(lambda) = [[(lambda - b_k)/a_k, -a_{k-1}/a_k], [1, 0]]

``transfer_product`` multiplies these steps with plain arithmetic, so
one kernel serves polynomial, array and scalar energies.  It is the only
transfer product of the package: the discriminant here, the tail
m-functions in ``mfunc`` and through them the Jost seeds in ``jost`` are
all read off it.

The discriminant is the trace of the one-period product.  The essential
spectrum of the unperturbed operator is ``{|Delta| <= 2}``, a finite union
of closed bands.  Band edges are the roots of ``Delta -+ 2``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .errors import BandEdge

__all__ = [
    "transfer_product",
    "discriminant",
    "band_intervals",
    "band_edges",
    "in_band_mask",
    "guard_edges",
]


def transfer_product(a, b, lam):
    """Entries ``(M11, M12, M21, M22)`` of ``T_{k+n} ... T_{k+1}``.

    ``a`` holds ``a_k .. a_{k+n}`` and ``b`` holds ``b_{k+1} .. b_{k+n}``.
    Only plain arithmetic touches ``lam``, so it may be a scalar, an array
    or a ``Polynomial``.
    """
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for j in range(len(b)):
        t11 = (lam - b[j]) / a[j + 1]
        t12 = -a[j] / a[j + 1]
        m11, m12, m21, m22 = t11 * m11 + t12 * m21, t11 * m12 + t12 * m22, m11, m12
    return m11, m12, m21, m22


def _period_product(background, first, lam):
    """``transfer_product`` over one period of sites ``first .. first+p-1``."""
    p, cell_a, cell_b = background.period, background.a, background.b
    a = [cell_a[(k - background.phase) % p] for k in range(first - 1, first + p)]
    b = [cell_b[(k - background.phase) % p] for k in range(first, first + p)]
    return transfer_product(a, b, lam)


@lru_cache(maxsize=None)
def discriminant(background):
    """Trace of the one-period transfer product, as a Polynomial in lambda."""
    m11, _, _, m22 = _period_product(background, 0, Polynomial([0.0, 1.0]))
    return m11 + m22


def _real_roots(poly):
    r = poly.roots()
    scale = max(1.0, np.abs(r).max()) if r.size else 1.0
    keep = np.abs(r.imag) < 1e-9 * scale
    return np.sort(r[keep].real)


def _polish(poly, x):
    # one-dimensional Newton; harmless at machine-accurate starting points,
    # simple roots gain a couple of digits
    d = poly.deriv()
    for _ in range(3):
        g, gp = poly(x), d(x)
        if gp == 0:
            break
        step = g / gp
        if abs(step) > 1e-3:
            break
        x = x - step
    return x


@lru_cache(maxsize=None)
def band_intervals(background):
    """Closed bands ((lo, hi), ...) in increasing order.

    Touching bands (closed gaps) are merged, so the result is the list of
    maximal intervals of essential spectrum.
    """
    delta = discriminant(background)
    edges = np.concatenate([_real_roots(delta - 2.0), _real_roots(delta + 2.0)])
    edges = np.sort(np.array([_polish(delta - 2.0, x) if abs(delta(x) - 2.0) < abs(delta(x) + 2.0)
                              else _polish(delta + 2.0, x) for x in edges]))
    if edges.size < 2:
        raise ValueError("discriminant produced fewer than two band edges")
    bands = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 0:
            continue
        if abs(delta(0.5 * (lo + hi))) <= 2.0:
            if bands and lo <= bands[-1][1] + 1e-12 * max(1.0, abs(lo)):
                bands[-1] = (bands[-1][0], hi)
            else:
                bands.append((lo, hi))
    if not bands:
        raise ValueError("no spectral bands found")
    return tuple(bands)


def band_edges(background):
    """Sorted flat array lo_0, hi_0, lo_1, hi_1, ... of the band endpoints."""
    return np.array([e for band in band_intervals(background) for e in band])


def in_band_mask(bands, lams):
    """Boolean mask of which lambda lie inside a (closed) band."""
    lams = np.asarray(lams, dtype=float)
    flat = np.array([e for band in bands for e in band])
    idx = np.searchsorted(flat, lams, side="left")
    # odd insertion index means strictly inside; catch exact endpoints too
    mask = (idx % 2 == 1) | np.isin(lams, flat)
    return mask


def _near_edge(bands, lams, rel=1e-6):
    """Mask of the 1-d float lams within rel * band width of an edge.

    Also returns each point's nearest edge and its margin.
    """
    flat = np.array([e for band in bands for e in band])
    widths = np.array([hi - lo for lo, hi in bands])
    dist = np.abs(lams[:, None] - flat[None, :])
    nearest = dist.argmin(axis=1)
    margin = rel * widths[nearest // 2]
    bad = dist[np.arange(lams.size), nearest] < margin
    return bad, flat[nearest], margin


def guard_edges(bands, lams, rel=1e-6):
    """Raise BandEdge if any lambda sits within rel * band width of an edge.

    Real-boundary limits degenerate like an inverse square root at band
    edges, so evaluation there is refused instead of silently losing
    accuracy.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    bad, edge, margin = _near_edge(bands, lams, rel)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise BandEdge(lams[i], edge[i], margin[i])
