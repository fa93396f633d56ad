"""Floquet discriminant and spectral bands of the periodic background.

The transfer step across site ``k`` sends ``(u_k, u_{k-1})`` to
``(u_{k+1}, u_k)``:

    T_k(lambda) = [[(lambda - b_k)/a_k, -a_{k-1}/a_k], [1, 0]]

``transfer_product`` multiplies these steps with plain arithmetic, so
one kernel serves polynomial, array and scalar energies; a period of the
background reads its cell through ``Background.value_at``.  It is the only
transfer product of the package: ``discriminant`` is the trace of the
one-period product, and the Floquet seeds of the Weyl solutions in
``mfunc`` (through them the Jost solutions in ``jost``) are eigenvectors
of it.

The essential spectrum of the unperturbed operator is ``{|Delta| <= 2}``,
a finite union of closed bands.  Its edges, where ``Delta = +-2``, are the
eigenvalues of the p x p cell matrix with periodic (``+a_{p-1}``) and
antiperiodic (``-a_{p-1}``) corners (Teschl, *Jacobi Operators and
Completely Integrable Nonlinear Lattices*, ch. 7), read off with
``eigvalsh`` to rounding of the coefficients' scale at any period.

``_near_edge`` is the one band-edge rule: the real-axis routes refuse an
energy within ``EDGE_REL`` times its band's width of an edge, as a
``(mask, refusal)`` check (``errors.first_refusals``), and grids drop it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .errors import BandEdge

EDGE_REL = 1e-6       # relative band-edge margin enforced on grids
INSET_REL = 1e-5      # band-scan grids stay this far inside each band

__all__ = [
    "transfer_product",
    "discriminant",
    "band_intervals",
    "band_edges",
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
    cell = [background.value_at(k) for k in range(first - 1, first + background.period)]
    return transfer_product([a for a, _ in cell], [b for _, b in cell[1:]], lam)


@lru_cache(maxsize=None)
def discriminant(background):
    """Trace of the one-period transfer product, as a Polynomial in lambda."""
    m11, _, _, m22 = _period_product(background, 0, Polynomial([0.0, 1.0]))
    return m11 + m22


@lru_cache(maxsize=None)
def band_intervals(background):
    """Closed bands ((lo, hi), ...) in increasing order.

    The 2p sorted Floquet eigenvalues pair up as ``[E_0, E_1], [E_2, E_3],
    ...``.  Touching bands (closed gaps) are merged, so the result is the
    list of maximal intervals of essential spectrum.
    """
    a, b = background.a, background.b
    edges = []
    for sign in (1.0, -1.0):
        floquet = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
        # two additions: at p = 1 both land on b_0 (b_0 +- 2 a_0), at p = 2
        # on the one bond (a_0 +- a_1)
        floquet[0, -1] += sign * a[-1]
        floquet[-1, 0] += sign * a[-1]
        edges.append(np.linalg.eigvalsh(floquet))
    edges = np.sort(np.concatenate(edges))
    bands = []
    for lo, hi in zip(edges[0::2], edges[1::2]):
        if bands and lo <= bands[-1][1] + 1e-12 * max(1.0, abs(lo)):
            bands[-1] = (bands[-1][0], hi)
        else:
            bands.append((lo, hi))
    return tuple(bands)


def _inset_bands(background):
    """The bands as a [band, 2] array, each end INSET_REL of its width inside."""
    lo, hi = np.array(band_intervals(background)).T
    inset = INSET_REL * (hi - lo)
    return np.stack([lo + inset, hi - inset], axis=1)


def band_edges(background):
    """Sorted flat array lo_0, hi_0, lo_1, hi_1, ... of the band endpoints."""
    return np.array([e for band in band_intervals(background) for e in band])


def _near_edge(background, lams):
    """The band-edge check of lams, a 1-d float array, as ``(mask, refusal)``.

    ``mask`` is true where a point lies within EDGE_REL * band width of its
    nearest edge, and ``refusal(i)`` is point i's ``BandEdge``: the form
    ``errors.first_refusals`` and ``errors.raise_first`` take.  Real-boundary
    limits degenerate like an inverse square root at band edges, so these
    points are refused instead of silently losing accuracy.
    """
    flat = band_edges(background)
    widths = flat[1::2] - flat[0::2]
    dist = np.abs(lams[:, None] - flat[None, :])
    nearest = dist.argmin(axis=1)
    margin = EDGE_REL * widths[nearest // 2]
    bad = dist.min(axis=1) < margin
    return bad, lambda i: BandEdge(lams[i], flat[nearest[i]], margin[i])
