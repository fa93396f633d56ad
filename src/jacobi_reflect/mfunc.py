"""Weyl solutions and the m-functions of the two half-line restrictions.

Cutting the lattice at site ``n`` leaves a left operator on ``(-inf, n-1]``
and a right operator on ``[n+1, inf)``.  Their m-functions are the corner
resolvent entries at the boundary sites, ratios of the Weyl solutions psi_r
and psi_l (square-summable at +inf and at -inf):

    m_right(n) = <delta_{n+1}, (J_right - z)^-1 delta_{n+1}> = -psi_r(n+1) / (a_n psi_r(n))
    m_left(n)  = <delta_{n-1}, (J_left - z)^-1 delta_{n-1}>  = -psi_l(n-1) / (a_{n-1} psi_l(n))

``weyl_sweep`` builds both Weyl solutions in one call, each held by its
values, one pair ``(u_{k+1}, u_k)`` per bond k with energies along the
second axis, and each seeded beyond the perturbation window by an
eigenvector of the background's one-period product
``bands.transfer_product`` on its side.  One real energy runs the sweep on
Python scalars, with the bits a grid gives it.  The sweep hands its readers
their window whole, the rows of bonds lo..hi and a_k, b_k on sites lo..hi+1,
with its checks by name: ``"edge"``, ``"right seed"``, ``"left seed"``.  The
multiplier mu follows a rule (Teschl, *Jacobi Operators and Completely
Integrable Nonlinear Lattices*, ch. 7), not a probe: off the real axis and
in gaps psi_r takes |mu| < 1 and psi_l |mu| > 1; in a band each takes the
root whose m has Im m > 0, the boundary value at ``lambda + i0``.  Values at
``lambda - i0`` are conjugates of the ``+`` side ones.

``boundary_pieces`` is the one route that reads the Weyl pairs at cut
sites, off one sweep over bonds min(cuts)-1..max(cuts).  At each cut it
gives m_right(n) and m_left(n), the channel densities (an Im m under
``SUPPORT_TOL`` is a closed channel, 0) and G_nn:

    G_nn = psi_l(n) psi_r(n) / W,   W = a_k (psi_l(k) psi_r(k+1) - psi_l(k+1) psi_r(k))

W is the same on every bond k, so G_nn is taken once from the pairs at
bond n and once from those at bond n-1, and the two are cross-checked
against ``CROSS_TOL``.  The m routes below, ``ac_density``,
``analysis.essential_support``, the CLI's ``mfunc`` and jost's m-ratio
route read m and the channels off it; ``scattering`` builds G_nn's views
and the s-matrix on it.  (``jost._jost_values`` is the one reader on a
window of sites.)

``m_right`` and ``m_left`` are views of the grid routes at one
``BoundaryPoint``: the value there as a complex number.  ``_at_point``,
which ``scattering.green_diag`` shares, takes ``lam`` or ``z`` as a
one-point grid and conjugates on the ``-`` side.

m is infinite where u_n = 0, at a Dirichlet eigenvalue of the half line:
the m-value routes raise PoleHit there, while the whole-line quantities read
off the same values (``ac_density``, G_nn, the s-matrix) stay finite.  The
sweep and ``boundary_pieces`` raise no refusal: each returns its checks as
``{name: (mask, refusal)}`` in its order, and a route gets the ones it names
in that order; a one-side m route names ``"edge"`` and its side's ``"<side>
seed"`` and ``"<side> m pole"``.  Energies the sweep's gate refuses (the one
rule of ``model._check_energies``, on and off the axis), non-finite ones and
ones past the coefficients' scale (``STEP_MAX``) are bad input (``ValueError``).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bands import _near_edge, _period_product
from .errors import CrossCheckFailure, NumericalError, PoleHit, _named, raise_first
from .model import _check_energies, _check_integer, coefficient_arrays

POLE_TOL = 1e-14     # |u_n| below this share of its pair makes m_n a pole
# |M v - mu v| <= SEED_TOL |M| |v| (entrywise 1-norms).  The seed makes the
# residual vanish identically (v = (mu - M22, M21) or (M12, mu - M11), both
# sharing their square root with mu), so what is left is about 30 roundings
# of terms bounded by |M| |v|, each up to sqrt(5) ulps in complex arithmetic.
SEED_TOL = 64 * np.finfo(float).eps
# A step multiplies a pair's 1-norm by at most F_k = 1 + (|z - b_k| + a_k) / a_{k-1}
# (a_{k-1} and a_k swapped on the left).  The seed and every 16th pair are
# rescaled to a 1-norm below 1 (see ``weyl_sweep`` for the per-period step), so a
# pair stays under the product of 16 consecutive F_k, and ``_ratios`` squares an
# entry: nothing overflows while that product is at most 2^(1023/2), that is while
# the F_k of any 16 consecutive bonds have a geometric mean of at most
# STEP_MAX = 2^(1023/32), about 4.2e9.  ``weyl_sweep`` refuses an energy past it
# (``_reach``).
RESCALE_EVERY = 16
STEP_MAX = 2.0 ** (1023 / (2 * RESCALE_EVERY))
CROSS_TOL = 1e-10    # relative agreement required of G_nn from two bonds
SUPPORT_TOL = 1e-10  # Im m below this counts as a closed channel
# the checks raised by G_nn and by the s-matrix and criteria built on it
_G_CHECKS = ("edge", "right seed", "left seed", "G_nn pole", "G_nn cross")

__all__ = [
    "WeylSolution",
    "weyl_sweep",
    "m_right_grid",
    "m_left_grid",
    "m_right_boundary",
    "m_left_boundary",
    "m_right",
    "m_left",
    "ac_density",
]


class WeylSolution(NamedTuple):
    """A Weyl solution as one pair ``(u_{k+1}, u_k)`` per bond and energy.

    Row i holds bond ``lo + i`` of the sweep over bonds lo..hi.  Rows are
    rescaled by powers of two on the way; ``2**exponent`` takes a row back
    to the scale of the seed.  On the real axis ``flux`` is
    ``a_k Im(u_{k+1} conj(u_k))`` on the seed's scale, the same on every bond.
    """

    upper: np.ndarray       # u_{k+1}, [bond, point]
    lower: np.ndarray       # u_k
    exponent: np.ndarray
    flux: np.ndarray = None

    def values(self):
        """u_k on sites lo..hi+1, [site, point], on the scale of bond lo."""
        shift = np.ldexp(1.0, self.exponent - self.exponent[0])
        return np.concatenate([self.lower[0][None], self.upper * shift])


def _select(cond, x, y):
    # np.where for arrays, a plain branch for one real energy or the band mask off the axis
    return np.where(cond, x, y) if np.ndim(cond) else (x if cond else y)


def _floquet_seed(m11, m12, m21, m22, side, real_limit):
    """Pair ``(u_{K+1}, u_K)`` of one side's Floquet solution, its multiplier
    mu, the other one nu and the band mask, False off the axis; M is the
    product over K+1..K+p.

    ``disc = (M11 - M22)^2 + 4 M12 M21`` is ``Delta^2 - 4 det M`` without the
    cancellation of ``Delta^2 - 4`` near a closed gap.
    """
    d, delta = m11 - m22, m11 + m22
    disc = d * d + 4.0 * m12 * m21
    sq = np.sqrt(disc + 0j)
    if real_limit:
        band = disc < 0
        toward = delta * sq.real + m21 * sq.imag     # one of the two terms is 0
    else:
        band = False
        toward = (np.conj(delta) * sq).real
    ssq = np.copysign(1.0, toward) * sq
    if side == "right":
        ssq = -ssq
    e, f = 0.5 * (d + ssq), 0.5 * (ssq - d)         # mu - M22, mu - M11
    # the larger candidate; on a tie the one whose m at the seed divides by
    # the exact entry M21 (right) or M12 (left)
    larger_e = abs(e) + abs(m21) - (abs(m12) + abs(f))
    use_e = larger_e >= 0 if side == "right" else larger_e > 0
    # the real entry made complex as np.where makes it, so that a zero flux
    # has the same sign for one energy as on a grid
    return (_select(use_e, e, m12 + 0j), _select(use_e, m21 + 0j, f),
            0.5 * (delta + ssq), 0.5 * (delta - ssq), band)


def _seed_check(M, v1, v2, mu, nu, band, side):
    """The seed check as ``(mask, refusal)``: the mask of the energies whose
    seed fails, a zero seed too, and ``refusal(i)`` of energy i."""
    m11, m12, m21, m22 = M
    r = abs((m11 - mu) * v1 + m12 * v2) + abs(m21 * v1 + (m22 - mu) * v2)
    scale = (abs(m11) + abs(m12) + abs(m21) + abs(m22)) * (abs(v1) + abs(v2))
    # Im m > 0 in a band, else |mu| < 1 on the right: |mu| < |nu| = 1/|mu|,
    # which does not cancel in a gap; a double root leaves no other branch
    sign = 1.0 if side == "left" else -1.0
    on_branch = _select(band, sign * (v1 * np.conj(v2)).imag > 0,
                        sign * (abs(mu) - abs(nu)) >= 0)

    def refusal(i):
        r_i, scale_i = np.atleast_1d(r)[i], np.atleast_1d(scale)[i]
        rel = r_i / scale_i if scale_i > 0 else np.inf
        return CrossCheckFailure(f"Floquet seed ({side} side): residual {rel:.3e} of "
                                 f"|M||v| (bound {SEED_TOL:.3e}; inf: no seed, M = +-I), on its "
                                 f"branch: {bool(np.atleast_1d(on_branch)[i])}")
    return ~np.atleast_1d((r < SEED_TOL * scale) & on_branch), refusal


def _rescale(up, low, ex):
    """The pair by a power of two (exact) to a 1-norm in [1/2, 1), and its exponent."""
    e = np.frexp(abs(up) + abs(low))[1]
    s = np.ldexp(1.0, -e)
    return up * s, low * s, ex + e


@lru_cache(maxsize=64)
def _reach(spec):
    """``(c, r)``: energies within r of c are inside the coefficients' scale.

    For c the centre of the b_k's range, F_k <= (|z - c| + g_k) / s_k with s_k
    and l_k the smaller and larger of a_{k-1}, a_k (one bound for both sides)
    and g_k = s_k + |b_k - c| + l_k.  So the F_k of 16 consecutive bonds pass
    STEP_MAX in geometric mean only if |z - c| + max g_k passes STEP_MAX times
    the least geometric mean of 16 consecutive s_k.  Runs of bonds beyond the
    window repeat with the cell: the window and 16 + p sites on each side hold
    them all.
    """
    w, pad = spec.window or (0, -1), RESCALE_EVERY + spec.background.period
    a, b = coefficient_arrays(spec, w[0] - pad, w[1] + pad)
    c = (b.max() + b.min()) / 2
    small, large = np.minimum(a[:-1], a[1:]), np.maximum(a[:-1], a[1:])
    mean = np.convolve(np.log2(small), np.full(RESCALE_EVERY, 1.0 / RESCALE_EVERY), "valid")
    g = small + np.abs(b[1:] - c) + large
    return float(c), float(STEP_MAX * 2.0 ** mean.min() - g.max())


def weyl_sweep(spec, lo, hi, pts, real_limit=True):
    """``(psi_r, psi_l, (a, b), z, checks)``: both Weyl solutions on bonds lo..hi and
    a_k, b_k on sites lo..hi+1, at the energies z as the gate gives them, real
    (``lambda + i0``) when ``real_limit``, else upper-half-plane points, and the checks
    ``"edge"`` (never failing off the axis), ``"right seed"`` and ``"left seed"``.  It
    raises no refusal: a point whose seed fails is swept on and flagged.  Only
    what is on bonds lo..hi is kept, so a sweep from a far seed keeps no row per bond.

    psi_r is seeded at the first bond >= hi with only background to its right
    and swept down, psi_l at the last bond <= lo with only background to its
    left and swept up: each toward the side where it grows, from an
    eigenvector of its own one-period product.
    """
    z = _check_energies(pts, real_limit)
    # one test for both: a NaN or infinite energy is not within reach either
    c, reach = _reach(spec)
    if not np.abs(z - c).max(initial=0.0) <= reach:
        if not np.isfinite(z).all():
            raise ValueError(f"energies must be finite, got {z[~np.isfinite(z)][0]}")
        e = z[~(np.abs(z - c) <= reach)][0]
        raise ValueError(f"energy {float(e) if real_limit else complex(e)} is beyond the "
                         f"coefficients' scale: the recursion's step factors over "
                         f"{RESCALE_EVERY} bonds could pass STEP_MAX = {STEP_MAX:.3e} "
                         f"in geometric mean")
    w = spec.window
    seed_r, seed_l = (max(hi, w[1] + 1), min(lo, w[0] - 1)) if w else (hi, lo)
    # index i: site seed_l - 1 + i; a memoryview indexes to Python floats, as a
    # list would, at 8 bytes per site.  Sites lo..hi+1 go back as copies, not as
    # views that would keep a far seed's arrays alive
    coeffs = coefficient_arrays(spec, seed_l - 1, seed_r + 1)
    a, b = map(memoryview, coeffs)
    # off the axis no energy is near a band edge: the check never fails, and has no refusal
    checks = {"edge": _near_edge(spec.background, z) if real_limit
              else (np.zeros(z.size, bool), None)}
    # one real energy runs on Python scalars: a real energy times a complex value
    # has a zero cross term, so there they round as numpy's array loops do
    zz = z.item() if z.size == 1 and real_limit else z
    p, sols = spec.background.period, []
    for side, seed in (("right", seed_r), ("left", seed_l)):
        right = side == "right"
        M = _period_product(spec.background, seed + 1, zz)
        up, low, *roots = _floquet_seed(*M, side, real_limit)
        checks[f"{side} seed"] = _seed_check(M, up, low, *roots, side)
        flux = a[seed - seed_l + 1] * (up * np.conj(low)).imag if real_limit else None
        up, low, ex = _rescale(up, low, 0)
        # the rows on bonds lo..hi are kept; the last p rows feed the per-period step
        ring = deque([(up, low, ex)], maxlen=p)
        rows = [ring[0]] if lo <= seed <= hi else []
        # beyond the window a pair is the pair one period back times the multiplier
        # of larger modulus (det M = 1), free of the recursion's rounding.  np.multiply
        # on one energy too: Python's complex product can round apart from numpy's
        per_period = roots[1] if right else roots[0]
        for count, k in enumerate(range(seed, lo, -1) if right else range(seed + 1, hi + 1), 1):
            i, bond = k - seed_l + 1, k - 1 if right else k
            period_step = count >= p and (not w or (bond > w[1] if right else bond < w[0]))
            if period_step:
                up, low, ex = (np.multiply(ring[0][0], per_period),
                               np.multiply(ring[0][1], per_period), ring[0][2])
            elif right:
                low, up = ((zz - b[i]) * low - a[i] * up) / a[i - 1], low
            else:
                up, low = ((zz - b[i]) * up - a[i - 1] * low) / a[i], up
            # a per-period pair grows from the pair one period back, which may
            # predate the last rescaling: on the first p counts of every 16 it is
            # rescaled too, so each pair is within 16 steps of a rescaled one
            if count % RESCALE_EVERY < (p if period_step else 1):
                up, low, ex = _rescale(up, low, ex)
            ring.append((up, low, ex))
            if lo <= bond <= hi:
                rows.append(ring[-1])
        if right:
            rows.reverse()
        shape = (len(rows), z.size)
        sols.append(WeylSolution(*(np.array(c).reshape(shape) for c in zip(*rows)), flux))
    return (*sols, tuple(c[lo - seed_l + 1: hi - seed_l + 3].copy() for c in coeffs), z, checks)


def _ratios(sol, a):
    """u_{k+1} / u_k and u_k / u_{k+1} on the sweep's bonds, each 0 at its
    poles, and their pole masks.  On the real axis the imaginary parts come
    from the conserved flux: they keep their relative accuracy where they are
    small against the ratio, as in the stripping recursion of m.
    """
    up, low = sol.upper, sol.lower
    mag_up, mag_low = np.abs(up), np.abs(low)
    if sol.flux is not None:
        flux = np.ldexp(sol.flux, -2 * sol.exponent) / a
    out = []
    for num, den, mag, sign in ((up, low, mag_low, 1.0), (low, up, mag_up, -1.0)):
        pole = mag <= POLE_TOL * (mag_up + mag_low)
        r = np.divide(num, den, out=np.zeros(pole.shape, complex), where=~pole)
        if sol.flux is not None:
            r.imag = np.divide(sign * flux, mag * mag, out=np.zeros(pole.shape), where=~pole)
        out += [r, pole]
    return out


class BoundaryPieces(NamedTuple):
    """What the routes need at a set of cuts, as [cut, point] arrays.  The
    checks, in order: ``"edge"``; ``"right seed"``, ``"right m pole"``, then the
    left's; ``"G_nn pole"`` and ``"G_nn cross"`` (G_nn's ``CROSS_TOL`` check)."""

    g: np.ndarray          # G_nn, cross-checked
    m: dict                # {side: m_side(n)}; 0 at a pole
    density_l: np.ndarray  # Im m_left(n); 0 on a closed channel or at a pole
    density_r: np.ndarray  # Im m_right(n)
    specref: np.ndarray    # |a_n^2 m_right(n) conj(m_left(n+1)) - 1|; inf at a pole
    a_l: np.ndarray        # a_{n-1}, [cut, 1]
    a_r: np.ndarray        # a_n
    checks: dict           # {name: (mask, refusal)}, masks over the points


def _green(a, r1, pole1, r2, pole2):
    # G_kk = psi_l(k) psi_r(k) / W = 1 / (a (r1 - r2)) in the ratios of a bond at site k;
    # 0 at a pole of a ratio (psi_l(k) or psi_r(k) is 0) and at a flagged zero denominator
    d = a * (r1 - r2)
    zero = pole1 | pole2
    bad = ~zero & (np.abs(d) <= POLE_TOL * a * (np.abs(r1) + np.abs(r2)))
    return np.divide(1.0, d, out=np.zeros(d.shape, complex), where=~(zero | bad)), bad.any(axis=0)


# a failed seed sweeps on, maybe to NaN or inf: nothing here may warn for it
@np.errstate(all="ignore")
def boundary_pieces(spec, cuts, pts, real_limit=True):
    """G_nn, m_right(n), m_left(n), the channel data and the checks at every
    cut, read off one sweep over bonds min(cuts)-1..max(cuts)."""
    for n in cuts:
        _check_integer(n, "cut site n")
    cuts = np.asarray(cuts, dtype=int)
    lo, hi = int(cuts.min()) - 1, int(cuts.max())
    right, left, (a, _), z, sweep = weyl_sweep(spec, lo, hi, pts, real_limit)
    a = a[:-1, None]                        # a_k on bonds lo..hi
    # ratios u_{k+1}/u_k (rho) and u_k/u_{k+1} (sigma) of both pairs on each bond
    rho_r, zero_r, sig_r, top_r = _ratios(right, a)
    rho_l, zero_l, sig_l, top_l = _ratios(left, a)
    g, pole = _green(a, rho_r, zero_r, rho_l, zero_l)
    g_prev, pole_prev = _green(a, sig_l, top_l, sig_r, top_r)
    g, g_prev = g[1:], g_prev[:-1]          # G_kk from bond k and from bond k-1
    scale = np.maximum(np.maximum(np.abs(g), np.abs(g_prev)), 1e-300)
    rel = np.max(np.abs(g - g_prev) / scale, axis=0, initial=0.0)
    # m_right(k) and m_left(k+1) off bond k, 0 where psi_r(k) or psi_l(k+1) is
    m_right, m_left = -rho_r / a, -sig_l / a
    i = cuts - lo                           # row of bond n
    m_r, pole_r = m_right[i], zero_r[i]
    m_l, pole_l = m_left[i - 1], top_l[i - 1]
    specref = np.where(pole_r | top_l[i], np.inf,
                       np.abs(a[i] * a[i] * m_r * np.conj(m_left[i]) - 1.0))
    # a closed channel, or a pole of m, has no density
    dens_l, dens_r = (np.where(~pole & (m.imag > SUPPORT_TOL), m.imag, 0.0)
                      for m, pole in ((m_l, pole_l), (m_r, pole_r)))

    def m_pole(side, pole):
        def refusal(j):
            n = cuts[np.flatnonzero(pole[:, j])[0]]
            return PoleHit(f"m_{side}({n}) has a pole at {z[j]}: the {side} "
                           f"Weyl solution vanishes at site {n}")
        return pole.any(axis=0), refusal

    checks = {"edge": sweep["edge"],
              "right seed": sweep["right seed"], "right m pole": m_pole("right", pole_r),
              "left seed": sweep["left seed"], "left m pole": m_pole("left", pole_l),
              "G_nn pole": (pole | pole_prev, lambda j: PoleHit(
                  "G_nn denominator vanishes (eigenvalue hit)")),
              "G_nn cross": (rel > CROSS_TOL, lambda j: CrossCheckFailure(
                  f"G_nn from the Wronskians at bonds n-1 and n disagrees by "
                  f"{rel[j]:.3e} (> {CROSS_TOL})"))}
    return BoundaryPieces(g[i - 1], {"right": m_r, "left": m_l}, dens_l, dens_r, specref,
                          a[i - 1], a[i], checks)


def _m_raising(spec, n, pts, side, real_limit):
    pieces = boundary_pieces(spec, [n], pts, real_limit)
    raise_first(_named(pieces.checks, "edge", f"{side} seed", f"{side} m pole"))
    return pieces.m[side][0]


def m_right_grid(spec, n, z):
    """m of the right half-line ``[n+1, inf)`` at upper-half-plane points."""
    return _m_raising(spec, n, z, "right", False)


def m_left_grid(spec, n, z):
    """m of the left half-line ``(-inf, n-1]`` at upper-half-plane points."""
    return _m_raising(spec, n, z, "left", False)


def m_right_boundary(spec, n, lams):
    """Boundary values m_right(lambda + i0) on a real grid."""
    return _m_raising(spec, n, lams, "right", True)


def m_left_boundary(spec, n, lams):
    """Boundary values m_left(lambda + i0) on a real grid."""
    return _m_raising(spec, n, lams, "left", True)


def _at_point(route, point):
    """``route(pts, real_limit)`` at a BoundaryPoint, as a complex number:
    ``lam`` or ``z`` as a one-point grid, the '-' side by conjugation."""
    real = point.is_real_limit
    v = complex(route([point.lam if real else point.z], real)[0])
    return v.conjugate() if real and point.side == "-" else v


def _m_at(spec, n, point, side):
    v = _at_point(lambda pts, real: _m_raising(spec, n, pts, side, real), point)
    if point.side == "+" and v.imag < -1e-12:
        raise NumericalError(f"Herglotz value with Im = {v.imag:.3e} < 0")
    return v


def m_right(spec, n, point):
    """m_right at a BoundaryPoint, a complex number; '-' side values are conjugated."""
    return _m_at(spec, n, point, "right")


def m_left(spec, n, point):
    """m_left at a BoundaryPoint, a complex number; '-' side values are conjugated."""
    return _m_at(spec, n, point, "left")


def ac_density(spec, n, lams, side="right"):
    """Boundary spectral density Im m(lambda + i0) / pi of a half-line; a pole
    of m on the real axis carries none, so its check is not raised."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    pieces = boundary_pieces(spec, [n], lams)
    raise_first(_named(pieces.checks, "edge", f"{side} seed"))
    return pieces.m[side][0].imag / np.pi
