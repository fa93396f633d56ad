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
``bands.transfer_product`` on its side.  Every route reads what it needs
off that one call, with the call's checks: the band edge, then the right
and the left seed.  The multiplier mu follows a
rule (Teschl, *Jacobi Operators and Completely Integrable Nonlinear
Lattices*, ch. 7), not a probe: off the real axis and in gaps psi_r takes
|mu| < 1 and psi_l |mu| > 1; in a band each takes the root whose m has
Im m > 0, the boundary value at ``lambda + i0``.  Values at ``lambda - i0``
are conjugates of the ``+`` side ones.

``m_right`` and ``m_left`` are views of the grid routes at one
``BoundaryPoint``: the value there as a complex number.  ``_at_point``,
which ``scattering.green_diag`` shares, takes ``lam`` or ``z`` as a
one-point grid and conjugates on the ``-`` side.

m is infinite where u_n = 0, at a Dirichlet eigenvalue of the half line:
the m-value routes raise PoleHit there, while the whole-line quantities read
off the same values (``ac_density``, G_nn, the s-matrix) stay finite.  The
sweep and ``_m_values`` raise no refusal: they return ``(mask, refusal)``
checks, and a one-side route raises only its own side's.  Non-finite
energies are bad input (``ValueError``), not refusals.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bands import _near_edge, _period_product, _real_energies
from .errors import CrossCheckFailure, NumericalError, PoleHit, raise_first
from .model import _check_integer, coefficient_arrays

POLE_TOL = 1e-14     # |u_n| below this share of its pair makes m_n a pole
# |M v - mu v| <= SEED_TOL |M| |v| (entrywise 1-norms).  The seed makes the
# residual vanish identically (v = (mu - M22, M21) or (M12, mu - M11), both
# sharing their square root with mu), so what is left is about 30 roundings
# of terms bounded by |M| |v|, each up to sqrt(5) ulps in complex arithmetic.
SEED_TOL = 64 * np.finfo(float).eps
# A step multiplies a pair's 1-norm by at most 1 + (|z - b_k| + a_k) / a_{k-1}:
# 16 steps between rescalings overflow only if that factor reaches 1e19.
RESCALE_EVERY = 16

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

    Row i holds bond ``first + i``.  Rows are rescaled by powers of two on
    the way; ``2**exponent`` takes a row back to the scale of the seed.  On
    the real axis ``flux`` is ``a_k Im(u_{k+1} conj(u_k))`` on the seed's
    scale, the same on every bond.
    """

    first: int
    upper: np.ndarray       # u_{k+1}, [bond, point]
    lower: np.ndarray       # u_k
    exponent: np.ndarray
    flux: np.ndarray = None

    def bond(self, k):
        i = k - self.first
        return self.upper[i], self.lower[i]

    def values(self, k_lo, k_hi):
        """u_k on sites k_lo..k_hi, [site, point], on the scale of bond k_lo."""
        i, j = k_lo - self.first, k_hi - self.first
        shift = np.ldexp(1.0, self.exponent[i:j] - self.exponent[i])
        return np.concatenate([self.lower[i][None], self.upper[i:j] * shift])


def _select(cond, x, y):
    # np.where for arrays, a plain branch for one energy on Python scalars
    return np.where(cond, x, y) if np.ndim(cond) else (x if cond else y)


def _floquet_seed(m11, m12, m21, m22, side, real_limit):
    """Pair ``(u_{K+1}, u_K)`` of one side's Floquet solution, its multiplier
    mu, the other one nu and the band mask; M is the product over K+1..K+p.

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
        band = np.zeros(np.shape(disc), dtype=bool)
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


def weyl_sweep(spec, lo, hi, pts, real_limit=True):
    """``(psi_r, psi_l, checks)``: both Weyl solutions on bonds lo..hi, each
    on to its seed bond, at real energies (``lambda + i0``) when
    ``real_limit``, else at upper-half-plane points, and their checks in
    order: the band edge (real axis only), the right seed, the left seed.
    It raises no refusal: a point whose seed fails is swept on and flagged.

    psi_r is seeded at the first bond >= hi with only background to its right
    and swept down, psi_l at the last bond <= lo with only background to its
    left and swept up: each toward the side where it grows, from an
    eigenvector of its own one-period product.
    """
    z = _real_energies(pts) if real_limit else np.atleast_1d(np.asarray(pts, dtype=complex))
    if not np.isfinite(z).all():
        raise ValueError(f"energies must be finite, got {z[~np.isfinite(z)][0]}")
    if not real_limit and np.any(z.imag <= 0):
        raise ValueError("interior evaluation needs Im z > 0")
    w = spec.window
    seed_r, seed_l = (max(hi, w[1] + 1), min(lo, w[0] - 1)) if w else (hi, lo)
    # index i: site seed_l - 1 + i
    a, b = (c.tolist() for c in coefficient_arrays(spec, seed_l - 1, seed_r + 1))
    checks = [_near_edge(spec.background, z)] if real_limit else []
    # one energy runs on Python scalars: the kernel below is plain arithmetic
    zz = z.item() if z.size == 1 else z
    p, sols = spec.background.period, []
    for side, seed in (("right", seed_r), ("left", seed_l)):
        right = side == "right"
        M = _period_product(spec.background, seed + 1, zz)
        up, low, *roots = _floquet_seed(*M, side, real_limit)
        checks.append(_seed_check(M, up, low, *roots, side))
        flux = a[seed - seed_l + 1] * (up * np.conj(low)).imag if real_limit else None
        ex = np.zeros(z.shape, dtype=int) if z.size != 1 else 0
        rows = [(up, low, ex)]
        # beyond the window a pair is the pair one period back times the multiplier
        # of larger modulus (det M = 1), free of the recursion's rounding.  np.multiply
        # on one energy too: numpy's complex product can round apart from Python's,
        # and a point must get the same bits alone as on a grid
        per_period = roots[1] if right else roots[0]
        for count, k in enumerate(range(seed, lo, -1) if right else range(seed + 1, hi + 1), 1):
            i, bond = k - seed_l + 1, k - 1 if right else k
            if count >= p and (not w or (bond > w[1] if right else bond < w[0])):
                up, low, ex = (np.multiply(rows[-p][0], per_period),
                               np.multiply(rows[-p][1], per_period), rows[-p][2])
            elif right:
                low, up = ((zz - b[i]) * low - a[i] * up) / a[i - 1], low
            else:
                up, low = ((zz - b[i]) * up - a[i - 1] * low) / a[i], up
            if count % RESCALE_EVERY == 0:      # by a power of two: exact
                _, e = np.frexp(abs(up) + abs(low))
                up, low, ex = up * np.ldexp(1.0, -e), low * np.ldexp(1.0, -e), ex + e
            rows.append((up, low, ex))
        if right:
            rows.reverse()
        shape = (len(rows), z.size)
        sols.append(WeylSolution(lo if right else seed,
                                 *(np.array(c).reshape(shape) for c in zip(*rows)), flux))
    return (*sols, checks)


def _ratios(sol, bonds, a):
    """u_{k+1} / u_k and u_k / u_{k+1} at the bonds, each 0 at its poles, and
    their pole masks.  On the real axis the imaginary parts come from the
    conserved flux: they keep their relative accuracy where they are small
    against the ratio, as in the stripping recursion of m.
    """
    up, low = sol.bond(bonds)
    mag_up, mag_low = np.abs(up), np.abs(low)
    if sol.flux is not None:
        flux = np.ldexp(sol.flux, -2 * sol.exponent[bonds - sol.first]) / a
    out = []
    for num, den, mag, sign in ((up, low, mag_low, 1.0), (low, up, mag_up, -1.0)):
        pole = mag <= POLE_TOL * (mag_up + mag_low)
        r = np.divide(num, den, out=np.zeros(pole.shape, complex), where=~pole)
        if sol.flux is not None:
            r.imag = np.divide(sign * flux, mag * mag, out=np.zeros(pole.shape), where=~pole)
        out += [r, pole]
    return out


def _m_values(spec, n, pts, real_limit=True):
    """m_right(n) and m_left(n) over a grid, 0 at their poles, read off one
    sweep over bonds n-1..n: ``{side: (m, checks)}``, right then left, each
    side's checks in order: the band edge (real axis only), its seed and its
    pole."""
    _check_integer(n, "cut site n")
    right, left, (*edge, seed_r, seed_l) = weyl_sweep(spec, n - 1, n, pts, real_limit)
    rho, zero, _, _ = _ratios(right, n, spec.a(n))
    _, _, sigma, top = _ratios(left, n - 1, spec.a(n - 1))
    return {side: (m, edge + [seed, (pole, lambda i, side=side: PoleHit(
                f"m_{side}({n}) has a pole at {np.atleast_1d(pts)[i]}: the {side} Weyl "
                f"solution vanishes at site {n}"))])
            for side, m, seed, pole in (("right", -rho / spec.a(n), seed_r, zero),
                                        ("left", -sigma / spec.a(n - 1), seed_l, top))}


def _m_raising(spec, n, pts, side, real_limit):
    m, checks = _m_values(spec, n, pts, real_limit)[side]
    raise_first(checks)
    return m


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
    m, checks = _m_values(spec, n, lams)[side]
    raise_first(checks[:-1])
    return m.imag / np.pi
