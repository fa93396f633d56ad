"""Reference computations kept apart from the program under test.

Everything here uses numpy and scipy only and reads operator configs with
its own code, so a fault in ``jacobi_reflect`` cannot hide in its oracle.
Routes used:

- closed forms for the free chain and for a single site ``b_0 = v``;
- band edges as eigenvalues of the p x p Floquet matrices at quasi-momentum
  0 and pi, and band membership from the 2x2 monodromy eigenvalues;
- the reflection probability from the transfer matrix across the
  perturbation window, written in the Bloch basis of the background;
- half-line m-values from a banded truncated resolvent at ``Im z > 0``;
- Landauer currents by adaptive ``scipy.integrate.quad``;
- free-chain propagation as a convolution with the Bessel kernel
  ``(-i)^|d| J_|d|(2t)`` built from ``scipy.special.jv``.
"""

import cmath
import math

import numpy as np
from scipy import integrate
from scipy.linalg import solve_banded
from scipy.special import jv


class Coefficients:
    """``a_k`` and ``b_k`` of a config document (periodic cell + override)."""

    def __init__(self, doc):
        bg = doc["background"]
        if bg["kind"] == "free":
            self.cell_a, self.cell_b, self.phase = [1.0], [0.0], 0
        elif bg["kind"] == "constant":
            self.cell_a, self.cell_b, self.phase = [float(bg.get("a", 1.0))], [float(bg.get("b", 0.0))], 0
        else:
            self.cell_a = [float(x) for x in bg["a"]]
            self.cell_b = [float(x) for x in bg["b"]]
            self.phase = int(bg.get("phase", 0)) if len(self.cell_a) > 1 else 0
        pert = doc.get("perturbation", {})
        self.offset = int(pert.get("offset", 0))
        self.over_a = [float(x) for x in pert.get("a", [])]
        self.over_b = [float(x) for x in pert.get("b", [])]

    @property
    def period(self):
        return len(self.cell_a)

    @property
    def window(self):
        n = max(len(self.over_a), len(self.over_b))
        return None if n == 0 else (self.offset, self.offset + n - 1)

    def a(self, k):
        j = k - self.offset
        if 0 <= j < len(self.over_a):
            return self.over_a[j]
        return self.cell_a[(k - self.phase) % self.period]

    def b(self, k):
        j = k - self.offset
        if 0 <= j < len(self.over_b):
            return self.over_b[j]
        return self.cell_b[(k - self.phase) % self.period]

    def background_only(self):
        bg = Coefficients.__new__(Coefficients)
        bg.cell_a, bg.cell_b, bg.phase = self.cell_a, self.cell_b, self.phase
        bg.offset, bg.over_a, bg.over_b = 0, [], []
        return bg


# ---------------------------------------------------------------------------
# closed forms

def free_m(lams):
    """Free-chain half-line m(lambda + i0), in and outside [-2, 2]."""
    lams = np.asarray(lams, dtype=float)
    inside = np.abs(lams) < 2.0
    root = np.sqrt(np.abs(4.0 - lams * lams))
    return np.where(inside, (-lams + 1j * root) / 2.0,
                    (-lams + np.sign(lams) * root) / 2.0)


def free_g00(lams):
    """Free-chain G_00(lambda + i0) = 1 / (-lambda - 2 m)."""
    lams = np.asarray(lams, dtype=float)
    inside = np.abs(lams) < 2.0
    root = np.sqrt(np.abs(4.0 - lams * lams))
    return np.where(inside, 1j / np.where(inside, root, 1.0),
                    -np.sign(lams) / np.where(inside, 1.0, root))


def single_site_reflection(lams, v):
    """R = v^2 / (4 - lambda^2 + v^2) for b_0 = v on the free chain."""
    lams = np.asarray(lams, dtype=float)
    return v * v / (4.0 - lams * lams + v * v)


# ---------------------------------------------------------------------------
# bands

def floquet_edges(coef):
    """All 2p band-edge candidates: eigenvalues at quasi-momentum 0 and pi."""
    p = coef.period
    edges = []
    for theta in (0.0, math.pi):
        h = np.zeros((p, p), dtype=complex)
        for i in range(p):
            j = (i + 1) % p
            ph = cmath.exp(1j * theta) if i == p - 1 else 1.0
            h[i, i] += coef.cell_b[i]
            h[i, j] += coef.cell_a[i] * ph
            h[j, i] += coef.cell_a[i] * np.conj(ph)
        edges.extend(np.linalg.eigvalsh(h))
    return np.sort(np.array(edges))


def bands(coef, merge_tol=1e-12):
    """Bands ((lo, hi), ...) of the background, touching bands merged."""
    e = floquet_edges(coef)
    out = []
    for lo, hi in zip(e[0::2], e[1::2]):
        if out and lo <= out[-1][1] + merge_tol * max(1.0, abs(lo)):
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _transfer(coef, k, lam):
    return np.array([[(lam - coef.b(k)) / coef.a(k), -coef.a(k - 1) / coef.a(k)],
                     [1.0, 0.0]])


def monodromy(coef, lam):
    """Product T_p ... T_1 acting on (u_1, u_0)."""
    m = np.eye(2)
    for k in range(1, coef.period + 1):
        m = _transfer(coef, k, lam) @ m
    return m


def in_band(coef, lams, tol=1e-7):
    """Mask of energies whose monodromy eigenvalues lie on the unit circle."""
    bg = coef.background_only()
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    m = np.broadcast_to(np.eye(2), (lams.size, 2, 2)).copy()
    for k in range(1, bg.period + 1):
        t = np.zeros((lams.size, 2, 2))
        t[:, 0, 0] = (lams - bg.b(k)) / bg.a(k)
        t[:, 0, 1] = -bg.a(k - 1) / bg.a(k)
        t[:, 1, 0] = 1.0
        m = t @ m
    mu = np.linalg.eigvals(m)
    return np.all(np.abs(np.abs(mu) - 1.0) <= tol, axis=1)


def edge_multiplier_defect(coef, lam):
    """max | |mu| - 1 | of the monodromy eigenvalues (0 at a band edge)."""
    mu = np.linalg.eigvals(monodromy(coef.background_only(), lam))
    return float(np.max(np.abs(np.abs(mu) - 1.0)))


# ---------------------------------------------------------------------------
# reflection from the transfer matrix in the Bloch basis

def _scatter_sites(coef):
    p = coef.period
    w = coef.window
    if w is None:
        return None
    K = w[0] - p - 2
    reps = -(-(w[1] + 2 - K) // p)
    return K, K + reps * p


def reflection(coef, lam):
    """Reflection probability at one in-band energy (scalar, pure Python).

    The window transfer matrix L maps (u_{K+1}, u_K) to (u_{K'+1}, u_{K'})
    with K' = K mod p, both outside the window.  In the basis (v, conj v)
    of Bloch vectors of the background monodromy, B = E^-1 L E, and
    R = |B_21 / B_22|^2 for either direction of incidence.
    """
    sites = _scatter_sites(coef)
    if sites is None:
        return 0.0
    K, K2 = sites
    l00, l01, l10, l11 = 1.0, 0.0, 0.0, 1.0
    for k in range(K + 1, K2 + 1):
        a_k, a_km1, b_k = coef.a(k), coef.a(k - 1), coef.b(k)
        t00, t01 = (lam - b_k) / a_k, -a_km1 / a_k
        l00, l01, l10, l11 = (t00 * l00 + t01 * l10, t00 * l01 + t01 * l11,
                              l00, l01)
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for k in range(K + 1, K + coef.period + 1):
        a_k, a_km1, b_k = coef.a(k), coef.a(k - 1), coef.b(k)
        t00, t01 = (lam - b_k) / a_k, -a_km1 / a_k
        m00, m01, m10, m11 = (t00 * m00 + t01 * m10, t00 * m01 + t01 * m11,
                              m00, m01)
    tr = m00 + m11
    mu = (tr + cmath.sqrt(tr * tr - 4.0)) / 2.0
    # eigenvector of the monodromy for mu, the better conditioned form
    v1 = (m01, mu - m00)
    v2 = (mu - m11, m10)
    v = v1 if abs(v1[0]) + abs(v1[1]) >= abs(v2[0]) + abs(v2[1]) else v2
    # E = [v, conj v]
    e00, e10 = complex(v[0]), complex(v[1])
    e01, e11 = e00.conjugate(), e10.conjugate()
    det = e00 * e11 - e01 * e10
    # B = E^-1 L E; only the second row is needed
    le00 = l00 * e00 + l01 * e10
    le01 = l00 * e01 + l01 * e11
    le10 = l10 * e00 + l11 * e10
    le11 = l10 * e01 + l11 * e11
    b10 = (-e10 * le00 + e00 * le10) / det
    b11 = (-e10 * le01 + e00 * le11) / det
    return abs(b10 / b11) ** 2


def reflection_grid(coef, lams):
    return np.array([reflection(coef, float(x)) for x in np.asarray(lams)])


# ---------------------------------------------------------------------------
# m-values from a truncated resolvent

def m_truncated(coef, n, z, side="right", N=4000):
    """m of the half line beyond cut n, from (H_N - z) x = e_boundary."""
    if side == "right":
        sites = range(n + 1, n + N + 1)
        idx = 0
    else:
        sites = range(n - N, n)
        idx = N - 1
    a = np.array([coef.a(k) for k in sites])
    b = np.array([coef.b(k) for k in sites])
    ab = np.zeros((3, N), dtype=complex)
    ab[0, 1:] = a[:-1]
    ab[1, :] = b - z
    ab[2, :-1] = a[:-1]
    rhs = np.zeros(N, dtype=complex)
    rhs[idx] = 1.0
    return complex(solve_banded((1, 1), ab, rhs)[idx])


# ---------------------------------------------------------------------------
# transport

def fermi_difference(lam, beta_l, mu_l, beta_r, mu_r):
    def f(beta, mu):
        x = beta * (lam - mu)
        return 1.0 / (1.0 + math.exp(x)) if x < 700 else 0.0
    return f(beta_l, mu_l) - f(beta_r, mu_r)


def landauer(coef, beta_l, mu_l, beta_r, mu_r, transmission=None):
    """(I_charge, I_energy) = (2 pi)^-1 int T (f_l - f_r) (1, lam) dlam."""
    if transmission is None:
        def transmission(lam):
            return 1.0 - reflection(coef, lam)
    charge = energy = 0.0
    for lo, hi in bands(coef):
        def integrand(lam, power):
            return (transmission(lam) * fermi_difference(lam, beta_l, mu_l, beta_r, mu_r)
                    * lam ** power)
        for power in (0, 1):
            val, _ = integrate.quad(integrand, lo, hi, args=(power,), epsabs=1e-13,
                                    epsrel=1e-12, limit=200)
            if power == 0:
                charge += val
            else:
                energy += val
    return charge / (2.0 * math.pi), energy / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# free-chain propagation

def free_evolve(amplitudes, t):
    """e^{-itJ} of the free chain on an unbounded lattice, via the Bessel kernel.

    ``amplitudes`` covers sites -N..N; the result covers the same sites
    (mass that would leave the window is the caller's horizon problem).
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    size = amplitudes.size
    d = np.arange(-(size - 1), size)
    kernel = (-1j) ** (np.abs(d) % 4) * jv(np.abs(d), 2.0 * t)
    full = np.convolve(amplitudes, kernel)
    return full[size - 1: 2 * size - 1]
