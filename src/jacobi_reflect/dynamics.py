"""Finite-truncation time evolution and wave-packet scattering runs.

Propagation is a Chebyshev expansion (Tal-Ezer & Kosloff 1984) built from
tridiagonal matvecs, so memory stays O(N): with the spectrum inside
[c - r, c + r] by Gershgorin's theorem and X = (J - c) / r,
e^{-itJ} = e^{-itc} sum_k (2 - delta_k0) (-i sign t)^k J_k(r|t|) T_k(X),
cut where J_k(r|t|) past k = r|t| drops below CHEB_TOL.  The J_k are the
minimal solution of the Bessel three-term recurrence, taken by Miller's
backward recurrence on the ratios J_k / J_{k-1} and normalized by
J_0 + 2 sum J_2k = 1 (Gautschi, SIAM Rev. 9, 24 (1967)).  The k-th term
spreads the initial support by at most k sites per side, so one kernel runs
the recurrence over light cones from T_0 = phi and T_{-1} = 0: term 0 alone,
its output 2X T_0 halved in place to T_1, then CONE_BLOCK terms at a time on
the cone of the block's last term, with no array allocated and no slice taken
per term.  The sites between a term's own cone and its block's hold exact
zeros, so every nonzero amplitude has the bits of the full-lattice sum; only
the sign of a zero there may differ.  Wave packets are Gaussian position
envelopes riding a Bloch wave of the background, oriented toward the
perturbation window.  The Bloch wave is a Floquet solution, u_{k+p} = mu u_k:
``jost._jost_values`` reads psi_r of the bare background at lambda0 + i0,
which moves right, on sites 0..p+1, with its checks.  Its period u_0..u_{p-1}
and mu = u_p / u_0 make the carrier, which the packet extends by repeated
products of mu from its first period on (conjugated for a packet moving
left).  The horizon t_max keeps everything away from the hard truncation
boundary, so no absorbing layers are needed.

A packet is placed and observed by its own geometry, not by N.  Its
envelope has radius = ceil(PACKET_CUTOFF sigma), and its centre sits
depth = w_ext + 2 + radius + PACKET_MARGIN sites from site 0, w_ext the
largest |site| of the window.  A run from the left is observed at
t* = (depth + radius + w_ext + PACKET_MARGIN) / v_lo, v_lo the smallest
group velocity at lambda0 and lambda0 +- 3 dlambda: by then the trailing
edge of every part of the packet at least that fast is PACKET_MARGIN sites
past the window, whichever way it went.  Its masses on sites <= -1 / >= +1
estimate the stationary reflection/transmission probabilities, and the
site-0 remnant is reported separately (it is excluded from both).  What
may not have cleared is the energy profile's tail past 3 dlambda,
ENERGY_TAIL of the mass; a packet that leaves more than that on the window
and PACKET_MARGIN sites either side has not cleared, and is refused.  A run
is built on n_min, the smallest N that holds it: a larger N changes neither
its bits nor its cost, and a smaller one is refused with ``WindowTooSmall``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt
from typing import NamedTuple

import numpy as np

from .bands import _inset_bands, band_intervals
from .errors import CrossCheckFailure, HorizonExceeded, WindowTooSmall, _named, raise_first
from .jost import _jost_values
from .model import N_MAX, JacobiSpec, _check_energies, _check_integer, _check_real, truncate
from .scattering import scattering_grid

PACKET_CUTOFF = 5.0   # envelope support radius in units of sigma
PACKET_MARGIN = 10    # sites between the window and a packet's edge, at the start and at t*
CHEB_TOL = 1e-18      # last Bessel coefficient kept in the Chebyshev sum
# Chebyshev terms per light cone: a block of terms runs on the cone of its
# last term.  At 1 each term runs on its own cone; 16, 32 and 64 measured the same
CONE_BLOCK = 32
# the share of a Gaussian energy profile of width dlambda outside lambda0 +- 3 dlambda
ENERGY_TAIL = erfc(3.0 / sqrt(2.0))
# 21-node Gauss-Hermite rule (weight exp(-x^2 / 2)) for the stationary average,
# built once and read-only
_HERMITE_X, _HERMITE_W = np.polynomial.hermite_e.hermegauss(21)
_HERMITE_X.flags.writeable = _HERMITE_W.flags.writeable = False

__all__ = [
    "LatticeState",
    "PropagationPlan",
    "make_plan",
    "evolve",
    "wave_packet",
    "group_velocity",
    "dynamical_reflection",
    "projection_defect",
]


@dataclass(eq=False)
class LatticeState:
    """Amplitudes over sites -N..N; ``norm`` is read off them as they are now."""

    N: int
    amplitudes: np.ndarray

    @classmethod
    def from_amplitudes(cls, N, amplitudes):
        _check_integer(N, "N")
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (2 * N + 1,):
            raise ValueError(f"expected {2 * N + 1} amplitudes, got {amplitudes.shape}")
        return cls(N=N, amplitudes=amplitudes)

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def _index(self, k):
        _check_integer(k, "site k")
        if not -self.N <= k <= self.N:
            raise IndexError(f"site {k} outside -N..N with N = {self.N}")
        return k + self.N

    def site(self, k):
        return self.amplitudes[self._index(k)]

    def mass(self, k_lo, k_hi):
        """Probability mass on sites k_lo..k_hi inclusive, both in -N..N."""
        i0, i1 = self._index(k_lo), self._index(k_hi) + 1
        return float(np.sum(np.abs(self.amplitudes[i0:i1]) ** 2))


@dataclass(eq=False)
class PropagationPlan:
    """Truncation, its spectral interval center +- radius, and the time horizon."""

    truncation: object
    center: float
    radius: float
    t_max: float


def _window_extent(spec):
    """The largest |site| of the perturbation window, 0 without one."""
    win = spec.window
    return max(abs(win[0]), abs(win[1])) if win else 0


def _v_max(spec):
    """2 max a, the largest speed of any front on the lattice."""
    return 2.0 * max(spec.background.a + spec.a_override)


def _horizon(spec, N, k_pack):
    """t_max: a front from |k| <= k_pack at v_max stays the window's extent
    away from the truncation boundary until then."""
    return (N - k_pack - _window_extent(spec)) / _v_max(spec)


def make_plan(spec, N, k_pack):
    """Plan for a packet initially confined to |k| <= k_pack."""
    _check_integer(k_pack, "packet extent k_pack")
    if k_pack < 0:
        raise ValueError(f"packet extent k_pack must be >= 0, got {k_pack}")
    trunc = truncate(spec, N)
    t_max = _horizon(spec, N, k_pack)
    if t_max <= 0:
        raise WindowTooSmall(
            f"truncation N = {N} leaves no propagation room for extent {k_pack}"
        )
    reach = np.append(trunc.offdiag, 0.0) + np.append(0.0, trunc.offdiag)
    lo, hi = np.min(trunc.diag - reach), np.max(trunc.diag + reach)   # Gershgorin
    return PropagationPlan(truncation=trunc, center=float(lo + hi) / 2,
                           radius=float(hi - lo) / 2, t_max=t_max)


def _bessel_coefficients(z):
    """J_k(z) up to the first k > z with |J_k(z)| < CHEB_TOL.

    r_k = J_k / J_{k-1} = z / (2k - z r_{k+1}) runs down from r = 0 at the cap;
    unlike unscaled backward values, the ratios cannot overflow.
    """
    # past k = z an Airy tail of width ~z^(1/3) reaches CHEB_TOL well within the cap
    ks = np.arange(int(z + 20.0 * np.cbrt(z)) + 40)
    ratios = np.ones(ks.size)
    r = 0.0
    for k in range(ks.size - 1, 0, -1):
        r = ratios[k] = z / (2.0 * k - z * r)
    jk = np.cumprod(ratios)
    jk /= jk[0] + 2.0 * jk[2::2].sum()
    return jk[: np.flatnonzero((ks > z) & (np.abs(jk) < CHEB_TOL))[0]]


def evolve(plan, state, t):
    """e^{-itJ} on the truncation; a state of another N, a non-finite t or
    |t| past the horizon is refused.

    One kernel forms every term from T_0 = phi and T_{-1} = 0: term 0 alone,
    its output 2X T_0 halved in place to T_1, then CONE_BLOCK terms at a time,
    each block on the light cone of the term it ends by forming.  A block
    takes its views once, of 2X (cast to complex once per call), of the sum
    and of two work buffers allocated once per call, which swap roles from
    term to term; a term is 8 in-place ufunc calls, operands in the order of
    the plain expressions.  Outside a term's own cone its block holds exact
    zeros, so every nonzero amplitude has the bits of the full-lattice sum;
    only the sign of a zero may differ.
    """
    if state.N != plan.truncation.N:
        raise ValueError(f"state on sites -N..N with N = {state.N} does not match the "
                         f"plan's truncation, N = {plan.truncation.N}")
    t = _check_real(t, "t")
    if not np.isfinite(t):
        raise ValueError(f"evolution time t must be finite, got {t!r}")
    if abs(t) > plan.t_max:
        raise HorizonExceeded(f"|t| = {abs(t)} exceeds horizon {plan.t_max:.3f}")
    trunc, c, r = plan.truncation, plan.center, plan.radius
    # 2X, cast to complex as a real x complex product casts it
    diag2 = (2.0 * (trunc.diag - c) / r).astype(complex)
    off2 = (2.0 * trunc.offdiag / r).astype(complex)
    jk = _bessel_coefficients(r * abs(t))
    powers = np.array([1, -1j, -1, 1j]) if t >= 0 else np.array([1, 1j, -1, -1j])
    weights = 2.0 * jk * powers[np.arange(jk.size) % 4]
    # T_k(X) phi vanishes outside the cone [s0 - k, s1 + k) of phi's support [s0, s1)
    n, nz = state.amplitudes.size, np.flatnonzero(state.amplitudes)
    s0, s1 = (nz[0], nz[-1] + 1) if nz.size else (0, 1)
    two_x, tmp = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    # T_k = 2X T_{k-1} - T_{k-2} from T_0 = phi and T_{-1} = 0, term 0's weight halved
    cur, prev = state.amplitudes.copy(), np.zeros(n, dtype=complex)
    acc = np.zeros(n, dtype=complex)
    ws = weights.tolist()
    ws[0] *= 0.5
    # term 0 alone, then CONE_BLOCK terms at a time, each block ws[start:k] on the
    # cone of the term k it ends by forming, every view taken once a block
    bounds = [0, *range(1, len(ws), CONE_BLOCK), len(ws)]
    for start, k in zip(bounds, bounds[1:]):
        lo, hi = max(s0 - k, 0), min(s1 + k, n)
        diag, off, total = diag2[lo:hi], off2[lo:hi - 1], acc[lo:hi]
        out, out_lo, out_hi = two_x[lo:hi], two_x[lo:hi - 1], two_x[lo + 1:hi]
        term, prod = tmp[lo:hi], tmp[lo:hi - 1]
        new, old = ((v, v[1:], v[:-1]) for v in (cur[lo:hi], prev[lo:hi]))
        for w in ws[start:k]:
            v, v_up, v_dn = new
            np.multiply(w, v, out=term)
            total += term
            np.multiply(diag, v, out=out)
            np.multiply(off, v_up, out=prod)
            out_lo += prod
            np.multiply(off, v_dn, out=prod)
            out_hi += prod
            np.subtract(out, old[0], out=old[0])
            new, old = old, new
        if start == 0:
            np.multiply(0.5, new[0], out=new[0])  # 2X T_0 - T_{-1} = 2 T_1
        if (k - start) % 2:
            prev, cur = cur, prev
    np.multiply(np.exp(-1j * c * t), acc, out=acc)
    return LatticeState.from_amplitudes(state.N, acc)


def _floquet_wave(background, lams):
    """``(u, mu, v_g)`` at each energy: psi_r of the background at lambda + i0,
    whose Im m > 0 branch moves right, on one period, sites 0..p-1, as
    [site, energy], its multiplier mu = u_p / u_0 and its group velocity, the
    flux over the mean density of one period.  ``jost._jost_values`` reads
    it on sites 0..p+1; its ``"edge"``, ``"right seed"``, ``"right range"``
    and ``"right recursion"`` checks are raised."""
    spec = JacobiSpec(background=background)
    p = background.period
    (u, _), a, checks, _ = _jost_values(spec, lams, 0, p + 1)
    raise_first(_named(checks, "edge", "right seed", "right range", "right recursion"))
    cur = -2.0 * a[0] * np.imag(np.conj(u[0]) * u[1])
    dens = np.sum(np.abs(u[:p]) ** 2, axis=0) / p
    return u[:p], u[p] / u[0], cur / dens


def group_velocity(background, lam0):
    """Transport speed (sites per unit time) of a rightward in-band carrier."""
    _check_packet_band(background, lam0, 0.0)
    return _floquet_wave(background, [lam0])[2][0]


def _check_packet_band(background, lam0, dlam):
    _check_energies([lam0])
    for lo, hi in band_intervals(background):
        if lo < lam0 - 3 * dlam and lam0 + 3 * dlam < hi:
            return
    raise ValueError(
        f"[{lam0 - 3 * dlam}, {lam0 + 3 * dlam}] is not inside a spectral band"
    )


class _Geometry(NamedTuple):
    """A packet's carrier period u, multiplier mu, envelope width sigma and
    radius, its centre's distance from site 0, and its clearing time t*."""

    u: np.ndarray
    mu: complex
    sigma: float
    radius: int
    depth: int
    t_star: float


def _packet_geometry(spec, side, lam0, dlam, N):
    """Validate a packet request and place the packet, whatever N is."""
    if side not in ("l", "r"):
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
    dlam = _check_real(dlam, "dlambda")
    if not dlam > 0:
        raise ValueError(f"energy width dlambda must be positive, got {dlam}")
    _check_integer(N, "N")
    bg = spec.background
    _check_packet_band(bg, lam0, dlam)
    u, mu, v_g = _floquet_wave(bg, [lam0, lam0 - 3 * dlam, lam0 + 3 * dlam])
    # the radius PACKET_CUTOFF * sigma is a lattice extent: refused past N_MAX,
    # compared without the division, which may overflow
    if not PACKET_CUTOFF * v_g[0] <= 2.0 * N_MAX * dlam:
        raise ValueError(f"dlambda = {dlam} puts the packet radius past N_MAX = {N_MAX} sites; "
                         f"at lambda0 = {lam0} it must be at least "
                         f"{PACKET_CUTOFF * v_g[0] / (2.0 * N_MAX):.6g}")
    sigma = v_g[0] / (2.0 * dlam)
    radius = int(np.ceil(PACKET_CUTOFF * sigma))
    w_ext = _window_extent(spec)
    depth = w_ext + 2 + radius + PACKET_MARGIN
    # the trailing edge at -(depth + radius) travels to w_ext + PACKET_MARGIN
    t_star = float((depth + radius + w_ext + PACKET_MARGIN) / v_g.min())
    return _Geometry(u[:, 0], mu[0], float(sigma), radius, depth, t_star)


def _place(geo, side, N):
    """The normalized packet of ``geo`` on sites -N..N, on the given side."""
    center = -geo.depth if side == "l" else geo.depth
    radius, sigma = geo.radius, geo.sigma
    if abs(center) + radius >= N:
        raise WindowTooSmall(
            f"N = {N} cannot hold a packet of radius {radius} at {center}"
        )
    k_lo, k_hi = center - radius, center + radius
    # u_{qp + j} = mu^q u_j, the powers as repeated products from the packet's
    # first period on: a rounding of mu**q would grow with q
    p = geo.u.size
    skip = k_lo % p
    periods = np.empty(((skip + 2 * radius) // p + 1, p), dtype=complex)
    periods[0], periods[1:] = geo.u, geo.mu
    carrier = np.cumprod(periods, axis=0).ravel()[skip: skip + 2 * radius + 1]
    ks = np.arange(k_lo, k_hi + 1)
    envelope = np.exp(-((ks - center) ** 2) / (4.0 * sigma * sigma))
    amplitudes = np.zeros(2 * N + 1, dtype=complex)
    amplitudes[k_lo + N: k_hi + N + 1] = envelope * (carrier if side == "l" else np.conj(carrier))
    amplitudes /= np.linalg.norm(amplitudes)
    return LatticeState.from_amplitudes(N, amplitudes)


def wave_packet(spec, side, lam0, dlam, N):
    """Normalized Gaussian packet on one side of the window, moving toward it.

    Energy concentration (lam0, dlam) fixes the envelope width through the
    group velocity, sigma = v_g / (2 dlam), and its support radius =
    ceil(PACKET_CUTOFF sigma).  The centre sits w_ext + 2 + radius +
    PACKET_MARGIN sites from site 0, w_ext the largest |site| of the window,
    so the packet starts the same distance from the window whatever N is;
    an N that cannot hold it is refused with ``WindowTooSmall``.
    """
    return _place(_packet_geometry(spec, side, lam0, dlam, N), side, N)


def _stationary_reflection_avg(spec, lam0, dlam):
    """21-node Gauss-Hermite average of the stationary R over the packet's energies."""
    lams = lam0 + dlam * _HERMITE_X
    lo, hi = _inset_bands(spec.background).T[..., None]   # [band, node] with lams
    keep = ((lo < lams) & (lams < hi)).any(axis=0)
    res = scattering_grid(spec, 0, lams[keep])
    r = np.abs(res["s_ll"]) ** 2
    return float(np.sum(_HERMITE_W[keep] * r) / np.sum(_HERMITE_W[keep]))


def _smallest_half_width(spec, k_pack, t_star):
    """The smallest N whose horizon reaches t* for a packet of extent k_pack."""
    n = int(np.ceil(k_pack + _window_extent(spec) + _v_max(spec) * t_star))
    # make_plan's rounded horizon decides: step past a rounding either way
    n += _horizon(spec, n, k_pack) < t_star
    n -= _horizon(spec, n - 1, k_pack) >= t_star
    return n


def _left_packet_run(spec, lam0, dlam, N):
    """The left packet, its plan and its clearing time t*, all on n_min, the
    smallest N whose horizon reaches t*; an N below it is refused, naming it."""
    geo = _packet_geometry(spec, "l", lam0, dlam, N)
    k_pack = geo.depth + geo.radius
    n_min = _smallest_half_width(spec, k_pack, geo.t_star)
    if N < n_min:
        beyond = f", above N_MAX = {N_MAX}" if n_min > N_MAX else ""
        raise WindowTooSmall(
            f"N = {N} is too small for the packet at lambda0 = {lam0} to clear the "
            f"window by t* = {geo.t_star:.6g}: the smallest N that works is {n_min}{beyond}"
        )
    return _place(geo, "l", n_min), make_plan(spec, n_min, k_pack), geo.t_star


def dynamical_reflection(spec, lam0, dlam, N):
    """Packet run from the left; masses once it has cleared the window.

    The packet is ``wave_packet(spec, "l", lam0, dlam, n_min)`` on the run's
    own truncation (module docstring), observed at t*.  Returns a dict with
    the caller's N, R_dyn (mass on sites <= -1 at t*), T_dyn (>= +1), the
    site-0 remnant, t_star, window_mass (the mass on sites within w_ext +
    PACKET_MARGIN of site 0) and the stationary packet-averaged reflection.
    Only the energy profile's tail past 3 dlambda may still sit anywhere at
    t*, so a window_mass above ENERGY_TAIL, mass that does not leave (a bound
    state's overlap), is refused with ``CrossCheckFailure``.  R_dyn is then
    within ENERGY_TAIL of R averaged over the packet's own energies.  The
    stationary average takes them as a Gaussian in lambda, where the packet's
    is a Gaussian in quasi-momentum: near a band edge the two differ at second
    order in dlambda / v_g.
    """
    dlam = _check_real(dlam, "dlambda")     # the row reports the checked float
    packet, plan, t_star = _left_packet_run(spec, lam0, dlam, N)
    out = evolve(plan, packet, t_star)
    reach = _window_extent(spec) + PACKET_MARGIN
    window = out.mass(-reach, reach)
    if window > ENERGY_TAIL:
        raise CrossCheckFailure(
            f"packet has not cleared the window at t* = {t_star:.6g}: mass {window:.3e} "
            f"on sites -{reach}..{reach} exceeds the energy tail {ENERGY_TAIL:.3e}"
        )
    r_dyn = out.mass(-out.N, -1)
    t_dyn = out.mass(1, out.N)
    site0 = float(np.abs(out.site(0)) ** 2)
    r_stat = _stationary_reflection_avg(spec, lam0, dlam)
    return {
        "lambda0": lam0,
        "dlambda": dlam,
        "N": N,
        "t_star": t_star,
        "R_dyn": r_dyn,
        "T_dyn": t_dyn,
        "site0_mass": site0,
        "window_mass": window,
        "R_stationary_avg": r_stat,
        "abs_error": abs(r_dyn - r_stat),
    }


def projection_defect(spec, lam0, dlam, N):
    """Idempotency/completeness defect of the evolved side projections.

    Approximates the asymptotic side projection by conjugating the sharp
    site mask with the evolution: P phi = e^{itJ} chi e^{-itJ} phi at
    t = t*, on the run's own truncation n_min.  Returns
    ||P_l^2 phi - P_l phi|| plus the defect of
    ||P_l phi||^2 + ||P_r phi||^2 + |<delta_0, e^{-itJ} phi>|^2 = 1.
    """
    packet, plan, t_star = _left_packet_run(spec, lam0, dlam, N)

    def mask(state, side):
        amp, n = state.amplitudes.copy(), state.N
        if side == "l":
            amp[n:] = 0.0          # keep sites <= -1
        else:
            amp[: n + 1] = 0.0     # keep sites >= +1
        return LatticeState.from_amplitudes(n, amp)

    def project(fwd, side):
        """P psi, given fwd = e^{-itJ} psi."""
        return evolve(plan, mask(fwd, side), -t_star)

    fwd = evolve(plan, packet, t_star)
    p_l = project(fwd, "l")
    p_ll = project(evolve(plan, p_l, t_star), "l")
    idem = float(np.linalg.norm(p_ll.amplitudes - p_l.amplitudes))

    p_r = project(fwd, "r")
    total = p_l.norm ** 2 + p_r.norm ** 2 + abs(fwd.site(0)) ** 2
    return idem + abs(total - packet.norm ** 2)
