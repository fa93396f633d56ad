"""Shared fixtures: canonical operators, the seeded spec generator, the
scipy-backed oracles the tests check the library against, and the
full-lattice Chebyshev loop the light-cone propagation must reproduce."""

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import jv

from jacobi_reflect import Background, JacobiSpec, coefficient_arrays
from jacobi_reflect.dynamics import _bessel_coefficients


def free_spec():
    return JacobiSpec()


def single_site_spec():
    # b_0 = 1 on the free chain
    return JacobiSpec(b_override=(1.0,))


def period2_spec():
    return JacobiSpec(background=Background.periodic((1.0, 0.5), (0.0, 0.0)))


def closed_gap_spec():
    # the free chain written as period 2: its gap at lambda = 0 is closed
    return JacobiSpec(background=Background.periodic((1.0, 1.0), (0.0, 0.0)))


def perturbed_period3_spec():
    return JacobiSpec(background=Background.periodic((1.0, 0.5, 0.8), (0.1, 0.0, -0.2)),
                      offset=-1, a_override=(1.3, 0.9), b_override=(0.2, -0.4))


def perturbed_periodic_spec(rng, p):
    """Period-p background with a perturbation window of length 1..4."""
    length = int(rng.integers(1, 5))
    return JacobiSpec(background=Background.periodic(tuple(rng.uniform(0.6, 1.4, p)),
                                                     tuple(rng.uniform(-0.5, 0.5, p))),
                      offset=int(rng.integers(-3, 2)),
                      a_override=tuple(rng.uniform(0.5, 2.0, length)),
                      b_override=tuple(rng.uniform(-1.0, 1.0, length)))


def random_spec(rng):
    """Finite perturbation of the free chain, window length <= 8."""
    length = int(rng.integers(1, 9))
    offset = int(rng.integers(-4, 5 - length))
    a = rng.uniform(0.5, 2.0, size=length)
    b = rng.uniform(-1.0, 1.0, size=length)
    return JacobiSpec(background=Background.free(), offset=offset,
                      a_override=tuple(a), b_override=tuple(b))


def doubly_commuted_free_spec(kappa, gamma, side, cut=1e-17):
    """The free chain with the eigenvalue lambda_1 = -+2 cosh(kappa) added by
    double commutation (Gesztesy and Teschl, J. Differential Equations 128
    (1996) 252): a reflectionless operator with a window, in closed form.

    u_j = s^j e^{kappa j}, s = -1 below the band ("below") and +1 above it,
    solves J u = lambda_1 u and is square-summable at -inf.  So
    c(n) = 1 + gamma sum_{j <= n} u_j^2 = 1 + g q^n, with q = e^{2 kappa}
    and g = gamma / (1 - e^{-2 kappa}).  The new coefficients
    a(n) = sqrt(c(n-1) c(n+1)) / c(n) and
    b(n) = gamma (u_n u_{n+1} / c(n) - u_{n-1} u_n / c(n-1)) are taken in the
    forms that do not cancel:
    a(n)^2 = 1 + g q^n (2 sinh kappa)^2 / c(n)^2 and
    b(n) = 2 gamma s sinh(kappa) e^{2 kappa n} / (c(n) c(n-1)).
    The window holds the sites where a(n)^2 - 1 or |b(n)| reaches ``cut``.
    Returns the spec and lambda_1.
    """
    s = {"below": -1.0, "above": 1.0}[side]
    reach = int(np.log(1.0 / cut) / kappa) + 10     # twice the decay length of the cut
    n = np.arange(-reach, reach + 1)
    g = gamma / (1.0 - np.exp(-2.0 * kappa))
    gq = g * np.exp(2.0 * kappa * n)
    c, c_prev = 1.0 + gq, 1.0 + g * np.exp(2.0 * kappa * (n - 1))
    da = gq * (2.0 * np.sinh(kappa)) ** 2 / c ** 2
    b = 2.0 * gamma * s * np.sinh(kappa) * np.exp(2.0 * kappa * n) / (c * c_prev)
    keep = np.flatnonzero((da >= cut) | (np.abs(b) >= cut))
    lo, hi = keep[0], keep[-1] + 1
    spec = JacobiSpec(offset=int(n[lo]), a_override=tuple(np.sqrt(1.0 + da[lo:hi])),
                      b_override=tuple(b[lo:hi]))
    return spec, s * 2.0 * np.cosh(kappa)


def seeded_specs(master, count):
    return [random_spec(np.random.default_rng((master, i))) for i in range(count)]


def m_oracle_truncated(spec, n, z, N, side="right"):
    """Finite-section oracle for the half-line m-function.

    Solves ``(H_N - z) x = e_boundary`` on N sites of the half line with a
    banded solver and returns the boundary component.  Independent of the
    Weyl sweep; truncation error decays exponentially in N for Im z > 0.
    """
    first = n + 1 if side == "right" else n - N
    a, b = coefficient_arrays(spec, first, first + N - 1)
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


def _step_product(spec, k_first, k_last, lam):
    """Dense 2x2 product of the transfer steps across sites k_first..k_last,
    sending (u_{k_first}, u_{k_first - 1}) to (u_{k_last + 1}, u_{k_last})."""
    m = np.eye(2)
    for k in range(k_first, k_last + 1):
        m = np.array([[(lam - spec.b(k)) / spec.a(k), -spec.a(k - 1) / spec.a(k)],
                      [1.0, 0.0]]) @ m
    return m


def _bloch_waves(spec, K, lam):
    """The two Bloch waves (u_{K+1}, u_K) of a band energy beyond site K, the
    one whose current a_K Im(u_{K+1} conj(u_K)) is positive first, and the
    two currents."""
    _, vecs = np.linalg.eig(_step_product(spec, K + 1, K + spec.background.period, lam))
    current = spec.a(K) * (vecs[0] * np.conj(vecs[1])).imag
    order = np.argsort(-current)
    return vecs[:, order], current[order]


def reflection_oracle(spec, lam):
    """Reflection probability at a band energy from dense transfer matrices.

    The scattering state that carries positive current alone on the right of
    the perturbation is taken across it and expanded over the two Bloch
    waves on its left, A w_+ + B w_-: R = |B|^2 |J_-| / (|A|^2 J_+).  The
    branches are told apart by the sign of their current, so nothing here
    assumes R <= 1, and nothing is shared with the package's sweep.
    """
    if spec.window is None:
        return 0.0
    p = spec.background.period
    k_left, k_right = spec.window[0] - 1 - p, spec.window[1] + 1
    right, _ = _bloch_waves(spec, k_right, lam)
    left, current = _bloch_waves(spec, k_left, lam)
    back = np.linalg.solve(_step_product(spec, k_left + 1, k_right, lam), right[:, 0])
    a, b = np.linalg.solve(left, back)
    return float(abs(b) ** 2 * abs(current[1]) / (abs(a) ** 2 * current[0]))


def free_propagator_kernel(k, t):
    """<delta_k, e^{-itJ} delta_0> for the free operator (Bessel kernel)."""
    k = np.abs(np.asarray(k))
    return (-1j) ** k * jv(k, 2.0 * t)


def _tridiag_apply(diag, off, v):
    """Symmetric tridiagonal matrix (diag, off) times v."""
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def full_lattice_evolve(plan, state, t):
    """Amplitudes of e^{-itJ} phi from the Chebyshev sum stepped over every site.

    The same expansion and coefficients as ``dynamics.evolve``, with each
    step ``T_{k+1} = 2X T_k - T_{k-1}`` taken on the whole truncation.
    """
    trunc, c, r = plan.truncation, plan.center, plan.radius
    diag2, off2 = 2.0 * (trunc.diag - c) / r, 2.0 * trunc.offdiag / r   # 2X
    jk = _bessel_coefficients(r * abs(t))
    powers = np.array([1, -1j, -1, 1j]) if t >= 0 else np.array([1, 1j, -1, -1j])
    weights = 2.0 * jk * powers[np.arange(jk.size) % 4]
    # T_0(X) phi and T_1(X) phi, then T_{k+1} = 2X T_k - T_{k-1}
    prev, cur = state.amplitudes, 0.5 * _tridiag_apply(diag2, off2, state.amplitudes)
    acc = 0.5 * weights[0] * prev
    for w in weights[1:]:
        acc += w * cur
        prev, cur = cur, _tridiag_apply(diag2, off2, cur) - prev
    return np.exp(-1j * c * t) * acc
