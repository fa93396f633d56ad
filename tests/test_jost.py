import numpy as np
import pytest

from jacobi_reflect import (Background, BoundaryPoint, JacobiSpec, alpha_beta,
                            band_intervals, green_diag, green_offdiag,
                            jost_solution, m_left, m_right, scattering_matrix,
                            spectral_reflection_mratio,
                            spectral_reflection_mratio_grid, wronskian)

from util import free_spec, period2_spec, random_spec, single_site_spec


def test_free_jost_closed_form():
    spec = free_spec()
    psi_r = jost_solution(spec, "r", 0.0, k_min=-4, k_max=4)
    psi_l = jost_solution(spec, "l", 0.0, k_min=-4, k_max=4)
    for k in range(-4, 5):
        np.testing.assert_allclose(psi_r.value(k), (-1j) ** k, atol=1e-13)
        np.testing.assert_allclose(psi_l.value(k), (-1j) ** (-k), atol=1e-13)
    np.testing.assert_allclose(wronskian(psi_l, psi_r, 0), 2j, atol=1e-13)


def test_jost_decay_into_gap_side():
    # at an in-band energy the solution is bounded and oscillatory
    spec = single_site_spec()
    psi = jost_solution(spec, "r", 0.5, k_min=0, k_max=40)
    mags = np.abs([psi.value(k) for k in range(5, 41)])
    np.testing.assert_allclose(mags, mags[0], atol=1e-10)


def test_m_from_jost_relations():
    rng = np.random.default_rng(47)
    for _ in range(25):
        spec = random_spec(rng)
        lam = float(rng.uniform(-1.8, 1.8))
        psi_r = jost_solution(spec, "r", lam, k_min=0, k_max=1)
        psi_l = jost_solution(spec, "l", lam, k_min=0, k_max=1)
        a0 = spec.a(0)
        m_r = m_right(spec, 0, BoundaryPoint.real(lam)).value
        m_l = m_left(spec, 1, BoundaryPoint.real(lam)).value
        assert abs(m_r - (-psi_r.value(1) / a0)) <= 1e-9
        assert abs(m_l - (-1.0 / (a0 * psi_l.value(1)))) <= 1e-9


def test_wronskian_is_k_independent():
    rng = np.random.default_rng(53)
    for _ in range(20):
        spec = random_spec(rng)
        lam = float(rng.uniform(-1.8, 1.8))
        u = jost_solution(spec, "r", lam, k_min=-8, k_max=8)
        v = jost_solution(spec, "l", lam, k_min=-8, k_max=8)
        w = np.array([wronskian(u, v, k) for k in range(-8, 8)])
        scale = max(np.abs(w).max(), 1.0)
        assert np.abs(w - w[0]).max() <= 1e-12 * scale


def test_free_alpha_beta():
    datum = alpha_beta(free_spec(), 0.7)
    np.testing.assert_allclose(datum.alpha, 1.0, atol=1e-12)
    np.testing.assert_allclose(datum.beta, 0.0, atol=1e-12)
    assert datum.R_r <= 1e-12


def test_single_site_reflection():
    datum = alpha_beta(single_site_spec(), 0.0)
    np.testing.assert_allclose(datum.R_r, 0.2, atol=1e-12)
    np.testing.assert_allclose(spectral_reflection_mratio(single_site_spec(), 0.0),
                               0.2, atol=1e-12)


def test_alpha_beta_expands_left_solution():
    # psi_l = alpha conj(psi_r) + beta psi_r, checked site by site
    rng = np.random.default_rng(59)
    for _ in range(25):
        spec = random_spec(rng)
        lam = float(rng.uniform(-1.8, 1.8))
        datum = alpha_beta(spec, lam)
        psi_r = jost_solution(spec, "r", lam, k_min=-3, k_max=3)
        psi_l = jost_solution(spec, "l", lam, k_min=-3, k_max=3)
        for k in range(-3, 4):
            expect = (datum.alpha * np.conj(psi_r.value(k))
                      + datum.beta * psi_r.value(k))
            assert abs(psi_l.value(k) - expect) <= 1e-9 * max(1.0,
                                                              abs(psi_l.value(k)))
        assert 0.0 <= datum.R_r <= 1.0


def test_reflection_triple_identity():
    rng = np.random.default_rng(61)
    lams = np.linspace(-1.7, 1.7, 35)
    for _ in range(8):
        spec = random_spec(rng)
        from_mratio = spectral_reflection_mratio_grid(spec, lams)
        for j, lam in enumerate(lams):
            datum = alpha_beta(spec, float(lam))
            from_s = abs(scattering_matrix(spec, 0, float(lam)).s_rr) ** 2
            assert abs(datum.R_r - from_mratio[j]) <= 1e-8
            assert abs(datum.R_r - from_s) <= 1e-8


def test_pure_periodic_is_reflectionless():
    lams = np.array([0.8, 1.0, 1.3, -0.8, -1.0, -1.3])
    r = spectral_reflection_mratio_grid(period2_spec(), lams)
    np.testing.assert_allclose(r, 0.0, atol=1e-12)


def test_green_offdiag_free_closed_form():
    spec = free_spec()
    for n, m in [(0, 0), (0, 1), (-2, 3), (1, -1)]:
        g = green_offdiag(spec, n, m, 0.0)
        np.testing.assert_allclose(g, 0.5j * (-1j) ** abs(n - m), atol=1e-12)


def test_green_offdiag_symmetry_and_diagonal():
    rng = np.random.default_rng(67)
    for _ in range(10):
        spec = random_spec(rng)
        lam = float(rng.uniform(-1.7, 1.7))
        np.testing.assert_allclose(green_offdiag(spec, -2, 3, lam),
                                   green_offdiag(spec, 3, -2, lam), rtol=1e-10)
        g_diag = green_diag(spec, 0, BoundaryPoint.real(lam)).value
        np.testing.assert_allclose(green_offdiag(spec, 0, 0, lam), g_diag,
                                   rtol=1e-9)


def _perturbed_periodic_spec(rng, p):
    """Period-p background with a perturbation window of length 1..4."""
    length = int(rng.integers(1, 5))
    return JacobiSpec(background=Background.periodic(tuple(rng.uniform(0.6, 1.4, p)),
                                                     tuple(rng.uniform(-0.5, 0.5, p))),
                      offset=int(rng.integers(-3, 2)),
                      a_override=tuple(rng.uniform(0.5, 2.0, length)),
                      b_override=tuple(rng.uniform(-1.0, 1.0, length)))


def _monodromy(spec, K, z):
    # dense 2x2 product over sites K+1 .. K+p, sending (psi_{K+1}, psi_K) up a period
    m = np.eye(2, dtype=complex)
    for k in range(K + 1, K + spec.background.period + 1):
        step = np.array([[(z - spec.b(k)) / spec.a(k), -spec.a(k - 1) / spec.a(k)],
                         [1.0, 0.0]])
        m = step @ m
    return m


def _floquet_ratios(spec, K, z):
    """psi_{K+1} / psi_K of the eigenvectors, the |mu| < 1 one first."""
    mu, vecs = np.linalg.eig(_monodromy(spec, K, z))
    ratios = vecs[0] / vecs[1]
    return ratios[np.argsort(np.abs(mu))]


def _inner_band_energies(spec):
    return [lo + f * (hi - lo) for lo, hi in band_intervals(spec.background)
            for f in (0.2, 0.5, 0.8)]


def test_jost_branch_on_perturbed_periodic_backgrounds():
    # beyond the window psi_right is the Floquet solution that decays at
    # lambda + i0, psi_left the one that grows toward +inf
    rng = np.random.default_rng(71)
    for p in (2, 3, 4) * 3:
        spec = _perturbed_periodic_spec(rng, p)
        # first sites whose one-period products see only the background
        k_right = max(spec.window[1] + 1, 1)
        k_left = spec.window[0] - 1 - p
        for lam in _inner_band_energies(spec):
            psi_r = jost_solution(spec, "r", lam, k_min=-1, k_max=k_right + 1)
            ratio = psi_r.value(k_right + 1) / psi_r.value(k_right)
            decaying, growing = _floquet_ratios(spec, k_right, lam + 1e-6j)
            assert abs(ratio - decaying) <= 1e-4
            assert abs(ratio - growing) >= 100 * abs(ratio - decaying)

            psi_l = jost_solution(spec, "l", lam, k_min=k_left, k_max=1)
            ratio = psi_l.value(k_left + 1) / psi_l.value(k_left)
            decaying, growing = _floquet_ratios(spec, k_left, lam + 1e-6j)
            assert abs(ratio - growing) <= 1e-4
            assert abs(ratio - decaying) >= 100 * abs(ratio - growing)

            r_s = abs(scattering_matrix(spec, 0, lam).s_rr) ** 2
            assert abs(alpha_beta(spec, lam).R_r - r_s) <= 1e-8


def test_closed_gap_reflection_matches_scattering():
    # the free chain written with period 2: its gap at 0 is closed, and a
    # branch rule that probes off the axis picks the wrong root near it
    spec = JacobiSpec(background=Background.periodic((1.0, 1.0), (0.0, 0.0)))
    r_s = abs(scattering_matrix(spec, 0, 1e-7).s_rr) ** 2
    assert abs(alpha_beta(spec, 1e-7).R_r - r_s) <= 1e-8
