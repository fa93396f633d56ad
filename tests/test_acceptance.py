"""Acceptance gate: the nine top-level criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  The random-perturbation suite shared by criteria 4-6 is
generated with the recorded seed family ``(1, i)`` for i in 0..99.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from jacobi_reflect import (alpha_beta, alpha_beta_grid, band_edges, band_grid,
                            band_intervals, discriminant, dynamical_reflection, evolve,
                            explicit_grid, jost_solution, landauer_current,
                            m_left_boundary, m_right, m_right_boundary, make_plan,
                            reflectionless_report, scattering_grid,
                            spectral_reflection_mratio_grid, unitarity_defect_grid,
                            wronskian, BoundaryPoint, LatticeState)

from util import (free_spec, m_oracle_truncated, period2_spec, random_spec, seeded_specs,
                  single_site_spec)

SUITE_SEED = 1
SUITE_SIZE = 100


@pytest.fixture(scope="module")
def equivalence_suite():
    suite = []
    for spec in seeded_specs(SUITE_SEED, SUITE_SIZE):
        grid = explicit_grid(spec, -1.99, 1.99, 0.01)
        report = reflectionless_report(spec, grid)
        suite.append((spec, grid, report))
    return suite


def test_criterion_1_free_operator_reflectionless():
    spec = free_spec()
    t0 = time.perf_counter()
    grid = explicit_grid(spec, -1.999, 1.999, 1e-3)
    res = scattering_grid(spec, 0, grid.points)
    m_r = m_right_boundary(spec, 0, grid.points)
    m_l = m_left_boundary(spec, 1, grid.points)
    product_residual = np.abs(m_r * np.conj(m_l) - 1.0)
    elapsed = time.perf_counter() - t0
    max_re_g = np.abs(res["g"].real).max()
    max_s_ll = np.abs(res["s_ll"]).max()
    print(f"criterion 1: max|Re G00| = {max_re_g:.3e}, max|s_ll| = "
          f"{np.abs(res['s_ll']).max():.3e}, max m-product residual = "
          f"{product_residual.max():.3e}, runtime {elapsed:.3f}s")
    assert max_re_g <= 1e-10
    assert max_s_ll <= 1e-10
    assert product_residual.max() <= 1e-10
    assert elapsed <= 1.0


def test_criterion_2_single_site_closed_forms():
    spec = single_site_spec()
    res = scattering_grid(spec, 0, np.array([0.0]))
    r_stat = abs(res["s_ll"][0]) ** 2
    t_stat = abs(res["s_lr"][0]) ** 2
    re_g = res["g"][0].real
    r_jost = alpha_beta(spec, 0.0).R_r
    values = np.array([r_stat, re_g, r_jost])
    print(f"criterion 2: |s_ll|^2 = {r_stat:.12f}, |s_lr|^2 = {t_stat:.12f}, "
          f"Re G00 = {re_g:.12f}, R_r = {r_jost:.12f}")
    np.testing.assert_allclose(values, 0.2, atol=1e-10)
    np.testing.assert_allclose(t_stat, 0.8, atol=1e-10)
    assert np.abs(values - values[0]).max() <= 1e-10
    grid = explicit_grid(spec, -1.999, 1.999, 1e-3)
    defect = unitarity_defect_grid(scattering_grid(spec, 0, grid.points)).max()
    print(f"criterion 2: max unitarity defect = {defect:.3e}")
    assert defect <= 1e-10


def test_criterion_3_period2_reflectionless_and_band_edges():
    spec = period2_spec()
    report = reflectionless_report(spec, band_grid(spec, 1000))
    max_resid = report.criterion_residuals().max()
    print(f"criterion 3: all_pass = {report.all_pass()}, max criterion "
          f"residual = {max_resid:.3e}")
    assert report.all_pass()
    assert report.agree.all()
    # edge locations against the monodromy-eigenvalue oracle
    poly = discriminant(spec.background)
    for edge in band_edges(spec.background):
        assert abs(abs(poly(edge)) - 2.0) <= 1e-8
        m = np.eye(2)
        for k in (1, 2):
            a_k, b_k = spec.background.value_at(k)
            a_prev = spec.background.value_at(k - 1)[0]
            m = np.array([[(edge - b_k) / a_k, -a_prev / a_k], [1, 0]]) @ m
        np.testing.assert_allclose(np.abs(np.linalg.eigvals(m)), 1.0, atol=1e-6)


def test_criterion_4_equivalence_suite_agreement_and_gap(equivalence_suite):
    disagreeing = 0
    gap_violations = 0
    min_large = np.inf
    max_small = 0.0
    for spec, grid, report in equivalence_suite:
        if not report.agree.all():
            disagreeing += 1
        if not report.residual_gap_ok():
            gap_violations += 1
        r = report.criterion_residuals()
        large = r[r >= 1e-3]
        small = r[r <= 1e-10]
        if large.size:
            min_large = min(min_large, large.min())
        if small.size:
            max_small = max(max_small, small.max())
    print(f"criterion 4: {SUITE_SIZE} specs, disagreeing = {disagreeing}, "
          f"gap violations = {gap_violations}, residual gap spans "
          f"[{max_small:.3e}, {min_large:.3e}]")
    assert disagreeing == 0
    assert gap_violations == 0


def test_criterion_5_cut_site_invariance(equivalence_suite):
    worst = 0.0
    for spec, grid, report in equivalence_suite:
        base = np.abs(scattering_grid(spec, 0, grid.points)["s_ll"])
        for n in range(-3, 4):
            here = np.abs(scattering_grid(spec, n, grid.points)["s_ll"])
            worst = max(worst, np.abs(here - base).max())
    print(f"criterion 5: max cut-site modulus deviation = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_6_reflection_route_identities(equivalence_suite):
    worst_s = 0.0
    worst_mratio = 0.0
    for spec, grid, report in equivalence_suite:
        lams = grid.points
        from_mratio = spectral_reflection_mratio_grid(spec, lams)
        from_s = np.abs(scattering_grid(spec, 0, lams)["s_rr"]) ** 2
        jost = alpha_beta_grid(spec, lams)
        assert jost.status == (None,) * lams.size
        worst_s = max(worst_s, np.abs(jost.R_r - from_s).max())
        worst_mratio = max(worst_mratio, np.abs(jost.R_r - from_mratio).max())
    print(f"criterion 6: max |R_jost - |s_rr|^2| = {worst_s:.3e}, "
          f"max |R_jost - R_mratio| = {worst_mratio:.3e}")
    assert worst_s <= 1e-8
    assert worst_mratio <= 1e-8


def test_criterion_7_dynamics_oracle():
    t0 = time.perf_counter()
    single = dynamical_reflection(single_site_spec(), 0.0, 0.05, 4000)
    free = dynamical_reflection(free_spec(), 0.0, 0.05, 2000)
    p2 = dynamical_reflection(period2_spec(), 0.85, 0.05, 4000)
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: single-site T_dyn = {single['T_dyn']:.6f}, free "
          f"T_dyn = {free['T_dyn']:.8f}, period-2 R_dyn = {p2['R_dyn']:.3e}, "
          f"runtime {elapsed:.1f}s")
    assert abs(single["T_dyn"] - 0.8) <= 0.05
    assert free["T_dyn"] >= 0.999
    assert p2["R_dyn"] <= 1e-2
    assert elapsed <= 600.0


def test_criterion_8_oracle_suite():
    rng = np.random.default_rng(8)
    worst_m = 0.0
    for _ in range(50):
        spec = random_spec(rng)
        z = complex(rng.uniform(-2, 2), 1e-2)
        n = int(rng.integers(-3, 4))
        exact = m_right(spec, n, BoundaryPoint.upper(z))
        worst_m = max(worst_m, abs(exact - m_oracle_truncated(spec, n, z, 4000)))
    assert worst_m <= 1e-6

    plan = make_plan(free_spec(), 300, 60)
    amps = np.zeros(601, dtype=complex)
    amps[240:361] = rng.normal(size=121) + 1j * rng.normal(size=121)
    amps /= np.linalg.norm(amps)
    state = LatticeState.from_amplitudes(300, amps)
    drift = abs(evolve(plan, state, 0.9 * plan.t_max).norm - 1.0)
    assert drift <= 1e-12

    worst_w = 0.0
    for _ in range(20):
        spec = random_spec(rng)
        lam = float(rng.uniform(-1.8, 1.8))
        u = jost_solution(spec, "r", lam, k_min=-8, k_max=8)
        v = jost_solution(spec, "l", lam, k_min=-8, k_max=8)
        w = np.array([wronskian(u, v, k) for k in range(-8, 8)])
        worst_w = max(worst_w, np.abs(w - w[0]).max() / max(np.abs(w).max(), 1.0))
    print(f"criterion 8: max m-oracle gap = {worst_m:.3e}, unitarity drift = "
          f"{drift:.3e}, Wronskian wobble = {worst_w:.3e}")
    assert worst_w <= 1e-12


def test_criterion_9_transport_sanity():
    zero = landauer_current(free_spec(), 2.0, 0.25, 2.0, 0.25)
    assert zero["charge_current"] == 0.0
    assert zero["energy_current"] == 0.0

    beta_l, mu_l, beta_r, mu_r = 2.0, 0.3, 1.0, -0.2
    out = landauer_current(free_spec(), beta_l, mu_l, beta_r, mu_r)

    def df(lam):
        f_l = 1.0 / (1.0 + np.exp(beta_l * (lam - mu_l)))
        f_r = 1.0 / (1.0 + np.exp(beta_r * (lam - mu_r)))
        return f_l - f_r

    oracle, _ = integrate.quad(lambda lam: df(lam) / (2 * np.pi), -2.0, 2.0,
                               epsabs=1e-13, epsrel=1e-13)
    gap = abs(out["charge_current"] - oracle)
    bias = (1.0, 0.5, 1.0, -0.5)
    i_free = landauer_current(free_spec(), *bias)["charge_current"]
    i_single = landauer_current(single_site_spec(), *bias)["charge_current"]
    print(f"criterion 9: free vs quadrature gap = {gap:.3e}, |I_barrier| = "
          f"{abs(i_single):.6f} < |I_free| = {abs(i_free):.6f}")
    assert gap <= 1e-8
    assert abs(i_single) < abs(i_free)
