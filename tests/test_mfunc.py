import numpy as np
import pytest

from jacobi_reflect import (BandEdge, Background, BoundaryPoint, JacobiSpec,
                            NumericalError, PoleHit, ac_density, band_intervals,
                            green_diag_grid, m_left, m_left_boundary, m_left_grid,
                            m_right, m_right_boundary, m_right_grid)
from jacobi_reflect import mfunc

from util import (free_spec, m_oracle_truncated, period2_spec, perturbed_period3_spec,
                  perturbed_periodic_spec, random_spec, single_site_spec)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def test_free_fixtures_upper_half_plane():
    spec = free_spec()
    # m(z) = (-z + sqrt(z^2 - 4)) / 2 with the Herglotz branch
    m = m_right(spec, 0, BoundaryPoint.upper(1j))
    np.testing.assert_allclose(m, GOLDEN * 1j, atol=1e-14)
    m = m_left(spec, 0, BoundaryPoint.upper(1j))
    np.testing.assert_allclose(m, GOLDEN * 1j, atol=1e-14)


def test_free_fixtures_boundary():
    spec = free_spec()
    m0 = m_right(spec, 0, BoundaryPoint.real(0.0))
    np.testing.assert_allclose(m0, 1j, atol=1e-14)
    m1 = m_right(spec, 0, BoundaryPoint.real(1.0))
    np.testing.assert_allclose(m1, (-1.0 + 1j * np.sqrt(3.0)) / 2.0, atol=1e-14)
    # outside the band both roots are real; continuity picks the Herglotz one
    m3 = m_right(spec, 0, BoundaryPoint.real(3.0))
    np.testing.assert_allclose(m3, -(3.0 - np.sqrt(5.0)) / 2.0, atol=1e-14)
    assert abs(m3.imag) <= 1e-14


def test_single_site_left_fixture():
    spec = single_site_spec()
    m = m_left(spec, 1, BoundaryPoint.real(0.0))
    np.testing.assert_allclose(m, (1.0 + 1j) / 2.0, atol=1e-14)


def test_herglotz_positivity():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        spec = random_spec(rng)
        z = complex(rng.uniform(-3, 3), rng.uniform(1e-3, 1.0))
        n = int(rng.integers(-5, 6))
        assert m_right(spec, n, BoundaryPoint.upper(z)).imag > 0
        assert m_left(spec, n, BoundaryPoint.upper(z)).imag > 0


def test_reflection_principle_via_side():
    spec = single_site_spec()
    plus = m_right(spec, 0, BoundaryPoint.real(0.5, side="+"))
    minus = m_right(spec, 0, BoundaryPoint.real(0.5, side="-"))
    assert minus == np.conj(plus)


def test_truncated_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = random_spec(rng)
        z = complex(rng.uniform(-2, 2), 1e-2)
        n = int(rng.integers(-3, 4))
        exact = m_right(spec, n, BoundaryPoint.upper(z))
        oracle = m_oracle_truncated(spec, n, z, 4000, side="right")
        assert abs(exact - oracle) <= 1e-6
        exact = m_left(spec, n, BoundaryPoint.upper(z))
        oracle = m_oracle_truncated(spec, n, z, 4000, side="left")
        assert abs(exact - oracle) <= 1e-6


def test_free_band_unimodularity():
    spec = free_spec()
    lams = np.arange(-1.999, 1.999 + 5e-4, 1e-3)
    m = m_right_boundary(spec, 0, lams)
    np.testing.assert_allclose(np.abs(m), 1.0, atol=1e-12)


def _check_stripping_step(spec, n, pts, real_limit):
    # m at neighboring cut sites must be related by one stripping step
    grid = {False: (m_right_grid, m_left_grid),
            True: (m_right_boundary, m_left_boundary)}[real_limit]
    m_n = grid[0](spec, n, pts)
    m_prev = grid[0](spec, n - 1, pts)
    a_n, b_n = spec.a(n), spec.b(n)
    expect = 1.0 / (b_n - pts - a_n * a_n * m_n)
    np.testing.assert_allclose(m_prev, expect, rtol=1e-10)
    m_l = grid[1](spec, n, pts)
    m_next = grid[1](spec, n + 1, pts)
    a_prev = spec.a(n - 1)
    expect = 1.0 / (b_n - pts - a_prev * a_prev * m_l)
    np.testing.assert_allclose(m_next, expect, rtol=1e-10)


def test_stripping_consistency_grids():
    rng = np.random.default_rng(29)
    zs = np.array([0.3 + 0.2j, -1.1 + 0.05j, 1.7 + 1.0j])
    for _ in range(20):
        spec = random_spec(rng)
        for n in (-2, 0, 3):
            _check_stripping_step(spec, n, zs, real_limit=False)
    # far cuts: the sweep crosses about 200 sites and stays finite
    spec = perturbed_period3_spec()
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = band_intervals(spec.background)
    band = np.array([0.5 * (lo0 + hi0), lo1 + 0.3 * (hi1 - lo1), 0.5 * (lo2 + hi2)])
    # far above the bands a step grows the pair ~100 times: 1e400 over 200 sites
    gap = np.array([0.5 * (hi0 + lo1), 0.5 * (hi1 + lo2), hi2 + 0.7, hi2 + 100.0])
    for n in (-200, 200):
        _check_stripping_step(spec, n, np.concatenate([band, gap]) + 0.05j, real_limit=False)
        _check_stripping_step(spec, n, np.concatenate([band, gap]), real_limit=True)


def test_tail_periodic_fixed_point():
    # the tail value must be invariant under stripping one full period
    bg = Background.periodic((1.0, 0.5), (0.0, 0.0))
    z = 0.9 + 0.3j
    for cut in (0, 1):
        m = m_right_grid(JacobiSpec(bg), cut, np.array([z]))[0]
        stripped = m
        for k in range(cut + 2, cut, -1):
            a_k, b_k = bg.value_at(k)
            stripped = 1.0 / (b_k - z - a_k * a_k * stripped)
        np.testing.assert_allclose(stripped, m, rtol=1e-12)


def test_band_edge_guard():
    spec = free_spec()
    with pytest.raises(BandEdge):
        m_right_boundary(spec, 0, np.array([2.0 - 1e-8]))


@pytest.mark.parametrize("call", [
    lambda spec: m_right_grid(spec, 0, [0.3]),
    lambda spec: m_left_grid(spec, 0, [0.3 - 0.1j]),
    lambda spec: green_diag_grid(spec, 0, [0.3 + 0j], real_limit=False),
], ids=["m_right real", "m_left lower", "G_nn real"])
def test_interior_evaluation_needs_the_upper_half_plane(call):
    # a real or lower-half-plane z is refused, not read as a boundary value
    with pytest.raises(ValueError, match=r"interior evaluation needs Im z > 0"):
        call(period2_spec())


def test_ac_density_refuses_an_unknown_side():
    with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'r'"):
        ac_density(period2_spec(), 0, [0.8], side="r")


def test_ac_density_positive_in_band_zero_in_gap():
    spec = period2_spec()
    rho_band = ac_density(spec, 0, np.array([0.8, 1.1, -0.8]))
    assert (rho_band > 1e-3).all()
    rho_gap = ac_density(spec, 0, np.array([0.0, 2.5, -2.5]))
    assert (np.abs(rho_gap) <= 1e-12).all()


def test_half_line_dirichlet_eigenvalue_is_a_pole():
    # period 2 at lambda = 0: psi_right lives on the odd sites and psi_left on
    # the even ones, so m_right(0) and m_left(1) are infinite, m_right(1) and
    # m_left(0) vanish; the finite-section oracle just above the axis agrees
    spec = period2_spec()
    assert abs(m_oracle_truncated(spec, 1, 1e-6j, 400)) <= 1e-5
    assert abs(m_oracle_truncated(spec, 0, 1e-6j, 400, side="left")) <= 1e-5
    assert m_right_boundary(spec, 1, np.array([0.0]))[0] == 0.0
    assert m_left_boundary(spec, 0, np.array([0.0]))[0] == 0.0
    assert abs(m_oracle_truncated(spec, 0, 1e-6j, 400)) >= 1e5
    assert abs(m_oracle_truncated(spec, 1, 1e-6j, 400, side="left")) >= 1e5
    with pytest.raises(PoleHit):
        m_right(spec, 0, BoundaryPoint.real(0.0))
    with pytest.raises(PoleHit):
        m_left(spec, 1, BoundaryPoint.real(0.0))
    # a pole carries no a.c. density
    assert ac_density(spec, 0, np.array([0.0]))[0] == 0.0
    assert ac_density(spec, 1, np.array([0.0]), side="left")[0] == 0.0


def test_one_energy_sweeps_the_rows_of_its_grid_column():
    # one energy and a grid sweep alike on and off the axis: over bonds
    # -200..150, with rescalings and per-period steps on both sides, a point's
    # rows are its column of the grid's, and its exponents the same values
    rng = np.random.default_rng(61)
    for spec in [perturbed_periodic_spec(rng, p) for p in (1, 2, 3, 4)] + [period2_spec()]:
        edges = np.array(band_intervals(spec.background)).ravel()
        lams = np.concatenate([(edges[0::2] + edges[1::2]) / 2,
                               (edges[1:-1:2] + edges[2::2]) / 2,
                               [edges[0] - 0.5, edges[-1] + 0.5]])
        zs = lams + 1j * np.geomspace(1e-6, 3, lams.size)
        for pts, real_limit in ((lams, True), (zs, False)):
            grid = mfunc.weyl_sweep(spec, -200, 150, pts, real_limit)[:2]
            for j in range(pts.size):
                alone = mfunc.weyl_sweep(spec, -200, 150, pts[j:j + 1], real_limit)[:2]
                for one, sol in zip(alone, grid):
                    assert one.upper[:, 0].tobytes() == sol.upper[:, j].tobytes(), pts[j]
                    assert one.lower[:, 0].tobytes() == sol.lower[:, j].tobytes(), pts[j]
                    assert (one.exponent[:, 0] == sol.exponent[:, j]).all(), pts[j]


def test_an_m_value_below_the_axis_is_refused(monkeypatch):
    # m is Herglotz: an m route that gave Im m < 0 at lambda + i0 is refused;
    # at lambda - i0 the conjugate is the value, and no sign is checked
    spec = single_site_spec()
    m_raising = mfunc._m_raising
    monkeypatch.setattr(mfunc, "_m_raising", lambda *args: np.conj(m_raising(*args)))
    with pytest.raises(NumericalError, match="Herglotz value with Im = .* < 0"):
        m_right(spec, 0, BoundaryPoint.real(0.5))
    assert m_right(spec, 0, BoundaryPoint.real(0.5, side="-")).imag > 0
