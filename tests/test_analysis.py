import numpy as np
import pytest
from scipy import integrate

from jacobi_reflect import (Background, JacobiSpec, band_grid, band_intervals,
                            essential_support, explicit_grid, green_diag_grid,
                            landauer_current, reflectionless_report, scattering_grid)
from jacobi_reflect.analysis import QUADRATURE_MAX, QUADRATURE_NODES, EnergyGrid
from jacobi_reflect.errors import CrossCheckFailure, _named, raise_first
from jacobi_reflect.scattering import _s_entries, boundary_pieces

from util import (closed_gap_spec, free_spec, period2_spec, perturbed_period3_spec, random_spec,
                  seeded_specs, single_site_spec)


def test_explicit_grid_endpoint_rule():
    spec = free_spec()
    grid = explicit_grid(spec, -1.0, 1.0, 0.5)
    np.testing.assert_allclose(grid.points, [-1.0, -0.5, 0.0, 0.5, 1.0])
    # stop within step/2 of the continuation gets appended as itself
    grid = explicit_grid(spec, 0.0, 0.8, 0.3)
    np.testing.assert_allclose(grid.points, [0.0, 0.3, 0.6, 0.8])
    # stop farther than step/2 stays excluded
    grid = explicit_grid(spec, 0.0, 0.7, 0.3)
    np.testing.assert_allclose(grid.points, [0.0, 0.3, 0.6])
    # an inexact ratio still lands the endpoint
    grid = explicit_grid(spec, -1.9, 1.9, 0.001)
    assert grid.points.size == 3801
    np.testing.assert_allclose(grid.points[-1], 1.9, atol=1e-12)


def test_explicit_grid_points_are_floats():
    # integer bounds built an int64 grid, whose lambda column a report's
    # columns() rendered with %d, and dropped held numpy integers
    grid = explicit_grid(free_spec(), -2, 2, 1)
    assert grid.points.dtype == float and grid.points.tolist() == [-1.0, 0.0, 1.0]
    assert [type(x) for x in grid.dropped] == [np.float64, np.float64]
    assert grid.dropped == (-2.0, 2.0)
    assert reflectionless_report(free_spec(), grid).columns()["lambda"].dtype == float


def test_explicit_grid_refuses_non_finite_bounds():
    spec = free_spec()
    for start, stop, step in [(np.nan, 1.0, 0.5), (0.0, np.inf, 0.5), (0.0, 1.0, np.inf),
                              (0.0, 1.0, np.nan)]:
        with pytest.raises(ValueError, match="not finite"):
            explicit_grid(spec, start, stop, step)


def test_explicit_grid_refuses_a_reversed_grid():
    # 1:0.8:0.5 once returned its stop point, while 1:0:0.5 and 1:0.7:0.5 were empty
    spec = free_spec()
    for stop in (0.8, 0.7, 0.0):
        with pytest.raises(ValueError, match=f"grid 1.0:{stop}:0.5 has stop < start"):
            explicit_grid(spec, 1.0, stop, 0.5)
    np.testing.assert_array_equal(explicit_grid(spec, 1.0, 1.0, 0.5).points, [1.0])


def test_explicit_grid_refuses_huge_grids_before_allocating():
    spec = free_spec()
    for start, stop, step in [(0.0, 1e9, 1e-9), (-1e308, 1e308, 1.0)]:
        with pytest.raises(ValueError, match="exceeds"):
            explicit_grid(spec, start, stop, step)


def test_explicit_grid_drops_edge_points():
    spec = free_spec()
    grid = explicit_grid(spec, -2.0, 2.0, 0.5)
    assert -2.0 not in grid.points
    assert 2.0 not in grid.points
    assert set(grid.dropped) == {-2.0, 2.0}


@pytest.mark.parametrize("count", [True, 2.5, -1, "3"])
def test_band_grid_refuses_a_bad_point_count(count):
    # True gave one point per band, 2.5 a TypeError and -1 numpy's own refusal
    with pytest.raises(ValueError, match="points_per_band"):
        band_grid(period2_spec(), count)


def test_band_grid_takes_numpy_integers():
    spec = period2_spec()
    assert band_grid(spec, np.int64(7)).points.tobytes() == band_grid(spec, 7).points.tobytes()
    assert len(band_grid(spec, 0)) == 0


def test_band_grid_stays_inside_bands():
    spec = period2_spec()
    grid = band_grid(spec, 250)
    assert len(grid.points) == 500
    bands = band_intervals(spec.background)
    for lam in grid.points:
        assert any(lo < lam < hi for lo, hi in bands)


def test_essential_support_free_vs_gap():
    spec = free_spec()
    grid = explicit_grid(spec, -1.9, 1.9, 0.1)
    sup = essential_support(spec, grid)
    assert len(sup["union"]) == len(grid.points)
    spec2 = period2_spec()
    grid2 = explicit_grid(spec2, -1.9, 1.9, 0.1)
    sup2 = essential_support(spec2, grid2)
    in_band = [i for i, lam in enumerate(grid2.points)
               if any(lo < lam < hi for lo, hi in band_intervals(spec2.background))]
    assert sup2["union"].tolist() == in_band
    assert sup2["left"].tolist() == sup2["right"].tolist()


def test_essential_support_refuses_in_the_cut_routes_order():
    # the free chain written as period 2 has neither Floquet seed at lambda = 0:
    # essential_support names the right one first, as every route on the cut does
    spec = closed_gap_spec()
    grid = EnergyGrid(points=np.array([-0.5, 0.0, 0.5]))
    messages = []
    for route in (lambda: essential_support(spec, grid),
                  lambda: scattering_grid(spec, 0, grid.points),
                  lambda: green_diag_grid(spec, 0, grid.points),
                  lambda: reflectionless_report(spec, grid)):
        with pytest.raises(CrossCheckFailure) as err:
            route()
        messages.append(str(err.value))
    assert messages[0].startswith("Floquet seed (right side): residual inf")
    assert messages == messages[:1] * 4


def test_report_free_operator_all_pass():
    spec = free_spec()
    grid = explicit_grid(spec, -1.99, 1.99, 0.01)
    report = reflectionless_report(spec, grid)
    assert report.all_pass()
    assert report.agree.all()
    assert report.criterion_residuals().max() <= 1e-10


def test_report_periodic_all_pass():
    spec = period2_spec()
    report = reflectionless_report(spec, band_grid(spec, 500))
    assert report.all_pass()
    assert report.agree.all()
    assert report.criterion_residuals().max() <= 1e-10


def test_report_single_site_fails_everywhere_coherently():
    spec = single_site_spec()
    grid = explicit_grid(spec, -1.9, 1.9, 0.05)
    report = reflectionless_report(spec, grid)
    assert not report.verdict_mt.any()
    assert not report.verdict_spec.any()
    assert not report.verdict_stat.any()
    assert report.agree.all()


def test_verdicts_stable_over_tau_window():
    # residuals keep clear of [1e-9, 1e-7], so verdicts cannot depend on tau there
    grids_and_specs = [(free_spec(), explicit_grid(free_spec(), -1.9, 1.9, 0.05)),
                       (period2_spec(), band_grid(period2_spec(), 100)),
                       (single_site_spec(),
                        explicit_grid(single_site_spec(), -1.9, 1.9, 0.05))]
    for spec, grid in grids_and_specs:
        lo = reflectionless_report(spec, grid, tau=1e-9)
        hi = reflectionless_report(spec, grid, tau=1e-7)
        assert (lo.verdict_mt == hi.verdict_mt).all()
        assert (lo.verdict_spec == hi.verdict_spec).all()
        assert (lo.verdict_stat == hi.verdict_stat).all()


def test_residual_gap_on_random_sample():
    for spec in seeded_specs(master=1, count=15):
        grid = explicit_grid(spec, -1.99, 1.99, 0.01)
        report = reflectionless_report(spec, grid)
        assert report.agree.all()
        assert report.residual_gap_ok()


def test_report_rows_cover_grid():
    spec = single_site_spec()
    grid = explicit_grid(spec, -0.5, 0.5, 0.5)
    report = reflectionless_report(spec, grid)
    cols = report.columns()
    assert all(len(v) == len(grid.points) * 7 for v in cols.values())
    assert set(cols["n"].tolist()) == set(range(-3, 4))


def test_landauer_zero_bias_is_exactly_zero():
    out = landauer_current(free_spec(), 2.0, 0.3, 2.0, 0.3)
    assert out["charge_current"] == 0.0
    assert out["energy_current"] == 0.0


def test_landauer_antisymmetry():
    fwd = landauer_current(single_site_spec(), 1.5, 0.4, 1.5, -0.4)
    rev = landauer_current(single_site_spec(), 1.5, -0.4, 1.5, 0.4)
    np.testing.assert_allclose(fwd["charge_current"], -rev["charge_current"],
                               atol=1e-14)
    np.testing.assert_allclose(fwd["energy_current"], -rev["energy_current"],
                               atol=1e-14)


def test_landauer_free_matches_direct_quadrature():
    beta_l, mu_l, beta_r, mu_r = 2.0, 0.3, 1.0, -0.2
    out = landauer_current(free_spec(), beta_l, mu_l, beta_r, mu_r)

    def df(lam):
        f_l = 1.0 / (1.0 + np.exp(beta_l * (lam - mu_l)))
        f_r = 1.0 / (1.0 + np.exp(beta_r * (lam - mu_r)))
        return f_l - f_r

    # free chain transmits perfectly across its band
    charge, _ = integrate.quad(lambda lam: df(lam) / (2 * np.pi), -2.0, 2.0,
                               epsabs=1e-13, epsrel=1e-13)
    energy, _ = integrate.quad(lambda lam: lam * df(lam) / (2 * np.pi),
                               -2.0, 2.0, epsabs=1e-13, epsrel=1e-13)
    np.testing.assert_allclose(out["charge_current"], charge, atol=1e-8)
    np.testing.assert_allclose(out["energy_current"], energy, atol=1e-8)


def test_landauer_barrier_reduces_current():
    bias = (1.0, 0.5, 1.0, -0.5)
    free_current = landauer_current(free_spec(), *bias)["charge_current"]
    barrier_current = landauer_current(single_site_spec(), *bias)["charge_current"]
    assert abs(barrier_current) < abs(free_current)


def test_landauer_rejects_bad_temperature():
    with pytest.raises(ValueError):
        landauer_current(free_spec(), -1.0, 0.0, 1.0, 0.0)
    for bias in [(np.nan, 0.3, 1.0, 0.0), (1.0, np.nan, 1.0, 0.0),
                 (1.0, 0.3, np.inf, 0.0), (1.0, 0.3, 1.0, -np.inf)]:
        with pytest.raises(ValueError, match="must be finite"):
            landauer_current(free_spec(), *bias)


def test_landauer_quadrature_is_a_bounded_node_count():
    # leggauss(n) allocates n x n doubles, so the bound is checked first; a
    # float is not rounded to a node count
    for q in (0, 2.5, True, QUADRATURE_MAX + 1):
        with pytest.raises(ValueError, match="quadrature"):
            landauer_current(free_spec(), 2.0, 0.3, 1.0, -0.2, quadrature=q)


def test_band_grid_count_follows_the_integer_rule():
    with pytest.raises(ValueError, match="N_MAX"):
        band_grid(free_spec(), 10**12)


def test_landauer_survives_an_overflowing_inverse_temperature():
    # beta (lam - mu) overflows to +-inf, where the Fermi factor is exactly 0 or 1;
    # the suite turns numpy's overflow warning into an error
    for spec in (free_spec(), single_site_spec()):
        huge = landauer_current(spec, 1e308, 0.0, 1.0, 0.1)
        assert huge == landauer_current(spec, 1e300, 0.0, 1.0, 0.1)


def _per_band_current(spec, beta_l, mu_l, beta_r, mu_r, quadrature=QUADRATURE_NODES):
    """landauer_current as one boundary_pieces call per band, raising each
    band's refusal before the next band is swept."""
    x, w = np.polynomial.legendre.leggauss(quadrature)
    theta = 0.5 * np.pi * (x + 1.0)
    w_theta = 0.5 * np.pi * w
    charge = energy = 0.0
    for lo, hi in band_intervals(spec.background):
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        lams = mid - hw * np.cos(theta)
        jac = hw * np.sin(theta)
        pieces = boundary_pieces(spec, [0], lams)
        raise_first(_named(pieces.checks, "right seed", "left seed", "G_nn pole", "G_nn cross"))
        t_coef = np.abs(_s_entries(pieces)["s_lr"][0]) ** 2
        df = (np.exp(-np.logaddexp(0.0, beta_l * (lams - mu_l)))
              - np.exp(-np.logaddexp(0.0, beta_r * (lams - mu_r))))
        base = w_theta * jac * t_coef * df
        charge += base.sum()
        energy += (base * lams).sum()
    return {"charge_current": float(charge / (2.0 * np.pi)),
            "energy_current": float(energy / (2.0 * np.pi))}


@pytest.mark.parametrize("spec, bias", [
    (free_spec(), (2.0, 0.3, 1.0, -0.2)),           # criterion 9's inputs
    (free_spec(), (1.0, 0.5, 1.0, -0.5)),
    (single_site_spec(), (1.0, 0.5, 1.0, -0.5)),
    (perturbed_period3_spec(), (2.0, 0.3, 1.0, -0.2)),
    (perturbed_period3_spec(), (0.7, -0.4, 3.0, 0.9)),
])
def test_landauer_one_sweep_keeps_the_per_band_bits(spec, bias):
    got, want = landauer_current(spec, *bias), _per_band_current(spec, *bias)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


# a pure period-6 background whose innermost nodes trip the G_nn cross-check
PERIOD6_SPEC = JacobiSpec(background=Background.periodic(
    (0.5801237034395995, 1.236324654978001, 1.2201394517683182, 0.558181832537979,
     0.44568754049864934, 0.625247229845043),
    (-0.6718854064066162, -0.4467303962116431, -0.24806997835730282, 0.2569178636355449,
     -0.9025982013495415, 0.2341509843203553), phase=4))


@pytest.mark.parametrize("quadrature", [400, 200])
def test_landauer_one_sweep_keeps_the_per_band_refusal(quadrature):
    bias = (2.0, 0.3, 1.0, -0.2)
    with pytest.raises(CrossCheckFailure) as want:
        _per_band_current(PERIOD6_SPEC, *bias, quadrature=quadrature)
    with pytest.raises(CrossCheckFailure) as got:
        landauer_current(PERIOD6_SPEC, *bias, quadrature=quadrature)
    assert str(got.value) == str(want.value)
