import tracemalloc

import numpy as np
import pytest

from jacobi_reflect import (Background, BoundaryPoint, CrossCheckFailure,
                            EnergyGrid, JacobiSpec, NoOpenChannel, ScatteringMatrix,
                            ac_density, alpha_beta, alpha_beta_grid, band_grid,
                            band_intervals, channel_weight, green_diag, green_diag_grid,
                            green_offdiag, group_velocity, jost_solution,
                            m_left, m_left_boundary, m_left_grid,
                            m_right, m_right_boundary, m_right_grid,
                            reflection_transmission, reflectionless_report,
                            scattering_grid, scattering_matrix,
                            spectral_reflection_mratio_grid, unitarity_defect,
                            unitarity_defect_grid, wave_packet)
from jacobi_reflect import mfunc, scattering
from jacobi_reflect.errors import NumericalError, first_refusals

from util import (closed_gap_spec, free_spec, period2_spec, perturbed_period3_spec,
                  perturbed_periodic_spec, random_spec, single_site_spec)


def test_free_green_fixtures():
    spec = free_spec()
    g = green_diag(spec, 0, BoundaryPoint.upper(1j))
    np.testing.assert_allclose(g, 1j / np.sqrt(5.0), atol=1e-14)
    g = green_diag(spec, 0, BoundaryPoint.real(0.0))
    np.testing.assert_allclose(g, 0.5j, atol=1e-14)
    g = green_diag(spec, 0, BoundaryPoint.real(1.0))
    np.testing.assert_allclose(g, 1j / np.sqrt(3.0), atol=1e-14)


def test_single_site_green():
    g = green_diag(single_site_spec(), 0, BoundaryPoint.real(0.0))
    np.testing.assert_allclose(g, (1.0 + 2.0j) / 5.0, atol=1e-14)


def test_free_scattering_is_pure_transmission():
    s = scattering_matrix(free_spec(), 0, 0.0)
    np.testing.assert_allclose(s.matrix(), [[0.0, -1.0], [-1.0, 0.0]], atol=1e-14)
    res = scattering_grid(free_spec(), 0, np.linspace(-1.9, 1.9, 201))
    np.testing.assert_allclose(np.abs(res["s_lr"]), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(res["s_ll"]), 0.0, atol=1e-12)


def test_single_site_fixture_probabilities():
    s = scattering_matrix(single_site_spec(), 0, 0.0)
    rt = reflection_transmission(s)
    np.testing.assert_allclose(rt["R_l"], 0.2, atol=1e-12)
    np.testing.assert_allclose(rt["R_r"], 0.2, atol=1e-12)
    np.testing.assert_allclose(rt["T"], 0.8, atol=1e-12)
    np.testing.assert_allclose(s.s_ll, 0.2 + 0.4j, atol=1e-12)
    assert s.open_left and s.open_right


def test_unitarity_over_random_specs():
    rng = np.random.default_rng(31)
    lams = np.linspace(-1.95, 1.95, 301)
    for _ in range(30):
        spec = random_spec(rng)
        res = scattering_grid(spec, int(rng.integers(-3, 4)), lams)
        assert unitarity_defect_grid(res).max() <= 1e-8


def test_symmetry_of_off_diagonal():
    rng = np.random.default_rng(37)
    for _ in range(10):
        spec = random_spec(rng)
        s = scattering_matrix(spec, 0, float(rng.uniform(-1.8, 1.8)))
        assert s.s_lr == s.s_rl


def test_cut_site_invariance_of_moduli():
    rng = np.random.default_rng(41)
    lams = np.linspace(-1.9, 1.9, 96)
    for _ in range(10):
        spec = random_spec(rng)
        base = np.abs(scattering_grid(spec, 0, lams)["s_ll"])
        for n in range(-3, 4):
            here = np.abs(scattering_grid(spec, n, lams)["s_ll"])
            np.testing.assert_allclose(here, base, atol=1e-8)


def test_gap_has_no_open_channel():
    with pytest.raises(NoOpenChannel):
        scattering_matrix(period2_spec(), 0, 0.2)
    with pytest.raises(NoOpenChannel):
        scattering_matrix(free_spec(), 0, 3.0)
    # the gap center is a pole of m_right(0) and m_left(1); both channels
    # are still closed there, and G_00 is finite
    with pytest.raises(NoOpenChannel):
        scattering_matrix(period2_spec(), 0, 0.0)


def test_channel_weight_examples():
    v_l, v_r = channel_weight(free_spec(), 0, 0.0)
    np.testing.assert_allclose(v_l, 1.0 / np.sqrt(np.pi), atol=1e-12)
    np.testing.assert_allclose(v_r, 1.0 / np.sqrt(np.pi), atol=1e-12)
    half = JacobiSpec(background=Background.constant(0.5, 0.0))
    v_l, _ = channel_weight(half, 0, 0.0)
    np.testing.assert_allclose(v_l, np.sqrt(2.0 / np.pi), atol=1e-12)


def test_closed_channel_defect_convention():
    # one open channel: the open entry must be unimodular, defect ignores the rest
    s = ScatteringMatrix(n=0, lam=0.0, s_ll=np.exp(0.3j), s_lr=0.0, s_rl=0.0,
                         s_rr=1.0, density_l=0.2, density_r=0.0)
    assert not s.open_right
    assert unitarity_defect(s) <= 1e-15


def test_green_forms_cross_check_on_grid():
    # green_diag_grid runs the two-form consistency check internally
    rng = np.random.default_rng(43)
    lams = np.linspace(-1.9, 1.9, 64)
    for _ in range(20):
        spec = random_spec(rng)
        g = green_diag_grid(spec, int(rng.integers(-2, 3)), lams)
        assert np.isfinite(g).all()
        assert (g.imag >= -1e-12).all()


def test_reflectionless_background_scattering_off_diagonal():
    spec = period2_spec()
    res = scattering_grid(spec, 0, np.array([0.8, 1.0, -1.2]))
    np.testing.assert_allclose(np.abs(res["s_ll"]), 0.0, atol=1e-10)
    np.testing.assert_allclose(np.abs(res["s_lr"]), 1.0, atol=1e-10)


def test_green_vanishes_between_opposite_sublattices():
    # period 2 at lambda = 0: psi_left(n) psi_right(n) = 0 at every n
    spec = period2_spec()
    for n in range(-2, 3):
        assert green_diag_grid(spec, n, np.array([0.0]))[0] == 0.0
    res = scattering_grid(spec, 0, np.array([-0.25, 0.0, 0.25]))
    np.testing.assert_array_equal(res["s_ll"], 1.0)
    np.testing.assert_array_equal(res["s_lr"], 0.0)


def test_corrupted_seed_trips_the_seed_check(monkeypatch):
    # the m of the right seed scaled by 1.3 and shifted by 0.2i
    seed = mfunc._floquet_seed

    def corrupted(*args):
        v1, v2, *rest = seed(*args)
        if args[4] == "right":
            v1 = 1.3 * v1 + 0.2j * v2
        return (v1, v2, *rest)

    spec = perturbed_period3_spec()
    lams = band_grid(spec, 50).points
    scattering_grid(spec, 0, lams)
    monkeypatch.setattr(mfunc, "_floquet_seed", corrupted)
    with pytest.raises(CrossCheckFailure):
        scattering_grid(spec, 0, lams)


def test_broken_recursion_trips_the_bond_check(monkeypatch):
    # u_1 of the right solution off by 1e-6: no longer a solution at site 0
    sweep = mfunc.weyl_sweep

    def broken(spec, lo, hi, *args):
        right, left, coeffs, checks = sweep(spec, lo, hi, *args)
        right.upper[0 - lo] *= 1.0 + 1e-6
        return right, left, coeffs, checks

    spec = perturbed_period3_spec()
    monkeypatch.setattr(mfunc, "weyl_sweep", broken)
    with pytest.raises(CrossCheckFailure):
        scattering_grid(spec, 0, band_grid(spec, 50).points)


def test_every_cut_route_reads_the_one_sweep(monkeypatch):
    # u_{n+1} of psi_r at the largest cut n off by 1e-6: the m routes return
    # the shifted m_right(n), and the G_nn routes see it disagree with G_nn
    # from bond n-1
    sweep = mfunc.weyl_sweep

    def shifted(spec, lo, hi, *args):
        right, left, coeffs, checks = sweep(spec, lo, hi, *args)
        right.upper[hi - lo] *= 1.0 + 1e-6
        return right, left, coeffs, checks

    spec = perturbed_period3_spec()
    lo, hi = band_intervals(spec.background)[0]
    lams = np.linspace(lo, hi, 7)[1:-1]
    zs = lams + 0.5j
    m_real, m_complex = m_right_boundary(spec, 0, lams), m_right_grid(spec, 0, zs)
    grid = EnergyGrid(points=lams)
    assert reflectionless_report(spec, grid).re_g.shape == (7, lams.size)
    monkeypatch.setattr(mfunc, "weyl_sweep", shifted)
    # on the real axis Im m comes from the flux, which the shift leaves alone
    m = m_right_boundary(spec, 0, lams)
    np.testing.assert_allclose(m.real, m_real.real * (1.0 + 1e-6), rtol=1e-13)
    assert m.imag.tobytes() == m_real.imag.tobytes()
    np.testing.assert_allclose(m_right_grid(spec, 0, zs), m_complex * (1.0 + 1e-6), rtol=1e-13)
    match = "G_nn from the Wronskians at bonds n-1 and n disagrees"
    for route in (lambda: green_diag_grid(spec, 0, lams), lambda: scattering_grid(spec, 0, lams),
                  lambda: reflectionless_report(spec, grid)):
        with pytest.raises(CrossCheckFailure, match=match):
            route()


def test_a_point_that_cannot_be_seeded_is_flagged_not_raised():
    # the free chain written as period 2: at lambda = 0 the one-period product
    # is -I, so neither seed exists; that point alone is flagged
    spec = closed_gap_spec()
    lams = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    pieces = scattering.boundary_pieces(spec, [0], lams)
    failed = np.any([mask for mask, _ in pieces.checks], axis=0)
    assert list(np.flatnonzero(failed)) == [2]
    status = first_refusals(pieces.checks)
    assert str(status[2]).startswith("Floquet seed (right side): residual inf")
    keep = np.arange(lams.size) != 2
    alone = scattering.boundary_pieces(spec, [0], lams[keep])
    assert pieces.g[:, keep].tobytes() == alone.g.tobytes()
    with pytest.raises(CrossCheckFailure, match="Floquet seed"):
        green_diag_grid(spec, 0, lams)


def test_one_energy_gets_its_bits_on_a_grid():
    # one energy runs the sweep on Python scalars, a grid on arrays; both
    # round the period step alike, so a point's values do not depend on the
    # grid it is evaluated in
    rng = np.random.default_rng(89)
    for p in (1, 2, 3, 4):
        spec = perturbed_periodic_spec(rng, p)
        lams = band_grid(spec, 25).points
        grid = scattering_grid(spec, 0, lams)
        report = reflectionless_report(spec, EnergyGrid(lams))
        for j in range(lams.size):
            one = scattering_grid(spec, 0, lams[j:j + 1])
            for key in ("s_ll", "s_lr", "s_rr", "g"):
                assert one[key][0].tobytes() == grid[key][j].tobytes(), (p, lams[j], key)
            alone = reflectionless_report(spec, EnergyGrid(lams[j:j + 1]))
            assert alone.re_g[:, 0].tobytes() == report.re_g[:, j].tobytes()
            assert (alone.specref_residual[:, 0].tobytes()
                    == report.specref_residual[:, j].tobytes())
    # in a gap m is real: one energy and a grid agree on the sign of its
    # zero imaginary part, which float.hex tells apart and == does not
    spec = period2_spec()
    gap = np.array([-0.45, -0.25, 0.25, 0.45])
    for n in (-1, 0, 1, 2):
        for m_values in (m_right_boundary, m_left_boundary):
            grid = m_values(spec, n, gap)
            for j in range(gap.size):
                one = m_values(spec, n, gap[j:j + 1])[0]
                assert ([x.hex() for x in (one.real, one.imag)]
                        == [x.hex() for x in (grid[j].real, grid[j].imag)]), (n, gap[j])


def _hex(v):
    return v.real.hex(), v.imag.hex()


def test_one_off_axis_point_gets_its_bits_on_a_grid():
    # off the real axis one point runs the sweep on arrays, as a grid does: its
    # m and G_nn, alone, through a one-point grid or a scalar view, are the
    # grid's, at Re z in bands and gaps and Im z from 1e-6 to 3
    rng = np.random.default_rng(34)
    specs = [perturbed_periodic_spec(rng, p) for p in (1, 2, 3, 4)]
    for spec in specs + [single_site_spec(), period2_spec()]:
        edges = np.array(band_intervals(spec.background)).ravel()
        re = np.concatenate([np.linspace(edges[0] - 0.5, edges[-1] + 0.5, 5),
                             (edges[1:-1:2] + edges[2::2]) / 2])
        zs = (re[:, None] + 1j * np.array([1e-6, 1e-3, 0.1, 3.0])).ravel()
        for n in (0, 2):
            routes = [(lambda z: m_right_grid(spec, n, z), lambda pt: m_right(spec, n, pt)),
                      (lambda z: m_left_grid(spec, n, z), lambda pt: m_left(spec, n, pt)),
                      (lambda z: green_diag_grid(spec, n, z, real_limit=False),
                       lambda pt: green_diag(spec, n, pt))]
            for grid_route, scalar_route in routes:
                grid = grid_route(zs)
                for j, z in enumerate(zs):
                    want = _hex(grid[j])
                    assert _hex(grid_route(zs[j:j + 1])[0]) == want, (n, z)
                    assert _hex(scalar_route(BoundaryPoint.upper(z))) == want, (n, z)


def test_an_interior_green_value_below_the_axis_is_refused(monkeypatch):
    # G_nn is Herglotz: a grid route that gave Im G_nn < 0 at an upper point
    # is refused there; a real-limit point has no sign to check
    spec = single_site_spec()
    grid_route = scattering.green_diag_grid
    monkeypatch.setattr(scattering, "green_diag_grid",
                        lambda *args: np.conj(grid_route(*args)))
    with pytest.raises(NumericalError, match="G_nn at an interior point must have Im > 0"):
        green_diag(spec, 0, BoundaryPoint.upper(0.3 + 0.5j))
    assert green_diag(spec, 0, BoundaryPoint.real(0.3)).imag < 0


def test_a_far_cut_costs_no_memory_per_bond_swept():
    # psi_l is seeded left of the window and swept up to the cut: only the rows
    # at the cut's bonds are kept, not one row per bond and energy on the way
    spec = single_site_spec()
    lams = np.linspace(-1.9, 1.9, 200)
    scattering_grid(spec, 10, lams)         # the band caches fill here, untraced

    def peak(n):
        tracemalloc.start()
        try:
            scattering_grid(spec, n, lams)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    near, far = peak(10), peak(10 ** 4)
    assert far <= 3 * near, (far, near)


@pytest.mark.parametrize("kind, value", [("site", 0.3), ("site", 1.0), ("site", 2.5),
                                         ("bond", 0.3), ("bond", 0.7), ("bond", 1.6),
                                         ("bond", 3.0)])
def test_closed_form_transmission_over_the_band(kind, value):
    # one site b_0 = v or one bond a_0 = t on the free chain, lambda = 2 cos(theta)
    lams = band_grid(free_spec(), 2001).points
    sin2 = np.sin(np.arccos(lams / 2.0)) ** 2
    if kind == "site":
        spec = JacobiSpec(b_override=(value,))
        t_exact = 4.0 * sin2 / (4.0 * sin2 + value ** 2)
    else:
        spec = JacobiSpec(a_override=(value,))
        t_exact = 4.0 * value ** 2 * sin2 / ((1.0 - value ** 2) ** 2 + 4.0 * value ** 2 * sin2)
    for n in (-3, 0, 1, 4):
        t = np.abs(scattering_grid(spec, n, lams)["s_lr"]) ** 2
        assert np.abs(t - t_exact).max() <= 1e-13, n
    jost = alpha_beta_grid(spec, lams)
    assert all(status is None for status in jost.status)
    assert np.abs(jost.R_r - (1.0 - t_exact)).max() <= 1e-13
    r_mratio = spectral_reflection_mratio_grid(spec, lams)
    assert np.abs(r_mratio - (1.0 - t_exact)).max() <= 1e-13


REAL_AXIS_GRID_ROUTES = {
    "green_diag_grid": lambda spec, z: green_diag_grid(spec, 0, z),
    "m_right_boundary": lambda spec, z: m_right_boundary(spec, 0, z),
    "m_left_boundary": lambda spec, z: m_left_boundary(spec, 0, z),
    "ac_density": lambda spec, z: ac_density(spec, 0, z),
    "scattering_grid": lambda spec, z: scattering_grid(spec, 0, z),
    "alpha_beta_grid": alpha_beta_grid,
    "spectral_reflection_mratio_grid": spectral_reflection_mratio_grid,
}
# the one-energy views: each takes its energy through the grid routes' gate
ONE_POINT_VIEWS = {
    "scattering_matrix": lambda spec, lam: scattering_matrix(spec, 0, lam),
    "channel_weight": lambda spec, lam: channel_weight(spec, 0, lam),
    "alpha_beta": alpha_beta,
    "jost_solution": lambda spec, lam: jost_solution(spec, "r", lam),
    "green_offdiag": lambda spec, lam: green_offdiag(spec, -1, 2, lam),
    "group_velocity": lambda spec, lam: group_velocity(spec.background, lam),
    "wave_packet": lambda spec, lam: wave_packet(spec, "l", lam, 0.05, 500),
}


@pytest.mark.parametrize("route, z", [
    *(pytest.param(r, np.array([0.3 + 0.1j]), id=k) for k, r in REAL_AXIS_GRID_ROUTES.items()),
    *(pytest.param(r, 0.3 + 0.1j, id=k) for k, r in ONE_POINT_VIEWS.items()),
])
def test_real_axis_routes_refuse_complex_energies(route, z):
    # a cast to float would drop Im z: G(0.3 + i0) in place of G(0.3 + 0.1i);
    # the one-point views cast first and raised TypeError
    with pytest.raises(ValueError, match="real energies"):
        route(single_site_spec(), z)


@pytest.mark.parametrize("bad", [True, "0.3"], ids=["bool", "str"])
@pytest.mark.parametrize("route, one_point", [
    *(pytest.param(r, False, id=k) for k, r in REAL_AXIS_GRID_ROUTES.items()),
    *(pytest.param(r, True, id=k) for k, r in ONE_POINT_VIEWS.items()),
])
def test_real_axis_routes_refuse_bool_and_str_energies(route, one_point, bad):
    # neither read as 1.0 or 0.3 nor left to fail as a TypeError
    with pytest.raises(ValueError, match="real energies, got dtype"):
        route(single_site_spec(), bad if one_point else [bad])


@pytest.mark.parametrize("route", REAL_AXIS_GRID_ROUTES)
def test_real_axis_routes_refuse_a_2d_grid(route):
    # not an IndexError from numpy
    with pytest.raises(ValueError, match="1-d grid, got shape"):
        REAL_AXIS_GRID_ROUTES[route](single_site_spec(), [[0.3, 0.4]])


def test_one_point_views_keep_float_bits():
    spec = perturbed_period3_spec()
    datum = alpha_beta(spec, 0)
    assert type(datum.lam) is float and datum.lam == 0.0
    assert datum == alpha_beta(spec, 0.0)
    s = scattering_matrix(spec, 0, np.float64(0.3))
    res = scattering_grid(spec, 0, [0.3])
    assert (s.s_ll, s.s_lr) == (complex(res["s_ll"][0]), complex(res["s_lr"][0]))


def test_non_finite_energies_are_bad_input():
    # numpy warned, then the route refused with a Floquet seed failure
    spec = perturbed_period3_spec()
    with pytest.raises(ValueError, match="finite, got nan"):
        scattering_grid(spec, 0, [np.nan])
    with pytest.raises(ValueError, match=r"finite, got \(nan\+1j\)"):
        m_right_grid(spec, 0, [np.nan + 1j])
    with pytest.raises(ValueError, match="finite, got inf"):
        alpha_beta(spec, np.inf)
    # one NaN makes the grid bad input, not a refused grid
    with pytest.raises(ValueError, match="finite, got nan"):
        reflectionless_report(spec, EnergyGrid(points=np.array([0.5, np.nan, -np.inf])))


@pytest.mark.parametrize("route, lam", [
    pytest.param(lambda s, z: scattering_grid(s, 10, z)["s_ll"], 1e40, id="scatter"),
    pytest.param(lambda s, z: m_right_boundary(s, -10, z), 1e40, id="m_right"),
    pytest.param(lambda s, z: green_diag_grid(s, 0, z), 1e20, id="green"),
    # G_00 read as 0 from here on
    pytest.param(lambda s, z: green_diag_grid(s, 0, z), 1e14, id="green-1e14"),
    pytest.param(lambda s, z: jost_solution(s, "r", z[0]).values, 1e80, id="jost_solution"),
    pytest.param(lambda s, z: green_offdiag(s, 0, 0, z[0]), 1e80, id="green_offdiag"),
    pytest.param(spectral_reflection_mratio_grid, 1e80, id="mratio"),
    pytest.param(lambda s, z: alpha_beta_grid(s, z).R_r, 1e150, id="alpha_beta_grid"),
    pytest.param(lambda s, z: m_right_grid(s, 0, [z[0] + 1j]), 1e40, id="m_right_grid"),
])
def test_energies_past_the_coefficient_scale_are_bad_input(route, lam):
    # a NaN row, a 0 or a status None with R_r NaN, all without a refusal
    with pytest.raises(ValueError, match="beyond the coefficients' scale") as err:
        route(single_site_spec(), [lam])
    assert str(lam) in str(err.value)


PERIOD4_SPEC = JacobiSpec(background=Background.periodic((1.0, 0.8, 1.2, 0.9),
                                                         (0.3, -0.2, 0.1, -0.4)),
                          offset=-1, a_override=(1.3, 0.9), b_override=(0.2, -0.4))


@pytest.mark.parametrize("spec", [single_site_spec(), period2_spec(), PERIOD4_SPEC],
                         ids=["single-site", "period-2", "period-4"])
def test_energies_at_the_step_bound_stay_finite(spec):
    # the farthest energies the gate lets through on each side, at cuts whose
    # sweeps run 12 or 1000 bonds from a seed; at 12, the seed's own scale
    # overflowed a squared pair entry
    c, reach = mfunc._reach(spec)
    # hoppings of 0.5 to 1.3: the bound is near STEP_MAX itself
    assert 0.4 * mfunc.STEP_MAX < reach < mfunc.STEP_MAX
    lams = c + np.array([-reach, reach]) * (1.0 - 1e-12)
    for n in (0, 12, -12, 1000, -1000):
        res = scattering_grid(spec, n, lams)
        assert all(np.isfinite(v).all() for v in res.values()), n
        for route in (m_right_boundary, m_left_boundary):
            m = route(spec, n, lams)
            assert np.all(np.isfinite(m) & (np.abs(m * lams + 1.0) < 1e-6)), n
    for lam in c + np.array([-reach, reach]) * (1.0 + 1e-12):
        for n in (0, 1000):
            with pytest.raises(ValueError, match="beyond the coefficients' scale"):
                scattering_grid(spec, n, [lam])


def test_a_weak_bond_is_swept_inside_the_energy_scale():
    # one hopping of 1e-10 among hoppings of 1: its step factor is about
    # 1e10 / a_k, past STEP_MAX, but over 16 bonds the factors stay far inside
    # the bound; a bound on each factor alone refused every energy
    spec = JacobiSpec(a_override=(1e-10,))
    lams = np.array([-1.5, 0.3, 1.9])
    res = scattering_grid(spec, 0, lams)
    np.testing.assert_allclose(np.abs(res["s_ll"]) ** 2 + np.abs(res["s_lr"]) ** 2, 1.0,
                               rtol=1e-12)
    # the free chain through one bond eps: T = 4 eps^2 sin^2 k / |1 - eps^2 e^{2ik}|^2
    eps, k = 1e-10, np.arccos(lams / 2)
    t_exact = 4 * eps ** 2 * np.sin(k) ** 2 / np.abs(1 - eps ** 2 * np.exp(2j * k)) ** 2
    np.testing.assert_allclose(np.abs(res["s_lr"]) ** 2, t_exact, rtol=1e-9)
    # the reach: STEP_MAX times the 16-bond geometric mean (1e-10)^(2/16), less 2
    c, reach = mfunc._reach(spec)
    assert c == 0.0 and reach == pytest.approx(mfunc.STEP_MAX * 1e-10 ** (1 / 8) - 2.0)
    m_right_boundary(spec, 5, [reach])
    with pytest.raises(ValueError, match="beyond the coefficients' scale"):
        m_right_boundary(spec, 5, [reach * (1.0 + 1e-12)])


def test_cut_route_refuses_a_seed_without_numpy_warnings():
    # the seeded p = 64 cell: at lambda = 1e3 the one-period product overflows;
    # the Jost route gave the seed refusal, the cut routes warned first
    rng = np.random.default_rng((11, 64))
    spec = JacobiSpec(background=Background.periodic(rng.uniform(0.8, 1.2, 64),
                                                     rng.uniform(-0.3, 0.3, 64)))
    for route in (lambda: scattering_grid(spec, 0, [1e3]),
                  lambda: m_right_boundary(spec, 0, [1e3])):
        with pytest.raises(CrossCheckFailure, match=r"^Floquet seed"):
            route()
    status = alpha_beta_grid(spec, [1e3]).status[0]
    assert type(status) is CrossCheckFailure and str(status).startswith("Floquet seed")


def test_cut_lists_far_apart_read_what_each_cut_reads_alone():
    # psi_r is carried from the seed at cut 2000 to the window by the per-period
    # multiplier; a row one period back could predate a rescaling, and in the gap
    # at lambda = 3 the carried rows overflowed to NaN
    spec, lams = PERIOD4_SPEC, [3.0, 0.7]
    both = mfunc.boundary_pieces(spec, [-3, 2000], lams)
    for row, n in enumerate((-3, 2000)):
        alone = mfunc.boundary_pieces(spec, [n], lams)
        np.testing.assert_allclose(both.g[row], alone.g[0], rtol=1e-12)
        for side in ("right", "left"):
            np.testing.assert_allclose(both.m[side][row], alone.m[side][0], rtol=1e-12)


def test_a_one_side_route_refuses_for_its_own_seed():
    # one sweep builds both solutions; at lambda = 0 on the free chain written
    # as period 2 neither seed exists, and a left route names the left one
    spec = closed_gap_spec()
    for route in (lambda: m_left_boundary(spec, 0, [0.0]),
                  lambda: ac_density(spec, 0, [0.0], side="left"),
                  lambda: jost_solution(spec, "l", 0.0)):
        with pytest.raises(CrossCheckFailure, match=r"^Floquet seed \(left side\)"):
            route()


CUT_ROUTES = {
    "scattering_matrix": lambda spec, n: scattering_matrix(spec, n, 0.3),
    "scattering_grid": lambda spec, n: scattering_grid(spec, n, [0.3]),
    "channel_weight": lambda spec, n: channel_weight(spec, n, 0.3),
    "green_diag_grid": lambda spec, n: green_diag_grid(spec, n, [0.3]),
    "green_diag": lambda spec, n: green_diag(spec, n, BoundaryPoint.upper(0.3 + 0.1j)),
    "m_right_grid": lambda spec, n: m_right_grid(spec, n, [0.3 + 0.1j]),
    "m_left_grid": lambda spec, n: m_left_grid(spec, n, [0.3 + 0.1j]),
    "m_left_boundary": lambda spec, n: m_left_boundary(spec, n, [0.3]),
    "ac_density": lambda spec, n: ac_density(spec, n, [0.3]),
    "green_offdiag n": lambda spec, n: green_offdiag(spec, n, 1, 0.3),
    "green_offdiag m": lambda spec, n: green_offdiag(spec, 1, n, 0.3),
}


@pytest.mark.parametrize("route", CUT_ROUTES)
@pytest.mark.parametrize("n", [2.5, True])
def test_cut_site_must_be_an_integer(route, n):
    # neither truncated to a site nor left to fail as an index
    spec = perturbed_period3_spec()
    with pytest.raises(ValueError, match="must be an integer"):
        CUT_ROUTES[route](spec, n)
    CUT_ROUTES[route](spec, np.int64(2))      # numpy integers are integers


@pytest.mark.parametrize("route", CUT_ROUTES)
def test_cut_site_past_n_max_is_refused(route):
    # no OverflowError from numpy's int64
    with pytest.raises(ValueError, match="N_MAX"):
        CUT_ROUTES[route](perturbed_period3_spec(), 10**20)
