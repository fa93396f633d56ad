import re

import numpy as np
import pytest

from jacobi_reflect import (Background, BoundaryPoint, JacobiSpec, alpha_beta,
                            alpha_beta_grid, band_edges, band_grid, band_intervals,
                            explicit_grid, green_diag, green_offdiag,
                            group_velocity, jost_solution, m_left, m_left_boundary,
                            m_right, m_right_boundary,
                            scattering_matrix, spectral_reflection_mratio,
                            spectral_reflection_mratio_grid, wronskian)
from jacobi_reflect.errors import (BandEdge, CrossCheckFailure, DegenerateBasis,
                                   NumericalError, PoleHit)

from util import (free_spec, period2_spec, perturbed_period3_spec,
                  perturbed_periodic_spec, random_spec, reflection_oracle,
                  single_site_spec)


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
        m_r = m_right(spec, 0, BoundaryPoint.real(lam))
        m_l = m_left(spec, 1, BoundaryPoint.real(lam))
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


def _mratio_formula(spec, lams):
    # the docstring formula on the m routes' own values; the window covers
    # sites -1..1, so their sweeps seed where the m-ratio route's does
    a0, m_r, m_l = spec.a(0), m_right_boundary(spec, 0, lams), m_left_boundary(spec, 1, lams)
    return (np.abs(a0 * a0 * np.conj(m_r) * m_l - 1.0) ** 2
            / np.abs(a0 * a0 * m_r * m_l - 1.0) ** 2)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_mratio_is_the_m_function_formula(p):
    rng = np.random.default_rng((83, p))
    spec = JacobiSpec(background=Background.periodic(tuple(rng.uniform(0.6, 1.4, p)),
                                                     tuple(rng.uniform(-0.5, 0.5, p))),
                      offset=-1, a_override=tuple(rng.uniform(0.5, 2.0, 3)),
                      b_override=tuple(rng.uniform(-1.0, 1.0, 3)))
    lams = band_grid(spec, 40).points
    r = spectral_reflection_mratio_grid(spec, lams)
    assert r.tobytes() == _mratio_formula(spec, lams).tobytes()
    assert np.all((0.0 <= r) & (r <= 1.0 + 1e-12))


def test_mratio_refuses_a_pole_of_the_m_it_reads():
    # period 2 at lambda = 0: psi_r(0) = 0 and psi_l(1) = 0, poles of m_right(0)
    # and m_left(1) in the gap
    with pytest.raises(PoleHit, match=r"m_right\(0\) or m_left\(1\) has a pole"):
        spectral_reflection_mratio_grid(period2_spec(), [0.0])


def test_mratio_reads_past_poles_of_the_other_m_functions():
    # the same background one site over, written out on sites -1..1: at lambda = 0
    # m_right(1) and m_left(0) have poles, which the formula never reads
    spec = JacobiSpec(background=Background.periodic((0.5, 1.0), (0.0, 0.0)), offset=-1,
                      a_override=(1.0, 0.5, 1.0), b_override=(0.0, 0.0, 0.0))
    with pytest.raises(PoleHit, match=r"m_right\(1\) has a pole"):
        m_right_boundary(spec, 1, [0.0])
    with pytest.raises(PoleHit, match=r"m_left\(0\) has a pole"):
        m_left_boundary(spec, 0, [0.0])
    lams = np.concatenate([[0.0], band_grid(spec, 20).points])
    r = spectral_reflection_mratio_grid(spec, lams)
    assert r[0] == 1.0
    assert r.tobytes() == _mratio_formula(spec, lams).tobytes()


def test_green_offdiag_free_closed_form():
    spec = free_spec()
    for n, m in [(0, 0), (0, 1), (-2, 3), (1, -1)]:
        g = green_offdiag(spec, n, m, 0.0)
        np.testing.assert_allclose(g, 0.5j * (-1j) ** abs(n - m), atol=1e-12)


def test_green_offdiag_at_half_line_dirichlet_eigenvalue():
    # period 2 at lambda = 0: the Weyl solutions live on opposite sublattices,
    # so G vanishes between sites of equal parity; the finite section agrees
    spec = period2_spec()
    assert green_offdiag(spec, 0, 0, 0.0) == 0.0
    assert green_offdiag(spec, -1, 1, 0.0) == 0.0
    np.testing.assert_allclose(green_offdiag(spec, 0, 1, 0.0), 1.0, atol=1e-14)


def test_green_offdiag_symmetry_and_diagonal():
    rng = np.random.default_rng(67)
    for _ in range(10):
        spec = random_spec(rng)
        lam = float(rng.uniform(-1.7, 1.7))
        np.testing.assert_allclose(green_offdiag(spec, -2, 3, lam),
                                   green_offdiag(spec, 3, -2, lam), rtol=1e-10)
        g_diag = green_diag(spec, 0, BoundaryPoint.real(lam))
        np.testing.assert_allclose(green_offdiag(spec, 0, 0, lam), g_diag,
                                   rtol=1e-9)


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
        spec = perturbed_periodic_spec(rng, p)
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


def _bits(*values):
    # float.hex tells -0.0 from 0.0, which == does not
    return tuple(float(x).hex() for v in values for x in (v.real, v.imag))


def _one_point(spec, lam):
    """alpha_beta at one energy: the bits of its values, or its refusal's
    type and message."""
    try:
        d = alpha_beta(spec, lam)
    except NumericalError as exc:
        return type(exc), str(exc)
    return _bits(d.alpha, d.beta, d.R_r)


def _grid_point(grid, j):
    exc = grid.status[j]
    if exc is not None:
        return type(exc), str(exc)
    return _bits(grid.alpha[j], grid.beta[j], grid.R_r[j])


def test_alpha_beta_grid_is_bitwise_the_one_point_view():
    # perturbed backgrounds of periods 1-4, 3000 energies across the bands,
    # the gaps, the band edges and beyond the spectrum
    rng = np.random.default_rng(73)
    checked = refused = 0
    for p in (1, 2, 3, 4) * 2:
        spec = perturbed_periodic_spec(rng, p)
        edges = band_edges(spec.background)
        lams = np.concatenate([rng.uniform(edges[0] - 0.2, edges[-1] + 0.2, 373),
                               edges[[0, -1]]])
        grid = alpha_beta_grid(spec, lams)
        assert np.array_equal(grid.lams, lams)
        for j, lam in enumerate(lams):
            assert _grid_point(grid, j) == _one_point(spec, float(lam)), (p, lam)
        checked += lams.size
        refused += sum(exc is not None for exc in grid.status)
    assert checked == 3000 and 0 < refused < checked / 2


def test_alpha_beta_grid_status_on_the_period2_gap():
    spec = period2_spec()
    lams = explicit_grid(spec, -1.0, 1.0, 0.25).points
    np.testing.assert_allclose(lams, [-1, -0.75, -0.25, 0, 0.25, 0.75, 1], atol=1e-15)
    grid = alpha_beta_grid(spec, lams)
    gap = np.abs(lams) < 0.5
    assert list(grid.ok) == list(~gap)
    assert np.isfinite(grid.R_r[~gap]).all() and np.isnan(grid.R_r[gap]).all()
    for lam, exc in zip(lams[gap], np.array(grid.status, dtype=object)[gap]):
        with pytest.raises(NumericalError) as info:
            alpha_beta(spec, float(lam))
        assert type(exc) is type(info.value) and str(exc) == str(info.value)


def test_alpha_beta_grid_refusals_leave_the_other_points_alone():
    spec = perturbed_periodic_spec(np.random.default_rng(79), 3)
    edges = band_edges(spec.background)
    inside = np.concatenate([np.linspace(lo, hi, 40)[1:-1]
                             for lo, hi in band_intervals(spec.background)])
    clean = alpha_beta_grid(spec, inside)
    assert clean.ok.all()
    outside = np.array([edges[0] - 0.5, edges[1], 0.5 * (edges[1] + edges[2]),
                        edges[-1] + 0.3])
    mixed = alpha_beta_grid(spec, np.concatenate([outside, inside])[::-1])
    ok = mixed.ok[::-1]
    assert not ok[:4].any() and ok[4:].all()
    for name in ("alpha", "beta", "R_r"):
        assert getattr(mixed, name)[::-1][4:].tobytes() == getattr(clean, name).tobytes()
    assert alpha_beta_grid(spec, []).status == ()


def test_first_refusals_keeps_each_energys_first_failed_check():
    from jacobi_reflect.errors import first_refusals
    built = []

    def refusal(name):
        def build(i):
            built.append((name, i))
            return NumericalError(f"{name} at {i}")
        return build

    status = first_refusals([(np.array([False, True, False, True]), refusal("a")),
                             (np.array([True, True, False, False]), refusal("b"))])
    assert [s if s is None else str(s) for s in status] == ["b at 0", "a at 1", None, "a at 3"]
    assert sorted(built) == [("a", 1), ("a", 3), ("b", 0)]   # none for a later failure
    assert first_refusals([(np.zeros(3, dtype=bool), refusal("c"))]) == [None] * 3


def test_a_band_edge_is_refused_before_the_later_checks(monkeypatch):
    # at an exact band edge psi_right is a real solution, so DegenerateBasis
    # or the expansion residual refuse most edges as well: the status names
    # the edge guard, the first check
    from jacobi_reflect import bands
    for spec in (period2_spec(), perturbed_period3_spec()):
        edges = band_edges(spec.background)
        widths = np.repeat([hi - lo for lo, hi in band_intervals(spec.background)], 2)
        grid = alpha_beta_grid(spec, edges)
        for lam, width, exc in zip(edges, widths, grid.status):
            assert type(exc) is BandEdge
            assert str(exc) == str(BandEdge(lam, lam, bands.EDGE_REL * width))
        with monkeypatch.context() as m:
            m.setattr(bands, "EDGE_REL", 0.0)
            unguarded = alpha_beta_grid(spec, edges).status
        later = [exc for exc in unguarded if exc is not None]
        assert len(later) >= 4
        for exc in later:
            assert (type(exc) is DegenerateBasis
                    or str(exc).startswith("basis expansion residual")), exc


def test_a_failed_seed_refuses_its_energy_only(monkeypatch):
    # the left seed corrupted at one energy of the grid, as in the seed test
    # of test_scattering: that energy is refused, the others keep their bits
    from jacobi_reflect import mfunc
    seed = mfunc._floquet_seed

    def corrupted(*args):
        v1, v2, *rest = seed(*args)
        if args[4] == "left" and np.ndim(v1):
            v1 = v1.copy()
            v1[2] = 1.3 * v1[2] + 0.2j * v2[2]
        return (v1, v2, *rest)

    spec = perturbed_periodic_spec(np.random.default_rng(83), 2)
    lams = np.concatenate([np.linspace(lo, hi, 6)[1:-1]
                           for lo, hi in band_intervals(spec.background)])
    clean = alpha_beta_grid(spec, lams)
    monkeypatch.setattr(mfunc, "_floquet_seed", corrupted)
    grid = alpha_beta_grid(spec, lams)
    assert list(np.flatnonzero(~grid.ok)) == [2]
    assert type(grid.status[2]) is CrossCheckFailure
    assert str(grid.status[2]).startswith("Floquet seed (left side): residual")
    keep = grid.ok
    assert grid.R_r[keep].tobytes() == clean.R_r[keep].tobytes()
    assert grid.alpha[keep].tobytes() == clean.alpha[keep].tobytes()


def test_jost_reflection_matches_the_dense_transfer_matrix_oracle():
    # R from dense 2x2 step matrices and current-signed Bloch waves, which
    # share nothing with the Weyl sweep, against criterion 6's bound
    specs = [perturbed_period3_spec()] + [perturbed_periodic_spec(np.random.default_rng(s), p)
                                          for s, p in ((1, 2), (2, 4), (3, 5))]
    for spec in specs:
        lams = band_grid(spec, 200).points
        grid = alpha_beta_grid(spec, lams)
        assert grid.ok.all()
        oracle = np.array([reflection_oracle(spec, lam) for lam in lams])
        assert np.abs(grid.R_r - oracle).max() <= 1e-8
        assert 0.0 < oracle.max() and oracle.min() < 1.0


def test_every_window_route_raises_the_one_recursion_check(monkeypatch):
    # u_1 of psi_r off by 1e-6: each route that reads the solutions on a
    # window of sites trips the recursion check of jost._jost_values
    from jacobi_reflect import jost
    sweep = jost.weyl_sweep

    def broken(spec, lo, hi, *args):
        right, left, coeffs, checks = sweep(spec, lo, hi, *args)
        right.upper[0 - lo] *= 1.0 + 1e-6
        return right, left, coeffs, checks

    spec = perturbed_period3_spec()
    lo, hi = band_intervals(spec.background)[0]
    lam = 0.5 * (lo + hi)
    assert alpha_beta_grid(spec, [lam]).ok.all()
    monkeypatch.setattr(jost, "weyl_sweep", broken)
    match = "three-term recursion residual"
    with pytest.raises(CrossCheckFailure, match=match):
        jost_solution(spec, "r", lam)
    status = alpha_beta_grid(spec, [lam]).status[0]
    assert type(status) is CrossCheckFailure and str(status).startswith(match)
    with pytest.raises(CrossCheckFailure, match=match):
        green_offdiag(spec, -1, 2, lam)
    with pytest.raises(CrossCheckFailure, match=match):
        group_velocity(spec.background, lam)


@pytest.mark.parametrize("bounds", [{"k_min": -2.5}, {"k_max": 3.5}, {"k_min": True},
                                    {"k_max": np.float64(4.0)}])
def test_jost_window_bounds_must_be_integers(bounds):
    # neither an IndexError from numpy nor a bool read as 1
    spec = single_site_spec()
    with pytest.raises(ValueError, match=f"{next(iter(bounds))} must be an integer"):
        jost_solution(spec, "r", 0.3, **bounds)


def test_jost_window_bounds_take_numpy_integers():
    spec = single_site_spec()
    sol = jost_solution(spec, "l", 0.3, k_min=np.int64(-5), k_max=np.int32(4))
    assert (sol.k_min, sol.k_max) == (-5, 4)
    assert sol.values.tobytes() == jost_solution(spec, "l", 0.3, -5, 4).values.tobytes()


def test_a_window_that_overflows_is_refused():
    # 300 sites into the gap at lambda = 100 psi_l overflows on the window's one
    # scale; the NaN recursion residual passed its check, and G read NaN.  Once
    # the window route keeps the sweep's per-row exponents it reads G here
    # instead, and this case changes with it
    with pytest.raises(CrossCheckFailure):
        green_offdiag(single_site_spec(), 300, 300, 100.0)


def test_window_sites_past_n_max_are_refused():
    # refused before a window of 10**12 or 10**20 sites is allocated
    spec = single_site_spec()
    with pytest.raises(ValueError, match="N_MAX"):
        green_offdiag(spec, 10**12, 0, 0.3)
    with pytest.raises(ValueError, match="N_MAX"):
        jost_solution(spec, "r", 0.3, k_min=-10**20)


def test_jost_solution_refuses_an_unknown_side():
    with pytest.raises(ValueError, match="side must be 'l' or 'r', got 'x'"):
        jost_solution(period2_spec(), "x", 0.8)


def test_jost_value_outside_its_window_is_an_index_error():
    sol = jost_solution(period2_spec(), "r", 0.8, -2, 3)
    assert sol.value(-2) == sol.values[0] and sol.value(3) == sol.values[-1]
    for k in (-3, 4):
        with pytest.raises(IndexError, match=rf"site {k} outside window \[-2, 3\]"):
            sol.value(k)


def test_a_wronskian_that_varies_is_refused(monkeypatch):
    # with no spread allowed, every band point's Wronskians vary by their
    # rounding, after the recursion checks pass: the grid's status, the
    # one-point view and green_offdiag all name the spread
    from jacobi_reflect import jost
    spec = perturbed_period3_spec()
    lams = band_grid(spec, 10).points
    assert alpha_beta_grid(spec, lams).ok.all()
    monkeypatch.setattr(jost, "WRONSKIAN_SPREAD_TOL", 0.0)
    match = "Wronskian varies by .* across the window"
    for status in alpha_beta_grid(spec, lams).status:
        assert type(status) is CrossCheckFailure and re.match(match, str(status))
    with pytest.raises(CrossCheckFailure, match=match):
        alpha_beta(spec, lams[0])
    with pytest.raises(CrossCheckFailure, match=match):
        green_offdiag(spec, -1, 2, lams[0])
