import re
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from jacobi_reflect import (Background, CrossCheckFailure, HorizonExceeded, JacobiSpec,
                            LatticeState, WindowTooSmall, band_intervals, coefficient_arrays,
                            discriminant, dynamical_reflection, evolve, group_velocity,
                            jost_solution, make_plan, projection_defect, truncate,
                            wave_packet)
from jacobi_reflect import dynamics
from jacobi_reflect.dynamics import (ENERGY_TAIL, N_MAX, PACKET_MARGIN, _bessel_coefficients,
                                     _left_packet_run)

from util import (free_propagator_kernel, free_spec, full_lattice_evolve, period2_spec,
                  perturbed_period3_spec, random_spec, single_site_spec)


def test_lattice_state_mass():
    amps = np.zeros(11, dtype=complex)
    amps[2] = 1.0
    state = LatticeState.from_amplitudes(5, amps)
    assert state.site(-3) == 1.0
    assert state.mass(-5, -3) == 1.0
    assert state.mass(-2, 5) == 0.0
    with pytest.raises(ValueError):
        LatticeState.from_amplitudes(5, np.zeros(4))


def test_lattice_state_norm_follows_its_amplitudes():
    # the norm is read off the amplitudes: scaling them in place rescales it
    state = LatticeState.from_amplitudes(3, np.ones(7, dtype=complex))
    assert state.norm == float(np.linalg.norm(np.ones(7)))
    state.amplitudes *= 2.0
    assert state.norm == float(np.linalg.norm(np.full(7, 2.0)))
    assert state.norm == pytest.approx(2.0 * np.sqrt(7.0), rel=1e-15)


def test_lattice_state_refuses_sites_outside_the_truncation():
    # unit amplitudes on N = 3: a site past -N or N wrapped to the other end
    state = LatticeState.from_amplitudes(3, np.ones(7, dtype=complex))
    assert state.mass(-3, -1) == 3.0
    assert state.site(-3) == state.site(3) == 1.0
    for k in (-4, 4):
        with pytest.raises(IndexError, match=f"site {k} outside -N..N with N = 3"):
            state.site(k)
    with pytest.raises(IndexError, match="site -4 outside"):
        state.mass(-4, -1)
    with pytest.raises(IndexError, match="site 4 outside"):
        state.mass(0, 4)


def test_evolution_is_unitary_and_reversible():
    rng = np.random.default_rng(71)
    spec = random_spec(rng)
    plan = make_plan(spec, 200, 40)
    amps = np.zeros(401, dtype=complex)
    amps[170:231] = rng.normal(size=61) + 1j * rng.normal(size=61)
    amps /= np.linalg.norm(amps)
    state = LatticeState.from_amplitudes(200, amps)
    out = evolve(plan, state, 30.0)
    assert abs(out.norm - 1.0) <= 1e-12
    back = evolve(plan, out, -30.0)
    assert np.abs(back.amplitudes - state.amplitudes).max() <= 1e-12


def _dense_evolve(plan, state, t):
    """Oracle: e^{-itJ} from the full eigendecomposition of the truncation."""
    trunc = plan.truncation
    w, v = eigh_tridiagonal(trunc.diag, trunc.offdiag)
    return v @ (np.exp(-1j * w * t) * (v.T @ state.amplitudes))


def test_chebyshev_matches_dense_propagation():
    # perturbed period-3 background, so the spectral interval is off-center
    spec = JacobiSpec(background=Background.periodic((1.0, 0.6, 1.3), (0.4, -0.3, 0.9)),
                      offset=-2, a_override=(0.7, 1.6, 0.9), b_override=(-0.5, 1.2))
    N = 150
    plan = make_plan(spec, N, 40)
    rng = np.random.default_rng(3)
    amps = np.zeros(2 * N + 1, dtype=complex)
    amps[N - 40: N + 41] = rng.normal(size=81) + 1j * rng.normal(size=81)
    amps /= np.linalg.norm(amps)
    state = LatticeState.from_amplitudes(N, amps)
    for t in (0.9 * plan.t_max, -0.6 * plan.t_max, 0.0):
        got = evolve(plan, state, t).amplitudes
        np.testing.assert_allclose(got, _dense_evolve(plan, state, t), rtol=0, atol=1e-12)
    assert np.array_equal(evolve(plan, state, 0.0).amplitudes, amps)


def test_light_cone_is_bitwise_the_full_lattice_sum(monkeypatch):
    packet, plan, t_star = _left_packet_run(single_site_spec(), 0.0, 0.05, 600)
    N = packet.N                          # the run's own truncation
    masked = evolve(plan, packet, t_star).amplitudes.copy()
    masked[N:] = 0.0                      # the left mask of projection_defect
    ends = np.zeros(2 * N + 1, dtype=complex)
    ends[[0, 1, -1]] = 1.0, -0.3, 0.5j    # the cone is clamped on both sides at once
    zero = np.zeros(2 * N + 1, dtype=complex)
    p3_plan = make_plan(perturbed_period3_spec(), N, 20)   # off-center spectrum
    rng = np.random.default_rng(12)
    p3_amps = zero.copy()
    p3_amps[N - 20: N + 21] = rng.normal(size=41) + 1j * rng.normal(size=41)
    cases = [(plan, "left packet", packet.amplitudes), (plan, "masked", masked),
             (plan, "both ends", ends), (plan, "zero", zero),
             (p3_plan, "p3 window", p3_amps), (p3_plan, "p3 both ends", ends)]
    # one cone a term, blocks that end at every phase of the buffers' swap, the default
    for block in (1, 2, 3, dynamics.CONE_BLOCK):
        monkeypatch.setattr(dynamics, "CONE_BLOCK", block)
        for case_plan, name, amps in cases:
            state = LatticeState.from_amplitudes(N, amps)
            for t in (-0.5 * case_plan.t_max, 0.0, 0.8 * case_plan.t_max, case_plan.t_max):
                got = evolve(case_plan, state, t).amplitudes
                expected = full_lattice_evolve(case_plan, state, t)
                assert np.array_equal(got, expected), (block, name, t)
    assert not evolve(plan, LatticeState.from_amplitudes(N, zero), t_star).amplitudes.any()


def test_evolve_buffers_do_not_alias_its_input_or_output():
    packet, plan, t_star = _left_packet_run(single_site_spec(), 0.0, 0.05, 600)
    N = packet.N
    before = packet.amplitudes.copy()
    out = evolve(plan, packet, t_star)
    assert np.array_equal(packet.amplitudes, before)
    assert not np.shares_memory(out.amplitudes, packet.amplitudes)
    # the same input gives the same bits on a second call
    kept = out.amplitudes.copy()
    assert evolve(plan, packet, t_star).amplitudes.tobytes() == kept.tobytes()
    # later calls, at another t and on the -t leg of projection_defect, leave
    # earlier results alone
    other = evolve(plan, packet, 0.3 * t_star)
    masked = out.amplitudes.copy()
    masked[N:] = 0.0
    back = evolve(plan, LatticeState.from_amplitudes(N, masked), -t_star)
    assert out.amplitudes.tobytes() == kept.tobytes()
    assert not np.shares_memory(out.amplitudes, other.amplitudes)
    assert not np.shares_memory(out.amplitudes, back.amplitudes)
    assert np.array_equal(packet.amplitudes, before)


def test_packet_stays_inside_its_light_cone():
    # T_k(X) phi reaches k sites past the support of phi, and the sum stops at K terms;
    # the run's packet and plan at t*, on N = 600 rather than the run's own
    # truncation, whose edge the cone nearly reaches
    N, spec = 600, single_site_spec()
    t_star = _left_packet_run(spec, 0.0, 0.05, N)[2]
    packet = wave_packet(spec, "l", 0.0, 0.05, N)
    occupied = np.flatnonzero(packet.amplitudes)
    plan = make_plan(spec, N, N - occupied[0])
    terms = _bessel_coefficients(plan.radius * t_star).size
    sites = np.arange(2 * N + 1)
    outside = (sites < occupied[0] - terms) | (sites > occupied[-1] + terms)
    assert outside.sum() >= 100
    out = evolve(plan, packet, t_star).amplitudes
    assert not out[outside].any()


def test_chebyshev_interval_contains_spectrum():
    for spec in (free_spec(), single_site_spec(), period2_spec(),
                 random_spec(np.random.default_rng(4))):
        plan = make_plan(spec, 60, 10)
        w = eigh_tridiagonal(plan.truncation.diag, plan.truncation.offdiag,
                             eigvals_only=True)
        assert plan.center - plan.radius <= w.min()
        assert w.max() <= plan.center + plan.radius


def test_energy_is_conserved():
    spec = single_site_spec()
    plan = make_plan(spec, 150, 30)
    h = truncate(spec, 150).to_dense()
    amps = np.zeros(301, dtype=complex)
    amps[130:171] = np.exp(-np.linspace(-2, 2, 41) ** 2)
    amps /= np.linalg.norm(amps)
    state = LatticeState.from_amplitudes(150, amps)
    e0 = np.vdot(state.amplitudes, h @ state.amplitudes).real
    out = evolve(plan, state, 40.0)
    e1 = np.vdot(out.amplitudes, h @ out.amplitudes).real
    np.testing.assert_allclose(e1, e0, atol=1e-12)


def test_free_propagation_matches_bessel_kernel():
    N, t = 300, 20.0
    plan = make_plan(free_spec(), N, 0)
    amps = np.zeros(2 * N + 1, dtype=complex)
    amps[N] = 1.0
    out = evolve(plan, LatticeState.from_amplitudes(N, amps), t)
    ks = np.arange(-40, 41)
    expect = np.array([free_propagator_kernel(int(k), t) for k in ks])
    got = np.array([out.site(int(k)) for k in ks])
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_group_velocity_against_discriminant():
    # v = 2 p sin(kappa) / |disc'(lambda)|, kappa from disc = 2 cos(p kappa)
    for bg, lam in [(Background.free(), 0.0), (Background.free(), 1.0),
                    (Background.periodic((1.0, 0.5), (0.0, 0.0)), 0.85),
                    (Background.periodic((1.0, 0.5), (0.0, 0.0)), -1.1)]:
        poly = discriminant(bg)
        p = bg.period
        kappa = np.arccos(np.clip(poly(lam) / 2.0, -1.0, 1.0))
        expect = 2.0 * p * np.sin(kappa) / abs(poly.deriv()(lam))
        np.testing.assert_allclose(group_velocity(bg, lam), expect, rtol=1e-6)


# the benchmark's perturbed period-4 operator
PERIOD4_SPEC = JacobiSpec(background=Background.periodic((1.0, 0.8, 1.2, 0.9),
                                                      (0.3, -0.2, 0.1, -0.4)),
                          offset=-1, a_override=(1.3, 0.9), b_override=(0.2, -0.4))
CARRIER_CASES = [(single_site_spec(), 0.0), (period2_spec(), 0.85), (period2_spec(), -1.1),
                 (PERIOD4_SPEC, 0.73)]


def _packet_carrier(spec, side, lam0, dlam, N):
    """The packet's sites and its amplitudes there over its real Gaussian envelope."""
    packet = wave_packet(spec, side, lam0, dlam, N)
    occupied = np.flatnonzero(packet.amplitudes)
    ks = occupied - N
    sigma = group_velocity(spec.background, lam0) / (2.0 * dlam)
    envelope = np.exp(-((ks - ks.mean()) ** 2) / (4.0 * sigma * sigma))
    return ks, packet.amplitudes[occupied] / envelope


@pytest.mark.parametrize("spec, lam0", CARRIER_CASES)
@pytest.mark.parametrize("side", ["l", "r"])
def test_packet_carrier_is_the_jost_solution(spec, lam0, side):
    # one period and its multiplier give, up to one complex factor, psi_r of
    # the bare background (its conjugate for a packet moving left)
    ks, carrier = _packet_carrier(spec, side, lam0, 0.05, 4000)
    assert np.all(np.diff(ks) == 1) and (ks < 0).all() == (side == "l")
    bare = JacobiSpec(background=spec.background)
    sol = jost_solution(bare, "r", lam0, int(ks[0]), int(ks[-1]))
    psi = sol.values[ks - sol.k_min]
    if side == "r":
        psi = np.conj(psi)
    ratio = carrier / psi
    ratio /= ratio[0]
    assert np.abs(np.angle(ratio)).max() <= 1e-13
    assert np.abs(np.abs(ratio) - 1.0).max() <= 1e-13


@pytest.mark.parametrize("spec, lam0", CARRIER_CASES)
@pytest.mark.parametrize("side", ["l", "r"])
def test_packet_carrier_solves_the_recursion(spec, lam0, side):
    # the powers of mu as repeated products: mu**q, from site 0 or from the
    # packet's first site, leaves 1.2e-13 or 4.6e-14 on the single-site packet
    ks, carrier = _packet_carrier(spec, side, lam0, 0.05, 4000)
    a, b = coefficient_arrays(JacobiSpec(background=spec.background), int(ks[0]), int(ks[-1]))
    resid = a[1:-1] * carrier[2:] + a[:-2] * carrier[:-2] + (b[1:-1] - lam0) * carrier[1:-1]
    assert np.abs(resid).max() <= 1e-14 * np.abs(carrier).max()


@pytest.mark.parametrize("bg, lam0", [(Background.free(), 3.0),
                                      (Background.periodic((1.0, 0.5), (0.0, 0.0)), 0.0)])
def test_group_velocity_refuses_energies_off_the_bands(bg, lam0):
    # above the free band, and at the period-2 gap centre, where the right
    # Floquet solution vanishes at site 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not inside a spectral band"):
            group_velocity(bg, lam0)


def test_wave_packet_shape():
    spec = single_site_spec()
    packet = wave_packet(spec, "l", 0.0, 0.05, 800)
    assert abs(packet.norm - 1.0) <= 1e-12
    assert packet.mass(-800, -1) >= 1.0 - 1e-12
    h = truncate(spec, 800)
    # mean energy sits at lambda0 well within the packet width
    dense_apply = (h.diag * packet.amplitudes
                   + np.append(h.offdiag * packet.amplitudes[1:], 0.0)
                   + np.append(0.0, h.offdiag * packet.amplitudes[:-1]))
    e_mean = np.vdot(packet.amplitudes, dense_apply).real
    assert abs(e_mean - 0.0) <= 0.05
    mirrored = wave_packet(spec, "r", 0.0, 0.05, 800)
    assert mirrored.mass(1, 800) >= 1.0 - 1e-12


def test_packet_must_fit_and_stay_in_band():
    with pytest.raises(WindowTooSmall):
        wave_packet(free_spec(), "l", 0.0, 0.05, 60)
    with pytest.raises(ValueError):
        wave_packet(free_spec(), "l", 1.99, 0.05, 800)


def test_packet_refuses_an_unknown_side():
    with pytest.raises(ValueError, match="side must be 'l' or 'r', got 'x'"):
        wave_packet(single_site_spec(), "x", 0.0, 0.05, 800)


def test_packet_width_must_be_positive():
    for dlam in (-0.05, 0.0, np.nan):
        with pytest.raises(ValueError, match="dlambda"):
            wave_packet(single_site_spec(), "l", 0.0, dlam, 500)


@pytest.mark.parametrize("z, terms", [(0.0, 1), (1e-9, 2), (0.5, 14), (2.404825557695773, 21),
                                      (100.0, 156), (800.0, 909), (3000.0, 3168)])
def test_bessel_coefficients_match_extended_precision(z, terms):
    # terms: the first k > z with |J_k(z)| < CHEB_TOL; 2.4048... is the first
    # zero of J_0
    mpmath = pytest.importorskip("mpmath")
    jk = _bessel_coefficients(z)
    assert jk.size == terms
    # every coefficient for small z, 16 spread over the range for large z
    ks = np.unique(np.linspace(0, terms - 1, min(terms, 16)).round().astype(int))
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.besselj(int(k), z)) for k in ks])
    np.testing.assert_allclose(jk[ks], exact, rtol=0, atol=1e-15)


def test_evolve_refuses_a_state_of_another_truncation():
    # a smaller state would be read against the coefficients of sites -200..0
    spec = single_site_spec()
    plan = make_plan(spec, 200, 0)
    for n in (100, 300):
        amps = np.zeros(2 * n + 1, dtype=complex)
        amps[n] = 1.0
        with pytest.raises(ValueError, match=f"N = {n} .* N = 200"):
            evolve(plan, LatticeState.from_amplitudes(n, amps), 5.0)
    amps = np.zeros(201, dtype=complex)
    amps[100] = 1.0
    out = evolve(make_plan(spec, 100, 0), LatticeState.from_amplitudes(100, amps), 5.0)
    assert abs(abs(out.site(0)) ** 2 - 0.1964) <= 1e-4


@pytest.mark.parametrize("k_pack", [-50, -1, 2.5, 10.0, True, "10", None])
def test_packet_extent_must_be_a_non_negative_integer(k_pack):
    # a negative extent would stretch the horizon past N / v_max
    with pytest.raises(ValueError, match="k_pack") as err:
        make_plan(single_site_spec(), 100, k_pack)
    assert not isinstance(err.value, WindowTooSmall)


def test_packet_extent_bounds():
    spec = single_site_spec()
    assert make_plan(spec, 100, 0).t_max == 50.0        # N / v_max
    assert make_plan(spec, 100, np.int64(50)).t_max == 25.0
    with pytest.raises(WindowTooSmall):
        make_plan(spec, 100, 100)


def test_horizon_refuses_long_times():
    plan = make_plan(free_spec(), 100, 20)
    amps = np.zeros(201, dtype=complex)
    amps[100] = 1.0
    state = LatticeState.from_amplitudes(100, amps)
    with pytest.raises(HorizonExceeded):
        evolve(plan, state, plan.t_max * 1.01)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_time_is_refused(t):
    plan = make_plan(free_spec(), 100, 20)
    amps = np.zeros(201, dtype=complex)
    amps[100] = 1.0
    with pytest.raises(ValueError, match="t must be finite"):
        evolve(plan, LatticeState.from_amplitudes(100, amps), t)


@pytest.mark.parametrize("N", [2.5, 600.0, True, "600", N_MAX + 1, np.int64(10 * N_MAX)])
def test_half_width_must_be_an_integer_up_to_n_max(N):
    # refused by type and size alone: N_MAX + 1 would build arrays of 2N + 1 values
    spec = single_site_spec()
    for call in (lambda: wave_packet(spec, "l", 0.0, 0.05, N),
                 lambda: make_plan(spec, N, 10),
                 lambda: dynamical_reflection(spec, 0.0, 0.05, N),
                 lambda: projection_defect(spec, 0.0, 0.05, N)):
        with pytest.raises(ValueError, match="N must be an integer") as err:
            call()
        assert not isinstance(err.value, WindowTooSmall)


def test_half_width_below_one_is_still_window_too_small():
    for N in (0, -3):
        with pytest.raises(WindowTooSmall):
            wave_packet(single_site_spec(), "l", 0.0, 0.05, N)
        with pytest.raises(WindowTooSmall):
            make_plan(single_site_spec(), N, 0)
    # numpy integers are integers
    assert make_plan(single_site_spec(), np.int64(100), 10).truncation.diag.size == 201


def test_single_site_dynamical_reflection():
    out = dynamical_reflection(single_site_spec(), 0.0, 0.05, 1000)
    np.testing.assert_allclose(out["R_dyn"], 0.2, atol=5e-3)
    np.testing.assert_allclose(out["T_dyn"], 0.8, atol=5e-3)
    assert out["abs_error"] <= 1e-3
    assert out["site0_mass"] <= 1e-4
    assert out["R_dyn"] + out["T_dyn"] + out["site0_mass"] <= 1.0 + 1e-10


def test_large_truncation_in_linear_memory():
    # 40 001 sites: a dense eigenvector matrix would take 12.8 GB
    N = 20000
    plan = make_plan(single_site_spec(), N, N // 2)
    arrays = [v for obj in (plan, plan.truncation) for v in vars(obj).values()
              if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 16 * (2 * N + 1)
    out = dynamical_reflection(single_site_spec(), 0.0, 0.05, N)
    np.testing.assert_allclose(out["R_dyn"], 0.2, atol=5e-3)
    assert out["abs_error"] <= 1e-3
    assert abs(out["R_dyn"] + out["T_dyn"] + out["site0_mass"] - 1.0) <= 1e-10


def test_free_packet_transmits():
    # N must leave the transmitted packet several widths past the cut at t*
    out = dynamical_reflection(free_spec(), 0.0, 0.05, 1000)
    assert out["T_dyn"] >= 0.999
    assert out["R_dyn"] <= 1e-3


def test_projection_defect_small():
    assert projection_defect(free_spec(), 0.0, 0.05, 600) <= 1e-8
    assert projection_defect(single_site_spec(), 0.0, 0.05, 600) <= 1e-8


def test_band_check_respects_background():
    spec = period2_spec()
    bands = band_intervals(spec.background)
    assert any(lo < 0.85 < hi for lo, hi in bands)
    with pytest.raises(ValueError):
        wave_packet(spec, "l", 0.0, 0.05, 800)   # gap energy


def test_slow_packet_clears_before_it_is_observed():
    # single-site near the band edge: v_g = 0.62 at 1.9 and 0.40 at 1.96; a
    # packet observed at a fraction of the horizon had not crossed the window
    out = dynamical_reflection(single_site_spec(), 1.9, 0.02, 4000)
    assert out["abs_error"] <= ENERGY_TAIL
    assert out["window_mass"] <= ENERGY_TAIL
    assert abs(out["R_dyn"] + out["T_dyn"] + out["site0_mass"] - 1.0) <= 1e-10


def _smallest_n(spec, lam0, dlam):
    with pytest.raises(WindowTooSmall, match="smallest N that works is") as err:
        dynamical_reflection(spec, lam0, dlam, 10)
    return int(re.search(r"smallest N that works is (\d+)", str(err.value)).group(1))


@pytest.mark.parametrize("spec, lam0", [(single_site_spec(), 0.0), (period2_spec(), 0.85),
                                        (PERIOD4_SPEC, 0.73)])
def test_window_too_small_names_the_smallest_n(spec, lam0):
    n = _smallest_n(spec, lam0, 0.05)
    out = dynamical_reflection(spec, lam0, 0.05, n)
    assert out["abs_error"] <= ENERGY_TAIL
    assert projection_defect(spec, lam0, 0.05, n) <= 1e-8
    for call in (dynamical_reflection, projection_defect):
        with pytest.raises(WindowTooSmall, match=f"N = {n - 1} .* smallest N that works is {n}"):
            call(spec, lam0, 0.05, n - 1)


@pytest.mark.parametrize("spec, lam0", [(single_site_spec(), 0.0), (period2_spec(), 0.85),
                                        (PERIOD4_SPEC, 0.73)],
                         ids=["single-site", "period 2", "period 4"])
def test_n_is_a_bound_not_a_size(spec, lam0):
    # a run is built on the smallest N that holds it, so a larger N gives the same bits
    n = _smallest_n(spec, lam0, 0.05)

    def hexed(N):
        out = dynamical_reflection(spec, lam0, 0.05, N)
        assert out.pop("N") == N
        return ({key: float(value).hex() for key, value in out.items()},
                projection_defect(spec, lam0, 0.05, N).hex())

    at_n_min = hexed(n)
    assert hexed(2 * n) == at_n_min
    assert hexed(10 ** 5) == at_n_min


def test_a_packet_radius_past_n_max_is_refused():
    # sigma = v_g / (2 dlambda) overflows to inf, and int() of its ceiling
    # raised OverflowError
    spec, match = single_site_spec(), f"packet radius past N_MAX = {N_MAX}"
    with pytest.raises(ValueError, match=match):
        wave_packet(spec, "l", 0.3, 1e-320, 1000)
    with pytest.raises(ValueError, match=match):
        dynamical_reflection(spec, 0.3, 1e-320, 1000)
    # a radius within N_MAX keeps its refusal: the N that holds the packet
    v_g = group_velocity(Background.free(), 0.3)
    dlam = 5.0 * v_g / (2.0 * N_MAX) * 1.001
    with pytest.raises(WindowTooSmall, match="cannot hold a packet"):
        wave_packet(spec, "l", 0.3, dlam, 1000)


def test_an_n_past_n_max_is_named_as_such():
    # 5e-6 past 3 dlambda, just outside the band-edge margin, the packet's
    # slowest part moves at 4.5e-3 sites per unit time
    with pytest.raises(WindowTooSmall, match=f"above N_MAX = {N_MAX}") as err:
        dynamical_reflection(free_spec(), 2.0 - 3e-5 - 5e-6, 1e-5, 1000)
    assert int(re.search(r"works is (\d+)", str(err.value)).group(1)) > N_MAX


@pytest.mark.parametrize("spec, lam0", [(single_site_spec(), 0.0), (PERIOD4_SPEC, 0.73)])
def test_the_evolved_state_is_the_wave_packet(spec, lam0, monkeypatch):
    # placed by its own geometry: the leading edge sits PACKET_MARGIN + 2 sites
    # before the window whatever N is, and the run evolves that very state, on
    # its own truncation whatever N bounds it
    w_ext = max(map(abs, spec.window))
    seen = []

    def spy(plan, state, t):
        seen.append((state.N, state.amplitudes.tobytes()))
        return evolve(plan, state, t)

    monkeypatch.setattr(dynamics, "evolve", spy)
    for N in (1000, 4000):
        dynamical_reflection(spec, lam0, 0.05, N)
        n, evolved = seen[-1]
        packet = wave_packet(spec, "l", lam0, 0.05, n)
        assert evolved == packet.amplitudes.tobytes()
        assert np.flatnonzero(packet.amplitudes)[-1] - n == -(w_ext + 2 + PACKET_MARGIN)
    assert seen[0] == seen[1]


def test_a_packet_that_has_not_cleared_is_refused(monkeypatch):
    # what stays on the window at t* is only the energy tail; with no tail
    # allowed, the measured remnant trips the check
    out = dynamical_reflection(single_site_spec(), 0.0, 0.05, 1000)
    assert 0.0 < out["window_mass"] <= ENERGY_TAIL
    monkeypatch.setattr(dynamics, "ENERGY_TAIL", out["window_mass"] / 2)
    with pytest.raises(CrossCheckFailure, match="has not cleared the window"):
        dynamical_reflection(single_site_spec(), 0.0, 0.05, 1000)


@pytest.mark.parametrize("spec, lam0", [(single_site_spec(), 0.4), (period2_spec(), 0.95),
                                        (PERIOD4_SPEC, 0.73)],
                         ids=["single-site", "period 2", "period 4"])
def test_cone_blocks_keep_the_bits_of_one_cone_a_term(spec, lam0, monkeypatch):
    N, dlam = 1500, 0.12
    _, plan, t_star = _left_packet_run(spec, lam0, dlam, N)
    # the last block is a short one
    assert (_bessel_coefficients(plan.radius * t_star).size - 1) % dynamics.CONE_BLOCK

    def hexed():
        out = dynamical_reflection(spec, lam0, dlam, N)
        return ([out[key].hex() for key in ("R_dyn", "T_dyn", "site0_mass", "window_mass",
                                           "t_star")]
                + [projection_defect(spec, lam0, dlam, N).hex()])

    blocked = hexed()
    monkeypatch.setattr(dynamics, "CONE_BLOCK", 1)
    assert hexed() == blocked
