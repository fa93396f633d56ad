"""Positive controls: reflectionless operators that are not periodic.

Double commutation adds an eigenvalue below or above the free band and
leaves the reflection coefficient zero (``util.doubly_commuted_free_spec``).
Every route must call the result reflectionless at the existing bounds.
Scaling one hopping of its window by 1 + delta must make it reflect, with R
growing like delta^2.
"""

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from jacobi_reflect import (JacobiSpec, alpha_beta_grid, band_grid, dynamical_reflection,
                            landauer_current, reflectionless_report, scattering_grid,
                            spectral_reflection_mratio_grid, truncate)
from jacobi_reflect.dynamics import ENERGY_TAIL

from util import doubly_commuted_free_spec

KAPPA, GAMMA = 0.7, 1.0


@pytest.fixture(scope="module", params=["below", "above"])
def soliton(request):
    return doubly_commuted_free_spec(KAPPA, GAMMA, request.param)


def test_double_commutation_has_a_window(soliton):
    spec, _ = soliton
    assert spec.window == (-28, 28)


def test_double_commutation_is_reflectionless_on_every_route(soliton):
    spec, _ = soliton
    grid = band_grid(spec, 200)
    report = reflectionless_report(spec, grid)
    assert report.all_pass() and report.agree.all()
    s = scattering_grid(spec, 0, grid.points)
    jost = alpha_beta_grid(spec, grid.points)
    assert jost.ok.all()
    for r in (np.abs(s["s_ll"]) ** 2, np.abs(s["s_rr"]) ** 2, jost.R_r,
              spectral_reflection_mratio_grid(spec, grid.points)):
        assert r.max() <= 1e-8


def test_double_commutation_adds_lambda_1_to_the_truncation(soliton):
    spec, lam1 = soliton
    trunc = truncate(spec, 300)
    assert np.abs(eigvalsh_tridiagonal(trunc.diag, trunc.offdiag) - lam1).min() <= 1e-10


def test_double_commutation_carries_the_free_current(soliton):
    spec, _ = soliton
    bias = (2.0, 0.3, 1.0, -0.2)
    got, free = landauer_current(spec, *bias), landauer_current(JacobiSpec(), *bias)
    for key in ("charge_current", "energy_current"):
        np.testing.assert_allclose(got[key], free[key], rtol=1e-12, atol=0.0)


def test_double_commutation_lets_a_packet_through(soliton):
    spec, _ = soliton
    out = dynamical_reflection(spec, 0.3, 0.05, 2000)
    assert out["R_dyn"] <= ENERGY_TAIL
    assert out["T_dyn"] >= 0.999


def test_near_miss_reflects_at_second_order():
    # scale the hopping in the middle of the window by 1 + delta
    spec, _ = doubly_commuted_free_spec(KAPPA, GAMMA, "below")
    grid = band_grid(spec, 200)
    a = np.array(spec.a_override)
    middle = a.size // 2
    ratio = {}
    for delta in (1e-4, 1e-5, 1e-6):
        scaled = a.copy()
        scaled[middle] *= 1.0 + delta
        near = JacobiSpec(offset=spec.offset, a_override=tuple(scaled),
                          b_override=spec.b_override)
        assert not reflectionless_report(near, grid).all_pass()
        ratio[delta] = alpha_beta_grid(near, grid.points).R_r.max() / delta ** 2
    assert ratio[1e-5] > 0
    assert abs(ratio[1e-5] - ratio[1e-6]) <= 0.01 * ratio[1e-6]
