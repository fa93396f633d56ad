import numpy as np
import pytest

from jacobi_reflect import (BandEdge, Background, band_edges, band_intervals,
                            discriminant)
from jacobi_reflect.bands import EDGE_REL, _near_edge
from jacobi_reflect.errors import raise_first


def _monodromy(bg, lam):
    m = np.eye(2)
    for k in range(bg.period):
        a_k, b_k = bg.value_at(k + 1)
        a_prev = bg.value_at(k)[0]
        step = np.array([[(lam - b_k) / a_k, -a_prev / a_k], [1.0, 0.0]])
        m = step @ m
    return m


def test_free_band():
    # every gap of the free chain written with period p is closed
    for p in range(1, 65):
        bands = band_intervals(Background.periodic((1.0,) * p, (0.0,) * p))
        assert len(bands) == 1
        np.testing.assert_allclose(bands[0], (-2.0, 2.0), rtol=0, atol=1e-14)


def test_constant_band_scales():
    bands = band_intervals(Background.constant(0.5, 0.25))
    np.testing.assert_allclose(bands[0], (0.25 - 1.0, 0.25 + 1.0), atol=1e-12)


def test_period2_bands_and_discriminant():
    bg = Background.periodic((1.0, 0.5), (0.0, 0.0))
    bands = band_intervals(bg)
    np.testing.assert_allclose(bands, [(-1.5, -0.5), (0.5, 1.5)], atol=1e-10)
    # closed form: trace of the monodromy over one cell divided by prod(a)
    poly = discriminant(bg)
    lams = np.linspace(-3, 3, 41)
    np.testing.assert_allclose(poly(lams), 2.0 * lams**2 - 2.5, atol=1e-12)


def test_discriminant_matches_monodromy_trace():
    rng = np.random.default_rng(5)
    for _ in range(15):
        p = int(rng.integers(1, 5))
        bg = Background.periodic(tuple(rng.uniform(0.5, 2.0, p)),
                                 tuple(rng.uniform(-1.0, 1.0, p)))
        poly = discriminant(bg)
        for lam in rng.uniform(-4.0, 4.0, 5):
            m = _monodromy(bg, lam)
            np.testing.assert_allclose(np.linalg.det(m), 1.0, atol=1e-10)
            np.testing.assert_allclose(poly(lam), np.trace(m), atol=1e-9)


def test_edges_have_unimodular_multipliers():
    bg = Background.periodic((1.0, 0.5), (0.0, 0.0))
    poly = discriminant(bg)
    for edge in band_edges(bg):
        assert abs(abs(poly(edge)) - 2.0) <= 1e-8
        mu = np.linalg.eigvals(_monodromy(bg, edge))
        np.testing.assert_allclose(np.abs(mu), 1.0, atol=1e-6)


def test_band_intervals_match_discriminant():
    bg = Background.periodic((1.0, 0.5), (0.0, 0.0))
    lams = np.array([-2.0, -1.0, 0.0, 0.7, 1.2, 1.6])
    # an odd insertion index into lo_0, hi_0, lo_1, ... means inside a band
    inside = np.searchsorted(band_edges(bg), lams) % 2 == 1
    assert inside.tolist() == [False, True, False, True, True, False]
    poly = discriminant(bg)
    assert inside.tolist() == (np.abs(poly(lams)) <= 2.0).tolist()


def test_near_edge_refuses_the_edge_margin():
    bg = Background.free()
    with pytest.raises(BandEdge):
        raise_first([_near_edge(bg, np.array([2.0 - 1e-9]))])
    with pytest.raises(BandEdge):
        raise_first([_near_edge(bg, np.array([-2.0 + 1e-9]))])
    raise_first([_near_edge(bg, np.array([0.0, 1.9, -1.9]))])


def test_bands_sorted_disjoint():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = int(rng.integers(1, 6))
        bg = Background.periodic(tuple(rng.uniform(0.5, 2.0, p)),
                                 tuple(rng.uniform(-1.0, 1.0, p)))
        bands = band_intervals(bg)
        flat = [x for band in bands for x in band]
        assert flat == sorted(flat)
        assert all(hi > lo for lo, hi in bands)


def _floquet_edges_mp(a, b):
    """Sorted eigenvalues of the periodic and antiperiodic cell matrices,
    in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    p = len(a)
    edges = []
    with mpmath.workdps(40):
        for sign in (1, -1):
            m = mpmath.matrix(p, p)
            for k in range(p):
                m[k, k] = mpmath.mpf(b[k])
            for k in range(p - 1):
                m[k, k + 1] = m[k + 1, k] = mpmath.mpf(a[k])
            m[0, p - 1] += sign * mpmath.mpf(a[-1])
            m[p - 1, 0] += sign * mpmath.mpf(a[-1])
            edges += list(mpmath.eigsy(m, eigvals_only=True))
        return np.array(sorted(edges), dtype=float)


@pytest.mark.parametrize("p", [8, 16, 32, 64])
def test_long_period_edges_match_extended_precision(p):
    # all gaps of a random cell are open, so it has p bands; the narrowest
    # is 2e-6 wide at p = 32 and 7e-13 at p = 64
    rng = np.random.default_rng((11, p))
    a, b = rng.uniform(0.8, 1.2, p), rng.uniform(-0.3, 0.3, p)
    bg = Background.periodic(a, b)
    bands = band_intervals(bg)
    assert len(bands) == p
    exact = _floquet_edges_mp(a, b)
    scale = np.abs(b).max() + 2.0 * a.max()
    assert np.abs(band_edges(bg) - exact).max() <= 1e-13 * scale
    # its margin is below the edges' rounding at p = 64, so the point is
    # placed from the edge the guard sees
    lo, hi = min(bands, key=lambda band: band[1] - band[0])
    with pytest.raises(BandEdge):
        raise_first([_near_edge(bg, np.array([lo + 0.5 * EDGE_REL * (hi - lo)]))])
