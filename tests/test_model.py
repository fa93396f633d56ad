import json

import numpy as np
import pytest

from jacobi_reflect import (Background, BoundaryPoint, JacobiSpec, NonFiniteEntry,
                            NonPositiveCoefficient, SchemaError, WindowTooSmall,
                            coefficient_arrays, parse_config, serialize_config,
                            truncate)

from util import random_spec


def test_free_background():
    bg = Background.free()
    assert bg.period == 1
    assert bg.kind == "constant"
    assert bg.value_at(17) == (1.0, 0.0)
    assert bg.value_at(-3) == (1.0, 0.0)


def test_periodic_background_phase():
    bg = Background.periodic((1.0, 0.5), (0.2, -0.2), phase=1)
    assert bg.value_at(1) == (1.0, 0.2)
    assert bg.value_at(2) == (0.5, -0.2)
    assert bg.value_at(3) == (1.0, 0.2)
    # period 1 canonicalizes phase away
    assert Background.constant(2.0, 1.0).phase == 0


@pytest.mark.parametrize("a", [0.0, -1.0])
def test_nonpositive_hopping_rejected(a):
    with pytest.raises(NonPositiveCoefficient):
        Background.constant(a, 0.0)
    with pytest.raises(NonPositiveCoefficient):
        JacobiSpec(a_override=(a,))


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteEntry):
        Background.constant(1.0, float("nan"))
    with pytest.raises(NonFiniteEntry):
        JacobiSpec(b_override=(float("inf"),))


def test_background_length_mismatch():
    with pytest.raises(SchemaError):
        Background(a=(1.0, 0.5), b=(0.0,))
    with pytest.raises(SchemaError):
        Background(a=(), b=())
    with pytest.raises(SchemaError):
        Background.periodic((1.0, 0.5), (0.0, 0.0), phase=2)


def test_override_shadowing():
    spec = JacobiSpec(offset=-1, a_override=(1.5, 0.7), b_override=(0.3, -0.2))
    assert spec.a(-1) == 1.5
    assert spec.a(0) == 0.7
    assert spec.a(1) == 1.0
    assert spec.b(-1) == 0.3
    assert spec.b(0) == -0.2
    assert spec.b(-2) == 0.0
    assert spec.window == (-1, 0)
    assert JacobiSpec().window is None


def test_coefficient_arrays_match_scalars():
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = random_spec(rng)
        ks = np.arange(-12, 13)
        a, b = coefficient_arrays(spec, -12, 12)
        for i, k in enumerate(ks):
            assert a[i] == spec.a(int(k))
            assert b[i] == spec.b(int(k))


def test_truncate_shape_and_symmetry():
    spec = JacobiSpec(offset=-2, a_override=(1.2, 0.8), b_override=(0.5, -0.5))
    trunc = truncate(spec, 6)
    assert trunc.size == 13
    dense = trunc.to_dense()
    assert np.array_equal(dense, dense.T)
    assert dense[trunc.site_index(-2), trunc.site_index(-2)] == 0.5
    assert dense[trunc.site_index(-2), trunc.site_index(-1)] == 1.2


def test_truncate_window_must_fit():
    spec = JacobiSpec(offset=3, b_override=(1.0,))
    with pytest.raises(WindowTooSmall):
        truncate(spec, 3)
    truncate(spec, 5)


def test_config_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = random_spec(rng)
        doc = serialize_config(spec)
        again = parse_config(doc)
        assert again == spec
    p2 = JacobiSpec(background=Background.periodic((1.0, 0.5), (0.0, 0.1), phase=1),
                    offset=2, b_override=(0.25,))
    assert parse_config(serialize_config(p2)) == p2


def test_config_accepts_json_text():
    doc = json.dumps({"background": {"kind": "constant", "a": 0.5, "b": 0.25}})
    spec = parse_config(doc)
    assert spec.background.a == (0.5,)
    assert spec.background.b == (0.25,)


def test_config_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        parse_config({"background": {"kind": "free"}, "extra": 1})
    with pytest.raises(SchemaError):
        parse_config({"background": {"kind": "free", "junk": 2}})


def test_config_rejects_bad_types():
    with pytest.raises(SchemaError):
        parse_config({"background": {"kind": "constant", "a": True, "b": 0.0}})
    with pytest.raises(SchemaError):
        parse_config({"background": {"kind": "free"},
                      "perturbation": {"offset": 0.5, "b": [1.0]}})


def test_boundary_point_rules():
    z = BoundaryPoint.upper(0.5 + 1e-3j)
    assert not z.is_real_limit
    with pytest.raises(ValueError):
        BoundaryPoint.upper(0.5 - 1e-3j)
    lam = BoundaryPoint.real(0.5)
    assert lam.is_real_limit
    assert lam.side == "+"
    assert BoundaryPoint.real(0.5, side="-").side == "-"
