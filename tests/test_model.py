import json
import os
import subprocess
import sys

import numpy as np
import pytest

import jacobi_reflect
from jacobi_reflect import (Background, BoundaryPoint, JacobiSpec, NonFiniteEntry,
                            NonPositiveCoefficient, SchemaError, WindowTooSmall,
                            coefficient_arrays, parse_config, serialize_config,
                            truncate)
from jacobi_reflect.model import N_MAX, _check_energies

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
    # NaN and infinity in either array, of an override or of a background
    with pytest.raises(NonFiniteEntry, match="coefficient at 0 is not finite: nan"):
        JacobiSpec(b_override=(float("nan"),))
    with pytest.raises(NonFiniteEntry, match="coefficient at 1 is not finite: inf"):
        Background.periodic((1.0, 1.0), (0.0, float("inf")))
    with pytest.raises(NonFiniteEntry, match="coefficient at 0 is not finite: nan"):
        JacobiSpec(a_override=(float("nan"),))
    with pytest.raises(NonFiniteEntry, match="coefficient at 0 is not finite: inf"):
        Background.constant(float("inf"), 0.0)


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
    # a numpy integer half-width is an integer too
    assert np.array_equal(truncate(spec, np.int64(6)).to_dense(), dense)


def test_truncate_window_must_fit():
    spec = JacobiSpec(offset=3, b_override=(1.0,))
    with pytest.raises(WindowTooSmall):
        truncate(spec, 3)
    truncate(spec, 5)


def test_truncate_refusal_prints_no_negative_zero():
    spec = JacobiSpec(offset=-2, b_override=(0.5, -0.5, 0.2))
    assert spec.window == (-2, 0)
    with pytest.raises(WindowTooSmall) as info:
        truncate(spec, 1)
    assert str(info.value) == "perturbation window (-2, 0) does not fit in [0, 0]"
    with pytest.raises(WindowTooSmall) as info:
        truncate(spec, 2)
    assert str(info.value) == "perturbation window (-2, 0) does not fit in [-1, 1]"


@pytest.mark.parametrize("N", [2.5, True, N_MAX + 1])
def test_truncate_half_width_must_be_an_integer_up_to_n_max(N, monkeypatch):
    # refused before any array is built: 2.5 once failed inside numpy indexing,
    # and True gave a 3-site operator
    def no_arrays(*args):
        raise AssertionError("coefficient_arrays was called")

    monkeypatch.setattr(jacobi_reflect.model, "coefficient_arrays", no_arrays)
    with pytest.raises(ValueError, match="N must be an integer") as err:
        truncate(JacobiSpec(offset=0, b_override=(1.0,)), N)
    assert not isinstance(err.value, WindowTooSmall)


@pytest.mark.parametrize("offset", [10**12, 2.5, True])
def test_spec_offset_follows_the_integer_rule(offset):
    # 2.5 once became offset 2 and True offset 1; 10**12 was accepted, and
    # every route then asked numpy for terabytes
    with pytest.raises(ValueError, match="N_MAX"):
        JacobiSpec(offset=offset, b_override=(1.0,))


def test_spec_window_ends_within_n_max():
    assert JacobiSpec(offset=N_MAX - 1, b_override=(1.0, 0.5)).window == (N_MAX - 1, N_MAX)
    with pytest.raises(ValueError, match="N_MAX"):
        JacobiSpec(offset=N_MAX, a_override=(1.0, 0.5))


def test_numpy_integer_offset_and_phase_serialize():
    # stored as Python ints, so the config document stays JSON
    bg = Background.periodic((1.0, 0.5), (0.0, 0.0), np.int64(1))
    spec = JacobiSpec(background=bg, offset=np.int64(-3), b_override=(1.0,))
    assert type(spec.offset) is int and type(spec.background.phase) is int
    assert parse_config(json.dumps(serialize_config(spec))) == spec


@pytest.mark.parametrize("phase", [1.5, True])
def test_background_phase_follows_the_integer_rule(phase):
    # neither truncated nor read as 1
    with pytest.raises(ValueError, match="N_MAX"):
        Background.periodic((1.0, 0.5), (0.0, 0.0), phase)


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
    const = JacobiSpec(background=Background.constant(0.5, 0.25))
    doc = serialize_config(const)
    assert doc == {"background": {"kind": "constant", "a": 0.5, "b": 0.25}}
    assert parse_config(json.dumps(doc)) == const


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


@pytest.mark.parametrize("doc, message", [
    ([{"background": {"kind": "free"}}], r"\$: top level must be an object"),
    ({}, r"\$: missing 'background'"),
    ({"background": "free"}, "background: must be an object"),
    ({"background": {"kind": "periodic", "a": [1.0, 0.5]}},
     "background: 'periodic' requires arrays a and b"),
    ({"background": {"kind": "free"}, "perturbation": [1.0]}, "perturbation: must be an object"),
    ({"background": {"kind": "periodic", "a": 1.0, "b": [0.0]}},
     "background.a: expected an array, got 1.0"),
], ids=["top level", "no background", "background", "periodic", "perturbation", "array"])
def test_config_schema_refusals(doc, message):
    with pytest.raises(SchemaError, match=message):
        parse_config(doc)


def test_boundary_point_rules():
    z = BoundaryPoint.upper(0.5 + 1e-3j)
    assert not z.is_real_limit
    with pytest.raises(ValueError):
        BoundaryPoint.upper(0.5 - 1e-3j)
    lam = BoundaryPoint.real(0.5)
    assert lam.is_real_limit
    assert lam.side == "+"
    assert BoundaryPoint.real(0.5, side="-").side == "-"
    with pytest.raises(ValueError, match="exactly one of z, lam must be given"):
        BoundaryPoint(z=0.5 + 1e-3j, lam=0.5)
    with pytest.raises(ValueError, match="exactly one of z, lam must be given"):
        BoundaryPoint()
    with pytest.raises(ValueError, match="side must be '\\+' or '-', got 'x'"):
        BoundaryPoint.real(0.5, side="x")


@pytest.mark.parametrize("z", [0.3 + 5j, 2.0 + 0.5j])
def test_complex_energies_are_refused(z):
    # a cast to float would drop Im z and answer for Re z
    with pytest.raises(ValueError, match="real energies"):
        _check_energies(np.array([z]))


@pytest.mark.parametrize("make, value, match", [
    pytest.param(BoundaryPoint.real, "0.3", "real energies, got dtype <U", id="real str"),
    pytest.param(BoundaryPoint.real, True, "real energies, got dtype bool", id="real bool"),
    pytest.param(BoundaryPoint.real, 0.3 + 0.1j, "real energies, got complex", id="real complex"),
    pytest.param(BoundaryPoint.real, [0.3, 0.4], "1-d grid, got shape", id="real list"),
    pytest.param(lambda v: BoundaryPoint(lam=v), "0.3", "real energies, got dtype <U", id="lam str"),
    pytest.param(BoundaryPoint.upper, "0.3+0.1j", "complex energies, got dtype <U", id="upper str"),
    pytest.param(BoundaryPoint.upper, 0.3 - 0.1j, "interior evaluation needs Im z > 0",
                 id="upper lower half-plane"),
])
def test_boundary_points_take_the_one_energy_rule(make, value, match):
    # real('0.3') and real(True) were evaluated at 0.3 and 1.0, upper('0.3+0.1j')
    # at 0.3 + 0.1i, and BoundaryPoint(lam='0.3') was refused only when evaluated
    with pytest.raises(ValueError, match=match):
        make(value)


def test_boundary_points_store_the_gate_value():
    # a numpy scalar or an integer is stored as the float or complex the gate gives
    lam = BoundaryPoint.real(np.float32(0.3))
    assert type(lam.lam) is float and lam.lam == float(np.float32(0.3))
    assert type(BoundaryPoint.real(1).lam) is float and BoundaryPoint.real(1).lam == 1.0
    z = BoundaryPoint.upper(np.complex64(0.3 + 0.1j))
    assert type(z.z) is complex and z.z == complex(np.complex64(0.3 + 0.1j))


def test_import_needs_numpy_only():
    # a fresh interpreter, so modules the test run itself imported do not count
    src = os.path.dirname(os.path.dirname(jacobi_reflect.__file__))
    code = ("import sys, jacobi_reflect; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
