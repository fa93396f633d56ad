"""Coefficient model for full-line Jacobi operators.

An operator is a periodic (or constant) background plus a finite override
window::

    (J u)_k = a_k u_{k+1} + a_{k-1} u_{k-1} + b_k u_k

``a_k`` is the bond between sites ``k`` and ``k+1``.  Off-diagonal entries
are restricted to ``a_k > 0``: a diagonal sign gauge makes the signs of the
``a_k`` spectrally irrelevant, so nothing is lost and branch selection
stays simple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import index

import numpy as np

from .errors import (
    NonFiniteEntry,
    NonPositiveCoefficient,
    SchemaError,
    WindowTooSmall,
)

# Largest magnitude of every lattice integer (``_check_integer``): sites,
# window offsets, phases, extents and counts.  A cut N_MAX sites from the
# window sweeps 10^6 bonds: scattering_grid on the single-site chain takes
# 0.96 s at one energy and 7.3 s at 200, peak 23 MiB traced (55 MB RSS), on
# two Xeon cores.  As a truncation half-width it bounds make_plan and evolve
# on a caller's own N; the packet routes only check it, and build on the
# smallest N that holds their run.  Per site of the 2N + 1, a plan holds 16
# bytes (diag, offdiag) and a state 16; evolve holds 112 in seven complex
# arrays (2X cast once, T_{k-1}, T_k, the sum and the two work buffers).  At
# N = 16000 on the single-site chain a plan, a packet and one evolve to the
# horizon peak at 166 bytes a site traced: about 0.33 GB at N_MAX.
# Time grows as N^2 (terms times cone width).
N_MAX = 10**6

__all__ = [
    "Background",
    "JacobiSpec",
    "BoundaryPoint",
    "TruncatedOperator",
    "coefficient_arrays",
    "truncate",
    "parse_config",
    "serialize_config",
]


def _check_entries(a, b, k_of=lambda i: i):
    for i, v in enumerate(a):
        if not math.isfinite(v):
            raise NonFiniteEntry(k_of(i), v)
        if v <= 0:
            raise NonPositiveCoefficient(k_of(i), v)
    for i, v in enumerate(b):
        if not math.isfinite(v):
            raise NonFiniteEntry(k_of(i), v)


@dataclass(frozen=True)
class Background:
    """Periodic coefficient tail, stored canonically.

    ``a`` and ``b`` are the period cell; ``phase`` shifts the cell,
    i.e. the entry at site ``k`` is ``a[(k - phase) % p]``.  A period-1
    cell is the constant background; the free operator is ``a=1, b=0``.
    """

    a: tuple = (1.0,)
    b: tuple = (0.0,)
    phase: int = 0

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = tuple(float(x) for x in self.b)
        if len(a) == 0 or len(a) != len(b):
            raise SchemaError("background", "a and b must have equal positive length")
        _check_entries(a, b)
        p = len(a)
        _check_integer(self.phase, "phase")
        if not 0 <= self.phase < p:
            raise SchemaError("background.phase", f"phase must be in [0, {p})")
        # canonicalize: period 1 ignores phase; a numpy integer is stored as int
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "phase", 0 if p == 1 else index(self.phase))

    @classmethod
    def free(cls):
        return cls()

    @classmethod
    def constant(cls, a=1.0, b=0.0):
        return cls((a,), (b,))

    @classmethod
    def periodic(cls, a, b, phase=0):
        return cls(tuple(a), tuple(b), phase)

    @property
    def period(self):
        return len(self.a)

    @property
    def kind(self):
        return "constant" if self.period == 1 else "periodic"

    def value_at(self, k):
        """(a_k, b_k) of the bare background."""
        i = (k - self.phase) % self.period
        return self.a[i], self.b[i]


@dataclass(frozen=True)
class JacobiSpec:
    """Background plus a finite override window starting at ``offset``.

    ``a_override[j]`` replaces the bond ``a_{offset+j}``; ``b_override[j]``
    replaces the diagonal ``b_{offset+j}``.  Either array may be empty.
    """

    background: Background = field(default_factory=Background)
    offset: int = 0
    a_override: tuple = ()
    b_override: tuple = ()

    def __post_init__(self):
        a = tuple(float(x) for x in self.a_override)
        b = tuple(float(x) for x in self.b_override)
        _check_integer(self.offset, "offset")
        _check_integer(self.offset + max(len(a), len(b), 1) - 1, "window's last site")
        _check_entries(a, b, k_of=lambda i: self.offset + i)
        object.__setattr__(self, "a_override", a)
        object.__setattr__(self, "b_override", b)
        object.__setattr__(self, "offset", index(self.offset))

    @property
    def window(self):
        """Smallest ``(lo, hi)`` containing every override index, or None."""
        n = max(len(self.a_override), len(self.b_override))
        if n == 0:
            return None
        return self.offset, self.offset + n - 1

    def a(self, k):
        j = k - self.offset
        if 0 <= j < len(self.a_override):
            return self.a_override[j]
        return self.background.value_at(k)[0]

    def b(self, k):
        j = k - self.offset
        if 0 <= j < len(self.b_override):
            return self.b_override[j]
        return self.background.value_at(k)[1]


def coefficient_arrays(spec, k_lo, k_hi):
    """Vectors of ``a_k`` and ``b_k`` for ``k`` in ``[k_lo, k_hi]`` inclusive."""
    bg = spec.background
    idx = (np.arange(k_lo, k_hi + 1) - bg.phase) % bg.period
    out = []
    for cell, over in ((bg.a, spec.a_override), (bg.b, spec.b_override)):
        vals = np.array(cell)[idx]
        lo, hi = max(spec.offset, k_lo), min(spec.offset + len(over), k_hi + 1)
        if lo < hi:
            vals[lo - k_lo: hi - k_lo] = over[lo - spec.offset: hi - spec.offset]
        out.append(vals)
    return tuple(out)


@dataclass(frozen=True)
class BoundaryPoint:
    """Either a genuine upper-half-plane point or a real boundary limit.

    Real-limit points carry a side: ``lambda - i0`` values are produced by
    conjugating the ``lambda + i0`` value (reflection principle), never by
    an independent lower-half-plane evaluation.  The point is stored as
    ``_check_energies`` gives it on its axis, a float or a complex number.
    """

    z: complex = None
    lam: float = None
    side: str = "+"

    def __post_init__(self):
        if (self.z is None) == (self.lam is None):
            raise ValueError("exactly one of z, lam must be given")
        real = self.z is None
        value = _check_energies([self.lam if real else self.z], real)[0].item()
        object.__setattr__(self, "lam" if real else "z", value)
        if self.side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {self.side!r}")

    @classmethod
    def upper(cls, z):
        return cls(z=z)

    @classmethod
    def real(cls, lam, side="+"):
        return cls(lam=lam, side=side)

    @property
    def is_real_limit(self):
        return self.z is None


@dataclass(eq=False)
class TruncatedOperator:
    """Symmetric tridiagonal restriction to sites ``-N..N`` (Dirichlet cut)."""

    N: int
    diag: np.ndarray        # b_{-N..N}, length 2N+1
    offdiag: np.ndarray     # a_{-N..N-1}, length 2N

    @property
    def size(self):
        return 2 * self.N + 1

    def site_index(self, k):
        """Array index of lattice site ``k``."""
        return k + self.N

    def to_dense(self):
        m = np.diag(self.diag)
        idx = np.arange(self.size - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        return m


def _check_integer(value, name):
    """The one rule for a lattice integer (a site, an offset, a phase, an
    extent or a count): refuse a bool, a non-integer and a magnitude past
    N_MAX; numpy integers are integers."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not -N_MAX <= value <= N_MAX):
        raise ValueError(f"{name} must be an integer of magnitude at most N_MAX = {N_MAX}, "
                         f"got {value!r}")


def _check_energies(pts, real_limit=True):
    """The one rule for energies: ``pts``, one energy or a 1-d grid, as a 1-d
    array, of floats on the real axis (``lambda + i0``) and of complex points
    with Im z > 0 off it.  Integer and float values pass, and off the axis
    complex ones: a cast would drop Im z and evaluate at ``Re z + i0``, read
    ``'0.3'`` as 0.3 and ``True`` as 1.0."""
    z = np.asarray(pts)
    if z.dtype.kind not in ("iuf" if real_limit else "iufc"):
        got = "complex values" if z.dtype.kind == "c" else f"dtype {z.dtype}"
        raise ValueError(f"{'real-axis' if real_limit else 'interior'} evaluation takes "
                         f"{'real' if real_limit else 'complex'} energies, got {got}")
    if z.ndim > 1:
        raise ValueError(f"energies must be one value or a 1-d grid, got shape {z.shape}")
    z = np.atleast_1d(z.astype(float if real_limit else complex, copy=False))
    if not real_limit and np.any(z.imag <= 0):
        raise ValueError("interior evaluation needs Im z > 0")
    return z


def truncate(spec, N):
    """Finite section of the operator on sites ``[-N, N]``, 1 <= N <= N_MAX."""
    _check_integer(N, "N")
    if N < 1:
        raise WindowTooSmall(f"N = {N} must be >= 1")
    w = spec.window
    if w is not None and not (-N + 1 <= w[0] and w[1] <= N - 1):
        raise WindowTooSmall(
            f"perturbation window {w} does not fit in [{-(N - 1)}, {N - 1}]"
        )
    a, b = coefficient_arrays(spec, -N, N)
    return TruncatedOperator(N=N, diag=b, offdiag=a[:-1])


# ---------------------------------------------------------------------------
# config documents

_TOP_KEYS = {"background", "perturbation"}
_BG_KEYS = {"kind", "a", "b", "phase"}
_PERT_KEYS = {"offset", "a", "b"}


def _require_keys(d, allowed, path):
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}")


def _as_number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {v!r}")
    return float(v)


def _as_int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(path, f"expected an integer, got {v!r}")
    return v


def _as_array(v, path):
    if not isinstance(v, (list, tuple)):
        raise SchemaError(path, f"expected an array, got {v!r}")
    return [_as_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def parse_config(doc):
    """Build a JacobiSpec from a config document (JSON text or dict).

    Strict: unknown keys are rejected with the offending field path.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    _require_keys(doc, _TOP_KEYS, "$")
    if "background" not in doc:
        raise SchemaError("$", "missing 'background'")

    bg_doc = doc["background"]
    if not isinstance(bg_doc, dict):
        raise SchemaError("background", "must be an object")
    _require_keys(bg_doc, _BG_KEYS, "background")
    kind = bg_doc.get("kind")
    if kind == "free":
        _require_keys(bg_doc, {"kind"}, "background")
        bg = Background.free()
    elif kind == "constant":
        _require_keys(bg_doc, {"kind", "a", "b"}, "background")
        bg = Background.constant(
            _as_number(bg_doc.get("a", 1.0), "background.a"),
            _as_number(bg_doc.get("b", 0.0), "background.b"),
        )
    elif kind == "periodic":
        if "a" not in bg_doc or "b" not in bg_doc:
            raise SchemaError("background", "'periodic' requires arrays a and b")
        bg = Background.periodic(
            _as_array(bg_doc["a"], "background.a"),
            _as_array(bg_doc["b"], "background.b"),
            _as_int(bg_doc.get("phase", 0), "background.phase"),
        )
    else:
        raise SchemaError("background.kind", f"expected free|constant|periodic, got {kind!r}")

    offset, a_over, b_over = 0, (), ()
    if "perturbation" in doc:
        p_doc = doc["perturbation"]
        if not isinstance(p_doc, dict):
            raise SchemaError("perturbation", "must be an object")
        _require_keys(p_doc, _PERT_KEYS, "perturbation")
        offset = _as_int(p_doc.get("offset", 0), "perturbation.offset")
        a_over = tuple(_as_array(p_doc.get("a", []), "perturbation.a"))
        b_over = tuple(_as_array(p_doc.get("b", []), "perturbation.b"))
    return JacobiSpec(bg, offset, a_over, b_over)


def serialize_config(spec):
    """Inverse of parse_config, up to canonicalization (returns a dict)."""
    bg = spec.background
    if bg.period == 1:
        if bg.a == (1.0,) and bg.b == (0.0,):
            bg_doc = {"kind": "free"}
        else:
            bg_doc = {"kind": "constant", "a": bg.a[0], "b": bg.b[0]}
    else:
        bg_doc = {"kind": "periodic", "a": list(bg.a), "b": list(bg.b), "phase": bg.phase}
    doc = {"background": bg_doc}
    if spec.window is not None:
        pert = {"offset": spec.offset}
        if spec.a_override:
            pert["a"] = list(spec.a_override)
        if spec.b_override:
            pert["b"] = list(spec.b_override)
        doc["perturbation"] = pert
    return doc
