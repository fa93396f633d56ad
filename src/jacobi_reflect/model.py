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

import numpy as np

from .errors import (
    NonFiniteEntry,
    NonPositiveCoefficient,
    SchemaError,
    WindowTooSmall,
)

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
        if not 0 <= self.phase < p:
            raise SchemaError("background.phase", f"phase must be in [0, {p})")
        # canonicalize: period 1 ignores phase
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "phase", 0 if p == 1 else int(self.phase))

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
        _check_entries(a, b, k_of=lambda i: self.offset + i)
        object.__setattr__(self, "a_override", a)
        object.__setattr__(self, "b_override", b)
        object.__setattr__(self, "offset", int(self.offset))

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
    ks = np.arange(k_lo, k_hi + 1)
    bg = spec.background
    idx = (ks - bg.phase) % bg.period
    a = np.asarray(bg.a)[idx].astype(float)
    b = np.asarray(bg.b)[idx].astype(float)
    j = ks - spec.offset
    in_a = (j >= 0) & (j < len(spec.a_override))
    in_b = (j >= 0) & (j < len(spec.b_override))
    if in_a.any():
        a[in_a] = np.asarray(spec.a_override)[j[in_a]]
    if in_b.any():
        b[in_b] = np.asarray(spec.b_override)[j[in_b]]
    return a, b


@dataclass(frozen=True)
class BoundaryPoint:
    """Either a genuine upper-half-plane point or a real boundary limit.

    Real-limit points carry a side: ``lambda - i0`` values are produced by
    conjugating the ``lambda + i0`` value (reflection principle), never by
    an independent lower-half-plane evaluation.
    """

    z: complex = None
    lam: float = None
    side: str = "+"

    def __post_init__(self):
        if (self.z is None) == (self.lam is None):
            raise ValueError("exactly one of z, lam must be given")
        if self.z is not None and complex(self.z).imag <= 0:
            raise ValueError(f"upper-half-plane point needs Im z > 0, got {self.z}")
        if self.side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {self.side!r}")

    @classmethod
    def upper(cls, z):
        return cls(z=complex(z))

    @classmethod
    def real(cls, lam, side="+"):
        return cls(lam=float(lam), side=side)

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


def truncate(spec, N):
    """Finite section of the operator on sites ``[-N, N]``."""
    if N < 1:
        raise WindowTooSmall(f"N = {N} must be >= 1")
    w = spec.window
    if w is not None and not (-N + 1 <= w[0] and w[1] <= N - 1):
        raise WindowTooSmall(
            f"perturbation window {w} does not fit in [-{N - 1}, {N - 1}]"
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
