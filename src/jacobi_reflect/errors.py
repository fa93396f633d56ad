"""Exception hierarchy.

Configuration problems derive from ``ValueError`` so that ordinary input
validation reads naturally; numerical refusals (band edges, pole hits,
failed cross-checks) derive from ``NumericalError`` so callers can drop a
grid point and move on.
"""

import numpy as np


class JacobiReflectError(Exception):
    """Base class for all package errors."""


class SchemaError(JacobiReflectError, ValueError):
    """An input violates its rule: a config field, a CLI flag or a parameter, named by its path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class NonPositiveCoefficient(JacobiReflectError, ValueError):
    """An off-diagonal entry a_k is zero or negative."""

    def __init__(self, k, value):
        self.k = k
        self.value = value
        super().__init__(f"a[{k}] = {value!r} must be > 0")


class NonFiniteEntry(JacobiReflectError, ValueError):
    """A coefficient is NaN or infinite."""

    def __init__(self, k, value):
        self.k = k
        self.value = value
        super().__init__(f"coefficient at {k} is not finite: {value!r}")


class WindowTooSmall(JacobiReflectError, ValueError):
    """A finite truncation does not contain the perturbation window."""


class NumericalError(JacobiReflectError):
    """Base class for refusals raised during evaluation (not bad input)."""


class BandEdge(NumericalError):
    """Energy too close to a spectral band edge for a boundary-value evaluation."""

    def __init__(self, lam, edge, margin):
        self.lam = lam
        self.edge = edge
        self.margin = margin
        super().__init__(
            f"lambda = {lam} within margin {margin:.3g} of band edge {edge}"
        )


class PoleHit(NumericalError):
    """A denominator vanished: the value is infinite at an eigenvalue (of a
    half line for m, of the whole line for G_nn and the Wronskian)."""


class CrossCheckFailure(NumericalError):
    """Two independent expressions for the same quantity disagree."""


class NoOpenChannel(NumericalError):
    """Both channel densities vanish at the requested energy."""


class NormalizationPole(NumericalError):
    """Decaying solution vanishes at the normalization site (Jost-function zero)."""


class DegenerateBasis(NumericalError):
    """A solution and its conjugate are (numerically) linearly dependent."""


class HorizonExceeded(NumericalError):
    """Requested evolution time exceeds the boundary-contamination horizon."""


def _named(checks, *names):
    """The checks ``names`` of a reader's ``{name: (mask, refusal)}``, in its
    order; a name the reader does not produce is a KeyError."""
    chosen = {name: checks[name] for name in names}
    return [chosen[name] for name in checks if name in chosen]


def first_refusals(checks):
    """Per energy of a grid, None or the refusal of the first check it fails.

    ``checks`` are ``(mask, refusal)`` pairs in check order: a boolean mask
    over the energies, true where the check fails, and ``refusal(i)``, the
    exception of energy i, built only for its first failure.
    """
    refusals = [None] * len(checks[0][0])
    if np.any([mask for mask, _ in checks]):
        for mask, refusal in checks:
            for i in np.flatnonzero(mask).tolist():
                refusals[i] = refusals[i] or refusal(i)
    return refusals


def raise_first(checks):
    """Raise the refusal of the first check that fails, at its first failing energy."""
    for mask, refusal in checks:
        if np.any(mask):
            raise refusal(int(np.flatnonzero(mask)[0]))
