"""Scattering and reflectionless-criteria toolkit for Jacobi matrices.

Doubly infinite symmetric tridiagonal operators with eventually periodic
coefficients: Weyl m-functions on and off the real axis, diagonal and
off-diagonal Green's functions, the two-channel scattering matrix, Jost
solutions, wave-packet dynamics on large truncations, and steady-state
transport.  The analysis layer cross-checks the measure-theoretic,
spectral, stationary, and dynamical notions of a reflectionless operator
against each other on energy grids.
"""

from .analysis import (CriteriaReport, EnergyGrid, band_grid, essential_support,
                       explicit_grid, landauer_current, reflectionless_report)
from .bands import band_edges, band_intervals, discriminant, in_band_mask
from .dynamics import (LatticeState, PropagationPlan, dynamical_reflection,
                       evolve, free_propagator_kernel, group_velocity,
                       make_plan, projection_defect, wave_packet)
from .errors import (BandEdge, CrossCheckFailure, DegenerateBasis,
                     HorizonExceeded, JacobiReflectError, NoOpenChannel,
                     NonFiniteEntry, NonPositiveCoefficient, NormalizationPole,
                     NumericalError, PoleHit, SchemaError, WindowTooSmall)
from .jost import (JostSolution, ReflectionDatum, alpha_beta, green_offdiag,
                   jost_solution, spectral_reflection_mratio,
                   spectral_reflection_mratio_grid, wronskian)
from .mfunc import (HerglotzValue, ac_density, m_left, m_left_boundary,
                    m_left_grid, m_oracle_truncated, m_right, m_right_boundary,
                    m_right_grid, strip_once, tail_m)
from .model import (Background, BoundaryPoint, JacobiSpec, TruncatedOperator,
                    coefficient_arrays, parse_config, serialize_config,
                    truncate)
from .scattering import (ChannelWeight, GreenDiag, ScatteringMatrix,
                         channel_weight, green_diag, green_diag_grid,
                         reflection_transmission, scattering_grid,
                         scattering_matrix, unitarity_defect,
                         unitarity_defect_grid)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Background", "JacobiSpec", "BoundaryPoint", "TruncatedOperator",
    "coefficient_arrays", "parse_config", "serialize_config", "truncate",
    # bands
    "discriminant", "band_intervals", "band_edges", "in_band_mask",
    # m-functions
    "HerglotzValue", "m_right", "m_left", "m_right_grid", "m_left_grid",
    "m_right_boundary", "m_left_boundary", "tail_m", "strip_once",
    "ac_density", "m_oracle_truncated",
    # scattering
    "GreenDiag", "ScatteringMatrix", "ChannelWeight", "green_diag",
    "green_diag_grid", "scattering_matrix", "scattering_grid",
    "reflection_transmission", "channel_weight", "unitarity_defect",
    "unitarity_defect_grid",
    # Jost
    "JostSolution", "ReflectionDatum", "jost_solution", "wronskian",
    "alpha_beta", "spectral_reflection_mratio",
    "spectral_reflection_mratio_grid", "green_offdiag",
    # dynamics
    "LatticeState", "PropagationPlan", "make_plan", "evolve", "wave_packet",
    "group_velocity", "dynamical_reflection", "projection_defect",
    "free_propagator_kernel",
    # analysis
    "EnergyGrid", "CriteriaReport", "explicit_grid", "band_grid",
    "essential_support", "reflectionless_report", "landauer_current",
    # errors
    "JacobiReflectError", "SchemaError", "NonPositiveCoefficient",
    "NonFiniteEntry", "WindowTooSmall", "NumericalError", "BandEdge",
    "PoleHit", "CrossCheckFailure", "NoOpenChannel", "NormalizationPole",
    "DegenerateBasis", "HorizonExceeded",
]
