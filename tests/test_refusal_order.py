"""Which refusal each route raises where several of its checks fail at once.

On the free chain written as period 2 (``util.closed_gap_spec``) two
energies fail more than one check:
- at lambda = 0 the one-period product is -I, so neither Floquet seed
  exists (and both m's read a pole): a route that reads the right side
  names the right seed, a one-side route on the left the left seed;
- at lambda = 2, the top band edge, the edge check and G_nn's pole both
  fail: the band edge is named first.
The table pins the refusal of every route that takes an energy, the CLI's
skip warnings included, so that the order a reader gives its checks in is
the order every route raises them in.
"""

import numpy as np
import pytest

from jacobi_reflect import (BoundaryPoint, EnergyGrid, ac_density, alpha_beta, alpha_beta_grid,
                            channel_weight, cli, essential_support, green_diag, green_diag_grid,
                            green_offdiag, group_velocity, jost_solution, m_left,
                            m_left_boundary, m_right, m_right_boundary, reflectionless_report,
                            scattering_grid, scattering_matrix, spectral_reflection_mratio,
                            spectral_reflection_mratio_grid)
from jacobi_reflect.errors import BandEdge, CrossCheckFailure
from jacobi_reflect.mfunc import boundary_pieces

from util import closed_gap_spec


def _status(grid):
    if grid.status[0] is not None:
        raise grid.status[0]


ROUTES = {
    "m_right_boundary": lambda s, lam: m_right_boundary(s, 0, [lam]),
    "m_left_boundary": lambda s, lam: m_left_boundary(s, 0, [lam]),
    "m_right": lambda s, lam: m_right(s, 0, BoundaryPoint(lam=lam)),
    "m_left": lambda s, lam: m_left(s, 0, BoundaryPoint(lam=lam)),
    "ac_density": lambda s, lam: ac_density(s, 0, [lam]),
    "ac_density(side='left')": lambda s, lam: ac_density(s, 0, [lam], side="left"),
    "green_diag_grid": lambda s, lam: green_diag_grid(s, 0, [lam]),
    "green_diag": lambda s, lam: green_diag(s, 0, BoundaryPoint(lam=lam)),
    "scattering_grid": lambda s, lam: scattering_grid(s, 0, [lam]),
    "scattering_matrix": lambda s, lam: scattering_matrix(s, 0, lam),
    "channel_weight": lambda s, lam: channel_weight(s, 0, lam),
    "jost_solution(..., 'r')": lambda s, lam: jost_solution(s, "r", lam),
    "jost_solution(..., 'l')": lambda s, lam: jost_solution(s, "l", lam),
    "alpha_beta": lambda s, lam: alpha_beta(s, lam),
    "alpha_beta_grid status": lambda s, lam: _status(alpha_beta_grid(s, [lam])),
    "spectral_reflection_mratio_grid": lambda s, lam: spectral_reflection_mratio_grid(s, [lam]),
    "spectral_reflection_mratio": lambda s, lam: spectral_reflection_mratio(s, lam),
    "green_offdiag": lambda s, lam: green_offdiag(s, 0, 1, lam),
    "essential_support": lambda s, lam: essential_support(s, EnergyGrid(np.array([lam]))),
    "reflectionless_report": lambda s, lam: reflectionless_report(s, EnergyGrid(np.array([lam]))),
    "group_velocity": lambda s, lam: group_velocity(s.background, lam),
}
LEFT = {"m_left_boundary", "m_left", "ac_density(side='left')", "jost_solution(..., 'l')"}
CLI_COMMANDS = ["mfunc", "green", "scatter", "jost"]


def test_at_the_band_edge_g_nn_has_a_pole_too():
    # G_nn reads 0 where its denominator is flagged; that both seeds fail at 0
    # shows in the table, where a route on either side names its own
    assert boundary_pieces(closed_gap_spec(), [0], [2.0]).g[0, 0] == 0.0


@pytest.mark.parametrize("route", list(ROUTES))
def test_without_a_seed_each_route_names_the_seed_of_its_first_side(route):
    side = "left" if route in LEFT else "right"
    with pytest.raises(CrossCheckFailure) as err:
        ROUTES[route](closed_gap_spec(), 0.0)
    assert str(err.value).startswith(f"Floquet seed ({side} side): residual inf")


# group_velocity refuses an energy outside the bands' interiors before any check,
# and landauer_current, whose nodes are not chosen by the caller, skips the edge
@pytest.mark.parametrize("route", [r for r in ROUTES if r != "group_velocity"])
def test_at_a_band_edge_the_edge_wins_over_g_nn_s_pole(route):
    with pytest.raises(BandEdge, match="band edge 2.0"):
        ROUTES[route](closed_gap_spec(), 2.0)


@pytest.mark.parametrize("command", CLI_COMMANDS)
@pytest.mark.parametrize("lam, warning", [
    ("0", "Floquet seed (right side): residual inf"),
    ("2", "lambda = 2.0 within margin"),
])
def test_the_cli_warns_of_the_same_refusal(tmp_path, capsys, command, lam, warning):
    config = tmp_path / "closed.json"
    config.write_text('{"background": {"kind": "periodic", "a": [1.0, 1.0], "b": [0.0, 0.0]}}')
    # the one point is skipped with its warning, and then no point is left
    assert cli.main([command, "--config", str(config), "--lambda", lam]) == 4
    warned = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warned) == 1
    assert warned[0].startswith(f"warning: lambda = {lam} skipped: {warning}")
