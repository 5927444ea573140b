"""The lat-lon baseline dynamo solver (the paper's "previous code").

Identical physics, discretisation and time integration to
:class:`~repro.core.yycore.YinYangDynamo`, but on the traditional
full-sphere latitude-longitude grid: periodic longitude halos,
across-pole colatitude halos with tangential sign flips, and — the
point the paper makes in Section II — a time step throttled by the
longitudinal grid convergence towards the poles.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.config import RunConfig
from repro.core.driver import DynamoCore
from repro.grids.latlon import LatLonGrid
from repro.mhd.boundary import WallBC
from repro.mhd.diagnostics import EnergyReport, panel_energies
from repro.mhd.equations import PanelEquations
from repro.mhd.initial import conduction_state, perturb_state
from repro.mhd.state import MHDState


class LatLonDynamo(DynamoCore):
    """Serial lat-lon MHD dynamo driver (baseline)."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        c = self.config
        self.grid = LatLonGrid.build(c.nr, c.nth, c.nph, ri=c.params.ri, ro=c.params.ro)
        self.equations = PanelEquations(
            self.grid, c.params, (0.0, 0.0, c.params.omega),
            backend=self._select_kernels(),
        )
        self.patches = (self.grid,)
        self.wall_bc = WallBC(c.params, magnetic=c.magnetic_bc)
        if c.subtract_base_rhs:
            base = conduction_state(self.grid, c.params)
            self.enforce(base)
            self.equations.subtract_base(base)
        self._start(self.initial_state())

    def initial_state(self) -> MHDState:
        c = self.config
        s = conduction_state(self.grid, c.params)
        rng = np.random.default_rng(c.seed)
        perturb_state(
            s, amp_temperature=c.amp_temperature, amp_seed_field=c.amp_seed_field, rng=rng
        )
        self.enforce(s)
        return s

    # ---- the geometry the driver core steps ------------------------------------

    def enforce(self, state: MHDState) -> None:
        self.grid.fill_halos_scalar(state.rho)
        self.grid.fill_halos_scalar(state.p)
        self.grid.fill_halos_vector(*state.f)
        self.grid.fill_halos_vector(*state.a)
        self.wall_bc.apply(state)

    # ---- checkpoint restore --------------------------------------------------------

    def restore_checkpoint(self, path: str | Path) -> None:
        """Resume from a single-state checkpoint."""
        from repro.core.checkpoint import load_checkpoint

        states, t, step = load_checkpoint(path)
        if not isinstance(states, MHDState):
            raise ValueError(
                f"{path}: not a single-state checkpoint (got a panel "
                f"mapping; use YinYangDynamo to restore it)"
            )
        self.state = states
        self.time = t
        self.step_count = step

    # ---- diagnostics --------------------------------------------------------------

    def energies(self) -> EnergyReport:
        """Global energies; halo rows/columns are excluded from quadrature."""
        w = self.grid.volume_weights()
        mask = np.zeros(self.grid.shape[1:], dtype=bool)
        mask[1:-1, 1:-1] = True
        return panel_energies(
            self.grid, self.state, self.config.params, w * mask[None, :, :]
        )

    def pole_step_penalty(self) -> float:
        """Ratio of the equatorial to polar longitudinal cell widths —
        the factor by which the pole cells throttle the explicit dt
        relative to an equator-limited grid (Section II's motivation)."""
        return self.grid.pole_clustering_ratio()
