"""``yycore`` — the Yin-Yang finite-difference geodynamo solver.

This is the serial reference implementation of the paper's code: the
compressible MHD equations advanced with RK4 on the two panels of a
:class:`~repro.grids.yinyang.YinYangGrid`, with

* identical RHS kernels on both panels (only the rotation-vector
  orientation differs — the Yin-Yang symmetry of Section II/IV),
* the overset interpolation internal boundary condition after every
  stage, and
* the radial wall conditions after every stage.

The parallel flat-MPI version lives in
:mod:`repro.parallel.parallel_solver` and is verified to reproduce this
driver's fields exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.config import RunConfig
from repro.core.driver import DynamoCore
from repro.grids.component import Panel
from repro.grids.yinyang import YinYangGrid
from repro.mhd.boundary import WallBC
from repro.mhd.diagnostics import EnergyReport, yinyang_energies
from repro.mhd.equations import PanelEquations
from repro.mhd.initial import conduction_state, perturb_state
from repro.mhd.state import MHDState

PairState = dict[Panel, MHDState]

PANELS = (Panel.YIN, Panel.YANG)


def enforce_pair(grid: YinYangGrid, wall_bc: WallBC, pair: PairState) -> None:
    """Internal (overset) then wall boundary conditions, in place.

    The wall condition is applied last so the physical walls override
    the interpolated values at the ring/wall corner points.
    """
    yin, yang = pair[Panel.YIN], pair[Panel.YANG]
    grid.apply_overset_scalar(yin.rho, yang.rho)
    grid.apply_overset_scalar(yin.p, yang.p)
    grid.apply_overset_vector(yin.f, yang.f)
    grid.apply_overset_vector(yin.a, yang.a)
    wall_bc.apply(yin)
    wall_bc.apply(yang)


def enforced_pair(grid: YinYangGrid, config: RunConfig, wall_bc: WallBC, *,
                  perturb: bool) -> PairState:
    """The global conduction pair, enforced — the base the well-balanced
    scheme subtracts (``perturb=False``) or the run's initial state,
    perturbed with the seeds ``config.seed + k`` per panel.  The serial
    driver and every rank build their state from this one function."""
    c = config
    pair: PairState = {}
    for k, panel in enumerate(PANELS):
        s = conduction_state(grid.panel(panel), c.params)
        if perturb:
            perturb_state(
                s,
                amp_temperature=c.amp_temperature,
                amp_seed_field=c.amp_seed_field,
                rng=np.random.default_rng(c.seed + k),
            )
        pair[panel] = s
    enforce_pair(grid, wall_bc, pair)
    return pair


class YinYangDynamo(DynamoCore):
    """Serial Yin-Yang MHD dynamo driver (the paper's contribution)."""

    panels = PANELS

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        c = self.config
        self.grid = YinYangGrid(
            c.nr, c.nth, c.nph,
            ri=c.params.ri, ro=c.params.ro,
            extra_theta=c.extra_theta, extra_phi=c.extra_phi,
        )
        omega = c.params.omega
        backend = self._select_kernels()
        # global +z axis: Yin-local (0,0,omega); Yang-local (0,omega,0) - eq. (1)
        self.equations: dict[Panel, PanelEquations] = {
            Panel.YIN: PanelEquations(self.grid.yin, c.params, (0.0, 0.0, omega),
                                      backend=backend),
            Panel.YANG: PanelEquations(self.grid.yang, c.params, (0.0, omega, 0.0),
                                       backend=backend),
        }
        self.patches = (self.grid.yin, self.grid.yang)
        self.wall_bc = WallBC(c.params, magnetic=c.magnetic_bc)
        if c.subtract_base_rhs:
            base = enforced_pair(self.grid, c, self.wall_bc, perturb=False)
            for p, s in base.items():
                self.equations[p].subtract_base(s)
        self._start(self.initial_state())

    def initial_state(self) -> PairState:
        """Hydrostatic conduction state + perturbations on both panels."""
        return enforced_pair(self.grid, self.config, self.wall_bc, perturb=True)

    # ---- the geometry the driver core steps ------------------------------------

    def enforce(self, pair: PairState) -> None:
        """:func:`enforce_pair` on this driver's grid and walls."""
        enforce_pair(self.grid, self.wall_bc, pair)

    # ---- checkpoint restore --------------------------------------------------------

    def restore_checkpoint(self, path: str | Path) -> None:
        """Resume from a panel-pair checkpoint (exact continuation: the
        restored fields enter the next RK4 step precisely as the
        original run's fields would have).  A per-rank tile family from
        a parallel run is accepted too — it is assembled into the exact
        global pair (:mod:`repro.parallel.elastic`), so a parallel
        checkpoint restarts serially without conversion."""
        from repro.core.checkpoint import load_checkpoint

        p = Path(path)
        if not p.exists() and not p.with_suffix(p.suffix + ".npz").exists():
            from repro.parallel.elastic import load_any_checkpoint

            states, t, step = load_any_checkpoint(p)
        else:
            states, t, step = load_checkpoint(path)
        if not isinstance(states, dict) or set(states) != {Panel.YIN, Panel.YANG}:
            raise ValueError(
                f"{path}: not a Yin-Yang panel-pair checkpoint "
                f"(got {type(states).__name__})"
            )
        self.state = states
        self.time = t
        self.step_count = step

    # ---- diagnostics --------------------------------------------------------------

    def energies(self) -> EnergyReport:
        """Overlap-corrected global energies."""
        return yinyang_energies(self.grid, self.state, self.config.params)

    def energy_series(self):
        """(times, kinetic, magnetic) arrays from the recorded history."""
        t = np.array([r.time for r in self.history])
        ke = np.array([r.energies.kinetic for r in self.history])
        me = np.array([r.energies.magnetic for r in self.history])
        return t, ke, me
