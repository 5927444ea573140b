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
from repro.core.guard import HealthReport, assert_healthy
from repro.core.yycore import HistoryRecord
from repro.engine import CadenceController, HistoryRecorder, Integrator
from repro.fd import backend as kernel_backend
from repro.grids.latlon import LatLonGrid
from repro.mhd.boundary import WallBC
from repro.mhd.cfl import estimate_dt
from repro.mhd.diagnostics import EnergyReport, panel_energies
from repro.mhd.equations import PanelEquations
from repro.mhd.initial import conduction_state, perturb_state
from repro.mhd.rk4 import rk4_step
from repro.mhd.state import MHDState
from repro.utils.timer import TimerRegistry


class LatLonDynamo:
    """Serial lat-lon MHD dynamo driver (baseline)."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        c = self.config
        self.grid = LatLonGrid.build(c.nr, c.nth, c.nph, ri=c.params.ri, ro=c.params.ro)
        # one kernel backend for the driver's life (REPRO_KERNELS read once)
        backend = kernel_backend.select()
        #: compiled elementwise kernels for the state algebra, or None
        self.kernels = kernel_backend.compiled_module(backend)
        self.equations = PanelEquations(
            self.grid, c.params, (0.0, 0.0, c.params.omega), backend=backend
        )
        self.wall_bc = WallBC(c.params, magnetic=c.magnetic_bc)
        self.timers = TimerRegistry()
        self.time = 0.0
        self.step_count = 0
        self._last_dt = float("nan")
        self.history: list[HistoryRecord] = []
        if c.subtract_base_rhs:
            base = conduction_state(self.grid, c.params)
            self.enforce(base)
            self.equations.subtract_base(base)
        #: recycled storage for a step's four stage derivatives (see
        #: :class:`~repro.core.yycore.YinYangDynamo`)
        self._ks = (None, None, None, None)
        if self.kernels is not None:
            self._ks = tuple(MHDState.zeros(self.grid.shape) for _ in range(4))
        self.state = self.initial_state()

    def initial_state(self) -> MHDState:
        c = self.config
        s = conduction_state(self.grid, c.params)
        rng = np.random.default_rng(c.seed)
        perturb_state(
            s, amp_temperature=c.amp_temperature, amp_seed_field=c.amp_seed_field, rng=rng
        )
        self.enforce(s)
        return s

    # ---- TimeDependentSystem interface ------------------------------------------

    def rhs(self, state: MHDState, out: MHDState | None = None) -> MHDState:
        with self.timers.timing("rhs"):
            return self.equations.rhs(state, out=out)

    def enforce(self, state: MHDState) -> None:
        with self.timers.timing("halo"):
            self.grid.fill_halos_scalar(state.rho)
            self.grid.fill_halos_scalar(state.p)
            self.grid.fill_halos_vector(*state.f)
            self.grid.fill_halos_vector(*state.a)
        with self.timers.timing("wall_bc"):
            self.wall_bc.apply(state)

    @staticmethod
    def axpy(state: MHDState, a: float, k: MHDState) -> MHDState:
        return state.axpy(a, k)

    def axpy_into(self, state: MHDState, a: float, k: MHDState,
                  out: MHDState) -> MHDState:
        """``state + a*k`` written over the dead stage state ``out``."""
        return state.axpy_into(a, k, out, self.kernels)

    @property
    def rk4_combine(self):
        """:func:`rk4_step`'s one-call final combine, with compiled
        kernels only (see :class:`~repro.core.yycore.YinYangDynamo`)."""
        return self._rk4_combine if self.kernels is not None else None

    def _rk4_combine(self, state: MHDState, weights, ks, out: MHDState) -> MHDState:
        """The final RK4 combine over the dead stage state ``out``."""
        return state.rk4_combine_into(weights, ks, out, self.kernels)

    # ---- time stepping ---------------------------------------------------------------

    def estimate_dt(self) -> float:
        """CFL step — includes the pole-throttled longitudinal width."""
        return estimate_dt([(self.grid, self.state)], self.config.params, cfl=self.config.cfl)

    def step(self, dt: float | None = None) -> float:
        if dt is None:
            dt = self.config.dt or self.estimate_dt()
        self.state = rk4_step(self, self.state, dt, self._ks)
        self.time += dt
        self.step_count += 1
        self._last_dt = dt
        c = self.config
        if c.filter_strength > 0.0 and self.step_count % c.filter_every == 0:
            from repro.mhd.filter import filter_state

            filter_state(self.state, c.filter_strength)
            self.enforce(self.state)
        return dt

    def advance(self, dt: float) -> float:
        """:class:`~repro.engine.system.IntegrableDriver` hook."""
        return self.step(dt)

    def run(self, n_steps: int, *, record_every: int = 1,
            observers=()) -> list[HistoryRecord]:
        """Advance ``n_steps`` steps through the shared engine (same
        policy and observers as the Yin-Yang driver)."""
        obs = list(observers)
        if record_every:
            obs.insert(0, HistoryRecorder(record_every))
        controller = CadenceController.from_config(self.config, n_steps)
        Integrator(self, controller, obs).run()
        return self.history

    def record(self, dt: float | None = None) -> HistoryRecord:
        """Append an energy sample; ``dt`` defaults to the last step's."""
        rec = HistoryRecord(
            step=self.step_count,
            time=self.time,
            dt=self._last_dt if dt is None else dt,
            energies=self.energies(),
        )
        self.history.append(rec)
        return rec

    # ---- engine capabilities (guard / checkpoint) -------------------------------

    def check_health(self, *, step: int | None = None,
                     max_grid_reynolds: float = 20.0) -> HealthReport:
        """Guard hook — raises :class:`~repro.core.guard.SolverDivergence`
        with a diagnosis when the state left the physical regime."""
        return assert_healthy(
            self.grid, self.state, self.config.params,
            step=step, max_grid_reynolds=max_grid_reynolds,
        )

    def save_checkpoint(self, path: str | Path) -> Path:
        """Checkpoint hook: archive the single state (explicitly marked
        as such — a restore cannot mistake it for half a panel pair)."""
        from repro.core.checkpoint import save_checkpoint

        return save_checkpoint(path, self.state, time=self.time,
                               step=self.step_count)

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

    def is_physical(self) -> bool:
        return self.state.is_physical()

    def pole_step_penalty(self) -> float:
        """Ratio of the equatorial to polar longitudinal cell widths —
        the factor by which the pole cells throttle the explicit dt
        relative to an equator-limited grid (Section II's motivation)."""
        return self.grid.pole_clustering_ratio()
