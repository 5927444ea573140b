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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import RunConfig
from repro.core.guard import HealthReport, assert_healthy
from repro.engine import CadenceController, HistoryRecorder, Integrator
from repro.fd import backend as kernel_backend
from repro.grids.component import Panel
from repro.grids.yinyang import YinYangGrid
from repro.mhd.boundary import WallBC
from repro.mhd.cfl import estimate_dt
from repro.mhd.diagnostics import EnergyReport, yinyang_energies
from repro.mhd.equations import PanelEquations
from repro.mhd.initial import conduction_state, perturb_state
from repro.mhd.rk4 import rk4_step
from repro.mhd.state import MHDState
from repro.utils.timer import TimerRegistry

PairState = dict[Panel, MHDState]


@dataclass
class HistoryRecord:
    """One diagnostics sample of a run."""

    step: int
    time: float
    dt: float
    energies: EnergyReport


class YinYangDynamo:
    """Serial Yin-Yang MHD dynamo driver (the paper's contribution)."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        c = self.config
        self.grid = YinYangGrid(
            c.nr, c.nth, c.nph,
            ri=c.params.ri, ro=c.params.ro,
            extra_theta=c.extra_theta, extra_phi=c.extra_phi,
        )
        omega = c.params.omega
        # one kernel backend for the driver's life: REPRO_KERNELS is read
        # here, never again
        backend = kernel_backend.select()
        #: compiled elementwise kernels for the state algebra, or None
        self.kernels = kernel_backend.compiled_module(backend)
        # global +z axis: Yin-local (0,0,omega); Yang-local (0,omega,0) - eq. (1)
        self.equations: dict[Panel, PanelEquations] = {
            Panel.YIN: PanelEquations(self.grid.yin, c.params, (0.0, 0.0, omega),
                                      backend=backend),
            Panel.YANG: PanelEquations(self.grid.yang, c.params, (0.0, omega, 0.0),
                                       backend=backend),
        }
        self.wall_bc = WallBC(c.params, magnetic=c.magnetic_bc)
        self.timers = TimerRegistry()
        self.time = 0.0
        self.step_count = 0
        self._last_dt = float("nan")
        self.history: list[HistoryRecord] = []
        if c.subtract_base_rhs:
            base = {
                p: conduction_state(self.grid.panel(p), c.params)
                for p in (Panel.YIN, Panel.YANG)
            }
            self.enforce(base)
            for p, s in base.items():
                self.equations[p].subtract_base(s)
        #: storage for the four stage derivatives of a step, recycled
        #: every step; it never leaves :func:`rk4_step`.  Only the
        #: compiled RHS writes into offered storage.
        self._ks = (None, None, None, None)
        if self.kernels is not None:
            self._ks = tuple(
                {p: MHDState.zeros(self.grid.shape) for p in self.equations}
                for _ in range(4)
            )
        self.state: PairState = self.initial_state()

    # ---- state construction ----------------------------------------------------

    def initial_state(self) -> PairState:
        """Hydrostatic conduction state + perturbations on both panels."""
        c = self.config
        pair: PairState = {}
        for k, panel in enumerate((Panel.YIN, Panel.YANG)):
            s = conduction_state(self.grid.panel(panel), c.params)
            rng = np.random.default_rng(c.seed + k)
            perturb_state(
                s,
                amp_temperature=c.amp_temperature,
                amp_seed_field=c.amp_seed_field,
                rng=rng,
            )
            pair[panel] = s
        self.enforce(pair)
        return pair

    # ---- TimeDependentSystem interface (used by rk4_step) -------------------------

    def rhs(self, pair: PairState, out: PairState | None = None) -> PairState:
        """Panel-wise RHS — identical kernels, per the Yin-Yang symmetry.

        With ``subtract_base_rhs`` the discrete residual of the reference
        conduction state is removed (inside :class:`PanelEquations`),
        making that state an exact discrete equilibrium (well-balanced
        scheme).  The result is the caller's: fresh arrays, or ``out``'s
        when storage is offered and the kernels write into it.
        """
        with self.timers.timing("rhs"):
            return {
                p: self.equations[p].rhs(s, out=None if out is None else out[p])
                for p, s in pair.items()
            }

    def enforce(self, pair: PairState) -> None:
        """Internal (overset) then wall boundary conditions, in place.

        The wall condition is applied last so the physical walls override
        the interpolated values at the ring/wall corner points.
        """
        yin, yang = pair[Panel.YIN], pair[Panel.YANG]
        with self.timers.timing("overset"):
            self.grid.apply_overset_scalar(yin.rho, yang.rho)
            self.grid.apply_overset_scalar(yin.p, yang.p)
            self.grid.apply_overset_vector(yin.f, yang.f)
            self.grid.apply_overset_vector(yin.a, yang.a)
        with self.timers.timing("wall_bc"):
            self.wall_bc.apply(yin)
            self.wall_bc.apply(yang)

    @staticmethod
    def axpy(pair: PairState, a: float, k: PairState) -> PairState:
        return {p: s.axpy(a, k[p]) for p, s in pair.items()}

    def axpy_into(self, pair: PairState, a: float, k: PairState,
                  out: PairState) -> PairState:
        """``pair + a*k`` written over the dead stage pair ``out``."""
        return {p: s.axpy_into(a, k[p], out[p], self.kernels)
                for p, s in pair.items()}

    @staticmethod
    def iadd_scaled(pair: PairState, a: float, k: PairState) -> PairState:
        """In-place ``pair += a*k`` for the RK4 accumulation."""
        for p, s in pair.items():
            s.iadd_scaled(a, k[p])
        return pair

    @property
    def rk4_combine(self):
        """:func:`rk4_step`'s one-call final combine — only with compiled
        kernels, where it is one pass per panel; without them the
        stepper's own ``axpy_into`` + three ``iadd_scaled`` are the
        NumPy form."""
        return self._rk4_combine if self.kernels is not None else None

    def _rk4_combine(self, pair: PairState, weights, ks, out: PairState) -> PairState:
        """The final RK4 combine over the dead stage pair ``out``."""
        return {
            p: s.rk4_combine_into(weights, [k[p] for k in ks], out[p], self.kernels)
            for p, s in pair.items()
        }

    # ---- time stepping ---------------------------------------------------------------

    def estimate_dt(self) -> float:
        pairs = [(self.grid.panel(p), s) for p, s in self.state.items()]
        return estimate_dt(pairs, self.config.params, cfl=self.config.cfl)

    def step(self, dt: float | None = None) -> float:
        """Advance one RK4 step; returns the dt used.

        With a nonzero ``filter_strength`` the Shapiro filter smooths the
        prognostic fields after the step (every ``filter_every`` steps)
        and the boundary conditions are re-imposed.
        """
        if dt is None:
            dt = self.config.dt or self.estimate_dt()
        self.state = rk4_step(self, self.state, dt, self._ks)
        self.time += dt
        self.step_count += 1
        self._last_dt = dt
        c = self.config
        if c.filter_strength > 0.0 and self.step_count % c.filter_every == 0:
            from repro.mhd.filter import filter_state

            for s in self.state.values():
                filter_state(s, c.filter_strength)
            self.enforce(self.state)
        return dt

    def advance(self, dt: float) -> float:
        """:class:`~repro.engine.system.IntegrableDriver` hook."""
        return self.step(dt)

    def run(self, n_steps: int, *, record_every: int = 1,
            observers=()) -> list[HistoryRecord]:
        """Advance ``n_steps`` steps through the shared engine.

        The time step is re-estimated every ``dt_recompute_every`` steps
        when not fixed in the configuration; energies are recorded every
        ``record_every`` steps (0 disables).  Extra engine observers
        (guard, checkpoints, timers) ride along via ``observers``.
        """
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
        """Guard hook: per-panel health check, worst report returned.

        Raises :class:`~repro.core.guard.SolverDivergence` with a
        diagnosis when either panel left the physical regime.
        """
        worst: HealthReport | None = None
        for p, s in self.state.items():
            rep = assert_healthy(
                self.grid.panel(p), s, self.config.params,
                step=step, max_grid_reynolds=max_grid_reynolds,
            )
            if worst is None or rep.grid_reynolds > worst.grid_reynolds:
                worst = rep
        assert worst is not None
        return worst

    def save_checkpoint(self, path: str | Path) -> Path:
        """Checkpoint hook: archive the panel pair plus the run clock."""
        from repro.core.checkpoint import save_checkpoint

        return save_checkpoint(path, self.state, time=self.time,
                               step=self.step_count)

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

    def is_physical(self) -> bool:
        return all(s.is_physical() for s in self.state.values())

    def energy_series(self):
        """(times, kinetic, magnetic) arrays from the recorded history."""
        t = np.array([r.time for r in self.history])
        ke = np.array([r.energies.kinetic for r in self.history])
        me = np.array([r.energies.magnetic for r in self.history])
        return t, ke, me
