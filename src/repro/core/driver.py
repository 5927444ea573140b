"""The one driver core behind the three MHD dynamo drivers.

The paper's yycore is one program: every Yin subroutine serves Yang
unchanged, and every flat-MPI rank runs the same routines on its own
tile.  :class:`DynamoCore` is that program's time stepping, written once
for :class:`~repro.core.yycore.YinYangDynamo`,
:class:`~repro.core.latlon_core.LatLonDynamo` and
:class:`~repro.parallel.parallel_solver.ParallelYinYangDynamo`.

A driver supplies only its geometry:

* ``equations`` (one :class:`~repro.mhd.equations.PanelEquations`, or
  one per panel key) and ``enforce(state)``;
* :attr:`DynamoCore.panels`, the keys of the panel states its state
  maps (``None``: the state is one :class:`~repro.mhd.state.MHDState`),
  and ``patches``, the grid patch of each;
* ``_cfl_maxima()`` when its panels' maxima are not its own states'
  (a rank reduces them over the tiles of both panels);
* ``_filter(panel_state, strength)`` when its filter body is not the
  serial Shapiro filter.

The core owns the rest: the kernel backend (resolved once), ``rhs``,
the storage of the four stage derivatives, the stage algebra, the RK4
stage sequence, ``step`` with the filter cadence, ``advance``, ``run``
and ``record``, and the guard and checkpoint hooks all drivers share.

The paper's first level of parallelism is the Yin/Yang split: no sweep
crosses panels, and each panel owns its equations' buffers.  ``rhs``
therefore runs Yin's derivative on the caller's thread while a helper
thread runs Yang's; the coupling ``enforce`` and the streamed stage
algebra stay on the caller's thread.  Every bit is the same as running
the panels one after the other.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.guard import HealthReport, assert_healthy
from repro.engine import CadenceController, HistoryRecorder, Integrator
from repro.fd import backend as kernel_backend
from repro.mhd.cfl import dt_from_maxima, panel_maxima
from repro.mhd.diagnostics import EnergyReport
from repro.mhd.state import MHDState


class _Helper:
    """One daemon thread that runs submitted calls in order.

    Every RK4 stage forks and joins it once, so the handoff is a pair
    of ``SimpleQueue`` operations: ≈17 µs on the 2-core container,
    against ≈72 µs for a ``ThreadPoolExecutor`` future."""

    def __init__(self):
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="repro-panel", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._run(*self._calls.get())

    @staticmethod
    def _run(fn, args, done) -> None:
        # a call of its own, so the thread holds no state between calls
        try:
            done.put((True, fn(*args)))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            done.put((False, exc))

    def submit(self, fn, *args) -> queue.SimpleQueue:
        """Queue ``fn(*args)``; its ``(ok, value or exception)`` arrives
        on the returned queue."""
        done: queue.SimpleQueue = queue.SimpleQueue()
        self._calls.put((fn, args, done))
        return done


_helper_thread: _Helper | None = None


def _helper() -> _Helper:
    """The helper every multi-panel driver of the process shares,
    started on first use."""
    global _helper_thread
    if _helper_thread is None:
        _helper_thread = _Helper()
    return _helper_thread


def _forget_helper() -> None:
    """A forked child inherits the helper object but not its thread."""
    global _helper_thread
    _helper_thread = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


@dataclass
class HistoryRecord:
    """One diagnostics sample of a run."""

    step: int
    time: float
    dt: float
    energies: EnergyReport


class DynamoCore:
    """Time stepping shared by every MHD dynamo driver (see the module
    docstring for what a driver supplies)."""

    #: keys of the panel states a driver's state maps; None when the
    #: state is a single MHDState
    panels: tuple | None = None
    #: the grid patch of each panel state, in ``panels`` order
    patches: tuple

    def _select_kernels(self) -> str:
        """Resolve the kernel backend for the driver's life
        (``REPRO_KERNELS`` is read here, never again) and keep its
        compiled elementwise kernels (or None) for the state algebra;
        returns the backend name for the driver's equations."""
        backend = kernel_backend.select()
        self.kernels = kernel_backend.compiled_module(backend)
        return backend

    def _start(self, state) -> None:
        """Adopt the initial state, zero the clock, and allocate the
        storage of a step's four stage derivatives.  The storage is
        recycled every step and never leaves :meth:`_rk4`; the state a
        step returns never aliases it."""
        self.state = state
        self.time = 0.0
        self.step_count = 0
        self._last_dt = float("nan")
        self.history: list[HistoryRecord] = []
        self._equations = (
            (self.equations,) if self.panels is None
            else tuple(self.equations[p] for p in self.panels)
        )
        self._ks = tuple(
            self._join([MHDState.zeros(s.shape) for s in self._split(state)])
            for _ in range(4)
        )

    def _split(self, state) -> tuple[MHDState, ...]:
        """The panel states a driver state holds, in ``panels`` order."""
        if self.panels is None:
            return (state,)
        return tuple(state[p] for p in self.panels)

    def _join(self, parts):
        """Inverse of :meth:`_split`."""
        if self.panels is None:
            return parts[0]
        return dict(zip(self.panels, parts))

    def rhs(self, state, out=None):
        """Each panel's derivative (its equations subtract the base
        RHS), written into ``out`` (allocated when None).

        With two panels the first panel's derivative is taken on the
        caller's thread while the helper thread takes the other's; both
        have finished when this returns or raises.  A single-state
        driver (each rank of a parallel run) starts no thread."""
        eqs, states = self._equations, self._split(state)
        outs = self._split(out) if out is not None else (None,) * len(eqs)
        if len(eqs) == 1:
            return self._join([eq.rhs(s, o) for eq, s, o in zip(eqs, states, outs)])
        helper = _helper()
        pending = [helper.submit(eq.rhs, s, o)
                   for eq, s, o in zip(eqs[1:], states[1:], outs[1:])]
        try:
            first = eqs[0].rhs(states[0], outs[0])
        finally:
            outcomes = [done.get() for done in pending]
        for ok, value in outcomes:
            if not ok:
                raise value
        return self._join([first, *(value for _, value in outcomes)])

    # ---- stage algebra ---------------------------------------------------------

    def axpy(self, y, a: float, k):
        """``y + a*k`` as a new state."""
        return self._join([s.axpy(a, q, self.kernels)
                           for s, q in zip(self._split(y), self._split(k))])

    def axpy_into(self, y, a: float, k, out):
        """``y + a*k`` written over the dead stage state ``out``."""
        for s, q, o in zip(self._split(y), self._split(k), self._split(out)):
            s.axpy_into(a, q, o, self.kernels)
        return out

    def iadd_scaled(self, y, a: float, k):
        """In-place ``y += a*k``."""
        for s, q in zip(self._split(y), self._split(k)):
            s.iadd_scaled(a, q)
        return y

    def rk4_combine(self, y, weights, ks, out):
        """The final RK4 combine ``y + w1 k1 + w2 k2 + w3 k3 + w4 k4``
        over the dead stage state ``out`` — one pass per panel with
        compiled kernels, else the NumPy passes it rounds exactly like."""
        parts = zip(self._split(y), zip(*(self._split(k) for k in ks)), self._split(out))
        for s, kp, o in parts:
            s.rk4_combine_into(weights, kp, o, self.kernels)
        return out

    # ---- time stepping -----------------------------------------------------------

    def _rk4(self, y, dt: float):
        """One classical RK4 step.

        Every stage is ``enforce`` then ``rhs`` (a parallel driver
        completes its boundary communication before the derivative
        reads any halo — the paper's blocking schedule), and the result
        is enforced too.  ``rhs`` takes the panels' derivatives
        concurrently; ``enforce`` and the stage algebra run on the
        caller's thread.  The derivatives land in the recycled ``_ks``;
        the first stage state is the one allocation of a step, and each
        later stage state and the result are written over the stage
        state before them once its derivative is taken.
        """
        k1, k2, k3, k4 = self._ks
        self.enforce(y)
        k1 = self.rhs(y, k1)
        y2 = self.axpy(y, dt / 2.0, k1)
        self.enforce(y2)
        k2 = self.rhs(y2, k2)
        y3 = self.axpy_into(y, dt / 2.0, k2, y2)
        self.enforce(y3)
        k3 = self.rhs(y3, k3)
        y4 = self.axpy_into(y, dt, k3, y3)
        self.enforce(y4)
        k4 = self.rhs(y4, k4)
        out = self.rk4_combine(y, (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0),
                               (k1, k2, k3, k4), y4)
        self.enforce(out)
        return out

    def _cfl_maxima(self):
        """Each panel's patch and :func:`~repro.mhd.cfl.panel_maxima`."""
        return [(patch, panel_maxima(s))
                for patch, s in zip(self.patches, self._split(self.state))]

    def estimate_dt(self) -> float:
        """The CFL step over the driver's panels (:mod:`repro.mhd.cfl`)."""
        c = self.config
        return dt_from_maxima(self._cfl_maxima(), c.params, cfl=c.cfl)

    def _filter(self, s: MHDState, strength: float) -> None:
        """The filter body, per panel state: the Shapiro filter."""
        from repro.mhd.filter import filter_state

        filter_state(s, strength)

    def step(self, dt: float | None = None) -> float:
        """Advance one RK4 step; returns the dt used.

        With a nonzero ``filter_strength`` the filter smooths the
        prognostic fields after the step (every ``filter_every`` steps)
        and the boundary conditions are re-imposed.
        """
        if dt is None:
            dt = self.config.dt or self.estimate_dt()
        self.state = self._rk4(self.state, dt)
        self.time += dt
        self.step_count += 1
        self._last_dt = dt
        c = self.config
        if c.filter_strength > 0.0 and self.step_count % c.filter_every == 0:
            for s in self._split(self.state):
                self._filter(s, c.filter_strength)
            self.enforce(self.state)
        return dt

    def advance(self, dt: float) -> float:
        """:class:`~repro.engine.system.IntegrableDriver` hook."""
        return self.step(dt)

    def _integrate(self, n_steps: int, observers):
        """``n_steps`` steps through the shared engine: the time step is
        re-estimated every ``dt_recompute_every`` steps when not fixed
        in the configuration."""
        controller = CadenceController.from_config(self.config, n_steps)
        return Integrator(self, controller, observers).run()

    def run(self, n_steps: int, *, record_every: int = 1,
            observers=()) -> list[HistoryRecord]:
        """Advance ``n_steps`` steps; energies are recorded every
        ``record_every`` steps (0 disables).  Extra engine observers
        (guard, checkpoints, timers) ride along via ``observers``."""
        obs = list(observers)
        if record_every:
            obs.insert(0, HistoryRecorder(record_every))
        self._integrate(n_steps, obs)
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
        diagnosis when a panel left the physical regime (on a rank, the
        launcher re-raises it).
        """
        worst: HealthReport | None = None
        for patch, s in zip(self.patches, self._split(self.state)):
            rep = assert_healthy(
                patch, s, self.config.params,
                step=step, max_grid_reynolds=max_grid_reynolds,
            )
            if worst is None or rep.grid_reynolds > worst.grid_reynolds:
                worst = rep
        assert worst is not None
        return worst

    def save_checkpoint(self, path: str | Path) -> Path:
        """Checkpoint hook: archive the state plus the run clock."""
        from repro.core.checkpoint import save_checkpoint

        return save_checkpoint(path, self.state, time=self.time,
                               step=self.step_count)

    def is_physical(self) -> bool:
        return all(s.is_physical() for s in self._split(self.state))
