"""Protocols of the time-integration engine.

Two contracts live here:

* :class:`TimeDependentSystem` — the *stage-level* interface consumed by
  :func:`repro.mhd.rk4.rk4_step`: a right-hand side, an in-place
  boundary enforcement, and ``axpy``.  The heat, transport and
  shallow-water apps and the test suite's scalars implement it; the MHD
  drivers step with :class:`repro.core.driver.DynamoCore` instead.

* :class:`IntegrableDriver` — the *run-level* interface consumed by
  :class:`repro.engine.integrator.Integrator`: a clock, a one-step
  ``advance`` and (for CFL-adaptive policies) a step estimate.  Every
  solver driver in the repository implements it; optional capabilities
  (checkpointing, health checks, history recording) are discovered by
  the observers that need them.
"""

from __future__ import annotations

from typing import Protocol, TypeVar, runtime_checkable

S = TypeVar("S")


class TimeDependentSystem(Protocol[S]):
    """The interface :func:`repro.mhd.rk4.rk4_step` integrates."""

    def rhs(self, state: S) -> S: ...

    def enforce(self, state: S) -> None: ...

    def axpy(self, y: S, a: float, k: S) -> S:
        """Return ``y + a * k`` as a new state."""
        ...


@runtime_checkable
class IntegrableDriver(Protocol):
    """The interface :class:`~repro.engine.integrator.Integrator` drives.

    ``advance`` performs exactly one time step (RK4 plus whatever
    per-step state maintenance the driver owns, e.g. the Shapiro filter
    at its configured cadence — that ordering is bitwise-critical for
    the serial/parallel equivalence, so it stays inside the driver) and
    returns the dt actually used.
    """

    time: float

    def advance(self, dt: float) -> float: ...


@runtime_checkable
class SupportsDtEstimate(Protocol):
    """Drivers usable with CFL-adaptive step control."""

    def estimate_dt(self) -> float: ...


@runtime_checkable
class SupportsCheckpoint(Protocol):
    """Drivers usable with :class:`~repro.engine.observers.CheckpointObserver`."""

    def save_checkpoint(self, path) -> object: ...

    def restore_checkpoint(self, path) -> None: ...


@runtime_checkable
class SupportsHealthCheck(Protocol):
    """Drivers usable with :class:`~repro.engine.observers.HealthGuard`."""

    def check_health(self, *, step=None, max_grid_reynolds=20.0): ...
