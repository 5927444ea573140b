"""Classical fourth-order Runge-Kutta time integration (Section III).

:func:`rk4_step` is generic over a *system* exposing

* ``rhs(state)`` — the time derivative, as a new state,
* ``enforce(state) -> None`` applying every boundary condition in place,
* ``axpy(y, a, k)`` — ``y + a*k`` as a new state,

and allocates every stage; it serves the heat, transport and
shallow-water apps and the scalar problems of the test suite.  The MHD
dynamo drivers step with the driver core's own stage sequence
(:meth:`repro.core.driver.DynamoCore._rk4`), which recycles storage.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

from repro.engine.system import TimeDependentSystem

S = TypeVar("S")

__all__ = ["TimeDependentSystem", "rk4_step", "rk4_scalar"]


def rk4_step(system: TimeDependentSystem, y: S, dt: float) -> S:
    """One classical RK4 step.

    Boundary conditions are re-imposed on every stage state before its
    derivative is evaluated, and on the final result — the standard
    method-of-lines treatment for Dirichlet-type conditions.
    """
    def derivative(state):
        system.enforce(state)
        return system.rhs(state)

    k1 = derivative(y)
    k2 = derivative(system.axpy(y, dt / 2.0, k1))
    k3 = derivative(system.axpy(y, dt / 2.0, k2))
    k4 = derivative(system.axpy(y, dt, k3))
    out = system.axpy(y, dt / 6.0, k1)
    out = system.axpy(out, dt / 3.0, k2)
    out = system.axpy(out, dt / 3.0, k3)
    out = system.axpy(out, dt / 6.0, k4)
    system.enforce(out)
    return out


def rk4_scalar(f: Callable[[float, float], float], t: float, y: float, dt: float) -> float:
    """RK4 for a scalar ODE ``dy/dt = f(t, y)`` — used by order tests."""
    k1 = f(t, y)
    k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
    k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
