"""Classical fourth-order Runge-Kutta time integration (Section III).

The integrator is generic over a *system* exposing

* ``rhs(state) -> state``-like time derivative, and
* ``enforce(state) -> None`` applying every boundary condition in place
  (radial walls plus internal overset / halo conditions),

so the same stepper drives the Yin-Yang solver (whose state is a pair of
panel states), the lat-lon baseline, and scalar test problems in the
test suite.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

from repro.engine.system import TimeDependentSystem

S = TypeVar("S")

__all__ = ["TimeDependentSystem", "rk4_step", "rk4_scalar"]


def rk4_step(system: TimeDependentSystem, y: S, dt: float,
             ks=(None, None, None, None)) -> S:
    """One classical RK4 step.

    Boundary conditions are re-imposed on every stage state before its
    derivative is evaluated, and on the final result — the standard
    method-of-lines treatment for Dirichlet-type conditions.  Every
    stage is ``enforce`` then ``rhs``: a parallel system completes its
    boundary communication before the derivative reads any halo (the
    paper's blocking schedule).

    Systems exposing ``axpy_into(y, a, k, out)`` get their dead stage
    states recycled: once a stage's derivative is taken, its storage
    becomes the next stage's output buffer, so a step allocates one
    stage state instead of four.

    ``ks`` is optional storage for the four stage derivatives, owned by
    the caller and dead outside this call: stage ``i`` evaluates
    ``system.rhs(state, out=ks[i])``, which may write the derivative
    there instead of allocating (it may also ignore ``out``; only the
    returned state is used).  A driver that passes the same four states
    every step recycles all derivative memory; the returned state never
    aliases them.

    Systems whose ``rk4_combine`` is not None get the final combine
    ``y + dt/6 k1 + dt/3 k2 + dt/3 k3 + dt/6 k4`` as one call,
    ``rk4_combine(y, weights, ks, out)``, which must round exactly like
    the ``axpy_into`` + three ``iadd_scaled`` passes it replaces.
    """
    def derivative(state, out):
        system.enforce(state)
        # plain systems (heat, shallow water, test scalars) take no out
        return system.rhs(state) if out is None else system.rhs(state, out=out)

    k1 = derivative(y, ks[0])

    y2 = system.axpy(y, dt / 2.0, k1)
    k2 = derivative(y2, ks[1])

    y3 = _stage(system, y, dt / 2.0, k2, y2)
    k3 = derivative(y3, ks[2])

    y4 = _stage(system, y, dt, k3, y3)
    k4 = derivative(y4, ks[3])

    combine = getattr(system, "rk4_combine", None)
    if combine is not None:
        out = combine(y, (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0),
                      (k1, k2, k3, k4), y4)
    else:
        out = _stage(system, y, dt / 6.0, k1, y4)
        out = _accumulate(system, out, dt / 3.0, k2)
        out = _accumulate(system, out, dt / 3.0, k3)
        out = _accumulate(system, out, dt / 6.0, k4)
    system.enforce(out)
    return out


def _stage(system, y, a, k, dead):
    """``y + a*k``, written over the no-longer-needed state ``dead``
    when the system supports in-place stage construction."""
    into = getattr(system, "axpy_into", None)
    if into is not None:
        return into(y, a, k, dead)
    return system.axpy(y, a, k)


def _accumulate(system, y, a, k):
    """``y + a*k`` preferring an in-place path when the state supports it."""
    iadd = getattr(y, "iadd_scaled", None)
    if iadd is not None:
        return iadd(a, k)
    iadd = getattr(system, "iadd_scaled", None)
    if iadd is not None:
        return iadd(y, a, k)
    return system.axpy(y, a, k)


def rk4_scalar(f: Callable[[float, float], float], t: float, y: float, dt: float) -> float:
    """RK4 for a scalar ODE ``dy/dt = f(t, y)`` — used by order tests."""
    k1 = f(t, y)
    k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
    k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
