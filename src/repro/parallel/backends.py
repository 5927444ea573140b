"""Launcher-backend registry: ``REPRO_LAUNCHER`` selects the rank runtime.

Modeled on produtil's ``mpi_impl`` package (and the ``REPRO_KERNELS``
factory in :mod:`repro.fd.backend`, which copied the same idiom): every
backend is a module exposing a small registration contract —

``LAUNCHER_NAME``
    the registry name (``thread`` / ``process`` / ``socket``);
``launcher_detect() -> (available, detail)``
    a *cheap* runtime availability probe (find the module, touch shared
    memory, ...) whose detail string doubles as the why/why-not column
    of ``repro-paper backends``;
``LAUNCHER_CAPABILITIES``
    a capabilities record: does the rank function have to be picklable,
    can ranks span hosts, can the launcher spawn its own workers;
``open_launcher(**opts) -> launcher``
    the launcher itself — an object with
    ``run(nprocs, fn, *args, timeout=..., **kwargs) -> [per-rank results]``
    where ``fn(comm, ...)`` receives a
    :class:`~repro.parallel.simmpi.Communicator`.

The solver, the :class:`~repro.parallel.halo.HaloExchanger` and the
:class:`~repro.parallel.overset_comm.OversetExchanger` are written
against the communicator interface only, so they run unmodified on any
registered backend.

Selection mirrors ``REPRO_KERNELS`` exactly: an explicit argument beats
``REPRO_LAUNCHER=``, which beats the default (``thread``).  An unknown
env selection warns once and uses the default; a known-but-unavailable
selection warns with the probe failure and falls back down the
registry's deterministic priority order to the first available backend
— the ``thread`` backend probes true on any machine with a working
interpreter, so there is always a graceful in-process (serial-machine)
fallback.  The resolved name is recorded in
``ParallelRunResult.launcher_backend``, so a fallback is visible after
the fact without ever being fatal.
"""

from __future__ import annotations

import importlib
import os
import warnings
from dataclasses import dataclass

__all__ = [
    "BACKENDS",
    "BackendUnavailable",
    "DEFAULT_LAUNCHER",
    "LAUNCHER_ENV",
    "LauncherCapabilities",
    "LauncherInfo",
    "available_backends",
    "detect",
    "get_backend",
    "probe",
    "requested",
    "select",
]

LAUNCHER_ENV = "REPRO_LAUNCHER"
DEFAULT_LAUNCHER = "thread"

#: Registry, in deterministic priority order (fallback walks this left
#: to right).  Values are the backend module paths; each module carries
#: the registration contract described above.
BACKENDS: dict[str, str] = {
    "thread": "repro.parallel.threadmpi",
    "process": "repro.parallel.procmpi",
    "socket": "repro.parallel.sockmpi",
}


class BackendUnavailable(ValueError):
    """A known backend was requested but its probe failed (the message
    names the probe failure and the available alternatives)."""


@dataclass(frozen=True)
class LauncherCapabilities:
    """What a launcher backend can and cannot do."""

    #: the rank function must be picklable (module-level, spawn-safe)
    picklable_fn: bool
    #: ranks may live on other hosts (network transport)
    cross_host: bool
    #: the launcher can spawn its own local workers (False = needs an
    #: external runner); read by the frozen ``benchmarks/e2e`` probes
    self_launch: bool

    def summary(self) -> str:
        return ", ".join([
            "picklable fn" if self.picklable_fn else "closures ok",
            "cross-host" if self.cross_host else "in-box",
            "self-launch" if self.self_launch else "external runner",
        ])


@dataclass(frozen=True)
class LauncherInfo:
    """Probe result for one launcher backend."""

    name: str
    available: bool
    #: why (available) / why not (the probe failure, actionable)
    detail: str
    capabilities: LauncherCapabilities


def _module(name: str):
    return importlib.import_module(BACKENDS[name])


def probe(name: str) -> LauncherInfo:
    """Availability of one backend (cheap: never launches anything)."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown launcher backend {name!r}; known: {list(BACKENDS)}"
        )
    try:
        mod = _module(name)
        available, detail = mod.launcher_detect()
        caps = LauncherCapabilities(**mod.LAUNCHER_CAPABILITIES)
    except Exception as exc:  # probe/import failure = unavailable, never fatal
        return LauncherInfo(
            name, False, f"probe failed: {type(exc).__name__}: {exc}",
            LauncherCapabilities(
                picklable_fn=True, cross_host=False, self_launch=False
            ),
        )
    return LauncherInfo(name, available, detail, caps)


def detect() -> tuple[LauncherInfo, ...]:
    """Probe every registered backend (``repro-paper backends``)."""
    return tuple(probe(name) for name in BACKENDS)


def available_backends() -> list[str]:
    """Names of the backends whose probe passes, in priority order."""
    return [info.name for info in detect() if info.available]


def requested() -> str:
    """The backend asked for via ``REPRO_LAUNCHER=`` (or the default)."""
    name = os.environ.get(LAUNCHER_ENV, "").strip().lower()
    if not name:
        return DEFAULT_LAUNCHER
    if name not in BACKENDS:
        warnings.warn(
            f"{LAUNCHER_ENV}={name!r} is not one of {list(BACKENDS)}; "
            f"using {DEFAULT_LAUNCHER!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return DEFAULT_LAUNCHER
    return name


def select(name: str | None = None) -> str:
    """Resolve a backend request to a *usable* backend name.

    An explicitly passed unknown name raises; a known-but-unavailable
    request warns with the probe failure and walks the registry's
    priority order to the first available backend.  The return value is
    therefore always truthful: it names a backend whose probe passes.
    """
    if name is None:
        name = requested()
    elif name not in BACKENDS:
        raise ValueError(
            f"unknown launcher backend {name!r}; known: {list(BACKENDS)}"
        )
    info = probe(name)
    if info.available:
        return name
    fallback = next(iter(available_backends()), DEFAULT_LAUNCHER)
    warnings.warn(
        f"launcher backend {name!r} is unavailable ({info.detail}); "
        f"falling back to {fallback!r}",
        RuntimeWarning,
        stacklevel=2,
    )
    return fallback


def get_backend(name: str, **opts):
    """Resolve a backend name to its launcher (imports lazily).

    Raises :class:`ValueError` for a name outside the registry and
    :class:`BackendUnavailable` — naming the probe failure — for a
    registered backend whose probe fails.  ``opts`` are forwarded to
    the backend's ``open_launcher`` (e.g. socket bind address).
    """
    if name not in BACKENDS:
        raise ValueError(
            f"unknown launcher backend {name!r}; known: {list(BACKENDS)} "
            f"(probe them with `repro-paper backends`)"
        )
    info = probe(name)
    if not info.available:
        raise BackendUnavailable(
            f"launcher backend {name!r} is unavailable: {info.detail}; "
            f"available: {available_backends()}"
        )
    return _module(name).open_launcher(**opts)
