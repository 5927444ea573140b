"""Kernel-backend registry: ``REPRO_KERNELS`` selects the RHS engine.

Mirrors the launcher factory in :mod:`repro.parallel.backends` (and the
``mpi_impl.detect()`` idiom it came from): every backend is probed at
selection time and an unavailable request falls back *silently* — a
machine without cffi or a C compiler runs the same simulation on the
NumPy path, it just runs slower.  The resolved name is reported in
``ParallelRunResult.kernel_backend`` and by ``repro-paper kernels``, so
a fallback is always visible after the fact without ever being fatal.

Selection happens once, when a driver (or a standalone
:class:`~repro.mhd.equations.PanelEquations`) is constructed; the
resolved name and :func:`compiled_module` are passed down from there,
so changing the environment afterwards changes nothing.

Backends
--------
``numpy``
    The reference per-operator path (``PanelEquations.rhs_reference``);
    every operator re-derives its operands.
``fused``
    The derivative-cached, buffer-pooled NumPy kernel
    (``rhs_fused``) — always available, the default where ``c`` is not.
``c``
    The cffi-compiled kernels of :mod:`repro.fd.ckernels`: compiled
    primitive stencils, the six-sweep fused RHS (base-RHS subtraction
    included) and the RK4 state algebra — bitwise equal to ``fused``.
    Available
    when the shared object is cached or a toolchain can build it, and
    then the default.

Selection: an explicit argument beats ``REPRO_KERNELS=``, which beats
the default (:func:`default_backend`).  Unknown names warn once and fall
back to the default; ``c`` on a machine that cannot build falls back to
``fused``.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

KERNELS_ENV = "REPRO_KERNELS"
BACKENDS = ("numpy", "fused", "c")


@dataclass(frozen=True)
class BackendInfo:
    """Probe result for one kernel backend."""

    name: str
    available: bool
    detail: str


def probe(name: str) -> BackendInfo:
    """Availability of one backend (cheap: never triggers a build)."""
    if name == "numpy":
        return BackendInfo("numpy", True, "reference per-operator NumPy path")
    if name == "fused":
        return BackendInfo("fused", True, "derivative-cached fused NumPy kernel")
    if name == "c":
        from repro.fd.ckernels import build

        if build.is_loaded():
            return BackendInfo("c", True, "compiled kernels loaded")
        status = build.build_status()
        if status["error"]:
            return BackendInfo("c", False, status["error"])
        if status["built"]:
            return BackendInfo("c", True, "cached shared object present")
        if status["toolchain_ok"]:
            return BackendInfo(
                "c", True, f"buildable with {status['toolchain']} (first use)"
            )
        return BackendInfo("c", False, status["toolchain"] or "no toolchain")
    raise ValueError(f"unknown kernel backend {name!r}; known: {list(BACKENDS)}")


def detect() -> tuple[BackendInfo, ...]:
    """Probe every known backend (the ``repro-paper kernels`` listing)."""
    return tuple(probe(name) for name in BACKENDS)


def default_backend() -> str:
    """What an unset ``REPRO_KERNELS`` means on this machine: the
    fastest backend the probe says can run — ``c`` when the shared
    object is loaded, cached or buildable, else ``fused``."""
    return "c" if probe("c").available else "fused"


def requested() -> str:
    """The backend asked for via ``REPRO_KERNELS=`` (or the default)."""
    name = os.environ.get(KERNELS_ENV, "").strip().lower()
    if not name:
        return default_backend()
    if name not in BACKENDS:
        default = default_backend()
        warnings.warn(
            f"{KERNELS_ENV}={name!r} is not one of {list(BACKENDS)}; "
            f"using {default!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return name


def select(name: str | None = None) -> str:
    """Resolve a backend request to a *usable* backend name.

    ``c`` is verified by actually loading (building on first use) the
    shared object; any failure falls back silently to ``fused``.  The
    return value is therefore always truthful: if this says ``c``, the
    compiled kernels are resident.
    """
    if name is None:
        name = requested()
    elif name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {list(BACKENDS)}"
        )
    if name != "c":
        return name
    from repro.fd.ckernels import build

    try:
        build.load()
    except build.CKernelsUnavailable:
        return "fused"
    return "c"


def compiled_module(name: str):
    """The compiled elementwise kernels for a *resolved* backend name:
    the :mod:`repro.fd.ckernels.elementwise` module on ``c``, else None.

    Drivers resolve this once at construction and hand it to the state
    algebra (``MHDState.axpy_into`` / ``rk4_combine_into``), so the RK4
    stages ride the same backend as the RHS for the driver's whole life.
    """
    if name != "c":
        return None
    from repro.fd.ckernels import elementwise

    return elementwise
