"""Axis-wise finite-difference stencils on uniform meshes.

All routines return arrays of the input's full shape.  Interior points
use the second-order central stencil; the first/last plane along the
differentiation axis uses the one-sided second-order (3-point) stencil,
so derivative arrays never contain invalid edge values.  Solvers
overwrite boundary planes with boundary-condition data anyway; the
one-sided values serve diagnostics and the lat-lon halo rows.

Everything is whole-array NumPy slicing — no Python-level loops over
grid points — per the vectorisation guidance for this project.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.checkers.hotpath import hot_path

Array = np.ndarray

#: Running tally of stencil-kernel executions since the last reset.
#: The perf smoke test compares these between the cached and reference
#: RHS paths — a deterministic, CI-stable proxy for the work saved.
#: Updated under ``_COUNTS_LOCK``: the two panels of a serial step
#: tally from two threads, and ``+=`` on a dict entry is not atomic.
_COUNTS: dict[str, int] = {"diff": 0, "diff2": 0}
_COUNTS_LOCK = threading.Lock()


def stencil_counts() -> dict[str, int]:
    """Snapshot of how many times each stencil kernel has executed."""
    with _COUNTS_LOCK:
        return dict(_COUNTS)


def reset_stencil_counts() -> None:
    """Zero the stencil execution counters."""
    with _COUNTS_LOCK:
        for k in _COUNTS:
            _COUNTS[k] = 0


def add_stencil_counts(diff: int = 0, diff2: int = 0) -> None:
    """Credit stencil sweeps to the tally, exactly under threads.

    The compiled backend (:mod:`repro.fd.ckernels`) runs its sweeps in
    C, so it reports them here — ``stencil_counts()`` stays a
    backend-independent measure of stencil work (the perf smoke test
    and benchmarks compare the tallies across paths).
    """
    with _COUNTS_LOCK:
        _COUNTS["diff"] += diff
        _COUNTS["diff2"] += diff2


def _axslice(ndim: int, axis: int, sl: slice) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _resolve_out(f: Array, out: Array | None) -> Array:
    """Validate a caller-supplied output buffer (or allocate a fresh one).

    ``out`` must not alias ``f``: the edge-plane stencils read points
    that the interior update has already overwritten if the two share
    memory, silently corrupting the derivative.
    """
    if out is None:
        return np.empty_like(f, dtype=np.float64)
    if out is f or np.may_share_memory(out, f):
        raise ValueError("out must not alias the input field f")
    if out.shape != f.shape:
        raise ValueError(f"out shape {out.shape} != field shape {f.shape}")
    return out


@hot_path
def diff(f: Array, h: float, axis: int,
         out: Array | None = None) -> Array:
    """First derivative along ``axis`` with uniform spacing ``h``.

    Central second order in the interior; one-sided second order
    (``(-3 f0 + 4 f1 - f2) / 2h``) at the two edge planes.  ``out``,
    when given, receives the result (it must not alias ``f``).
    """
    f = np.asarray(f)
    if f.shape[axis] < 3:
        raise ValueError(f"need >= 3 points along axis {axis}, got {f.shape[axis]}")
    add_stencil_counts(diff=1)
    fused = out is not None
    out = _resolve_out(f, out)
    nd = f.ndim
    mid = _axslice(nd, axis, slice(1, -1))
    up = _axslice(nd, axis, slice(2, None))
    dn = _axslice(nd, axis, slice(None, -2))
    if fused:
        # into-buffer path: no interior-sized temporaries, no final copy
        # (same operations in the same order, so bitwise-equal results)
        np.subtract(f[up], f[dn], out=out[mid])
        np.divide(out[mid], 2.0 * h, out=out[mid])
    else:
        out[mid] = (f[up] - f[dn]) / (2.0 * h)
    first = _axslice(nd, axis, slice(0, 1))
    i1 = _axslice(nd, axis, slice(1, 2))
    i2 = _axslice(nd, axis, slice(2, 3))
    out[first] = (-3.0 * f[first] + 4.0 * f[i1] - f[i2]) / (2.0 * h)
    last = _axslice(nd, axis, slice(-1, None))
    j1 = _axslice(nd, axis, slice(-2, -1))
    j2 = _axslice(nd, axis, slice(-3, -2))
    out[last] = (3.0 * f[last] - 4.0 * f[j1] + f[j2]) / (2.0 * h)
    return out


@hot_path
def diff2(f: Array, h: float, axis: int,
          out: Array | None = None) -> Array:
    """Second derivative along ``axis`` with uniform spacing ``h``.

    Central second order in the interior; at the edge planes the
    (first-order) 3-point one-sided stencil ``(f0 - 2 f1 + f2)/h^2`` is
    used — edge planes are boundary points in the solvers, so only
    diagnostics ever read them.  ``out``, when given, receives the
    result (it must not alias ``f``).
    """
    f = np.asarray(f)
    if f.shape[axis] < 3:
        raise ValueError(f"need >= 3 points along axis {axis}, got {f.shape[axis]}")
    add_stencil_counts(diff2=1)
    fused = out is not None
    out = _resolve_out(f, out)
    nd = f.ndim
    mid = _axslice(nd, axis, slice(1, -1))
    up = _axslice(nd, axis, slice(2, None))
    dn = _axslice(nd, axis, slice(None, -2))
    h2 = h * h
    if fused:
        # f[up] - 2 f[mid] + f[dn], assembled without interior temporaries
        np.multiply(f[mid], 2.0, out=out[mid])
        np.subtract(f[up], out[mid], out=out[mid])
        np.add(out[mid], f[dn], out=out[mid])
        np.divide(out[mid], h2, out=out[mid])
    else:
        out[mid] = (f[up] - 2.0 * f[mid] + f[dn]) / h2
    first = _axslice(nd, axis, slice(0, 1))
    i1 = _axslice(nd, axis, slice(1, 2))
    i2 = _axslice(nd, axis, slice(2, 3))
    out[first] = (f[first] - 2.0 * f[i1] + f[i2]) / h2
    last = _axslice(nd, axis, slice(-1, None))
    j1 = _axslice(nd, axis, slice(-2, -1))
    j2 = _axslice(nd, axis, slice(-3, -2))
    out[last] = (f[last] - 2.0 * f[j1] + f[j2]) / h2
    return out


def _flat_last_axis(f: Array, out: Array, axis: int) -> bool:
    """Whether the last-axis interior can run on flattened views.

    Needs both arrays C-contiguous and the differentiation axis last;
    the shifted flat subtraction is then a single aligned sweep whose
    only wrong values sit on the edge columns (overwritten right after).
    """
    return (
        axis == f.ndim - 1
        and f.flags.c_contiguous
        and out.flags.c_contiguous
    )


@hot_path
def diff_raw(f: Array, axis: int,
             out: Array | None = None) -> Array:
    """Spacing-free first-difference numerator: ``2 h * diff(f, h, axis)``.

    Same stencils as :func:`diff` with the ``1/(2h)`` normalisation left
    out — interior ``f[i+1] - f[i-1]``, edges ``-3 f0 + 4 f1 - f2`` (and
    its mirror).  The fused RHS kernel folds the normalisation into
    precomputed metric coefficients (one multiply instead of a divide
    pass plus a coefficient multiply), which is why this variant exists.
    Counted under the same ``diff`` tally.
    """
    f = np.asarray(f)
    if f.shape[axis] < 3:
        raise ValueError(f"need >= 3 points along axis {axis}, got {f.shape[axis]}")
    add_stencil_counts(diff=1)
    fused = out is not None
    out = _resolve_out(f, out)
    nd = f.ndim
    if fused and _flat_last_axis(f, out, axis):
        # last-axis interior as one aligned contiguous sweep over the
        # flattened views: the row-crossing positions land exactly on
        # the edge columns, which the one-sided formulas overwrite below
        ff, of = f.reshape(-1), out.reshape(-1)
        np.subtract(ff[2:], ff[:-2], out=of[1:-1])
    else:
        mid = _axslice(nd, axis, slice(1, -1))
        up = _axslice(nd, axis, slice(2, None))
        dn = _axslice(nd, axis, slice(None, -2))
        if fused:
            np.subtract(f[up], f[dn], out=out[mid])
        else:
            out[mid] = f[up] - f[dn]
    first = _axslice(nd, axis, slice(0, 1))
    i1 = _axslice(nd, axis, slice(1, 2))
    i2 = _axslice(nd, axis, slice(2, 3))
    out[first] = -3.0 * f[first] + 4.0 * f[i1] - f[i2]
    last = _axslice(nd, axis, slice(-1, None))
    j1 = _axslice(nd, axis, slice(-2, -1))
    j2 = _axslice(nd, axis, slice(-3, -2))
    out[last] = 3.0 * f[last] - 4.0 * f[j1] + f[j2]
    return out


@hot_path
def diff2_raw(f: Array, axis: int,
              out: Array | None = None) -> Array:
    """Spacing-free second-difference numerator: ``h^2 * diff2(f, h, axis)``.

    Interior ``f[i+1] - 2 f[i] + f[i-1]``; edge planes use the one-sided
    3-point form ``f0 - 2 f1 + f2`` (same stencils as :func:`diff2`,
    without the ``1/h^2``).  Counted under the same ``diff2`` tally.
    """
    f = np.asarray(f)
    if f.shape[axis] < 3:
        raise ValueError(f"need >= 3 points along axis {axis}, got {f.shape[axis]}")
    add_stencil_counts(diff2=1)
    fused = out is not None
    out = _resolve_out(f, out)
    nd = f.ndim
    if fused and _flat_last_axis(f, out, axis):
        ff, of = f.reshape(-1), out.reshape(-1)
        np.multiply(ff[1:-1], 2.0, out=of[1:-1])
        np.subtract(ff[2:], of[1:-1], out=of[1:-1])
        np.add(of[1:-1], ff[:-2], out=of[1:-1])
    else:
        mid = _axslice(nd, axis, slice(1, -1))
        up = _axslice(nd, axis, slice(2, None))
        dn = _axslice(nd, axis, slice(None, -2))
        if fused:
            np.multiply(f[mid], 2.0, out=out[mid])
            np.subtract(f[up], out[mid], out=out[mid])
            np.add(out[mid], f[dn], out=out[mid])
        else:
            out[mid] = f[up] - 2.0 * f[mid] + f[dn]
    first = _axslice(nd, axis, slice(0, 1))
    i1 = _axslice(nd, axis, slice(1, 2))
    i2 = _axslice(nd, axis, slice(2, 3))
    out[first] = f[first] - 2.0 * f[i1] + f[i2]
    last = _axslice(nd, axis, slice(-1, None))
    j1 = _axslice(nd, axis, slice(-2, -1))
    j2 = _axslice(nd, axis, slice(-3, -2))
    out[last] = f[last] - 2.0 * f[j1] + f[j2]
    return out


#: Axis conventions for fields on a :class:`~repro.grids.base.SphericalPatch`.
AXIS_R, AXIS_TH, AXIS_PH = 0, 1, 2
