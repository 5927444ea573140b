"""NumPy-facing wrappers around the compiled primitive stencils.

Drop-in replacements for :func:`repro.fd.stencils.diff` / ``diff2`` /
``diff_raw`` / ``diff2_raw`` with identical validation, identical
``out=`` semantics, the same ``@contract``/``@hot_path`` annotations and
the *shared* stencil tally (sweeps executed in C are credited through
:func:`repro.fd.stencils.add_stencil_counts`, so ``stencil_counts()``
reads the same on every backend).

Any axis of any rank collapses to the ``(outer, n, inner)`` form the C
kernels traverse; ``axis == ndim - 1`` makes ``inner == 1``, which is
the contiguous flat-last-axis fast path.  Non-contiguous inputs are
normalised with a contiguous copy (the C kernels assume unit-stride
inner loops); results are bitwise equal to the NumPy path either way
because the C loops perform the same IEEE roundings in the same order.
Non-float64 inputs delegate to the NumPy implementation unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.contracts import contract
from repro.checkers.hotpath import hot_path
from repro.checkers.shapes import Float64
from repro.fd import stencils as _np_stencils
from repro.fd.ckernels import build

Array = np.ndarray


def _lib():
    return build.load()


def _view3(shape: tuple[int, ...], axis: int) -> tuple[int, int, int]:
    """Collapse ``shape`` around ``axis`` into ``(outer, n, inner)``."""
    outer = 1
    for s in shape[:axis]:
        outer *= s
    inner = 1
    for s in shape[axis + 1:]:
        inner *= s
    return outer, shape[axis], inner


def _prepare(f: Array, axis: int, out: Array | None):
    """Validate like the NumPy stencils and normalise for the C kernels.

    Returns ``(fc, dst, out, copy_back)`` where ``fc``/``dst`` are the
    C-contiguous arrays handed to C and ``copy_back`` says whether
    ``dst`` must be copied into the caller's (non-contiguous) ``out``.
    Allocation lives here, outside the ``@hot_path`` wrappers, by the
    same hoisting discipline the NumPy layer uses.
    """
    if out is not None:
        if out is f or np.may_share_memory(out, f):
            raise ValueError("out must not alias the input field f")
        if out.shape != f.shape:
            raise ValueError(f"out shape {out.shape} != field shape {f.shape}")
    fc = f if f.flags.c_contiguous else np.ascontiguousarray(f)
    if out is None:
        dst = np.empty(f.shape, dtype=np.float64)
        return fc, dst, dst, False
    if out.flags.c_contiguous:
        return fc, out, out, False
    return fc, np.empty(f.shape, dtype=np.float64), out, True


def _ptr(ffi, arr: Array):
    return ffi.cast("double *", ffi.from_buffer(arr))


def _run(name: str, f: Array, axis: int, out: Array | None,
         h: float | None) -> Array:
    lib, ffi = _lib()
    fc, dst, out_arr, copy_back = _prepare(f, axis, out)
    outer, n, inner = _view3(f.shape, axis)
    fn = getattr(lib, name)
    if h is None:
        fn(_ptr(ffi, fc), _ptr(ffi, dst), outer, n, inner)
    else:
        fn(_ptr(ffi, fc), _ptr(ffi, dst), outer, n, inner, float(h))
    if copy_back:
        out_arr[...] = dst
    return out_arr


def _validated(f, axis: int) -> tuple[Array, int]:
    f = np.asarray(f)
    axis = axis % f.ndim
    if f.shape[axis] < 3:
        raise ValueError(f"need >= 3 points along axis {axis}, got {f.shape[axis]}")
    return f, axis


@contract
@hot_path
def diff(f: Float64[...], h: float, axis: int,
         out: Float64[...] | None = None) -> Float64[...]:
    """Compiled :func:`repro.fd.stencils.diff` (bitwise-equal results)."""
    f, axis = _validated(f, axis)
    if f.dtype != np.float64:
        return _np_stencils.diff(f, h, axis, out=out)
    _np_stencils.add_stencil_counts(diff=1)
    return _run("ck_diff", f, axis, out, h)


@contract
@hot_path
def diff2(f: Float64[...], h: float, axis: int,
          out: Float64[...] | None = None) -> Float64[...]:
    """Compiled :func:`repro.fd.stencils.diff2` (bitwise-equal results)."""
    f, axis = _validated(f, axis)
    if f.dtype != np.float64:
        return _np_stencils.diff2(f, h, axis, out=out)
    _np_stencils.add_stencil_counts(diff2=1)
    return _run("ck_diff2", f, axis, out, h)


@contract
@hot_path
def diff_raw(f: Float64[...], axis: int,
             out: Float64[...] | None = None) -> Float64[...]:
    """Compiled :func:`repro.fd.stencils.diff_raw` (bitwise-equal results)."""
    f, axis = _validated(f, axis)
    if f.dtype != np.float64:
        return _np_stencils.diff_raw(f, axis, out=out)
    _np_stencils.add_stencil_counts(diff=1)
    return _run("ck_diff_raw", f, axis, out, None)


@contract
@hot_path
def diff2_raw(f: Float64[...], axis: int,
              out: Float64[...] | None = None) -> Float64[...]:
    """Compiled :func:`repro.fd.stencils.diff2_raw` (bitwise-equal results)."""
    f, axis = _validated(f, axis)
    if f.dtype != np.float64:
        return _np_stencils.diff2_raw(f, axis, out=out)
    _np_stencils.add_stencil_counts(diff2=1)
    return _run("ck_diff2_raw", f, axis, out, None)


def _flat_f64(shape: tuple[int, ...], *arrays: Array) -> bool:
    """Whether every array is C-contiguous float64 of ``shape`` — what
    the elementwise C loops assume."""
    return all(
        a.dtype == np.float64 and a.flags.c_contiguous and a.shape == shape
        for a in arrays
    )


def axpy_into(x: Array, y: Array, a: float, out: Array) -> bool:
    """Compiled ``out = x + a * y`` for matching C-contiguous float64 arrays.

    Returns False (caller falls back to NumPy) when the operands do not
    qualify; bitwise-equal to the multiply-then-add sequence in
    :meth:`repro.mhd.state.MHDState.axpy_into`.
    """
    if not _flat_f64(x.shape, x, y, out):
        return False
    lib, ffi = _lib()
    lib.ck_axpy(_ptr(ffi, x), _ptr(ffi, y), float(a), _ptr(ffi, out), x.size)
    return True


def rk4_combine_into(y: Array, ks, weights, out: Array) -> bool:
    """Compiled ``out = (((y + a1*k1) + a2*k2) + a3*k3) + a4*k4``.

    One pass instead of an ``axpy_into`` and three NumPy
    ``iadd_scaled``, with the same roundings in the same order (every
    product rounded before its add).  ``out`` must not partially
    overlap an input; same qualification as above.
    """
    if not _flat_f64(y.shape, y, *ks, out):
        return False
    lib, ffi = _lib()
    a1, a2, a3, a4 = weights
    k1, k2, k3, k4 = ks
    lib.ck_rk4_combine(
        _ptr(ffi, y), _ptr(ffi, k1), _ptr(ffi, k2), _ptr(ffi, k3), _ptr(ffi, k4),
        float(a1), float(a2), float(a3), float(a4), _ptr(ffi, out), y.size,
    )
    return True
