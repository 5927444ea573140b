"""NumPy-facing wrappers around the compiled elementwise state algebra.

``axpy_into`` and ``rk4_combine_into`` are the compiled halves of
:meth:`repro.mhd.state.MHDState.axpy_into` / ``rk4_combine_into``: each
returns False for operands the C loops do not take (non-contiguous, not
float64, mismatched shape) and the caller falls back to NumPy.  Results
are bitwise equal either way because the C loops perform the same IEEE
roundings in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.fd.ckernels import build

Array = np.ndarray


def _lib():
    return build.load()


def _ptr(ffi, arr: Array):
    return ffi.cast("double *", ffi.from_buffer(arr))


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
