"""Compiled (cffi API-mode) kernel backend for the finite-difference layer.

Built at first use and cached on disk; probe/availability logic lives in
:mod:`repro.fd.ckernels.build`, the elementwise state algebra in
:mod:`repro.fd.ckernels.elementwise`, and the fused per-RK4-stage RHS in
:mod:`repro.fd.ckernels.rhs`.  Selection between this backend and the
pure-NumPy paths goes through :mod:`repro.fd.backend` (``REPRO_KERNELS``).
"""

from __future__ import annotations
