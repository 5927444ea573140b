"""The prognostic state of the MHD system on one grid patch.

The paper's basic simulation variables are the mass density ``rho``, the
mass flux density ``f = rho v``, the pressure ``p`` and the magnetic
vector potential ``A`` — eight scalar fields per grid point.  Magnetic
field, current density and electric field are *subsidiary* quantities
recomputed from the state when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

import numpy as np

from repro.checkers.hotpath import hot_path

Array = np.ndarray
Vec = tuple[Array, Array, Array]

#: Canonical ordering of the eight prognostic fields.
FIELD_NAMES = ("rho", "fr", "fth", "fph", "p", "ar", "ath", "aph")


@dataclass
class MHDState:
    """Eight prognostic arrays on a single patch, all the same shape.

    Per-panel ``(nr, nth, nph)`` float64 arrays; the common shape is
    enforced at construction.
    """

    rho: Array
    fr: Array
    fth: Array
    fph: Array
    p: Array
    ar: Array
    ath: Array
    aph: Array

    def __post_init__(self):
        shape = self.rho.shape
        for name in FIELD_NAMES:
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(
                    f"field {name} has shape {arr.shape}, expected {shape}"
                )

    # ---- construction ---------------------------------------------------------

    @staticmethod
    def zeros(shape: tuple[int, int, int]) -> MHDState:
        return MHDState(*(np.zeros(shape) for _ in FIELD_NAMES))

    def copy(self) -> MHDState:
        return MHDState(*(getattr(self, n).copy() for n in FIELD_NAMES))

    # ---- views ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.rho.shape

    @property
    def f(self) -> Vec:
        """Mass-flux vector components."""
        return (self.fr, self.fth, self.fph)

    @property
    def a(self) -> Vec:
        """Vector-potential components."""
        return (self.ar, self.ath, self.aph)

    def velocity(self) -> Vec:
        """``v = f / rho`` (allocates three new arrays)."""
        inv = 1.0 / self.rho
        return (self.fr * inv, self.fth * inv, self.fph * inv)

    def temperature(self) -> Array:
        """``T = p / rho`` (ideal gas, eq. 6)."""
        return self.p / self.rho

    def arrays(self) -> Iterator[Array]:
        for n in FIELD_NAMES:
            yield getattr(self, n)

    def named_arrays(self) -> Iterator[tuple[str, Array]]:
        for n in FIELD_NAMES:
            yield n, getattr(self, n)

    # ---- algebra for time integration ---------------------------------------------

    def axpy(self, a: float, other: MHDState) -> MHDState:
        """Return ``self + a * other`` as a new state."""
        return MHDState(
            *(x + a * y for x, y in zip(self.arrays(), other.arrays()))
        )

    # ``kernels`` below is the compiled elementwise module a driver
    # resolved at construction (:func:`repro.fd.backend.compiled_module`)
    # or None for the NumPy expressions; a field the compiled loop
    # refuses (non-contiguous, not float64) takes the NumPy path alone.
    # Both are bitwise equal.

    @hot_path
    def axpy_into(self, a: float, other: MHDState, out: MHDState,
                  kernels=None) -> MHDState:
        """``self + a * other`` written into ``out``'s arrays; returns ``out``.

        Lets the RK4 stepper recycle dead stage states instead of
        allocating eight fresh fields per stage.  ``out`` may not alias
        ``self`` or ``other``.
        """
        for x, y, o in zip(self.arrays(), other.arrays(), out.arrays()):
            if kernels is not None and kernels.axpy_into(x, y, a, o):
                continue
            np.multiply(y, a, out=o)
            o += x
        return out

    @hot_path
    def iadd_scaled(self, a: float, other: MHDState) -> MHDState:
        """In-place ``self += a * other``; returns self.

        One scratch buffer is hoisted out of the field loop and reused
        for all eight products (``a * y`` in the loop body would
        allocate a full-size temporary per field per call).  NumPy
        only: a driver with compiled kernels accumulates through
        :meth:`rk4_combine_into` instead.
        """
        scratch = np.empty_like(self.rho)  # repro: noqa-REP001 — hoisted, reused 8x
        for x, y in zip(self.arrays(), other.arrays()):
            np.multiply(y, a, out=scratch)
            x += scratch
        return self

    @hot_path
    def rk4_combine_into(self, weights, ks, out: MHDState,
                         kernels=None) -> MHDState:
        """The final RK4 combine ``self + a1*k1 + a2*k2 + a3*k3 + a4*k4``
        written into ``out``; returns ``out``.

        Left-associated with every product rounded before its add —
        exactly an :meth:`axpy_into` followed by three
        :meth:`iadd_scaled`, which is what a field the compiled loop
        refuses gets.  ``out`` may not alias ``self`` or any ``k``.
        """
        scratch = None
        for x, k1, k2, k3, k4, o in zip(
            self.arrays(), *(k.arrays() for k in ks), out.arrays()
        ):
            if kernels is not None and kernels.rk4_combine_into(
                x, (k1, k2, k3, k4), weights, o
            ):
                continue
            np.multiply(k1, weights[0], out=o)
            o += x
            if scratch is None:
                scratch = np.empty_like(o)  # repro: noqa-REP001 — hoisted, reused
            for a, k in zip(weights[1:], (k2, k3, k4)):
                np.multiply(k, a, out=scratch)
                o += scratch
        return out

    def scale(self, a: float) -> MHDState:
        """In-place ``self *= a``; returns self."""
        for x in self.arrays():
            x *= a
        return self

    # ---- sanity -----------------------------------------------------------------

    def is_physical(self) -> bool:
        """Positivity of density and pressure, finiteness of everything."""
        if not (np.all(self.rho > 0.0) and np.all(self.p > 0.0)):
            return False
        return all(bool(np.all(np.isfinite(x))) for x in self.arrays())

    def max_abs(self) -> dict:
        """Per-field max |value| — handy for divergence monitoring."""
        return {n: float(np.max(np.abs(x))) for n, x in self.named_arrays()}
