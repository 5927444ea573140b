"""Operand-reuse kernel layer for the RHS hot path (List 1 discipline).

The paper's 15.2 TFlops kernel evaluates all eight prognostic
derivatives in one hand-fused sweep, touching every operand exactly
once.  This module supplies the two pieces that let the NumPy port
approximate that discipline without giving up the composable operator
layer in :mod:`repro.fd.operators`:

:class:`BufferPool`
    Recycles full-size scratch arrays.  On a 32x64x128 panel every
    derivative array is 2 MB; allocating ~70 of them per RHS evaluation
    (x4 RK4 stages per step) costs real page-fault time.  The pool hands
    the same buffers back stage after stage.

:class:`DerivativeCache`
    Memoizes :func:`repro.fd.stencils.diff` / ``diff2`` results keyed on
    ``(field, axis, order)`` so composite operators — ``vector_laplacian
    = grad_div - curl_curl``, ``div_tensor_vf``, the strain tensor —
    share primitive derivatives instead of re-deriving them.

Cache-invalidation contract
---------------------------
A :class:`DerivativeCache` lives for exactly **one** RHS evaluation:
the caller resets it before returning, which releases every memoized
array back to the pool.  Consequences:

* Keys use object identity (``id``) of the field array; entries pin the
  keyed array alive, so an id can never be recycled while its entry
  exists.  Mutating a field array mid-evaluation would serve stale
  derivatives — prognostic fields are never mutated inside an RHS
  evaluation, which is what makes the scheme sound.
* Arrays returned while a cache is active (e.g. the radial component of
  ``grad``, which *is* the memoized derivative) are only valid until
  ``reset()``; anything that escapes the evaluation must be a fresh
  arithmetic result.
"""

from __future__ import annotations


import numpy as np

from repro.checkers.sanitize import DoubleRelease, poison_buffer, sanitize_enabled
from repro.fd import stencils

Array = np.ndarray


class BufferPool:
    """Recycles same-shape float64 scratch arrays.

    ``take`` pops a free buffer (or allocates when none is available);
    ``give`` returns one for reuse.  Counters expose how many
    allocations the pool absorbed — the benchmark reports them.

    With ``REPRO_SANITIZE=1`` (checked at construction) the pool also
    enforces its ownership contract: ``give`` poisons the buffer with
    NaN — a caller that kept reading it sees the NaN propagate instead
    of silently consuming stale data — and giving the same array twice
    raises :class:`~repro.checkers.sanitize.DoubleRelease`.
    """

    def __init__(self):
        self._free: dict[tuple[tuple[int, ...], np.dtype], list[Array]] = {}
        self.allocated = 0
        self.reused = 0
        self._sanitize = sanitize_enabled()
        self._free_ids: set[int] = set()

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> Array:
        """A writable buffer of the requested shape (contents arbitrary)."""
        stack = self._free.get((tuple(shape), np.dtype(dtype)))
        if stack:
            self.reused += 1
            arr = stack.pop()
            self._free_ids.discard(id(arr))
            return arr
        self.allocated += 1
        return np.empty(shape, dtype=dtype)

    def give(self, arr: Array) -> None:
        """Return a buffer to the pool.  The caller must drop its reference."""
        if self._sanitize:
            if id(arr) in self._free_ids:
                raise DoubleRelease(
                    f"buffer {arr.shape} {arr.dtype} given back to the pool "
                    f"twice (id={id(arr):#x})"
                )
            self._free_ids.add(id(arr))
            poison_buffer(arr)
        self._free.setdefault((arr.shape, arr.dtype), []).append(arr)

    @property
    def free_count(self) -> int:
        return sum(len(v) for v in self._free.values())

    def stats(self) -> dict[str, int]:
        return {
            "allocated": self.allocated,
            "reused": self.reused,
            "free": self.free_count,
        }


class DerivativeCache:
    """Single-evaluation memoizer for primitive stencil derivatives.

    Keys are ``(id(field), axis, order)`` with ``order`` 1 for ``diff``
    and 2 for ``diff2``; each entry holds a strong reference to the
    keyed field so identity keys stay unique for the entry's lifetime
    (see the module docstring for the full invalidation contract).
    """

    def __init__(self, pool: BufferPool | None = None):
        self.pool = pool
        self._entries: dict[tuple[int, int, int], tuple[Array, Array]] = {}
        self.hits = 0
        self.misses = 0

    #: order codes: 1/2 = normalised diff/diff2, 3/4 = raw numerators
    _RAW1, _RAW2 = 3, 4

    def diff(self, f: Array, h: float, axis: int) -> Array:
        return self._get(f, h, axis, 1)

    def diff2(self, f: Array, h: float, axis: int) -> Array:
        return self._get(f, h, axis, 2)

    def diff_raw(self, f: Array, axis: int) -> Array:
        """Memoized :func:`repro.fd.stencils.diff_raw` (spacing-free)."""
        return self._get(f, None, axis, self._RAW1)

    def diff2_raw(self, f: Array, axis: int) -> Array:
        """Memoized :func:`repro.fd.stencils.diff2_raw` (spacing-free)."""
        return self._get(f, None, axis, self._RAW2)

    def _get(self, f: Array, h: float | None, axis: int, order: int) -> Array:
        key = (id(f), axis, order)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is f:
            self.hits += 1
            return entry[1]
        self.misses += 1
        out = None
        if self.pool is not None and isinstance(f, np.ndarray):
            out = self.pool.take(f.shape)
        if order == 1:
            d = stencils.diff(f, h, axis, out=out)
        elif order == 2:
            d = stencils.diff2(f, h, axis, out=out)
        elif order == self._RAW1:
            d = stencils.diff_raw(f, axis, out=out)
        else:
            d = stencils.diff2_raw(f, axis, out=out)
        self._entries[key] = (f, d)
        return d

    def reset(self) -> None:
        """End the evaluation: release memoized buffers and drop entries."""
        if self.pool is not None:
            for _, d in self._entries.values():
                if type(d) is np.ndarray:
                    self.pool.give(d)
        self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def size(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": self.size}


class StencilCoefficients:
    """Metric factors with the stencil normalisations folded in.

    The operator formulas multiply every derivative by a metric factor:
    ``(1/r) d_th s``, ``(1/(r sin)) d_ph s`` and so on.  Evaluating the
    derivative costs a divide pass (``/ 2h``) *and* a coefficient
    multiply.  Working from the raw numerators of
    :func:`repro.fd.stencils.diff_raw` instead, the two collapse into a
    single multiply by a precomputed ``metric / 2h`` array — one
    full-size pass instead of two.  These arrays are built once per
    patch; the fused RHS kernel reads them every evaluation.

    Shapes broadcast against rank-3 fields: scalars for pure-radial
    factors, ``(nr, 1, 1)`` / ``(nr, nth, 1)`` for the metric-bearing
    ones.
    """

    def __init__(self, patch):
        m = patch.metric
        # first-derivative normalisations 1/(2h)
        self.sr = 1.0 / (2.0 * patch.dr)
        self.st = 1.0 / (2.0 * patch.dtheta)
        self.sp = 1.0 / (2.0 * patch.dphi)
        # second-derivative normalisations 1/h^2
        self.qr = 1.0 / patch.dr**2
        self.qt = 1.0 / patch.dtheta**2
        self.qp = 1.0 / patch.dphi**2
        # gradient components: (1/r) / 2h_th and (1/(r sin)) / 2h_ph
        self.grad_th = m.inv_r * self.st
        self.grad_ph = m.inv_r_sin * self.sp
        # scalar-Laplacian terms (expanded metric form)
        self.lap_r1 = m.two_inv_r * self.sr
        self.lap_th2 = m.inv_r2 * self.qt
        self.lap_th1 = m.inv_r2 * m.cot_th * self.st
        self.lap_ph2 = m.inv_r2_sin2 * self.qp
