"""Symbolic array-shape and dtype annotations.

The paper's yycore moves every field through a fixed shape grammar —
per-panel ``(nr, nth, nph)`` prognostic arrays, packed ``(8, nr, m)``
overset messages, ``(nfields, nr, ...)`` halo buffers — and on the
Earth Simulator a shape mismatch was a Fortran compile-time error.  In
the NumPy port it silently broadcasts or dies deep in a stencil.  This
module is the annotation vocabulary — ``Array["nr", "nth", "nph"]``,
``Float64[8, "nr", "m"]``, ``Float32[...]`` — plain typing aliases with
zero import-time cost (a cached tuple per distinct spec), which
:mod:`repro.checkers.contracts` enforces on live values under
``REPRO_CONTRACTS=1``.

Dimensions are *symbols*: two occurrences of ``"nr"`` in one call
boundary must agree.
"""

from __future__ import annotations

__all__ = ["Array", "Float32", "Float64", "ShapeSpec"]


# ---- annotation vocabulary -------------------------------------------------------


class ShapeSpec:
    """One shape/dtype contract: ``Float64["nr", "nth", "nph"]``.

    ``dims`` entries are ``int`` (exact), ``str`` (symbolic — equal
    names must be equal sizes within one function or call boundary) or
    ``Ellipsis`` (any run of axes, at most one).  ``dtype`` is a NumPy
    dtype name or ``None`` (any).  ``spec | None`` marks an optional
    argument.
    """

    __slots__ = ("dims", "dtype", "optional")

    def __init__(self, dims: tuple, dtype: str | None = None, optional: bool = False):
        if sum(1 for d in dims if d is Ellipsis) > 1:
            raise TypeError("at most one '...' per shape spec")
        for d in dims:
            if d is not Ellipsis and not isinstance(d, (int, str)):
                raise TypeError(f"shape dims must be int, str or ..., got {d!r}")
        self.dims = tuple(dims)
        self.dtype = dtype
        self.optional = optional

    def __or__(self, other):
        if other is None or other is type(None):
            return ShapeSpec(self.dims, self.dtype, optional=True)
        return NotImplemented

    __ror__ = __or__

    def __eq__(self, other):
        return (
            isinstance(other, ShapeSpec)
            and self.dims == other.dims
            and self.dtype == other.dtype
            and self.optional == other.optional
        )

    def __hash__(self):
        return hash((self.dims, self.dtype, self.optional))

    def __repr__(self):
        name = {None: "Array", "float64": "Float64", "float32": "Float32"}.get(
            self.dtype, f"Array<{self.dtype}>"
        )
        body = ", ".join("..." if d is Ellipsis else repr(d) for d in self.dims)
        opt = " | None" if self.optional else ""
        return f"{name}[{body}]{opt}"


class _SpecFactory:
    """``Float64["nr", "nth"]`` -> cached :class:`ShapeSpec`."""

    __slots__ = ("_name", "_dtype", "_cache")

    def __init__(self, name: str, dtype: str | None):
        self._name = name
        self._dtype = dtype
        self._cache: dict[tuple, ShapeSpec] = {}

    def __getitem__(self, item) -> ShapeSpec:
        dims = item if isinstance(item, tuple) else (item,)
        spec = self._cache.get(dims)
        if spec is None:
            spec = self._cache[dims] = ShapeSpec(dims, self._dtype)
        return spec

    def __repr__(self):
        return self._name


#: Shape-only contract (any dtype).
Array = _SpecFactory("Array", None)
#: Shape contract that also pins ``float64`` — the solver's precision.
Float64 = _SpecFactory("Float64", "float64")
#: Shape contract pinning ``float32`` (diagnostics/viz payloads only).
Float32 = _SpecFactory("Float32", "float32")


class _SeqSpec:
    """``Sequence[Float64[...]]`` — homogeneous sequence of arrays."""

    __slots__ = ("spec",)

    def __init__(self, spec: ShapeSpec):
        self.spec = spec


class _TupleSpec:
    """``tuple[Float64[...], Float64[...], ...]`` — fixed-arity tuple."""

    __slots__ = ("specs",)

    def __init__(self, specs: tuple[ShapeSpec, ...]):
        self.specs = specs
