"""Shared low-level utilities: array helpers, validation."""

from repro.utils.arrays import (
    as_float_array,
    assert_shape,
    ghost_interior,
    pad_ghost,
)
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_odd,
    require,
)

__all__ = [
    "as_float_array",
    "assert_shape",
    "ghost_interior",
    "pad_ghost",
    "check_in_range",
    "check_positive",
    "check_odd",
    "require",
]
