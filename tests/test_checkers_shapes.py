"""The shape/dtype annotation vocabulary the runtime contracts enforce."""

import pytest

from repro.checkers.shapes import (
    Array,
    Float32,
    Float64,
    ShapeSpec,
)


class TestVocabulary:
    def test_subscription_builds_specs(self):
        spec = Array["nr", "nth", "nph"]
        assert isinstance(spec, ShapeSpec)
        assert spec.dims == ("nr", "nth", "nph")
        assert spec.dtype is None
        assert Float64[8, "nr", "m"].dims == (8, "nr", "m")
        assert Float64["nr"].dtype == "float64"
        assert Float32["nr"].dtype == "float32"

    def test_specs_are_cached_and_hashable(self):
        assert Array["nr", "nth"] is Array["nr", "nth"]
        assert Float64["nr"] == Float64["nr"]
        assert Float64["nr"] != Float32["nr"]
        assert len({Float64["nr"], Float64["nr"], Array["nr"]}) == 2

    def test_optional_via_union_with_none(self):
        opt = Float64["nr"] | None
        assert opt.optional and not Float64["nr"].optional
        assert opt.dims == ("nr",) and opt.dtype == "float64"
        assert (None | Float64["nr"]).optional

    def test_ellipsis_spec(self):
        assert Float64[...].dims == (Ellipsis,)
        assert Float64[..., "n"].dims == (Ellipsis, "n")
        with pytest.raises(TypeError):
            Array[..., "a", ...]

    def test_repr_round_trips_visually(self):
        assert "Float64" in repr(Float64["nr", 3])
        assert "'nr'" in repr(Float64["nr", 3])
