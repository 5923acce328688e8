import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpindex.errors import CurveError, SchemaError, ValidationError
from gpindex.scoring import MappingCurve, map_metric
from tests.strategies import curves


class TestMapMetric:
    def test_identity_segment(self):
        curve = MappingCurve("avg_fps", [(0, 0), (100, 100)])
        assert map_metric(50.0, curve).score == 50.0

    def test_clamp_below_decreasing_curve(self):
        curve = MappingCurve("peak_temp_c", [(30, 100), (45, 0)])
        assert map_metric(20.0, curve).score == 100.0

    def test_clamp_above(self):
        curve = MappingCurve("avg_fps", [(0, 0), (60, 90), (120, 100)])
        assert map_metric(500.0, curve).score == 100.0

    def test_interior_interpolation(self):
        curve = MappingCurve("avg_fps", [(20, 0), (40, 50), (60, 100)])
        # oracle: 0 + (30-20)/(40-20) * (50-0)
        expected = 0 + (30 - 20) / (40 - 20) * (50 - 0)
        assert map_metric(30.0, curve).score == expected == 25.0

    def test_result_carries_raw_value_and_metric(self):
        curve = MappingCurve("launch_s", [(2, 100), (40, 0)])
        result = map_metric(8.2, curve)
        assert result.metric_id == "launch_s"
        assert result.raw_value == 8.2

    def test_nan_rejected(self):
        curve = MappingCurve("avg_fps", [(0, 0), (100, 100)])
        with pytest.raises(ValidationError, match="avg_fps: cannot map NaN"):
            map_metric(float("nan"), curve)

    def test_infinities_clamp(self):
        curve = MappingCurve("avg_fps", [(0, 10), (100, 90)])
        assert map_metric(float("inf"), curve).score == 90.0
        assert map_metric(float("-inf"), curve).score == 10.0


class TestValidateCurve:
    def test_valid_increasing(self):
        MappingCurve("avg_fps", [(0, 0), (60, 90), (120, 100)])

    def test_values_not_increasing(self):
        with pytest.raises(CurveError, match="values not strictly increasing at index 2"):
            MappingCurve("avg_fps", [(0, 0), (60, 90), (50, 100)])

    def test_scores_not_monotone(self):
        with pytest.raises(CurveError, match="scores not monotone at index 2"):
            MappingCurve("avg_fps", [(0, 0), (60, 90), (120, 80)])

    def test_scores_falling_then_rising_not_monotone(self):
        with pytest.raises(CurveError, match="scores not monotone at index 2"):
            MappingCurve("avg_fps", [(0, 100), (60, 50), (120, 80)])

    def test_score_out_of_range(self):
        with pytest.raises(CurveError, match="out of \\[0, 100\\] at index 1"):
            MappingCurve("avg_fps", [(0, 0), (60, 101)])

    def test_too_few_breakpoints(self):
        with pytest.raises(CurveError, match="at least 2"):
            MappingCurve("avg_fps", [(0, 0)])

    @pytest.mark.parametrize(
        "point,message",
        [
            (("x", 0), "[0][0]: expected number, got str"),
            ((None, 0), "[0][0]: expected number, got NoneType"),
            ((10**400, 0), "[0][0]: expected finite number"),
            ((1, 2, 3), "[0]: expected a 2-element array"),
        ],
    )
    def test_unusable_breakpoint_rejected(self, point, message):
        # A curve built directly raises a config's SchemaError, never ValueError or OverflowError.
        with pytest.raises(SchemaError, match=f"^avg_fps{re.escape(message)}$"):
            MappingCurve("avg_fps", [point, (100, 100)])

    @pytest.mark.parametrize("breakpoints", [None, 5, {(0, 0): (100, 100)}])
    def test_breakpoints_not_a_sequence_rejected(self, breakpoints):
        message = f"avg_fps: expected array, got {type(breakpoints).__name__}"
        with pytest.raises(SchemaError, match=f"^{message}$"):
            MappingCurve("avg_fps", breakpoints)

    @pytest.mark.parametrize(
        "value,score", [(0.0, 50.0), (-1.6e308, 100.0 / 34.0), (1.6e308, 3300.0 / 34.0)]
    )
    def test_segment_wider_than_float_range(self, value, score):
        # v1 - v0 overflows to inf: once scored 0.0 for every inner value, and NaN near the top.
        curve = MappingCurve("avg_fps", [(-1.7e308, 0), (1.7e308, 100)])
        assert map_metric(value, curve).score == pytest.approx(score)

    def test_constant_scores_allowed(self):
        curve = MappingCurve("avg_fps", [(0, 70), (10, 70), (20, 70)])
        assert map_metric(5.0, curve).score == 70.0


class TestCurveProperties:
    @settings(max_examples=200, deadline=None)
    @given(curves(), st.floats(-1e6, 1e6))
    def test_bounded_by_breakpoint_scores(self, curve, value):
        scores = [s for _, s in curve.breakpoints]
        result = map_metric(value, curve).score
        assert min(scores) <= result <= max(scores)
        assert 0.0 <= result <= 100.0

    @settings(max_examples=200, deadline=None)
    @given(curves(increasing=True), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_monotone_increasing(self, curve, v1, v2):
        if v1 > v2:
            v1, v2 = v2, v1
        assert map_metric(v1, curve).score <= map_metric(v2, curve).score

    @settings(max_examples=200, deadline=None)
    @given(curves(increasing=False), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_monotone_decreasing(self, curve, v1, v2):
        if v1 > v2:
            v1, v2 = v2, v1
        assert map_metric(v1, curve).score >= map_metric(v2, curve).score

    @settings(max_examples=200, deadline=None)
    @given(curves())
    def test_breakpoint_exactness(self, curve):
        for value, score in curve.breakpoints:
            assert map_metric(value, curve).score == score

    @settings(max_examples=200, deadline=None)
    @given(curves(), st.floats(-200.0, 1100.0))
    def test_continuity(self, curve, value):
        eps = 1e-6
        slopes = [
            abs((s1 - s0) / (v1 - v0))
            for (v0, s0), (v1, s1) in zip(curve.breakpoints, curve.breakpoints[1:])
        ]
        lipschitz = max(slopes)
        delta = abs(map_metric(value + eps, curve).score - map_metric(value, curve).score)
        assert delta <= lipschitz * eps + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(curves(), st.floats(-1e6, 1e6))
    def test_deterministic(self, curve, value):
        assert map_metric(value, curve) == map_metric(value, curve)


def test_curve_is_immutable():
    curve = MappingCurve("avg_fps", [(0, 0), (100, 100)])
    with pytest.raises(Exception):
        curve.breakpoints = ()
    assert isinstance(curve, MappingCurve)
