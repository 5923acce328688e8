"""Monotone piecewise-linear mapping curves.

A curve converts one raw metric value (in its native units) into a
bounded 0-100 sub-index score: linear interpolation between breakpoints,
clamped to the first/last breakpoint score outside their range. Clamping
encodes saturation at both ends (good enough / unusable).

Curves are plain data. The default curve set lives in the engine config
file, not in code, so the whole scoring policy stays reviewable.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import CurveError, ValidationError
from .jsondoc import Record, is_finite, is_number


class SubIndexScore(Record):
    metric_id: str
    raw_value: float
    score: float


class MappingCurve(Record):
    """Value -> score function over ordered breakpoints.

    Invariants (enforced at construction):
      - at least 2 breakpoints;
      - breakpoint values strictly increasing;
      - breakpoint scores monotone (all non-decreasing or all non-increasing);
      - every score in [0, 100].
    """

    metric_id: str
    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.breakpoints, (tuple, list)):
            raise CurveError(
                f"{self.metric_id}: breakpoints must be a sequence of pairs, "
                f"got {type(self.breakpoints).__name__}"
            )
        bps = tuple(self._breakpoint(i, point) for i, point in enumerate(self.breakpoints))
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise CurveError(f"{self.metric_id}: need at least 2 breakpoints, got {len(bps)}")
        direction = 0
        for i, (value, score) in enumerate(bps):
            if not 0 <= score <= 100:
                raise CurveError(f"{self.metric_id}: score out of [0, 100] at index {i}")
            if i == 0:
                continue
            if value <= bps[i - 1][0]:
                raise CurveError(
                    f"{self.metric_id}: values not strictly increasing at index {i}"
                )
            step = score - bps[i - 1][1]
            if step > 0:
                if direction < 0:
                    raise CurveError(f"{self.metric_id}: scores not monotone at index {i}")
                direction = 1
            elif step < 0:
                if direction > 0:
                    raise CurveError(f"{self.metric_id}: scores not monotone at index {i}")
                direction = -1

    def _breakpoint(self, i: int, point: object) -> tuple[float, float]:
        """Breakpoint ``i`` as a (value, score) pair of floats; anything else raises CurveError."""
        if not (isinstance(point, (tuple, list)) and len(point) == 2):
            raise CurveError(f"{self.metric_id}: breakpoint at index {i} is not a pair")
        for x in point:
            if not is_finite(x):
                kind = "non-finite" if is_number(x) else "non-numeric"
                raise CurveError(f"{self.metric_id}: {kind} breakpoint at index {i}")
        return float(point[0]), float(point[1])


def map_metric(value: float, curve: MappingCurve) -> SubIndexScore:
    """Map a raw metric value through a curve.

    Values outside the breakpoint range clamp to the boundary scores;
    breakpoint values map to their scores exactly; NaN raises
    ValidationError. Pure and deterministic for identical inputs.
    """
    if math.isnan(value):
        raise ValidationError(f"{curve.metric_id}: cannot map NaN")
    bps = curve.breakpoints
    if value <= bps[0][0]:
        score = bps[0][1]
    elif value >= bps[-1][0]:
        score = bps[-1][1]
    else:
        values = [v for v, _ in bps]
        i = bisect_right(values, value)
        v0, s0 = bps[i - 1]
        v1, s1 = bps[i]
        if value == v0:
            score = s0
        elif math.isinf(v1 - v0):  # a segment wider than the float range: halve first
            score = s0 + (value / 2 - v0 / 2) / (v1 / 2 - v0 / 2) * (s1 - s0)
        else:
            score = s0 + (value - v0) / (v1 - v0) * (s1 - s0)
    return SubIndexScore(curve.metric_id, float(value), score)
