"""Raw metric extraction from session telemetry.

Each function computes the raw measures of one performance category;
:func:`extract_metrics` composes them into a :class:`MetricSet`, whose
field names are the metric ids below (``METRIC_IDS`` is read off its
fields), so curves, weights and reports key by the same names. All
functions are pure, and every rule is deliberately simple enough to
check against a brute-force oracle:

  - avg_fps            (N-1) / span_seconds
  - low1_fps           nearest-rank 1st percentile of per-interval FPS
  - fps_stability      fraction of intervals within +/-20% of the median interval
  - drain_pct_per_hour endpoint battery delta per hour, floored at 0
  - peak_temp_c        max over all sensors; temp_rise_c = peak - first sample
  - launch_s           first-frame delay; scene_load_s = mean scene-load time
  - touch_latency_ms   median latency (even count: mean of the two middle)
  - gfx_points         0.5*mean(tier/3) + 0.3*render_scale + 0.2*ppi_factor

The three FPS rules equal, bit for bit, the same rules in float64 numpy,
which the test suite keeps as their oracle (:func:`compute_fps_metrics`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from itertools import accumulate
from operator import sub
from typing import Iterable, Sequence

from .errors import DegenerateInputError, EngineError, InsufficientSamplesError, ValidationError
from .telemetry import (
    BatterySample,
    DeviceMeta,
    GameSettings,
    LaunchEvent,
    SceneLoad,
    SessionTelemetry,
    TempSample,
    TouchEvent,
)

LOW_PERCENTILE = 1.0
STABILITY_BAND = 0.20
MIN_BATTERY_SPAN_MS = 60_000

GFX_TIER_WEIGHT = 0.5
GFX_RENDER_WEIGHT = 0.3
GFX_PPI_WEIGHT = 0.2
GFX_PPI_REFERENCE = 500.0
GFX_PPI_DEFAULT_FACTOR = 0.5

MS_PER_HOUR = 3_600_000.0


@dataclass(frozen=True)
class MetricSet:
    """Raw metric values extracted from one session, one field per metric id."""

    avg_fps: float
    low1_fps: float
    fps_stability: float
    drain_pct_per_hour: float
    peak_temp_c: float
    temp_rise_c: float
    launch_s: float | None
    scene_load_s: float | None
    touch_latency_ms: float | None
    gfx_points: float

    def __post_init__(self) -> None:
        if not self.avg_fps > 0:
            raise ValidationError("avg_fps must be positive")
        if not 0 <= self.fps_stability <= 1:
            raise ValidationError("fps_stability must be in [0, 1]")
        if not self.drain_pct_per_hour >= 0:
            raise ValidationError("drain_pct_per_hour must be >= 0")
        if not 0 <= self.gfx_points <= 1:
            raise ValidationError("gfx_points must be in [0, 1]")


# Fixed metric identifiers used by curves, weights and reports.
METRIC_IDS = tuple(field.name for field in fields(MetricSet))


def median(values: Iterable[float]) -> float:
    """Middle of the sorted values; an even count takes the mean of the two middle ones."""
    xs = sorted(values)
    mid = len(xs) // 2
    return float(xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2)


def compute_fps_metrics(
    frames: Sequence[float], intervals: Counter | None = None
) -> tuple[float, float, float]:
    """(avg_fps, low1_fps, fps_stability) from frame-present timestamps (ms).

    ``intervals`` is the histogram of the intervals between consecutive
    frames, ``Counter(map(sub, frames[1:], frames))``, when the caller has
    it already (``SessionTelemetry.frame_intervals``). Zero-length
    intervals (simultaneous presents) merge into the next interval, so
    instantaneous FPS is always defined. Sessions have few distinct
    intervals: the percentile, the median and the band count come from
    walking the sorted keys with cumulative counts, each taken as a float
    where a float64 array would hold it.
    """
    if len(frames) < 2:
        raise DegenerateInputError("need at least 2 frame timestamps")
    span_ms = float(frames[-1] - frames[0])
    if span_ms <= 0:
        raise DegenerateInputError("all frame timestamps are equal")

    avg_fps = (len(frames) - 1) / (span_ms / 1000.0)

    counts = Counter(map(sub, frames[1:], frames)) if intervals is None else intervals
    deltas = sorted(d for d in counts if d > 0)  # merge zero intervals into the next one
    ends = list(accumulate(counts[d] for d in deltas))
    n = ends[-1]

    def nth(i: int) -> float:
        """The i-th smallest interval (0-based), as a float."""
        return float(deltas[bisect_right(ends, i)])

    rank = max(1, math.ceil(LOW_PERCENTILE / 100.0 * n))
    low1_fps = 1000.0 / nth(n - rank)  # the rank-th longest interval

    median_delta = nth(n // 2) if n % 2 else (nth(n // 2 - 1) + nth(n // 2)) / 2.0
    band = STABILITY_BAND * median_delta
    within = sum(counts[d] for d in deltas if abs(float(d) - median_delta) <= band)
    stability = within / n

    return avg_fps, low1_fps, stability


def compute_battery_metrics(battery: Sequence[BatterySample]) -> float:
    """Endpoint drain rate in percent per hour, floored at 0.

    Endpoints only: intermediate sampling noise within the charging
    tolerance is deliberately ignored.
    """
    if len(battery) < 2:
        raise InsufficientSamplesError("need at least 2 battery samples")
    first, last = battery[0], battery[-1]
    span_ms = last[0] - first[0]
    if span_ms <= MIN_BATTERY_SPAN_MS:
        raise InsufficientSamplesError(
            f"battery samples must span > {MIN_BATTERY_SPAN_MS // 1000} s, got {span_ms / 1000:.1f} s"
        )
    drain = (first[1] - last[1]) / (span_ms / MS_PER_HOUR)
    return max(0.0, drain)


def compute_thermal_metrics(temperature: Sequence[TempSample]) -> tuple[float, float]:
    """(peak_temp, temp_rise): max over all sensors, rise above the first sample."""
    if not temperature:
        raise InsufficientSamplesError("need at least 1 temperature sample")
    peak = max(s[1] for s in temperature)
    return peak, peak - temperature[0][1]


def compute_swiftness_metrics(
    launch: LaunchEvent | None, scene_loads: Sequence[SceneLoad]
) -> tuple[float | None, float | None]:
    """(launch_time_s, mean_scene_load_s); None when the source event is absent."""
    launch_time = None
    if launch is not None:
        launch_time = (launch[1] - launch[0]) / 1000.0
    mean_load = None
    if scene_loads:
        mean_load = sum((end - start) / 1000.0 for start, end in scene_loads) / len(scene_loads)
    return launch_time, mean_load


def compute_responsiveness_metrics(touch: Sequence[TouchEvent]) -> float | None:
    """Median touch latency in ms (even count: mean of the two middle values)."""
    if not touch:
        return None
    return median(event[1] for event in touch)


def compute_gfx_quality(settings: GameSettings, device: DeviceMeta) -> float:
    """Graphics quality points in [0, 1] from settings tiers, render scale and pixel density.

    Pixel density saturates at 500 ppi; devices that do not report ppi
    get the neutral half-point factor.
    """
    tier_mean = sum(t / 3.0 for t in settings.tiers) / 4.0
    if device.display_ppi is None:
        ppi_factor = GFX_PPI_DEFAULT_FACTOR
    else:
        ppi_factor = min(1.0, max(0.0, device.display_ppi / GFX_PPI_REFERENCE))
    points = (
        GFX_TIER_WEIGHT * tier_mean
        + GFX_RENDER_WEIGHT * settings.render_scale
        + GFX_PPI_WEIGHT * ppi_factor
    )
    return min(1.0, max(0.0, points))


def _named(metric_ids: str, fn, *args):
    try:
        return fn(*args)
    except EngineError as exc:
        raise type(exc)(f"{metric_ids}: {exc}") from exc


def extract_metrics(session: SessionTelemetry) -> MetricSet:
    """Compose all per-category computations into one MetricSet.

    Each computation returns its metrics in METRIC_IDS order. Per-metric
    errors propagate with the metric name attached. Optional metrics are
    None iff the session lacks the corresponding stream.
    """
    return MetricSet(
        *_named(
            "avg_fps/low1_fps/fps_stability",
            compute_fps_metrics,
            session.frames,
            session.frame_intervals,
        ),
        _named("drain_pct_per_hour", compute_battery_metrics, session.battery),
        *_named("peak_temp_c/temp_rise_c", compute_thermal_metrics, session.temperature),
        *compute_swiftness_metrics(session.launch, session.scene_loads),
        compute_responsiveness_metrics(session.touch),
        compute_gfx_quality(session.settings, session.device),
    )
