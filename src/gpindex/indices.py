"""Upper aggregation levels: sub-index scores -> six main indices -> overall score.

Both levels use a weighted arithmetic mean. Metrics a session did not
measure are never scored as zero: their weight is renormalized over the
measured ones and the renormalization is recorded as a flag, so a device
is not punished for unmeasured behavior. A session is measured once
(``measure``); only the weighting runs per profile (``weigh``). Repeated
sessions aggregate by median, to absorb the natural deviation between
gameplay sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import (
    AllIndicesAbsentError,
    CurveError,
    EmptyInputError,
    MixedDevicesError,
    WeightError,
)
from .jsondoc import is_finite, is_number
from .metrics import METRIC_IDS, extract_metrics, median
from .scoring import MappingCurve, SubIndexScore, map_metric
from .telemetry import SessionTelemetry


class MainIndex(Enum):
    """The six fixed performance categories."""

    VISUAL_SMOOTHNESS = "visual_smoothness"
    GRAPHICAL_QUALITY = "graphical_quality"
    BATTERY = "battery"
    TEMPERATURE = "temperature"
    SWIFTNESS = "swiftness"
    RESPONSIVENESS = "responsiveness"


# Static assignment of every metric to exactly one main index.
METRIC_INDEX: dict[str, MainIndex] = {
    "avg_fps": MainIndex.VISUAL_SMOOTHNESS,
    "low1_fps": MainIndex.VISUAL_SMOOTHNESS,
    "fps_stability": MainIndex.VISUAL_SMOOTHNESS,
    "gfx_points": MainIndex.GRAPHICAL_QUALITY,
    "drain_pct_per_hour": MainIndex.BATTERY,
    "peak_temp_c": MainIndex.TEMPERATURE,
    "temp_rise_c": MainIndex.TEMPERATURE,
    "launch_s": MainIndex.SWIFTNESS,
    "scene_load_s": MainIndex.SWIFTNESS,
    "touch_latency_ms": MainIndex.RESPONSIVENESS,
}

INDEX_METRICS: dict[MainIndex, tuple[str, ...]] = {
    index: tuple(m for m in METRIC_IDS if METRIC_INDEX[m] is index) for index in MainIndex
}

assert set(METRIC_INDEX) == set(METRIC_IDS)

# Normalized weights are quantized to this many decimals so that scaling
# a weight vector by any positive constant reproduces the same stored
# weights bit-for-bit (scores are then identical, not merely close).
WEIGHT_DECIMALS = 10


def _normalized(weights: Mapping, what: str) -> dict:
    total = 0.0
    for key, weight in weights.items():
        if not is_finite(weight):
            kind = "non-finite" if is_number(weight) else "non-numeric"
            raise WeightError(f"{what}: {kind} weight for {key}")
        if weight < 0:
            raise WeightError(f"{what}: negative weight for {key}")
        total += weight
    if total <= 0:
        raise WeightError(f"{what}: at least one weight must be positive")
    if total == math.inf:
        raise WeightError(f"{what}: weights sum beyond the float range")
    return {key: round(w / total, WEIGHT_DECIMALS) for key, w in weights.items()}


@dataclass(frozen=True)
class IndexProfile:
    """Named gamer persona: weights over sub-metrics and over main indices.

    Weight maps are normalized (and quantized) at construction; missing
    sub-weight maps default to uniform weights over that index's metrics,
    missing main weights default to zero.
    """

    name: str
    main_weights: dict[MainIndex, float]
    sub_weights: dict[MainIndex, dict[str, float]]

    def __post_init__(self) -> None:
        if not self.name:
            raise WeightError("profile name must be non-empty")
        for what, weights in (("main", self.main_weights), ("sub", self.sub_weights)):
            if not isinstance(weights, Mapping):
                raise WeightError(
                    f"profile '{self.name}': {what} weights must be a mapping, "
                    f"got {type(weights).__name__}"
                )
        for index in self.main_weights:
            if not isinstance(index, MainIndex):
                raise WeightError(f"unknown main index {index!r}")
        main = {index: self.main_weights.get(index, 0.0) for index in MainIndex}
        object.__setattr__(self, "main_weights", _normalized(main, f"profile '{self.name}' main weights"))

        subs: dict[MainIndex, dict[str, float]] = {}
        for index in MainIndex:
            given = self.sub_weights.get(index) or dict.fromkeys(INDEX_METRICS[index], 1.0)
            if not isinstance(given, Mapping):
                raise WeightError(
                    f"profile '{self.name}': {index.value} sub weights must be a mapping, "
                    f"got {type(given).__name__}"
                )
            for metric_id in given:
                if metric_id not in METRIC_INDEX:
                    raise WeightError(
                        f"profile '{self.name}': unknown metric '{metric_id}' in sub weights"
                    )
                if METRIC_INDEX[metric_id] is not index:
                    raise WeightError(
                        f"profile '{self.name}': metric '{metric_id}' does not belong to {index.value}"
                    )
            subs[index] = _normalized(given, f"profile '{self.name}' {index.value}")
        for index in self.sub_weights:
            if index not in subs:
                raise WeightError(f"profile '{self.name}': unknown sub-weight group {index!r}")
        object.__setattr__(self, "sub_weights", subs)


def _renormalized_mean(
    weights: Mapping, scores: Mapping, label: str, parts: str
) -> tuple[float | None, tuple[str, ...]]:
    """Mean of ``scores`` weighted by ``weights``, renormalized over the keys present.

    Each absent positively-weighted key is named in one flag; when every
    present key carries zero weight the present scores are averaged
    uniformly, also flagged. Returns (None, ()) when no weighted key is
    present. The mean is clamped to [0, 100] against float drift.
    """
    contributing = [(w, scores[key]) for key, w in weights.items() if key in scores]
    if not contributing:
        return None, ()
    flags = []
    # MainIndex keys are named by their value, metric ids by themselves.
    missing = sorted(
        getattr(key, "value", key) for key, w in weights.items() if w > 0 and key not in scores
    )
    if missing:
        flags.append(f"{label}: missing {'+'.join(missing)} (weights renormalized)")
    if sum(w for w, _ in contributing) <= 0:
        flags.append(f"{label}: measured {parts} all zero-weighted (uniform fallback)")
        contributing = [(1.0, s) for _, s in contributing]
    value = sum(w * s for w, s in contributing) / sum(w for w, _ in contributing)
    return min(100.0, max(0.0, value)), tuple(flags)


def score_main_index(
    index: MainIndex, scores: Mapping[str, float], profile: IndexProfile
) -> tuple[float | None, tuple[str, ...]]:
    """Weighted mean of one main index's sub-scores (metric id -> score) under a profile.

    Returns (None, ()) when none of the index's weighted metrics is
    present; score_overall records that, nothing renormalizes here.
    """
    return _renormalized_mean(profile.sub_weights[index], scores, index.value, "metrics")


def score_overall(
    main_scores: Mapping[MainIndex, float | None], profile: IndexProfile
) -> tuple[float, tuple[str, ...]]:
    """Weighted mean of the present main-index scores under a profile."""
    present = {i: s for i, s in main_scores.items() if s is not None}
    if not present:
        raise AllIndicesAbsentError("no main index could be scored")
    return _renormalized_mean(profile.main_weights, present, "overall", "indices")


def aggregate_sessions(per_session_overalls: Sequence[float]) -> float:
    """Median across sessions; even count takes the mean of the two middle values."""
    if not per_session_overalls:
        raise EmptyInputError("aggregate_sessions requires at least one value")
    return median(per_session_overalls)


@dataclass(frozen=True)
class SessionScores:
    sub_scores: tuple[SubIndexScore, ...]
    main_scores: dict[MainIndex, float | None]
    overall: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class ScoreCard:
    """Full score tree for one device under one profile."""

    device_id: str
    profile_name: str
    sessions: tuple[SessionScores, ...]
    median_overall: float
    median_main: dict[MainIndex, float | None]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class MeasuredSession:
    """What scoring needs of one session once it has been measured."""

    device_id: str
    sub_scores: tuple[SubIndexScore, ...]


def measure(session: SessionTelemetry, curves: Mapping[str, MappingCurve]) -> MeasuredSession:
    """The session's sub-index scores in METRIC_IDS order; no profile involved."""
    metrics = extract_metrics(session)
    subs = []
    for metric_id in METRIC_IDS:
        value = getattr(metrics, metric_id)
        if value is None:
            continue
        if metric_id not in curves:
            raise CurveError(f"no mapping curve for metric '{metric_id}'")
        subs.append(map_metric(value, curves[metric_id]))
    return MeasuredSession(session.device.device_id, tuple(subs))


def _weigh_session(subs: tuple[SubIndexScore, ...], profile: IndexProfile) -> SessionScores:
    """One measured session's main indices and overall under a profile."""
    scores = {s.metric_id: s.score for s in subs}
    mains: dict[MainIndex, float | None] = {}
    flags: list[str] = []
    for index in MainIndex:
        mains[index], index_flags = score_main_index(index, scores, profile)
        flags.extend(index_flags)
    overall, overall_flags = score_overall(mains, profile)
    flags.extend(overall_flags)
    return SessionScores(subs, mains, overall, tuple(flags))


def weigh(
    measured: Sequence[MeasuredSession], profiles: Sequence[IndexProfile]
) -> list[ScoreCard]:
    """One device's ScoreCard under each profile, in the order given.

    All sessions must come from one device; equal inputs give bit-identical cards.
    """
    if not measured:
        raise EmptyInputError("scoring a device requires at least one session")
    device_ids = {m.device_id for m in measured}
    if len(device_ids) > 1:
        raise MixedDevicesError(f"sessions span multiple devices: {sorted(device_ids)}")

    cards = []
    for profile in profiles:
        scored = tuple(_weigh_session(m.sub_scores, profile) for m in measured)
        median_overall = aggregate_sessions([s.overall for s in scored])
        median_main: dict[MainIndex, float | None] = {}
        for index in MainIndex:
            values = [s.main_scores[index] for s in scored if s.main_scores[index] is not None]
            median_main[index] = median(values) if values else None
        flags = tuple(sorted({flag for s in scored for flag in s.flags}))
        cards.append(
            ScoreCard(
                device_id=measured[0].device_id,
                profile_name=profile.name,
                sessions=scored,
                median_overall=median_overall,
                median_main=median_main,
                flags=flags,
            )
        )
    return cards


def score_device(
    sessions: Sequence[SessionTelemetry],
    profile: IndexProfile,
    curves: Mapping[str, MappingCurve],
) -> ScoreCard:
    """One device's ScoreCard under one profile: :func:`weigh` over the measured sessions."""
    return weigh([measure(s, curves) for s in sessions], (profile,))[0]
