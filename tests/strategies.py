"""Hypothesis strategies for valid engine inputs, and a manifest builder.

Ordered streams are built from cumulative gaps rather than unique sorted
draws; generation stays cheap and monotonicity holds by construction.
"""

import json

import hypothesis.strategies as st

from gpindex.indices import INDEX_METRICS, IndexProfile, MainIndex
from gpindex.scoring import MappingCurve
from gpindex.telemetry import (
    BatterySample,
    DeviceMeta,
    GameSettings,
    LaunchEvent,
    SceneLoad,
    SessionTelemetry,
    TempSample,
    TouchEvent,
)

ident = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12)


def _cumulative(start, gaps):
    out = [start]
    for gap in gaps:
        out.append(out[-1] + gap)
    return out


@st.composite
def timestamps(draw, n, min_gap=0, max_gap=60_000):
    start = draw(st.integers(0, 10_000))
    gaps = draw(st.lists(st.integers(min_gap, max_gap), min_size=n - 1, max_size=n - 1))
    return _cumulative(start, gaps)


@st.composite
def frame_streams(draw, min_intervals=1, max_intervals=60):
    n = draw(st.integers(min_intervals, max_intervals))
    frames = draw(timestamps(n + 1, min_gap=0, max_gap=200))
    if frames[-1] == frames[0]:
        frames[-1] += draw(st.integers(1, 200))
    return tuple(frames)


@st.composite
def battery_streams(draw):
    n = draw(st.integers(2, 8))
    ts = draw(timestamps(n, min_gap=1, max_gap=120_000))
    if ts[-1] - ts[0] <= 60_000:
        ts[-1] = ts[0] + 61_000
    level = draw(st.floats(40.0, 100.0))
    samples = []
    for t in ts:
        samples.append(BatterySample(t, level))
        move = draw(st.floats(-0.4, 5.0))  # rises stay within the 0.5pp tolerance
        level = min(100.0, max(0.0, level - move))
    return tuple(samples)


@st.composite
def temp_streams(draw):
    n = draw(st.integers(1, 6))
    ts = draw(timestamps(n))
    sensors = st.sampled_from(["soc", "gpu", "skin"])
    return tuple(TempSample(t, draw(st.floats(-5.0, 60.0)), draw(sensors)) for t in ts)


@st.composite
def touch_streams(draw):
    n = draw(st.integers(0, 10))
    if n == 0:
        return ()
    ts = draw(timestamps(n))
    return tuple(TouchEvent(t, draw(st.floats(0.0, 300.0))) for t in ts)


@st.composite
def scene_load_streams(draw):
    n = draw(st.integers(0, 4))
    if n == 0:
        return ()
    starts = draw(timestamps(n))
    return tuple(SceneLoad(t, t + draw(st.integers(0, 30_000))) for t in starts)


@st.composite
def launches(draw):
    if not draw(st.booleans()):
        return None
    start = draw(st.integers(0, 1_000))
    return LaunchEvent(start, start + draw(st.integers(0, 30_000)))


@st.composite
def devices(draw):
    return DeviceMeta(
        device_id=draw(ident),
        battery_capacity_mah=draw(st.none() | st.integers(1_000, 6_000)),
        display_ppi=draw(st.none() | st.floats(100.0, 700.0)),
        display_resolution=draw(
            st.none() | st.tuples(st.integers(480, 2000), st.integers(800, 4000))
        ),
    )


@st.composite
def game_settings(draw):
    tier = st.integers(0, 3)
    return GameSettings(
        game_id=draw(ident),
        render_scale=draw(st.floats(0.01, 1.0)),
        texture_tier=draw(tier),
        effects_tier=draw(tier),
        aa_tier=draw(tier),
        dynamic_range_tier=draw(tier),
    )


@st.composite
def sessions(draw, max_intervals=60):
    """Valid sessions that always support full metric extraction."""
    return SessionTelemetry(
        schema_version=1,
        device=draw(devices()),
        settings=draw(game_settings()),
        frames=draw(frame_streams(max_intervals=max_intervals)),
        battery=draw(battery_streams()),
        temperature=draw(temp_streams()),
        touch=draw(touch_streams()),
        scene_loads=draw(scene_load_streams()),
        launch=draw(launches()),
    )


@st.composite
def curves(draw, metric_id="avg_fps", increasing=None, max_points=6):
    n = draw(st.integers(2, max_points))
    start = draw(st.floats(-100.0, 100.0))
    gaps = draw(st.lists(st.floats(0.125, 250.0), min_size=n - 1, max_size=n - 1))
    values = _cumulative(start, gaps)
    scores = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n)))
    if increasing is None:
        increasing = draw(st.booleans())
    if not increasing:
        scores = scores[::-1]
    return MappingCurve(metric_id, tuple(zip(values, scores)))


@st.composite
def profiles(draw, name="p"):
    """Profiles with small integer weights (exact normalization quotients)."""
    main = {index: draw(st.integers(0, 10)) for index in MainIndex}
    if not any(main.values()):
        main[draw(st.sampled_from(sorted(MainIndex, key=lambda i: i.value)))] = 1
    subs = {
        index: {m: draw(st.integers(1, 10)) for m in INDEX_METRICS[index]}
        for index in MainIndex
    }
    return IndexProfile(
        name,
        {i: float(w) for i, w in main.items()},
        {i: {m: float(w) for m, w in ws.items()} for i, ws in subs.items()},
    )


def curve_set():
    """Strategy for a full curve set covering every metric."""
    from gpindex.metrics import METRIC_IDS

    return st.fixed_dictionaries({m: curves(metric_id=m, max_points=4) for m in METRIC_IDS})


def manifest_bytes(*entries):
    """Manifest bytes with one device per entry: a fixed valid model, with
    the entry's overrides of model fields or of session_duration_s."""
    devices = []
    for overrides in entries:
        model = {
            "device_id": "x",
            "base_frame_time_ms": 16.0,
            "drain_rate_pct_per_hour": 10,
            "temp_start_c": 25,
            "temp_peak_c": 30,
            "touch_latency_ms": 50,
            "launch_s": 5,
            "seed": 1,
        }
        entry = {"sessions": 1, "session_duration_s": 300, "model": model}
        for key, value in overrides.items():
            (entry if key == "session_duration_s" else model)[key] = value
        devices.append(entry)
    # json.dumps writes float NaN and infinities as the NaN/Infinity literals.
    return json.dumps({"schema_version": 1, "devices": devices}).encode()

