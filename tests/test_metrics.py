import math
import random
import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpindex.errors import DegenerateInputError, InsufficientSamplesError, ValidationError
from gpindex.jsondoc import replace
from gpindex.metrics import (
    METRIC_IDS,
    compute_battery_metrics,
    compute_fps_metrics,
    compute_gfx_quality,
    compute_responsiveness_metrics,
    compute_swiftness_metrics,
    compute_thermal_metrics,
    extract_metrics,
    median,
)
from gpindex.synth import default_demo_manifest, generate_corpus
from gpindex.telemetry import (
    BatterySample,
    DeviceMeta,
    GameSettings,
    LaunchEvent,
    SceneLoad,
    TempSample,
    TouchEvent,
)
from tests.strategies import sessions


# --- independent oracles -------------------------------------------------


def nearest_rank_oracle(values, percentile):
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_oracle(values):
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def stability_oracle(deltas):
    med = median_oracle(deltas)
    hits = sum(1 for d in deltas if abs(d - med) <= 0.2 * med)
    return hits / len(deltas)


def cumulative(deltas, start=0):
    frames = [start]
    for d in deltas:
        frames.append(frames[-1] + d)
    return frames


def histogram(frames):
    """The intervals between consecutive frames, counted: ``frame_intervals``."""
    return Counter(b - a for a, b in zip(frames, frames[1:]))


def numpy_fps_metrics(frames):
    """The FPS rules in float64 numpy arrays: the oracle compute_fps_metrics must equal."""
    ts = np.asarray(frames, dtype=np.float64)
    span_ms = float(ts[-1] - ts[0])
    avg_fps = (ts.size - 1) / (span_ms / 1000.0)
    deltas = np.diff(ts)
    deltas = deltas[deltas > 0]
    inst_fps = 1000.0 / deltas
    rank = max(1, math.ceil(1.0 / 100.0 * inst_fps.size))
    low1_fps = float(np.sort(inst_fps)[rank - 1])
    median_delta = float(np.median(deltas))
    within = np.abs(deltas - median_delta) <= 0.2 * median_delta
    stability = float(np.count_nonzero(within)) / deltas.size
    return float(avg_fps), low1_fps, stability


@st.composite
def interval_lists(draw):
    """Frame intervals: all distinct, from a small pool around a median (repeats,
    zeros and intervals exactly on the +/-20 % band edge), or any small ints;
    at least one is positive."""
    kind = draw(st.sampled_from(["distinct", "band", "small"]))
    if kind == "distinct":
        return draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=120, unique=True))
    if kind == "band":
        m = 5 * draw(st.integers(1, 40))  # 0.8 * m and 1.2 * m are integers
        pool = [0, m * 4 // 5 - 1, m * 4 // 5, m, m * 6 // 5, m * 6 // 5 + 1]
        deltas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=120))
    else:
        deltas = draw(st.lists(st.integers(0, 500), min_size=1, max_size=120))
    return deltas if any(deltas) else deltas + [draw(st.integers(1, 500))]


@st.composite
def frame_sequences(draw):
    """Non-decreasing int frame timestamps below 2**53 ms, as a session holds."""
    deltas = draw(interval_lists())
    start = draw(st.integers(0, 2**53 - 2 - sum(deltas)))
    return tuple(cumulative(deltas, start))


class TestFpsMetrics:
    def test_constant_frame_time(self):
        avg, low1, stability = compute_fps_metrics(Counter({20: 600}))
        assert avg == low1 == 50.0
        assert stability == 1.0

    def test_one_percent_low_single_outlier(self):
        # 99 intervals at 16 ms plus one 100 ms stall
        deltas = [16] * 99 + [100]
        _, low1, _ = compute_fps_metrics(Counter(deltas))
        oracle = nearest_rank_oracle([1000.0 / d for d in deltas], 1.0)
        assert low1 == oracle == 10.0

    def test_alternating_intervals_stability(self):
        deltas = [10, 30] * 50
        _, _, stability = compute_fps_metrics(Counter(deltas))
        assert stability == stability_oracle(deltas) == 0.0

    def test_zero_intervals_merge_into_next(self):
        avg, low1, _ = compute_fps_metrics(histogram([0, 10, 10, 30]))
        # merged intervals are 10 ms and 20 ms; avg still counts all 4 frames
        assert avg == pytest.approx(3 / 0.030)
        assert low1 == 50.0

    def test_all_equal_timestamps(self):
        with pytest.raises(DegenerateInputError, match="equal"):
            compute_fps_metrics(histogram([5, 5, 5]))

    def test_too_few_frames(self):
        with pytest.raises(DegenerateInputError):
            compute_fps_metrics(histogram([5]))

    @settings(max_examples=200, deadline=None)
    @given(frame_sequences())
    @example((0, 16))  # a single positive interval
    @example((0, 16, 16, 32, 32, 32))  # zero intervals
    @example((0, 4, 9, 15))  # odd count, 4 and 6 on the band edge of the median 5
    @example((0, 4, 9, 15, 20))  # even count
    @example((2**53 - 41, 2**53 - 25, 2**53 - 1))  # the largest timestamps a session may hold
    def test_equals_numpy_oracle(self, frames):
        assert compute_fps_metrics(histogram(frames)) == numpy_fps_metrics(frames)

    def test_equals_numpy_oracle_on_demo_sessions(self):
        for device in default_demo_manifest():
            for session in generate_corpus((device,))[device.model.device_id]:
                got = compute_fps_metrics(session.frame_intervals)
                assert got == numpy_fps_metrics(session.frames)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 500), min_size=1, max_size=150))
    def test_low1_matches_oracle(self, deltas):
        _, low1, _ = compute_fps_metrics(Counter(deltas))
        assert low1 == nearest_rank_oracle([1000.0 / d for d in deltas], 1.0)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 500), min_size=1, max_size=150))
    def test_stability_matches_oracle(self, deltas):
        _, _, stability = compute_fps_metrics(Counter(deltas))
        assert stability == pytest.approx(stability_oracle(deltas), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 3))
    def test_equal_intervals_fully_stable(self, count, width):
        _, _, stability = compute_fps_metrics(Counter({width: count}))
        assert stability == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 1000), min_size=2, max_size=100),
        st.integers(1, 999),
        st.integers(0, 10_000),
    )
    def test_subdivision_never_decreases_avg(self, deltas, cut, start):
        if sum(deltas) == 0:
            deltas = deltas + [1]
        frames = cumulative(deltas, start)
        inserted = sorted(frames + [frames[0] + (frames[-1] - frames[0]) * cut // 1000])
        avg_before, _, _ = compute_fps_metrics(histogram(frames))
        avg_after, _, _ = compute_fps_metrics(histogram(inserted))
        assert avg_after >= avg_before


class TestBatteryMetrics:
    def test_basic_drain(self):
        samples = [BatterySample(0, 100.0), BatterySample(30 * 60_000, 90.0)]
        assert compute_battery_metrics(samples) == pytest.approx(20.0)

    def test_flat_battery(self):
        samples = [BatterySample(0, 80.0), BatterySample(600_000, 80.0)]
        assert compute_battery_metrics(samples) == 0.0

    def test_sawtooth_uses_endpoints_only(self):
        levels = [95.0, 94.0, 94.4, 92.0, 92.3, 88.0, 88.2, 85.0]
        step = 3_600_000 // (len(levels) - 1)
        samples = [BatterySample(i * step, level) for i, level in enumerate(levels)]
        # oracle: endpoint arithmetic over exactly one hour
        span_h = samples[-1].t_ms / 3_600_000
        assert compute_battery_metrics(samples) == pytest.approx((95.0 - 85.0) / span_h, abs=0.01)

    def test_net_rise_floors_at_zero(self):
        samples = [BatterySample(0, 80.0), BatterySample(600_000, 80.4)]
        assert compute_battery_metrics(samples) == 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            compute_battery_metrics([BatterySample(0, 100.0)])

    def test_insufficient_span(self):
        samples = [BatterySample(0, 100.0), BatterySample(60_000, 99.0)]
        with pytest.raises(InsufficientSamplesError, match="span"):
            compute_battery_metrics(samples)


class TestThermalMetrics:
    def test_single_sample(self):
        assert compute_thermal_metrics([TempSample(0, 30.0, "soc")]) == (30.0, 0.0)

    def test_peak_and_rise(self):
        values = [28.0, 35.0, 41.0, 39.0]
        samples = [TempSample(i * 1000, v, "soc") for i, v in enumerate(values)]
        assert compute_thermal_metrics(samples) == (41.0, 13.0)

    def test_peak_across_sensors(self):
        samples = [
            TempSample(0, 28.0, "soc"),
            TempSample(500, 31.0, "gpu"),
            TempSample(1000, 30.0, "soc"),
            TempSample(1500, 44.5, "gpu"),
            TempSample(2000, 29.0, "soc"),
        ]
        peak, rise = compute_thermal_metrics(samples)
        # oracle: flatten all samples and take the max
        assert peak == max(s.value_c for s in samples) == 44.5
        assert rise == pytest.approx(44.5 - 28.0)

    def test_no_samples(self):
        with pytest.raises(InsufficientSamplesError):
            compute_thermal_metrics([])


class TestSwiftnessMetrics:
    def test_launch_time(self):
        launch_s, _ = compute_swiftness_metrics(LaunchEvent(0, 8200), ())
        assert launch_s == 8.2

    def test_absent_scene_loads(self):
        _, mean_load = compute_swiftness_metrics(None, ())
        assert mean_load is None

    def test_mean_scene_load(self):
        loads = [SceneLoad(0, 2000), SceneLoad(10_000, 14_000), SceneLoad(20_000, 26_000)]
        _, mean_load = compute_swiftness_metrics(None, loads)
        assert mean_load == pytest.approx(4.0)


class TestResponsivenessMetrics:
    def test_odd_count(self):
        events = [TouchEvent(0, 40.0), TouchEvent(1, 60.0), TouchEvent(2, 55.0)]
        assert compute_responsiveness_metrics(events) == 55.0

    def test_even_count(self):
        events = [TouchEvent(0, 40.0), TouchEvent(1, 60.0)]
        assert compute_responsiveness_metrics(events) == 50.0

    def test_absent(self):
        assert compute_responsiveness_metrics(()) is None

    def test_randomized_against_sort_oracle(self):
        rng = random.Random(9)
        latencies = [rng.uniform(1.0, 200.0) for _ in range(1000)]
        events = [TouchEvent(i, latency) for i, latency in enumerate(latencies)]
        assert compute_responsiveness_metrics(events) == median_oracle(latencies)

    @given(
        st.lists(
            st.one_of(st.integers(-1000, 1000), st.floats(-1e6, 1e6, allow_nan=False)),
            min_size=1,
        )
    )
    def test_median_equals_the_statistics_median(self, values):
        assert median(values) == float(statistics.median(values))


def _gfx(tiers, render_scale, ppi):
    return compute_gfx_quality(
        GameSettings("g", render_scale, *tiers), DeviceMeta("d", display_ppi=ppi)
    )


class TestGfxQuality:
    def test_maximum(self):
        assert _gfx((3, 3, 3, 3), 1.0, 500.0) == 1.0

    def test_floor(self):
        eps = 0.01
        assert _gfx((0, 0, 0, 0), eps, None) == pytest.approx(0.3 * eps + 0.1)

    def test_hand_evaluated_mid(self):
        # oracle: 0.5*1 + 0.3*0.5 + 0.2*0.5
        assert _gfx((3, 3, 3, 3), 0.5, 250.0) == pytest.approx(0.75, abs=1e-12)

    def test_ppi_clamps(self):
        assert _gfx((3, 3, 3, 3), 1.0, 900.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.integers(0, 3)] * 4),
        st.floats(0.01, 1.0),
        st.none() | st.floats(50.0, 900.0),
    )
    def test_always_bounded(self, tiers, render_scale, ppi):
        assert 0.0 <= _gfx(tiers, render_scale, ppi) <= 1.0


class TestExtractMetrics:
    def test_full_session_all_fields_present(self, reference_session):
        ms = extract_metrics(reference_session)
        assert METRIC_IDS == (
            "avg_fps",
            "low1_fps",
            "fps_stability",
            "drain_pct_per_hour",
            "peak_temp_c",
            "temp_rise_c",
            "launch_s",
            "scene_load_s",
            "touch_latency_ms",
            "gfx_points",
        )
        assert all(
            getattr(ms, metric) is not None
            for metric in METRIC_IDS
            if metric != "scene_load_s"  # reference model generates no scene loads
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("avg_fps", 0.0),
            ("fps_stability", 1.5),
            ("drain_pct_per_hour", math.nan),
            ("gfx_points", -0.1),
        ],
    )
    def test_invalid_metric_set_rejected(self, reference_session, field, value):
        ms = extract_metrics(reference_session)
        with pytest.raises(ValidationError, match=field):
            replace(ms, **{field: value})

    def test_missing_touch_propagates_absence(self, reference_session):
        session = replace(reference_session, touch=())
        ms = extract_metrics(session)
        assert ms.touch_latency_ms is None
        assert ms.avg_fps > 0

    def test_error_carries_metric_name(self, reference_session):
        session = replace(reference_session, battery=())
        with pytest.raises(InsufficientSamplesError, match="drain_pct_per_hour"):
            extract_metrics(session)

    def test_minimal_two_frame_session(self):
        from gpindex.telemetry import SessionTelemetry

        session = SessionTelemetry(
            schema_version=1,
            device=DeviceMeta("d"),
            settings=GameSettings("g", 1.0, 3, 3, 3, 3),
            frames=(0, 16),
            battery=(BatterySample(0, 100.0), BatterySample(70_000, 99.0)),
            temperature=(TempSample(0, 30.0, "soc"),),
        )
        ms = extract_metrics(session)
        assert ms.avg_fps == pytest.approx(1000.0 / 16.0)

    @settings(max_examples=60, deadline=None)
    @given(sessions(max_intervals=30), st.integers(0, 100_000))
    def test_time_shift_invariance(self, session, offset):
        shifted = replace(
            session,
            frames=tuple(t + offset for t in session.frames),
            battery=tuple(BatterySample(s.t_ms + offset, s.level_pct) for s in session.battery),
            temperature=tuple(
                TempSample(s.t_ms + offset, s.value_c, s.sensor) for s in session.temperature
            ),
            touch=tuple(TouchEvent(e.t_ms + offset, e.latency_ms) for e in session.touch),
            scene_loads=tuple(
                SceneLoad(l.t_start_ms + offset, l.t_end_ms + offset)
                for l in session.scene_loads
            ),
            launch=None
            if session.launch is None
            else LaunchEvent(session.launch.t_start_ms + offset, session.launch.t_first_frame_ms + offset),
        )
        assert extract_metrics(shifted) == extract_metrics(session)

    @settings(max_examples=80, deadline=None)
    @given(sessions(max_intervals=30))
    def test_metric_set_invariants(self, session):
        ms = extract_metrics(session)
        assert ms.avg_fps > 0
        assert 0.0 <= ms.fps_stability <= 1.0
        assert ms.drain_pct_per_hour >= 0.0
        assert 0.0 <= ms.gfx_points <= 1.0
        deltas = [b - a for a, b in zip(session.frames, session.frames[1:]) if b > a]
        assert ms.low1_fps <= max(1000.0 / d for d in deltas) + 1e-9
        assert (ms.touch_latency_ms is None) == (not session.touch)
        assert (ms.scene_load_s is None) == (not session.scene_loads)
        assert (ms.launch_s is None) == (session.launch is None)
