import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpindex import metrics, synth, telemetry
from gpindex.config import default_config
from gpindex.errors import ModelError, SchemaError
from gpindex.indices import measure
from gpindex.jsondoc import replace
from gpindex.metrics import extract_metrics
from gpindex.report import serialize_session
from gpindex.synth import (
    TOUCH_JITTER_FRACTION,
    TOUCH_PERIOD_MS,
    _GAMMA,
    _MASK64,
    _MIX1,
    _MIX2,
    DeviceModel,
    _block_floats,
    default_demo_manifest,
    generate_corpus,
    generate_session,
    load_manifest,
)
from gpindex.telemetry import TouchEvent, parse_session
from tests.strategies import manifest_bytes


class SplitMix64:
    """Oracle: the scalar SplitMix64 that synth's block draws reproduce.

    The state advances by a fixed odd constant; each output is a
    finalizing hash of the state (constants of the original public-domain
    algorithm).
    """

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self):
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.next_float()


def scalar_frames_and_touch(model, duration_s):
    """Oracle: the per-frame and per-touch loops, one scalar draw at a time."""
    rng = SplitMix64(model.seed)
    duration_ms = duration_s * 1000.0

    jitter_half_width = model.frame_jitter_sd_ms * math.sqrt(3.0)
    onset_ms = None if model.throttle_onset_s is None else model.throttle_onset_s * 1000.0

    frames = []
    t = 0.0
    while t < duration_ms - 1e-6:
        frames.append(round(t))
        dt = model.base_frame_time_ms
        if onset_ms is not None and t >= onset_ms:
            dt *= model.throttle_factor
        if jitter_half_width > 0:
            dt += rng.uniform(-jitter_half_width, jitter_half_width)
        t += max(dt, 0.001)

    touch = []
    t_ms = TOUCH_PERIOD_MS
    while t_ms <= duration_ms:
        latency = model.touch_latency_ms * (
            1.0 + rng.uniform(-TOUCH_JITTER_FRACTION, TOUCH_JITTER_FRACTION)
        )
        touch.append(TouchEvent(t_ms, latency))
        t_ms += TOUCH_PERIOD_MS
    return tuple(frames), tuple(touch)


def brute_intervals(frames):
    """Oracle: the histogram of frame intervals, one subtraction per pair."""
    return Counter(b - a for a, b in zip(frames, frames[1:]))


@st.composite
def models_and_durations(draw):
    """Models covering every branch of the frame loop, with a duration."""
    duration_s = draw(st.one_of(st.integers(120, 240), st.floats(120.0, 240.0)))
    throttle = draw(st.sampled_from(["none", "before_end", "after_end"]))
    onset = {
        "none": None,
        "before_end": draw(st.floats(1.0, duration_s - 1.0)),
        "after_end": draw(st.floats(duration_s + 1.0, 2 * duration_s)),
    }[throttle]
    model = DeviceModel(
        device_id="d",
        base_frame_time_ms=draw(st.one_of(st.integers(8, 40), st.floats(8.0, 40.0))),
        # Wide jitter makes some steps fall to the 0.001 ms floor.
        frame_jitter_sd_ms=draw(
            st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(3.0, 30.0))
        ),
        throttle_onset_s=onset,
        throttle_factor=draw(st.one_of(st.integers(1, 3), st.floats(1.0, 3.0))),
        drain_rate_pct_per_hour=20.0,
        temp_start_c=30.0,
        temp_peak_c=40.0,
        touch_latency_ms=draw(st.floats(0.0, 200.0)),
        launch_s=5.0,
        seed=draw(st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 1000, 2**64 - 1))),
    )
    return model, duration_s


# Jitter wider than the step puts some steps on the 0.001 ms floor (zero
# intervals once rounded); throttling starts halfway.
FLOORED_AND_THROTTLED = (
    DeviceModel(
        device_id="d",
        base_frame_time_ms=8.0,
        frame_jitter_sd_ms=30.0,
        throttle_onset_s=60.0,
        throttle_factor=2.0,
        drain_rate_pct_per_hour=20.0,
        temp_start_c=30.0,
        temp_peak_c=40.0,
        touch_latency_ms=50.0,
        launch_s=5.0,
        seed=7,
    ),
    120.0,
)


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_matches_independent_reimplementation(self):
        def reference(seed, n):
            m = 2**64
            state = seed % m
            out = []
            for _ in range(n):
                state = (state + 0x9E3779B97F4A7C15) % m
                z = state
                z = ((z ^ (z // 2**30)) * 0xBF58476D1CE4E5B9) % m
                z = ((z ^ (z // 2**27)) * 0x94D049BB133111EB) % m
                out.append(z ^ (z // 2**31))
            return out

        rng = SplitMix64(987654321)
        assert [rng.next_u64() for _ in range(50)] == reference(987654321, 50)

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(7)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_block_draws_equal_scalar_draws(self, seed):
        rng = SplitMix64(seed)
        scalar = [rng.next_float() for _ in range(1000)]
        assert _block_floats(seed, 0, 1000).tolist() == scalar
        assert _block_floats(seed, 600, 400).tolist() == scalar[600:]


class TestGenerateSession:
    def test_zero_jitter_recovers_model(self, reference_model, reference_session):
        ms = extract_metrics(reference_session)
        assert ms.avg_fps == pytest.approx(60.0, abs=0.1)
        assert ms.fps_stability == 1.0
        assert ms.drain_pct_per_hour == pytest.approx(
            reference_model.drain_rate_pct_per_hour, abs=0.1
        )
        assert ms.launch_s == pytest.approx(reference_model.launch_s, abs=0.01)
        assert ms.touch_latency_ms == pytest.approx(
            reference_model.touch_latency_ms, abs=0.5
        )
        assert ms.peak_temp_c == reference_model.temp_peak_c
        assert ms.temp_rise_c == pytest.approx(
            reference_model.temp_peak_c - reference_model.temp_start_c
        )

    def test_throttle_halves_rate_midway(self, reference_model):
        model = replace(
            reference_model, throttle_onset_s=300.0, throttle_factor=2.0
        )
        session = generate_session(model, 600)
        # oracle: closed-form frame count, 300 s at 60 fps plus 300 s at 30 fps
        expected_avg = (300 * 60 + 300 * 30) / 600
        ms = extract_metrics(session)
        assert ms.avg_fps == pytest.approx(expected_avg, abs=0.2)
        assert len(session.frames) == pytest.approx(300 * 60 + 300 * 30, abs=2)

    def test_same_seed_same_bytes(self, reference_model):
        a = serialize_session(generate_session(reference_model, 600))
        b = serialize_session(generate_session(reference_model, 600))
        assert a == b

    def test_different_seed_differs(self, reference_model):
        jittery = replace(reference_model, frame_jitter_sd_ms=1.0)
        other = replace(jittery, seed=jittery.seed + 1)
        assert generate_session(jittery, 600) != generate_session(other, 600)

    def test_generated_sessions_parse_and_validate(self, reference_model):
        jittery = replace(
            reference_model, frame_jitter_sd_ms=2.0, throttle_onset_s=200.0, throttle_factor=1.7
        )
        for model in (reference_model, jittery):
            session = generate_session(model, 240)
            assert parse_session(serialize_session(session)) == session

    def test_every_demo_session_round_trips(self):
        """`gpindex demo` scores the sessions it generates, not its files read back."""
        for device in default_demo_manifest():
            for session in generate_corpus((device,))[device.model.device_id]:
                assert session.frame_intervals == brute_intervals(session.frames)
                data = serialize_session(session)  # the file demo writes
                assert parse_session(data) == session
                # Each value comes back as written: "display_ppi":500 stays an int.
                assert serialize_session(parse_session(data)) == data

    def test_touch_jitter_within_ten_percent(self, reference_session, reference_model):
        true = reference_model.touch_latency_ms
        for event in reference_session.touch:
            assert abs(event.latency_ms - true) <= 0.1 * true + 1e-9

    def test_battery_floors_at_zero(self, reference_model):
        greedy = replace(reference_model, drain_rate_pct_per_hour=1000.0)
        session = generate_session(greedy, 600)
        assert session.battery[-1].level_pct == 0.0

    def test_duration_too_short(self, reference_model):
        with pytest.raises(ModelError, match="duration"):
            generate_session(reference_model, 60)

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan, 10**400, 1e16])
    def test_duration_must_be_finite_and_fit_int64(self, reference_model, duration_s):
        with pytest.raises(ModelError, match="duration_s must be finite"):
            generate_session(reference_model, duration_s)

    @settings(max_examples=40, deadline=None)
    @given(models_and_durations())
    @example(FLOORED_AND_THROTTLED)
    def test_equals_scalar_oracle(self, model_and_duration):
        model, duration_s = model_and_duration
        session = generate_session(model, duration_s)
        assert (session.frames, session.touch) == scalar_frames_and_touch(model, duration_s)
        assert session.frame_intervals == brute_intervals(session.frames)
        if model is FLOORED_AND_THROTTLED[0]:
            assert 0 in session.frame_intervals

    def test_demo_devices_equal_scalar_oracle(self):
        # A 600 s session spans several blocks of frames.
        for device in default_demo_manifest():
            session = generate_session(device.model, device.session_duration_s)
            assert (session.frames, session.touch) == scalar_frames_and_touch(
                device.model, device.session_duration_s
            )

    def test_small_blocks_equal_scalar_oracle(self, monkeypatch, reference_model):
        # 1.1 ms steps put many frame times next to a .5 rounding tie, so
        # adding them in any order but left to right changes some frames.
        monkeypatch.setattr(synth, "_FRAME_BLOCK", 1000)
        floored = replace(
            reference_model,
            base_frame_time_ms=1.1,
            frame_jitter_sd_ms=2.0,
            throttle_onset_s=60.0,
            throttle_factor=1.5,
        )
        models = [
            replace(reference_model, base_frame_time_ms=1.1),
            replace(
                reference_model,
                base_frame_time_ms=1.1,
                throttle_onset_s=50.5,
                throttle_factor=1.3,
            ),
            replace(
                reference_model,
                frame_jitter_sd_ms=9.0,
                throttle_onset_s=50.0,
                throttle_factor=2,
                seed=2**64 - 1,
            ),
            # Jitter wider than the step: steps hit the 0.001 ms floor.
            floored,
        ]
        for model in models:
            session = generate_session(model, 130.25)
            assert (session.frames, session.touch) == scalar_frames_and_touch(model, 130.25)
            assert session.frame_intervals == brute_intervals(session.frames)
        assert 0 in generate_session(floored, 130.25).frame_intervals

    def test_measure_counts_no_frame_interval(self, monkeypatch, reference_model):
        """generate_session hands its block histogram over; nothing counts the frames again."""
        calls, handed = 0, []
        check, fps = telemetry._parse_frames, metrics.compute_fps_metrics

        def counting(frames, where):
            nonlocal calls
            calls += 1
            return check(frames, where)

        def recording(intervals):
            handed.append(intervals)
            return fps(intervals)

        monkeypatch.setattr(telemetry, "_parse_frames", counting)
        monkeypatch.setattr(metrics, "compute_fps_metrics", recording)
        jittery = replace(
            reference_model, frame_jitter_sd_ms=2.0, throttle_onset_s=200.0, throttle_factor=1.7
        )
        session = generate_session(jittery, 600)
        measure(session, default_config().curves)
        assert calls == 0
        assert len(handed) == 1 and handed[0] is session.frame_intervals

    @pytest.mark.parametrize(
        "field,value",
        [
            ("base_frame_time_ms", 0.0),
            ("throttle_factor", 0.5),
            ("drain_rate_pct_per_hour", -1.0),
            ("temp_peak_c", 10.0),
            ("touch_latency_ms", -5.0),
            ("launch_s", -1.0),
        ],
    )
    def test_model_invariants(self, reference_model, field, value):
        with pytest.raises(ModelError):
            replace(reference_model, **{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("touch_latency_ms", math.nan),
            ("base_frame_time_ms", math.nan),
            ("temp_peak_c", math.inf),
            ("throttle_onset_s", math.inf),
            ("display_ppi", -math.inf),
            ("launch_s", 10**400),
        ],
    )
    def test_model_numbers_must_be_finite(self, reference_model, field, value):
        with pytest.raises(ModelError, match=f"{field} must be finite"):
            replace(reference_model, **{field: value})

    # A non-integer seed was once accepted, and generate_session then raised TypeError.
    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", "x"),
            ("seed", None),
            ("seed", 1.0),
            ("texture_tier", 2.5),
            ("aa_tier", True),
            ("battery_capacity_mah", "4000"),
        ],
    )
    def test_model_integers_must_be_integers(self, reference_model, field, value):
        with pytest.raises(ModelError, match=f"^{field} must be an integer, got {value!r}$"):
            replace(reference_model, **{field: value})

    # A non-string game_id was once accepted, and its sessions' files failed to parse.
    @pytest.mark.parametrize("value", [5, None, b"g", ["g"]])
    def test_model_strings_must_be_strings(self, reference_model, value):
        with pytest.raises(ModelError) as info:
            replace(reference_model, game_id=value)
        assert str(info.value) == f"game_id must be a string, got {value!r}"

    # demo writes each device's sessions to a directory named by its id.
    @pytest.mark.parametrize("device_id", ["", ".", "..", "../x", "/", "a\\b", "a\x00", None])
    def test_device_id_must_name_one_directory(self, reference_model, device_id):
        with pytest.raises(ModelError, match="^device_id must name one directory"):
            replace(reference_model, device_id=device_id)

    # Each of these was once a ValidationError mid-generation, from the device
    # or game record or the duration, so `demo --manifest` exited 1 instead of
    # reporting a manifest error.
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("effects_tier", 7, "effects_tier must be in 0..3, got 7"),
            ("texture_tier", -1, "texture_tier must be in 0..3, got -1"),
            ("render_scale", 0.0, "render_scale must be in (0, 1], got 0.0"),
            ("render_scale", 1.5, "render_scale must be in (0, 1], got 1.5"),
            ("render_scale", 2, "render_scale must be in (0, 1], got 2"),
            ("display_ppi", 0, "display_ppi must be positive"),
            ("battery_capacity_mah", 0, "battery_capacity_mah must be positive"),
            ("game_id", "", "game_id must be non-empty"),
            ("session_duration_s", 60, "duration must be >= 120 s, got 60"),
            ("session_duration_s", 1e16, "duration_s must be finite and below 9.22337e+15 s, "
             "got 1e+16"),
        ],
    )
    def test_model_settings_must_be_in_range(self, reference_model, field, value, message):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            if field == "session_duration_s":
                generate_session(reference_model, value)
            else:
                replace(reference_model, **{field: value})
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            load_manifest(manifest_bytes({field: value}))

    # Each passes the model's checks but overflows while generating; the
    # session's row check, the parser's, must still refuse the non-finite values.
    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"touch_latency_ms": 1.7e308}, "touch[0][1]: expected finite number"),
            ({"temp_start_c": -1e308, "temp_peak_c": 1e308},
             "temperature[0][1]: expected finite number"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_generated_overflow_is_refused(self, reference_model, overrides, message):
        model = replace(reference_model, **overrides)
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            generate_session(model, 120)

    def test_model_carries_the_records_its_sessions_take(self, reference_model):
        session = generate_session(reference_model, 120)
        assert session.device is reference_model.device
        assert session.settings is reference_model.settings
        assert reference_model.device == telemetry.DeviceMeta("ref_device", display_ppi=500.0)
        assert reference_model.settings == telemetry.GameSettings("demo_game", 1.0, 3, 3, 3, 3)


class TestManifest:
    def test_default_demo_manifest(self):
        corpus = default_demo_manifest()
        assert len(corpus) == 9
        assert all(d.sessions == 3 for d in corpus)
        ids = [d.model.device_id for d in corpus]
        assert ids == sorted(ids)
        a = next(d.model for d in corpus if d.model.device_id == "device_a")
        b = next(d.model for d in corpus if d.model.device_id == "device_b")
        assert replace(a, device_id="x") == replace(b, device_id="x")

    def test_generate_corpus_counts_and_seeds(self):
        corpus = default_demo_manifest()[:2]
        generated = generate_corpus(corpus)
        assert set(generated) == {"device_a", "device_b"}
        assert all(len(v) == 3 for v in generated.values())
        # per-session seeds diverge within a device, a/b pairs stay identical
        a_sessions, b_sessions = generated["device_a"], generated["device_b"]
        for sa, sb in zip(a_sessions, b_sessions):
            assert sa.frames == sb.frames
            assert sa.touch == sb.touch

    def test_manifest_schema_errors(self):
        with pytest.raises(SchemaError, match="schema_version"):
            load_manifest(b'{"schema_version": 9, "devices": []}')
        with pytest.raises(SchemaError, match="devices"):
            load_manifest(b'{"schema_version": 1, "devices": []}')
        with pytest.raises(SchemaError, match="seed"):
            load_manifest(
                b'{"schema_version": 1, "devices": [{"sessions": 1, '
                b'"session_duration_s": 300, "model": {"device_id": "x", '
                b'"base_frame_time_ms": 16.0, "drain_rate_pct_per_hour": 10, '
                b'"temp_start_c": 25, "temp_peak_c": 30, "touch_latency_ms": 50, '
                b'"launch_s": 5}}]}'
            )
        with pytest.raises(SchemaError, match="unknown"):
            load_manifest(
                b'{"schema_version": 1, "devices": [{"sessions": 1, '
                b'"session_duration_s": 300, "model": {"device_id": "x", '
                b'"base_frame_time_ms": 16.0, "drain_rate_pct_per_hour": 10, '
                b'"temp_start_c": 25, "temp_peak_c": 30, "touch_latency_ms": 50, '
                b'"launch_s": 5, "seed": 1, "bogus": 2}}]}'
            )


class TestManifestRejections:
    def test_reference_manifest_loads(self):
        (device,) = load_manifest(manifest_bytes({}))
        assert device.model.device_id == "x"

    @pytest.mark.parametrize(
        "overrides,match",
        [
            (
                {"touch_latency_ms": math.nan},
                r"devices\[0\]\.model\.touch_latency_ms: expected finite number",
            ),
            (
                {"base_frame_time_ms": math.nan},
                r"devices\[0\]\.model\.base_frame_time_ms: expected finite number",
            ),
            (
                {"session_duration_s": math.inf},
                r"devices\[0\]\.session_duration_s: expected finite number",
            ),
        ],
    )
    def test_non_finite_numbers(self, overrides, match):
        with pytest.raises((ModelError, SchemaError), match=match):
            load_manifest(manifest_bytes(overrides))

    def test_zero_sessions(self):
        data = manifest_bytes({}).replace(b'"sessions": 1', b'"sessions": 0')
        message = r"^devices\[0\]\.sessions: expected positive integer$"
        with pytest.raises(SchemaError, match=message):
            load_manifest(data)

    def test_deep_nesting_is_malformed(self):
        with pytest.raises(SchemaError, match="malformed manifest"):
            load_manifest(b"[" * 100_000)

    def test_overlong_integer_literal_is_malformed(self):
        data = manifest_bytes({}).replace(b'"seed": 1', b'"seed": ' + b"9" * 5000)
        with pytest.raises(SchemaError, match="malformed manifest"):
            load_manifest(data)

    def test_duplicate_device_ids(self):
        data = manifest_bytes({"device_id": "a"}, {"device_id": "b"}, {"device_id": "a"})
        with pytest.raises(
            SchemaError, match=r"devices\[2\]\.model\.device_id: 'a' already used by devices\[0\]"
        ):
            load_manifest(data)
