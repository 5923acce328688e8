import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpindex.config import load_config
from gpindex.errors import (
    AllIndicesAbsentError,
    CurveError,
    EmptyInputError,
    MixedDevicesError,
    WeightError,
)
from gpindex.indices import (
    INDEX_METRICS,
    METRIC_INDEX,
    IndexProfile,
    MainIndex,
    aggregate_sessions,
    measure,
    score_device,
    score_main_index,
    score_overall,
    weigh,
)
from gpindex.metrics import METRIC_IDS
from gpindex.scoring import MappingCurve
from tests.strategies import config_docs, curve_set, profiles, sessions


def sub_profile(index, weights):
    """A profile weighing only ``index``, with the given sub-weights."""
    return IndexProfile("p", {index: 1.0}, {index: weights})


class TestScoreMainIndex:
    # Weight-map checks (unknown metric, metric of another index, empty map)
    # happen once, in IndexProfile: see TestIndexProfile.

    def test_even_split(self):
        profile = sub_profile(MainIndex.VISUAL_SMOOTHNESS, {"avg_fps": 0.5, "low1_fps": 0.5})
        score, flags = score_main_index(
            MainIndex.VISUAL_SMOOTHNESS, {"avg_fps": 80.0, "low1_fps": 90.0}, profile
        )
        assert score == 85.0
        assert flags == ()

    def test_absent_metric_renormalizes_with_flag(self):
        profile = sub_profile(MainIndex.VISUAL_SMOOTHNESS, {"avg_fps": 0.6, "low1_fps": 0.4})
        score, flags = score_main_index(MainIndex.VISUAL_SMOOTHNESS, {"avg_fps": 70.0}, profile)
        assert score == 70.0
        assert flags == ("visual_smoothness: missing low1_fps (weights renormalized)",)

    def test_three_way_dot_product(self):
        weights = {"avg_fps": 0.2, "low1_fps": 0.3, "fps_stability": 0.5}
        scores = {"avg_fps": 60.0, "low1_fps": 80.0, "fps_stability": 100.0}
        profile = sub_profile(MainIndex.VISUAL_SMOOTHNESS, weights)
        result, _ = score_main_index(MainIndex.VISUAL_SMOOTHNESS, scores, profile)
        # oracle: explicit dot product
        expected = sum(weights[m] * scores[m] for m in weights) / sum(weights.values())
        assert result == pytest.approx(expected, abs=1e-9)
        assert result == pytest.approx(86.0, abs=1e-9)

    def test_all_absent_returns_none_without_flags(self):
        profile = sub_profile(MainIndex.SWIFTNESS, {"launch_s": 0.7, "scene_load_s": 0.3})
        score, flags = score_main_index(MainIndex.SWIFTNESS, {"avg_fps": 50.0}, profile)
        assert score is None
        assert flags == ()

    def test_measured_metrics_all_zero_weighted_fall_back_to_uniform(self):
        profile = sub_profile(MainIndex.SWIFTNESS, {"launch_s": 0.0, "scene_load_s": 1.0})
        score, flags = score_main_index(MainIndex.SWIFTNESS, {"launch_s": 40.0}, profile)
        assert score == 40.0
        assert flags == (
            "swiftness: missing scene_load_s (weights renormalized)",
            "swiftness: measured metrics all zero-weighted (uniform fallback)",
        )


class TestScoreOverall:
    def test_constant_vector(self, default_cfg):
        mains = {index: 70.0 for index in MainIndex}
        score, flags = score_overall(mains, default_cfg.profiles["competitive"])
        assert score == pytest.approx(70.0, abs=1e-9)
        assert flags == ()

    def test_single_weight_projection(self):
        profile = IndexProfile(
            "only_battery", {MainIndex.BATTERY: 1.0}, {}
        )
        mains = {index: 10.0 for index in MainIndex}
        mains[MainIndex.BATTERY] = 93.0
        score, _ = score_overall(mains, profile)
        assert score == 93.0

    def test_competitive_defaults_match_dot_product(self, default_cfg):
        profile = default_cfg.profiles["competitive"]
        mains = {
            MainIndex.VISUAL_SMOOTHNESS: 96.0,
            MainIndex.GRAPHICAL_QUALITY: 88.0,
            MainIndex.BATTERY: 30.0,
            MainIndex.TEMPERATURE: 55.0,
            MainIndex.SWIFTNESS: 77.0,
            MainIndex.RESPONSIVENESS: 91.0,
        }
        score, _ = score_overall(mains, profile)
        # oracle: spreadsheet-style recomputation from the raw default weights
        raw = {
            MainIndex.VISUAL_SMOOTHNESS: 0.35,
            MainIndex.RESPONSIVENESS: 0.25,
            MainIndex.GRAPHICAL_QUALITY: 0.15,
            MainIndex.TEMPERATURE: 0.10,
            MainIndex.SWIFTNESS: 0.10,
            MainIndex.BATTERY: 0.05,
        }
        expected = sum(raw[i] * mains[i] for i in MainIndex) / sum(raw.values())
        assert score == pytest.approx(expected, abs=1e-9)

    def test_absent_index_renormalizes_with_flag(self, default_cfg):
        profile = default_cfg.profiles["casual"]
        mains = {index: 80.0 for index in MainIndex}
        mains[MainIndex.SWIFTNESS] = None
        score, flags = score_overall(mains, profile)
        assert score == pytest.approx(80.0, abs=1e-9)
        assert any("swiftness" in f for f in flags)

    def test_measured_indices_all_zero_weighted_fall_back_to_uniform(self):
        profile = IndexProfile("only_battery", {MainIndex.BATTERY: 1.0}, {})
        mains = {index: None for index in MainIndex}
        mains[MainIndex.SWIFTNESS], mains[MainIndex.TEMPERATURE] = 30.0, 50.0
        score, flags = score_overall(mains, profile)
        assert score == 40.0
        assert flags == (
            "overall: missing battery (weights renormalized)",
            "overall: measured indices all zero-weighted (uniform fallback)",
        )

    def test_all_absent(self, default_cfg):
        with pytest.raises(AllIndicesAbsentError):
            score_overall({index: None for index in MainIndex}, default_cfg.profiles["casual"])


class TestAggregateSessions:
    def test_odd(self):
        assert aggregate_sessions([80.0, 86.0, 90.0]) == 86.0

    def test_even(self):
        assert aggregate_sessions([80.0, 90.0]) == 85.0

    def test_randomized_against_sort_oracle(self):
        rng = random.Random(31)
        values = [rng.uniform(0, 100) for _ in range(101)]
        ordered = sorted(values)
        assert aggregate_sessions(values) == ordered[50]

    def test_all_lengths_against_oracle(self):
        rng = random.Random(7)
        for n in range(1, 201):
            values = [rng.uniform(0, 100) for _ in range(n)]
            ordered = sorted(values)
            if n % 2 == 1:
                expected = ordered[n // 2]
            else:
                expected = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
            assert aggregate_sessions(values) == expected

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            aggregate_sessions([])


class TestIndexProfile:
    def test_weights_normalize_to_one(self, default_cfg):
        for profile in default_cfg.profiles.values():
            assert abs(sum(profile.main_weights.values()) - 1.0) < 1e-9
            for weights in profile.sub_weights.values():
                assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_negative_weight_rejected(self):
        with pytest.raises(WeightError, match="negative"):
            IndexProfile("bad", {MainIndex.BATTERY: -1.0, MainIndex.SWIFTNESS: 2.0}, {})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_main_weight_rejected(self, weight):
        with pytest.raises(WeightError, match="non-finite weight for MainIndex.BATTERY"):
            IndexProfile("bad", {MainIndex.BATTERY: weight, MainIndex.SWIFTNESS: 1.0}, {})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_sub_weight_rejected(self, weight):
        with pytest.raises(WeightError, match="non-finite weight for low1_fps"):
            IndexProfile(
                "bad",
                {MainIndex.VISUAL_SMOOTHNESS: 1.0},
                {MainIndex.VISUAL_SMOOTHNESS: {"avg_fps": 1.0, "low1_fps": weight}},
            )

    # Built directly, a profile is checked as a config's would be: no
    # ValueError, OverflowError or TypeError escapes from a bad weight.
    @pytest.mark.parametrize("weight,kind", [("x", "non-numeric"), (10**400, "non-finite")])
    def test_unusable_main_weight_rejected(self, weight, kind):
        with pytest.raises(WeightError, match=f"{kind} weight for MainIndex.BATTERY"):
            IndexProfile("bad", {MainIndex.BATTERY: weight, MainIndex.SWIFTNESS: 1.0}, {})

    def test_null_sub_weight_rejected(self):
        with pytest.raises(WeightError, match="non-numeric weight for low1_fps"):
            IndexProfile(
                "bad",
                {MainIndex.VISUAL_SMOOTHNESS: 1.0},
                {MainIndex.VISUAL_SMOOTHNESS: {"avg_fps": 1.0, "low1_fps": None}},
            )

    # Weight maps that are not mappings once escaped as TypeError or AttributeError.
    @pytest.mark.parametrize(
        "main,sub,message",
        [
            (None, {}, "main weights must be a mapping, got NoneType"),
            ({MainIndex.BATTERY: 1.0}, None, "sub weights must be a mapping, got NoneType"),
            (
                {MainIndex.BATTERY: 1.0},
                {MainIndex.BATTERY: [("drain_pct_per_hour", 1.0)]},
                "battery sub weights must be a mapping, got list",
            ),
        ],
        ids=["main_none", "sub_none", "sub_group_list"],
    )
    def test_weight_map_not_a_mapping_rejected(self, main, sub, message):
        with pytest.raises(WeightError, match=f"^profile 'p': {message}$"):
            IndexProfile("p", main, sub)

    def test_weights_summing_past_float_range_rejected(self):
        with pytest.raises(WeightError, match="beyond the float range"):
            IndexProfile("bad", {MainIndex.BATTERY: 1e308, MainIndex.SWIFTNESS: 1e308}, {})

    def test_all_zero_main_weights_rejected(self):
        with pytest.raises(WeightError, match="positive"):
            IndexProfile("bad", {index: 0.0 for index in MainIndex}, {})

    def test_unknown_sub_metric_rejected(self):
        with pytest.raises(WeightError, match="unknown metric"):
            IndexProfile(
                "bad",
                {MainIndex.BATTERY: 1.0},
                {MainIndex.BATTERY: {"drainpcth": 1.0}},
            )

    def test_metric_in_wrong_index_rejected(self):
        with pytest.raises(WeightError, match="does not belong"):
            IndexProfile(
                "bad",
                {MainIndex.BATTERY: 1.0},
                {MainIndex.BATTERY: {"avg_fps": 1.0}},
            )

    def test_missing_sub_weights_default_uniform(self):
        profile = IndexProfile("p", {MainIndex.VISUAL_SMOOTHNESS: 1.0}, {})
        weights = profile.sub_weights[MainIndex.VISUAL_SMOOTHNESS]
        assert set(weights) == set(INDEX_METRICS[MainIndex.VISUAL_SMOOTHNESS])
        assert len(set(weights.values())) == 1

    def test_every_metric_assigned_to_one_index(self):
        assert set(METRIC_INDEX) == set(METRIC_IDS)
        assert sum(len(v) for v in INDEX_METRICS.values()) == len(METRIC_IDS)


def all_hundred_curves():
    return {m: MappingCurve(m, [(0.0, 100.0), (1.0, 100.0)]) for m in METRIC_IDS}


class TestScoreDevice:
    def test_fixed_point_of_maxima(self, reference_session, default_cfg):
        card = score_device(
            [reference_session], default_cfg.profiles["competitive"], all_hundred_curves()
        )
        assert card.median_overall == 100.0
        assert all(
            score == 100.0 for score in card.median_main.values() if score is not None
        )

    def test_three_identical_sessions(self, reference_session, default_cfg):
        profile = default_cfg.profiles["competitive"]
        single = score_device([reference_session], profile, default_cfg.curves)
        triple = score_device([reference_session] * 3, profile, default_cfg.curves)
        assert triple.median_overall == single.median_overall
        assert triple.median_main == single.median_main

    def test_mixed_devices_rejected(self, reference_session, default_cfg):
        other = dataclasses.replace(
            reference_session,
            device=dataclasses.replace(reference_session.device, device_id="other"),
        )
        with pytest.raises(MixedDevicesError):
            score_device(
                [reference_session, other],
                default_cfg.profiles["casual"],
                default_cfg.curves,
            )

    def test_empty_sessions_rejected(self, default_cfg):
        with pytest.raises(EmptyInputError):
            score_device([], default_cfg.profiles["casual"], default_cfg.curves)

    def test_missing_curve_rejected(self, reference_session, default_cfg):
        curves = dict(default_cfg.curves)
        del curves["avg_fps"]
        with pytest.raises(CurveError, match="avg_fps"):
            score_device([reference_session], default_cfg.profiles["casual"], curves)

    def test_deterministic(self, reference_session, default_cfg):
        profile = default_cfg.profiles["competitive"]
        a = score_device([reference_session], profile, default_cfg.curves)
        b = score_device([reference_session], profile, default_cfg.curves)
        assert a == b


class TestPipelineProperties:
    # Every valid session under every valid config scores in [0, 100]; the
    # comparisons are false for NaN and fail for infinities, so every score is finite.
    @settings(max_examples=40, deadline=None)
    @given(sessions(max_intervals=20), config_docs())
    def test_all_scores_bounded(self, session, doc):
        config = load_config(json.dumps(doc).encode())
        for card in weigh([measure(session, config.curves)], list(config.profiles.values())):
            assert 0.0 <= card.median_overall <= 100.0
            for score in card.median_main.values():
                assert score is None or 0.0 <= score <= 100.0
            for scored in card.sessions:
                assert 0.0 <= scored.overall <= 100.0
                for s in scored.sub_scores:
                    assert 0.0 <= s.score <= 100.0

    @settings(max_examples=30, deadline=None)
    @given(
        sessions(max_intervals=20),
        st.lists(st.integers(0, 50), min_size=6, max_size=6),
        curve_set(),
        st.floats(0.001, 1000.0),
    )
    def test_main_weight_scaling_leaves_card_unchanged(self, session, raw_weights, curves, c):
        if not any(raw_weights):
            raw_weights[0] = 1
        raw = dict(zip(MainIndex, map(float, raw_weights)))
        plain = IndexProfile("p", raw, {})
        scaled = IndexProfile("p", {i: w * c for i, w in raw.items()}, {})
        assert scaled.main_weights == plain.main_weights
        assert score_device([session], plain, curves) == score_device(
            [session], scaled, curves
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(sessions(max_intervals=20), min_size=1, max_size=3),
        st.lists(profiles(), min_size=2, max_size=4),
        st.sets(st.sampled_from(["touch", "scene_loads", "launch"])),
        curve_set(),
    )
    def test_profile_card_same_alone_or_with_others(self, drawn, together, dropped, curves):
        # Dropped streams leave whole indices unmeasured, so the profiles'
        # flags differ and a flag leaking from one profile to the next shows.
        absent = {name: None if name == "launch" else () for name in dropped}
        group = [dataclasses.replace(s, device=drawn[0].device, **absent) for s in drawn]
        cards = weigh([measure(s, curves) for s in group], together)
        assert cards == [score_device(group, profile, curves) for profile in together]

    @settings(max_examples=60, deadline=None)
    @given(
        profiles(),
        st.dictionaries(
            st.sampled_from(METRIC_IDS), st.floats(0.0, 90.0), min_size=1, max_size=10
        ),
        st.floats(0.0, 10.0),
    )
    def test_pointwise_dominance(self, profile, base_scores, delta):
        def overall(values):
            mains = {index: score_main_index(index, values, profile)[0] for index in MainIndex}
            return score_overall(mains, profile)[0]

        better = {m: min(100.0, s + delta) for m, s in base_scores.items()}
        assert overall(better) >= overall(base_scores)
