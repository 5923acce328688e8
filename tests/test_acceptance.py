"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure marks the criterion red.
"""

import contextlib
import io
import json
import math
import random
import statistics
import time
from collections import Counter
from pathlib import Path

import pytest

from gpindex.cli import main
from gpindex.config import default_config
from gpindex.indices import (
    INDEX_METRICS,
    IndexProfile,
    MainIndex,
    MeasuredSession,
    score_device,
    weigh,
)
from gpindex.jsondoc import replace
from gpindex.metrics import METRIC_IDS, compute_fps_metrics, extract_metrics
from gpindex.scoring import MappingCurve, SubIndexScore, map_metric
from gpindex.synth import DeviceModel, generate_session
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


def report(line):
    print(f"\nPASS: {line}")


# --- randomized input builders (plain random.Random for speed) -----------


def random_session(rng: random.Random) -> SessionTelemetry:
    start = rng.randrange(0, 1000)
    frames = [start]
    for _ in range(rng.randrange(2, 80)):
        frames.append(frames[-1] + rng.randrange(0, 60))
    if frames[-1] == frames[0]:
        frames[-1] += 1

    t0 = rng.randrange(0, 1000)
    battery = []
    level = rng.uniform(60.0, 100.0)
    for k in range(rng.randrange(2, 6)):
        battery.append(BatterySample(t0 + k * 90_000, level))
        level = max(0.0, level - rng.uniform(0.0, 2.0))

    temperature = tuple(
        TempSample(k * 10_000, rng.uniform(20.0, 50.0), rng.choice(["soc", "gpu"]))
        for k in range(rng.randrange(1, 5))
    )
    touch = tuple(
        TouchEvent(k * 2_000, rng.uniform(5.0, 200.0))
        for k in range(rng.randrange(0, 6))
    )
    scene_loads = tuple(
        SceneLoad(k * 20_000, k * 20_000 + rng.randrange(0, 10_000))
        for k in range(rng.randrange(0, 3))
    )
    launch = LaunchEvent(0, rng.randrange(0, 20_000)) if rng.random() < 0.7 else None
    return SessionTelemetry(
        schema_version=1,
        device=DeviceMeta(
            device_id="bounds_device",
            display_ppi=rng.choice([None, rng.uniform(200.0, 650.0)]),
        ),
        settings=GameSettings(
            game_id="g",
            render_scale=rng.uniform(0.1, 1.0),
            texture_tier=rng.randrange(4),
            effects_tier=rng.randrange(4),
            aa_tier=rng.randrange(4),
            dynamic_range_tier=rng.randrange(4),
        ),
        frames=tuple(frames),
        battery=tuple(battery),
        temperature=temperature,
        touch=touch,
        scene_loads=scene_loads,
        launch=launch,
    )


def random_curve(rng: random.Random, metric_id: str) -> MappingCurve:
    n = rng.randrange(2, 6)
    value = rng.uniform(-50.0, 200.0)
    values = []
    for _ in range(n):
        values.append(value)
        value += rng.uniform(0.5, 100.0)
    scores = sorted(rng.uniform(0.0, 100.0) for _ in range(n))
    if rng.random() < 0.5:
        scores = scores[::-1]
    return MappingCurve(metric_id, tuple(zip(values, scores)))


def random_curves(rng: random.Random) -> dict:
    return {m: random_curve(rng, m) for m in METRIC_IDS}


def random_profile(rng: random.Random) -> IndexProfile:
    main = {index: float(rng.randrange(0, 10)) for index in MainIndex}
    if not any(main.values()):
        main[MainIndex.BATTERY] = 1.0
    subs = {
        index: {m: float(rng.randrange(1, 10)) for m in INDEX_METRICS[index]}
        for index in MainIndex
    }
    return IndexProfile("rand", main, subs)


def measured_session(scores: dict[str, float]) -> MeasuredSession:
    """A measured session with these sub-scores (metric id -> score)."""
    return MeasuredSession("d", tuple(SubIndexScore(m, 0.0, s) for m, s in scores.items()))


# --- criteria -------------------------------------------------------------


def test_bounds_suite():
    rng = random.Random(0xB0B5)
    violations = 0
    for _ in range(1000):
        card = score_device(
            [random_session(rng)], random_profile(rng), random_curves(rng)
        )
        scored = card.sessions[0]
        values = [card.median_overall, scored.overall]
        values += [s.score for s in scored.sub_scores]
        values += [v for v in scored.main_scores.values() if v is not None]
        values += [v for v in card.median_main.values() if v is not None]
        violations += sum(1 for v in values if not 0.0 <= v <= 100.0)
    assert violations == 0
    report("bounds suite: 1000 randomized sessions/curves/profiles, all scores in [0, 100]")


def test_monotonicity_suite():
    rng = random.Random(0x5EED)
    for _ in range(200):
        n = rng.randrange(2, 7)
        value = rng.uniform(-100.0, 100.0)
        values = []
        for _ in range(n):
            values.append(value)
            value += rng.uniform(0.25, 80.0)
        scores = sorted(rng.uniform(0.0, 100.0) for _ in range(n))
        curve = MappingCurve("avg_fps", tuple(zip(values, scores)))
        lo, hi = values[0] - 100.0, values[-1] + 100.0
        for _ in range(1000):
            v1, v2 = rng.uniform(lo, hi), rng.uniform(lo, hi)
            if v1 > v2:
                v1, v2 = v2, v1
            assert map_metric(v1, curve).score <= map_metric(v2, curve).score
        for bp_value, bp_score in curve.breakpoints:
            assert map_metric(bp_value, curve).score == bp_score
    report("monotonicity suite: 200 increasing curves x 1000 pairs, no inversions; breakpoints exact")


def test_oracle_equivalence():
    rng = random.Random(0x07AC)
    battery_only = IndexProfile("only_battery", {MainIndex.BATTERY: 1.0}, {})
    for n in range(1, 201):
        deltas = [rng.randrange(1, 400) for _ in range(n)]
        _, low1, _ = compute_fps_metrics(Counter(deltas))
        inst = sorted(1000.0 / d for d in deltas)
        rank = max(1, math.ceil(0.01 * len(inst)))
        assert low1 == inst[rank - 1]

        values = [rng.uniform(0.0, 100.0) for _ in range(n)]
        ordered = sorted(values)
        expected = (
            ordered[n // 2]
            if n % 2 == 1
            else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
        )
        # under battery_only each session's overall is its one sub-score
        sessions = [measured_session({"drain_pct_per_hour": v}) for v in values]
        assert weigh(sessions, [battery_only])[0].median_overall == expected

    for _ in range(300):
        index = MainIndex.VISUAL_SMOOTHNESS
        metrics = list(INDEX_METRICS[index])
        sub_profile = IndexProfile(
            "p", {index: 1.0}, {index: {m: rng.uniform(0.1, 5.0) for m in metrics}}
        )
        weights = sub_profile.sub_weights[index]
        scores = {m: rng.uniform(0.0, 100.0) for m in metrics}
        (card,) = weigh([measured_session(scores)], [sub_profile])
        got = card.sessions[0].main_scores[index]
        expected = sum(weights[m] * scores[m] for m in metrics) / sum(weights.values())
        assert got == pytest.approx(expected, abs=1e-9)

        # every metric of an index scores that index's score, so each main index has it
        profile = random_profile(rng)
        mains = {index: rng.uniform(0.0, 100.0) for index in MainIndex}
        scores = {m: mains[i] for i in MainIndex for m in INDEX_METRICS[i]}
        (card,) = weigh([measured_session(scores)], [profile])
        got_overall = card.sessions[0].overall
        w = profile.main_weights
        expected_overall = sum(w[i] * mains[i] for i in MainIndex) / sum(w.values())
        assert got_overall == pytest.approx(expected_overall, abs=1e-9)
    report("oracle equivalence: percentile/median match full-sort oracles (n=1..200); weighted means match dot products to 1e-9")


def test_recoverability():
    model = DeviceModel(
        device_id="truth",
        base_frame_time_ms=1000.0 / 60.0,
        drain_rate_pct_per_hour=20.0,
        temp_start_c=28.0,
        temp_peak_c=40.0,
        touch_latency_ms=55.0,
        launch_s=8.2,
        seed=424242,
    )
    ms = extract_metrics(generate_session(model, 600))
    assert ms.avg_fps == pytest.approx(60.0, abs=0.1)
    assert ms.drain_pct_per_hour == pytest.approx(20.0, abs=0.1)
    assert ms.launch_s == pytest.approx(8.2, abs=0.01)
    assert ms.touch_latency_ms == pytest.approx(55.0, abs=0.5)
    report("recoverability: 60 fps / 20 %/h / 8.2 s / 55 ms recovered within tolerances")


def test_persona_discrimination(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out)]) == 0
    competitive = json.loads((out / "report_competitive.json").read_text())
    casual = json.loads((out / "report_casual.json").read_text())
    elapsed = time.perf_counter() - t0

    comp_ranks = {r["device_id"]: r["rank"] for r in competitive["rows"]}
    comp_display = {r["device_id"]: r["overall_display"] for r in competitive["rows"]}
    casual_ranks = {r["device_id"]: r["rank"] for r in casual["rows"]}

    assert comp_ranks["device_a"] < comp_ranks["device_c"]
    assert comp_ranks["device_b"] < comp_ranks["device_c"]
    assert casual_ranks["device_c"] == 1
    # the constructed display tie renders as equal ranks
    assert comp_display["device_a"] == comp_display["device_b"]
    assert comp_ranks["device_a"] == comp_ranks["device_b"]
    assert elapsed < 10.0
    report(
        f"persona discrimination: a/b tie ahead of c competitively, c first casually ({elapsed:.1f} s < 10 s)"
    )


def test_determinism(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    assert main(["demo", "--out", str(first)]) == 0
    assert main(["demo", "--out", str(second)]) == 0
    tree1 = {p.relative_to(first): p.read_bytes() for p in sorted(first.rglob("*")) if p.is_file()}
    tree2 = {p.relative_to(second): p.read_bytes() for p in sorted(second.rglob("*")) if p.is_file()}
    assert tree1 == tree2

    device_dirs = sorted(str(p) for p in (first / "sessions").iterdir())
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["score", "--profile", "competitive", "--out", str(r1), *device_dirs]) == 0
    assert main(["score", "--profile", "competitive", "--out", str(r2), *device_dirs]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report("determinism: demo trees and repeated score runs byte-identical")


def test_weight_scaling_invariance(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out)]) == 0
    device_dirs = sorted(str(p) for p in (out / "sessions").iterdir())

    from importlib.resources import files

    base_doc = json.loads(files("gpindex.data").joinpath("default_config.json").read_text())
    baselines = {}
    for profile in ("competitive", "casual"):
        target = tmp_path / f"base_{profile}.json"
        assert main(
            ["score", "--profile", profile, "--out", str(target), *device_dirs]
        ) == 0
        baselines[profile] = target.read_bytes()

    for c in (0.1, 3, 1000):
        doc = json.loads(json.dumps(base_doc))
        for body in doc["profiles"].values():
            body["main_weights"] = {k: w * c for k, w in body["main_weights"].items()}
        cfg_path = tmp_path / f"scaled_{c}.json"
        cfg_path.write_text(json.dumps(doc))
        for profile in ("competitive", "casual"):
            target = tmp_path / f"scaled_{c}_{profile}.json"
            assert main(
                [
                    "score",
                    "--config",
                    str(cfg_path),
                    "--profile",
                    profile,
                    "--out",
                    str(target),
                    *device_dirs,
                ]
            ) == 0
            assert target.read_bytes() == baselines[profile], f"c={c} {profile}"
    report("weight-scaling invariance: c in {0.1, 3, 1000} leaves reports byte-identical")


def test_throughput():
    base = DeviceModel(
        device_id="fleet",
        base_frame_time_ms=1000.0 / 60.0,
        drain_rate_pct_per_hour=15.0,
        temp_start_c=28.0,
        temp_peak_c=41.0,
        touch_latency_ms=40.0,
        launch_s=6.0,
        seed=0,
    )
    # ten distinct 10-minute sessions tiled to 100: the timed path still
    # processes 100 x 36 000 = 3.6 M frame timestamps
    distinct = [
        generate_session(replace(base, seed=i), 600) for i in range(10)
    ]
    sessions = distinct * 10
    total_frames = sum(len(s.frames) for s in sessions)
    assert total_frames >= 3_600_000

    cfg = default_config()
    profile = cfg.profiles["competitive"]
    t0 = time.perf_counter()
    card = score_device(sessions, profile, cfg.curves)
    elapsed = time.perf_counter() - t0
    assert 0.0 <= card.median_overall <= 100.0
    assert elapsed < 2.0
    report(
        f"throughput: {len(sessions)} ten-minute sessions ({total_frames:,} timestamps) scored in {elapsed:.2f} s < 2 s"
    )


def test_end_to_end_compare(tmp_path):
    """`gpindex compare` in-process on the demo corpus files, from bytes to reports."""
    demo = tmp_path / "demo"
    assert main(["demo", "--out", str(demo)]) == 0
    device_dirs = sorted(str(p) for p in (demo / "sessions").iterdir())
    goldens = Path(__file__).parent / "goldens"
    times = []
    for k in range(3):
        out = tmp_path / f"compare_{k}"
        t0 = time.perf_counter()
        assert main(["compare", "--out", str(out), *device_dirs]) == 0
        times.append(time.perf_counter() - t0)
        for name in ("report_competitive.json", "report_casual.json", "plot_data.csv"):
            assert (out / name).read_bytes() == (goldens / f"demo_{name}").read_bytes()
    elapsed = statistics.median(times)
    assert elapsed < 2.0
    report(f"end to end: compare on the 27-session demo corpus in {elapsed:.2f} s < 2 s (median of 3)")


def test_end_to_end_validate(tmp_path):
    """`gpindex validate` in-process on the 27 demo corpus files."""
    demo = tmp_path / "demo"
    assert main(["demo", "--out", str(demo)]) == 0
    files = sorted(str(p) for p in (demo / "sessions").glob("*/*.json"))
    times = []
    for _ in range(3):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            assert main(["validate", *files]) == 0
        times.append(time.perf_counter() - t0)
        assert out.getvalue() == "27 valid\n"
    elapsed = statistics.median(times)
    assert elapsed < 2.0
    report(f"end to end: validate on the 27 demo corpus files in {elapsed:.2f} s < 2 s (median of 3)")


def _late_fault(path: Path, k: int) -> tuple[str, str | None]:
    """Write a late-fault copy of a session file; return its path and diagnostic (None: valid).

    In turn a float frame, a swapped pair of frames, or a 300 ms frame
    (a valid session), a few frames from the end of the stream.
    """
    doc = json.loads(path.read_bytes())
    frames = doc["events"]["frames"]
    n = len(frames) - 5 - k
    kind = k % 3
    if kind == 0:
        frames[n] += 0.5
        message = f"events.frames[{n}]: expected integer, got float"
    elif kind == 1:
        while frames[n] >= frames[n + 1]:
            n -= 1
        frames[n], frames[n + 1] = frames[n + 1], frames[n]
        message = f"frames not non-decreasing at t={frames[n + 1]}ms"
    else:
        frames[n:] = [t + 300 - (frames[n] - frames[n - 1]) for t in frames[n:]]
        message = None
    copy = path.with_name(f"{path.stem}_late.json")
    copy.write_text(json.dumps(doc, separators=(",", ":")))
    return str(copy), message


def test_end_to_end_validate_rejections(tmp_path):
    """`gpindex validate` in-process on the 27 demo files and a late-fault copy of each."""
    demo = tmp_path / "demo"
    assert main(["demo", "--out", str(demo)]) == 0
    files, diagnostics = [], []
    for k, path in enumerate(sorted((demo / "sessions").glob("*/*.json"))):
        copy, message = _late_fault(path, k)
        files += [str(path), copy]
        if message is not None:
            diagnostics.append(f"{copy}: {message}\n")
    valid = len(files) - len(diagnostics)
    times = []
    for _ in range(3):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["validate", *files]) == 1
        times.append(time.perf_counter() - t0)
        assert out.getvalue() == f"{valid} valid\n"
        assert err.getvalue() == "".join(diagnostics)
    elapsed = statistics.median(times)
    assert elapsed < 2.0
    report(
        f"end to end: validate on {len(files)} demo files, {len(diagnostics)} with a late fault, "
        f"in {elapsed:.2f} s < 2 s (median of 3)"
    )


def test_end_to_end_demo(tmp_path):
    """`gpindex demo` in-process: generate, write and score the 27-session demo corpus."""
    goldens = Path(__file__).parent / "goldens"
    times = []
    for k in range(3):
        out = tmp_path / f"demo_{k}"
        t0 = time.perf_counter()
        assert main(["demo", "--out", str(out)]) == 0
        times.append(time.perf_counter() - t0)
        for name in ("report_competitive.json", "report_casual.json", "plot_data.csv"):
            assert (out / name).read_bytes() == (goldens / f"demo_{name}").read_bytes()
    elapsed = statistics.median(times)
    assert elapsed < 3.0
    report(f"end to end: demo on the 27-session demo corpus in {elapsed:.2f} s < 3 s (median of 3)")
