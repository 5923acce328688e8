"""Tests of the benchmark itself: inputs, reference checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import gc
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_S, SpeedScale, probe  # noqa: E402
from run import Prober, cold_start_probe  # noqa: E402
from worker import call_main  # noqa: E402

LAYERS = ("config", "telemetry", "metrics", "scoring", "indices", "report", "synth")

# Spans that the CLI itself calls; every other span runs inside one of them.
ROOT_SPANS = (
    "config.default_config",
    "config.load_config_file",
    "telemetry.validate_comparability",
    "synth.default_demo_manifest",
    "synth.load_manifest",
    "synth.generate_corpus",
    "report.serialize_session",
    "telemetry.parse_session",
    "indices.score_device",
    "report.rank_devices",
    "report.emit_report",
    "report.emit_plot_data",
)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Prepared workloads, built once per (name, seed) for this module."""
    cache = {}

    def get(name: str, seed: int) -> workloads.Prepared:
        if (name, seed) not in cache:
            base = tmp_path_factory.mktemp(f"{name}-{seed}")
            cache[name, seed] = workloads.prepare(
                name, seed, base / "inputs", base / "out", ROOT / "tests" / "goldens"
            )
        return cache[name, seed]

    return get


def traced_call(p: workloads.Prepared) -> tuple[dict, dict, tracing.Tracer]:
    tracer = tracing.Tracer()
    with tracer.run(1):
        outcome = call_main(p.argv, p.out_dir)
    return outcome, tracer.summary(1, outcome["seconds"]), tracer


def test_every_wrapped_name_resolves_and_is_restored():
    import gpindex.cli
    import gpindex.indices

    before = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    with tracer.run(0):
        assert tracer.missing == []
        assert all(getattr(sys.modules[m], a) is not before[m, a] for m, a, _ in tracing.WRAPPED)
    assert all(getattr(sys.modules[m], a) is before[m, a] for m, a, _ in tracing.WRAPPED)
    assert gpindex.cli.parse_session.__module__ == "gpindex.telemetry"
    assert gpindex.indices.extract_metrics.__module__ == "gpindex.metrics"
    for module, attr, span in tracing.WRAPPED:  # a span is named after its defining layer
        assert getattr(sys.modules[module], attr).__module__ == "gpindex." + span.split(".")[0]


def test_every_layer_function_the_cli_imports_is_wrapped():
    """Otherwise that function's time would be counted as cli.self_s."""
    import gpindex.cli

    imported = {
        name
        for name, obj in vars(gpindex.cli).items()
        if inspect.isfunction(obj) and obj.__module__ in {f"gpindex.{m}" for m in LAYERS}
    }
    wrapped = {attr for module, attr, _ in tracing.WRAPPED if module == "gpindex.cli"}
    assert "parse_session" in imported
    assert imported <= wrapped


def test_missing_name_is_listed_and_tracing_carries_on(monkeypatch):
    wrapped = tracing.WRAPPED + (("gpindex.cli", "no_such_function", "cli.no_such_function"),)
    monkeypatch.setattr(tracing, "WRAPPED", wrapped)
    tracer = tracing.Tracer()
    with tracer.run(0):
        assert tracer.missing == ["gpindex.cli.no_such_function"]
        from gpindex.cli import parse_session

        assert hasattr(parse_session, "__wrapped__")
    assert tracer.summary(0, 0.0)["trace.missing"] == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, prepared, tmp_path):
    again = workloads.prepare(
        name, 3, tmp_path / "inputs", tmp_path / "out", ROOT / "tests" / "goldens"
    )
    assert again.inputs_sha256 == prepared(name, 3).inputs_sha256
    assert again.inputs_sha256 != prepared(name, 4).inputs_sha256


def test_seeds_keep_the_amount_of_work():
    timing = ("base_frame_time_ms", "frame_jitter_sd_ms", "throttle_onset_s", "throttle_factor")

    def frame_times(seed):
        doc = json.loads(workloads.demo_manifest(seed))
        return sorted(
            (d["sessions"], d["session_duration_s"], *(d["model"].get(k, 0) for k in timing))
            for d in doc["devices"]
        )

    assert frame_times(1) == frame_times(2) == frame_times(workloads.DEFAULT_SEED)


@pytest.mark.parametrize("name", ["compare_demo", "demo_generate"])
def test_default_seed_reference_matches_goldens(name, prepared):
    p = prepared(name, workloads.DEFAULT_SEED)
    assert p.setup_problems == []
    if name == "demo_generate":
        manifest = (Path(p.argv[p.argv.index("--manifest") + 1])).read_bytes()
        shipped = (ROOT / "src" / "gpindex" / "data" / "demo_manifest.json").read_bytes()
        assert manifest == shipped


def test_tracing_keeps_reports_identical(prepared):
    p = prepared("compare_demo", workloads.DEFAULT_SEED)
    plain = call_main(p.argv, p.out_dir)
    traced, summary, tracer = traced_call(p)
    assert plain["files"] == traced["files"]
    assert p.check(plain) == (0, [])
    assert p.check(traced) == (0, [])
    assert summary["telemetry.parse_session.calls"] == 27
    assert summary["metrics.extract_metrics.calls"] == 54
    assert summary["metrics.extract_per_session"] == 2.0
    assert summary["trace.missing"] == 0
    roots = {s[3] for s in tracer.spans if s is not None and s[2] < 0}
    assert roots <= set(ROOT_SPANS)


def test_persona_sweep_extracts_eight_times_per_session(prepared):
    p = prepared("persona_sweep", 1)
    outcome, summary, _ = traced_call(p)
    assert p.check(outcome) == (0, [])
    assert summary["metrics.extract_per_session"] == 8.0
    assert summary["metrics.extract_metrics.calls"] == 216
    assert summary["indices.score_main_index.calls"] == 1296
    assert summary["scoring.map_metric.calls"] == 1944


def test_demo_generate_counts_generation_and_serialization(prepared):
    p = prepared("demo_generate", 1)
    outcome, summary, _ = traced_call(p)
    assert p.check(outcome) == (0, [])
    assert summary["synth.load_manifest.calls"] == 1
    assert summary["synth.sessions_generated"] == 27
    assert summary["report.serialize_session.calls"] == 27
    assert summary["report.bytes_out"] > 0
    assert summary["synth.frames_generated"] == summary["telemetry.frames_in"]


def test_validate_mixed_outcomes_follow_their_labels(prepared):
    p = prepared("validate_mixed", 1)
    assert p.setup_problems == [] and p.misjudged == set()
    outcome, summary, _ = traced_call(p)
    assert p.check(outcome) == (0, [])
    assert outcome["code"] == 1
    assert summary["telemetry.parse_session.calls"] == 20
    assert summary["telemetry.rejected.SessionSyntaxError"] == 2
    assert summary["telemetry.rejected.SchemaError"] == 2
    assert summary["telemetry.rejected.ValidationError"] == 4
    assert summary["metrics.extract_metrics.calls"] == 0
    assert "]: expected integer" in outcome["stderr"]


def test_checks_catch_wrong_outputs(prepared):
    p = prepared("compare_demo", workloads.DEFAULT_SEED)
    good = call_main(p.argv, p.out_dir)
    report = next(iter(good["files"]))
    bad = dict(good, files={**good["files"], report: "0" * 64})
    failed, problems = p.check(bad)
    assert failed == p.attempted_per_run and problems
    assert p.check(dict(good, code=1))[0] == p.attempted_per_run

    v = prepared("validate_mixed", 1)
    outcome = call_main(v.argv, None)
    rejected = next(path for path, label in v.labels.items() if label is not None)
    dropped = "\n".join(line for line in outcome["stderr"].splitlines() if not line.startswith(rejected))
    assert v.check(dict(outcome, stderr=dropped))[0] == 1


def test_speed_scale_uses_the_probes_around_each_sample():
    probes = iter([99.0, 0.02, 0.01, 0.03, 0.05, 0.07])  # the first probe is discarded
    speed = SpeedScale(lambda: next(probes))
    assert speed.scale(2.0) == pytest.approx(2.0 * REFERENCE_S / 0.015)
    speed.read_before()  # other work ran since: 0.01 is no longer "before"
    assert speed.scale(1.0) == pytest.approx(1.0 * REFERENCE_S / 0.04)
    assert speed.scale(1.0) == pytest.approx(1.0 * REFERENCE_S / 0.06)
    assert speed.probes == [0.02, 0.01, 0.03, 0.05, 0.07]
    assert SpeedScale(lambda: 0.5, reference_s=1.0).scale(2.0) == pytest.approx(4.0)


def test_probe_is_not_moved_by_a_large_heap():
    """The probe triggers no collection, however many objects are alive."""
    retained = [[i] for i in range(300_000)]  # gc-tracked, as a program's heap would be
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        probe()
    finally:
        gc.callbacks.remove(on_gc)
    assert starts == [2]  # only the full collection before the timed part
    assert len(retained) == 300_000


def test_probes_run_in_processes_of_their_own(tmp_path):
    prober = Prober(tmp_path)
    try:
        readings = [prober.probe() for _ in range(3)]
    finally:
        prober.close()
    assert all(0 < r < 1 for r in readings)
    assert 0 < cold_start_probe(tmp_path) < 30


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare_demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate_mixed", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
