import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import gpindex.cli
import gpindex.indices
from gpindex.cli import main
from gpindex.errors import EngineError
from gpindex.report import serialize_session
from gpindex.synth import DeviceModel, default_demo_manifest, generate_session, load_manifest
from tests.strategies import manifest_bytes, one_field_mutations, sessions

GOLDEN_DIR = Path(__file__).parent / "goldens"

HOSTILE_MANIFESTS = {
    "deep_nesting": b"[" * 100_000,
    "long_integer": manifest_bytes({}).replace(b'"seed": 1', b'"seed": ' + b"9" * 5000),
    "nan_latency": manifest_bytes({"touch_latency_ms": math.nan}),
    "inf_duration": manifest_bytes({"session_duration_s": math.inf}),
    "duplicate_id": manifest_bytes({}, {}),
    # Once wrote the device's sessions outside the output directory.
    "traversing_id": manifest_bytes({"device_id": "../escaped"}),
}


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "out"
    assert main(["demo", "--out", str(out)]) == 0
    return out


def write_sessions(directory, sessions):
    directory.mkdir(parents=True, exist_ok=True)
    for i, session in enumerate(sessions):
        (directory / f"session_{i:02d}.json").write_bytes(serialize_session(session))
    return directory


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    src = Path(gpindex.cli.__file__).parents[1]
    code = (
        "import gpindex, sys; print(sorted(m for m in sys.modules"
        " if m.startswith('gpindex.') or m.split('.')[0] == 'numpy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_only_demo_loads_numpy(short_corpus, tmp_path):
    dirs = [str(write_sessions(tmp_path / name, s)) for name, s in sorted(short_corpus.items())]
    files = sorted(str(p) for d in dirs for p in Path(d).glob("*.json"))
    runs = [
        ["validate", *files],
        ["score", "--profile", "casual", "--out", str(tmp_path / "casual.json"), *dirs],
        ["compare", "--out", str(tmp_path / "cmp"), *dirs],
        ["demo", "--out", str(tmp_path / "demo")],
    ]
    # Each command's exit code and whether numpy was loaded after it, as the last line.
    code = (
        "import json, sys\n"
        "from gpindex.cli import main\n"
        "outcomes = [(main(argv), 'numpy' in sys.modules) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(outcomes))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True,
    )
    outcomes = json.loads(result.stdout.splitlines()[-1])
    assert outcomes == [[0, False], [0, False], [0, False], [0, True]]
    for name in ("report_competitive.json", "report_casual.json", "plot_data.csv"):
        assert (tmp_path / "demo" / name).read_bytes() == (GOLDEN_DIR / f"demo_{name}").read_bytes()


class TestValidate:
    def test_valid_files(self, tmp_path, reference_session, capsys):
        d = write_sessions(tmp_path, [reference_session] * 3)
        files = sorted(str(p) for p in d.glob("*.json"))
        assert main(["validate", *files]) == 0
        assert "3 valid" in capsys.readouterr().out

    def test_charging_session_diagnosed(self, tmp_path, reference_session, capsys):
        good = tmp_path / "good.json"
        good.write_bytes(serialize_session(reference_session))
        bad = tmp_path / "charging.json"
        doc = json.loads(serialize_session(reference_session))
        doc["events"]["battery"] = [[0, 50.0], [120000, 75.0]]
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "1 valid" in captured.out
        assert "charging.json" in captured.err
        assert "battery increased" in captured.err

    def test_missing_file_diagnosed(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_no_files_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_comparability_flagging(self, tmp_path, reference_session, capsys):
        import dataclasses

        other = dataclasses.replace(
            reference_session,
            settings=dataclasses.replace(reference_session.settings, texture_tier=0),
        )
        d = write_sessions(tmp_path, [reference_session, reference_session, other])
        files = sorted(str(p) for p in d.glob("*.json"))
        assert main(["validate", "--comparability", *files]) == 0
        assert "texture_tier" in capsys.readouterr().err


class TestScore:
    def test_demo_corpus_matches_golden(self, demo_dir, tmp_path):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        out = tmp_path / "report.json"
        assert (
            main(
                ["score", "--profile", "competitive", "--out", str(out), *device_dirs]
            )
            == 0
        )
        assert out.read_bytes() == (GOLDEN_DIR / "demo_report_competitive.json").read_bytes()

    def test_stdout_and_determinism(self, demo_dir, capsysbinary):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        argv = ["score", "--profile", "casual", "--format", "csv", *device_dirs]
        assert main(argv) == 0
        first = capsysbinary.readouterr().out
        assert main(argv) == 0
        second = capsysbinary.readouterr().out
        assert first == second
        assert first.decode().splitlines()[0].startswith("device_id,profile,rank")

    def test_unknown_profile(self, demo_dir, capsys):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        assert main(["score", "--profile", "esports", *device_dirs]) == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_bad_config(self, demo_dir, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{")
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        assert (
            main(["score", "--config", str(cfg), "--profile", "casual", *device_dirs]) == 2
        )
        assert "config error" in capsys.readouterr().err

    def test_empty_device_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty_device"
        empty.mkdir()
        assert main(["score", "--profile", "casual", str(empty)]) == 1
        assert "no session files" in capsys.readouterr().err

    def test_invalid_session_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "device"
        d.mkdir()
        (d / "bad.json").write_text("{}")
        assert main(["score", "--profile", "casual", str(d)]) == 1

    def test_refuses_to_overwrite_input(self, tmp_path, reference_session, capsys):
        d = write_sessions(tmp_path / "device", [reference_session])
        target = d / "session_00.json"
        assert main(["score", "--profile", "casual", "--out", str(target), str(d)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_unwritable_out_is_data_error(self, demo_dir, tmp_path, capsys):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        target = tmp_path / "missing_dir" / "report.json"
        assert main(["score", "--profile", "casual", "--out", str(target), *device_dirs]) == 1
        assert "i/o error" in capsys.readouterr().err


class TestDemo:
    def test_output_tree_cardinality(self, demo_dir):
        session_files = list(demo_dir.glob("sessions/*/*.json"))
        assert len(session_files) == 9 * 3
        assert len(list(demo_dir.glob("sessions/*"))) == 9
        assert (demo_dir / "report_competitive.json").is_file()
        assert (demo_dir / "report_casual.json").is_file()
        assert (demo_dir / "plot_data.csv").is_file()

    def test_reports_match_goldens(self, demo_dir):
        for name in ("report_competitive.json", "report_casual.json", "plot_data.csv"):
            assert (demo_dir / name).read_bytes() == (GOLDEN_DIR / f"demo_{name}").read_bytes()

    def test_plot_rows(self, demo_dir):
        lines = (demo_dir / "plot_data.csv").read_text().splitlines()
        assert len(lines) == 1 + 18

    def test_rerun_is_byte_identical(self, demo_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["demo", "--out", str(again)]) == 0
        first = {p.relative_to(demo_dir): p.read_bytes() for p in demo_dir.rglob("*") if p.is_file()}
        second = {p.relative_to(again): p.read_bytes() for p in again.rglob("*") if p.is_file()}
        assert first == second

    def test_generates_and_drops_one_device_at_a_time(self, tmp_path, monkeypatch):
        generate, parse = gpindex.cli.generate_corpus, gpindex.cli.parse_session
        calls, alive_before, generated, parsed = [], [], [], []

        def tracking_generate(corpus):
            calls.append([device.model.device_id for device in corpus])
            alive_before.append(sum(ref() is not None for ref in generated))
            out = generate(corpus)
            generated.extend(weakref.ref(s) for sessions in out.values() for s in sessions)
            return out

        def tracking_parse(data):
            parsed.append(data)
            return parse(data)

        monkeypatch.setattr(gpindex.cli, "generate_corpus", tracking_generate)
        monkeypatch.setattr(gpindex.cli, "parse_session", tracking_parse)
        assert main(["demo", "--out", str(tmp_path / "demo")]) == 0
        assert calls == [[device.model.device_id] for device in default_demo_manifest()]
        assert alive_before == [0] * len(calls)
        assert len(generated) == 27 and all(ref() is None for ref in generated)
        assert parsed == []

    def test_bad_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"schema_version": 1, "devices": []}')
        assert main(["demo", "--out", str(tmp_path / "o"), "--manifest", str(manifest)]) == 2
        assert "manifest error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(HOSTILE_MANIFESTS))
    def test_hostile_manifest_is_usage_error(self, tmp_path, capsys, case):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(HOSTILE_MANIFESTS[case])
        out = tmp_path / "o"
        assert main(["demo", "--out", str(out), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest error:")
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["score", "compare"])
class TestPerFileDiagnostics:
    """A session file that fails in `score` or `compare` is named in the error line."""

    @staticmethod
    def run(command, tmp_path, device_dir):
        options = {"score": ["--profile", "casual"], "compare": ["--out", str(tmp_path / "cmp")]}
        return main([command, *options[command], str(device_dir)])

    def test_unmeasurable_session(self, command, tmp_path, reference_session, capsys):
        path = write_sessions(tmp_path / "device", [reference_session]) / "session_00.json"
        doc = json.loads(path.read_bytes())
        doc["events"]["battery"] = [[0, 50.0], [30_000, 49.9]]  # parses, but spans only 30 s
        path.write_text(json.dumps(doc))
        assert self.run(command, tmp_path, path.parent) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: drain_pct_per_hour: battery samples must span > 60 s, got 30.0 s\n"
        )

    def test_unreadable_session(self, command, tmp_path, reference_session, capsys):
        device_dir = write_sessions(tmp_path / "device", [reference_session])
        (device_dir / "session_01.json").mkdir()
        assert self.run(command, tmp_path, device_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {device_dir / 'session_01.json'}: ")
        assert "Traceback" not in err


JITTER_THROTTLE_MANIFEST = manifest_bytes(
    {"device_id": "jittery", "frame_jitter_sd_ms": 3.0, "throttle_onset_s": 100.0,
     "throttle_factor": 1.5, "session_duration_s": 240},
    {"device_id": "steady"},
)


class TestCompare:
    def test_writes_all_profiles_and_plot(self, demo_dir, tmp_path, capsys):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out), *device_dirs]) == 0
        assert (out / "report_casual.json").is_file()
        assert (out / "report_competitive.json").is_file()
        assert (out / "plot_data.csv").read_bytes() == (
            GOLDEN_DIR / "demo_plot_data.csv"
        ).read_bytes()

    def test_extracts_each_session_once(self, demo_dir, tmp_path, monkeypatch):
        calls = []
        extract = gpindex.indices.extract_metrics

        def counting(session):
            calls.append(session)
            return extract(session)

        monkeypatch.setattr(gpindex.indices, "extract_metrics", counting)
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        assert main(["compare", "--out", str(tmp_path / "cmp"), *device_dirs]) == 0
        assert len(calls) == 27

    def test_drops_each_session_once_measured(self, demo_dir, tmp_path, monkeypatch):
        parse = gpindex.cli.parse_session
        parsed, alive_before = [], []

        def tracking(data):
            alive_before.append(sum(ref() is not None for ref in parsed))
            session = parse(data)
            parsed.append(weakref.ref(session))
            return session

        monkeypatch.setattr(gpindex.cli, "parse_session", tracking)
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        assert main(["compare", "--out", str(tmp_path / "cmp"), *device_dirs]) == 0
        assert alive_before == [0] * 27

    @pytest.mark.parametrize(
        "manifest", [None, JITTER_THROTTLE_MANIFEST], ids=["shipped", "jitter_throttle"]
    )
    def test_demo_reports_equal_compare_on_its_sessions(self, tmp_path, manifest):
        demo = tmp_path / "demo"
        argv = ["demo", "--out", str(demo)]
        if manifest is not None:
            (tmp_path / "manifest.json").write_bytes(manifest)
            argv += ["--manifest", str(tmp_path / "manifest.json")]
        assert main(argv) == 0
        device_dirs = sorted(str(p) for p in (demo / "sessions").iterdir())
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out), *device_dirs]) == 0
        for name in ("report_competitive.json", "report_casual.json", "plot_data.csv"):
            assert (out / name).read_bytes() == (demo / name).read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_score_writes_compare_report_bytes(self, demo_dir, tmp_path, fmt):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        out = tmp_path / "cmp"
        assert main(["compare", "--format", fmt, "--out", str(out), *device_dirs]) == 0
        for profile in ("competitive", "casual"):
            single = tmp_path / f"{profile}.{fmt}"
            argv = ["score", "--profile", profile, "--format", fmt, "--out", str(single)]
            assert main(argv + device_dirs) == 0
            assert single.read_bytes() == (out / f"report_{profile}.{fmt}").read_bytes()

    def test_duplicate_device_id_is_data_error(self, demo_dir, tmp_path, capsys):
        sessions = demo_dir / "sessions"
        copy = shutil.copytree(sessions / "device_a", tmp_path / "elsewhere" / "device_a")
        out = tmp_path / "cmp"
        argv = ["compare", "--out", str(out), str(sessions / "device_a"), str(copy)]
        assert main(argv + [str(sessions / "device_c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'device_a'" in err
        assert "Traceback" not in err
        assert not (out / "plot_data.csv").exists()


@pytest.fixture(scope="module")
def short_corpus():
    """Two devices, two 120 s sessions each."""
    common = dict(
        frame_jitter_sd_ms=1.0,
        drain_rate_pct_per_hour=12.0,
        temp_start_c=27.0,
        temp_peak_c=38.0,
        touch_latency_ms=45.0,
        launch_s=6.0,
    )
    return {
        device_id: [
            generate_session(
                DeviceModel(device_id, 16.0 + 4.0 * k, seed=10 * k + i, **common), 120
            )
            for i in range(2)
        ]
        for k, device_id in enumerate(("dev_a", "dev_b"))
    }


def mutate_session(data, original):
    """One drawn mutation of a session file: truncated, a field dropped, or battery cut short."""
    kind = data.draw(st.sampled_from(["truncate", "drop_field", "cut_battery"]))
    if kind == "truncate":
        return original[: data.draw(st.integers(0, len(original) - 1))]
    doc = json.loads(original)
    if kind == "drop_field":
        paths = [(key,) for key in doc]
        paths += [
            (key, sub) for key, value in doc.items() if isinstance(value, dict) for sub in value
        ]
        *parents, last = data.draw(st.sampled_from(paths))
        parent = doc
        for key in parents:
            parent = parent[key]
        del parent[last]
    else:
        battery = doc["events"]["battery"]
        doc["events"]["battery"] = battery[: data.draw(st.integers(0, len(battery) - 1))]
    return json.dumps(doc).encode()


def run_quietly(argv):
    """Exit code and stderr of ``gpindex argv``; no run may print a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


class TestCompareErrorSurface:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mutated_file_exits_0_or_1_naming_it(self, short_corpus, data):
        device_id = data.draw(st.sampled_from(sorted(short_corpus)))
        index = data.draw(st.integers(0, len(short_corpus[device_id]) - 1))
        mutated = mutate_session(data, serialize_session(short_corpus[device_id][index]))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, sessions in short_corpus.items():
                write_sessions(root / name, sessions)
            target = root / device_id / f"session_{index:02d}.json"
            target.write_bytes(mutated)
            device_dirs = [str(root / name) for name in sorted(short_corpus)]
            code, err = run_quietly(["compare", "--out", str(root / "out"), *device_dirs])
        assert code in (0, 1)
        if code == 1:
            assert err.startswith(f"error: {target}: ")


@pytest.mark.filterwarnings("ignore::gpindex.telemetry.UnknownKeyWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=one_field_mutations(
        sessions(max_intervals=8).map(lambda s: json.loads(serialize_session(s)))
    )
)
def test_validate_mutated_session_exits_0_or_1_naming_it(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.json"
        path.write_bytes(data)
        code, err = run_quietly(["validate", str(path)])
    assert code in (0, 1)
    assert (code == 1) == err.startswith(f"{path}: ")


# One device with every optional model field set, so that each can be mutated.
_MUTABLE_MANIFEST = json.loads(
    manifest_bytes(
        {
            "base_frame_time_ms": 33.0,
            "frame_jitter_sd_ms": 2.0,
            "throttle_onset_s": 60.0,
            "throttle_factor": 1.5,
            "game_id": "g",
            "render_scale": 0.8,
            "texture_tier": 2,
            "effects_tier": 2,
            "aa_tier": 1,
            "dynamic_range_tier": 0,
            "display_ppi": 400.0,
            "battery_capacity_mah": 4000,
            "session_duration_s": 120,
        }
    )
)
# Mutations that ask for more frames than this are not run.
_DEMO_FRAME_BUDGET = 20_000


@settings(max_examples=40, deadline=None)
@given(data=one_field_mutations(st.just(_MUTABLE_MANIFEST)))
def test_demo_with_mutated_manifest_exits_0_1_or_2(data):
    try:
        corpus = load_manifest(data)
    except EngineError:
        pass
    else:
        # Steps average at least the frame time, so this bounds the expected frame count.
        frames = sum(
            d.sessions * d.session_duration_s * 1000.0 / max(d.model.base_frame_time_ms, 0.001)
            for d in corpus
        )
        assume(frames <= _DEMO_FRAME_BUDGET)
        assert all(Path(d.model.device_id).name == d.model.device_id != ".." for d in corpus)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "manifest.json"
        manifest.write_bytes(data)
        argv = ["demo", "--out", str(Path(tmp) / "out"), "--manifest", str(manifest)]
        code, err = run_quietly(argv)
    assert (code == 2) == err.startswith("manifest error:")
