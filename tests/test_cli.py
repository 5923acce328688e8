import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import gpindex.cli
import gpindex.config
import gpindex.indices
import gpindex.synth
from gpindex.__main__ import run
from gpindex.cli import main
from gpindex.errors import EngineError, ModelError
from gpindex.jsondoc import replace
from gpindex.report import serialize_session
from gpindex.synth import DeviceModel, default_demo_manifest, generate_session, load_manifest
from gpindex.telemetry import parse_session
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
    # Once exited 1 with `error:`, from the sessions generated with these settings.
    "effects_tier_7": manifest_bytes({"effects_tier": 7}),
    "render_scale_2": manifest_bytes({"render_scale": 2.0}),
    "empty_game_id": manifest_bytes({"game_id": ""}),
    # On the second device these once left the first device's sessions behind.
    "display_ppi_0": manifest_bytes({"device_id": "a"}, {"display_ppi": 0}),
    "battery_capacity_0": manifest_bytes({"device_id": "a"}, {"battery_capacity_mah": 0}),
    "duration_60": manifest_bytes({"device_id": "a"}, {"session_duration_s": 60}),
    "duration_past_int64": manifest_bytes({"device_id": "a"}, {"session_duration_s": 1e16}),
    "zero_sessions": manifest_bytes({}).replace(b'"sessions": 1', b'"sessions": 0'),
}


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "out"
    assert main(["demo", "--out", str(out)]) == 0
    return out


def failing_session_bytes(session, kind):
    """``session``'s file with one fault by ``kind`` mod 3: frames out of order, charging, or an
    unknown key (which only warns)."""
    doc = json.loads(serialize_session(session))
    events = doc["events"]
    if kind % 3 == 0:
        frames = events["frames"]
        frames[-10], frames[-9] = frames[-9], frames[-10]
    elif kind % 3 == 1:
        events["battery"][-1][1] = events["battery"][0][1] + 10
    else:
        doc["replay"] = {"markers": [1, 2, 3]}
    return json.dumps(doc).encode()


def write_sessions(directory, sessions):
    directory.mkdir(parents=True, exist_ok=True)
    for i, session in enumerate(sessions):
        (directory / f"session_{i:02d}.json").write_bytes(serialize_session(session))
    return directory


# orjson rejects a lone surrogate escape where json decoded it and the field reader named it.
LONE_SURROGATE = (
    "malformed session document: no matched low surrogate in string: line 1 column 54 (char 53)"
)


def lone_surrogate_file(directory, session):
    """``session``'s file under ``directory`` with its device_id the escape ``\\ud800``."""
    doc = json.loads(serialize_session(session))
    doc["device"]["device_id"] = "\ud800"
    path = write_sessions(directory, []) / "session_00.json"
    path.write_text(json.dumps(doc))  # ascii, with the escape
    return path


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


def test_importing_the_cli_loads_no_statistics():
    # statistics pulls in fractions and decimal, a measurable share of every cold start.
    code = (
        "import gpindex.cli, sys;"
        " print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_each_command_loads_only_the_modules_it_runs(short_corpus, tmp_path):
    dirs = [str(write_sessions(tmp_path / name, s)) for name, s in sorted(short_corpus.items())]
    files = sorted(str(p) for d in dirs for p in Path(d).glob("*.json"))
    runs = {
        "validate": ["validate", *files],
        "score": ["score", "--profile", "casual", "--out", str(tmp_path / "casual.json"), *dirs],
        "compare": ["compare", "--out", str(tmp_path / "cmp"), *dirs],
        "demo": ["demo", "--out", str(tmp_path / "demo")],
    }
    # Each command in a fresh process, with two workers so the fork path runs: the
    # gpindex modules, numpy, multiprocessing, orjson, dataclasses and inspect that the
    # import loaded, the exit code, and those loaded after the command. No command loads
    # dataclasses; only demo loads inspect, which numpy imports.
    code = (
        "import json, sys\n"
        "import gpindex.cli\n"
        "gpindex.cli._usable_cpus = lambda: 2\n"
        "def loaded():\n"
        "    watched = ('numpy', 'multiprocessing', 'orjson', 'dataclasses', 'inspect')\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'gpindex' or m in watched)\n"
        "imported = loaded()\n"
        "status = gpindex.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([imported, status, loaded()]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
    outcomes = {}
    for name, argv in runs.items():
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv)],
            env=env, capture_output=True, text=True, check=True,
        )
        imported, status, loaded = json.loads(result.stdout.splitlines()[-1])
        outcomes[name] = set(imported), status, set(loaded)
    cli = {"gpindex", "gpindex.cli", "gpindex.errors", "gpindex.jsondoc", "gpindex.telemetry"}
    layers = {"config", "data", "indices", "metrics", "report", "scoring"}
    scoring = cli | {f"gpindex.{m}" for m in layers}
    # Each command loads orjson, to read sessions or, in demo, to write them.
    assert outcomes == {
        "validate": (cli, 0, cli | {"orjson"}),
        "score": (cli, 0, scoring | {"orjson"}),
        "compare": (cli, 0, scoring | {"orjson"}),
        "demo": (cli, 0, scoring | {"gpindex.synth", "numpy", "inspect", "orjson"}),
    }
    for name in ("report_competitive.json", "report_casual.json", "plot_data.csv"):
        assert (tmp_path / "demo" / name).read_bytes() == (GOLDEN_DIR / f"demo_{name}").read_bytes()


@pytest.mark.parametrize("command", ["validate", "compare", "demo"])
def test_every_module_the_items_run_is_loaded_before_the_map(short_corpus, tmp_path, command):
    # A forked worker that imports a module compiles it again, so the map's items import
    # none. One worker: the items run in this process, where sys.modules shows an import.
    dirs = [write_sessions(tmp_path / name, s) for name, s in sorted(short_corpus.items())]
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(manifest_bytes({"device_id": "d0", "session_duration_s": 120}))
    argv = {
        "validate": argv_on_dirs("validate", None, dirs),
        "compare": argv_on_dirs("compare", tmp_path / "cmp", dirs),
        "demo": ["demo", "--out", str(tmp_path / "demo"), "--manifest", str(manifest)],
    }[command]
    code = (
        "import json, sys\n"
        "import gpindex.cli\n"
        "gpindex.cli._usable_cpus = lambda: 1\n"
        "ordered_map, seen = gpindex.cli._ordered_map, []\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.split('.')[0] == 'gpindex' or m == 'numpy'}\n"
        "def spy(fn, items):\n"
        "    seen.append(loaded())\n"
        "    try:\n"
        "        yield from ordered_map(fn, items)\n"
        "    finally:  # validate closes the map once it has every file's outcome\n"
        "        seen.append(loaded() - seen[-1])\n"
        "gpindex.cli._ordered_map = spy\n"
        "status = gpindex.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([status, *map(sorted, seen)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    status, before, during = json.loads(result.stdout.splitlines()[-1])
    assert (status, during) == (0, [])
    runs = {
        "validate": {"telemetry"},
        "compare": {"telemetry", "indices", "metrics", "scoring"},
        "demo": {"synth", "report", "indices", "metrics", "scoring"},
    }[command]
    assert {f"gpindex.{m}" for m in runs} <= set(before)
    assert ("numpy" in before) == (command == "demo")


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

    # Once one warning for every file, naming a line of cli.py and no file.
    def test_unknown_key_warned_for_each_file(self, tmp_path, reference_session, capsys):
        doc = json.loads(serialize_session(reference_session))
        doc["events"]["replay_markers"] = []
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in files:
            path.write_text(json.dumps(doc))
        assert main(["validate", *map(str, files)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "2 valid\n"
        assert captured.err.splitlines() == [
            f"warning: {path}: ignoring unknown key 'events.replay_markers'" for path in files
        ]
        # A file that fails starts its stderr with its diagnostic, then its warnings.
        doc["events"]["frames"][1] = 16.5
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{bad}: events.frames[1]: expected integer, got float",
            f"warning: {bad}: ignoring unknown key 'events.replay_markers'",
        ]

    def test_lone_surrogate_diagnosed(self, tmp_path, reference_session, capsys):
        path = lone_surrogate_file(tmp_path, reference_session)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr() == ("0 valid\n", f"{path}: {LONE_SURROGATE}\n")

    def test_missing_file_diagnosed(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_no_files_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_comparability_flagging(self, tmp_path, reference_session, capsys):
        other = replace(
            reference_session,
            settings=replace(reference_session.settings, texture_tier=0),
        )
        d = write_sessions(tmp_path, [reference_session, reference_session, other])
        files = sorted(str(p) for p in d.glob("*.json"))
        assert main(["validate", "--comparability", *files]) == 0
        modal = reference_session.settings.texture_tier
        flag = f"comparability: {files[2]}: texture_tier=0 differs from modal {modal}"
        assert capsys.readouterr().err == flag + "\n"
        # An invalid file listed first shifts no flag off its file, and no
        # flag starts with "<file>: ", the mark of a file's diagnostic.
        bad = tmp_path / "a_bad.json"
        bad.write_bytes(b"{")
        assert main(["validate", "--comparability", str(bad), *files]) == 1
        diagnostic, *flags = capsys.readouterr().err.splitlines()
        assert diagnostic.startswith(f"{bad}: ") and flags == [flag]

    def test_drops_each_session_once_parsed(self, demo_dir, monkeypatch, capsys):
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)  # the spy sees this process
        parse = gpindex.cli.parse_session
        parsed, alive_before = [], []

        def tracking(data, unknown):
            alive_before.append(sum(ref() is not None for ref in parsed))
            session = parse(data, unknown)
            parsed.append(weakref.ref(session))
            return session

        monkeypatch.setattr(gpindex.cli, "parse_session", tracking)
        files = sorted(str(p) for p in (demo_dir / "sessions").glob("*/*.json"))
        assert main(["validate", "--comparability", *files]) == 0
        assert capsys.readouterr().out == "27 valid\n"
        assert alive_before == [0] * 27
        assert all(ref() is None for ref in parsed)


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

    # Pins the session-file bytes, which the report goldens do not see.
    def test_session_files_match_golden_digests(self, demo_dir):
        golden = {}
        for line in (GOLDEN_DIR / "demo_sessions.sha256").read_text().splitlines():
            digest, path = line.split("  ")
            golden[path] = digest
        written = {
            p.relative_to(demo_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in demo_dir.glob("sessions/*/*.json")
        }
        assert len(golden) == 27 and written == golden

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
        # One worker: demo runs in-process, where the spies see every call.
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)
        generate, parse = gpindex.synth.generate_corpus, gpindex.cli.parse_session
        calls, alive_before, generated, parsed = [], [], [], []

        def tracking_generate(corpus):
            calls.append([device.model.device_id for device in corpus])
            alive_before.append(sum(ref() is not None for ref in generated))
            out = generate(corpus)
            generated.extend(weakref.ref(s) for sessions in out.values() for s in sessions)
            return out

        def tracking_parse(data, unknown):
            parsed.append(data)
            return parse(data, unknown)

        monkeypatch.setattr(gpindex.synth, "generate_corpus", tracking_generate)
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


def golden_tree_mismatches(out):
    """Files under a demo output directory that differ from the goldens."""
    golden = {}
    for line in (GOLDEN_DIR / "demo_sessions.sha256").read_text().splitlines():
        digest, path = line.split("  ")
        golden[path] = digest
    for name in ("report_competitive.json", "report_casual.json", "plot_data.csv"):
        golden[name] = hashlib.sha256((GOLDEN_DIR / f"demo_{name}").read_bytes()).hexdigest()
    written = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*") if p.is_file()
    }
    return sorted(k for k in golden.keys() | written.keys() if golden.get(k) != written.get(k))


def assert_no_child_left():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")


@needs_fork
class TestDemoWorkers:
    """demo with two worker processes writes what one writes, and leaves none behind."""

    def test_two_workers_write_the_golden_tree(self, tmp_path, monkeypatch, capsys, two_workers):
        generate, parent_calls = gpindex.synth.generate_corpus, []

        def tracking_generate(corpus):
            parent_calls.append(os.getpid())
            return generate(corpus)

        monkeypatch.setattr(gpindex.synth, "generate_corpus", tracking_generate)
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out)]) == 0
        assert_no_child_left()
        assert parent_calls == []  # every device was generated in a worker
        assert golden_tree_mismatches(out) == []
        assert capsys.readouterr().out == f"demo corpus and reports written to {out}\n"

    def test_pending_output_is_written_once(self, demo_dir, tmp_path):
        # Block-buffered stdout holds output when the workers fork; no worker writes it again.
        code = (
            "import json, sys\n"
            "import gpindex.cli\n"
            "gpindex.cli._usable_cpus = lambda: 2\n"
            "print('before')\n"
            "sys.exit(gpindex.cli.main(json.loads(sys.argv[1])))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
        demo, cmp = tmp_path / "demo", tmp_path / "cmp"
        names = ("report_casual.json", "report_competitive.json", "plot_data.csv")
        runs = [
            (["demo", "--out", str(demo)], f"demo corpus and reports written to {demo}\n"),
            (argv_on_dirs("compare", cmp, sorted((demo_dir / "sessions").iterdir())),
             "".join(f"wrote {cmp / name}\n" for name in names)),
        ]
        for argv, written in runs:
            result = subprocess.run(
                [sys.executable, "-c", code, json.dumps(argv)], env=env, capture_output=True,
                text=True, check=True,
            )
            assert (result.stdout, result.stderr) == ("before\n" + written, "")

    @pytest.mark.parametrize("failure", ["engine", "io"])
    def test_first_failing_device_wins(self, tmp_path, monkeypatch, capsys, failure):
        manifest = tmp_path / "manifest.json"
        ids = [f"d{i}" for i in range(4)]
        manifest.write_bytes(
            manifest_bytes(*({"device_id": d, "session_duration_s": 120} for d in ids))
        )
        out = tmp_path / "out"
        generate = gpindex.synth.generate_corpus

        def failing_generate(corpus):
            device_id = corpus[0].model.device_id
            if device_id == "d1":
                time.sleep(0.3)  # d3 fails first in time; d1 fails first in order
            if device_id in ("d1", "d3"):
                raise ModelError(f"{device_id} failed")
            return generate(corpus)

        if failure == "engine":
            monkeypatch.setattr(gpindex.synth, "generate_corpus", failing_generate)
        outcomes = []
        for workers in (1, 2):
            monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: workers)
            shutil.rmtree(out, ignore_errors=True)
            if failure == "io":  # a file where d1's and d3's directories go
                (out / "sessions").mkdir(parents=True)
                (out / "sessions" / "d1").write_bytes(b"")
                (out / "sessions" / "d3").write_bytes(b"")
            code = main(["demo", "--out", str(out), "--manifest", str(manifest)])
            assert_no_child_left()
            outcomes.append((code, capsys.readouterr()))
        expected_err = {
            "engine": "error: d1 failed\n",
            "io": f"i/o error under {out}: [Errno 17] File exists: '{out / 'sessions' / 'd1'}'\n",
        }[failure]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 1 and outcomes[0][1].err == expected_err
        assert not (out / "report_casual.json").exists()


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

    # A lone surrogate escape once escaped as a UnicodeEncodeError traceback.
    def test_lone_surrogate_session(self, command, tmp_path, reference_session, capsys):
        path = lone_surrogate_file(tmp_path / "device", reference_session)
        assert self.run(command, tmp_path, path.parent) == 1
        assert capsys.readouterr().err == f"error: {path}: {LONE_SURROGATE}\n"

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


def default_config_doc():
    return json.loads(files("gpindex.data").joinpath("default_config.json").read_bytes())


def weight_groups(doc):
    """Each weight map, main and sub, of each profile in the config document ``doc``."""
    for body in doc["profiles"].values():
        yield body["main_weights"]
        yield from body.get("sub_weights", {}).values()


def _weight_factor_bounds():
    """Positive factors near the least and the greatest that keep the default config's weights
    normal floats and their sums finite."""
    groups = list(weight_groups(default_config_doc()))
    least = min(w for group in groups for w in group.values() if w > 0)
    greatest_sum = max(sum(group.values()) for group in groups)
    return sys.float_info.min / least * (1 + 1e-12), sys.float_info.max / greatest_sum / 2


WEIGHT_FACTORS = _weight_factor_bounds()


@pytest.fixture(scope="module")
def short_reports(short_corpus, tmp_path_factory):
    """The short corpus's device directories, and compare's reports on them by file name."""
    root = tmp_path_factory.mktemp("short")
    dirs = [str(write_sessions(root / name, s)) for name, s in sorted(short_corpus.items())]
    assert main(["compare", "--out", str(root / "out"), *dirs]) == 0
    return dirs, {p.name: p.read_bytes() for p in (root / "out").iterdir()}


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

    def test_out_naming_a_file_is_data_error(self, demo_dir, tmp_path, capsys):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        out = tmp_path / "taken"
        out.write_bytes(b"x")
        assert main(["compare", "--out", str(out), *device_dirs]) == 1
        assert capsys.readouterr().err.startswith(f"i/o error under {out}: ")
        assert out.read_bytes() == b"x"

    def test_extracts_each_session_once(self, demo_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)  # the spy sees this process
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
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)  # the spy sees this process
        parse = gpindex.cli.parse_session
        parsed, alive_before = [], []

        def tracking(data, unknown):
            alive_before.append(sum(ref() is not None for ref in parsed))
            session = parse(data, unknown)
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

    # Once one warning for every file, naming a line of cli.py and no file.
    @pytest.mark.parametrize("command", ["score", "compare"])
    def test_unknown_key_warned_for_each_file(self, tmp_path, reference_session, capsys, command):
        doc = json.loads(serialize_session(reference_session))
        doc["events"]["replay_markers"] = []
        device = tmp_path / "device"
        device.mkdir()
        files = [device / "a.json", device / "b.json"]
        for path in files:
            path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "score": ["score", "--profile", "casual", "--out", str(out)],
            "compare": ["compare", "--out", str(out)],
        }[command] + [str(device)]
        warned = [f"warning: {f}: ignoring unknown key 'events.replay_markers'" for f in files]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == warned
        # The file that fails is named by its diagnostic first, then by its warnings.
        doc["events"]["frames"][1] = 16.5
        bad = device / "c.json"
        bad.write_text(json.dumps(doc))
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == warned + [
            f"error: {bad}: events.frames[1]: expected integer, got float",
            f"warning: {bad}: ignoring unknown key 'events.replay_markers'",
        ]

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

    def _scaled_config(self, tmp_path, c):
        """The default config with every main and sub weight of every profile times ``c``."""
        doc = default_config_doc()
        for group in weight_groups(doc):
            group.update((k, w * c) for k, w in group.items())
        path = tmp_path / f"scaled_{c}.json"
        path.write_text(json.dumps(doc))
        return path

    # Scaling every weight by a positive constant writes the same reports,
    # while the scaled weights stay normal floats.
    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_scaled_weights_write_the_same_reports(self, demo_dir, tmp_path, c):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        plain, scaled = tmp_path / "plain", tmp_path / "scaled"
        assert main(["compare", "--out", str(plain), *device_dirs]) == 0
        config = self._scaled_config(tmp_path, c)
        assert main(["compare", "--config", str(config), "--out", str(scaled), *device_dirs]) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in scaled.iterdir()) and len(names) == 3
        for name in names:
            assert (scaled / name).read_bytes() == (plain / name).read_bytes(), name

    # Any factor that keeps every scaled weight a normal float and every sum
    # finite stores the same normalized weights, so the reports match.
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(c=st.floats(WEIGHT_FACTORS[0], WEIGHT_FACTORS[1]))
    @example(c=WEIGHT_FACTORS[0])
    @example(c=WEIGHT_FACTORS[1])
    def test_drawn_weight_factor_writes_the_same_reports(
        self, short_reports, tmp_path, monkeypatch, c
    ):
        doc = default_config_doc()
        for group in weight_groups(doc):
            assume(all(sys.float_info.min <= w * c for w in group.values()))
            assume(math.isfinite(sum(w * c for w in group.values())))
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)
        dirs, plain = short_reports
        config, out = self._scaled_config(tmp_path, c), tmp_path / "scaled"
        assert main(["compare", "--config", str(config), "--out", str(out), *dirs]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == plain

    # Subnormal weights keep too few bits to scale in proportion: scaled by
    # 1e-320, device_a's median overall under casual once read 72.979053
    # against 72.971255, and 1e-310 was accepted.
    @pytest.mark.parametrize("c", [1e-320, 1e-310])
    def test_subnormal_weights_are_a_config_error(self, demo_dir, tmp_path, capsys, c):
        device_dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        config = self._scaled_config(tmp_path, c)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(config), "--out", str(out), *device_dirs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: profile '") and "subnormal weight for" in err
        assert not out.exists()


# Text a session or config file holds is escaped where it is not printable,
# so no string in a file can start a stderr line that reads as another
# diagnostic; printable text prints as it is.
FORGED = "\n/tmp/forged.json: malformed session document: forged"

# What a file name may hold on POSIX, less the surrogates a name not in UTF-8 decodes to.
FILE_NAME_CHARACTERS = st.characters(blacklist_categories=["Cs"], blacklist_characters="/\0")


class TestDocumentTextStaysOnItsLine:
    def test_unknown_key_in_a_validate_warning(self, tmp_path, reference_session, capsys):
        doc = json.loads(serialize_session(reference_session))
        doc["x" + FORGED] = 1
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {path}: ignoring unknown key 'x\\n/tmp/forged.json: malformed session "
            "document: forged'"
        ]

    def test_game_id_in_a_comparability_line(self, tmp_path, reference_session, capsys):
        game = replace(reference_session.settings, game_id="g\n/tmp/forged2.json: forged")
        forged = replace(reference_session, settings=game)
        d = write_sessions(tmp_path, [reference_session, reference_session, forged])
        files = sorted(str(p) for p in d.glob("*.json"))
        assert main(["validate", "--comparability", *files]) == 0
        modal = reference_session.settings.game_id
        assert capsys.readouterr().err.splitlines() == [
            f"comparability: {files[2]}: game_id=g\\n/tmp/forged2.json: forged differs from "
            f"modal {modal}"
        ]

    def test_device_id_in_a_duplicate_device_error(self, tmp_path, reference_session, capsys):
        device = replace(reference_session.device, device_id="d\nerror: forged")
        session = replace(reference_session, device=device)
        dirs = [write_sessions(tmp_path / name, [session]) for name in ("a", "b")]
        assert main(["compare", "--out", str(tmp_path / "cmp"), *map(str, dirs)]) == 1
        assert capsys.readouterr().err == (
            "error: device 'd\\nerror: forged' is scored more than once\n"
        )

    def test_curve_key_in_a_config_error(self, tmp_path, reference_session, capsys):
        doc = json.loads(files("gpindex.data").joinpath("default_config.json").read_bytes())
        doc["curves"]["x\nerror: forged"] = [[0, 0], [1, 100]]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        d = write_sessions(tmp_path / "a", [reference_session])
        argv = ["compare", "--config", str(config), "--out", str(tmp_path / "cmp"), str(d)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: curves.x\\nerror: forged: unknown metric\n"

    # A line that holds outside text that is not printable is escaped whole:
    # its backslashes are doubled, and its ' escaped when it also holds ".
    def test_a_line_is_escaped_whole(self, tmp_path, reference_session, capsys):
        doc = json.loads(serialize_session(reference_session))
        doc['q"\n'] = 1
        path = tmp_path / "a\\b.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().err == (
            f"warning: {tmp_path}/a\\\\b.json: ignoring unknown key \\'q\"\\n\\'\n"
        )

    # A file name once split its diagnostic: a truncated file named
    # "x\nok.json: forged.json" beside a valid ok.json printed "x", then a
    # line that read as ok.json's diagnostic.
    @needs_fork
    @settings(
        max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(stem=st.text(FILE_NAME_CHARACTERS, max_size=20))
    @example(stem="x\nok.json: forged")
    def test_one_line_per_bad_file_whatever_its_name(
        self, short_corpus, tmp_path, monkeypatch, capsys, stem
    ):
        name = f"{stem}.json"
        # A printable name is printed as it is, so one that starts with another
        # file's path and ": " would start its line so too.
        assume(name != "ok.json" and not name.startswith("ok.json: "))
        monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
        Path("ok.json").write_bytes(serialize_session(short_corpus["dev_a"][0]))
        Path(name).write_bytes(b"{")
        malformed = "malformed session document: unexpected end of data: line 1 column 2 (char 1)"
        for workers in (1, 2):
            monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: workers)
            for argv, prefix, out in [
                (["validate", "--", "ok.json", name], "", "1 valid\n"),
                (["compare", "--out", str(tmp_path / "out"), "."], "error: ", ""),
            ]:
                assert main(argv) == 1
                captured = capsys.readouterr()
                (line,) = captured.err.splitlines()
                assert captured == (out, line + "\n")
                assert line.startswith(prefix) and line.endswith(f": {malformed}")
                assert not line.startswith(f"{prefix}ok.json: ")
                if name.isprintable():
                    assert line == f"{prefix}{name}: {malformed}"


def argv_on_dirs(command, out, dirs):
    """``compare`` writing under ``out``, or ``score --profile casual`` writing stdout, on dirs;
    or ``validate`` on their session files."""
    if command == "validate":
        return ["validate", *(str(f) for d in dirs for f in sorted(Path(d).glob("*.json")))]
    options = {"compare": ["compare", "--out", str(out)], "score": ["score", "--profile", "casual"]}
    return options[command] + [str(d) for d in dirs]


@needs_fork
@pytest.mark.usefixtures("two_workers")
class TestCompareWorkers:
    """compare, score and validate over two forked workers print and write what one process does."""

    @pytest.fixture
    def dirs(self, short_corpus, tmp_path):
        return [write_sessions(tmp_path / name, s) for name, s in sorted(short_corpus.items())]

    def test_write_the_golden_bytes(self, demo_dir, tmp_path, capsysbinary):
        dirs = sorted((demo_dir / "sessions").iterdir())
        assert main(argv_on_dirs("compare", tmp_path / "cmp", dirs)) == 0
        assert main(argv_on_dirs("score", None, dirs)) == 0
        assert_no_child_left()
        for name in ("report_competitive.json", "report_casual.json", "plot_data.csv"):
            golden = (GOLDEN_DIR / f"demo_{name}").read_bytes()
            assert (tmp_path / "cmp" / name).read_bytes() == golden
        # score's stdout, the golden casual report, follows compare's last line.
        casual = (GOLDEN_DIR / "demo_report_casual.json").read_bytes()
        assert capsysbinary.readouterr().out.endswith(b"plot_data.csv\n" + casual)

    @pytest.mark.parametrize("command", ["compare", "score"])
    def test_first_failing_file_wins(self, dirs, tmp_path, monkeypatch, capsys, command):
        first, last = dirs[0] / "session_00.json", dirs[1] / "session_01.json"
        first.write_bytes(b"{")
        last.write_bytes(b"[")
        parse = gpindex.cli.parse_session

        def slow_parse(data, unknown):
            if data == b"{":
                time.sleep(0.3)  # the last file fails first in time; the first fails first in order
            return parse(data, unknown)

        monkeypatch.setattr(gpindex.cli, "parse_session", slow_parse)
        assert main(argv_on_dirs(command, tmp_path / "out", dirs)) == 1
        assert_no_child_left()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {first}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["compare", "score"])
    @pytest.mark.parametrize("case", ["good", "warnings", "bad_before_empty", "empty_between"])
    def test_one_worker_prints_what_two_print(
        self, dirs, tmp_path, monkeypatch, capsysbinary, command, case
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        if case == "warnings":  # every file warns; the last fails as well
            for path in sorted(tmp_path.glob("dev_*/*.json")):
                doc = json.loads(path.read_bytes())
                doc["events"]["replay_markers"] = []
                if path == dirs[1] / "session_01.json":
                    doc["events"]["frames"][1] = 16.5
                path.write_text(json.dumps(doc))
        elif case == "bad_before_empty":
            (dirs[0] / "session_01.json").write_bytes(b"{")
        if "empty" in case:
            dirs = [dirs[0], empty, dirs[1]]
        outcomes = []
        for workers in (1, 2):
            monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: workers)
            code = main(argv_on_dirs(command, tmp_path / "out", dirs))
            outcomes.append((code, *capsysbinary.readouterr()))
        assert outcomes[0] == outcomes[1]
        code, _, err = outcomes[0]
        expected_err = {
            "good": b"",
            "warnings": b"warning: ",
            "bad_before_empty": b"error: %s: " % bytes(dirs[0] / "session_01.json"),
            "empty_between": b"error: %s: no session files (*.json) found\n" % bytes(empty),
        }[case]
        assert (code == 0) == (case == "good") and err.startswith(expected_err)
        assert err.count(b"warning: ") == 4 * (case == "warnings")

    @pytest.mark.parametrize("command", ["compare", "validate"])
    def test_no_child_left(self, dirs, tmp_path, monkeypatch, capsys, command):
        argv = argv_on_dirs(command, tmp_path / "out", dirs)
        assert main(argv) == 0
        assert_no_child_left()
        first = dirs[0] / "session_00.json"
        good = first.read_bytes()
        first.write_bytes(b"{")  # compare fails while the workers still hold later files
        assert main(argv) == 1
        assert_no_child_left()
        first.write_bytes(good)

        def failing_parse(data, unknown):
            raise RuntimeError("not an engine error")

        monkeypatch.setattr(gpindex.cli, "parse_session", failing_parse)
        with pytest.raises(RuntimeError, match="not an engine error"):
            main(argv)
        assert_no_child_left()

    @pytest.mark.parametrize("comparability", [False, True], ids=["plain", "comparability"])
    def test_validate_one_worker_prints_what_two_print(
        self, dirs, tmp_path, reference_session, monkeypatch, capsysbinary, comparability
    ):
        # Valid files, one with other settings, each failing kind, a truncated and a missing file.
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        settings = replace(reference_session.settings, texture_tier=0)
        other = replace(reference_session, settings=settings)
        (mixed / "other.json").write_bytes(serialize_session(other))
        for kind in range(3):
            failing = failing_session_bytes(reference_session, kind)
            (mixed / f"failing_{kind}.json").write_bytes(failing)
        (mixed / "truncated.json").write_bytes(serialize_session(reference_session)[:1000])
        missing = mixed / "missing.json"
        files = argv_on_dirs("validate", None, dirs)[1:]
        files[1:1] = [*(str(f) for f in sorted(mixed.iterdir())), str(missing)]
        argv = ["validate", *(["--comparability"] if comparability else []), *files]
        outcomes = []
        for workers in (1, 2):
            monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: workers)
            outcomes.append((main(argv), *capsysbinary.readouterr()))
            assert_no_child_left()
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert (code, out) == (1, b"6 valid\n")
        lines = err.decode().splitlines()
        warned = [line for line in lines if line.startswith("warning: ")]
        flagged = [line for line in lines if line.startswith("comparability: ")]
        diagnosed = [line.split(": ")[0] for line in lines if line not in warned + flagged]
        failed = ("failing_0.json", "failing_1.json", "truncated.json", "missing.json")
        assert diagnosed == [str(mixed / name) for name in failed]
        assert warned == [f"warning: {mixed / 'failing_2.json'}: ignoring unknown key 'replay'"]
        assert lines[len(lines) - len(flagged) :] == flagged  # after every file's lines
        other_flag = f"comparability: {mixed / 'other.json'}: texture_tier=0 differs from modal "
        assert any(line.startswith(other_flag) for line in flagged) == comparability

    @pytest.mark.parametrize("pickles", [True, False])
    def test_unexpected_error_keeps_its_worker_traceback(self, dirs, tmp_path, monkeypatch, pickles):
        class LocalError(Exception):  # pickle cannot find a local class by name
            pass

        def failing_measure(session, curves):
            raise (KeyError if pickles else LocalError)("not an engine error")

        monkeypatch.setattr(gpindex.indices, "measure", failing_measure)
        with pytest.raises(KeyError if pickles else RuntimeError, match="not an engine error") as caught:
            main(argv_on_dirs("compare", tmp_path / "out", dirs))
        assert_no_child_left()
        worker_traceback = str(caught.value.__cause__)
        assert worker_traceback.startswith("Traceback (most recent call last):\n")
        assert "in failing_measure\n" in worker_traceback

    def test_failed_fork_closes_its_pipe(self, dirs, monkeypatch, capsys):
        pipe, fork, made, forks = os.pipe, os.fork, [], []

        def recording_pipe():
            fds = pipe()
            made.extend(fds)
            return fds

        def second_fork_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        assert main(argv_on_dirs("validate", None, dirs)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [Errno {errno.EAGAIN}] ") and err.count("\n") == 1
        assert len(made) == 6  # the task pipe and both workers' result pipes
        for fd in made:
            with pytest.raises(OSError) as closed:
                os.fstat(fd)
            assert closed.value.errno == errno.EBADF
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["compare", "score", "validate"])
    def test_killed_worker_fails_the_command(self, dirs, tmp_path, command):
        # The first worker to parse a file kills itself; the other goes on with its files.
        code = (
            "import json, os, signal, sys\n"
            "import gpindex.cli\n"
            "gpindex.cli._usable_cpus = lambda: 2\n"
            "parse = gpindex.cli.parse_session\n"
            "def dying(data, unknown):\n"
            "    try:\n"
            "        os.close(os.open(sys.argv[2], os.O_CREAT | os.O_EXCL))\n"
            "    except FileExistsError:\n"
            "        return parse(data, unknown)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "gpindex.cli.parse_session = dying\n"
            "sys.exit(gpindex.cli.main(json.loads(sys.argv[1])))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
        out = tmp_path / "out"
        argv = json.dumps(argv_on_dirs(command, out, dirs))
        result = subprocess.run(
            [sys.executable, "-c", code, argv, str(tmp_path / "killed")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("error: worker ") and result.stderr.count("\n") == 1
        assert result.stderr.endswith(" ended before its items (killed by signal 9)\n")

    # A worker that ends early is named with its wait status, and reaped once:
    # not again when the map closes.
    @pytest.mark.parametrize(
        "end,status",
        [
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
            (lambda: os._exit(3), "exit status 3"),
            (lambda: os.kill(os.getpid(), signal.SIGTERM), "killed by signal 15"),
            # Leaving cleanly before its items is still a death.
            (lambda: os._exit(0), "exit status 0"),
        ],
        ids=["sigkill", "exit_3", "sigterm", "exit_0"],
    )
    def test_dead_worker_is_named_by_its_wait_status(self, monkeypatch, end, status):
        waitpid, waited = os.waitpid, []

        def recording_waitpid(pid, options):
            waited.append(pid)
            return waitpid(pid, options)

        def item(i):
            if i == 1:
                end()
            return i

        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        with pytest.raises(EngineError) as info:
            list(gpindex.cli._ordered_map(item, range(4)))
        dead = int(str(info.value).split()[1])
        assert str(info.value) == f"worker {dead} ended before its items ({status})"
        assert len(waited) == len(set(waited)) == 2 and dead in waited
        assert_no_child_left()


    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")
    def test_killed_parent_leaves_no_worker_running(self, dirs, tmp_path):
        # Each worker records its pid, then parses slowly; the parent is killed meanwhile.
        code = (
            "import json, os, sys, time\n"
            "import gpindex.cli\n"
            "gpindex.cli._usable_cpus = lambda: 2\n"
            "parse = gpindex.cli.parse_session\n"
            "def slow(data, unknown):\n"
            "    open(os.path.join(sys.argv[2], str(os.getpid())), 'w').close()\n"
            "    time.sleep(0.5)\n"
            "    return parse(data, unknown)\n"
            "gpindex.cli.parse_session = slow\n"
            "sys.exit(gpindex.cli.main(json.loads(sys.argv[1])))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
        pids = tmp_path / "pids"
        pids.mkdir()
        argv = json.dumps(argv_on_dirs("compare", tmp_path / "out", dirs))
        parent = subprocess.Popen([sys.executable, "-c", code, argv, str(pids)], env=env)
        deadline = time.monotonic() + 60
        while len(list(pids.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        parent.kill()
        parent.wait()
        workers = [int(p.name) for p in pids.iterdir()]
        assert len(workers) == 2

        def running(pid):
            try:
                return "State:\tZ" not in Path(f"/proc/{pid}/status").read_text()
            except FileNotFoundError:
                return False

        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []

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


@pytest.mark.parametrize("count,usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_affinity(monkeypatch, count, usable):
    # macOS and Windows have no affinity set: the CPU count, or one if unknown.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert gpindex.cli._usable_cpus() == usable


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity to set")
def test_each_worker_runs_on_one_cpu_of_the_parents(monkeypatch, two_workers):
    parent = os.sched_getaffinity(0)

    def where(i):
        return i * i, os.getpid(), os.sched_getaffinity(0)

    pinned = list(gpindex.cli._ordered_map(where, range(8)))
    assert os.sched_getaffinity(0) == parent
    assert [square for square, _, _ in pinned] == [i * i for i in range(8)]
    for _, pid, cpu in pinned:
        assert pid != os.getpid() and len(cpu) == 1 and cpu <= parent

    def refusing(pid, cpus):
        raise PermissionError("not allowed here")

    # Where the platform refuses to pin, or cannot, the workers run on the parent's set.
    monkeypatch.setattr(os, "sched_setaffinity", refusing)
    refused = list(gpindex.cli._ordered_map(where, range(8)))
    monkeypatch.delattr(os, "sched_setaffinity")
    unpinned = list(gpindex.cli._ordered_map(where, range(8)))
    expected = [(i * i, parent) for i in range(8)]
    for outcomes in refused, unpinned:
        assert [(square, cpu) for square, _, cpu in outcomes] == expected
    assert_no_child_left()


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


class TestBoundedMemory:
    """Each command's peak memory is one session's worth, whatever the session count.

    Every command runs in-process on N and on 4N sessions of 120 s, one per
    device; the two tracemalloc peaks must differ by less than one parsed
    session. A command that held every session would differ by 3N of them.
    """

    N = 2

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory, reference_model):
        root = tmp_path_factory.mktemp("bounded")
        for i in range(4 * self.N):
            model = replace(reference_model, device_id=f"device_{i}", seed=i)
            session = generate_session(model, 120)
            write_sessions(root / "sessions" / model.device_id, [session])
            (root / f"failing_{i}.json").write_bytes(failing_session_bytes(session, i))
        for n in (self.N, 4 * self.N):
            devices = ({"device_id": f"device_{i}", "session_duration_s": 120} for i in range(n))
            (root / f"manifest_{n}.json").write_bytes(manifest_bytes(*devices))
        return root

    @staticmethod
    def argv(command, root, n):
        dirs = [str(root / "sessions" / f"device_{i}") for i in range(n)]
        return {
            "validate": ["validate", *(f"{d}/session_00.json" for d in dirs)],
            "validate_failing": ["validate", *(str(root / f"failing_{i}.json") for i in range(n))],
            "score": ["score", "--profile", "casual", "--out", str(root / "score.json"), *dirs],
            "compare": ["compare", "--out", str(root / "compare"), *dirs],
            "demo": ["demo", "--out", str(root / f"demo_{n}"),
                     "--manifest", str(root / f"manifest_{n}.json")],
        }[command]

    @staticmethod
    def traced_peak(argv, status=0):
        """Peak traced memory of one run, above what was traced when it started."""
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == status
        return tracemalloc.get_traced_memory()[1] - start

    # validate_failing: files that fail in the session constructor, or warn; where orjson is
    # installed, its outcome is kept for each (tests/test_session_decoders.py).
    @pytest.mark.parametrize("command", ["validate", "validate_failing", "score", "compare", "demo"])
    def test_peak_does_not_grow_with_sessions(self, corpus, command, monkeypatch):
        # tracemalloc sees this process only, so demo runs its devices in it.
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)
        data = (corpus / "sessions" / "device_0" / "session_00.json").read_bytes()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            session = parse_session(data)
            session_size = tracemalloc.get_traced_memory()[0] - start
            del session
            status = int(command == "validate_failing")
            self.traced_peak(self.argv(command, corpus, self.N), status)  # warm up: imports, caches
            peak_n = self.traced_peak(self.argv(command, corpus, self.N), status)
            peak_4n = self.traced_peak(self.argv(command, corpus, 4 * self.N), status)
        finally:
            tracemalloc.stop()
        assert abs(peak_4n - peak_n) < session_size, (peak_n, peak_4n, session_size)


# orjson alone decodes 100,000 nested arrays and overruns the C stack at 200,000:
# validate once died by SIGSEGV (exit 139, no output), and with a second file it
# and compare printed only "error: worker N ended before its items".
DEEP = b"[" * 200_000 + b"]" * 200_000
TOO_DEEP = "malformed session document: nested deeper than 64 levels"


@needs_fork
class TestDeepFiles:
    """A file nested past the bound fails on its own line, in a child process, so a crash
    fails the test and not the test run."""

    @staticmethod
    def run(argv):
        """``main(argv)`` over two forked workers in a fresh interpreter."""
        code = (
            "import json, sys\n"
            "import gpindex.cli\n"
            "gpindex.cli._usable_cpus = lambda: 2\n"
            "sys.exit(gpindex.cli.main(json.loads(sys.argv[1])))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        return result.returncode, result.stdout, result.stderr

    @pytest.fixture
    def device_dir(self, tmp_path, reference_session):
        """A device directory: the deep file first, then a valid session."""
        device_dir = write_sessions(tmp_path / "device", [reference_session, reference_session])
        (device_dir / "session_00.json").write_bytes(DEEP)
        return device_dir

    def test_validate_alone(self, device_dir):
        deep = device_dir / "session_00.json"
        assert self.run(["validate", str(deep)]) == (1, "0 valid\n", f"{deep}: {TOO_DEEP}\n")

    def test_validate_beside_a_valid_file(self, device_dir):
        deep, valid = sorted(device_dir.glob("*.json"))
        assert self.run(["validate", str(deep), str(valid)]) == (
            1, "1 valid\n", f"{deep}: {TOO_DEEP}\n"
        )

    def test_compare(self, device_dir, tmp_path):
        deep = device_dir / "session_00.json"
        assert self.run(["compare", "--out", str(tmp_path / "cmp"), str(device_dir)]) == (
            1, "", f"error: {deep}: {TOO_DEEP}\n"
        )

    def test_score(self, device_dir):
        deep = device_dir / "session_00.json"
        assert self.run(["score", "--profile", "casual", str(device_dir)]) == (
            1, "", f"error: {deep}: {TOO_DEEP}\n"
        )


def run_program(*args):
    """``python -m gpindex *args`` in a fresh interpreter, as users run it."""
    env = {**os.environ, "PYTHONPATH": str(Path(gpindex.cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "gpindex", *args], env=env, capture_output=True, text=True
    )


@pytest.fixture
def collector_restored():
    """Turn the cyclic collector back on, and unfreeze the heap, after the test."""
    yield
    gc.unfreeze()
    gc.enable()


class TestProgram:
    """``gpindex.__main__.run``: ``main`` with the collector off, and the heap frozen at exit."""

    def test_validate_good_session(self, tmp_path, reference_session):
        path = tmp_path / "good.json"
        path.write_bytes(serialize_session(reference_session))
        result = run_program("validate", str(path))
        assert (result.returncode, result.stdout, result.stderr) == (0, "1 valid\n", "")

    def test_validate_bad_session(self, tmp_path, reference_session):
        doc = json.loads(serialize_session(reference_session))
        doc["events"]["frames"][1] = 16.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = run_program("validate", str(path))
        assert (result.returncode, result.stdout) == (1, "0 valid\n")
        assert result.stderr == f"{path}: events.frames[1]: expected integer, got float\n"

    def test_no_arguments_is_usage_error(self):
        result = run_program()
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("usage: gpindex ")

    def test_compare_writes_what_main_writes(self, short_corpus, tmp_path):
        dirs = [str(write_sessions(tmp_path / name, s)) for name, s in sorted(short_corpus.items())]
        assert main(["compare", "--out", str(tmp_path / "main"), *dirs]) == 0
        result = run_program("compare", "--out", str(tmp_path / "program"), *dirs)
        assert (result.returncode, result.stderr) == (0, "")
        names = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "program").iterdir())
        for name in names:
            program, in_process = tmp_path / "program" / name, tmp_path / "main" / name
            assert program.read_bytes() == in_process.read_bytes()

    def test_run_returns_mains_status(
        self, tmp_path, reference_session, monkeypatch, capsys, collector_restored
    ):
        good = tmp_path / "good.json"
        good.write_bytes(serialize_session(reference_session))
        for argv, status in ([str(good)], 0), ([str(good), str(tmp_path / "nope.json")], 1):
            monkeypatch.setattr(sys, "argv", ["gpindex", "validate", *argv])
            assert run() == status
            assert not gc.isenabled() and gc.get_freeze_count() > 0
            gc.unfreeze()
            gc.enable()
        # A usage error leaves through argparse's SystemExit, frozen all the same.
        monkeypatch.setattr(sys, "argv", ["gpindex"])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2
        assert not gc.isenabled() and gc.get_freeze_count() > 0

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["validate", "demo", "score", "compare"])
    def test_closed_stdout_is_one_error_line(self, command, unbuffered, short_corpus, tmp_path):
        dirs = [str(write_sessions(tmp_path / name, s)) for name, s in sorted(short_corpus.items())]
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(manifest_bytes({}))
        argv = {
            "validate": ["validate", str(Path(dirs[0]) / "session_00.json")],
            "demo": ["demo", "--out", str(tmp_path / "demo"), "--manifest", str(manifest)],
            "score": ["score", "--profile", "casual", *dirs],
            "compare": ["compare", "--out", str(tmp_path / "cmp"), *dirs],
        }[command]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(gpindex.cli.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the command writes anything
        try:
            result = subprocess.run(
                [sys.executable, "-m", "gpindex", *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


class TestReferenceCycles:
    """A run's reference cycles do not grow with its input.

    ``run`` keeps the cyclic collector off for a whole command, so a cycle
    made per session would stay until the process exits. With the
    collector off, ``gc.collect()`` after a command finds as many objects
    for one input as for several.
    """

    @pytest.fixture(autouse=True)
    def collector_off(self, collector_restored, capsys):
        gc.disable()

    @staticmethod
    def cycles_after(argv, status=0):
        gc.collect()
        assert main(argv) == status
        return gc.collect()

    def test_compare(self, demo_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)  # the cycles stay in this process
        dirs = sorted(str(p) for p in (demo_dir / "sessions").iterdir())
        self.cycles_after(["compare", "--out", str(tmp_path / "warm"), *dirs[:1]])
        one = self.cycles_after(["compare", "--out", str(tmp_path / "one"), *dirs[:1]])
        three = self.cycles_after(["compare", "--out", str(tmp_path / "three"), *dirs[:3]])
        assert one == three

    def test_validate(self, demo_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)  # the cycles stay in this process
        files = sorted(str(p) for p in (demo_dir / "sessions").glob("*/*.json"))
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"{")
        self.cycles_after(["validate", *files[:1]])
        one = self.cycles_after(["validate", *files[:1]])
        several = self.cycles_after(["validate", *files[:9]])
        assert one == several == self.cycles_after(["validate", *files[:9], str(bad)], 1)

    def test_validate_failing_files(self, tmp_path, reference_session, monkeypatch):
        monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 1)  # the cycles stay in this process
        files = []
        for i in range(9):
            files.append(tmp_path / f"failing_{i}.json")
            files[-1].write_bytes(failing_session_bytes(reference_session, i))
        self.cycles_after(["validate", *map(str, files[:3])], 1)
        three = self.cycles_after(["validate", *map(str, files[:3])], 1)
        assert three == self.cycles_after(["validate", *map(str, files)], 1)

    def test_demo_device(self, tmp_path):
        config = gpindex.config.default_config()
        first, *rest = default_demo_manifest()
        gpindex.cli._demo_device(first, tmp_path, config)  # may fill numpy's lazy caches
        gc.collect()
        counts = []
        for device in rest:
            gpindex.cli._demo_device(device, tmp_path, config)
            counts.append(gc.collect())
        assert counts == [0] * len(rest)
