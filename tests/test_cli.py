import json
import math
import shutil
from pathlib import Path

import pytest

import gpindex.indices
from gpindex.cli import main
from gpindex.report import serialize_session
from tests.strategies import manifest_bytes

GOLDEN_DIR = Path(__file__).parent / "goldens"

HOSTILE_MANIFESTS = {
    "deep_nesting": b"[" * 100_000,
    "long_integer": manifest_bytes({}).replace(b'"seed": 1', b'"seed": ' + b"9" * 5000),
    "nan_latency": manifest_bytes({"touch_latency_ms": math.nan}),
    "inf_duration": manifest_bytes({"session_duration_s": math.inf}),
    "duplicate_id": manifest_bytes({}, {}),
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
