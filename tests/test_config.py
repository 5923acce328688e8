import contextlib
import io
import json
import math
import re
import tempfile
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpindex.cli import main
from gpindex.config import load_config
from gpindex.errors import ConfigError
from gpindex.report import serialize_session
from gpindex.synth import DeviceModel, generate_session
from tests.strategies import one_field_mutations


def config_bytes(edit):
    """The default config with ``edit`` applied to its parsed document."""
    doc = json.loads(files("gpindex.data").joinpath("default_config.json").read_bytes())
    edit(doc)
    # json.dumps writes float NaN and infinities as the NaN/Infinity literals.
    return json.dumps(doc).encode()


def main_weight(value):
    def edit(doc):
        doc["profiles"]["casual"]["main_weights"]["battery"] = value

    return edit


def first_breakpoint(value):
    def edit(doc):
        doc["curves"]["avg_fps"][0] = value

    return edit


def rename_casual(name):
    def edit(doc):
        doc["profiles"][name] = doc["profiles"].pop("casual")

    return edit


def drop_curve(metric_id, weighted=True):
    """Delete ``metric_id``'s curve and, unless ``weighted``, its sub weights."""

    def edit(doc):
        del doc["curves"][metric_id]
        if not weighted:
            for profile in doc["profiles"].values():
                for weights in profile["sub_weights"].values():
                    weights.pop(metric_id, None)

    return edit


BATTERY = "profiles.casual.main_weights.battery"

# Each of these once exited 0 with every casual score at 0.0000 (NaN,
# Infinity), escaped as a traceback, or was read as something else.
HOSTILE_CONFIGS = {
    "nan_weight": (config_bytes(main_weight(math.nan)), f"{BATTERY}: expected finite number"),
    "inf_weight": (config_bytes(main_weight(math.inf)), f"{BATTERY}: expected finite number"),
    "str_weight": (config_bytes(main_weight("x")), f"{BATTERY}: expected number, got str"),
    "null_weight": (config_bytes(main_weight(None)), f"{BATTERY}: expected number, got NoneType"),
    "three_element_breakpoint": (
        config_bytes(first_breakpoint([1, 2, 3])),
        "curves.avg_fps[0]: expected a 2-element array",
    ),
    "deep_nesting": (b"[" * 100_000, "malformed config: maximum recursion depth"),
    "long_integer": (
        config_bytes(main_weight("@")).replace(b'"@"', b"9" * 5000),
        "malformed config: Exceeds the limit",
    ),
    # compare names each report file by its profile; a NUL once crashed it with ValueError.
    "nul_profile_name": (
        config_bytes(rename_casual("a\x00b")),
        "profiles: profile name 'a\\x00b' must name one file",
    ),
    "traversing_profile_name": (
        config_bytes(rename_casual("../x")),
        "profiles: profile name '../x' must name one file",
    ),
    # Every session is mapped on every metric: a config without an unweighted
    # metric's curve once loaded, and then every compare exited 1.
    "unweighted_metric_without_curve": (
        config_bytes(drop_curve("low1_fps", weighted=False)),
        "curves: no curve for metric 'low1_fps'",
    ),
    "weighted_metric_without_curve": (
        config_bytes(drop_curve("low1_fps")),
        "curves: no curve for metric 'low1_fps'",
    ),
    "empty_curves": (
        config_bytes(lambda doc: doc.update(curves={})),
        "curves: expected a non-empty object",
    ),
    "unknown_curve_metric": (
        config_bytes(lambda doc: doc["curves"].update(warp=doc["curves"]["avg_fps"])),
        "curves.warp: unknown metric",
    ),
    "unknown_main_index": (
        config_bytes(lambda doc: doc["profiles"]["casual"]["main_weights"].update(warp=1.0)),
        "profiles.casual.main_weights: unknown index 'warp'",
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_CONFIGS))
def test_load_config_rejects_hostile_config(name):
    data, message = HOSTILE_CONFIGS[name]
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        load_config(data)


@pytest.mark.parametrize("name", sorted(HOSTILE_CONFIGS))
def test_compare_with_hostile_config_is_usage_error(
    name, tmp_path, reference_session, capsys
):
    data, message = HOSTILE_CONFIGS[name]
    config = tmp_path / "config.json"
    config.write_bytes(data)
    device = tmp_path / "device"
    device.mkdir()
    (device / "s.json").write_bytes(serialize_session(reference_session))
    argv = ["compare", "--config", str(config), "--out", str(tmp_path / "out"), str(device)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_compare_with_missing_config_is_usage_error(tmp_path, reference_session, capsys):
    config = tmp_path / "missing.json"
    device = tmp_path / "device"
    device.mkdir()
    (device / "s.json").write_bytes(serialize_session(reference_session))
    argv = ["compare", "--config", str(config), "--out", str(tmp_path / "out"), str(device)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {config}: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def two_device_dirs(tmp_path_factory):
    """Two device directories of one 120 s session each."""
    root = tmp_path_factory.mktemp("two_devices")
    dirs = []
    for k, device_id in enumerate(("dev_a", "dev_b")):
        model = DeviceModel(device_id, 16.0 + 4.0 * k, 12.0, 27.0, 38.0, 45.0, 6.0, seed=k)
        directory = root / device_id
        directory.mkdir()
        (directory / "s.json").write_bytes(serialize_session(generate_session(model, 120)))
        dirs.append(str(directory))
    return dirs


_DEFAULT_CONFIG = json.loads(config_bytes(lambda doc: None))


def run_with_config(data, argv):
    """Exit code and stderr of ``gpindex`` with ``data`` as its --config file."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(data)
        argv = [argv[0], "--config", str(config), "--out", str(Path(tmp) / "out"), *argv[1:]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=one_field_mutations(st.just(_DEFAULT_CONFIG)))
def test_compare_with_mutated_config_exits_0_1_or_2(two_device_dirs, data):
    code, err = run_with_config(data, ["compare", *two_device_dirs])
    assert (code == 2) == err.startswith("config error:")


@settings(max_examples=100, deadline=None)
@given(data=one_field_mutations(st.just(_DEFAULT_CONFIG)))
def test_score_with_mutated_config_exits_0_1_or_2(two_device_dirs, data):
    code, err = run_with_config(data, ["score", "--profile", "casual", *two_device_dirs])
    # score also exits 2 when the mutation removed the profile it asks for.
    assert (code == 2) == err.startswith(("config error:", "unknown profile 'casual'"))
