import json
import math
import re
from importlib.resources import files

import pytest

from gpindex.cli import main
from gpindex.config import load_config
from gpindex.errors import ConfigError
from gpindex.report import serialize_session


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

