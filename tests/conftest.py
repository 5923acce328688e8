import sys
from contextlib import contextmanager

import pytest

import gpindex.cli
from gpindex.config import default_config
from gpindex.jsondoc import fast_json
from gpindex.report import serialize_session
from gpindex.synth import DeviceModel, generate_session


@pytest.fixture(scope="session")
def default_cfg():
    return default_config()


@pytest.fixture
def two_workers(monkeypatch):
    """``gpindex.cli`` maps over two forked workers, even on a one-CPU runner."""
    monkeypatch.setattr(gpindex.cli, "_usable_cpus", lambda: 2)


@contextmanager
def orjson_hidden():
    """Inside, ``import orjson`` fails, as where it is not installed.

    Only the ``orjson`` entry of ``sys.modules`` is set and put back:
    modules first imported inside stay imported.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "orjson", None)
        fast_json.cache_clear()
        try:
            assert fast_json() is None
            yield
        finally:
            fast_json.cache_clear()


@pytest.fixture
def json_only():
    """Sessions are decoded and written by json alone: ``import orjson`` fails, as without it."""
    with orjson_hidden():
        yield


@pytest.fixture(scope="session")
def reference_model():
    """Zero-jitter 60 fps model whose every metric is known in closed form."""
    return DeviceModel(
        device_id="ref_device",
        base_frame_time_ms=1000.0 / 60.0,
        drain_rate_pct_per_hour=20.0,
        temp_start_c=28.0,
        temp_peak_c=40.0,
        touch_latency_ms=55.0,
        launch_s=8.2,
        display_ppi=500.0,
        seed=20_260_101,
    )


@pytest.fixture(scope="session")
def reference_session(reference_model):
    return generate_session(reference_model, 600)


@pytest.fixture(scope="session")
def fixture_session_path(tmp_path_factory, reference_session):
    """A 10-minute 60 fps session file on disk (36 000 frames)."""
    path = tmp_path_factory.mktemp("corpus") / "session_60fps_10min.json"
    path.write_bytes(serialize_session(reference_session))
    return path
