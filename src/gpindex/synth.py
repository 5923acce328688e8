"""Synthetic session generator.

Generates telemetry from a parametric device model whose true values are
known in closed form, so the extraction pipeline can be checked against
ground truth, and ships the demo corpus manifest used for the example
device comparison.

Randomness comes from SplitMix64, a fixed 64-bit generator simple enough
to reimplement bit-exactly anywhere, which keeps generated fixtures and
golden files portable. Draw order per session is fixed: one frame-jitter
draw per interval (none when frame_jitter_sd_ms is 0), then one latency
draw per touch event.

SplitMix64's state after k steps is seed + k*gamma (mod 2**64), so draw k
is addressable as mix(seed + k*gamma). generate_session computes a block
of draws at once with numpy uint64 arithmetic, which wraps exactly like
the scalar mask, and gets frame times from a cumulative sum, which adds
left to right exactly like the scalar ``t += step`` loop. Block generation
therefore equals the scalar definition bit for bit; the test suite keeps
the scalar generator and loop as its oracle. numpy is imported inside the
two functions that generate frames and draws, so importing this module,
as the CLI does for every command, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from importlib.resources import files
from typing import TYPE_CHECKING

from .errors import ModelError, SchemaError
from .jsondoc import (
    as_int, as_list, as_obj, as_real, as_str, decode, is_finite, require, require_version
)
from .telemetry import (
    BatterySample,
    DeviceMeta,
    GameSettings,
    LaunchEvent,
    SessionTelemetry,
    TempSample,
)

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BATTERY_SAMPLE_PERIOD_MS = 30_000
TEMP_SAMPLE_PERIOD_MS = 30_000
TOUCH_PERIOD_MS = 2_000
TOUCH_JITTER_FRACTION = 0.10
MIN_DURATION_S = 120.0

# Keeps the frame count stable when the frame time divides the duration
# exactly (float accumulation would otherwise sit on the boundary).
_BOUNDARY_EPS_MS = 1e-6
_MIN_STEP_MS = 0.001
# Frames are generated in blocks of at most this many intervals, so the
# transient arrays stay the same size whatever the session duration.
_FRAME_BLOCK = 1 << 14
# Frame times are cast to int64; a session must end below this.
_MAX_DURATION_MS = 2.0**63


def _block_floats(seed: int, skip: int, n: int) -> np.ndarray:
    """Draws skip+1 .. skip+n of SplitMix64(seed), each as its top 53 bits times 2**-53."""
    import numpy as np

    z = np.arange(skip + 1, skip + n + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


# DeviceModel fields as a manifest gives them, each with its reader.
_MODEL_FIELDS = {
    "device_id": as_str,
    "base_frame_time_ms": as_real,
    "drain_rate_pct_per_hour": as_real,
    "temp_start_c": as_real,
    "temp_peak_c": as_real,
    "touch_latency_ms": as_real,
    "launch_s": as_real,
    "seed": as_int,
}
_OPTIONAL_MODEL_FIELDS = {
    "frame_jitter_sd_ms": as_real,
    "throttle_onset_s": as_real,
    "throttle_factor": as_real,
    "game_id": as_str,
    "render_scale": as_real,
    "texture_tier": as_int,
    "effects_tier": as_int,
    "aa_tier": as_int,
    "dynamic_range_tier": as_int,
    "display_ppi": as_real,
    "battery_capacity_mah": as_int,
}

# DeviceModel fields that must hold a finite number, and those that must
# hold an integer (or None, where that is the field's default).
_ALL_MODEL_FIELDS = {**_MODEL_FIELDS, **_OPTIONAL_MODEL_FIELDS}
_REAL_MODEL_FIELDS = tuple(name for name, read in _ALL_MODEL_FIELDS.items() if read is as_real)
_INT_MODEL_FIELDS = tuple(name for name, read in _ALL_MODEL_FIELDS.items() if read is as_int)


@dataclass(frozen=True)
class DeviceModel:
    """Parametric ground truth for one synthetic device.

    Frame intervals are base_frame_time_ms plus zero-mean uniform noise
    with standard deviation frame_jitter_sd_ms, inflated by
    throttle_factor once the session passes throttle_onset_s.
    """

    device_id: str
    base_frame_time_ms: float
    drain_rate_pct_per_hour: float
    temp_start_c: float
    temp_peak_c: float
    touch_latency_ms: float
    launch_s: float
    seed: int
    frame_jitter_sd_ms: float = 0.0
    throttle_onset_s: float | None = None
    throttle_factor: float = 1.0
    game_id: str = "demo_game"
    render_scale: float = 1.0
    texture_tier: int = 3
    effects_tier: int = 3
    aa_tier: int = 3
    dynamic_range_tier: int = 3
    display_ppi: float | None = None
    battery_capacity_mah: int | None = None

    def __post_init__(self) -> None:
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
            if value is None and field.default is None:
                continue
            if name in _REAL_MODEL_FIELDS and not is_finite(value):
                raise ModelError(f"{name} must be finite, got {value!r}")
            is_int = isinstance(value, int) and not isinstance(value, bool)
            if name in _INT_MODEL_FIELDS and not is_int:
                raise ModelError(f"{name} must be an integer, got {value!r}")
        # `demo` writes a device's sessions to a directory named by its id.
        if not (
            isinstance(self.device_id, str)
            and self.device_id.isprintable()
            and self.device_id not in ("", ".", "..")
            and not set(self.device_id) & set("/\\")
        ):
            raise ModelError(f"device_id must name one directory, got {self.device_id!r}")
        if self.base_frame_time_ms <= 0:
            raise ModelError("base_frame_time_ms must be > 0")
        if self.frame_jitter_sd_ms < 0:
            raise ModelError("frame_jitter_sd_ms must be >= 0")
        if self.throttle_factor < 1:
            raise ModelError("throttle_factor must be >= 1")
        if self.throttle_onset_s is not None and self.throttle_onset_s <= 0:
            raise ModelError("throttle_onset_s must be > 0")
        if self.drain_rate_pct_per_hour < 0:
            raise ModelError("drain_rate_pct_per_hour must be >= 0")
        if self.temp_peak_c < self.temp_start_c:
            raise ModelError("temp_peak_c must be >= temp_start_c")
        if self.touch_latency_ms < 0:
            raise ModelError("touch_latency_ms must be >= 0")
        if self.launch_s < 0:
            raise ModelError("launch_s must be >= 0")


def _frame_times(model: DeviceModel, duration_ms: float) -> tuple[list[int], int]:
    """Frame timestamps and the number of jitter draws they used.

    The scalar definition: starting at t = 0, emit round(t) while
    t < duration_ms - eps, then advance t by max(dt + jitter, 0.001), where
    dt is base_frame_time_ms, times throttle_factor once t >= onset, and
    jitter is one uniform draw (none when frame_jitter_sd_ms is 0). Each
    block below computes the next steps at once and keeps the frames up to
    the first time at or past its limit: the end, or the throttle onset,
    after which the next block uses the throttled dt.
    """
    import numpy as np

    end = duration_ms - _BOUNDARY_EPS_MS
    onset = math.inf if model.throttle_onset_s is None else model.throttle_onset_s * 1000.0
    # Zero-mean uniform noise with sd -> half-width sd * sqrt(3).
    half_width = model.frame_jitter_sd_ms * math.sqrt(3.0)
    lo, hi = -half_width, half_width

    frames: list[int] = []
    used = 0
    t = 0.0
    dt = model.base_frame_time_ms
    limit = min(end, onset)
    while t < end:
        if t >= limit:  # throttle onset reached
            dt = model.base_frame_time_ms * model.throttle_factor
            limit = end
        # Enough steps to reach the limit, plus slack for the jitter.
        n = int(min(_FRAME_BLOCK, (limit - t) / max(dt, _MIN_STEP_MS) + 64))
        times = np.empty(n + 1)
        times[0] = t
        if half_width > 0:
            # In place, but the same operations as max(dt + uniform(lo, hi), floor).
            steps = _block_floats(model.seed, used, n)
            steps *= hi - lo
            steps += lo
            steps += dt
            np.maximum(steps, _MIN_STEP_MS, out=times[1:])
        else:
            times[1:] = max(dt, _MIN_STEP_MS)
        np.cumsum(times, out=times)
        m = int(np.searchsorted(times[:n], limit))  # first time >= limit
        if half_width > 0:
            used += m
        t = float(times[m])
        # np.rint rounds halves to even, as round() does.
        frames += np.rint(times[:m]).astype(np.int64).tolist()
    return frames, used


def generate_session(model: DeviceModel, duration_s: float) -> SessionTelemetry:
    """Generate one session of the given duration; deterministic per seed.

    The output always satisfies every telemetry invariant.
    """
    if not (is_finite(duration_s) and duration_s * 1000.0 < _MAX_DURATION_MS):
        raise ModelError(
            f"duration_s must be finite and below {_MAX_DURATION_MS / 1000.0:g} s, "
            f"got {duration_s!r}"
        )
    if duration_s < MIN_DURATION_S:
        raise ModelError(f"duration must be >= {MIN_DURATION_S:.0f} s, got {duration_s}")
    duration_ms = duration_s * 1000.0
    frames, used = _frame_times(model, duration_ms)

    battery = []
    t_ms = 0
    while t_ms <= duration_ms:
        level = 100.0 - model.drain_rate_pct_per_hour * (t_ms / 3_600_000.0)
        battery.append(BatterySample(t_ms, max(0.0, level)))
        t_ms += BATTERY_SAMPLE_PERIOD_MS

    saturation_s = duration_s
    if model.throttle_onset_s is not None:
        saturation_s = min(3.0 * model.throttle_onset_s, duration_s)
    temperature = []
    t_ms = 0
    while t_ms <= duration_ms:
        frac = min(1.0, (t_ms / 1000.0) / saturation_s)
        value = model.temp_start_c + (model.temp_peak_c - model.temp_start_c) * frac
        temperature.append(TempSample(t_ms, value, "soc"))
        t_ms += TEMP_SAMPLE_PERIOD_MS

    # One latency draw per touch, right after the frame-jitter draws.
    touch_times = range(TOUCH_PERIOD_MS, int(duration_ms) + 1, TOUCH_PERIOD_MS)
    lo, hi = -TOUCH_JITTER_FRACTION, TOUCH_JITTER_FRACTION
    jitter = lo + (hi - lo) * _block_floats(model.seed, used, len(touch_times))
    latencies = model.touch_latency_ms * (1.0 + jitter)
    touch = zip(touch_times, latencies.tolist())

    return SessionTelemetry(
        schema_version=1,
        device=DeviceMeta(
            device_id=model.device_id,
            battery_capacity_mah=model.battery_capacity_mah,
            display_ppi=model.display_ppi,
        ),
        settings=GameSettings(
            game_id=model.game_id,
            render_scale=model.render_scale,
            texture_tier=model.texture_tier,
            effects_tier=model.effects_tier,
            aa_tier=model.aa_tier,
            dynamic_range_tier=model.dynamic_range_tier,
        ),
        frames=frames,
        battery=battery,
        temperature=temperature,
        touch=touch,
        launch=LaunchEvent(0, round(model.launch_s * 1000.0)),
    )


# --- corpus manifests --------------------------------------------------


@dataclass(frozen=True)
class CorpusDevice:
    model: DeviceModel
    sessions: int
    session_duration_s: float


def _model_from_json(obj: dict, where: str) -> DeviceModel:
    kwargs = {
        name: read(require(obj, name, where), f"{where}.{name}")
        for name, read in _MODEL_FIELDS.items()
    }
    for name, read in _OPTIONAL_MODEL_FIELDS.items():
        if obj.get(name) is not None:
            kwargs[name] = read(obj[name], f"{where}.{name}")
    unknown = set(obj) - set(_ALL_MODEL_FIELDS)
    if unknown:
        raise SchemaError(f"{where}: unknown model fields {sorted(unknown)}")
    return DeviceModel(**kwargs)


def load_manifest(data: bytes) -> tuple[CorpusDevice, ...]:
    """Parse a corpus manifest (same JSON syntax family as session files)."""
    root = as_obj(decode(data, SchemaError, "manifest"), "top level")
    require_version(root, 1)
    devices = as_list(require(root, "devices", ""), "devices")
    if not devices:
        raise SchemaError("devices: expected a non-empty array")
    corpus = []
    first_index: dict[str, int] = {}
    for i, entry in enumerate(devices):
        where = f"devices[{i}]"
        entry = as_obj(entry, where)
        sessions = as_int(require(entry, "sessions", where), f"{where}.sessions")
        if sessions < 1:
            raise SchemaError(f"{where}.sessions: expected positive integer")
        duration = as_real(
            require(entry, "session_duration_s", where), f"{where}.session_duration_s"
        )
        at = f"{where}.model"
        model = _model_from_json(as_obj(require(entry, "model", where), at), at)
        if model.device_id in first_index:
            raise SchemaError(
                f"{where}.model.device_id: {model.device_id!r} already used by "
                f"devices[{first_index[model.device_id]}]"
            )
        first_index[model.device_id] = i
        corpus.append(
            CorpusDevice(model=model, sessions=sessions, session_duration_s=float(duration))
        )
    return tuple(corpus)


def default_demo_manifest() -> tuple[CorpusDevice, ...]:
    """The shipped 9-device demo corpus manifest."""
    return load_manifest(files("gpindex.data").joinpath("demo_manifest.json").read_bytes())


def generate_corpus(
    corpus: tuple[CorpusDevice, ...] | list[CorpusDevice],
) -> dict[str, list[SessionTelemetry]]:
    """Generate every session of a corpus; session i uses seed + i."""
    out: dict[str, list[SessionTelemetry]] = {}
    for device in corpus:
        sessions = []
        for i in range(device.sessions):
            model = replace(device.model, seed=device.model.seed + i)
            sessions.append(generate_session(model, device.session_duration_s))
        out[device.model.device_id] = sessions
    return out
