"""Synthetic session generator.

Generates telemetry from a parametric device model whose true values are
known in closed form, so the extraction pipeline can be checked against
ground truth, and ships the demo corpus manifest used for the example
device comparison. A model's mistyped parameter is a ``SchemaError``, a
broken model a ``ModelError``, and a bad manifest is refused when it
loads, before any session is generated.

Randomness comes from SplitMix64, a fixed 64-bit generator simple enough
to reimplement bit-exactly anywhere, which keeps generated fixtures and
golden files portable. Draw order per session is fixed: one frame-jitter
draw per interval (none when frame_jitter_sd_ms is 0), then one latency
draw per touch event. Importing this module, as the CLI does for every
command, does not load numpy: the functions that use it import it.
"""

from __future__ import annotations

import math
from collections import Counter
from importlib.resources import files
from typing import TYPE_CHECKING, Any

from .errors import ModelError, SchemaError, ValidationError
from .jsondoc import (
    Record, as_int, as_list, as_obj, as_real, asdict, build_record, check_record, decode, fields,
    is_file_name, is_finite, replace, require, require_version,
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
    """Draws skip+1 .. skip+n of SplitMix64(seed), each as its top 53 bits times 2**-53.

    Draw k is mix((seed + k*gamma) mod 2**64), and uint64 arithmetic wraps as the scalar mask does.
    """
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


class DeviceModel(Record):
    """Parametric ground truth for one synthetic device.

    Frame intervals are base_frame_time_ms plus zero-mean uniform noise
    with standard deviation frame_jitter_sd_ms, inflated by
    throttle_factor once the session passes throttle_onset_s. The records
    every generated session carries, ``settings`` (:class:`GameSettings`)
    and ``device`` (:class:`DeviceMeta`), are built once, by their own rules.
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
        check_record(self)
        # `demo` writes a device's sessions to a directory named by its id.
        if not is_file_name(self.device_id):
            raise ModelError(f"device_id must name one directory, got {self.device_id!r}")
        object.__setattr__(self, "settings", self._record(GameSettings))
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
        object.__setattr__(self, "device", self._record(DeviceMeta))

    def _record(self, record: type) -> Any:
        """``record`` built from the parameters named as its fields; its rules raise ModelError."""
        try:
            return record(**{k: v for k, v in asdict(self).items() if k in fields(record)})
        except ValidationError as exc:
            raise ModelError(str(exc)) from exc


def _frame_times(model: DeviceModel, duration_ms: float) -> tuple[list[int], Counter, int]:
    """Frame timestamps, the histogram of their intervals and the number of jitter draws used.

    The scalar definition: starting at t = 0, emit round(t) while
    t < duration_ms - eps, then advance t by max(dt + jitter, 0.001), where
    dt is base_frame_time_ms, times throttle_factor once t >= onset, and
    jitter is one uniform draw (none when frame_jitter_sd_ms is 0). Each
    block below takes the next steps at once, and its cumulative sum adds
    left to right as ``t += step`` does, so the frames equal the scalar
    definition bit for bit (the test suite keeps it as the oracle). The
    histogram (``SessionTelemetry.frame_intervals``) is counted per block.
    """
    import numpy as np

    end = duration_ms - _BOUNDARY_EPS_MS
    onset = math.inf if model.throttle_onset_s is None else model.throttle_onset_s * 1000.0
    # Zero-mean uniform noise with sd -> half-width sd * sqrt(3).
    half_width = model.frame_jitter_sd_ms * math.sqrt(3.0)
    lo, hi = -half_width, half_width

    frames: list[int] = []
    intervals: Counter = Counter()
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
        block = np.rint(times[:m]).astype(np.int64)
        if frames:
            intervals[int(block[0]) - frames[-1]] += 1
        keys, counts = np.unique(np.diff(block), return_counts=True)
        intervals.update(dict(zip(keys.tolist(), counts.tolist())))
        frames += block.tolist()
    return frames, intervals, used


def _check_duration(duration_s: float) -> None:
    """Raise ModelError unless a session of ``duration_s`` seconds can be generated."""
    if not (is_finite(duration_s) and duration_s * 1000.0 < _MAX_DURATION_MS):
        raise ModelError(
            f"duration_s must be finite and below {_MAX_DURATION_MS / 1000.0:g} s, "
            f"got {duration_s!r}"
        )
    if duration_s < MIN_DURATION_S:
        raise ModelError(f"duration must be >= {MIN_DURATION_S:.0f} s, got {duration_s}")


def generate_session(model: DeviceModel, duration_s: float) -> SessionTelemetry:
    """Generate one session of the given duration; deterministic per seed.

    The output always satisfies every telemetry invariant.
    """
    _check_duration(duration_s)
    duration_ms = duration_s * 1000.0
    frames, intervals, used = _frame_times(model, duration_ms)

    drain = model.drain_rate_pct_per_hour
    battery = [
        BatterySample(t_ms, max(0.0, 100.0 - drain * (t_ms / 3_600_000.0)))
        for t_ms in range(0, int(duration_ms) + 1, BATTERY_SAMPLE_PERIOD_MS)
    ]

    saturation_s = duration_s
    if model.throttle_onset_s is not None:
        saturation_s = min(3.0 * model.throttle_onset_s, duration_s)
    start, rise = model.temp_start_c, model.temp_peak_c - model.temp_start_c
    temperature = [
        TempSample(t_ms, start + rise * min(1.0, (t_ms / 1000.0) / saturation_s), "soc")
        for t_ms in range(0, int(duration_ms) + 1, TEMP_SAMPLE_PERIOD_MS)
    ]

    # One latency draw per touch, right after the frame-jitter draws.
    touch_times = range(TOUCH_PERIOD_MS, int(duration_ms) + 1, TOUCH_PERIOD_MS)
    lo, hi = -TOUCH_JITTER_FRACTION, TOUCH_JITTER_FRACTION
    jitter = lo + (hi - lo) * _block_floats(model.seed, used, len(touch_times))
    latencies = model.touch_latency_ms * (1.0 + jitter)
    touch = list(zip(touch_times, latencies.tolist()))

    return SessionTelemetry._with_intervals(
        intervals,
        schema_version=1,
        device=model.device,
        settings=model.settings,
        frames=frames,
        battery=battery,
        temperature=temperature,
        touch=touch,
        launch=LaunchEvent(0, round(model.launch_s * 1000.0)),
    )


# --- corpus manifests --------------------------------------------------


class CorpusDevice(Record):
    model: DeviceModel
    sessions: int
    session_duration_s: float


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
        _check_duration(duration)
        at = f"{where}.model"
        obj = as_obj(require(entry, "model", where), at)
        unknown = set(obj) - set(fields(DeviceModel))
        if unknown:
            raise SchemaError(f"{at}: unknown model fields {sorted(unknown)}")
        model = build_record(DeviceModel, obj, at)
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
    """Generate every session of a corpus; session i uses seed + i wrapped into int64, which
    SplitMix64 reads as the same seed mod 2**64."""
    out: dict[str, list[SessionTelemetry]] = {}
    for device in corpus:
        sessions = []
        for i in range(device.sessions):
            model = replace(device.model, seed=(device.model.seed + i + 2**63) % 2**64 - 2**63)
            sessions.append(generate_session(model, device.session_duration_s))
        out[device.model.device_id] = sessions
    return out
