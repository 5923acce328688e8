"""Session telemetry data model and parser.

One gameplay session is one structured-text (JSON) document holding
device/game metadata plus time-stamped event streams: frame-present
timestamps, battery level, temperature, touch latency and scene loads.
Timestamps are session-relative integer milliseconds.

Parsing is total over the error taxonomy: any byte string yields either
a fully validated :class:`SessionTelemetry` or exactly one of
``SessionSyntaxError`` / ``SchemaError`` / ``ValidationError``. The
document is decoded and its fields read by :mod:`gpindex.jsondoc`, so
reals must be finite and integers must fit in int64. Frame timestamps
must also lie strictly within +/-2**53 ms, where every integer is exact
as a float64, so frame intervals are the same whether taken in integers
or in floats.

Fast path and fallback: each event stream is checked in bulk first,
with one C-level pass per column for element types and ranges
(``set(map(type, xs))``, ``min``/``max``) and one per stream for
timestamp order (``all(map(operator.le, xs, xs[1:]))``). Only when a
bulk check fails is the stream walked element by element, and that walk
alone decides the outcome and names the first offending entry, e.g.
``events.frames[N]: expected integer, got float`` or ``frames not
non-decreasing at t=...ms``. The bulk checks never accept what the walk
would reject, so a valid stream is never walked and every diagnostic is
the walk's. The per-sample battery, touch-latency and scene-load
invariants are few-sample streams and are walked directly.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import islice, starmap
from operator import itemgetter, le
from typing import Any, NamedTuple, Sequence

from .errors import (
    EmptyInputError,
    SchemaError,
    SessionSyntaxError,
    ValidationError,
)
from .jsondoc import (
    INT64_MAX,
    INT64_MIN,
    as_int,
    as_list,
    as_obj,
    as_pair,
    as_real,
    as_str,
    decode,
    require,
    require_version,
)

SCHEMA_VERSION = 1

# Battery level may wobble upward by at most this much between consecutive
# samples (sensor noise); anything larger means the device was charging.
BATTERY_RISE_TOLERANCE_PP = 0.5

GAME_TIER_FIELDS = ("texture_tier", "effects_tier", "aa_tier", "dynamic_range_tier")

# Frame timestamps lie strictly between -FRAME_LIMIT_MS and FRAME_LIMIT_MS.
FRAME_LIMIT_MS = 2**53


class UnknownKeyWarning(UserWarning):
    """Emitted when a session document carries keys the schema ignores."""


class LaunchEvent(NamedTuple):
    t_start_ms: int
    t_first_frame_ms: int


class BatterySample(NamedTuple):
    t_ms: int
    level_pct: float


class TempSample(NamedTuple):
    t_ms: int
    value_c: float
    sensor: str


class TouchEvent(NamedTuple):
    t_ms: int
    latency_ms: float


class SceneLoad(NamedTuple):
    t_start_ms: int
    t_end_ms: int


@dataclass(frozen=True)
class DeviceMeta:
    """Identity and display/battery properties of the recorded device."""

    device_id: str
    battery_capacity_mah: int | None = None
    display_ppi: float | None = None
    display_resolution: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ValidationError("device_id must be non-empty")
        if self.battery_capacity_mah is not None and self.battery_capacity_mah <= 0:
            raise ValidationError("battery_capacity_mah must be positive")
        if self.display_ppi is not None and not self.display_ppi > 0:
            raise ValidationError("display_ppi must be positive")
        if self.display_resolution is not None:
            object.__setattr__(self, "display_resolution", tuple(self.display_resolution))
            w, h = self.display_resolution
            if w <= 0 or h <= 0:
                raise ValidationError("display_resolution must be positive")


@dataclass(frozen=True)
class GameSettings:
    """In-game rendering settings active during the session."""

    game_id: str
    render_scale: float
    texture_tier: int
    effects_tier: int
    aa_tier: int
    dynamic_range_tier: int

    def __post_init__(self) -> None:
        if not self.game_id:
            raise ValidationError("game_id must be non-empty")
        if not 0 < self.render_scale <= 1:
            raise ValidationError(
                f"render_scale must be in (0, 1], got {self.render_scale}"
            )
        for name in GAME_TIER_FIELDS:
            tier = getattr(self, name)
            if tier not in (0, 1, 2, 3):
                raise ValidationError(f"{name} must be in 0..3, got {tier}")

    @property
    def tiers(self) -> tuple[int, int, int, int]:
        return (self.texture_tier, self.effects_tier, self.aa_tier, self.dynamic_range_tier)


@dataclass(frozen=True)
class SessionTelemetry:
    """One recorded gameplay session, fully validated.

    All event streams are immutable and sorted (non-decreasing in t);
    the constructor enforces every invariant, so any instance that
    exists is valid.
    """

    schema_version: int
    device: DeviceMeta
    settings: GameSettings
    frames: tuple[int, ...]
    battery: tuple[BatterySample, ...] = ()
    temperature: tuple[TempSample, ...] = ()
    touch: tuple[TouchEvent, ...] = ()
    scene_loads: tuple[SceneLoad, ...] = ()
    launch: LaunchEvent | None = None

    def __post_init__(self) -> None:
        # The one place events are built: parse_session hands over checked rows.
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "battery", tuple(starmap(BatterySample, self.battery)))
        object.__setattr__(self, "temperature", tuple(starmap(TempSample, self.temperature)))
        object.__setattr__(self, "touch", tuple(starmap(TouchEvent, self.touch)))
        object.__setattr__(self, "scene_loads", tuple(starmap(SceneLoad, self.scene_loads)))
        if self.launch is not None:
            object.__setattr__(self, "launch", LaunchEvent(*self.launch))
        self._validate()

    def _validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ValidationError(
                f"schema_version must be {SCHEMA_VERSION}, got {self.schema_version}"
            )
        if len(self.frames) < 2:
            raise ValidationError("frames must contain at least 2 timestamps")
        i = _first_decrease(self.frames)
        if i is not None:
            raise ValidationError(f"frames not non-decreasing at t={self.frames[i]}ms")
        if self.duration_ms <= 0:
            raise ValidationError("session duration (last frame - first frame) must be > 0")

        prev_sample: BatterySample | None = None
        for sample in self.battery:
            if not 0 <= sample.level_pct <= 100:
                raise ValidationError(
                    f"battery level out of [0, 100] at t={sample.t_ms}ms"
                )
            if prev_sample is not None:
                if sample.t_ms < prev_sample.t_ms:
                    raise ValidationError(f"battery not non-decreasing in t at t={sample.t_ms}ms")
                if sample.level_pct > prev_sample.level_pct + BATTERY_RISE_TOLERANCE_PP:
                    raise ValidationError(
                        f"battery increased by >{BATTERY_RISE_TOLERANCE_PP}pp "
                        f"at t={sample.t_ms}ms (charging sessions are rejected)"
                    )
            prev_sample = sample

        for name, stream in (("temperature", self.temperature), ("touch", self.touch)):
            i = _first_decrease(list(map(itemgetter(0), stream)))
            if i is not None:
                raise ValidationError(f"{name} not non-decreasing in t at t={stream[i][0]}ms")
            for t_ms, value, *_ in stream:  # a session built directly skips the parser
                if not math.isfinite(value):
                    raise ValidationError(f"non-finite {name} value at t={t_ms}ms")

        for event in self.touch:
            if event.latency_ms < 0:
                raise ValidationError(f"negative touch latency at t={event.t_ms}ms")

        prev_start: int | None = None
        for load in self.scene_loads:
            if load.t_end_ms < load.t_start_ms:
                raise ValidationError(
                    f"scene_load ends before it starts at t={load.t_start_ms}ms"
                )
            if prev_start is not None and load.t_start_ms < prev_start:
                raise ValidationError(
                    f"scene_loads not non-decreasing in t at t={load.t_start_ms}ms"
                )
            prev_start = load.t_start_ms

        if self.launch is not None and self.launch.t_first_frame_ms < self.launch.t_start_ms:
            raise ValidationError("launch t_first_frame must be >= t_start")

    @property
    def duration_ms(self) -> int:
        return self.frames[-1] - self.frames[0]


def _first_decrease(ts: Sequence) -> int | None:
    """Index of the first element below its predecessor, or None."""
    if all(map(le, ts, islice(ts, 1, None))):
        return None
    return next((i for i in range(1, len(ts)) if ts[i] < ts[i - 1]), None)


# --- parsing -----------------------------------------------------------

_TOP_KEYS = {"schema_version", "device", "game", "events"}
_DEVICE_KEYS = {"device_id", "battery_capacity_mah", "display_ppi", "display_resolution"}
_GAME_KEYS = {"game_id", "render_scale"} | set(GAME_TIER_FIELDS)
_EVENT_KEYS = {"launch", "frames", "battery", "temperature", "touch", "scene_loads"}


def _warn_unknown(obj: dict, known: set[str], path: str) -> None:
    # The warning names parse_session's caller: parse_session checks the
    # top level itself and each section one call deeper, in _parse_<section>.
    level = 4 if path else 3
    for key in obj:
        if key not in known:
            where = f"{path}.{key}" if path else key
            warnings.warn(f"ignoring unknown key '{where}'", UnknownKeyWarning, stacklevel=level)


def _opt_list(obj: dict, key: str, where: str) -> list:
    value = obj.get(key)
    if value is None:  # absent and explicit null both mean "not recorded"
        return []
    return as_list(value, where)


# Bulk column checks: each returns the column, with reals as floats, when
# every element passes, and None otherwise. None sends the whole
# stream to the element-by-element walk, which names the first bad entry.


def _int_column(xs: list, lo: int = INT64_MIN, hi: int = INT64_MAX) -> list | None:
    if not set(map(type, xs)) <= {int}:
        return None
    return xs if not xs or (lo <= min(xs) and max(xs) <= hi) else None


def _real_column(xs: list) -> list | None:
    kinds = set(map(type, xs))
    if not kinds <= {int, float}:
        return None
    if int in kinds:
        try:
            xs = list(map(float, xs))
        except OverflowError:
            return None
    return xs if all(map(math.isfinite, xs)) else None


def _str_column(xs: list) -> list | None:
    return xs if set(map(type, xs)) <= {str} else None


_COLUMN_CHECKS = {"int": _int_column, "real": _real_column, "str": _str_column}


def _parse_rows(obj: dict, key: str, kinds: tuple[str, ...]) -> list:
    """Rows of the fixed-width event stream ``key``, one column kind per field."""
    where = f"events.{key}"
    rows = _opt_list(obj, key, where)
    width = len(kinds)
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        columns = [
            _COLUMN_CHECKS[kind](list(map(itemgetter(j), rows))) for j, kind in enumerate(kinds)
        ]
        if all(column is not None for column in columns):
            return list(zip(*columns))
    walkers = [{"int": as_int, "real": as_real, "str": as_str}[kind] for kind in kinds]
    checked = []
    for i, entry in enumerate(rows):
        at = f"{where}[{i}]"
        row = as_list(entry, at)
        if len(row) != width:
            raise SchemaError(f"{at}: expected a {width}-element array")
        checked.append(tuple(walk(row[j], f"{at}[{j}]") for j, walk in enumerate(walkers)))
    return checked


def _as_frame(value: Any, where: str) -> int:
    t = as_int(value, where)
    if not -FRAME_LIMIT_MS < t < FRAME_LIMIT_MS:
        raise SchemaError(f"{where}: frame timestamp outside +/-2**53 ms")
    return t


def _parse_device(obj: dict) -> DeviceMeta:
    _warn_unknown(obj, _DEVICE_KEYS, "device")
    device_id = as_str(require(obj, "device_id", "device"), "device.device_id")
    capacity = obj.get("battery_capacity_mah")
    if capacity is not None:
        capacity = as_int(capacity, "device.battery_capacity_mah")
    ppi = obj.get("display_ppi")
    if ppi is not None:
        ppi = float(as_real(ppi, "device.display_ppi"))
    resolution = obj.get("display_resolution")
    if resolution is not None:
        resolution = as_pair(resolution, "device.display_resolution", as_int)
    return DeviceMeta(device_id, capacity, ppi, resolution)


def _parse_game(obj: dict) -> GameSettings:
    _warn_unknown(obj, _GAME_KEYS, "game")
    kwargs: dict[str, Any] = {
        "game_id": as_str(require(obj, "game_id", "game"), "game.game_id"),
        "render_scale": float(as_real(require(obj, "render_scale", "game"), "game.render_scale")),
    }
    for name in GAME_TIER_FIELDS:
        kwargs[name] = as_int(require(obj, name, "game"), f"game.{name}")
    return GameSettings(**kwargs)


def _parse_events(obj: dict) -> dict[str, Any]:
    _warn_unknown(obj, _EVENT_KEYS, "events")
    frames = as_list(require(obj, "frames", "events"), "events.frames")
    if _int_column(frames, 1 - FRAME_LIMIT_MS, FRAME_LIMIT_MS - 1) is None:
        frames = [_as_frame(v, f"events.frames[{i}]") for i, v in enumerate(frames)]

    launch = None
    if obj.get("launch") is not None:
        launch = as_pair(obj["launch"], "events.launch", as_int)

    return {
        "frames": tuple(frames),
        "launch": launch,
        "battery": _parse_rows(obj, "battery", ("int", "real")),
        "temperature": _parse_rows(obj, "temperature", ("int", "real", "str")),
        "touch": _parse_rows(obj, "touch", ("int", "real")),
        "scene_loads": _parse_rows(obj, "scene_loads", ("int", "int")),
    }


def parse_session(data: bytes) -> SessionTelemetry:
    """Parse and validate one session document.

    Raises ``SessionSyntaxError`` for malformed text, ``SchemaError`` for
    missing/mistyped fields (naming the field path) and ``ValidationError``
    for invariant violations (naming the invariant).
    """
    root = as_obj(decode(data, SessionSyntaxError, "session document"), "top level")
    _warn_unknown(root, _TOP_KEYS, "")
    version = require_version(root, SCHEMA_VERSION)
    device = _parse_device(as_obj(require(root, "device", ""), "device"))
    settings = _parse_game(as_obj(require(root, "game", ""), "game"))
    events = _parse_events(as_obj(require(root, "events", ""), "events"))
    return SessionTelemetry(
        schema_version=version, device=device, settings=settings, **events
    )


# --- comparability -----------------------------------------------------

# Fields a fair cross-device comparison controls for. Session length and
# general device settings are deliberately not checked here.
COMPARABILITY_FIELDS = ("game_id",) + GAME_TIER_FIELDS


class ComparabilityFlag(NamedTuple):
    session_index: int
    field: str
    value: Any
    modal: Any


@dataclass(frozen=True)
class ComparabilityReport:
    flags: tuple[ComparabilityFlag, ...]

    @property
    def ok(self) -> bool:
        return not self.flags


def validate_comparability(sessions: Sequence[SessionTelemetry]) -> ComparabilityReport:
    """Flag sessions whose game or settings tiers differ from the modal values.

    Purely advisory: nothing is mutated or rejected. Modal ties break
    toward the smallest value so the report is deterministic.
    """
    if not sessions:
        raise EmptyInputError("validate_comparability requires at least one session")
    flags = []
    for field_name in COMPARABILITY_FIELDS:
        values = [getattr(s.settings, field_name) for s in sessions]
        counts = Counter(values)
        modal = min(counts, key=lambda v: (-counts[v], v))
        for i, value in enumerate(values):
            if value != modal:
                flags.append(ComparabilityFlag(i, field_name, value, modal))
    flags.sort(key=lambda f: (f.session_index, f.field))
    return ComparabilityReport(tuple(flags))
