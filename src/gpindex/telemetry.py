"""Session telemetry data model and parser.

One gameplay session is one JSON document holding device/game metadata
plus time-stamped event streams: frame-present timestamps, battery
level, temperature, touch latency and scene loads. Timestamps are
session-relative integer milliseconds. Fields are read by
:mod:`gpindex.jsondoc`'s rules (reals finite, integers within int64), by
one check whether the session is parsed (:func:`parse_session`) or built
directly (:class:`SessionTelemetry`). Frame timestamps must also be ints
strictly within +/-2**53 ms, where every integer is exact as a float64,
so frame intervals are the same whether taken in integers or in floats.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import repeat, takewhile
from operator import ge, itemgetter, le, mul, sub
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
    Record,
    as_int,
    as_list,
    as_obj,
    as_real,
    as_row,
    as_str,
    build_record,
    check_record,
    decode,
    fields,
    is_utf8,
    reader,
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

# Frame intervals are counted and checked in blocks of this many.
_FRAME_BLOCK = 1 << 12


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


# A session's row streams, and each row's column readers by declared type.
_ROW_STREAMS = {
    "battery": BatterySample, "temperature": TempSample, "touch": TouchEvent, "scene_loads": SceneLoad
}
_COLUMNS = {
    row: tuple(map(reader, row.__annotations__.values()))
    for row in (LaunchEvent, *_ROW_STREAMS.values())
}


class DeviceMeta(Record):
    """Identity and display/battery properties of the recorded device."""

    device_id: str
    battery_capacity_mah: int | None = None
    display_ppi: float | None = None
    display_resolution: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        check_record(self)
        if not self.device_id:
            raise ValidationError("device_id must be non-empty")
        if self.battery_capacity_mah is not None and self.battery_capacity_mah <= 0:
            raise ValidationError("battery_capacity_mah must be positive")
        if self.display_ppi is not None and not self.display_ppi > 0:
            raise ValidationError("display_ppi must be positive")
        if self.display_resolution is not None and min(self.display_resolution) <= 0:
            raise ValidationError("display_resolution must be positive")


class GameSettings(Record):
    """In-game rendering settings active during the session."""

    game_id: str
    render_scale: float
    texture_tier: int
    effects_tier: int
    aa_tier: int
    dynamic_range_tier: int

    def __post_init__(self) -> None:
        check_record(self)
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


class SessionTelemetry(Record):
    """One recorded gameplay session, fully validated.

    The constructor enforces every invariant, for every build (parsed,
    generated or direct), so any instance that exists is valid. Event
    streams are tuples of their row NamedTuples, sorted in t; a bad entry
    raises the parser's ``SchemaError``, e.g. ``frames[1]: expected
    integer, got float`` (the parser adds ``events.``).

    ``frame_intervals`` is the histogram of the intervals ``b - a`` between
    consecutive frames, derived and so not a field. The constructor and
    ``replace`` count it with the parser's frame check, :func:`_parse_frames`.
    A producer that counts it while making the frames (the parser,
    ``synth.generate_session``) hands it over through the private entry
    :meth:`_with_intervals` instead, and vouches for the frames: it is checked
    in time proportional to its distinct intervals (the counts sum to
    ``len(frames) - 1``, the intervals to the span).
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

    @classmethod
    def _with_intervals(cls, frame_intervals: Counter, **kwargs: Any) -> SessionTelemetry:
        """The session of ``kwargs`` with its producer's histogram of its frames."""
        session = cls.__new__(cls)
        object.__setattr__(session, "frame_intervals", frame_intervals)
        session.__init__(**kwargs)
        return session

    def __post_init__(self) -> None:
        # The one place events are read: parse_session hands its rows over unread.
        object.__setattr__(self, "frames", tuple(as_list(self.frames, "frames")))
        handed_over = "frame_intervals" in self.__dict__
        if not handed_over:
            # _parse_frames proves ints through bytes(), which takes numpy integers too;
            # a JSON value is never one, so the parser skips this pass.
            if not all(map(isinstance, self.frames, repeat(int))):  # e.g. a numpy scalar
                for i, t in enumerate(self.frames):
                    _as_frame(t, f"frames[{i}]")  # raises at the first frame not an int
            object.__setattr__(self, "frame_intervals", _parse_frames(self.frames, "frames"))
        if self.launch is not None:
            launch = as_row(self.launch, "launch", _COLUMNS[LaunchEvent])
            object.__setattr__(self, "launch", LaunchEvent(*launch))
        for name, row in _ROW_STREAMS.items():
            object.__setattr__(self, name, _parse_rows(getattr(self, name), row, name))
        self._validate(handed_over)

    def _validate(self, handed_over: bool) -> None:
        if type(self.schema_version) is not int or self.schema_version != SCHEMA_VERSION:
            raise ValidationError(
                f"schema_version must be {SCHEMA_VERSION}, got {self.schema_version}"
            )
        if len(self.frames) < 2:
            raise ValidationError("frames must contain at least 2 timestamps")
        intervals = self.frame_intervals
        if handed_over and (
            sum(intervals.values()) != len(self.frames) - 1
            or sum(map(mul, intervals, intervals.values())) != self.duration_ms
        ):
            raise ValidationError("frame interval histogram does not match frames")
        if min(intervals) < 0:
            i = _first_decrease(self.frames)
            raise ValidationError(f"frames not non-decreasing at t={self.frames[i]}ms")
        if self.duration_ms <= 0:
            raise ValidationError("session duration (last frame - first frame) must be > 0")

        # Time order first: a stream out of order is named before any row value.
        # The value rules below walk their rows: these streams hold few samples.
        for name in _ROW_STREAMS:
            stream = getattr(self, name)
            i = _first_decrease(list(map(itemgetter(0), stream)))
            if i is not None:
                raise ValidationError(f"{name} not non-decreasing in t at t={stream[i][0]}ms")

        for prev, sample in zip((None, *self.battery), self.battery):
            if not 0 <= sample.level_pct <= 100:
                raise ValidationError(f"battery level out of [0, 100] at t={sample.t_ms}ms")
            if prev is not None and sample.level_pct > prev.level_pct + BATTERY_RISE_TOLERANCE_PP:
                raise ValidationError(
                    f"battery increased by >{BATTERY_RISE_TOLERANCE_PP}pp "
                    f"at t={sample.t_ms}ms (charging sessions are rejected)"
                )

        for event in self.touch:
            if event.latency_ms < 0:
                raise ValidationError(f"negative touch latency at t={event.t_ms}ms")

        for load in self.scene_loads:
            if load.t_end_ms < load.t_start_ms:
                raise ValidationError(f"scene_load ends before it starts at t={load.t_start_ms}ms")

        if self.launch is not None and self.launch.t_first_frame_ms < self.launch.t_start_ms:
            raise ValidationError("launch t_first_frame must be >= t_start")

    @property
    def duration_ms(self) -> int:
        return self.frames[-1] - self.frames[0]


def _int_head(frames: Sequence) -> bool:
    """Whether the leading frames ``<= 1`` of frames in order are ``int``: only they can be bools."""
    return set(map(type, takewhile(partial(ge, 1), frames))) <= {int}


def _first_decrease(ts: Sequence) -> int | None:
    """Index of the first element below its predecessor, or None.

    Checked in C a block of ``_FRAME_BLOCK`` steps at a time
    (``all(map(le, ...))``); only a block that fails is walked.
    """
    size = _FRAME_BLOCK
    for s in range(0, len(ts) - 1, size):
        starts, ends = ts[s : s + size], ts[s + 1 : s + size + 1]
        if not all(map(le, starts, ends)):  # ints, so some step falls
            return s + 1 + next(i for i, (a, b) in enumerate(zip(starts, ends)) if b < a)
    return None


# --- parsing -----------------------------------------------------------

_TOP_KEYS = {"schema_version", "device", "game", "events"}
_EVENT_KEYS = {"launch", "frames", *_ROW_STREAMS}


def _unknown(obj: dict, known: set[str], path: str) -> list[str]:
    """The paths of ``obj``'s keys outside ``known``."""
    return [f"{path}.{key}" if path else key for key in obj if key not in known]


# Bulk column checks, by the reader the walk takes for the column: each
# returns the column as given, like the walk, when every element passes, and
# None otherwise, which sends the stream to the walk to name the bad entry.


def _int_column(xs: list) -> list | None:
    if not set(map(type, xs)) <= {int}:
        return None
    return xs if not xs or (INT64_MIN <= min(xs) and max(xs) <= INT64_MAX) else None


def _real_column(xs: list) -> list | None:
    if not set(map(type, xs)) <= {int, float}:
        return None
    try:
        return xs if all(map(math.isfinite, xs)) else None
    except OverflowError:  # an int past the float range
        return None


def _str_column(xs: list) -> list | None:
    return xs if set(map(type, xs)) <= {str} and is_utf8("".join(xs)) else None


_COLUMN_CHECKS = {as_int: _int_column, as_real: _real_column, as_str: _str_column}


def _parse_rows(rows: Any, row: type, where: str) -> tuple:
    """The array ``rows`` as ``row`` NamedTuples; a bad entry raises the walk's ``<where>[i][j]: ...``."""
    rows = as_list(rows, where)
    readers = _COLUMNS[row]
    if all(map(isinstance, rows, repeat((list, tuple)))) and set(map(len, rows)) <= {len(readers)}:
        columns = [
            _COLUMN_CHECKS[read](list(map(itemgetter(j), rows))) for j, read in enumerate(readers)
        ]
        if all(column is not None for column in columns):
            return tuple(map(partial(tuple.__new__, row), zip(*columns)))  # as row._make does
    # The walk returns only for a direct build's int, float or str subclasses.
    return tuple(row(*as_row(entry, f"{where}[{i}]", readers)) for i, entry in enumerate(rows))


def _as_frame(value: Any, where: str) -> int:
    t = as_int(value, where)
    if not -FRAME_LIMIT_MS < t < FRAME_LIMIT_MS:
        raise SchemaError(f"{where}: frame timestamp outside +/-2**53 ms")
    return t


def _parse_frames(frames: Sequence, where: str) -> Counter:
    """Check every frame an int within +/-2**53 ms; return the histogram of the intervals.

    One pass over blocks of ``_FRAME_BLOCK`` intervals, so a long frame or
    a fault costs one block. A block whose intervals ``bytes`` takes
    (integers in 0..255 ms; a float has no ``__index__``) holds ints or
    bools in order: only its leading frames that :func:`_int_head` checks
    can be bools, its endpoints bound the rest, and its byte string is
    counted in C. Any other block, or one that fails that check, is walked:
    each frame that is not an int in range goes to the frame rule, which
    names the first bad one, ``<where>[N]: ...``, and the block is counted
    one by one. The byte pass accepts nothing the walk would reject, so
    every diagnostic is the walk's. Out of order or fewer than 2 frames,
    once every frame is in range, the constructor names the fault.
    """
    lo, hi = 1 - FRAME_LIMIT_MS, FRAME_LIMIT_MS - 1
    counts, accepted = Counter(), []
    for s in range(0, max(len(frames) - 1, 1), _FRAME_BLOCK):
        block = frames[s : s + _FRAME_BLOCK + 1]
        try:
            steps = bytes(map(sub, block[1:], block)) if len(block) > 1 else None
        except (TypeError, ValueError, OverflowError):  # not all ints 0..255 ms apart
            steps = None
        if steps is not None and _int_head(block) and lo <= block[0] and block[-1] <= hi:
            accepted.append(steps)
            continue
        for i, v in enumerate(block, s):
            if type(v) is not int or not lo <= v <= hi:
                _as_frame(v, f"{where}[{i}]")  # of these, only an int subclass passes
        counts.update(map(sub, block[1:], block))  # its frames are ints now
    # The byte strings are counted by deleting one distinct interval at a time.
    steps = b"".join(accepted)
    while steps:
        d = steps[0]
        rest = steps.translate(None, bytes((d,)))
        counts[d] += len(steps) - len(rest)
        steps = rest
    return counts


def _parse_record(root: dict, key: str, record: type, unknown: list[str]) -> Any:
    """The section ``key`` built into ``record``, which checks its fields."""
    obj = as_obj(require(root, key, ""), key)
    unknown += _unknown(obj, set(fields(record)), key)
    return build_record(record, obj, key)


def _parse_events(obj: dict, unknown: list[str]) -> dict[str, Any]:
    unknown += _unknown(obj, _EVENT_KEYS, "events")
    frames = as_list(require(obj, "frames", "events"), "events.frames")
    intervals = _parse_frames(frames, "events.frames")
    # The constructor reads launch and the rows; absent and null both mean "not recorded".
    rows = {name: obj[name] for name in _ROW_STREAMS if obj.get(name) is not None}
    return {"frames": frames, "frame_intervals": intervals, "launch": obj.get("launch"), **rows}


def _read_fields(root: Any, unknown: list[str]) -> dict[str, Any]:
    """The constructor's arguments read from ``root``, frames checked; unknown keys go to ``unknown``."""
    root = as_obj(root, "top level")
    unknown += _unknown(root, _TOP_KEYS, "")
    version = require_version(root, SCHEMA_VERSION)
    device = _parse_record(root, "device", DeviceMeta, unknown)
    settings = _parse_record(root, "game", GameSettings, unknown)
    events = _parse_events(as_obj(require(root, "events", ""), "events"), unknown)
    return {"schema_version": version, "device": device, "settings": settings, **events}


def parse_session(data: bytes, unknown: list[str] | None = None) -> SessionTelemetry:
    """Parse and validate one session document.

    Total over the error taxonomy: any bytes give a session or raise exactly
    one of ``SessionSyntaxError`` for malformed text, ``SchemaError`` for
    missing/mistyped fields (naming the field path) and ``ValidationError``
    for invariant violations (naming the invariant). The document is
    decoded by orjson, behind ``jsondoc.MAX_DEPTH``. The schema ignores
    keys it does not know; the path of each one read (``events.replay``)
    is appended to ``unknown`` where the caller passes a list, also when
    the document then fails.
    """
    doc = decode(data, SessionSyntaxError, "session document", fast=True)
    kwargs = _read_fields(doc, [] if unknown is None else unknown)
    try:
        return SessionTelemetry._with_intervals(**kwargs)
    except SchemaError as exc:  # the constructor's SchemaError names an event stream
        raise SchemaError(f"events.{exc}") from exc


# --- comparability -----------------------------------------------------

# Fields a fair cross-device comparison controls for. Session length and
# general device settings are deliberately not checked here.
COMPARABILITY_FIELDS = ("game_id",) + GAME_TIER_FIELDS


class ComparabilityFlag(NamedTuple):
    session_index: int
    field: str
    value: Any
    modal: Any


def validate_comparability(settings: Sequence[GameSettings]) -> tuple[ComparabilityFlag, ...]:
    """Flag sessions whose game or settings tiers differ from the modal values.

    ``settings`` holds each session's :class:`GameSettings`, in session
    order. Purely advisory: nothing is mutated or rejected. Modal ties
    break toward the smallest value so the flags are deterministic.
    """
    if not settings:
        raise EmptyInputError("validate_comparability requires at least one session")
    flags = []
    for field_name in COMPARABILITY_FIELDS:
        values = [getattr(s, field_name) for s in settings]
        counts = Counter(values)
        modal = min(counts, key=lambda v: (-counts[v], v))
        for i, value in enumerate(values):
            if value != modal:
                flags.append(ComparabilityFlag(i, field_name, value, modal))
    flags.sort(key=lambda f: (f.session_index, f.field))
    return tuple(flags)
