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
must also be ints strictly within +/-2**53 ms, where every integer is
exact as a float64, so frame intervals are the same whether taken in
integers or in floats. These rules hold for every session, parsed or
built directly, with each record field and row column read by its
declared type: one check decides each for both and names a bad entry
``events.battery[0][1]`` or ``battery[0][1]``.

Fast path and fallback: each event stream is checked in bulk first,
with one C-level pass per column for element types and ranges
(``set(map(type, xs))``, ``min``/``max``) and one per stream for
timestamp order (``all(map(operator.le, xs, xs[1:]))``). Frames, almost
all of a session's bytes, take a single pass, into the histogram of
their intervals (:func:`frame_intervals`), which the session keeps for
the FPS metrics. That pass goes block by block, ``_FRAME_BLOCK``
intervals at a time, each block a ``bytes`` string built in C whenever
its intervals are integers in 0..255 ms; a block ``bytes`` rejects is
counted one by one, so a long frame or a fault costs one block. The
histogram stands in for the type pass: its keys are exact ints only if
every frame is an int or a bool (a float gives a float interval, which
keeps a key of its own, and any other type raises ``TypeError``), and
then frames are in order iff no interval is negative. In order, a bool
(0 or 1) can only sit among the leading frames ``<= 1``, which alone are
type-checked, and ``frames[0]`` and ``frames[-1]`` bound the rest. Any
other histogram (a float or negative key, fewer than 2 frames, a
``TypeError``) sends the frames through the same rule block by block:
a block ``bytes`` took holds ints or bools in order, so only its leading
frames ``<= 1`` are type-checked and its endpoints bound it; a block
``bytes`` rejected takes a type pass and ``min``/``max``.
Only when a bulk check fails is a stream walked element by element, and
that walk alone decides the outcome and names the first offending entry,
e.g. ``events.frames[N]: expected integer, got float`` or ``frames not
non-decreasing at t=...ms``. The bulk checks never accept what the walk
would reject, so a valid stream is never walked and every diagnostic is
the walk's; a frame walk reads only the first block that fails, and
from it only the first frame the bulk check rejects. The per-sample
battery, touch-latency and scene-load invariants are few-sample streams
and are walked directly.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import InitVar, dataclass, field, fields
from functools import partial
from itertools import repeat, starmap, takewhile
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
    as_int,
    as_list,
    as_obj,
    as_real,
    as_row,
    as_str,
    check_record,
    decode,
    is_finite,
    is_number,
    read_record,
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


# A session's row streams, and each row's column readers by declared type.
_ROW_STREAMS = {
    "battery": BatterySample, "temperature": TempSample, "touch": TouchEvent, "scene_loads": SceneLoad
}
_COLUMNS = {
    row: tuple(map(reader, row.__annotations__.values()))
    for row in (LaunchEvent, *_ROW_STREAMS.values())
}


@dataclass(frozen=True)
class DeviceMeta:
    """Identity and display/battery properties of the recorded device."""

    device_id: str
    battery_capacity_mah: int | None = None
    display_ppi: float | None = None
    display_resolution: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        check_record(self, ValidationError)  # each field holds what the parser reads
        if not self.device_id:
            raise ValidationError("device_id must be non-empty")
        if self.battery_capacity_mah is not None and self.battery_capacity_mah <= 0:
            raise ValidationError("battery_capacity_mah must be positive")
        if self.display_ppi is not None and not self.display_ppi > 0:
            raise ValidationError("display_ppi must be positive")
        if self.display_resolution is not None and min(self.display_resolution) <= 0:
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
        check_record(self, ValidationError)  # each field holds what the parser reads
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
    exists is valid. ``frame_intervals`` is derived from ``frames`` (see
    :func:`frame_intervals`) and takes no part in eq or repr. Its two
    producers hand it over through ``_intervals``: the parser, which
    counts it while checking the frames, and ``synth.generate_session``,
    which counts it from its numpy frame blocks. A handed-over histogram
    is checked against ``frames`` in time proportional to its distinct
    intervals (the counts sum to ``len(frames) - 1`` and the intervals to
    ``frames[-1] - frames[0]``), and the frames and rows are trusted,
    except that a non-finite temperature or touch value raises for every
    build. Every other build checks its frames and rows as the parser does and
    raises the parser's ``SchemaError``, e.g. ``frames[1]: expected
    integer, got float`` or ``battery[0][1]: expected number, got str``.
    Its frames first take one C-level ``isinstance`` pass, since the
    parser's pass proves ints through ``bytes``, which takes numpy
    integers too; a JSON value is never one, so the parser skips it.
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
    _intervals: InitVar[Counter | None] = None  # a producer's histogram of these frames
    frame_intervals: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self, _intervals: Counter | None) -> None:
        # The one place events are built: parse_session hands over checked rows.
        object.__setattr__(self, "frames", tuple(self.frames))
        for name in _ROW_STREAMS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # Every build: a value the row readers call non-finite is an invariant
        # named by its t (a producer's overflow too), ahead of the row check.
        for name in ("temperature", "touch"):
            for entry in getattr(self, name):
                if isinstance(entry, (list, tuple)) and len(entry) > 1:
                    if is_number(entry[1]) and not is_finite(entry[1]):
                        raise ValidationError(f"non-finite {name} value at t={entry[0]}ms")
        handed_over = _intervals is not None
        if not handed_over:
            if not all(map(isinstance, self.frames, repeat(int))):  # e.g. a numpy scalar
                for i, t in enumerate(self.frames):
                    _as_frame(t, f"frames[{i}]")  # raises at the first frame not an int
            _intervals = _parse_frames(self.frames, "frames")
            if self.launch is not None:
                as_row(self.launch, "launch", _COLUMNS[LaunchEvent])
            for name, row in _ROW_STREAMS.items():
                _parse_rows(getattr(self, name), row, name)
        object.__setattr__(self, "frame_intervals", _intervals)
        for name, row in _ROW_STREAMS.items():
            object.__setattr__(self, name, tuple(starmap(row, getattr(self, name))))
        if self.launch is not None:
            object.__setattr__(self, "launch", LaunchEvent(*self.launch))
        self._validate(handed_over)

    def _validate(self, handed_over: bool) -> None:
        if self.schema_version != SCHEMA_VERSION:
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


class _Intervals(Counter):
    """A :func:`frame_intervals` histogram, with the blocks ``bytes`` rejected.

    ``rejected`` holds the first interval index of each such block.
    """

    rejected: frozenset = frozenset()


def frame_intervals(frames: Sequence[int]) -> Counter:
    """Histogram of the intervals ``b - a`` between consecutive frame timestamps.

    The intervals are taken in blocks of ``_FRAME_BLOCK``. A block whose
    intervals are all integers in 0..255 ms (any stretch that never drops
    below 4 FPS) becomes a ``bytes`` string in C; the joined strings are
    counted by deleting one distinct interval at a time. Any other
    interval makes ``bytes`` raise, and that block alone is counted one
    by one. When no interval is negative, every key is an ``int`` only if
    every interval is an integer: ``bytes`` takes integers alone, and the
    non-int intervals of every rejected block are counted before any int
    one, so a float interval equal to an int one (16.0 and 16) keeps a
    key of its own type. The histogram lists the rejected blocks
    (``_Intervals.rejected``) for the parser's per-block checks.
    """
    size = _FRAME_BLOCK
    accepted, odd, rejected = [], [], []
    for s in range(0, len(frames) - 1, size):
        ends, starts = frames[s + 1 : s + size + 1], frames[s : s + size]
        try:
            accepted.append(bytes(map(sub, ends, starts)))
        except (TypeError, ValueError):
            odd.append(list(map(sub, ends, starts)))  # a frame that is not a number raises
            rejected.append(s)
    counts = _Intervals()
    counts.update(d for block in odd for d in block if type(d) is not int)
    counts.update(d for block in odd for d in block if type(d) is int)
    steps = b"".join(accepted)
    while steps:
        d = steps[0]
        rest = steps.translate(None, bytes((d,)))
        counts[d] += len(steps) - len(rest)
        steps = rest
    counts.rejected = frozenset(rejected)
    return counts


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
        if not all(map(le, starts, ends)):
            i = next((i for i, (a, b) in enumerate(zip(starts, ends)) if b < a), None)
            if i is not None:  # else a NaN, which no order check can place
                return s + i + 1
    return None


# --- parsing -----------------------------------------------------------

_TOP_KEYS = {"schema_version", "device", "game", "events"}
_EVENT_KEYS = {"launch", "frames", "battery", "temperature", "touch", "scene_loads"}


def _warn_unknown(obj: dict, known: set[str], path: str) -> None:
    # The warning names parse_session's caller: parse_session checks the top
    # level itself and each section one call deeper, in _parse_<record|events>.
    level = 4 if path else 3
    for key in obj:
        if key not in known:
            where = f"{path}.{key}" if path else key
            warnings.warn(f"ignoring unknown key '{where}'", UnknownKeyWarning, stacklevel=level)


# Bulk column checks, by the reader the walk takes for the column: each
# returns the column, with reals as floats, when every element passes, and
# None otherwise, which sends the stream to the walk to name the bad entry.


def _int_column(xs: list) -> list | None:
    if not set(map(type, xs)) <= {int}:
        return None
    return xs if not xs or (INT64_MIN <= min(xs) and max(xs) <= INT64_MAX) else None


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


_COLUMN_CHECKS = {as_int: _int_column, as_real: _real_column, as_str: _str_column}


def _parse_rows(rows: Sequence, row: type, where: str) -> list:
    """``rows`` read as ``row`` NamedTuples; a bad entry raises the walk's ``<where>[i][j]: ...``."""
    readers = _COLUMNS[row]
    if all(map(isinstance, rows, repeat((list, tuple)))) and set(map(len, rows)) <= {len(readers)}:
        columns = [
            _COLUMN_CHECKS[read](list(map(itemgetter(j), rows))) for j, read in enumerate(readers)
        ]
        if all(column is not None for column in columns):
            return list(zip(*columns))
    # The walk returns only for a direct build's int, float or str subclasses.
    return [as_row(entry, f"{where}[{i}]", readers) for i, entry in enumerate(rows)]


def _as_frame(value: Any, where: str) -> int:
    t = as_int(value, where)
    if not -FRAME_LIMIT_MS < t < FRAME_LIMIT_MS:
        raise SchemaError(f"{where}: frame timestamp outside +/-2**53 ms")
    return t


def _parse_frames(frames: Sequence, where: str) -> Counter:
    """Check every frame an int within +/-2**53 ms; return the histogram of the intervals.

    A bad frame raises the walk's ``SchemaError``, ``<where>[N]: ...``.
    Integer keys, none negative, prove every frame an int or a bool, in
    order (a float gives a float interval, kept under a float key; any
    other type raises): then only the leading frames ``<= 1``, the only
    ones a bool can be, are type-checked, and the endpoints bound the rest.
    """
    lo, hi = 1 - FRAME_LIMIT_MS, FRAME_LIMIT_MS - 1
    try:
        intervals = frame_intervals(frames)
    except (TypeError, OverflowError):  # a frame that is not a number, or an int past float
        intervals = Counter()
        rejected = range(0, len(frames), _FRAME_BLOCK)  # every block takes the type pass
    else:
        if intervals and set(map(type, intervals)) <= {int} and min(intervals) >= 0:
            if _int_head(frames) and lo <= frames[0] and frames[-1] <= hi:
                return intervals
        rejected = intervals.rejected
    # Otherwise each block is checked by the rule its byte pass allows and
    # only the frames of a block that fails are walked, up to the first the
    # walk rejects. Fewer than 2 frames, or out of order: once every frame
    # is in range, the constructor names the fault.
    for s in range(0, max(len(frames) - 1, 1), _FRAME_BLOCK):
        block = frames[s : s + _FRAME_BLOCK + 1]
        if len(block) < 2 or s in rejected:
            ok = set(map(type, block)) <= {int} and (
                not block or (lo <= min(block) and max(block) <= hi)
            )
        else:  # bytes took its intervals: ints or bools, in order
            ok = _int_head(block) and lo <= block[0] and block[-1] <= hi
        if not ok:
            for i, v in enumerate(block, s):
                if type(v) is not int or not lo <= v <= hi:
                    _as_frame(v, f"{where}[{i}]")  # of these, only an int subclass passes
    return intervals


def _parse_record(root: dict, key: str, record: type) -> Any:
    """The section ``key`` read into ``record`` by its fields' declared types."""
    obj = as_obj(require(root, key, ""), key)
    _warn_unknown(obj, {f.name for f in fields(record)}, key)
    return record(**read_record(record, obj, key))


def _parse_events(obj: dict) -> dict[str, Any]:
    _warn_unknown(obj, _EVENT_KEYS, "events")
    frames = as_list(require(obj, "frames", "events"), "events.frames")
    intervals = _parse_frames(frames, "events.frames")

    launch = None
    if obj.get("launch") is not None:
        launch = as_row(obj["launch"], "events.launch", _COLUMNS[LaunchEvent])

    events = {"frames": tuple(frames), "_intervals": intervals, "launch": launch}
    for name, row in _ROW_STREAMS.items():
        where = f"events.{name}"  # absent and explicit null both mean "not recorded"
        rows = [] if obj.get(name) is None else as_list(obj[name], where)
        events[name] = _parse_rows(rows, row, where)
    return events


def parse_session(data: bytes) -> SessionTelemetry:
    """Parse and validate one session document.

    Raises ``SessionSyntaxError`` for malformed text, ``SchemaError`` for
    missing/mistyped fields (naming the field path) and ``ValidationError``
    for invariant violations (naming the invariant).
    """
    root = as_obj(decode(data, SessionSyntaxError, "session document"), "top level")
    _warn_unknown(root, _TOP_KEYS, "")
    version = require_version(root, SCHEMA_VERSION)
    device = _parse_record(root, "device", DeviceMeta)
    settings = _parse_record(root, "game", GameSettings)
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


def validate_comparability(settings: Sequence[GameSettings]) -> ComparabilityReport:
    """Flag sessions whose game or settings tiers differ from the modal values.

    ``settings`` holds each session's :class:`GameSettings`, in session
    order. Purely advisory: nothing is mutated or rejected. Modal ties
    break toward the smallest value so the report is deterministic.
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
    return ComparabilityReport(tuple(flags))
