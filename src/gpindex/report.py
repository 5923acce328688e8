"""Device comparison tables and canonical report emission.

Ranking always reads exact (unrounded) scores, so a half-point display
artifact can never reorder devices (:func:`rank_devices`).

All emitters are canonical: fixed key order, reals with exactly 4
decimal places, "\\n" newlines, UTF-8 — equal tables serialize to
identical bytes on every platform.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

import orjson

from .errors import DuplicateDeviceError, EmptyInputError, MixedProfilesError
from .indices import MainIndex, ScoreCard
from .jsondoc import Record, asdict, shown
from .telemetry import _ROW_STREAMS, SessionTelemetry

REPORT_SCHEMA_VERSION = 1

# Column code -> main index, in the frozen report order.
INDEX_COLUMNS: tuple[tuple[str, MainIndex], ...] = (
    ("vs", MainIndex.VISUAL_SMOOTHNESS),
    ("gq", MainIndex.GRAPHICAL_QUALITY),
    ("ba", MainIndex.BATTERY),
    ("te", MainIndex.TEMPERATURE),
    ("sw", MainIndex.SWIFTNESS),
    ("re", MainIndex.RESPONSIVENESS),
)

CSV_HEADER = "device_id,profile,rank,overall,vs,gq,ba,te,sw,re,flags"


def round_display(score: float) -> int:
    """Round half away from zero; display-only, never used for ranking."""
    return int(math.copysign(math.floor(abs(score) + 0.5), score))


class ComparisonRow(Record):
    rank: int
    device_id: str
    overall_exact: float
    overall_display: int
    index_display: dict[MainIndex, int | None]
    flags: tuple[str, ...]


class ComparisonTable(Record):
    profile_name: str
    rows: tuple[ComparisonRow, ...]


def rank_devices(cards: Sequence[ScoreCard]) -> ComparisonTable:
    """Rank score cards (all for the same profile, one per device) into a comparison table.

    Rows sort by exact overall descending, ties broken by device_id
    ascending; equal exact scores share a rank and the next rank skips
    (competition ranking: 1, 1, 3).
    """
    if not cards:
        raise EmptyInputError("rank_devices requires at least one score card")
    profiles = {c.profile_name for c in cards}
    if len(profiles) > 1:
        raise MixedProfilesError(f"cards span multiple profiles: {sorted(profiles)}")
    ids = sorted(c.device_id for c in cards)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise DuplicateDeviceError(f"device '{shown(a)}' is scored more than once")

    ordered = sorted(cards, key=lambda c: (-c.median_overall, c.device_id))
    rows = []
    rank = 1
    for i, card in enumerate(ordered):
        if i > 0 and card.median_overall != ordered[i - 1].median_overall:
            rank = i + 1
        rows.append(
            ComparisonRow(
                rank=rank,
                device_id=card.device_id,
                overall_exact=card.median_overall,
                overall_display=round_display(card.median_overall),
                index_display={
                    index: None if card.median_main[index] is None
                    else round_display(card.median_main[index])
                    for index in MainIndex
                },
                flags=card.flags,
            )
        )
    return ComparisonTable(profile_name=profiles.pop(), rows=tuple(rows))


# --- canonical writers -------------------------------------------------


def _canon(value: Any, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".4f")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(k, ensure_ascii=False)}: {_canon(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {_canon(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv_field(value: str) -> str:
    # A bare "\r" ends a row for csv readers as "\n" does.
    if any(c in value for c in ",\"\n\r"):
        return '"' + value.replace('"', '""') + '"'
    return value


def emit_report(table: ComparisonTable, format: str = "json") -> bytes:
    """Serialize a comparison table canonically as json or csv."""
    if format == "json":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "profile": table.profile_name,
            "rows": [
                {
                    "rank": row.rank,
                    "device_id": row.device_id,
                    "overall_exact": row.overall_exact,
                    "overall_display": row.overall_display,
                    "indices": {
                        code: row.index_display[index] for code, index in INDEX_COLUMNS
                    },
                    "flags": list(row.flags),
                }
                for row in table.rows
            ],
        }
        return (_canon(doc, 0) + "\n").encode("utf-8")
    if format == "csv":
        lines = [CSV_HEADER]
        for row in table.rows:
            cells = [
                _csv_field(row.device_id),
                _csv_field(table.profile_name),
                str(row.rank),
                str(row.overall_display),
            ]
            for _, index in INDEX_COLUMNS:
                display = row.index_display[index]
                cells.append("" if display is None else str(display))
            cells.append(_csv_field("|".join(row.flags)))
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format '{format}'")


def emit_plot_data(tables: Sequence[ComparisonTable]) -> bytes:
    """Grouped-bar-chart data: one row per (device, profile) with the display score.

    Rows group by device_id (ascending), profiles in the order the
    tables were given, so any plotting tool can redraw the comparison.
    """
    if not tables:
        raise EmptyInputError("emit_plot_data requires at least one table")
    by_device: dict[str, list[tuple[str, int]]] = {}
    for table in tables:
        for row in table.rows:
            by_device.setdefault(row.device_id, []).append(
                (table.profile_name, row.overall_display)
            )
    lines = ["device_id,profile,overall_display"]
    for device_id in sorted(by_device):
        for profile_name, display in by_device[device_id]:
            lines.append(f"{_csv_field(device_id)},{_csv_field(profile_name)},{display}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- session writer ----------------------------------------------------


def serialize_session(session: SessionTelemetry) -> bytes:
    """Canonical session-file bytes; parse_session(serialize_session(s)) == s.

    The document is ``json.dumps`` with compact separators, in the
    records' field order. Floats use shortest round-trip repr (not the
    4-decimal report style) so values survive the round trip exactly.

    The frame stream, almost all of a file's bytes, is written by orjson:
    a session's frames are ints within +/-2**53, whose digits orjson
    writes as json does. The rest stays on json, which writes some floats
    unlike orjson (``1e-05``, ``1e+16``).
    """
    # The records' fields in declaration order; an unrecorded device property is left out.
    device = {name: value for name, value in asdict(session.device).items() if value is not None}
    game = asdict(session.settings)

    # json writes tuples, NamedTuples included, as arrays: no stream is copied.
    events: dict[str, Any] = {}
    if session.launch is not None:
        events["launch"] = session.launch
    events["frames"] = ()
    for name in _ROW_STREAMS:
        if getattr(session, name):
            events[name] = getattr(session, name)

    doc = {
        "schema_version": session.schema_version,
        "device": device,
        "game": game,
        "events": events,
    }
    text = json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"
    # json escapes every quote inside a string, so '"frames":[]' can only be the frames key.
    head, _, tail = text.encode("utf-8").partition(b'"frames":[]')
    return b"".join((head, b'"frames":', orjson.dumps(session.frames), tail))
