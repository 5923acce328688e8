import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpindex.errors import DuplicateDeviceError, EmptyInputError, MixedProfilesError
from gpindex.indices import MainIndex, ScoreCard
from gpindex.report import (
    CSV_HEADER,
    INDEX_COLUMNS,
    REPORT_SCHEMA_VERSION,
    ComparisonRow,
    ComparisonTable,
    emit_plot_data,
    emit_report,
    rank_devices,
    round_display,
)


def parse_report(data):
    """Read a json report back into a ComparisonTable: the round-trip oracle for emit_report."""
    doc = json.loads(data.decode("utf-8"))
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    code_index = dict(INDEX_COLUMNS)
    rows = tuple(
        ComparisonRow(
            rank=row["rank"],
            device_id=row["device_id"],
            overall_exact=float(row["overall_exact"]),
            overall_display=row["overall_display"],
            index_display={code_index[code]: value for code, value in row["indices"].items()},
            flags=tuple(row["flags"]),
        )
        for row in doc["rows"]
    )
    return ComparisonTable(profile_name=doc["profile"], rows=rows)


def make_card(device_id, overall, profile="competitive", mains=None, flags=()):
    if mains is None:
        mains = {index: overall for index in MainIndex}
    return ScoreCard(
        device_id=device_id,
        profile_name=profile,
        sessions=(),
        median_overall=overall,
        median_main=mains,
        flags=tuple(flags),
    )


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(86.5, 87), (86.4999, 86), (0.5, 1), (0.4999, 0), (79.4999, 79), (79.5001, 80), (100.0, 100)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_display(value) == expected


class TestRankDevices:
    def test_tie_shares_rank_and_next_skips(self):
        table = rank_devices(
            [make_card("A", 86.2), make_card("B", 86.2), make_card("C", 71.0)]
        )
        assert [(r.device_id, r.rank, r.overall_display) for r in table.rows] == [
            ("A", 1, 86),
            ("B", 1, 86),
            ("C", 3, 71),
        ]

    def test_single_card(self):
        table = rank_devices([make_card("solo", 42.0)])
        assert table.rows[0].rank == 1

    def test_ranking_uses_exact_not_display(self):
        # both display as 79/80 but Y's exact score wins
        table = rank_devices([make_card("X", 79.4999), make_card("Y", 79.5001)])
        assert [(r.device_id, r.rank, r.overall_display) for r in table.rows] == [
            ("Y", 1, 80),
            ("X", 2, 79),
        ]

    def test_tied_exacts_break_by_device_id(self):
        table = rank_devices([make_card("zeta", 50.0), make_card("alpha", 50.0)])
        assert [r.device_id for r in table.rows] == ["alpha", "zeta"]
        assert [r.rank for r in table.rows] == [1, 1]

    def test_mixed_profiles_rejected(self):
        with pytest.raises(MixedProfilesError):
            rank_devices([make_card("A", 50.0), make_card("B", 50.0, profile="casual")])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            rank_devices([])

    def test_duplicate_device_rejected(self):
        with pytest.raises(DuplicateDeviceError, match="'A'"):
            rank_devices([make_card("A", 50.0), make_card("B", 40.0), make_card("A", 50.0)])
        with pytest.raises(MixedProfilesError):  # the profile check comes first
            rank_devices([make_card("A", 50.0), make_card("A", 50.0, profile="casual")])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=12, unique=True))
    def test_ranking_consistent_with_exact_scores(self, overalls):
        cards = [make_card(f"d{i:02d}", v) for i, v in enumerate(overalls)]
        rows = rank_devices(cards).rows
        for a, b in zip(rows, rows[1:]):
            assert a.overall_exact >= b.overall_exact
            assert (a.rank < b.rank) == (a.overall_exact > b.overall_exact)
            assert (a.rank == b.rank) == (a.overall_exact == b.overall_exact)


class TestEmitReport:
    def table(self):
        mains = {index: 80.0 for index in MainIndex}
        mains[MainIndex.SWIFTNESS] = None
        return rank_devices(
            [
                make_card("device_x", 86.25, mains=mains, flags=("overall: missing swiftness (weights renormalized)",)),
                make_card("device_y", 71.0),
            ]
        )

    def test_json_golden(self):
        golden = (
            b'{\n'
            b'  "schema_version": 1,\n'
            b'  "profile": "competitive",\n'
            b'  "rows": [\n'
            b'    {\n'
            b'      "rank": 1,\n'
            b'      "device_id": "device_x",\n'
            b'      "overall_exact": 86.2500,\n'
            b'      "overall_display": 86,\n'
            b'      "indices": {\n'
            b'        "vs": 80,\n'
            b'        "gq": 80,\n'
            b'        "ba": 80,\n'
            b'        "te": 80,\n'
            b'        "sw": null,\n'
            b'        "re": 80\n'
            b'      },\n'
            b'      "flags": [\n'
            b'        "overall: missing swiftness (weights renormalized)"\n'
            b'      ]\n'
            b'    },\n'
            b'    {\n'
            b'      "rank": 2,\n'
            b'      "device_id": "device_y",\n'
            b'      "overall_exact": 71.0000,\n'
            b'      "overall_display": 71,\n'
            b'      "indices": {\n'
            b'        "vs": 71,\n'
            b'        "gq": 71,\n'
            b'        "ba": 71,\n'
            b'        "te": 71,\n'
            b'        "sw": 71,\n'
            b'        "re": 71\n'
            b'      },\n'
            b'      "flags": []\n'
            b'    }\n'
            b'  ]\n'
            b'}\n'
        )
        assert emit_report(self.table(), "json") == golden

    def test_json_round_trip(self):
        table = self.table()
        parsed = parse_report(emit_report(table, "json"))
        assert parsed == table
        assert emit_report(parsed, "json") == emit_report(table, "json")

    def test_json_is_valid_json_with_4_decimals(self):
        payload = emit_report(self.table(), "json")
        doc = json.loads(payload)
        assert doc["rows"][0]["overall_exact"] == 86.25
        assert b'"overall_exact": 86.2500' in payload

    def test_csv_shape(self):
        payload = emit_report(self.table(), "csv").decode()
        lines = payload.splitlines()
        assert len(lines) == 3  # header + 2 devices
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("device_x,competitive,1,86,80,80,80,80,,80")
        assert payload.endswith("\n")

    def test_emission_is_canonical(self):
        a, b = self.table(), self.table()
        assert emit_report(a, "json") == emit_report(b, "json")
        assert emit_report(a, "csv") == emit_report(b, "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self.table(), "xml")


class TestPlotData:
    def test_cardinality_9x2(self):
        competitive = rank_devices([make_card(f"device_{i}", 50.0 + i) for i in range(9)])
        casual = rank_devices(
            [make_card(f"device_{i}", 90.0 - i, profile="casual") for i in range(9)]
        )
        lines = emit_plot_data([competitive, casual]).decode().splitlines()
        assert lines[0] == "device_id,profile,overall_display"
        assert len(lines) == 1 + 18

    def test_single_device_single_profile(self):
        table = rank_devices([make_card("only", 66.6)])
        lines = emit_plot_data([table]).decode().splitlines()
        assert len(lines) == 2
        assert lines[1] == "only,competitive,67"

    def test_rows_grouped_by_device(self):
        competitive = rank_devices([make_card("b", 10.0), make_card("a", 20.0)])
        casual = rank_devices(
            [make_card("b", 30.0, profile="casual"), make_card("a", 5.0, profile="casual")]
        )
        lines = emit_plot_data([competitive, casual]).decode().splitlines()[1:]
        assert lines == [
            "a,competitive,20",
            "a,casual,5",
            "b,competitive,10",
            "b,casual,30",
        ]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            emit_plot_data([])
