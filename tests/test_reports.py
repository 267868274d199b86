"""Artifact format: cell formatting, CSV round trips, payload extraction,
and the JSON run summary schema."""

import json

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from randcurv.reports import (
    RUN_SCHEMA,
    RunRecord,
    format_cell,
    format_column,
    payload_lines,
    read_csv,
    write_csv,
    write_run_json,
)


class TestFormatCell:
    def test_floats_full_precision(self):
        x = 0.1234567890123456789
        assert format_cell(x) == repr(x)
        assert float(format_cell(x)) == x

    def test_numpy_scalars_are_plain(self):
        assert format_cell(np.float64(1.5)) == "1.5"

    def test_none_bool_int(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(7) == "7"

    def test_strings_lose_separators(self):
        assert format_cell("a, b\nc") == "a; b c"

    def test_numpy_bools_are_plain_bools(self):
        # a bool cell's text does not depend on its container
        assert format_cell(np.bool_(True)) == "true"
        assert format_cell(np.bool_(False)) == "false"
        assert format_column(np.array([True, False])) == ["true", "false"]


_SIZES = st.integers(0, 40)
_SPECIAL_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300]
)


class TestFormatColumn:
    # format_column is format_cell applied cell by cell, whatever the
    # container: the CSV bytes must not depend on its fast paths

    @given(arrays(np.float64, _SIZES, elements=st.floats() | _SPECIAL_FLOATS))
    @example(np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]))
    def test_float64(self, col):
        assert format_column(col) == [format_cell(v) for v in col]

    @given(
        st.one_of(
            arrays(np.float32, _SIZES, elements=st.floats(width=32)),
            arrays(np.int64, _SIZES),
            arrays(np.uint8, _SIZES),
            arrays(np.bool_, _SIZES),
        )
    )
    @example(np.array([0.1], dtype=np.float32))
    def test_other_dtypes(self, col):
        assert format_column(col) == [format_cell(v) for v in col]

    @given(
        st.lists(
            st.none()
            | st.text()
            | st.text(alphabet="a,\n")
            | st.booleans()
            | st.integers()
            | st.floats()
        )
    )
    @example([None, "a, b\nc", True, 7, 0.1, float("nan")])
    def test_mixed_lists(self, col):
        assert format_column(col) == [format_cell(v) for v in col]

    def test_float32_keeps_its_own_digits(self):
        assert format_column(np.array([0.1], dtype=np.float32)) == ["0.1"]


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        meta = {"config_hash": "ab" * 8, "sigma": 1.2345678901234567}
        header = ["a", "value", "note"]
        rows = [[0.1, 1e-300, "ok"], [0.2, None, ""]]
        write_csv(path, meta, header, [format_column(col) for col in zip(*rows)])
        got_meta, got_header, got_rows = read_csv(path)
        assert got_meta["config_hash"] == "ab" * 8
        assert float(got_meta["sigma"]) == 1.2345678901234567
        assert got_header == header
        assert float(got_rows[0][1]) == 1e-300
        assert got_rows[1][1] == ""

    def test_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            write_csv(tmp_path / "t.csv", {}, ["a", "b"], [format_column([1.0])])

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            write_csv(tmp_path / "t.csv", {}, ["a", "b"], [["1.0", "2.0"], ["3.0"]])
        assert not (tmp_path / "t.csv").exists()

    def test_payload_excludes_metadata(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"k": "v"}, ["a"], [format_column([1.0])])
        lines = payload_lines(path)
        assert lines == ["a", "1.0"]


class TestRunJson:
    def test_schema_validates(self, tmp_path):
        record = RunRecord(
            command="p2",
            config_hash="0123456789abcdef",
            version="0.1.0",
            timestamp="2026-01-01T00:00:00+00:00",
            config_text="command=p2\nseed=0",
            artifacts=("runs/p2_x.csv",),
            rows=({"a": 0.4, "estimate": 0.1, "warnings": "", "flag": True, "gap": None},),
        )
        path = write_run_json(tmp_path / "run.json", record)
        doc = json.loads(open(path).read())
        jsonschema.validate(doc, RUN_SCHEMA)
        assert doc["rows"][0]["a"] == 0.4

    def test_extra_top_level_key_fails_schema(self):
        doc = {
            "command": "p2", "config_hash": "0" * 16, "version": "x",
            "timestamp": "t", "config": "c", "artifacts": [], "rows": [],
            "surprise": 1,
        }
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, RUN_SCHEMA)
