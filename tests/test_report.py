"""Tests for the reporting primitives (tables, sparklines, checks)."""

import pytest

from repro.bench.report import (
    ExperimentResult,
    ResultTable,
    ShapeCheck,
    format_bytes,
    format_cell,
    sparkline,
)


def test_result_table_alignment():
    table = ResultTable(columns=["name", "value"])
    table.add_row("alpha", 1.2345)
    table.add_row("b", 100)
    text = table.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert "1.23" in text
    assert "100" in text
    assert len({len(line) for line in lines[:2]}) >= 1


def test_result_table_rejects_bad_row():
    table = ResultTable(columns=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_result_table_column_and_filter():
    table = ResultTable(columns=["kind", "x"])
    table.add_row("FP", 1)
    table.add_row("PGM", 2)
    table.add_row("FP", 3)
    assert table.column("x") == [1, 2, 3]


def test_csv_output():
    table = ResultTable(columns=["a", "b"])
    table.add_row("x", 0.5)
    csv = table.to_csv()
    assert csv == "a,b\nx,0.50\n"


def test_sparkline_shape():
    line = sparkline([0, 1, 2, 3])
    assert len(line) == 4
    assert line[0] == "▁"
    assert line[-1] == "█"
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == "▁▁▁"


def test_format_bytes():
    assert format_bytes(512) == "512 B"
    assert format_bytes(2048) == "2.0 KiB"
    assert format_bytes(3 * 1024 * 1024) == "3.0 MiB"


def test_format_cell():
    assert format_cell(True) == "yes"
    assert format_cell(1.23456, 3) == "1.235"
    assert format_cell("txt") == "txt"


def test_experiment_result_checks():
    result = ExperimentResult("figX", "demo")
    result.check("holds", True)
    result.check("fails", False, "reason")
    assert not result.all_checks_passed
    assert len(result.failed_checks()) == 1
    rendered = result.render()
    assert "[PASS] holds" in rendered
    assert "[FAIL] fails — reason" in rendered


def test_shape_check_render():
    check = ShapeCheck("name", True, "detail")
    assert check.render() == "[PASS] name — detail"
