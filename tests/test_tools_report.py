"""Tests for the experiment report generator."""

import os

from repro.tools.report import collect_tables, compose_report


def test_collect_tables_from_fixture_dir(tmp_path):
    (tmp_path / "test_bench_naming.txt").write_text("E2 table body")
    (tmp_path / "test_bench_tadds_extra.txt").write_text("E3 table body")
    (tmp_path / "unrelated.txt").write_text("ignored")
    (tmp_path / "notes.md").write_text("ignored too")
    grouped = collect_tables(str(tmp_path))
    assert grouped == {
        "E2-naming": ["E2 table body"],
        "E3-tadds": ["E3 table body"],
    }


def test_compose_report_includes_tables_and_missing(tmp_path):
    (tmp_path / "test_bench_naming.txt").write_text("THE-E2-TABLE")
    report = compose_report(str(tmp_path), now="test-time")
    assert "THE-E2-TABLE" in report
    assert "## E2-naming" in report
    assert "test-time" in report
    assert "Missing results" in report
    assert "E9-nsloop" in report  # listed as missing


def test_compose_report_empty_dir(tmp_path):
    report = compose_report(str(tmp_path))
    assert "Missing results" in report


def test_compose_report_nonexistent_dir(tmp_path):
    report = compose_report(str(tmp_path / "nope"))
    assert "Missing results" in report


def test_real_results_compose_when_present():
    """If the benches have run in this checkout, the report groups
    every experiment."""
    here = os.path.dirname(os.path.abspath(__file__))
    results = os.path.join(here, "..", "benchmarks", "results")
    if not os.path.isdir(results) or not os.listdir(results):
        import pytest
        pytest.skip("benches have not produced results yet")
    report = compose_report(results)
    assert "## E1-layering" in report
