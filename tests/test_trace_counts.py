"""tools/trace_counts.py: the two-checkout form reports only what differs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "trace_counts", Path(__file__).resolve().parents[1] / "tools" / "trace_counts.py"
)
trace_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_counts)


def _report(queries=10.0, failed=0, correct=True):
    return {
        "honest-L8": {
            "attempted": 20, "failed": failed, "correct": correct,
            "metrics": {"oracle.queries": queries, "tables.built": 4.0},
        },
        "fold-L512": {"attempted": 4, "failed": 0, "correct": True, "metrics": {"oracle.queries": 3.0}},
    }


def test_identical_reports_have_no_differences():
    assert trace_counts.differences(_report(), _report()) == {}


def test_only_differing_fields_are_reported():
    diff = trace_counts.differences(_report(), _report(queries=11.0, failed=1, correct=False))
    assert diff == {"honest-L8": {"correct": [True, False], "failed": [0, 1], "oracle.queries": [10.0, 11.0]}}


def test_a_field_or_workload_missing_on_one_side_differs():
    change = _report()
    del change["fold-L512"]
    del change["honest-L8"]["metrics"]["tables.built"]
    diff = trace_counts.differences(_report(), change)
    assert diff["honest-L8"] == {"tables.built": [4.0, None]}
    assert diff["fold-L512"] == {"attempted": [4, None], "correct": [True, None], "failed": [0, None],
                                 "oracle.queries": [3.0, None]}


def test_three_checkouts_are_a_usage_error(capsys):
    assert trace_counts.main(["a", "b", "c"]) == 2
    assert "usage" in capsys.readouterr().err


def test_a_checkout_that_yields_no_report_is_an_error(tmp_path):
    with pytest.raises(SystemExit, match="exited with code 1"):
        trace_counts.main([str(tmp_path / "missing"), str(tmp_path / "missing")])
