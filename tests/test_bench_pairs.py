"""tools/bench_pairs.py: the verdict a BENCH file records for each metric,
and the refusal to compare checkouts whose benchmarks differ."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _verdict(parent_runs, change_runs, higher=True, bound=0.15):
    summary = bench_pairs._summary
    return bench_pairs._compare(summary(parent_runs), summary(change_runs), higher, bound)


def test_clear_win_is_better():
    parent = [100.0 + i for i in range(10)]
    assert _verdict(parent, [x + 20 for x in parent]) == (10, "better")


def test_clear_win_on_a_lower_is_better_metric():
    parent = [1.0 + i / 100 for i in range(10)]
    assert _verdict(parent, [x - 0.2 for x in parent], higher=False, bound=0.25) == (10, "better")


def test_too_few_pair_wins_is_not_better():
    parent = [100.0 + i for i in range(10)]
    change = [x + 20 for x in parent[:8]] + parent[8:]  # 8 of 10 pairs won, the last two tie
    assert _verdict(parent, change) == (8, "within bound")


def test_wide_parent_iqr_is_unresolved():
    parent = [80.0 + 5 * i for i in range(10)]  # IQR 22.5 > 0.15 x median 102.5
    assert _verdict(parent, [x + 5 for x in parent]) == (10, "unresolved")


def test_wide_parent_iqr_with_every_change_run_better_is_resolved():
    parent = [100.0] * 5 + [200.0] * 5  # IQR 100 exceeds the gain of 51
    assert _verdict(parent, [201.0] * 10) == (10, "within bound")


def test_regression_beyond_the_bound_is_worse():
    parent = [1.0 + i / 100 for i in range(10)]
    assert _verdict(parent, [x + 0.5 for x in parent], higher=False, bound=0.25) == (0, "worse")
    parent = [100.0 + i for i in range(10)]
    assert _verdict(parent, [x - 20 for x in parent]) == (0, "worse")


def test_tie_is_within_bound_and_wins_nothing():
    parent = [100.0 + i for i in range(10)]
    assert _verdict(parent, list(parent)) == (0, "within bound")


def _checkout(root: Path, run_py: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text('{"run_seconds": 30}')
    return root


def test_refuses_checkouts_whose_benchmarks_differ(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    change = _checkout(tmp_path / "change", "print(2)\n")
    assert bench_pairs.main([str(parent), str(change), "--seed", "1"]) == 2
    assert "perfbench/run.py" in capsys.readouterr().err


def test_refuses_a_missing_checkout(tmp_path):
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    assert bench_pairs.main([str(parent), str(tmp_path / "absent"), "--seed", "1"]) == 2
