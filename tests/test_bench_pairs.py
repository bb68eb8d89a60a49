"""``scripts/bench_pairs.py``'s report, on canned benchmark result lines;
no benchmark runs here."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

GATED = [{"name": "op_s_min", "unit": "s", "better": "lower"},
         {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def _stdout(op_s_min, rss, failed=0):
    """A run's stdout: metric lines, then the JSON result as its last line."""
    result = {"correct": failed == 0, "attempted": 40, "failed": failed,
              "metrics": {"op_s_min": {"value": op_s_min, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return f"workload sweep_model seed 1: 40 ops\n  op_s_min = {op_s_min} s\n" \
        + json.dumps(result) + "\n"


def _pairs(parent, change, rss=(66.0, 66.0)):
    return [{"parent": bench_pairs.parse_result(_stdout(p, rss[0])),
             "change": bench_pairs.parse_result(_stdout(c, rss[1]))}
            for p, c in zip(parent, change)]


def test_parse_result_reads_the_last_line():
    got = bench_pairs.parse_result(_stdout(0.1, 66.5, failed=2))
    assert got["failed"] == 2 and got["metrics"]["op_s_min"]["value"] == 0.1
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")


def test_summary_counts_the_pairs_the_change_wins():
    pairs = _pairs([0.10, 0.11, 0.12, 0.13, 0.14], [0.09, 0.10, 0.13, 0.11, 0.12],
                   rss=(66.0, 66.5))
    lines = bench_pairs.summarize(pairs, GATED)
    assert lines[0] == "op_s_min parent: 0.12 [0.11, 0.13] s"
    assert lines[1] == "op_s_min change: 0.11 [0.1, 0.12] s"
    assert lines[2] == ("op_s_min: change lower in 4 of 5; median change -0.01 (-8.3%), "
                        "parent interquartile range 0.02")
    assert lines[5] == ("peak_rss_mb: change lower in 0 of 5; median change +0.5 (+0.8%), "
                        "parent interquartile range 0")
    assert len(lines) == 6


def test_higher_is_better_metrics_count_the_other_way():
    pairs = _pairs([2.0, 3.0], [2.5, 2.5])
    lines = bench_pairs.summarize(pairs, [{"name": "op_s_min", "unit": "x", "better": "higher"}])
    assert lines[2].startswith("op_s_min: change higher in 1 of 2;")


def test_pair_line_and_failed_runs():
    pairs = _pairs([0.1], [0.09])
    assert bench_pairs.pair_line(3, pairs[0], GATED) == (
        "pair 3: op_s_min parent 0.1, op_s_min change 0.09, peak_rss_mb parent 66, "
        "peak_rss_mb change 66, failed ops 0")
    assert bench_pairs.failed_runs(pairs) == 0
    pairs[0]["change"] = bench_pairs.parse_result(_stdout(0.09, 66.0, failed=1))
    assert bench_pairs.failed_runs(pairs) == 1
