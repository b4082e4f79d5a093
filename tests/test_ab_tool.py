"""tools/ab.py: the summary rule, on pairs of values given here (the
script's benchmark runs of whole revisions take far longer than a unit
test)."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("ab", TOOLS / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_resolved_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    a = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    lower = ab.summarize(a, [x - 3.0 for x in a], "lower")
    assert lower["b_wins"] == "10/10" and lower["resolved"]
    assert lower["a_q1_median_q3"] == pytest.approx([10.45, 10.9, 11.35])
    assert lower["per_pair_b_over_a"][0] == pytest.approx(0.7)
    # the same values where higher is better: B loses every pair
    assert ab.summarize(a, [x - 3.0 for x in a], "higher")["b_wins"] == "0/10"
    # 9/10 wins with a gap beyond A's IQR (0.9) is resolved; 8/10 is not
    nine = [x - 3.0 for x in a[:9]] + [a[9] + 1.0]
    assert ab.summarize(a, nine, "lower")["resolved"]
    eight = [x - 3.0 for x in a[:8]] + [a[8] + 1.0, a[9] + 1.0]
    assert not ab.summarize(a, eight, "lower")["resolved"]
    # every pair won, but the median gap (0.5) lies inside A's IQR (0.9)
    close = ab.summarize(a, [x - 0.5 for x in a], "lower")
    assert close["b_wins"] == "10/10" and not close["resolved"]


def test_ties_count_for_neither_side():
    same = ab.summarize([1.5, 1.5, 1.5], [1.5, 1.5, 1.5], "lower")
    assert same["b_wins"] == "0/3" and not same["resolved"]
    assert same["b_over_a"] == 1.0


def test_one_pair_and_bad_input():
    one = ab.summarize([2.0], [1.0], "lower")
    assert one["a_q1_median_q3"] == [2.0, 2.0, 2.0] and one["resolved"]
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        ab.summarize([1.0], [1.0], "faster")


def test_report_line_says_not_resolved():
    metrics = {"peak_rss_mb": ab.summarize([85.4, 85.6], [85.5, 85.5], "lower")}
    (line,) = ab.report_lines(metrics)
    assert line.startswith("peak_rss_mb") and line.endswith("not resolved")
