"""scripts/bench_pairs.py: the summary of alternating parent/change pairs
and its claim rule, on fixed numbers, without starting a run."""

import pytest

from conftest import load_script

bench_pairs = load_script("bench_pairs")

END_TO_END = [{"name": "pass_s", "better": "lower"},
              {"name": "success_ratio", "better": "higher"},
              {"name": "setup_s", "better": "lower"}]


def _runs(parent: list, change: list, counters=None) -> list:
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for tree, value in zip(bench_pairs.order(pair),
                               (p, c) if pair % 2 == 0 else (c, p)):
            runs.append({
                "workload": "record-replay", "round": pair, "tree": tree,
                "seed": 53,
                "info": {"work_counters": dict(counters or {"steps": 10})},
                "result": {"correct": True, "attempted": 10, "failed": 2,
                           "metrics": {"pass_s": {"value": value},
                                       "success_ratio": {"value": 0.8},
                                       "setup_s": {"value": 0.1}}}})
    return runs


PARENT = [0.310, 0.312, 0.309, 0.311, 0.313, 0.308, 0.310, 0.314, 0.311,
          0.312]


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_nine_wins_of_ten_and_a_gap_past_the_iqr_hold_the_claim():
    change = [v - 0.012 for v in PARENT]
    change[3] = 0.312           # one pair lost
    summary = bench_pairs.summarize(_runs(PARENT, change), END_TO_END)
    m = summary["metrics"]["pass_s"]
    assert m["parent"] == pytest.approx(
        {"median": 0.311, "q1": 0.31, "q3": 0.312})
    assert m["change_wins"] == "9/10" and m["claim_rule_holds"]
    assert m["change"]["median"] == pytest.approx(0.2995)
    assert m["change_vs_parent"] == pytest.approx(0.2995 / 0.311 - 1)
    assert m["pairs_parent_change"][3] == [0.311, 0.312]
    # equal values are ties: no wins, and no claim, either direction
    for name in ("success_ratio", "setup_s"):
        tie = summary["metrics"][name]
        assert tie["change_wins"] == "0/10" and not tie["claim_rule_holds"]
    assert summary["pairs"] == 10 and summary["all_correct"]
    assert summary["failed_ops"] == {"parent": [0.2], "change": [0.2]}
    assert summary["work_counters_equal"]
    assert summary["work_counters"] == {"steps": 10}


def test_eight_wins_or_a_gap_inside_the_iqr_fail_the_claim():
    change = [v - 0.012 for v in PARENT]
    change[3] = change[4] = 0.315
    eight = bench_pairs.summarize(_runs(PARENT, change), END_TO_END)
    assert eight["metrics"]["pass_s"]["change_wins"] == "8/10"
    assert not eight["metrics"]["pass_s"]["claim_rule_holds"]
    # ten wins by less than the parent's interquartile range of 0.002 s
    close = bench_pairs.summarize(
        _runs(PARENT, [v - 0.001 for v in PARENT]), END_TO_END)
    assert close["metrics"]["pass_s"]["change_wins"] == "10/10"
    assert not close["metrics"]["pass_s"]["claim_rule_holds"]


def test_a_higher_is_better_metric_wins_upward():
    runs = _runs(PARENT, PARENT)
    for run in runs:
        if run["tree"] == "change":
            run["result"]["metrics"]["success_ratio"]["value"] = 1.0
    m = bench_pairs.summarize(runs, END_TO_END)["metrics"]["success_ratio"]
    assert m["change_wins"] == "10/10" and m["claim_rule_holds"]


def test_work_counters_that_differ_are_reported():
    runs = _runs(PARENT, PARENT)
    runs[-1]["info"]["work_counters"] = {"steps": 11}
    assert not bench_pairs.summarize(runs, END_TO_END)["work_counters_equal"]


def test_a_result_that_is_not_correct_fails():
    ok = '{"errors": []}\n{"correct": true, "metrics": {}}\n'
    assert bench_pairs.result_of("noise\n" + ok)[1]["correct"] is True
    bad = '{"errors": ["x"]}\n{"correct": false, "metrics": {}}\n'
    with pytest.raises(bench_pairs.BenchFailed, match="correct: False"):
        bench_pairs.result_of(bad)
    with pytest.raises(bench_pairs.BenchFailed, match="no result"):
        bench_pairs.result_of("")
