"""Summary arithmetic of the pair runner on fixed input.

Run from the root of a checkout:  python3 -m pytest -q tools/tests
"""

import pytest

import bench_pairs

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "rate", "better": "higher", "bound": 0.1}]


def runs(workload, parent, change, metric="wall_s"):
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for position, side in enumerate(bench_pairs.order(pair)):
            value = p if side == "parent" else c
            out.append({"workload": workload, "pair": pair, "seed": 1 + pair, "side": side,
                        "position": position, "correct": True, "attempted": 10,
                        "failed": 0, "metrics": {metric: value, "rate": 1.0 / value}})
    return out


def test_order_alternates_which_side_runs_first():
    assert [bench_pairs.order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_holds():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [6.0, 6.5, 7.0, 7.5, 8.0, 6.0, 6.5, 7.0, 7.5, 15.0]
    s = bench_pairs.summarize_metric(parent, change, "lower", 0.25)
    assert s["pairs"] == 10
    assert s["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert s["change"] == {"median": 7.0, "q1": 6.5, "q3": 7.5}
    assert s["change_wins"] == 9
    assert s["median_change"] == pytest.approx(7.0 / 12.0 - 1.0)
    assert s["parent_iqr_over_median"] == pytest.approx(2.0 / 12.0)
    assert s["parent_spread_within_bound"] is True
    assert s["within_regression_bound"] is True
    assert s["gain_holds"] is True


def test_eight_wins_in_ten_is_no_gain():
    parent = [10.0] * 10
    change = [5.0] * 8 + [11.0, 12.0]
    s = bench_pairs.summarize_metric(parent, change, "lower", 0.25)
    assert s["change_wins"] == 8
    assert s["gain_holds"] is False


def test_a_gain_inside_the_parent_iqr_does_not_hold():
    parent = [8.0, 12.0, 8.0, 12.0]
    change = [7.9, 11.9, 7.9, 11.9]
    s = bench_pairs.summarize_metric(parent, change, "lower", 0.25)
    assert s["change_wins"] == 4
    assert s["gain_holds"] is False
    assert s["parent_spread_within_bound"] is False   # IQR 4 against a median of 10


def test_regression_bound_and_higher_is_better():
    s = bench_pairs.summarize_metric([10.0, 10.0], [13.0, 13.0], "lower", 0.25)
    assert s["median_change"] == pytest.approx(0.3)
    assert s["within_regression_bound"] is False
    assert s["change_wins"] == 0
    s = bench_pairs.summarize_metric([1.0, 1.0], [0.95, 1.2], "higher", 0.1)
    assert s["change_wins"] == 1
    assert s["within_regression_bound"] is True
    s = bench_pairs.summarize_metric([1.0, 1.0], [0.8, 0.8], "higher", 0.1)
    assert s["within_regression_bound"] is False


def test_mismatched_runs_are_rejected():
    with pytest.raises(ValueError):
        bench_pairs.summarize_metric([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        bench_pairs.summarize_metric([], [], "lower", 0.25)


def test_summarize_pairs_runs_by_seed_and_skips_an_unfinished_pair():
    all_runs = (runs("spectrum_numerics", [4.0, 2.0, 3.0], [1.0, 1.5, 5.0])
                + runs("cli_session", [1.0], [2.0]))
    all_runs.append({**all_runs[0], "pair": 3, "seed": 4, "metrics": {"wall_s": 99.0,
                                                                      "rate": 1.0}})
    summary = bench_pairs.summarize(all_runs, END_TO_END)
    assert list(summary) == ["spectrum_numerics", "cli_session"]
    wall = summary["spectrum_numerics"]["wall_s"]
    assert wall["pairs"] == 3
    assert wall["parent"]["median"] == 3.0
    assert wall["change"]["median"] == 1.5
    assert wall["change_wins"] == 2
    rate = summary["spectrum_numerics"]["rate"]
    assert rate["better"] == "higher" and rate["change_wins"] == 2
    assert summary["spectrum_numerics"]["all_correct"] is True
    assert summary["cli_session"]["wall_s"]["change_wins"] == 0


def test_a_failed_op_clears_all_correct():
    all_runs = runs("amplitude_algebra", [1.0, 1.0], [1.0, 1.0])
    all_runs[-1]["failed"] = 1
    summary = bench_pairs.summarize(all_runs, END_TO_END)
    assert summary["amplitude_algebra"]["all_correct"] is False


def test_parse_pairs():
    assert bench_pairs.parse_pairs(["spectrum_numerics=10", "cli_session=5"]) == {
        "spectrum_numerics": 10, "cli_session": 5}
    for bad in ("spectrum_numerics", "cli_session=0", "cli_session=x"):
        with pytest.raises(Exception, match="WORKLOAD=COUNT"):
            bench_pairs.parse_pairs([bad])
