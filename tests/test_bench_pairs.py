"""The paired-benchmark summary: quartiles, ratio of medians, pairs won,
the pair rule and the verdicts against each metric's bound, from
hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(workload, base, change, failed=(0, 0), correct=(True, True)):
    """One base and one change run per seed, with metric 't' and 'rate'."""
    out = []
    for seed, (b, c) in enumerate(zip(base, change)):
        for side, value, bad, ok in (("base", b, failed[0], correct[0]),
                                     ("change", c, failed[1], correct[1])):
            out.append({"workload": workload, "seed": seed, "side": side,
                        "attempted": 10, "failed": bad, "correct": ok,
                        "metrics": {"t": value, "rate": 1.0 / value}})
    return out


METRICS = {"t": {"better": "lower", "bound": 0.25},
           "rate": {"better": "higher", "bound": 0.25}}


def test_quartiles_are_numpy_linear_percentiles():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 10.0]) == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_a_change_faster_in_every_pair_is_a_gain_in_both_directions():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    s = bench_pairs.summarize(runs("w", base, [0.7 * b for b in base]),
                              METRICS)["w"]
    assert s["pairs"] == 10
    assert s["t"]["pairs_won"] == 10 and s["rate"]["pairs_won"] == 10
    assert s["t"]["ratio"] == pytest.approx(0.7)
    assert s["t"]["base"]["median"] == pytest.approx(1.2)
    assert s["t"]["gain_by_pair_rule"] and s["rate"]["gain_by_pair_rule"]


def test_ties_count_for_neither_side():
    base = [1.0] * 10
    s = bench_pairs.summarize(runs("w", base, base), METRICS)["w"]
    assert s["t"]["pairs_won"] == 0
    assert not s["t"]["gain_by_pair_rule"]


def test_eight_pairs_of_ten_are_not_a_gain():
    base = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    s = bench_pairs.summarize(runs("w", base, change), METRICS)["w"]
    assert s["t"]["pairs_won"] == 8
    assert not s["t"]["gain_by_pair_rule"]


def test_a_gain_inside_the_base_spread_is_not_a_gain():
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    s = bench_pairs.summarize(runs("w", base, [b - 0.1 for b in base]),
                              METRICS)["w"]
    assert s["t"]["pairs_won"] == 10
    assert not s["t"]["gain_by_pair_rule"]   # 0.1 against an IQR of 2


@pytest.mark.parametrize("failed, correct", [((0, 1), (True, True)),
                                             ((1, 2), (True, True)),
                                             ((0, 0), (True, False))])
def test_more_failures_or_a_failed_check_is_not_a_gain(failed, correct):
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    s = bench_pairs.summarize(runs("w", base, [0.7 * b for b in base],
                                   failed=failed, correct=correct), METRICS)["w"]
    assert s["t"]["pairs_won"] == 10
    assert not s["t"]["gain_by_pair_rule"]
    assert not s["rate"]["gain_by_pair_rule"]


def test_as_few_failures_as_the_base_still_count_as_a_gain():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    s = bench_pairs.summarize(runs("w", base, [0.7 * b for b in base],
                                   failed=(1, 1), correct=(False, True)),
                              METRICS)["w"]
    assert (s["base_incorrect"], s["change_incorrect"]) == (10, 0)
    assert s["t"]["gain_by_pair_rule"]


def test_unpaired_runs_are_left_out_and_failures_summed():
    r = runs("w", [1.0, 2.0], [1.0, 2.0], failed=(1, 0))
    r.append({"workload": "w", "seed": 9, "side": "base", "attempted": 10,
              "failed": 5, "correct": False,
              "metrics": {"t": 100.0, "rate": 0.01}})
    s = bench_pairs.summarize(r + runs("v", [1.0], [2.0]), METRICS)
    assert set(s) == {"v", "w"}
    assert s["w"]["pairs"] == 2
    assert (s["w"]["base_failed"], s["w"]["base_attempted"]) == (2, 20)
    assert s["w"]["t"]["base"]["median"] == 1.5
    assert s["v"]["t"]["pairs_won"] == 0


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("101-104") == [101, 102, 103, 104]
    assert bench_pairs.parse_seeds("3,5,8") == [3, 5, 8]


def test_each_workload_alternates_which_side_runs_first():
    for j in range(2):
        firsts = [bench_pairs.pair_order(i, j)[0] for i in range(4)]
        assert firsts in (["base", "change"] * 2, ["change", "base"] * 2)
    assert bench_pairs.pair_order(0, 0) != bench_pairs.pair_order(0, 1)


def fake_tree(tmp_path, body):
    """A tree whose perfbench/run.py is ``body``."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(body)
    return tmp_path


RESULT = ('import json\nprint("perfbench done")\nprint(json.dumps({"correct": True, '
          '"attempted": 5, "failed": 0, "metrics": {"t": {"value": 1.5, "unit": "s"}}}))\n')


@pytest.mark.parametrize("body", [
    "import sys\nprint('starting', flush=True)\nsys.exit('boom')\n",
    "print('perfbench: no result')\n",
    "",
    RESULT + "raise SystemExit(1)\n",
], ids=["exit-1", "no-result-line", "no-output", "result-then-exit-1"])
def test_a_crashed_run_is_recorded_not_raised(tmp_path, body):
    r = bench_pairs.run_once(fake_tree(tmp_path, body), "w", 1, 0.1)
    assert r["crashed"] and not r["correct"]
    assert r["metrics"] == {} and (r["attempted"], r["failed"]) == (0, 0)


def test_a_finished_run_gives_its_result_line(tmp_path):
    r = bench_pairs.run_once(fake_tree(tmp_path, RESULT), "w", 1, 0.1)
    assert r == {"attempted": 5, "failed": 0, "correct": True,
                 "crashed": False, "metrics": {"t": 1.5}}


def crash(runs_, seed, side):
    for r in runs_:
        if r["seed"] == seed and r["side"] == side:
            r.update(crashed=True, correct=False, attempted=0, failed=0,
                     metrics={})
    return runs_


@pytest.mark.parametrize("side", ["base", "change"])
def test_a_crashed_pair_is_left_out_and_never_a_gain(side):
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    r = crash(runs("w", base, [0.7 * b for b in base]), 0, side)
    s = bench_pairs.summarize(r, METRICS)["w"]
    assert s["pairs"] == 10 and s[f"{side}_crashed"] == 1
    assert s["t"]["pairs_won"] == 9
    assert s["t"]["base"]["median"] == pytest.approx(1.2)
    # nine of ten pairs is enough where the base crashed, never where the
    # change did
    assert s["t"]["gain_by_pair_rule"] == (side == "base")


def test_every_pair_crashed_gives_no_quartiles():
    r = crash(crash(runs("w", [1.0], [0.5]), 0, "base"), 0, "change")
    s = bench_pairs.summarize(r, METRICS)["w"]
    assert s["t"] == {"better": "lower", "pairs_won": 0,
                      "gain_by_pair_rule": False}


@pytest.mark.parametrize("factor, within", [(1.2, True), (1.25, True),
                                            (1.3, False), (0.5, True)])
def test_within_bound_compares_medians_by_the_bound(factor, within):
    # 't' may grow by a quarter of the base median: 2.0 -> 2.5 at most
    base = [2.0] * 10
    s = bench_pairs.summarize(runs("w", base, [factor * b for b in base]),
                              METRICS)["w"]
    assert s["t"]["within_bound"] is within
    assert not s["t"]["unresolved"]


@pytest.mark.parametrize("rate, within", [(0.76, True), (0.74, False),
                                          (2.0, True)])
def test_within_bound_follows_the_better_direction(rate, within):
    # 'rate' is better higher: a median below 0.75 of the base's is worse
    # than the bound
    r = runs("w", [1.0] * 10, [1.0] * 10)
    for run in r:
        if run["side"] == "change":
            run["metrics"]["rate"] = rate
    s = bench_pairs.summarize(r, METRICS)["w"]
    assert s["rate"]["within_bound"] is within


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # base quartiles 1.0 and 1.6 around a median of 1.3: a spread of 46%
    base = [0.8, 1.0, 1.0, 1.0, 1.3, 1.3, 1.6, 1.6, 1.6, 1.8]
    s = bench_pairs.summarize(runs("w", base, list(reversed(base))),
                              METRICS)["w"]
    assert s["t"]["unresolved"] and s["t"]["within_bound"]
    assert s["rate"]["unresolved"]


def test_a_wide_spread_is_resolved_when_every_change_run_is_better():
    base = [0.8, 1.0, 1.0, 1.0, 1.3, 1.3, 1.6, 1.6, 1.6, 1.8]
    s = bench_pairs.summarize(runs("w", base, [0.7] * 10), METRICS)["w"]
    assert not s["t"]["unresolved"] and not s["rate"]["unresolved"]
    # and a change worse in every run, beyond the bound, is no better
    s = bench_pairs.summarize(runs("w", base, [2.0] * 10), METRICS)["w"]
    assert s["t"]["unresolved"] and not s["t"]["within_bound"]
